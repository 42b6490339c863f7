"""Mean-squared-error comparison of the single-report local oracles.

For one client (n = 1) with a fixed vote instance, measures the average
per-entry MSE of three ways to release the s x label_count matrix: the flat
collision report over the full s*label_count domain, the separation split
(half budget on the bucket set, half on the labels), and the concatenation
report (full budget on the joined support).  Per-trial MSE reduces to a few
per-trial sums, so everything runs vectorized in chunks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeds as seeds_mod
from .local import (
    CollisionParams,
    bucket_hash,
    collision_encode_batch,
    collision_report_estimates,
    concatenation_params,
    flatten_support,
    separation_params,
)

_CHUNK_CELLS = 1 << 23


@dataclass
class MseCurves:
    eps_grid: np.ndarray
    collision: np.ndarray
    separation: np.ndarray
    concatenation: np.ndarray

    def rows(self):
        for i, eps in enumerate(self.eps_grid):
            yield float(eps), float(self.collision[i]), float(self.separation[i]), float(
                self.concatenation[i]
            )


def _flat_collision_mse(
    support: np.ndarray, params: CollisionParams, rng: np.random.Generator, trials: int
) -> float:
    d, c, l = params.domain_size, params.support_size, params.filter_length
    w = 1.0 / l
    denom = params.estimator_denominator
    e_hit = (1.0 - w) / denom
    e_miss = -w / denom
    seeds, cells = collision_encode_batch(support, params, rng, trials)
    coords = np.arange(d, dtype=np.int64)
    total = 0.0
    rows = max(1, _CHUNK_CELLS // d)
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        sub_seeds, sub_cells = seeds[start:stop], cells[start:stop]
        all_hits = (
            bucket_hash(sub_seeds[:, None], coords[None, :], l) == sub_cells[:, None]
        ).sum(axis=1)
        sup_hits = (
            bucket_hash(sub_seeds[:, None], support[None, :], l) == sub_cells[:, None]
        ).sum(axis=1)
        out_hits = all_hits - sup_hits
        sq = (
            out_hits * e_hit ** 2
            + (d - c - out_hits) * e_miss ** 2
            + sup_hits * (e_hit - 1.0) ** 2
            + (c - sup_hits) * (e_miss - 1.0) ** 2
        )
        total += float(sq.sum()) / d
    return total / trials


def _product_mse(
    a_est: np.ndarray, b_est: np.ndarray, bucket_support: np.ndarray, label_support: np.ndarray
) -> np.ndarray:
    """Per-trial average MSE of outer(a, b) against the 0/1 truth matrix."""
    s = a_est.shape[1]
    y = b_est.shape[1]
    kr = bucket_support.size * label_support.size
    a_sq = (a_est ** 2).sum(axis=1)
    b_sq = (b_est ** 2).sum(axis=1)
    a_sup = a_est[:, bucket_support].sum(axis=1)
    b_sup = b_est[:, label_support].sum(axis=1)
    return (a_sq * b_sq - 2.0 * a_sup * b_sup + kr) / (s * y)


def _separation_mse(
    bucket_support: np.ndarray,
    label_support: np.ndarray,
    s: int,
    label_count: int,
    k: int,
    r: int,
    epsilon: float,
    rng: np.random.Generator,
    trials: int,
) -> float:
    bucket_params, label_params = separation_params(s, label_count, k, r, epsilon)
    seeds_t, cells_t = collision_encode_batch(bucket_support, bucket_params, rng, trials)
    seeds_y, cells_y = collision_encode_batch(label_support, label_params, rng, trials)
    total = 0.0
    rows = max(1, _CHUNK_CELLS // (s + label_count))
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        a = collision_report_estimates(seeds_t[start:stop], cells_t[start:stop], bucket_params)
        b = collision_report_estimates(seeds_y[start:stop], cells_y[start:stop], label_params)
        total += float(_product_mse(a, b, bucket_support, label_support).sum())
    return total / trials


def _concatenation_mse(
    bucket_support: np.ndarray,
    label_support: np.ndarray,
    s: int,
    label_count: int,
    k: int,
    r: int,
    epsilon: float,
    rng: np.random.Generator,
    trials: int,
) -> float:
    params = concatenation_params(s, label_count, k, r, epsilon)
    support = np.concatenate([bucket_support, s + label_support])
    seeds, cells = collision_encode_batch(support, params, rng, trials)
    total = 0.0
    rows = max(1, _CHUNK_CELLS // (s + label_count))
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        est = collision_report_estimates(seeds[start:stop], cells[start:stop], params)
        total += float(
            _product_mse(est[:, :s], est[:, s:], bucket_support, label_support).sum()
        )
    return total / trials


def mse_comparison(
    s: int,
    label_count: int,
    k: int,
    r: int,
    eps_grid: np.ndarray,
    trials: int,
    master_seed: int,
) -> MseCurves:
    """Monte-Carlo MSE curves on a canonical instance (first k buckets, first
    r labels) for each budget on the grid."""
    eps_grid = np.asarray(eps_grid, dtype=np.float64)
    bucket_support = np.arange(k, dtype=np.int64)
    label_support = np.arange(r, dtype=np.int64)
    flat = flatten_support(bucket_support, label_support, label_count)
    col = np.empty(eps_grid.size)
    sep = np.empty(eps_grid.size)
    cat = np.empty(eps_grid.size)
    for i, eps in enumerate(eps_grid):
        flat_params = CollisionParams.for_budget(s * label_count, k * r, float(eps))
        col[i] = _flat_collision_mse(
            flat, flat_params, seeds_mod.generator(master_seed, "mse-collision", i), trials
        )
        sep[i] = _separation_mse(
            bucket_support,
            label_support,
            s,
            label_count,
            k,
            r,
            float(eps),
            seeds_mod.generator(master_seed, "mse-separation", i),
            trials,
        )
        cat[i] = _concatenation_mse(
            bucket_support,
            label_support,
            s,
            label_count,
            k,
            r,
            float(eps),
            seeds_mod.generator(master_seed, "mse-concatenation", i),
            trials,
        )
    return MseCurves(eps_grid, col, sep, cat)


def parse_grid(text: str) -> np.ndarray:
    """Parse ``start:stop:step`` (inclusive endpoints) into a float grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must look like start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError("grid needs stop >= start and step > 0")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)
