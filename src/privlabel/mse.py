"""Mean-squared-error comparison of the single-report local oracles.

For one client (n = 1) with a fixed vote instance, measures the average
per-entry MSE of three ways to release the s x label_count matrix: the flat
collision report over the full s*label_count domain, the separation split
(half budget on the bucket set, half on the labels), and the concatenation
report (full budget on the joined support).  A report's squared error depends
only on its hit counts over a coordinate set and over the support inside it,
so every curve is a reduction of per-trial ``collision_hit_counts``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeds as seeds_mod
from .core import flatten_support
from .local import (
    CollisionParams,
    collision_encode_batch,
    collision_hit_counts,
    concatenation_params,
    separation_params,
)


@dataclass
class MseCurves:
    eps_grid: np.ndarray
    collision: np.ndarray
    separation: np.ndarray
    concatenation: np.ndarray

    def csv_text(self) -> str:
        """The curves as CSV: a header, then one row per budget."""
        lines = ["eps,collision_mse,separation_mse,concatenation_mse"]
        for row in zip(self.eps_grid, self.collision, self.separation, self.concatenation):
            lines.append("{:.6g},{:.8g},{:.8g},{:.8g}".format(*map(float, row)))
        return "\n".join(lines) + "\n"


def _estimate_sums(params: CollisionParams, hits, support_hits, size: int, support_size: int):
    """Per-report (sum of squared indicator estimates, sum of the estimates
    on the support) over a coordinate set of ``size`` holding a support of
    ``support_size``, from the report's hits over the set and the support."""
    w = 1.0 / params.filter_length
    denom = params.estimator_denominator
    squares = (hits * (1.0 - w) ** 2 + (size - hits) * w * w) / (denom * denom)
    return squares, (support_hits - support_size * w) / denom


def _encode_sums(support: np.ndarray, params: CollisionParams, rng: np.random.Generator, trials: int):
    """``_estimate_sums`` of ``trials`` fresh reports over the whole domain."""
    seeds, cells = collision_encode_batch(support, params, rng, trials)
    hits, support_hits = collision_hit_counts(seeds, cells, params, (slice(None), support))
    return _estimate_sums(params, hits, support_hits, params.domain_size, support.size)


def _mean_mse(squares: np.ndarray, on_support: np.ndarray, support_size: int, cells: int) -> float:
    """Mean over trials of the per-entry MSE against a 0/1 truth with
    ``support_size`` ones: sum (est - truth)^2 = sum est^2 - 2 sum_S est + |S|.

    For a product estimate outer(a, b) both sums factor into the factors'
    sums, since sum (a_i b_j)^2 = sum a^2 sum b^2 over the whole matrix.
    """
    return float((squares - 2.0 * on_support + support_size).sum()) / (cells * squares.size)


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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    eps_grid = np.asarray(eps_grid, dtype=np.float64)
    bucket_support = np.arange(k, dtype=np.int64)
    label_support = np.arange(r, dtype=np.int64)
    flat = flatten_support(bucket_support, label_support, label_count)
    cat_support = np.concatenate([bucket_support, s + label_support])
    d, kr = s * label_count, k * r
    col = np.empty(eps_grid.size)
    sep = np.empty(eps_grid.size)
    cat = np.empty(eps_grid.size)
    for i, eps in enumerate(eps_grid.tolist()):
        rng = seeds_mod.generator(master_seed, "mse-collision", i)
        col[i] = _mean_mse(*_encode_sums(flat, CollisionParams.for_budget(d, kr, eps), rng, trials), kr, d)

        rng = seeds_mod.generator(master_seed, "mse-separation", i)
        bucket_params, label_params = separation_params(s, label_count, k, r, eps)
        a = _encode_sums(bucket_support, bucket_params, rng, trials)
        b = _encode_sums(label_support, label_params, rng, trials)
        sep[i] = _mean_mse(a[0] * b[0], a[1] * b[1], kr, d)

        rng = seeds_mod.generator(master_seed, "mse-concatenation", i)
        params = concatenation_params(s, label_count, k, r, eps)
        seeds, cells = collision_encode_batch(cat_support, params, rng, trials)
        hits = collision_hit_counts(
            seeds, cells, params, (slice(None, s), bucket_support, slice(s, None), s + label_support)
        )
        a = _estimate_sums(params, hits[0], hits[1], s, k)
        b = _estimate_sums(params, hits[2], hits[3], label_count, r)
        cat[i] = _mean_mse(a[0] * b[0], a[1] * b[1], kr, d)
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
