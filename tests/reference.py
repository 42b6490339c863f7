"""Reference implementations that only the tests use.

Two kinds live here:

- Byte-for-byte references for the batched encoders: copies of
  ``collision_encode_batch``, ``_uniform_subsets`` and ``gse_encode_batch``
  as they were before their kernels were rewritten to work column by column.
  The package's encoders must draw the same random numbers in the same order
  and return the same bytes; ``tests/test_local.py`` compares them.
- Exact or per-report forms the package's results are checked against:
  per-report collision estimate rows, the separation product's exact
  per-entry MSE and whole-matrix randomized response for the DP verifier.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from privlabel.core import PrivacyParams
from privlabel.local import (
    CollisionParams,
    GseParams,
    _check_support,
    _hit_blocks,
    bucket_hash,
    collision_indicator_moments,
    rr_flip_probability,
)


# ---------------------------------------------------------------------------
# the encoders before their column-wise kernels


def collision_encode_batch(
    support: np.ndarray, params: CollisionParams, rng: np.random.Generator, n_reports: int
) -> tuple[np.ndarray, np.ndarray]:
    support = _check_support(support, params, n_reports)
    l = params.filter_length
    e_eps = math.exp(params.epsilon)
    seeds = rng.integers(0, 2 ** 63, size=n_reports, dtype=np.uint64)
    hashed = np.sort(bucket_hash(seeds[:, None], support, l), axis=1)
    is_new = np.ones_like(hashed, dtype=bool)
    if hashed.shape[1] > 1:
        is_new[:, 1:] = np.diff(hashed, axis=1) > 0
    kappa = is_new.sum(axis=1)
    # each row's distinct hashed values in increasing order, padded past kappa
    distinct = np.sort(np.where(is_new, hashed, np.iinfo(np.int64).max), axis=1)
    hit_mass = kappa * e_eps / params.omega
    # a fully covered filter renormalizes to uniform over the hit cells
    pick_hit = (rng.random(n_reports) < np.minimum(hit_mass, 1.0)) | (kappa == l)
    u = rng.random(n_reports)
    cells = np.empty(n_reports, dtype=np.int64)

    # hit branch: j-th distinct hashed value
    j = np.floor(u * kappa).astype(np.int64)
    cells[pick_hit] = distinct[pick_hit, j[pick_hit]]

    # miss branch: j-th cell skipping the distinct hashed values in order
    miss = ~pick_hit
    z = np.floor(u[miss] * (l - kappa[miss])).astype(np.int64)
    skipped = distinct[miss]
    for col in range(skipped.shape[1]):
        z += z >= skipped[:, col]
    cells[miss] = z
    return seeds, cells


def uniform_subsets(rng: np.random.Generator, population: int, counts: np.ndarray) -> np.ndarray:
    width = int(counts.max(initial=0))
    if width == 0:
        return np.zeros((counts.size, 0), dtype=np.int64)
    if 2 * width > population:
        return np.argsort(rng.random((counts.size, population)), axis=1)[:, :width]
    # sequence length: the mean number of draws to see `width` distinct values plus 4 sd
    q = np.arange(width) / population
    length = math.ceil(np.sum(1.0 / (1.0 - q)) + 4.0 * math.sqrt(np.sum(q / (1.0 - q) ** 2))) + 1
    out = np.zeros((counts.size, width), dtype=np.int64)
    todo = np.arange(counts.size)
    while todo.size:
        draws = rng.integers(0, population, size=(todo.size, length))
        # sorting value * length + position orders each row by value, ties by position
        keys = np.sort(draws * length + np.arange(length), axis=1)
        # a value's first occurrence heads its run
        head = np.ones(draws.shape, dtype=bool)
        np.not_equal(keys[:, 1:] // length, keys[:, :-1] // length, out=head[:, 1:])
        first = np.empty_like(head)
        np.put_along_axis(first, keys % length, head, axis=1)
        seen = np.cumsum(first, axis=1)
        need = counts[todo]
        # the k-th kept value goes to column k - 1, every other draw to a spare last column
        found = np.zeros((todo.size, width + 1), dtype=np.int64)
        np.put_along_axis(found, np.where(first & (seen <= need[:, None]), seen - 1, width), draws, axis=1)
        full = seen[:, -1] >= need
        out[todo[full]] = found[full, :width]
        todo = todo[~full]
    return out


def gse_encode_batch(
    support: np.ndarray, params: GseParams, rng: np.random.Generator, n_reports: int
) -> np.ndarray:
    support = _check_support(support, params, n_reports)
    d, c, l = params.domain_size, params.support_size, params.output_size
    pmf = params.law.pmf
    overlaps = rng.choice(pmf.size, size=n_reports, p=pmf)
    members = np.broadcast_to(support, (n_reports, c))
    if c > 1:
        members = np.take_along_axis(members, np.argsort(rng.random((n_reports, c)), axis=1), axis=1)
    others = uniform_subsets(rng, d - c, l - overlaps)
    for skipped in np.sort(members, axis=1).T:
        others += others >= skipped[:, None]
    # column j is the row's j-th member while j < i, else its (j - i)-th other cell
    pos = np.arange(l)
    pick = np.where(pos < overlaps[:, None], pos, c + pos - overlaps[:, None])
    return np.take_along_axis(np.concatenate([members, others], axis=1), pick, axis=1)


# ---------------------------------------------------------------------------
# per-report and exact references


def collision_report_estimates(seeds: np.ndarray, cells: np.ndarray, params: CollisionParams) -> np.ndarray:
    """(n_reports, d) unbiased indicator estimates, one row per report.

    Row i holds (1[H_i(v) = z_i] - 1/l) / (e^eps/Omega - 1/l) at every
    coordinate v; ``collision_indicator_estimates`` is their column sum.
    The rows are built from the package's own hit blocks, so a test of them
    under any block layout tests that kernel.
    """
    rows = np.empty((np.size(seeds), params.domain_size))
    for start, block in _hit_blocks(seeds, cells, params):
        rows[start : start + len(block)] = (block - 1.0 / params.filter_length) / params.estimator_denominator
    return rows


def separation_entry_mse(
    params_pair: tuple[CollisionParams, CollisionParams], in_bucket: bool, in_label: bool
) -> float:
    """Exact per-entry MSE of the separation product at a given truth."""
    bucket_params, label_params = params_pair
    _, m2_t = collision_indicator_moments(bucket_params, in_bucket)
    _, m2_y = collision_indicator_moments(label_params, in_label)
    truth = float(in_bucket and in_label)
    return m2_t * m2_y - truth * truth


def rr_matrix_pmfs(params: PrivacyParams) -> tuple[list[tuple], Callable[[tuple], np.ndarray]]:
    """Whole-matrix randomized response on a tiny shape.

    Inputs are all valid one-record vote matrices; outputs all binary
    matrices.  Guarded to shapes with at most 12 cells.
    """
    s, y, k, r = params.s, params.label_count, params.k, params.r
    cells = s * y
    if cells > 12:
        raise ValueError("matrix-level verification is guarded to <= 12 cells")
    p = rr_flip_probability(params.epsilon, params.k, params.r)
    degree = min(k, s)
    inputs = []
    for buckets in itertools.combinations(range(s), degree):
        for labels in itertools.combinations(range(y), r):
            matrix = np.zeros((s, y), dtype=np.uint8)
            for b in buckets:
                matrix[b, list(labels)] = 1
            inputs.append(tuple(matrix.ravel().tolist()))
    outputs = list(itertools.product((0, 1), repeat=cells))

    def pmf(flat_input: tuple) -> np.ndarray:
        inp = np.asarray(flat_input)
        probs = np.empty(len(outputs))
        for i, out in enumerate(outputs):
            flips = int(np.sum(inp != np.asarray(out)))
            probs[i] = (p ** flips) * ((1.0 - p) ** (cells - flips))
        return probs

    return inputs, pmf
