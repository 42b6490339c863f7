"""Reference implementations that only the tests use.

Two kinds live here:

- Byte-for-byte references for the batched encoders and the summed
  collision estimate: copies of ``collision_encode_batch``,
  ``_uniform_subsets`` and ``gse_encode_batch`` as they were before their
  kernels were rewritten to work column by column, and of
  ``collision_indicator_estimates`` as it was before it hashed
  (coordinate, report) tiles: it sums the package's report-major hit blocks.
  The package's kernels must draw the same random numbers in the same order
  and return the same bytes; ``tests/test_local.py`` compares them.
- Exact or per-report forms the package's results are checked against:
  per-report collision estimate rows, the separation and concatenation
  products' exact per-entry MSE, per-report randomized response, whose
  summed bits the ``rr`` entry draws directly, and whole-matrix randomized
  response for the DP verifier.
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
# the encoders and the summed collision estimate before their column-wise kernels


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


def collision_indicator_estimates(seeds: np.ndarray, cells: np.ndarray, params: CollisionParams) -> np.ndarray:
    """Summed unbiased indicator estimates for every domain index.

    Each report contributes (1[H(v) = z] - 1/l) / (e^eps/Omega - 1/l) at every
    coordinate v; the sum over reports estimates the support counts.
    """
    hits = np.zeros(params.domain_size, dtype=np.int64)
    # each block's hit bytes are added into one byte buffer of the block's
    # shape, which is reduced over its rows every 255 blocks (before a byte
    # can wrap) and at the end: one cheap add per block instead of a reduction
    acc = None
    for count, (_, block) in enumerate(_hit_blocks(seeds, cells, params), 1):
        if acc is None:
            acc = np.zeros(block.shape, dtype=np.uint8)
        acc[: len(block)] += block.view(np.uint8)
        if count % 255 == 0:
            hits += np.add.reduce(acc, axis=0, dtype=np.int64)
            acc[:] = 0
    if acc is not None:
        hits += np.add.reduce(acc, axis=0, dtype=np.int64)
    return (hits - np.size(seeds) / params.filter_length) / params.estimator_denominator


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


def concatenation_entry_mse(params: CollisionParams, in_bucket: bool, in_label: bool) -> float:
    """Exact per-entry MSE of the shared-report product at a given truth.

    Joint law of the two hit indicators: both hit only when the two
    coordinates hash to the same cell (probability 1/l) and that cell is
    released.
    """
    l = params.filter_length
    p = params.hit_probability
    w = 1.0 / l
    denom = params.estimator_denominator
    q1 = (1.0 - p) / (l - 1)

    hit = ((1.0 - w) / denom) ** 2
    cross = -w * (1.0 - w) / (denom * denom)
    both_miss = (w / denom) ** 2

    if in_bucket and in_label:
        p_hh, p_x, p_y = w * p, (1.0 - w) * p, (1.0 - w) * p
    elif in_bucket:
        p_hh, p_x, p_y = w * p, (1.0 - w) * p, (1.0 - w) * q1
    elif in_label:
        p_hh, p_x, p_y = w * p, (1.0 - w) * q1, (1.0 - w) * p
    else:
        p_hh, p_x, p_y = w * w, w * (1.0 - w), w * (1.0 - w)
    p_none = 1.0 - p_hh - p_x - p_y

    mean = p_hh * hit + (p_x + p_y) * cross + p_none * both_miss
    second = p_hh * hit ** 2 + (p_x + p_y) * cross ** 2 + p_none * both_miss ** 2
    truth = float(in_bucket and in_label)
    return second - 2.0 * truth * mean + truth * truth


def rr_encode_batch(answers: np.ndarray, params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Flip every bit of an (n, s, label_count) stack of one-record vote
    matrices independently: the per-report form of the ``rr`` table entry."""
    answers = np.asarray(answers)
    if not np.isin(answers, (0, 1)).all():
        raise ValueError("randomized response expects binary vote matrices")
    p = rr_flip_probability(params.epsilon, params.k, params.r)
    flips = rng.random(answers.shape) < p
    return (answers.astype(np.uint8) ^ flips.astype(np.uint8)).astype(np.uint8)


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
