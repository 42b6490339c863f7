"""Trusted-curator mechanism: Laplace noise on the aggregated count matrix.

A one-record swap moves the aggregate by at most 2kr in L1 (each record
contributes r ones to each of its <= k buckets), so per-entry Laplace noise
with scale 2kr/eps gives pure eps-DP.  The matching max-error guarantee is
eta(beta) = 2kr * ln(label_count / beta) / eps per bucket.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import PrivacyModel, PrivacyParams, QuerySet, RecordSet, check_beta, record_votes, vote_counts
from .geometry import reverse_knn_connect


def laplace_inverse_cdf(u: float | np.ndarray, scale: float) -> float | np.ndarray:
    """Quantile function of the centered Laplace distribution."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    u = np.asarray(u, dtype=np.float64)
    shifted = u - 0.5
    out = -scale * np.sign(shifted) * np.log1p(-2.0 * np.abs(shifted))
    return float(out) if out.ndim == 0 else out


def sample_laplace(scale: float, rng: np.random.Generator, size=None) -> float | np.ndarray:
    """Inverse-CDF Laplace sampling, deterministic given the generator."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    u = rng.random(size)
    # rng.random can emit exactly 0.0, which would map to -inf
    u = np.maximum(u, 2.0 ** -53) if size is not None else max(u, 2.0 ** -53)
    return laplace_inverse_cdf(u, scale)


def noise_scale(params: PrivacyParams) -> float:
    """Per-entry Laplace scale 2kr/eps (0 in the eps -> inf limit); an eps
    so small that the scale overflows is rejected."""
    if math.isinf(params.epsilon):
        return 0.0
    scale = params.sensitivity / params.epsilon
    if math.isinf(scale):
        raise ValueError(f"epsilon = {params.epsilon} is too small: the Laplace scale 2kr/eps overflows")
    return scale


def central_laplace_mechanism(
    aggregate: np.ndarray, params: PrivacyParams, rng: np.random.Generator
) -> np.ndarray:
    """Add independent Laplace(2kr/eps) noise to every aggregate entry."""
    if params.model is not PrivacyModel.CENTRAL:
        raise ValueError("central mechanism requires the central model")
    aggregate = np.asarray(aggregate, dtype=np.float64)
    if aggregate.shape != (params.s, params.label_count):
        raise ValueError(f"aggregate shape {aggregate.shape} does not match params")
    b = noise_scale(params)
    if b == 0.0:
        return aggregate.copy()
    return aggregate + sample_laplace(b, rng, size=aggregate.shape)


def laplace_accuracy_bound(params: PrivacyParams, beta: float) -> float:
    """Per-bucket max-error bound eta = 2kr * ln(label_count/beta) / eps; a
    budget ``noise_scale`` rejects has no bound."""
    noise_scale(params)
    check_beta(beta)
    if math.isinf(params.epsilon):
        return 0.0
    return params.sensitivity * math.log(params.label_count / beta) / params.epsilon


def log_density_ratio(aggregate: np.ndarray, neighbor: np.ndarray, output: np.ndarray, scale: float) -> float:
    """Log ratio of output densities under two exact aggregates.

    For the product Laplace density this is sum((|z - a'| - |z - a|) / b),
    bounded by L1(a - a') / b; a direct way to spot-check the DP property on
    sampled outputs.
    """
    a = np.asarray(aggregate, dtype=np.float64)
    ap = np.asarray(neighbor, dtype=np.float64)
    z = np.asarray(output, dtype=np.float64)
    return float(((np.abs(z - ap) - np.abs(z - a)) / scale).sum())


def pipeline_aggregate(records: RecordSet, queries: QuerySet, k: int) -> np.ndarray:
    """Exact aggregate of the full connect-and-count pipeline (no privacy)."""
    conn = reverse_knn_connect(records.embeddings, queries, k, squares=records.squared_norms)
    return vote_counts(record_votes(records, conn), (queries.s, records.label_count))


def verify_sensitivity(
    pair_generator: Callable[[], tuple[RecordSet, RecordSet, QuerySet]],
    k: int,
    trials: int,
) -> float:
    """Max observed L1 aggregate difference over generated neighboring datasets.

    Every generated pair must be neighbors (equal size, one record swapped);
    the observed maximum can never exceed 2kr.
    """
    worst = 0.0
    for _ in range(trials):
        left, right, queries = pair_generator()
        if left.m != right.m:
            raise ValueError("neighboring datasets must have equal size")
        a = pipeline_aggregate(left, queries, k)
        b = pipeline_aggregate(right, queries, k)
        diff = float(np.abs(a - b).sum())
        worst = max(worst, diff)
    return worst


def worst_case_neighbor_pair(
    s: int, k: int, r: int, label_count: int
) -> tuple[RecordSet, RecordSet, QuerySet]:
    """A constructed swap attaining the full 2kr sensitivity.

    Queries form two tight groups far apart (plus remote spares); the swapped
    record jumps from one group to the other and changes labels, so removed
    and added mass never overlap.
    """
    if s < 2 * k:
        raise ValueError("worst case needs s >= 2k for disjoint bucket sets")
    if label_count < r + 1:
        raise ValueError("worst case needs label_count > r")
    queries = np.zeros((s, 2))
    queries[:k, 0] = np.arange(k)  # group A near the origin
    queries[k : 2 * k, 0] = 1000.0 + np.arange(k)  # group B far right
    for j in range(2 * k, s):  # spares far away from both groups
        queries[j] = (5000.0 + 1000.0 * j, 5000.0)
    qs = QuerySet(queries)
    emb_a = queries[:k].mean(axis=0, keepdims=True)
    emb_b = queries[k : 2 * k].mean(axis=0, keepdims=True)
    label_a = np.zeros((1, label_count), dtype=np.uint8)
    label_a[0, :r] = 1
    label_b = np.zeros((1, label_count), dtype=np.uint8)
    label_b[0, 1 : r + 1] = 1
    return RecordSet(emb_a, label_a), RecordSet(emb_b, label_b), qs
