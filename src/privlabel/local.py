"""Local randomizers over a single record's vote matrix.

Every client holds one record (clients with several records sample one), whose
vote matrix is a binary s x label_count matrix with k*r ones, flattened
row-major to its support of bucket*label_count + label indices.  ``MECHANISMS``
maps each of four randomizers to a (release, bound) pair: ``release`` turns n
such reports into the summed unbiased estimate, ``bound`` gives its max-error
bound eta(beta):

* randomized response -- per-bit flipping at budget eps/(2kr) per bit;
* local Laplace -- per-entry Laplace(2kr/eps) noise;
* collision -- the flattened support is hashed into a length-l filter and a
  single exponentially tilted cell index is released;
* subset release (GSE) -- a size-l subset of the flattened domain is released,
  tilted by e^eps whenever it overlaps the true support enough.

Two composite oracles trade budget differently for the low-privacy regime:
``separation`` spends eps/2 on the bucket set and eps/2 on the label vector,
``concatenation`` spends the whole budget on their concatenation.  Only their
report parameters and exact per-entry MSE live here, not the products of
indicator estimates they rebuild matrix entries from.  The separation product
is unbiased (independent reports); the concatenation product shares one
report between its factors and is biased at jointly-nonzero entries, which
only the average MSE forgives -- see ``concatenation_entry_mse``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .central import noise_scale
from .core import PrivacyParams, vote_counts

_U64 = np.uint64
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------------
# keyed mixing hash


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; a cheap keyed map from 64-bit keys to 64 bits."""
    with np.errstate(over="ignore"):
        x = (x + _U64(0x9E3779B97F4A7C15)) & _FULL
        x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9) & _FULL
        x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB) & _FULL
        return x ^ (x >> _U64(31))


def bucket_hash(hash_seed: int | np.ndarray, values: np.ndarray, filter_length: int) -> np.ndarray:
    """Hash domain indices into [0, filter_length) under the given seed(s).

    Broadcasts: a scalar seed with a vector of values, or a seed column with a
    value row, yielding a (n_seeds, n_values) matrix.  Seeds and values are
    mixed separately (cheap, pre-broadcast); the broadcast matrix is then
    written once and every later pass runs in place on it and one scratch
    array, since fresh matrices cost more memory traffic than the arithmetic.
    """
    seeds = _mix64(np.asarray(hash_seed, dtype=_U64))
    vals = _mix64(np.asarray(values, dtype=_U64) + _U64(1))
    l = _U64(filter_length)
    x = np.empty(np.broadcast_shapes(seeds.shape, vals.shape), dtype=_U64)
    scratch = np.empty_like(x)
    np.bitwise_xor(seeds, vals, out=x)
    x *= _U64(0xD6E8FEB86659FD93)
    np.right_shift(x, _U64(29), out=scratch)
    x ^= scratch
    # x mod l as x - (x // l) * l: exact in uint64, and scalar division is faster than %
    np.floor_divide(x, l, out=scratch)
    scratch *= l
    x -= scratch
    return x.view(np.int64)  # every value is below l < 2**63


# ---------------------------------------------------------------------------
# randomized response


def rr_flip_probability(epsilon: float, k: int, r: int) -> float:
    """Per-bit flip probability 1 / (e^(eps/(2kr)) + 1).

    An eps so small that this rounds to 1/2 leaves every bit independent of
    its record and is rejected, as ``shuffle.discrete_laplace_parameter``
    rejects a q that rounds to 1.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    try:
        p = 1.0 / (math.exp(epsilon / (2.0 * k * r)) + 1.0)
    except OverflowError:
        return 0.0
    if p == 0.5:
        raise ValueError(
            f"epsilon = {epsilon} is too small: the flip probability 1/(e^(eps/(2kr)) + 1) rounds to 1/2"
        )
    return p


def rr_encode_batch(answers: np.ndarray, params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Flip every bit of an (n, s, label_count) stack of one-record vote
    matrices independently: the per-report form of the ``rr`` table entry."""
    answers = np.asarray(answers)
    if not np.isin(answers, (0, 1)).all():
        raise ValueError("randomized response expects binary vote matrices")
    p = rr_flip_probability(params.epsilon, params.k, params.r)
    flips = rng.random(answers.shape) < p
    return (answers.astype(np.uint8) ^ flips.astype(np.uint8)).astype(np.uint8)


def rr_estimate(bit_sums: np.ndarray, params: PrivacyParams, n: int) -> np.ndarray:
    """Unbiased count estimate (sums - n*p) / (1 - 2p) from observed bit sums."""
    if n < 1:
        raise ValueError("n must be at least 1")
    p = rr_flip_probability(params.epsilon, params.k, params.r)
    return (np.asarray(bit_sums, dtype=np.float64) - n * p) / (1.0 - 2.0 * p)


def rr_accuracy_bound(params: PrivacyParams, n: int, beta: float) -> float:
    """Max-error bound of randomized response over n single-record clients.

    The exponent is capped at 700 to stay in float range; beyond that the
    bound is a vanishing e^(-eps'/2) tail anyway.  A budget
    ``rr_flip_probability`` rejects has no bound.
    """
    _check_beta(beta)
    rr_flip_probability(params.epsilon, params.k, params.r)
    e = math.exp(min(params.epsilon / (2.0 * params.k * params.r), 700.0))
    return (e + 1.0) / (e - 1.0) * math.sqrt(
        3.0 * n * math.log(params.label_count / beta) / (e + 1.0)
    )


# ---------------------------------------------------------------------------
# local Laplace


def local_laplace_accuracy_bound(params: PrivacyParams, n: int, beta: float) -> float:
    """Sub-exponential tail bound: the gaussian-like branch and the pure tail
    branch, whichever dominates.  An eps so small that the bound overflows
    (or eps^2 underflows to 0) is rejected."""
    _check_beta(beta)
    load = math.log(params.label_count / beta)
    kr = params.k * params.r
    eps_squared = params.epsilon ** 2
    quad = math.sqrt(8.0 * load * kr * kr * n * n / eps_squared) if eps_squared > 0 else math.inf
    tail = 4.0 * load * kr / params.epsilon
    eta = max(quad, tail)
    if math.isinf(eta):
        raise ValueError(f"epsilon = {params.epsilon} is too small: the local Laplace bound overflows")
    return eta


# ---------------------------------------------------------------------------
# collision mechanism


def default_filter_length(support_size: int, epsilon: float) -> int:
    """Filter length 2c - 1 + c*e^eps, rounded to the nearest integer >= 2."""
    raw = 2.0 * support_size - 1.0 + support_size * math.exp(min(epsilon, 700.0))
    if raw >= 2.0 ** 62:
        raise ValueError(f"epsilon = {epsilon} implies an impractically long filter")
    return max(2, int(math.floor(raw + 0.5)))


@dataclass(frozen=True)
class CollisionParams:
    """Shape of one collision report: domain d, support size c, budget, filter length."""

    domain_size: int
    support_size: int
    epsilon: float
    filter_length: int

    def __post_init__(self):
        if self.domain_size < 1 or self.support_size < 1:
            raise ValueError("domain and support sizes must be positive")
        if self.support_size > self.domain_size:
            raise ValueError("support cannot exceed the domain")
        if self.epsilon < 0:
            raise ValueError("epsilon cannot be negative")
        if self.filter_length < 2:
            raise ValueError("filter length must be at least 2")
        # encoding tolerates epsilon = 0 (uniform output); estimation requires
        # a positive denominator and checks it where it is used

    @classmethod
    def for_budget(cls, domain_size: int, support_size: int, epsilon: float) -> "CollisionParams":
        return cls(domain_size, support_size, epsilon, default_filter_length(support_size, epsilon))

    @property
    def omega(self) -> float:
        return self.support_size * math.exp(self.epsilon) + self.filter_length - self.support_size

    @property
    def hit_probability(self) -> float:
        return math.exp(self.epsilon) / self.omega

    @property
    def estimator_denominator(self) -> float:
        return self.hit_probability - 1.0 / self.filter_length


def collision_cell_pmf(support: np.ndarray, params: CollisionParams, hash_seed: int) -> np.ndarray:
    """Exact output distribution over filter cells for a fixed hash seed.

    If the support happens to cover every cell, the exponential branch is
    renormalized to uniform; this keeps the distribution valid and cannot
    increase the privacy ratio.
    """
    support = _check_support(support, params)
    hashed = bucket_hash(hash_seed, support, params.filter_length)
    distinct = np.unique(hashed)
    l, omega = params.filter_length, params.omega
    pmf = np.empty(l, dtype=np.float64)
    if distinct.size == l:
        pmf[:] = 1.0 / l
        return pmf
    pmf[:] = (omega - math.exp(params.epsilon) * distinct.size) / ((l - distinct.size) * omega)
    pmf[distinct] = params.hit_probability
    return pmf


def collision_encode_batch(
    support: np.ndarray, params: CollisionParams, rng: np.random.Generator, n_reports: int
) -> tuple[np.ndarray, np.ndarray]:
    """(seeds, cells) for many independent reports.

    ``support`` may be one index vector shared by every report or an
    (n_reports, c) array giving each report its own support.
    """
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


_COLLISION_CHUNK_CELLS = 1 << 17  # (report, coordinate) hash cells per hit block: 1 MiB of uint64


def _hit_blocks(seeds: np.ndarray, cells: np.ndarray, params: CollisionParams):
    """Yield (first report, block) for consecutive boolean blocks
    1[H_i(v) = z_i] over the whole domain, at most ``_COLLISION_CHUNK_CELLS``
    cells each; every collision estimate is a reduction of these blocks."""
    if params.estimator_denominator <= 0:
        raise ValueError("mis-sized filter: e^eps/Omega must exceed 1/l for estimation")
    seeds = np.asarray(seeds, dtype=np.uint64)
    cells = np.asarray(cells, dtype=np.int64)
    coords = np.arange(params.domain_size, dtype=np.int64)
    rows = max(1, _COLLISION_CHUNK_CELLS // params.domain_size)

    def blocks():
        for start in range(0, seeds.size, rows):
            hashed = bucket_hash(seeds[start : start + rows, None], coords, params.filter_length)
            yield start, hashed == cells[start : start + rows, None]

    return blocks()


def collision_indicator_estimates(seeds: np.ndarray, cells: np.ndarray, params: CollisionParams) -> np.ndarray:
    """Summed unbiased indicator estimates for every domain index.

    Each report contributes (1[H(v) = z] - 1/l) / (e^eps/Omega - 1/l) at every
    coordinate v; the sum over reports estimates the support counts.
    """
    hits = np.zeros(params.domain_size, dtype=np.int64)
    for _, block in _hit_blocks(seeds, cells, params):
        hits += np.count_nonzero(block, axis=0)
    return (hits - np.size(seeds) / params.filter_length) / params.estimator_denominator


def collision_report_estimates(seeds: np.ndarray, cells: np.ndarray, params: CollisionParams) -> np.ndarray:
    """(n_reports, d) unbiased indicator estimates, one row per report.

    Row i holds (1[H_i(v) = z_i] - 1/l) / (e^eps/Omega - 1/l) at every
    coordinate v; ``collision_indicator_estimates`` is their column sum.
    """
    rows = np.empty((np.size(seeds), params.domain_size))
    for start, block in _hit_blocks(seeds, cells, params):
        rows[start : start + len(block)] = (block - 1.0 / params.filter_length) / params.estimator_denominator
    return rows


def collision_hit_counts(
    seeds: np.ndarray, cells: np.ndarray, params: CollisionParams, columns: Sequence
) -> np.ndarray:
    """(len(columns), n_reports) integer hit counts: row j holds each report's
    number of coordinates v in ``columns[j]`` (an index array or a slice)
    with H_i(v) = z_i."""
    counts = np.empty((len(columns), np.size(seeds)), dtype=np.int64)
    for start, block in _hit_blocks(seeds, cells, params):
        for j, cols in enumerate(columns):
            counts[j, start : start + len(block)] = np.count_nonzero(block[:, cols], axis=1)
    return counts


def collision_accuracy_bound(params: CollisionParams, n: int, label_count: int, beta: float) -> float:
    """Max-error bound of the collision mechanism over n clients.

    Evaluated at the parameters' actual filter length; requires the tilt to
    dominate the collision rate (true for the default filter length).
    """
    _check_beta(beta)
    kr = params.support_size
    e = math.exp(min(params.epsilon, 300.0))
    denominator = kr * (e * e - 1.0) - (e - 1.0)
    if denominator <= 0:
        raise ValueError("bound undefined: kr*(e^2eps - 1) must exceed e^eps - 1")
    prefactor = (kr * e + 2.0 * kr - 1.0) * (2.0 * kr * e + kr - 1.0) / denominator
    return prefactor * math.sqrt(2.0 * n * math.log(label_count / beta) / params.filter_length)


def collision_indicator_moments(params: CollisionParams, in_support: bool) -> tuple[float, float]:
    """(mean, second moment) of one report's indicator estimate at a coordinate."""
    w = 1.0 / params.filter_length
    mu = params.hit_probability if in_support else w
    denom = params.estimator_denominator
    mean = (mu - w) / denom
    second = (mu * (1.0 - w) ** 2 + (1.0 - mu) * w * w) / (denom * denom)
    return mean, second


# ---------------------------------------------------------------------------
# subset-release (GSE) mechanism


class GseLaw(NamedTuple):
    """Law of a report's overlap i = |Z & support| over i = 0..min(c, l),
    and the release probabilities it implies."""

    pmf: np.ndarray  # P[overlap = i]
    log_omega: float  # log of the summed weight of every size-l subset
    p_true: float
    p_false: float


@dataclass(frozen=True)
class GseParams:
    """Subset-release shape: domain d, support c, budget, output size l, and
    the overlap threshold at which the exponential tilt kicks in."""

    domain_size: int
    support_size: int
    epsilon: float
    output_size: int
    alpha_min: int = 1

    def __post_init__(self):
        if self.output_size > self.domain_size:
            raise ValueError("output size cannot exceed the domain")
        if self.output_size < 1 or self.support_size < 1:
            raise ValueError("output and support sizes must be positive")
        if not 1 <= self.alpha_min <= min(self.support_size, self.output_size):
            raise ValueError("alpha_min must lie in [1, min(c, l)]")
        if self.epsilon < 0:
            raise ValueError("epsilon cannot be negative")

    def log_tilt(self, overlap):
        """Log-weight of one output subset meeting the support in ``overlap``
        cells: eps once the overlap reaches alpha_min, else 0."""
        return self.epsilon * (np.asarray(overlap) >= self.alpha_min)

    @cached_property
    def law(self) -> GseLaw:
        """Overlap i has log-weight log C(c, i) + log C(d - c, l - i) +
        log_tilt(i), or -inf when the d - c non-members cannot fill l - i
        cells.  A member is released with probability E[i]/c and a non-member
        with (l - E[i])/(d - c), or 0 when d = c.  A tilt that is the same at
        every feasible overlap leaves the output uniform, and then both are
        l/d exactly rather than rounded means that may differ in the last bit.
        """
        d, c, l = self.domain_size, self.support_size, self.output_size
        i = np.arange(min(c, l) + 1)
        feasible = l - i <= d - c
        log_w = self.log_tilt(i) + np.array([
            math.lgamma(c + 1) - math.lgamma(j + 1) - math.lgamma(c - j + 1)
            + math.lgamma(d - c + 1) - math.lgamma(l - j + 1) - math.lgamma(d - c - l + j + 1)
            if ok else -math.inf
            for j, ok in zip(i, feasible)
        ])
        top = log_w.max()
        weights = np.exp(log_w - top)
        total = weights.sum()
        pmf = weights / total
        uniform = np.ptp(self.log_tilt(i[feasible])) == 0
        mean = float(i @ pmf)
        p_true = l / d if uniform else mean / c
        p_false = 0.0 if d == c else l / d if uniform else (l - mean) / (d - c)
        return GseLaw(pmf, top + math.log(total), p_true, p_false)

    @property
    def omega(self) -> float:
        """Summed weight of every size-l subset (inf beyond float range)."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.law.log_omega))

    @property
    def p_true(self) -> float:
        """P[v in Z] for a support member v."""
        return self.law.p_true

    @property
    def p_false(self) -> float:
        """P[v in Z] for a non-member v."""
        return self.law.p_false

    @property
    def estimator_denominator(self) -> float:
        return self.p_true - self.p_false


def gse_subset_probability(subset: Iterable[int], support: np.ndarray, params: GseParams) -> float:
    """Exact probability of one size-l output subset."""
    subset = frozenset(int(v) for v in subset)
    if len(subset) != params.output_size:
        return 0.0
    overlap = len(subset & set(int(v) for v in support))
    return math.exp(params.log_tilt(overlap) - params.law.log_omega)


def gse_encode_batch(
    support: np.ndarray, params: GseParams, rng: np.random.Generator, n_reports: int
) -> np.ndarray:
    """(n_reports, d) boolean membership matrix of sampled output subsets.

    ``support`` may be one index vector shared by every report or an
    (n_reports, c) array giving each report its own support.  Each report
    draws its overlap size i, then a uniform size-i subset of its support and
    a uniform size-(l - i) subset of the complement.
    """
    support = _check_support(support, params, n_reports)
    d, c, l = params.domain_size, params.support_size, params.output_size
    pmf = params.law.pmf
    overlaps = rng.choice(pmf.size, size=n_reports, p=pmf)[:, None]
    outside = np.ones((n_reports, d), dtype=bool)
    np.put_along_axis(outside, np.broadcast_to(support, (n_reports, c)), False, axis=1)
    # a uniform random order of each row that lists the support first: its
    # first i entries and its entries c .. c+l-i-1 are the two uniform subsets
    order = np.argsort(rng.random((n_reports, d)) + outside, axis=1)
    pos = np.arange(d)
    take = (pos < overlaps) | ((pos >= c) & (pos < c + l - overlaps))
    member = np.empty((n_reports, d), dtype=bool)
    np.put_along_axis(member, order, take, axis=1)
    return member


def gse_estimate(memberships: np.ndarray, params: GseParams) -> np.ndarray:
    """Summed unbiased indicator estimates from an (n, d) membership stack."""
    member = np.asarray(memberships)
    if member.ndim == 1:
        member = member[None, :]
    denom = params.estimator_denominator
    if denom <= 0:
        raise ValueError("p_true must exceed p_false for estimation")
    n = member.shape[0]
    return (member.sum(axis=0) - n * params.p_false) / denom


# ---------------------------------------------------------------------------
# the local-mechanism table
#
# ``release`` turns n one-record reports into the flat estimate of the
# s*label_count counts and ``bound`` maps (params, n, beta) to its eta(beta).
# ``supports`` is the (n, c) array of the reporting records' flat votes
# (``core.record_votes`` rows), c = min(k, s)*r; ``params`` carries the
# randomizer's own budget (eps0 under shuffle-single).

_GSE_CHUNK_CELLS = 1 << 19  # membership cells per GSE encoding chunk


class Mechanism(NamedTuple):
    release: Callable[[np.ndarray, PrivacyParams, np.random.Generator], np.ndarray]
    bound: Callable[[PrivacyParams, int, float], float | None]


def _release_rr(supports: np.ndarray, params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Summed bit reports drawn exactly: Binomial(x, 1-p) + Binomial(n-x, p) per cell."""
    n, x = len(supports), vote_counts(supports, (params.flat_domain_size,))
    p = rr_flip_probability(params.epsilon, params.k, params.r)
    sums = rng.binomial(x, 1.0 - p) + rng.binomial(n - x, p)
    return rr_estimate(sums, params, n)


def _release_laplace(supports: np.ndarray, params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Summed Laplace(2kr/eps) reports drawn exactly: x + Gamma(n, b) - Gamma(n, b) per cell."""
    n, x = len(supports), vote_counts(supports, (params.flat_domain_size,))
    b = noise_scale(params)
    noise = rng.gamma(n, b, size=x.size) - rng.gamma(n, b, size=x.size)
    return x + noise


def _run_collision_params(params: PrivacyParams) -> CollisionParams:
    """A run's collision report shape: a record votes in min(k, s) buckets with r labels each."""
    return CollisionParams.for_budget(params.flat_domain_size, min(params.k, params.s) * params.r, params.epsilon)


def _release_collision(supports: np.ndarray, params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    cparams = _run_collision_params(params)
    seeds, cells = collision_encode_batch(supports, cparams, rng, len(supports))
    return collision_indicator_estimates(seeds, cells, cparams)


def _collision_run_bound(params: PrivacyParams, n: int, beta: float) -> float:
    return collision_accuracy_bound(_run_collision_params(params), n, params.label_count, beta)


def _run_gse_params(params: PrivacyParams) -> GseParams:
    """A run's GSE report shape: min(k, s)*r votes released as a subset of
    l = min(filter length, d - 1) cells, rejected if it cannot be estimated."""
    d, c = params.flat_domain_size, min(params.k, params.s) * params.r
    gparams = GseParams(d, c, params.epsilon, min(default_filter_length(c, params.epsilon), d - 1))
    if gparams.estimator_denominator <= 0:
        raise ValueError(
            f"gse with l={gparams.output_size} of d={d} cells at eps={params.epsilon:g}: "
            "p_true must exceed p_false for estimation"
        )
    return gparams


def _release_gse(supports: np.ndarray, params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    gparams = _run_gse_params(params)
    d = gparams.domain_size
    rows = max(1, _GSE_CHUNK_CELLS // d)
    estimate = np.zeros(d)
    for start in range(0, len(supports), rows):
        chunk = supports[start : start + rows]
        estimate += gse_estimate(gse_encode_batch(chunk, gparams, rng, len(chunk)), gparams)
    return estimate


def _gse_run_bound(params: PrivacyParams, n: int, beta: float) -> None:
    """GSE has no eta(beta) bound yet; building its run shape still rejects
    one it cannot estimate before any stage runs."""
    _run_gse_params(params)


MECHANISMS: dict[str, Mechanism] = {
    "rr": Mechanism(_release_rr, rr_accuracy_bound),
    "laplace": Mechanism(_release_laplace, local_laplace_accuracy_bound),
    "collision": Mechanism(_release_collision, _collision_run_bound),
    "gse": Mechanism(_release_gse, _gse_run_bound),
}


# ---------------------------------------------------------------------------
# separation / concatenation composites


def separation_params(s: int, label_count: int, k: int, r: int, epsilon: float) -> tuple[CollisionParams, CollisionParams]:
    half = epsilon / 2.0
    return (
        CollisionParams.for_budget(s, k, half),
        CollisionParams.for_budget(label_count, r, half),
    )


def concatenation_params(s: int, label_count: int, k: int, r: int, epsilon: float) -> CollisionParams:
    return CollisionParams.for_budget(s + label_count, k + r, epsilon)


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


def collision_average_mse(params: CollisionParams) -> float:
    """Exact average per-entry MSE of the flat collision estimator (n = 1)."""
    d, c = params.domain_size, params.support_size
    _, m2_one = collision_indicator_moments(params, True)
    _, m2_zero = collision_indicator_moments(params, False)
    mse_one = m2_one - 1.0  # unbiased at mean 1
    return ((d - c) * m2_zero + c * mse_one) / d


# ---------------------------------------------------------------------------
# exhaustive local-DP verification


def verify_local_dp(
    inputs: Sequence[object],
    pmf: Callable[[object], np.ndarray],
    max_triples: int = 1_000_000,
) -> float:
    """Max log-probability ratio over all input pairs and outputs.

    Only discrete mechanisms with enumerable outputs are accepted; the pmf of
    every input must be over a shared output indexing.  Outputs impossible
    under both inputs are skipped; an output possible under exactly one input
    makes the ratio infinite.
    """
    pmfs = [np.asarray(pmf(x), dtype=np.float64) for x in inputs]
    if not pmfs:
        raise ValueError("no inputs to verify")
    n_out = pmfs[0].size
    if len(pmfs) * len(pmfs) * n_out > max_triples:
        raise ValueError("instance too large for exhaustive verification")
    for vec in pmfs:
        if vec.size != n_out:
            raise ValueError("all inputs must share one output space")
        if not math.isclose(float(vec.sum()), 1.0, abs_tol=1e-9):
            raise ValueError("pmf does not sum to 1")
    worst = 0.0
    for a in pmfs:
        for b in pmfs:
            both = (a > 0) & (b > 0)
            if ((a > 0) != (b > 0)).any():
                return math.inf
            if both.any():
                worst = max(worst, float(np.log(a[both] / b[both]).max()))
    return worst


def rr_bit_pmfs(epsilon: float) -> tuple[list[int], Callable[[int], np.ndarray]]:
    """Single-bit randomized response as (inputs, pmf) for the verifier.

    An eps whose e^eps overflows is rejected: its flip probability rounds to
    0, where no finite ratio can be checked."""
    try:
        p = 1.0 / (math.exp(epsilon) + 1.0)
    except OverflowError:
        raise ValueError(f"epsilon = {epsilon} is too large: e^eps overflows") from None

    def pmf(bit: int) -> np.ndarray:
        return np.array([1.0 - p, p]) if bit == 0 else np.array([p, 1.0 - p])

    return [0, 1], pmf


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


def collision_pmfs(params: CollisionParams, hash_seed: int) -> tuple[list[tuple], Callable[[tuple], np.ndarray]]:
    """All size-c supports against the cell distribution, for one fixed hash."""
    inputs = list(itertools.combinations(range(params.domain_size), params.support_size))

    def pmf(support: tuple) -> np.ndarray:
        return collision_cell_pmf(np.asarray(support), params, hash_seed)

    return inputs, pmf


def gse_pmfs(params: GseParams) -> tuple[list[tuple], Callable[[tuple], np.ndarray]]:
    """All size-c supports against the subset distribution."""
    inputs = list(itertools.combinations(range(params.domain_size), params.support_size))
    outputs = list(itertools.combinations(range(params.domain_size), params.output_size))

    def pmf(support: tuple) -> np.ndarray:
        sup = np.asarray(support)
        return np.array([gse_subset_probability(z, sup, params) for z in outputs])

    return inputs, pmf


# ---------------------------------------------------------------------------
# shared checks


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")


def _check_support(support: np.ndarray, params, n_reports: int | None = None) -> np.ndarray:
    """Validate supports against ``params`` (collision or GSE): one index
    vector, returned sorted and deduplicated, or an (n_reports, c) array
    giving each report its own support of c distinct indices."""
    support = np.asarray(support, dtype=np.int64)
    if support.ndim == 1:
        support = np.unique(support)
    if support.shape[-1] != params.support_size:
        raise ValueError(
            f"support has {support.shape[-1]} distinct indices, expected {params.support_size}"
        )
    if support.min() < 0 or support.max() >= params.domain_size:
        raise ValueError("support index out of domain range")
    if support.ndim == 2:
        if support.shape[0] != n_reports:
            raise ValueError("per-report supports must be (n_reports, c)")
        if support.shape[1] > 1 and not (np.diff(np.sort(support, axis=1), axis=1) > 0).all():
            raise ValueError("support indices must be distinct within each report")
    return support
