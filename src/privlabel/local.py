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
report parameters live here.  The separation product is unbiased; the
concatenation product shares one report between its factors and is biased
at jointly-nonzero entries, which only the average MSE forgives.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .central import noise_scale
from .core import PrivacyParams, integer_array, vote_counts

_U64 = np.uint64


# ---------------------------------------------------------------------------
# keyed mixing hash


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; a cheap keyed map from 64-bit keys to 64 bits.

    Returns a new uint64 array of ``x``'s shape.  Every pass runs in place on
    it and one scratch array: ufunc loops wrap uint64 products silently, even
    on a 0-d array, where a numpy scalar would warn.
    """
    out = np.empty(np.shape(x), dtype=_U64)
    np.add(x, _U64(0x9E3779B97F4A7C15), out=out)
    scratch = np.empty_like(out)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(out, _U64(shift), out=scratch)
        out ^= scratch
        out *= _U64(factor)
    np.right_shift(out, _U64(31), out=scratch)
    out ^= scratch
    return out


def _aligned_empty(shape: tuple, dtype) -> np.ndarray:
    """``np.empty`` starting on a 64-byte boundary.  numpy promises only 16
    bytes, and two-array passes run slower over rows 16 or 48 bytes past one."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    return raw[-raw.ctypes.data % 64 :][:nbytes].view(dtype).reshape(shape)


def _hash_width(filter_length: int) -> type:
    """The unsigned type ``_hash_mixed`` runs at for a filter of this length."""
    return np.uint32 if filter_length in (2, 4, 8) else _U64


def _hash_mixed(
    mixed_seeds: np.ndarray, mixed_vals: np.ndarray, l: int, x: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """The passes of ``bucket_hash`` after mixing, run in place on ``x`` and
    ``scratch`` (the broadcast shape of the mixed seeds and values, all at
    ``_hash_width(l)``); returns ``x``, every value in [0, l).

    At uint64, x mod l is x - (x // l) * l (scalar division beats ``%``).  At
    uint32 (l = 2, 4 or 8) it is x & (l - 1), and equals the 64-bit hash:
      bits 0-31 of y*K mod 2**64 depend only on bits 0-31 of y and of K;
      the 64-bit x ^ (x >> 29) mod l reads only bits 0-2 and 29-31 of x;
      so truncating the mixed seeds, values and K to 32 bits moves no hash.
    """
    t = x.dtype.type
    np.bitwise_xor(mixed_seeds, mixed_vals, out=x)
    x *= t(0xD6E8FEB86659FD93 % (1 << 8 * x.itemsize))
    np.right_shift(x, t(29), out=scratch)
    x ^= scratch
    if t is np.uint32:
        x &= t(l - 1)
    else:
        np.floor_divide(x, t(l), out=scratch)
        scratch *= t(l)
        x -= scratch
    return x


def bucket_hash(hash_seed: int | np.ndarray, values: np.ndarray, filter_length: int) -> np.ndarray:
    """Hash domain indices into [0, filter_length) under the given seed(s).

    Broadcasts: a scalar seed with a vector of values, or a seed column with a
    value row, yielding a (n_seeds, n_values) int64 matrix.  Seeds and values
    are mixed separately, before broadcasting; ``_hash_mixed`` then runs every
    later pass in place, since fresh matrices cost more memory traffic than
    the arithmetic.  The collision hit kernels call it directly.
    """
    if filter_length < 1:
        raise ValueError(f"filter length must be at least 1, got {filter_length}")
    t = _hash_width(filter_length)
    seeds = _mix64(np.asarray(hash_seed, dtype=_U64)).astype(t, copy=False)
    vals = _mix64(np.asarray(values, dtype=_U64) + _U64(1)).astype(t, copy=False)
    x = np.empty(np.broadcast_shapes(seeds.shape, vals.shape), dtype=t)
    hashed = _hash_mixed(seeds, vals, filter_length, x, np.empty_like(x))
    return hashed.view(np.int64) if t is _U64 else hashed.astype(np.int64)


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
    hashed = bucket_hash(seeds[:, None], support, l)
    if hashed.shape[1] > 1:
        hashed.sort(axis=1)
        is_new = np.ones_like(hashed, dtype=bool)
        is_new[:, 1:] = np.diff(hashed, axis=1) > 0
        kappa = is_new.sum(axis=1)
        # each row's distinct hashed values in increasing order, padded past kappa
        distinct = np.sort(np.where(is_new, hashed, np.iinfo(np.int64).max), axis=1)
    else:
        kappa, distinct = np.ones(n_reports, dtype=np.int64), hashed
    hit_mass = kappa * e_eps / params.omega
    # a fully covered filter renormalizes to uniform over the hit cells
    pick_hit = (rng.random(n_reports) < np.minimum(hit_mass, 1.0)) | (kappa == l)
    u = rng.random(n_reports)
    # both branches for every row, since u * kappa < kappa and u * (l - kappa) >= 0:
    # the hit branch takes the j-th distinct hashed value, the miss branch the
    # j-th cell skipping the distinct hashed values in order
    hit = np.take_along_axis(distinct, (u * kappa).astype(np.int64)[:, None], axis=1)[:, 0]
    miss = (u * (l - kappa)).astype(np.int64)
    for skipped in distinct.T:
        miss += miss >= skipped
    return seeds, np.where(pick_hit, hit, miss)


# (report, coordinate) hash cells per hit block or tile.  The uint64 hash and
# scratch buffers and the bool hit buffer total 17 bytes a cell, about 1.06 MiB,
# so a block stays inside a 2 MiB per-core L2 cache.
_COLLISION_CHUNK_CELLS = 1 << 16


def _hash_inputs(seeds: np.ndarray, cells: np.ndarray, params: CollisionParams):
    """(seeds and cells as uint64, coordinates mixed as ``bucket_hash`` mixes
    them, at the hash width) of reports checked before any hashing: equally long 1-D integer
    arrays, no seed below 0 and every cell in [0, l).  A float would be
    truncated into another report, a seed of -1 would wrap to 2**64 - 1, and
    a cell outside the filter would never hit and bias every estimate."""
    if params.estimator_denominator <= 0:
        raise ValueError("mis-sized filter: e^eps/Omega must exceed 1/l for estimation")
    seeds, cells = np.asarray(seeds), np.asarray(cells)
    if seeds.ndim != 1 or seeds.shape != cells.shape:
        raise ValueError(f"expected one cell per seed, got seeds {seeds.shape} and cells {cells.shape}")
    if seeds.size and not (np.issubdtype(seeds.dtype, np.integer) and np.issubdtype(cells.dtype, np.integer)):
        raise ValueError(f"report seeds and cells must be integers, got {seeds.dtype} and {cells.dtype}")
    if seeds.size and seeds.min() < 0:
        raise ValueError("report seeds must be non-negative")
    if cells.size and (cells.min() < 0 or cells.max() >= params.filter_length):
        raise ValueError(f"report cell out of filter range [0, {params.filter_length})")
    mixed_coords = _mix64(np.arange(1, params.domain_size + 1, dtype=_U64)).astype(_hash_width(params.filter_length))
    return seeds.astype(_U64, copy=False), cells.astype(np.int64, copy=False).view(_U64), mixed_coords


def _hit_blocks(seeds: np.ndarray, cells: np.ndarray, params: CollisionParams):
    """Yield (first report, block) for consecutive report-major boolean
    blocks 1[H_i(v) = z_i] over the whole domain, at most
    ``_COLLISION_CHUNK_CELLS`` cells each (one report's row if the domain is
    wider), after ``_hash_inputs``' checks.  Each block's seeds are mixed in
    the block, so memory stays O(block), and each block is a view of buffers
    that the next block overwrites: reduce it before pulling the next one."""
    seeds, cells, mixed_coords = _hash_inputs(seeds, cells, params)
    rows, t = max(1, min(seeds.size, _COLLISION_CHUNK_CELLS // params.domain_size)), mixed_coords.dtype
    x, scratch = _aligned_empty((2, rows, params.domain_size), t)
    hit = np.empty(x.shape, dtype=bool)

    def blocks():
        for start in range(0, seeds.size, rows):
            mixed_seeds = _mix64(seeds[start : start + rows, None]).astype(t, copy=False)
            n = len(mixed_seeds)
            hashed = _hash_mixed(mixed_seeds, mixed_coords, params.filter_length, x[:n], scratch[:n])
            yield start, np.equal(hashed, cells[start : start + n, None].astype(t, copy=False), out=hit[:n])

    return blocks()


def collision_indicator_estimates(seeds: np.ndarray, cells: np.ndarray, params: CollisionParams) -> np.ndarray:
    """Summed unbiased indicator estimates for every domain index.

    Each report contributes (1[H(v) = z] - 1/l) / (e^eps/Omega - 1/l) at every
    coordinate v; the sum over reports estimates the support counts.  After
    ``_hash_inputs``' checks, hits are hashed in tiles of at most
    ``_COLLISION_CHUNK_CELLS`` cells whose rows are coordinates over up to
    1/16 of that many reports (16 rows, more when fewer reports remain), so
    every pass and row sum runs along the report axis; memory stays O(tile).
    """
    seeds, cells, mixed_coords = _hash_inputs(seeds, cells, params)
    d, l, t = params.domain_size, params.filter_length, mixed_coords.dtype
    reports = max(1, min(seeds.size, _COLLISION_CHUNK_CELLS // 16))
    band = min(d, max(16, _COLLISION_CHUNK_CELLS // reports))
    x, scratch = _aligned_empty((2, band, reports), t)
    hit = np.empty(x.shape, dtype=bool)
    hits = np.zeros(d, dtype=np.int64)
    for start in range(0, seeds.size, reports):
        mixed_seeds = _mix64(seeds[start : start + reports]).astype(t, copy=False)
        chunk_cells, n = cells[start : start + reports].astype(t, copy=False), len(mixed_seeds)
        for low in range(0, d, band):
            b = min(band, d - low)
            hashed = _hash_mixed(mixed_seeds, mixed_coords[low : low + b, None], l, x[:b, :n], scratch[:b, :n])
            np.equal(hashed, chunk_cells, out=hit[:b, :n])
            # a row holds at most one hit per report: uint32 sums are exact
            hits[low : low + b] += np.add.reduce(hit[:b, :n].view(np.uint8), axis=1, dtype=np.uint32)
    return (hits - seeds.size / l) / params.estimator_denominator


def collision_hit_counts(
    seeds: np.ndarray, cells: np.ndarray, params: CollisionParams, columns: Sequence
) -> np.ndarray:
    """(len(columns), n_reports) integer hit counts: row j holds each report's
    number of coordinates v in ``columns[j]`` (a slice, or an array of
    indices in [0, d)) with H_i(v) = z_i.  Blocks stay report-major, since
    mse-figure's 10,000-coordinate domains give each block only 6 reports."""
    d = params.domain_size
    for cols in (np.asarray(c) for c in columns if not isinstance(c, slice)):
        if cols.size and not (np.issubdtype(cols.dtype, np.integer) and 0 <= cols.min() and cols.max() < d):
            raise ValueError(f"column indices must be integers in [0, {d})")
    counts = np.empty((len(columns), np.size(seeds)), dtype=np.int64)
    for start, block in _hit_blocks(seeds, cells, params):
        for j, cols in enumerate(columns):
            # a block row holds at most d hits: uint32 sums are exact
            counts[j, start : start + len(block)] = np.add.reduce(block[:, cols].view(np.uint8), axis=1, dtype=np.uint32)
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


# with-replacement sequences up to this long find their first occurrences by
# comparing columns (O(length^2) passes over all rows), longer ones by sorting
_SHORT_SEQUENCE = 16


def _first_values_by_columns(draws: np.ndarray, need: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(found, seen) of ``_uniform_subsets``' short sequences: column j of
    the (width, rows) ``found`` holds the first need[j] distinct values of
    ``draws[j]`` in order of first occurrence, zero padded, and seen[j]
    counts its distinct values.  Works on the transposed draws."""
    columns = np.ascontiguousarray(draws.T)
    found = np.zeros((width, len(draws)), dtype=np.int64)
    seen = np.zeros(len(draws), dtype=np.int64)
    for j, column in enumerate(columns):
        # a draw is new unless an earlier draw of its row has its value
        new = np.ones(len(draws), dtype=bool)
        for earlier in columns[:j]:
            new &= column != earlier
        seen += new
        # the k-th kept value (k <= need) goes to row k - 1
        new &= seen <= need
        for k in range(min(j + 1, width)):
            np.copyto(found[k], column, where=new & (seen == k + 1))
    return found, seen


def _first_values_by_sorting(draws: np.ndarray, need: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``_first_values_by_columns``' (found, seen) for long sequences, by
    sorting each row once."""
    length = draws.shape[1]
    # sorting value * length + position orders each row by value, ties by position
    keys = np.sort(draws * length + np.arange(length), axis=1)
    # a value's first occurrence heads its run
    head = np.ones(draws.shape, dtype=bool)
    np.not_equal(keys[:, 1:] // length, keys[:, :-1] // length, out=head[:, 1:])
    first = np.empty_like(head)
    np.put_along_axis(first, keys % length, head, axis=1)
    seen = np.cumsum(first, axis=1)
    # the k-th kept value goes to column k - 1, every other draw to a spare last column
    found = np.zeros((len(draws), width + 1), dtype=np.int64)
    np.put_along_axis(found, np.where(first & (seen <= need[:, None]), seen - 1, width), draws, axis=1)
    return found[:, :width].T, seen[:, -1]


def _uniform_subsets(rng: np.random.Generator, population: int, counts: np.ndarray) -> np.ndarray:
    """(rows, max(counts)) positions whose row j begins with a uniform
    counts[j]-subset of range(population); the rest of each row is zero.

    Where a count may exceed half the population, each row ranks one uniform
    key per position, O(population) = O(max count) a row.  Otherwise a row
    keeps the first counts[j] distinct values of a with-replacement sequence,
    a uniform subset because relabeling the values leaves the sequence's law
    unchanged, and only the rows whose sequence comes up short are redrawn.
    """
    width = int(counts.max(initial=0))
    if width == 0:
        return np.zeros((counts.size, 0), dtype=np.int64)
    if 2 * width > population:
        return np.argsort(rng.random((counts.size, population)), axis=1)[:, :width]
    # sequence length: the mean number of draws to see `width` distinct values plus 4 sd
    q = np.arange(width) / population
    length = math.ceil(np.sum(1.0 / (1.0 - q)) + 4.0 * math.sqrt(np.sum(q / (1.0 - q) ** 2))) + 1
    first_values = _first_values_by_columns if length <= _SHORT_SEQUENCE else _first_values_by_sorting

    def draw(rows):
        found, seen = first_values(rng.integers(0, population, size=(rows.size, length)), counts[rows], width)
        return found, seen >= counts[rows]

    # the first draw fills every column; a short one is overwritten by its redraw
    out, full = draw(np.arange(counts.size))
    todo = np.flatnonzero(~full)
    while todo.size:
        found, full = draw(todo)
        out[:, todo[full]] = found[:, full]
        todo = todo[~full]
    return out.T


def gse_encode_batch(
    support: np.ndarray, params: GseParams, rng: np.random.Generator, n_reports: int
) -> np.ndarray:
    """(n_reports, l) int64 cells of sampled output subsets, distinct in
    each row, as the transpose of a C-ordered (l, n_reports) array.

    ``support`` may be one index vector shared by every report or an
    (n_reports, c) array giving each report its own support.  Each report
    draws its overlap size i, then a uniform size-i subset of its support
    (the first i of a random order of its cells) and a uniform size-(l - i)
    subset of the d - c non-members, drawn as positions and mapped onto the
    complement by skipping the sorted support.  The skip and the copies run
    on (cell, report) arrays, so each pass runs along the report axis.
    """
    support = _check_support(support, params, n_reports)
    d, c, l = params.domain_size, params.support_size, params.output_size
    pmf = params.law.pmf
    overlaps = rng.choice(pmf.size, size=n_reports, p=pmf)
    members = np.broadcast_to(support, (n_reports, c))
    if c > 1:
        members = np.take_along_axis(members, np.argsort(rng.random((n_reports, c)), axis=1), axis=1)
    others = np.ascontiguousarray(_uniform_subsets(rng, d - c, l - overlaps).T)
    for skipped in np.sort(members, axis=1).T:
        others += others >= skipped
    # a report with overlap i holds its first i members, then its first l - i other cells
    cells = np.empty((l, n_reports), dtype=np.int64)
    for i in range(min(c, l) + 1):
        if l - i <= len(others):
            np.copyto(cells[i:], others[: l - i], where=overlaps == i)
        if i < min(c, l):
            np.copyto(cells[i], members[:, i], where=overlaps > i)
    return cells.T


def gse_estimate(cells: np.ndarray, params: GseParams) -> np.ndarray:
    """Summed unbiased indicator estimates (bincount - n*p_false) / (p_true -
    p_false) from an (n, l) stack of released cells."""
    cells = np.asarray(cells)
    d, l = params.domain_size, params.output_size
    if cells.ndim != 2 or cells.shape[1] != l or not np.issubdtype(cells.dtype, np.integer):
        raise ValueError(f"expected an (n, {l}) integer cell stack, got {cells.dtype} {cells.shape}")
    if cells.size and (cells.min() < 0 or cells.max() >= d):
        raise ValueError(f"cell index out of domain range [0, {d})")
    denom = params.estimator_denominator
    if denom <= 0:
        raise ValueError("p_true must exceed p_false for estimation")
    return (np.bincount(cells.ravel(order="K"), minlength=d) - len(cells) * params.p_false) / denom


# ---------------------------------------------------------------------------
# the local-mechanism table
#
# ``release`` turns n one-record reports into the flat estimate of the
# s*label_count counts and ``bound`` maps (params, n, beta) to its eta(beta).
# ``supports`` is the (n, c) array of the reporting records' flat votes
# (``core.record_votes`` rows), c = min(k, s)*r; ``params`` carries the
# randomizer's own budget (eps0 under shuffle-single).

_GSE_CHUNK_CELLS = 1 << 15  # released (report, cell) pairs per GSE encoding chunk


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
    rows = max(1, _GSE_CHUNK_CELLS // gparams.output_size)
    estimate = np.zeros(gparams.domain_size)
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
    giving each report its own support of c distinct indices.  Indices must
    be integers: a float support would be truncated into another support."""
    support = integer_array(support, "support indices")
    if support.ndim == 1:
        support = np.unique(support)
    if support.shape[-1] != params.support_size:
        raise ValueError(
            f"support has {support.shape[-1]} distinct indices, expected {params.support_size}"
        )
    if support.size and (support.min() < 0 or support.max() >= params.domain_size):
        raise ValueError("support index out of domain range")
    if support.ndim == 2:
        if support.shape[0] != n_reports:
            raise ValueError("per-report supports must be (n_reports, c)")
        if support.shape[1] > 1 and not (np.diff(np.sort(support, axis=1), axis=1) > 0).all():
            raise ValueError("support indices must be distinct within each report")
    return support
