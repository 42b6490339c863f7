"""Shuffle-model protocols: distributed discrete noise and amplification accounting.

Multi-message mode: every client sends one message per unit of its vote
counts plus, per coordinate, a modular share of discrete noise.  The shares
are differences of negative-binomial draws with shape 1/n, so the n-client
total is exactly a two-sided geometric (discrete Laplace) whose scale matches
Laplace(4kr/eps).  Messages are (index, increment mod M) pairs; increments
deviate from a unary "+1 per message" format because negative shares cannot
be expressed as unit increments -- the aggregate distribution and accuracy
are unchanged.  The analyzer only sums the messages mod M per coordinate,
and that sum depends on the multiset of messages, never on the order the
shuffler delivers them in, so the release adds each cell's vote count and
its noise shares mod M directly: no pool is built, permuted or decoded.
Almost every share is zero, so ``sample_noise_messages`` draws only the
nonzero ones, per cell, from the exact law of n independent shares: a
release costs O(d + messages) instead of O(n * d).

Single-message mode: each client runs any local randomizer of
``local.MECHANISMS`` at an enlarged budget eps0 and anonymity does the rest;
``amplify_forward`` maps a local budget to the central one, ``amplify_invert``
goes the other way.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .core import PrivacyModel, PrivacyParams


# ---------------------------------------------------------------------------
# discrete Laplace target and negative-binomial shares


def discrete_laplace_parameter(epsilon: float, k: int, r: int) -> float:
    """q = exp(-eps / (4kr)); the n-client noise total is DLap(q).

    q is 0 at eps = inf and wherever it underflows, both the noiseless
    limit; an eps so small that q rounds to 1 has no noise distribution.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    q = math.exp(-epsilon / (4.0 * k * r))
    if q == 1.0:
        raise ValueError(f"epsilon = {epsilon} is too small: q = exp(-eps/(4kr)) rounds to 1")
    return q


def discrete_laplace_pmf(x: np.ndarray, q: float) -> np.ndarray:
    """P[X = x] = (1-q)/(1+q) * q^|x| on the integers."""
    x = np.asarray(x)
    return (1.0 - q) / (1.0 + q) * q ** np.abs(x)


def discrete_laplace_std(q: float) -> float:
    return math.sqrt(2.0 * q) / (1.0 - q)


def sample_negative_binomial(
    shape_param: float, q: float, rng: np.random.Generator, size=None
) -> np.ndarray:
    """NB(shape, q) through the Poisson-Gamma mixture; works for fractional shape."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    lam = rng.gamma(shape_param, q / (1.0 - q), size=size)
    return rng.poisson(lam)


def sample_noise_share(
    n: int, epsilon: float, k: int, r: int, rng: np.random.Generator, size=None
) -> np.ndarray:
    """One client's additive share: difference of two NB(1/n, q) draws.

    Summing n independent shares gives DLap(q) exactly (NB shapes add).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    q = discrete_laplace_parameter(epsilon, k, r)
    plus = sample_negative_binomial(1.0 / n, q, rng, size=size)
    minus = sample_negative_binomial(1.0 / n, q, rng, size=size)
    return plus - minus


def _positive_negative_binomial(
    q: float, lam: float, a: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``size`` draws of NB(1/n, q) conditioned to be positive.

    NB(1/n, q) is a Poisson(lam) count of logseries(q) terms, lam =
    -ln(1-q)/n, and it is positive exactly when the first arrival of the
    rate-lam process on [0, 1) falls inside it (probability ``a``).  That
    arrival is drawn by inverse CDF conditioned below 1; the remaining
    terms are Poisson over what is left of the interval.
    """
    rest = np.maximum(lam + np.log1p(-rng.random(size) * a), 0.0)  # lam * (1 - first arrival)
    terms = 1 + rng.poisson(rest)
    totals = np.cumsum(rng.logseries(q, size=int(terms.sum())))
    return np.diff(totals[np.cumsum(terms) - 1], prepend=0)


def sample_noise_messages(
    n: int, d: int, epsilon: float, k: int, r: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(cells, shares) of every nonzero share n clients send over d cells.

    The pooled multiset has the law of n independent ``sample_noise_share``
    vectors with their zeros dropped, at cost O(d + messages).  Per cell, a
    client's (plus > 0, minus > 0) pair is two Bernoulli(a) draws, so one
    multinomial gives how many clients fall in the plus-only, minus-only and
    both-positive classes; their nonzero parts are zero-truncated
    NB(1/n, q) values, and a both-positive share is zero when its two
    values tie.  None are sent when q is 0 (eps = inf, or so large that q
    underflows): DLap(0) is the point mass at 0.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    q = discrete_laplace_parameter(epsilon, k, r)
    if q == 0.0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    lam = -math.log1p(-q) / n
    a = -math.expm1(-lam)  # P(NB(1/n, q) > 0)
    classes = rng.multinomial(n, [a * (1.0 - a), a * (1.0 - a), a * a, (1.0 - a) ** 2], size=d)
    counts = classes[:, :3].T  # (plus-only, minus-only, both) clients per cell
    cells = np.repeat(np.tile(np.arange(d, dtype=np.int64), 3), counts.ravel())
    sizes = counts.sum(axis=1)
    values = _positive_negative_binomial(q, lam, a, int(sizes.sum() + sizes[2]), rng)
    plus, minus, both_plus, both_minus = np.split(values, np.cumsum(sizes))
    shares = np.concatenate([plus, -minus, both_plus - both_minus])
    keep = shares != 0
    return cells[keep], shares[keep]


# ---------------------------------------------------------------------------
# multi-message protocol


def choose_modulus(total_mass: int, k: int, r: int, epsilon: float) -> int:
    """Smallest power of two exceeding twice the worst-case aggregate count
    plus a six-sigma noise allowance.

    ``total_mass`` is the worst-case per-coordinate aggregate; with one record
    per client that is n*k*r.
    """
    q = discrete_laplace_parameter(epsilon, k, r)
    need = 2.0 * (total_mass + 6.0 * discrete_laplace_std(q))
    return 1 << max(2, math.ceil(math.log2(need + 1.0)))


def multi_message_accuracy_bound(params: PrivacyParams, beta: float) -> float:
    """eta = 4kr * ln(label_count/beta) / eps for the distributed-noise protocol."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    return 4.0 * params.k * params.r * math.log(params.label_count / beta) / params.epsilon


def expected_noise_messages(n: int, d: int, epsilon: float, k: int, r: int) -> float:
    """Expected count of nonzero share messages per client.

    A share plus - minus is zero exactly when its two NB(1/n, q) draws tie.
    Inverting the share's characteristic function at 0, with
    c = 4q / (1 - q)^2, gives P(share != 0) as
    (2/pi) * int_0^(pi/2) 1 - (1 + c sin^2 u)^(-1/n) du.  Substituting
    tan u = e^y leaves an integrand analytic for |Im y| < pi/2 that decays
    exponentially both ways, so the trapezoid rule at step 0.1 is exact to
    double precision, over O(log c) points for every q < 1.
    """
    q = discrete_laplace_parameter(epsilon, k, r)
    if q == 0.0:
        return 0.0
    c = 4.0 * q / math.expm1(-epsilon / (4.0 * k * r)) ** 2
    step, low = 0.1, -0.5 * math.log1p(c) - 40.0
    y = low + step * np.arange(math.ceil((40.0 - low) / step))
    w2 = np.exp(2.0 * y)
    nonzero = -np.expm1(-np.log1p(c * w2 / (1.0 + w2)) / n)
    return d * step * float(np.sum(nonzero / np.cosh(y))) / math.pi


def multi_message_pipeline(
    counts: np.ndarray,
    client_mass: np.ndarray,
    params: PrivacyParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """The analyzer's noisy count matrix: per coordinate, the sum mod M of
    every message the n clients send, recentred to a signed integer.

    ``counts`` is the exact (s, label_count) aggregate and ``client_mass``
    each client's vote total; empty clients count toward n and still send
    noise shares.  Each vote is a (cell, 1) message and each nonzero noise
    share (``sample_noise_messages``) a (cell, share mod M) one, none in the
    noiseless limit.  The modular sum ignores message order, so it is taken
    from the counts and the shares directly, without building or shuffling
    the message pool, in int64: M is a power of two, so even a sum that
    wraps modulo 2**64 stays exact mod M.  The cost is O(d + messages),
    not O(n * d).
    """
    if params.model is not PrivacyModel.SHUFFLE_MULTI:
        raise ValueError("multi-message pipeline requires the shuffle-multi model")
    counts = np.asarray(counts)
    flat = counts.astype(np.int64).ravel()
    client_mass = np.asarray(client_mass, dtype=np.int64)
    if (flat < 0).any() or (client_mass < 0).any() or not np.array_equal(flat, counts.ravel()):
        raise ValueError("vote counts must be nonnegative integers")
    n, d = client_mass.size, flat.size
    if n == 0:
        raise ValueError("need at least one client")
    if client_mass.sum() != flat.sum():
        raise ValueError("client vote totals must sum to the aggregate")
    modulus = choose_modulus(n * max(int(client_mass.max()), 1), params.k, params.r, params.epsilon)
    noise_idx, shares = sample_noise_messages(n, d, params.epsilon, params.k, params.r, rng)
    totals = flat  # a fresh array: one (cell, 1) message per vote
    np.add.at(totals, noise_idx, np.mod(shares, modulus))
    totals %= modulus
    totals = np.where(totals > modulus // 2, totals - modulus, totals)
    return totals.reshape(counts.shape).astype(np.float64)


# ---------------------------------------------------------------------------
# single-message amplification


def amplification_validity_limit(n: int, delta: float) -> float:
    """Largest local budget the amplification bound covers: ln(n / (16 ln(2/delta)))."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    inner = n / (16.0 * math.log(2.0 / delta))
    if inner <= 1.0:
        raise ValueError(f"n = {n} is too small for any amplification at delta = {delta}")
    return math.log(inner)


def amplify_forward(eps0: float, n: int, delta: float) -> float:
    """Central epsilon of n shuffled local eps0-DP reports.

    ln(1 + (8 sqrt(e^eps0 ln(4/delta)) / sqrt(n) + 8 e^eps0 / n)
           * (e^eps0 - 1) / (e^eps0 + 1)),
    valid while eps0 <= ln(n / (16 ln(2/delta))).
    """
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    limit = amplification_validity_limit(n, delta)
    if eps0 > limit:
        raise ValueError(
            f"validity violated: ln(n / (16 ln(2/delta))) = {limit:.6f} < eps0 = {eps0}"
        )
    ee = math.exp(eps0)
    # tanh(eps0 / 2) is (e^eps0 - 1) / (e^eps0 + 1) without cancellation at small eps0
    term = (8.0 * math.sqrt(ee * math.log(4.0 / delta)) / math.sqrt(n) + 8.0 * ee / n) * math.tanh(
        0.5 * eps0
    )
    return math.log1p(term)


def amplify_invert(target_epsilon: float, n: int, delta: float, rtol: float = 1e-9) -> float:
    """Largest local budget found whose shuffled central budget stays within
    the target: target * (1 - rtol) <= amplify_forward(eps0) <= target.

    Bisection over (0, validity limit] that keeps its lower end, where the
    forward map, strictly increasing in eps0, never exceeds the target.
    Targets outside the achievable interval, and targets too small for any
    representable eps0 > 0 to reach, are rejected.
    """
    if not target_epsilon > 0:
        raise ValueError("target epsilon must be positive")
    limit = amplification_validity_limit(n, delta)
    top = amplify_forward(limit, n, delta)
    if target_epsilon > top:
        raise ValueError(
            f"target {target_epsilon} outside the achievable interval (0, {top:.6f}]"
        )
    lo, hi, reached = 0.0, limit, 0.0
    while reached < target_epsilon * (1.0 - rtol):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ValueError(
                f"no local budget eps0 > 0 amplifies to within a relative {rtol} below target {target_epsilon}"
            )
        achieved = amplify_forward(mid, n, delta)
        if achieved <= target_epsilon:
            lo, reached = mid, achieved
        else:
            hi = mid
    return lo


def single_message_params(params: PrivacyParams, n: int) -> PrivacyParams:
    """The randomizer's parameters for n single-message clients: the same
    shape under the local model at the amplified budget
    eps0 = amplify_invert(eps, n, delta).

    Any local mechanism run at these parameters and shuffled is
    (eps, delta)-DP; shuffling cannot change an estimate that is symmetric in
    the reports, so the estimate is computed as in the local model.
    """
    if params.model is not PrivacyModel.SHUFFLE_SINGLE:
        raise ValueError("single-message amplification requires the shuffle-single model")
    eps0 = amplify_invert(params.epsilon, n, params.delta)
    return replace(params, epsilon=eps0, model=PrivacyModel.LOCAL, delta=0.0)

