"""Shuffle-model protocols: distributed discrete noise and amplification accounting.

Multi-message mode: every client sends one message per unit of its vote
counts plus, per coordinate, a modular share of discrete noise.  The shares
are differences of negative-binomial draws with shape 1/n, so the n-client
total is exactly a two-sided geometric (discrete Laplace) whose scale matches
Laplace(4kr/eps).  Messages are (index, increment mod M) pairs; increments
deviate from a unary "+1 per message" format because negative shares cannot
be expressed as unit increments -- the aggregate distribution and accuracy
are unchanged.  The analyzer only sums the messages mod M per coordinate,
and that sum depends on each cell's vote count and noise total alone, never
on how the total splits into shares or on the order the shuffler delivers
them in.  So the release draws each cell's total from its exact law, the
difference of two geometric counts, and builds no share or message pool: a
release costs O(d), whatever n.  ``sample_noise_share`` is one client's
share, the reference the summed law is checked against.

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
    each client's vote total; empty clients count toward n.  Each vote is a
    (cell, 1) message, and a cell's n noise shares sum to DLap(q), so the
    modular sum is the cell's count plus a DLap(q) total drawn directly, as
    the difference of two geometric counts (zero in the noiseless limit
    q = 0).  n sets only the modulus M; the cost is O(d), not O(n * d).
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
    q = discrete_laplace_parameter(params.epsilon, params.k, params.r)
    totals = flat + rng.geometric(1.0 - q, d) - rng.geometric(1.0 - q, d)
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

