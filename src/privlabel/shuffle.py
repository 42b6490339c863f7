"""Shuffle-model protocols: distributed discrete noise and amplification accounting.

Multi-message mode: every client sends one message per unit of its vote
counts plus, per coordinate, a modular share of discrete noise.  The shares
are differences of negative-binomial draws with shape 1/n, so the n-client
total is exactly a two-sided geometric (discrete Laplace) whose scale matches
Laplace(4kr/eps).  Messages are (index, increment mod M) pairs; increments
deviate from a unary "+1 per message" format because negative shares cannot
be expressed as unit increments -- the aggregate distribution and accuracy
are unchanged.

Single-message mode: each client runs any local randomizer of
``local.MECHANISMS`` at an enlarged budget eps0 and anonymity does the rest;
``amplify_forward`` maps a local budget to the central one, ``amplify_invert``
goes the other way.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import PrivacyModel, PrivacyParams


# ---------------------------------------------------------------------------
# discrete Laplace target and negative-binomial shares


def discrete_laplace_parameter(epsilon: float, k: int, r: int) -> float:
    """q = exp(-eps / (4kr)); the n-client noise total is DLap(q)."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return math.exp(-epsilon / (4.0 * k * r))


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


@dataclass(frozen=True)
class ShuffleMessage:
    """One anonymous message: a flattened coordinate and a modular increment."""

    index: int
    increment: int


@dataclass(frozen=True)
class AmplificationParams:
    """Budgets tied together by shuffling: local eps0 against central (eps, delta).

    Constructing one checks the validity window of the amplification bound.
    """

    eps0: float
    epsilon: float
    delta: float
    n: int

    def __post_init__(self):
        limit = amplification_validity_limit(self.n, self.delta)
        if not 0 < self.eps0 <= limit:
            raise ValueError(
                f"eps0 = {self.eps0} outside (0, {limit:.6f}], the bound's validity window"
            )

    @classmethod
    def from_local(cls, eps0: float, n: int, delta: float) -> "AmplificationParams":
        return cls(eps0=eps0, epsilon=amplify_forward(eps0, n, delta), delta=delta, n=n)

    @classmethod
    def from_central(cls, epsilon: float, n: int, delta: float) -> "AmplificationParams":
        return cls(eps0=amplify_invert(epsilon, n, delta), epsilon=epsilon, delta=delta, n=n)


def choose_modulus(total_mass: int, k: int, r: int, epsilon: float) -> int:
    """Smallest power of two exceeding twice the worst-case aggregate count
    plus a six-sigma noise allowance.

    ``total_mass`` is the worst-case per-coordinate aggregate; with one record
    per client that is n*k*r.
    """
    q = discrete_laplace_parameter(epsilon, k, r)
    need = 2.0 * (total_mass + 6.0 * discrete_laplace_std(q))
    return 1 << max(2, math.ceil(math.log2(need + 1.0)))


def multi_message_encode(
    answer: np.ndarray,
    params: PrivacyParams,
    n: int,
    modulus: int,
    rng: np.random.Generator,
    include_noise: bool = True,
) -> np.ndarray:
    """One client's messages as an (m, 2) array of (index, increment mod M).

    Emits one unit message per vote count and one share message per
    coordinate whose sampled noise share is nonzero; output order is
    randomized client-side.
    """
    answer = np.asarray(answer)
    if (answer < 0).any():
        raise ValueError("vote counts must be nonnegative")
    flat = answer.astype(np.int64).ravel()
    d = flat.size
    if modulus <= 2 * n * int(flat.sum()):
        raise ValueError(
            f"modulus {modulus} too small for {n} clients with per-client mass {int(flat.sum())}"
        )
    data_idx = np.repeat(np.arange(d, dtype=np.int64), flat)
    data = np.column_stack([data_idx, np.ones(data_idx.size, dtype=np.int64)])
    if include_noise and not math.isinf(params.epsilon):
        shares = sample_noise_share(n, params.epsilon, params.k, params.r, rng, size=d)
        nz = np.flatnonzero(shares)
        noise = np.column_stack([nz, np.mod(shares[nz], modulus)])
        messages = np.concatenate([data, noise], axis=0)
    else:
        messages = data
    return messages[rng.permutation(messages.shape[0])]


def shuffle_messages(messages: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation of the pooled message multiset."""
    messages = np.asarray(messages)
    return messages[rng.permutation(messages.shape[0])]


def multi_message_decode(messages: np.ndarray, d: int, modulus: int) -> np.ndarray:
    """Per-coordinate modular sums recentered to signed integers."""
    totals = np.zeros(d, dtype=np.int64)
    messages = np.asarray(messages, dtype=np.int64)
    if messages.size:
        np.add.at(totals, messages[:, 0], messages[:, 1])
    totals %= modulus
    return np.where(totals > modulus // 2, totals - modulus, totals)


def multi_message_accuracy_bound(params: PrivacyParams, beta: float) -> float:
    """eta = 4kr * ln(label_count/beta) / eps for the distributed-noise protocol."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    return 4.0 * params.k * params.r * math.log(params.label_count / beta) / params.epsilon


def expected_noise_messages(n: int, d: int, epsilon: float, k: int, r: int) -> float:
    """Expected count of nonzero share messages per client: d * (1 - (1-q)^(2/n))."""
    q = discrete_laplace_parameter(epsilon, k, r)
    return d * (1.0 - (1.0 - q) ** (2.0 / n))


def multi_message_pipeline(
    answers: Sequence[np.ndarray],
    params: PrivacyParams,
    rng: np.random.Generator,
    include_noise: bool = True,
) -> np.ndarray:
    """Encode every client, shuffle the pool, decode to a noisy count matrix."""
    if params.model is not PrivacyModel.SHUFFLE_MULTI:
        raise ValueError("multi-message pipeline requires the shuffle-multi model")
    answers = [np.asarray(a) for a in answers]
    if not answers:
        raise ValueError("need at least one client")
    shape = answers[0].shape
    n = len(answers)
    heaviest = max(int(a.sum()) for a in answers)
    modulus = choose_modulus(n * max(heaviest, 1), params.k, params.r, params.epsilon)
    pooled = [
        multi_message_encode(a, params, n, modulus, rng, include_noise=include_noise)
        for a in answers
    ]
    mixed = shuffle_messages(np.concatenate(pooled, axis=0), rng)
    return multi_message_decode(mixed, shape[0] * shape[1], modulus).reshape(shape).astype(np.float64)


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
    term = (8.0 * math.sqrt(ee * math.log(4.0 / delta)) / math.sqrt(n) + 8.0 * ee / n) * (
        (ee - 1.0) / (ee + 1.0)
    )
    return math.log1p(term)


def amplify_invert(target_epsilon: float, n: int, delta: float, tol: float = 1e-9) -> float:
    """Local budget whose shuffled central budget equals the target.

    Bisection over (0, validity limit]; the forward map is strictly increasing
    in eps0.  Targets outside the achievable interval are rejected with that
    interval reported.
    """
    if not target_epsilon > 0:
        raise ValueError("target epsilon must be positive")
    limit = amplification_validity_limit(n, delta)
    top = amplify_forward(limit, n, delta)
    if target_epsilon > top:
        raise ValueError(
            f"target {target_epsilon} outside the achievable interval (0, {top:.6f}]"
        )
    lo, hi = 0.0, limit
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if amplify_forward(mid, n, delta) < target_epsilon:
            lo = mid
        else:
            hi = mid
    eps0 = 0.5 * (lo + hi)
    achieved = amplify_forward(eps0, n, delta)
    if abs(achieved - target_epsilon) > 1e-6:
        raise ValueError("bisection failed to reach the target within 1e-6")
    return eps0


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


# ---------------------------------------------------------------------------
# shuffled-batch persistence


def write_shuffled_batch(path, messages: np.ndarray, header: dict) -> None:
    """JSON header line, then one `index,increment` record per line."""
    required = {"d", "M", "n", "epsilon", "delta", "mechanism"}
    missing = required - set(header)
    if missing:
        raise ValueError(f"header missing keys: {sorted(missing)}")
    messages = np.asarray(messages, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for index, increment in messages:
            fh.write(f"{index},{increment}\n")


def read_shuffled_batch(path) -> tuple[np.ndarray, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        rows = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                index_text, increment_text = line.split(",")
                rows.append((int(index_text), int(increment_text)))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: malformed message record") from exc
    messages = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    return messages, header
