"""Bound tables and gap-analysis accuracy prediction."""
from __future__ import annotations

import numpy as np

from . import central as central_mod
from . import local as local_mod
from . import shuffle as shuffle_mod
from .core import PrivacyModel, PrivacyParams


def _collision_bound(params: PrivacyParams, n: int, beta: float) -> float:
    # a record reaches min(k, s) buckets, so a run's support is that many times r
    support_size = min(params.k, params.s) * params.r
    cparams = local_mod.CollisionParams.for_budget(params.flat_domain_size, support_size, params.epsilon)
    return local_mod.collision_accuracy_bound(cparams, n, params.label_count, beta)


# eta(beta) of each bounded local mechanism: (randomizer params, n, beta) -> eta
_LOCAL_BOUNDS = {
    "rr": local_mod.rr_accuracy_bound,
    "laplace": local_mod.local_laplace_accuracy_bound,
    "collision": _collision_bound,
}


def bounds_table(
    model: str | None,
    epsilon: float,
    delta: float,
    k: int,
    r: int,
    s: int,
    label_count: int,
    beta: float,
    n: int | None = None,
) -> dict[str, float]:
    """Max-error bounds eta(beta) of every mechanism the inputs allow.

    Local and shuffled-single bounds need the client count n and are named
    as a run reports its mechanism (``laplace``, ``shuffled-laplace``); with
    ``model`` set only that model's rows are produced.
    """
    rows: dict[str, float] = {}

    def want(name: str) -> bool:
        return model is None or model == name

    if want("central"):
        params = PrivacyParams(epsilon, PrivacyModel.CENTRAL, k, r, s, label_count)
        rows["central"] = central_mod.laplace_accuracy_bound(params, beta)
    if want("shuffle-multi"):
        dd = delta if delta > 0 else 1e-6
        params = PrivacyParams(epsilon, PrivacyModel.SHUFFLE_MULTI, k, r, s, label_count, delta=dd)
        rows["shuffle-multi"] = shuffle_mod.multi_message_accuracy_bound(params, beta)
    local_budgets: dict[str, float] = {}
    if want("local"):
        if n is None:
            if model == "local":
                raise ValueError("local bounds need the client count --n")
        else:
            local_budgets[""] = epsilon
    if want("shuffle-single"):
        if n is None or delta <= 0:
            if model == "shuffle-single":
                raise ValueError("shuffle-single bounds need --n and --delta")
        else:
            local_budgets["shuffled-"] = shuffle_mod.amplify_invert(epsilon, n, delta)
    for prefix, eps in local_budgets.items():
        params = PrivacyParams(eps, PrivacyModel.LOCAL, k, r, s, label_count)
        for name, bound in _LOCAL_BOUNDS.items():
            rows[prefix + name] = bound(params, n, beta)
    if not rows:
        raise ValueError(f"no bounds available for model {model!r} with the given inputs")
    return rows


def predict_labeling_accuracy(
    exact_counts: np.ndarray,
    assignment: np.ndarray,
    pub_truth: np.ndarray,
    entry_std: np.ndarray,
    rng: np.random.Generator,
    draws: int = 2000,
) -> float:
    """Expected propagated accuracy when each count entry is perturbed by
    independent zero-mean Gaussian noise with the given per-entry spread.

    The spread comes from the mechanism's per-report variance analysis (the
    same quantity its tail bound integrates), so this is the count-gap
    prediction of how much labeling accuracy survives privatization.
    """
    exact = np.asarray(exact_counts, dtype=np.float64)
    entry_std = np.broadcast_to(np.asarray(entry_std, dtype=np.float64), exact.shape)
    s, label_count = exact.shape
    assignment = np.asarray(assignment, dtype=np.int64)
    pub_truth = np.asarray(pub_truth, dtype=np.int64)
    # frac[t, c]: share of public samples sitting in bucket t with true class c
    frac = np.zeros((s, label_count))
    np.add.at(frac, (assignment, pub_truth), 1.0)
    frac /= pub_truth.size
    noisy = exact[None, :, :] + entry_std[None, :, :] * rng.standard_normal(
        (draws, s, label_count)
    )
    labels = np.argmax(noisy, axis=2)
    per_draw = frac[np.arange(s)[None, :], labels].sum(axis=1)
    return float(per_draw.mean())


def collision_entry_std(
    exact_counts: np.ndarray, params: local_mod.CollisionParams, n: int
) -> np.ndarray:
    """Per-entry standard deviation of the n-client collision estimator.

    An entry with true count x sums x in-support and n - x out-of-support
    indicator estimates.
    """
    exact = np.asarray(exact_counts, dtype=np.float64)
    mean_one, m2_one = local_mod.collision_indicator_moments(params, True)
    mean_zero, m2_zero = local_mod.collision_indicator_moments(params, False)
    var_one = m2_one - mean_one ** 2
    var_zero = m2_zero - mean_zero ** 2
    return np.sqrt(exact * var_one + np.maximum(n - exact, 0.0) * var_zero)
