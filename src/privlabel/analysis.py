"""Bound tables and gap-analysis accuracy prediction."""
from __future__ import annotations

import numpy as np

from . import local as local_mod
from .core import PrivacyModel, PrivacyParams, check_beta, integer_array
from .simulate import RELEASES


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
    """Max-error bounds eta(beta) of every release the inputs allow, as runs report them.

    Per-client rows (local and shuffle-single) need the client count n and
    shuffle rows a delta > 0: rows lacking them are skipped, or an error if
    ``model`` asks for them.  A release whose run shape or budget the inputs
    reject (as its bound rejects it before a run) has no row, but a model
    left with no row at all, as every per-report mechanism is at a budget
    too small for its noise, raises its first rejection.  Per-client rows
    are named as a run names its release (``laplace``, ``shuffled-laplace``),
    the others after their model.
    """
    if n is not None and n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    check_beta(beta, "--beta")
    rows: dict[str, float] = {}
    for privacy_model in [PrivacyModel(model)] if model else dict.fromkeys(m for m, _ in RELEASES):
        releases = [release for (m, _), release in RELEASES.items() if m is privacy_model]
        shuffled = privacy_model in (PrivacyModel.SHUFFLE_MULTI, PrivacyModel.SHUFFLE_SINGLE)
        lacking = {"--n": releases[0].per_client and n is None, "--delta": shuffled and delta <= 0}
        missing = [flag for flag, absent in lacking.items() if absent]
        if missing:
            if model:
                raise ValueError(f"{privacy_model.value} bounds need {' and '.join(missing)}")
            continue
        params = PrivacyParams(epsilon, privacy_model, k, r, s, label_count, delta if shuffled else 0.0)
        rejections, row_count = [], len(rows)
        for release in releases:
            try:
                eta = release.bound(release.params(params, n), n, beta)
            except ValueError as exc:
                rejections.append(exc)
                continue
            if eta is not None:
                rows[release.name if release.per_client else privacy_model.value] = eta
        if rejections and len(rows) == row_count:
            raise rejections[0]
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
    assignment = integer_array(assignment, "cluster assignment", s)
    pub_truth = integer_array(pub_truth, "true labels", label_count)
    # frac[t, c]: share of public samples sitting in bucket t with true class c
    cells = np.ravel_multi_index((assignment, pub_truth), (s, label_count))
    frac = np.bincount(cells, weights=np.ones(cells.size), minlength=s * label_count).reshape(s, label_count)
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
