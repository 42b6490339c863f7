"""Output checks for every benchmark operation.

Each check recomputes what it compares against inside the benchmark, or tests
a property the method must have; none compares against stored output.  Per
operation checks return a list of problems (empty when the output is right).
Statistical checks pool over the run in ``Pool`` and are judged once at the
end, with thresholds set so that a correct program fails them with
probability well under one in a million per run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BETA = 0.05  # run_algorithm1's default accuracy target
BOUND_ALPHA = 1e-6  # false-alarm rate of the binomial limit on eta exceedances
Z_LIMIT = 5.0  # standard errors allowed for the pooled mean error
SD_CAP = 1.35  # largest accepted spread of errors standardized by the closed form
MSE_Z_LIMIT = 6.0
TIE_RTOL = 1e-9
ROW_CHUNK = 16384


# ---------------------------------------------------------------------------
# geometry recomputed from scratch


def nearest_queries(points: np.ndarray, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted indices of each point's min(k, s) nearest queries, and a mask of
    points whose k-th and (k+1)-th distances are too close to order reliably."""
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    m, s = points.shape[0], queries.shape[0]
    degree = min(k, s)
    chosen = np.empty((m, degree), dtype=np.int64)
    ambiguous = np.zeros(m, dtype=bool)
    q_norm = (queries * queries).sum(axis=1)
    for start in range(0, m, ROW_CHUNK):
        block = points[start : start + ROW_CHUNK]
        rows = np.arange(block.shape[0])
        d2 = (block * block).sum(axis=1)[:, None] + q_norm[None, :] - 2.0 * (block @ queries.T)
        ranked = np.empty((block.shape[0], min(degree + 1, s)), dtype=np.int64)
        values = np.empty(ranked.shape)
        for j in range(ranked.shape[1]):
            ranked[:, j] = d2.argmin(axis=1)
            values[:, j] = d2[rows, ranked[:, j]]
            d2[rows, ranked[:, j]] = np.inf
        chosen[start : start + block.shape[0]] = np.sort(ranked[:, :degree], axis=1)
        if degree < s:
            gap = values[:, degree] - values[:, degree - 1]
            ambiguous[start : start + block.shape[0]] = gap <= TIE_RTOL * (1.0 + np.abs(values[:, degree]))
    return chosen, ambiguous


def vote_counts(labels: np.ndarray, chosen: np.ndarray, s: int) -> np.ndarray:
    """(s, label_count) sum of the label vectors of the records connected to each query."""
    label_count = labels.shape[1]
    rows, cols = np.nonzero(labels)
    flat = np.zeros(s * label_count, dtype=np.int64)
    for col in range(chosen.shape[1]):
        flat += np.bincount(chosen[rows, col] * label_count + cols, minlength=s * label_count)
    return flat.reshape(s, label_count)


# ---------------------------------------------------------------------------
# closed forms computed here, at the parameters the run used


def rr_cell_variance(epsilon: float, kr: int, n: int) -> float:
    """Variance of the randomized-response count estimate over n reports."""
    p = 1.0 / (math.exp(epsilon / (2.0 * kr)) + 1.0)
    return n * p * (1.0 - p) / (1.0 - 2.0 * p) ** 2


def collision_moments(epsilon: float, support: int, filter_length: int) -> tuple[float, float, float, float]:
    """(hit probability, 1/l, per-report variance in support, off support)."""
    omega = support * math.exp(epsilon) + filter_length - support
    p = math.exp(epsilon) / omega
    w = 1.0 / filter_length
    denom = p - w
    var_in = (p * (1.0 - w) ** 2 + (1.0 - p) * w * w) / denom**2 - 1.0
    var_out = w * (1.0 - w) / denom**2
    return p, w, var_in, var_out


def flat_collision_mse(epsilon: float, domain: int, support: int, filter_length: int) -> tuple[float, float]:
    """Mean and per-trial variance of the flat collision report's average
    per-entry squared error for one client.

    The variance treats coordinate hits as independent; support hits are in
    fact mutually exclusive, which only lowers the true variance.
    """
    p, w, _, _ = collision_moments(epsilon, support, filter_length)
    denom = p - w
    e_hit, e_miss = (1.0 - w) / denom, -w / denom
    off = w * e_hit**2 + (1.0 - w) * e_miss**2
    on = p * (e_hit - 1.0) ** 2 + (1.0 - p) * (e_miss - 1.0) ** 2
    mean = ((domain - support) * off + support * on) / domain
    var = (
        (domain - support) * w * (1.0 - w) * (e_hit**2 - e_miss**2) ** 2
        + support * p * (1.0 - p) * ((e_hit - 1.0) ** 2 - (e_miss - 1.0) ** 2) ** 2
    ) / domain**2
    return mean, var


def binomial_upper(n: int, p: float, alpha: float = BOUND_ALPHA) -> int:
    """Smallest x with P[Binomial(n, p) > x] <= alpha."""
    if n == 0:
        return 0
    log_p, log_q = math.log(p), math.log1p(-p)
    tail = 0.0
    for x in range(n, -1, -1):
        log_pmf = math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1) + x * log_p + (n - x) * log_q
        if tail + math.exp(log_pmf) > alpha:
            return x
        tail += math.exp(log_pmf)
    return 0


# ---------------------------------------------------------------------------
# pooled checks


@dataclass
class Pool:
    """Run-wide evidence for the bound-conformance and unbiasedness checks."""

    exceed: dict = field(default_factory=dict)  # kind -> [buckets reaching eta, buckets]
    z: dict = field(default_factory=dict)  # kind -> standardized errors
    raw: dict = field(default_factory=dict)  # kind -> errors without a closed-form variance

    def add_bound(self, kind: str, bucket_error: np.ndarray, eta: float) -> None:
        tally = self.exceed.setdefault(kind, [0, 0])
        tally[0] += int((bucket_error >= eta).sum())
        tally[1] += int(bucket_error.size)

    def add_errors(self, kind: str, errors: np.ndarray, variance: np.ndarray | None) -> None:
        if variance is None:
            self.raw.setdefault(kind, []).extend(np.ravel(errors).tolist())
        else:
            self.z.setdefault(kind, []).extend(np.ravel(errors / np.sqrt(variance)).tolist())

    def problems(self) -> list[str]:
        found = []
        for kind, (hits, buckets) in sorted(self.exceed.items()):
            limit = binomial_upper(buckets, BETA)
            if hits > limit:
                found.append(f"{kind}: {hits} of {buckets} buckets reach eta, above the limit {limit} at beta={BETA}")
        for kind, values in sorted(self.z.items()):
            z = np.asarray(values)
            if abs(z.mean()) > Z_LIMIT / math.sqrt(z.size):
                found.append(f"{kind}: mean standardized error {z.mean():.4f} over {z.size} cells is biased")
            if z.std(ddof=1) > SD_CAP:
                found.append(f"{kind}: error spread {z.std(ddof=1):.3f} exceeds the closed form by more than {SD_CAP}x")
        for kind, values in sorted(self.raw.items()):
            err = np.asarray(values)
            sd = err.std(ddof=1)
            if abs(err.mean()) > Z_LIMIT * sd / math.sqrt(err.size):
                found.append(f"{kind}: mean error {err.mean():.4f} (sd {sd:.4f}) over {err.size} cells is biased")
        return found


# ---------------------------------------------------------------------------
# per-operation checks


def cell_variance(kind: str, exact: np.ndarray, n: int, epsilon: float, kr: int, filter_length: int):
    """Closed-form variance of each estimated count at the budget the
    randomizer ran with, or None where the run does not expose the
    mechanism's parameters (the GSE subset size)."""
    if kind.endswith("-rr"):
        return np.full(exact.shape, rr_cell_variance(epsilon, kr, n))
    if kind == "local-laplace":
        scale = 2.0 * kr / epsilon
        return np.full(exact.shape, n * 2.0 * scale * scale)
    if kind.endswith("-collision"):
        _, _, var_in, var_out = collision_moments(epsilon, kr, filter_length)
        return exact * var_in + (n - exact) * var_out
    return None


UNBIASED_KINDS = ("local-rr", "local-laplace", "local-collision", "local-gse", "shuffle-single-rr", "shuffle-single-collision")


def check_trial(result, records, pub_embeddings, labeling, kind: str, pool: Pool, pl) -> list[str]:
    """Check one run_algorithm1 result against recomputation and the method's properties."""
    problems = []
    s, k, T = labeling.s, labeling.k, labeling.T
    degree, r, m = min(k, s), records.r, records.m
    if len(result.iterations) != T:
        problems.append(f"{len(result.iterations)} iterations, expected {T}")
    epsilon = labeling.epsilon / T
    for t, it in enumerate(result.iterations, start=1):
        chosen, ambiguous = nearest_queries(records.embeddings, it.query_embeddings, k)
        mismatch = int(np.abs(vote_counts(records.labels, chosen, s) - it.exact).sum())
        if mismatch > 2 * degree * r * int(ambiguous.sum()):
            problems.append(f"iteration {t}: vote matrix differs from the recomputed one by {mismatch}")
        if int(it.exact.sum()) != m * degree * r:
            problems.append(f"iteration {t}: vote matrix sums to {int(it.exact.sum())}, not m*k*r = {m * degree * r}")
        noisy = np.asarray(it.report.noisy_counts, dtype=np.float64)
        if noisy.shape != it.exact.shape or not np.isfinite(noisy).all():
            problems.append(f"iteration {t}: noisy counts have shape {noisy.shape} or non-finite entries")
            continue
        error = noisy - it.exact
        if kind == "shuffle-multi" and not np.array_equal(error, np.round(error)):
            problems.append(f"iteration {t}: distributed discrete noise left non-integer errors")
        if it.report.theoretical_eta is not None:
            pool.add_bound(kind, np.abs(error).max(axis=1), it.report.theoretical_eta)
        if kind in UNBIASED_KINDS and labeling.scheme == "single-record":
            # every record is its client's report; shuffle-single randomizes at the amplified eps0
            used = pl.shuffle.amplify_invert(epsilon, m, labeling.delta) if kind.startswith("shuffle-single") else epsilon
            filter_length = pl.local.CollisionParams.for_budget(s * records.label_count, degree * r, used).filter_length
            pool.add_errors(kind, error, cell_variance(kind, it.exact, m, used, degree * r, filter_length))
    if result.iterations:
        first = result.iterations[0].query_embeddings
        own, ambiguous = nearest_queries(pub_embeddings, first, 1)
        wrong = (own[:, 0] != np.asarray(result.cluster_assignment)) & ~ambiguous
        if wrong.any():
            problems.append(f"{int(wrong.sum())} public samples are not assigned to their nearest iteration-1 query")
    spent = float(sum(result.ledger.per_iteration_epsilon))
    if not math.isclose(spent, labeling.epsilon, rel_tol=1e-9):
        problems.append(f"ledger reports total epsilon {spent}, expected {labeling.epsilon}")
    touched = int(result.ledger.queries_touched.max())
    if touched > k * T:
        problems.append(f"a record touched {touched} queries, more than k*T = {k * T}")
    return problems


def check_mse_point(curves, epsilon: float, trials: int, shape, pl) -> list[str]:
    """Monte-Carlo flat-collision MSE against its closed form, plus the
    orderings of criterion 4 at this budget."""
    s, label_count, k, r = shape
    problems = []
    col, sep, cat = float(curves.collision[0]), float(curves.separation[0]), float(curves.concatenation[0])
    filter_length = pl.local.CollisionParams.for_budget(s * label_count, k * r, epsilon).filter_length
    mean, var = flat_collision_mse(epsilon, s * label_count, k * r, filter_length)
    se = math.sqrt(var / trials)
    if abs(col - mean) > MSE_Z_LIMIT * se:
        problems.append(f"eps={epsilon}: collision MSE {col:.6g} is {abs(col - mean) / se:.1f} SE from the closed form {mean:.6g}")
    if not cat <= sep:
        problems.append(f"eps={epsilon}: concatenation {cat:.6g} exceeds separation {sep:.6g}")
    if epsilon >= 4.0 and not cat < col:
        problems.append(f"eps={epsilon}: concatenation {cat:.6g} is not below collision {col:.6g}")
    if epsilon <= 2.0 and not cat >= col:
        problems.append(f"eps={epsilon}: concatenation {cat:.6g} is below collision {col:.6g}")
    return problems
