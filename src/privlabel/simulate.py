"""End-to-end federation simulator.

One run: select queries from the public pool (clustering first, uncertainty
afterwards), connect every private record to its nearest queries, take each
record's flat votes once, count and privatize them under the configured trust
model, derive labels, and fit a nearest-centroid proxy in place of a neural
student.  The pre-noise aggregate depends only on the record multiset, never
on how records are split across clients.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import central as central_mod
from . import local as local_mod
from . import shuffle as shuffle_mod
from . import seeds as seeds_mod
from .core import (
    MechanismReport,
    PrivacyModel,
    PrivacyParams,
    QuerySet,
    RecordSet,
    degenerate_buckets,
    hard_labels,
    integer_array,
    record_votes,
    soft_labels,
    vote_counts,
)
from .geometry import (
    pairwise_distances,
    propagate_labels,
    propagation_accuracy,
    reverse_knn_connect,
    select_queries_cluster,
    select_queries_uncertainty,
)


class PartitionScheme(enum.Enum):
    IID = "iid"
    DIRICHLET = "dirichlet"
    SINGLE_RECORD = "single-record"


@dataclass(frozen=True)
class Partition:
    """Assignment of each private record to a client id."""

    client_of: np.ndarray
    n_clients: int
    scheme: PartitionScheme

    def __post_init__(self):
        object.__setattr__(self, "client_of", integer_array(self.client_of, "client ids", self.n_clients))

    @property
    def m(self) -> int:
        return self.client_of.shape[0]

    @functools.cached_property
    def records_per_client(self) -> np.ndarray:
        """(n_clients,) number of records each client holds, counted once."""
        return np.bincount(self.client_of, minlength=self.n_clients)


def partition_records(
    records: RecordSet,
    scheme: PartitionScheme,
    n_clients: int,
    rng: np.random.Generator,
    dirichlet_alpha: float = 0.5,
) -> Partition:
    """Split records across clients: uniform, Dirichlet-skewed by class, or
    one record per client."""
    if n_clients < 1:
        raise ValueError("n_clients must be at least 1")
    m = records.m
    if scheme is PartitionScheme.SINGLE_RECORD:
        if n_clients > m:
            raise ValueError(f"{n_clients} clients but only {m} records")
        if n_clients != m:
            raise ValueError("single-record partitioning requires n_clients == record count")
        return Partition(np.arange(m), n_clients, scheme)
    if scheme is PartitionScheme.IID:
        return Partition(rng.integers(0, n_clients, size=m), n_clients, scheme)
    if dirichlet_alpha <= 0:
        raise ValueError("dirichlet alpha must be positive")
    # a 0/1 row's first 1 is its argmax
    primary = records.label_indices[:, 0]
    client_of = np.empty(m, dtype=np.int64)
    clients = np.arange(n_clients)
    for cls in np.flatnonzero(np.bincount(primary)):
        members = np.flatnonzero(primary == cls)
        members = members[rng.permutation(members.size)]
        props = rng.dirichlet(np.full(n_clients, dirichlet_alpha))
        cuts = np.floor(np.cumsum(props)[:-1] * members.size).astype(np.int64)
        # client i takes the members at positions cuts[i - 1] to cuts[i], as
        # np.split(members, cuts) deals them out
        client_of[members] = np.repeat(clients, np.diff(cuts, prepend=0, append=members.size))
    return Partition(client_of, n_clients, scheme)


@dataclass
class BudgetLedger:
    """Per-record spend: cumulative epsilon and queries touched per iteration."""

    epsilon_spent: np.ndarray
    queries_touched: np.ndarray
    per_iteration_epsilon: list = field(default_factory=list)
    per_iteration_degree: list = field(default_factory=list)

    @classmethod
    def empty(cls, m: int) -> "BudgetLedger":
        return cls(np.zeros(m), np.zeros(m, dtype=np.int64))

    def charge(self, epsilon: float, degree: int) -> None:
        self.epsilon_spent += epsilon
        self.queries_touched += degree
        self.per_iteration_epsilon.append(epsilon)
        self.per_iteration_degree.append(degree)


def account_budget(ledger: BudgetLedger, k: int, s: int) -> dict:
    """Summarize spend and contrast with the forward-k-NN worst case.

    A record under the reverse rule touches at most k queries per iteration;
    under forward k-NN the same record could be claimed by all s queries.
    """
    iterations = len(ledger.per_iteration_epsilon)
    max_touched = int(ledger.queries_touched.max()) if ledger.queries_touched.size else 0
    return {
        "iterations": iterations,
        "total_epsilon": float(sum(ledger.per_iteration_epsilon)),
        "max_record_epsilon": float(ledger.epsilon_spent.max()) if ledger.epsilon_spent.size else 0.0,
        "max_queries_touched": max_touched,
        "touch_bound": k * iterations,
        "forward_knn_worst_case": s * iterations,
    }


@dataclass
class ProxyStudent:
    """Nearest-centroid stand-in for the student model.

    Fitted from labeled queries; predicts the class of the closest centroid
    and emits softmax(-distance) soft labels at temperature 1.  Classes never
    seen among the labels get probability zero.
    """

    centroids: np.ndarray
    classes: np.ndarray
    label_count: int

    @classmethod
    def fit(cls, embeddings: np.ndarray, labels: np.ndarray, label_count: int) -> "ProxyStudent":
        embeddings = np.asarray(embeddings, dtype=np.float64)
        labels = integer_array(labels, "labels", label_count)
        classes = np.unique(labels)
        centroids = np.stack([embeddings[labels == c].mean(axis=0) for c in classes])
        return cls(centroids, classes, label_count)

    @classmethod
    def fit_soft(cls, embeddings: np.ndarray, soft: np.ndarray, label_count: int) -> "ProxyStudent":
        """Soft-label fit: each class centroid is the probability-weighted mean."""
        embeddings = np.asarray(embeddings, dtype=np.float64)
        soft = np.asarray(soft, dtype=np.float64)
        mass = soft.sum(axis=0)
        classes = np.flatnonzero(mass > 0)
        centroids = (soft[:, classes].T @ embeddings) / mass[classes, None]
        return cls(centroids, classes, label_count)

    def _distances(self, x: np.ndarray) -> np.ndarray:
        return pairwise_distances(np.asarray(x, dtype=np.float64), self.centroids)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.classes[np.argmin(self._distances(x), axis=1)]

    def soft(self, x: np.ndarray) -> np.ndarray:
        dists = self._distances(x)
        logits = -(dists - dists.min(axis=1, keepdims=True))
        weights = np.exp(logits)
        probs = np.zeros((x.shape[0], self.label_count))
        probs[:, self.classes] = weights / weights.sum(axis=1, keepdims=True)
        return probs


@dataclass
class IterationOutcome:
    query_embeddings: np.ndarray
    query_indices: np.ndarray | None
    exact: np.ndarray
    report: MechanismReport


@dataclass
class SimulationResult:
    iterations: list
    public_hard_labels: np.ndarray | None
    acc_pl: float | None
    proxy_accuracy: float | None
    ledger: BudgetLedger
    partition: Partition
    cluster_assignment: np.ndarray | None = None


def _one_record_per_client(partition: Partition, rng: np.random.Generator) -> np.ndarray:
    """One uniformly chosen record index per client that has records, in
    client order: each client's first record in a random permutation.

    When no client holds more than one record there is no choice to make:
    each reports its own, and ``rng`` is not drawn from."""
    m, counts = partition.m, partition.records_per_client
    if counts.max(initial=0) <= 1:
        chosen = np.empty(partition.n_clients, dtype=np.int64)
        chosen[partition.client_of] = np.arange(m)
        return chosen[counts > 0]
    perm = rng.permutation(m)
    first = np.full(partition.n_clients, m)
    np.minimum.at(first, partition.client_of[perm], np.arange(m))
    return perm[first[first < m]]


def check_label_mode(label_mode: str) -> None:
    """Reject a label mode other than the proxy student's two targets."""
    if label_mode not in ("hard", "soft"):
        raise ValueError(f"label_mode must be 'hard' or 'soft', got {label_mode!r}")


class Release(NamedTuple):
    """One (model, mechanism) release of the noisy (s, |Y|) counts: ``params``
    maps (per-iteration params, n reporting clients) to the params it runs at,
    ``release`` maps (exact counts, ``record_votes``, partition, those params,
    rng) to the noisy counts and ``bound`` (params, n, beta) to eta(beta) or
    None.  A per-client release's noise depends on the partition.  Entries
    look up the functions they call at call time, so a patched one is used."""

    name: str
    params: Callable[[PrivacyParams, int | None], PrivacyParams]
    release: Callable[[np.ndarray, np.ndarray, Partition, PrivacyParams, np.random.Generator], np.ndarray]
    bound: Callable[[PrivacyParams, int | None, float], float | None]
    per_client: bool


def _same_params(params: PrivacyParams, n: int | None) -> PrivacyParams:
    return params


def _per_report(name: str, mechanism: str, params: Callable) -> Release:
    """``local.MECHANISMS[mechanism]``, run by every client that holds a record
    on one of them."""

    def release(exact, votes, partition, params, rng):
        flat = local_mod.MECHANISMS[mechanism].release(votes[_one_record_per_client(partition, rng)], params, rng)
        return flat.reshape(params.s, params.label_count)

    def bound(params, n, beta):
        return local_mod.MECHANISMS[mechanism].bound(params, n, beta)

    return Release(name, params, release, bound, per_client=True)


# every release a run can make; "auto" picks a model's first mechanism
RELEASES: dict[tuple[PrivacyModel, str], Release] = {
    (PrivacyModel.CENTRAL, "laplace"): Release(
        "laplace", _same_params,
        lambda exact, votes, partition, params, rng: central_mod.central_laplace_mechanism(exact, params, rng),
        lambda params, n, beta: central_mod.laplace_accuracy_bound(params, beta), per_client=False,
    ),
    (PrivacyModel.SHUFFLE_MULTI, "distributed-laplace"): Release(
        "distributed-laplace", _same_params,
        lambda exact, votes, partition, params, rng: shuffle_mod.multi_message_pipeline(
            exact, partition.records_per_client * votes.shape[1], params, rng
        ),
        lambda params, n, beta: shuffle_mod.multi_message_accuracy_bound(params, beta), per_client=False,
    ),
    **{(PrivacyModel.LOCAL, name): _per_report(name, name, _same_params) for name in local_mod.MECHANISMS},
    # each local randomizer at the budget eps0 that amplifies to eps over the n clients
    **{
        (PrivacyModel.SHUFFLE_SINGLE, name): _per_report(
            f"shuffled-{name}", name, lambda params, n: shuffle_mod.single_message_params(params, n)
        )
        for name in local_mod.MECHANISMS
    },
}


def resolve_mechanism(model: PrivacyModel, mechanism: str) -> Release:
    """The release a run makes: ``auto`` resolved, anything the model lacks rejected."""
    allowed = [name for release_model, name in RELEASES if release_model is model]
    if mechanism not in ("auto", *allowed):
        raise ValueError(
            f"the {model.value} model has no mechanism {mechanism!r}; choose auto or {', '.join(allowed)}"
        )
    return RELEASES[model, mechanism if mechanism in allowed else allowed[0]]


def run_algorithm1(
    records: RecordSet,
    pub_embeddings: np.ndarray,
    params: PrivacyParams,
    T: int,
    s: int,
    k: int,
    master_seed: int,
    *,
    pub_true_labels: np.ndarray | None = None,
    partition_scheme: PartitionScheme = PartitionScheme.SINGLE_RECORD,
    n_clients: int | None = None,
    dirichlet_alpha: float = 0.5,
    mechanism: str = "auto",
    label_mode: str = "hard",
    beta: float = 0.05,
) -> SimulationResult:
    """Full labeling loop under any privacy model.

    Iteration 1 clusters the public pool and labels the centers; iterations
    2..T pick the proxy student's least-confident unlabeled samples.  The
    per-iteration budget is epsilon/T (sequential composition).
    """
    pub_embeddings = np.asarray(pub_embeddings, dtype=np.float64)
    if not np.isfinite(pub_embeddings).all():
        raise ValueError("public embeddings must be finite")
    if T < 1:
        raise ValueError("T must be at least 1")
    if params.s != s or params.k != k:
        raise ValueError("params.s/params.k must match the requested s/k")
    if params.label_count != records.label_count:
        raise ValueError("params.label_count must match the records")
    if params.r != records.r:
        raise ValueError("params.r must match the record label cardinality")
    # iteration 1 clusters the whole pool; iterations 2..T label s samples each, never one twice
    if max(1, T - 1) * s > pub_embeddings.shape[0]:
        raise ValueError(
            f"cannot select more queries than public samples: T = {T} at s = {s} needs "
            f"max(1, T - 1) * s = {max(1, T - 1) * s}, got {pub_embeddings.shape[0]}"
        )
    check_label_mode(label_mode)
    release = resolve_mechanism(params.model, mechanism)

    if partition_scheme is PartitionScheme.SINGLE_RECORD:
        n_clients = records.m
    elif n_clients is None:
        raise ValueError("n_clients required for this partition scheme")
    partition = partition_records(
        records,
        partition_scheme,
        n_clients,
        seeds_mod.generator(master_seed, "partition"),
        dirichlet_alpha,
    )

    iter_params = params.per_iteration(T)
    reporting = np.count_nonzero(partition.records_per_client)  # clients holding a record
    # a budget or run shape the release rejects stops the run here, before any stage
    mech_params = release.params(iter_params, reporting)
    eta = release.bound(mech_params, reporting, beta)

    ledger = BudgetLedger.empty(records.m)
    iterations: list[IterationOutcome] = []
    cluster_assignment = None
    labeled_embeddings: list[np.ndarray] = []
    labeled_targets: list[np.ndarray] = []
    direct = np.zeros(pub_embeddings.shape[0], dtype=bool)  # labeled by an iteration after the first
    student = None

    for t in range(1, T + 1):
        if t == 1:
            queries, cluster_assignment = select_queries_cluster(
                pub_embeddings, s, seeds_mod.generator(master_seed, "queries", t)
            )
            query_indices = None
        else:
            query_indices = select_queries_uncertainty(student.soft(pub_embeddings), s, np.flatnonzero(direct))
            queries = QuerySet(pub_embeddings[query_indices])

        connections = reverse_knn_connect(records.embeddings, queries, k, squares=records.squared_norms)
        votes = record_votes(records, connections)
        exact = vote_counts(votes, (s, records.label_count))
        ledger.charge(iter_params.epsilon, connections.degree)

        noisy = release.release(exact, votes, partition, mech_params, seeds_mod.generator(master_seed, "mechanism", t))
        bucket_error = np.abs(noisy - exact).max(axis=1)
        report = MechanismReport(
            model=params.model.value,
            mechanism=release.name,
            noisy_counts=noisy,
            hard=hard_labels(noisy),
            soft=soft_labels(noisy),
            degenerate_buckets=degenerate_buckets(noisy),
            empirical_eta=float(bucket_error.max()),
            theoretical_eta=eta,
            eta_exceed_rate=None if eta is None else float((bucket_error >= eta).mean()),
        )
        iterations.append(IterationOutcome(queries.embeddings, query_indices, exact, report))

        if t == 1:
            public_hard = propagate_labels(cluster_assignment, report.hard)
        else:
            public_hard[query_indices] = report.hard
            direct[query_indices] = True
        labeled_embeddings.append(queries.embeddings)
        labeled_targets.append(report.hard if label_mode == "hard" else report.soft)
        stacked = np.concatenate(labeled_embeddings)
        targets = np.concatenate(labeled_targets)
        if label_mode == "hard":
            student = ProxyStudent.fit(stacked, targets, records.label_count)
        else:
            student = ProxyStudent.fit_soft(stacked, targets, records.label_count)

    acc_pl = None
    proxy_acc = None
    if pub_true_labels is not None:
        truth = np.asarray(pub_true_labels)
        acc_pl = propagation_accuracy(public_hard, truth)
        proxy_acc = float((student.predict(pub_embeddings) == truth).mean())

    return SimulationResult(
        iterations=iterations,
        public_hard_labels=public_hard,
        acc_pl=acc_pl,
        proxy_accuracy=proxy_acc,
        ledger=ledger,
        partition=partition,
        cluster_assignment=cluster_assignment,
    )


@dataclass(frozen=True)
class InvarianceResult:
    applicable: bool
    pre_noise_equal: bool | None
    noisy_identical: bool | None
    reason: str


def verify_partition_invariance(
    records: RecordSet,
    queries: QuerySet,
    k: int,
    schemes: list,
    n_clients: int,
    master_seed: int,
    params: PrivacyParams | None = None,
    dirichlet_alpha: float = 0.1,
) -> InvarianceResult:
    """Check that the pre-noise aggregate ignores how records split across
    clients, and that aggregate-stage noise with a fixed seed is bit-identical.

    Local models add noise per client, so the check does not apply there and
    says so instead of failing.
    """
    release = None if params is None else resolve_mechanism(params.model, "auto")
    if release is not None and release.per_client:
        return InvarianceResult(False, None, None, "per-client noise depends on the partition")
    connections = reverse_knn_connect(records.embeddings, queries, k, squares=records.squared_norms)
    votes = record_votes(records, connections)
    shape = (queries.s, records.label_count)
    partitions, aggregates = [], []
    for i, scheme in enumerate(schemes):
        n = records.m if scheme is PartitionScheme.SINGLE_RECORD else n_clients
        # Partition validates every client id; summed cell by cell, the
        # clients' answers count each vote in its own cell whichever client
        # holds it, in O(s * |Y|) memory
        partitions.append(
            partition_records(records, scheme, n, seeds_mod.generator(master_seed, "partition", i), dirichlet_alpha)
        )
        aggregates.append(vote_counts(votes, shape))
    equal = all(np.array_equal(aggregates[0], agg) for agg in aggregates[1:])
    noisy_identical = None
    if release is not None:  # an aggregate-stage release runs at the given params
        noisy = [
            release.release(agg, votes, partition, params, seeds_mod.generator(master_seed, "noise"))
            for agg, partition in zip(aggregates, partitions)
        ]
        noisy_identical = all(np.array_equal(noisy[0], z) for z in noisy[1:])
    return InvarianceResult(True, equal, noisy_identical, "")
