"""The benchmark's workloads and the operations they run.

An operation is one labeling trial (one ``simulate.run_algorithm1`` call) or
one budget point of the local-oracle MSE sweep (``mse.mse_comparison`` on a
one-point grid).  A workload runs whole rounds of a fixed operation list, so
every run attempts the same mix whatever its length.  The cheapest kinds
run twice per round to give their medians more samples.

Every call into the package goes through a module attribute (``pl.simulate.
run_algorithm1``), so the tracer's wrappers are seen when installed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# operation kind -> (privacy model, mechanism)
TRIAL_KINDS = {
    "central": ("CENTRAL", "auto"),
    "shuffle-multi": ("SHUFFLE_MULTI", "auto"),
    "local-rr": ("LOCAL", "rr"),
    "local-laplace": ("LOCAL", "laplace"),
    "local-collision": ("LOCAL", "collision"),
    "local-gse": ("LOCAL", "gse"),
    "shuffle-single-rr": ("SHUFFLE_SINGLE", "rr"),
    "shuffle-single-collision": ("SHUFFLE_SINGLE", "collision"),
}
MSE_KIND = "mse-point"
KINDS = tuple(TRIAL_KINDS) + (MSE_KIND,)

# the scripts/synthetic_benchmark.py world: 60k records, 5k public samples
WORLD = dict(classes=10, per_class=6000, dim=8, separation=12.0, std=1.0, pub_per_class=500)
MSE_SHAPE = (200, 50, 2, 2)  # criterion 4: s, |Y|, k, r (one client)


@dataclass(frozen=True)
class Labeling:
    """Shape of a workload's labeling trials."""

    s: int
    k: int
    T: int
    epsilon: float
    scheme: str
    n_clients: int | None = None
    delta: float = 1e-6  # shuffle models only
    dirichlet_alpha: float = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    round: tuple[str, ...]
    labeling: Labeling | None = None
    eps_grid: tuple[float, ...] = ()
    mse_trials: int = 0


_ONE_RECORD_ROUND = (
    "local-rr", "local-laplace", "local-collision", "shuffle-single-rr", "shuffle-single-collision",
    "local-gse",
    "local-rr", "shuffle-single-rr",
    "shuffle-multi",
)

WORKLOADS = {
    # geometry-heavy: reverse k-NN over s=200 queries, T=3, few heavy clients
    "silo-aggregate": Workload(
        "silo-aggregate",
        round=("central", "shuffle-multi"),
        labeling=Labeling(s=200, k=2, T=3, epsilon=1.0, scheme="dirichlet", n_clients=1000),
    ),
    # per-record randomizers and the per-client encode loop over 60k clients
    "one-record-clients": Workload(
        "one-record-clients",
        round=_ONE_RECORD_ROUND,
        labeling=Labeling(s=10, k=1, T=1, epsilon=0.4, scheme="single-record"),
    ),
    # the full-domain hash kernel of the MSE figure; no geometry or simulate code
    "mse-figure": Workload(
        "mse-figure",
        round=(MSE_KIND,) * 11,
        eps_grid=tuple(1.0 + 0.5 * i for i in range(11)),
        mse_trials=2000,
    ),
}


def master_seed(seed: int, round_index: int, position: int) -> int:
    """Seed of one operation; the traced pass reuses the untraced pass's seeds."""
    return seed * 1_000_000 + round_index * 1_000 + position


def make_world(pl, seed: int):
    spec = pl.data.SyntheticSpec(**WORLD)
    return pl.data.generate_synthetic(spec, seed=seed)


def run_trial(pl, world, labeling: Labeling, kind: str, seed: int):
    records, public = world
    model_name, mechanism = TRIAL_KINDS[kind]
    model = pl.core.PrivacyModel[model_name]
    delta = labeling.delta if model_name.startswith("SHUFFLE") else 0.0
    params = pl.core.PrivacyParams(labeling.epsilon, model, labeling.k, records.r, labeling.s, records.label_count, delta=delta)
    return pl.simulate.run_algorithm1(
        records,
        public.embeddings,
        params,
        T=labeling.T,
        s=labeling.s,
        k=labeling.k,
        master_seed=seed,
        pub_true_labels=public.true_labels,
        mechanism=mechanism,
        partition_scheme=pl.simulate.PartitionScheme(labeling.scheme),
        n_clients=labeling.n_clients,
        dirichlet_alpha=labeling.dirichlet_alpha,
    )


def run_mse_point(pl, epsilon: float, trials: int, seed: int):
    s, label_count, k, r = MSE_SHAPE
    return pl.mse.mse_comparison(s, label_count, k, r, np.array([epsilon]), trials, seed)
