"""Golden digests: one sha256 per named output of fixed runs of the package.

Run from the root of a source checkout:

    python tests/golden.py             # compare with tests/golden.json
    python tests/golden.py --update    # rewrite tests/golden.json

``tests/test_golden.py`` runs the comparison in the test suite.  A change
that moves a digest changes an output: it names the moved digests and why.

Cases:

- ``world/<name>``: the record embeddings and labels, the public embeddings
  and their true classes of the benchmark world and of a small multi-label
  world with r = 2, whose class centres are means of two class means.
- ``trial/<kind>/seed=<seed>``: one labeling trial of every benchmark kind
  on the benchmark world, the same shapes as the benchmark's workloads: the
  queries, exact and noisy counts, hard labels and η of every iteration, the
  public labels, the cluster assignment and ``eta_exceed_rate``.
- ``trial/local-rr/mixed-clients``: the same fields of a local-rr trial on a
  2,000-record world split IID over 1,500 clients, so that clients holding
  one record and clients holding several share one permutation of the records.
- ``kmeans/s=<s>``: centers and assignment over the benchmark's public pool.
- ``kmeans/near-ties``: centers and assignments over pools of points on the
  bisectors of query pairs, whose near ties move an assignment wherever
  Lloyd's bounds skip a row they should not.
- ``connect/k=<k>``: the reverse k-NN map of the benchmark's records to the
  ``kmeans/s=200`` centers.
- ``mse-point``: one budget point of the MSE figure.
- ``encode/collision/<shape>`` and ``encode/gse/<shape>``: the batched
  encoders, and the summed collision estimate where the shape can be
  estimated: per-report collision supports at l = 2, 4, 16 and 19 (either
  side of the 8-cell bound of the 32-bit hash, and the shuffle-single
  trial's filter), a hashed support that can cover the whole filter, a
  power-of-two filter of 8 cells over a wide domain, the local-gse trial's
  shape (l = 2 of d = 100), and both of the GSE subset draw's paths that
  this shape does not take.
- ``cli/bounds``: the standard output of ``privlabel bounds``.
- ``cli/simulate/<model>``: the bytes of one ``privlabel simulate --out``
  file per privacy model.

Noise draws depend on numpy's Generator, so the file records the numpy
version it was written with.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden.json")

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from privlabel import cli, core, data, geometry, local, mse, simulate  # noqa: E402

# the benchmark world: 60k records, 5k public samples, 10 classes
WORLD = dict(classes=10, per_class=6000, dim=8, separation=12.0, std=1.0, pub_per_class=500)
WORLD_SEED = 1
# the benchmark's two labeling shapes
SILO = dict(s=200, k=2, T=3, epsilon=1.0, scheme="dirichlet", n_clients=1000)
ONE_RECORD = dict(s=10, k=1, T=1, epsilon=0.4, scheme="single-record", n_clients=None)
# trial kind -> (privacy model, mechanism, labeling shape)
TRIAL_KINDS = {
    "central": ("CENTRAL", "auto", SILO),
    "shuffle-multi": ("SHUFFLE_MULTI", "auto", SILO),
    "local-rr": ("LOCAL", "rr", ONE_RECORD),
    "local-laplace": ("LOCAL", "laplace", ONE_RECORD),
    "local-collision": ("LOCAL", "collision", ONE_RECORD),
    "local-gse": ("LOCAL", "gse", ONE_RECORD),
    "shuffle-single-rr": ("SHUFFLE_SINGLE", "rr", ONE_RECORD),
    "shuffle-single-collision": ("SHUFFLE_SINGLE", "collision", ONE_RECORD),
}
TRIAL_SEEDS = (1_000_000, 1_000_001)
MIXED_WORLD = dict(WORLD, per_class=200, pub_per_class=50)
MULTI_LABEL_WORLD = dict(MIXED_WORLD, multilabel_r=2)
MIXED_CLIENTS = dict(s=10, k=1, T=1, epsilon=1.0, scheme="iid", n_clients=1500)
KMEANS_S = (10, 40, 200)
NEAR_TIES = dict(seeds=range(8), s=8, dim=2, per_bisector=200)
CONNECT_K = (1, 2, 5)
MSE_POINT = dict(s=200, label_count=50, k=2, r=2, epsilon=1.0, trials=2000, seed=1_000_000)
# encoder case -> (d, c, l, eps, reports, per-report supports); each case's
# generator is seeded by its position, so new cases go at the end
ENCODE_CASES = {
    "collision/per-report/d=100-c=1-l=2": (100, 1, 2, 0.4, 6000, True),
    "collision/covered-filter/d=12-c=4-l=3": (12, 4, 3, 1.0, 3000, False),  # estimation rejects c >= l
    "collision/power-of-two/d=2000-c=2-l=8": (2000, 2, 8, 1.0, 500, False),
    "gse/argsort/d=12-c=2-l=7": (12, 2, 7, 1.0, 3000, True),
    "gse/long-sequences/d=2000-c=2-l=300": (2000, 2, 300, 5.0, 300, False),
    "collision/per-report/d=100-c=1-l=4": (100, 1, 4, 1.0, 6000, True),
    "collision/per-report/d=100-c=1-l=16": (100, 1, 16, 2.7, 6000, True),
    "collision/per-report/d=100-c=1-l=19": (100, 1, 19, 2.9, 6000, True),  # shuffle-single's shape
    "gse/per-report/d=100-c=1-l=2": (100, 1, 2, 0.4, 6000, True),  # the local-gse trial's shape
}
ENCODE_SEED = 1_000_000
BOUNDS_ARGV = ["bounds", "--eps", "1", "--delta", "1e-6", "--n", "60000", "--s", "10", "--k", "2", "--r", "1"]
SIMULATE_ARGV = ["simulate", "--seed", "7", "--s", "10", "--k", "2", "--epsilon", "0.5", "--trials", "2"]
SIMULATE_MODELS = {
    "central": [],
    "local": [],
    "shuffle-single": ["--delta", "1e-6"],
    "shuffle-multi": ["--delta", "1e-6", "--partition", "iid", "--n-clients", "50"],
}


def digest(value) -> str:
    """sha256 of a value's type, shape and bytes; lists and tuples digest
    their items in order."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, (list, tuple)):
            h.update(f"list:{len(v)};".encode())
            for item in v:
                feed(item)
        elif isinstance(v, np.ndarray):
            v = np.ascontiguousarray(v)
            h.update(f"array:{v.dtype.str}:{v.shape};".encode())
            h.update(v.tobytes())
        elif isinstance(v, bytes):
            h.update(b"bytes:%d;" % len(v))
            h.update(v)
        else:
            h.update(f"{type(v).__name__}:{v!r};".encode())

    feed(value)
    return h.hexdigest()


def _world(records, public) -> dict:
    return {
        "record_embeddings": digest(records.embeddings),
        "record_labels": digest(records.labels),
        "public_embeddings": digest(public.embeddings),
        "public_truth": digest(public.true_labels),
    }


def _trial(records, public, model_name: str, mechanism: str, shape: dict, seed: int) -> dict:
    model = core.PrivacyModel[model_name]
    delta = 1e-6 if model_name.startswith("SHUFFLE") else 0.0
    params = core.PrivacyParams(
        shape["epsilon"], model, shape["k"], records.r, shape["s"], records.label_count, delta=delta
    )
    result = simulate.run_algorithm1(
        records,
        public.embeddings,
        params,
        T=shape["T"],
        s=shape["s"],
        k=shape["k"],
        master_seed=seed,
        pub_true_labels=public.true_labels,
        mechanism=mechanism,
        partition_scheme=simulate.PartitionScheme(shape["scheme"]),
        n_clients=shape["n_clients"],
    )
    its = result.iterations
    return {
        "queries": [it.query_embeddings for it in its],
        "exact_counts": [it.exact for it in its],
        "noisy_counts": [it.report.noisy_counts for it in its],
        "hard_labels": [it.report.hard for it in its],
        "public_labels": result.public_hard_labels,
        "cluster_assignment": result.cluster_assignment,
        "eta": [it.report.theoretical_eta for it in its],
        "eta_exceed_rate": [it.report.eta_exceed_rate for it in its],
    }


def _near_tie_pool(seed: int) -> np.ndarray:
    """s random queries, then per_bisector points on the bisector of each of
    s random query pairs: each point is exactly equidistant from its pair, so
    its computed distances to the two tie up to their last bit."""
    p = NEAR_TIES
    gen = np.random.default_rng(seed)
    queries = gen.normal(size=(p["s"], p["dim"]))
    parts = [queries]
    for _ in range(p["s"]):
        a, b = gen.choice(p["s"], size=2, replace=False)
        normal = queries[b] - queries[a]
        offsets = gen.normal(scale=0.3, size=(p["per_bisector"], p["dim"]))
        offsets -= np.outer(offsets @ normal / (normal @ normal), normal)
        parts.append((queries[a] + queries[b]) / 2 + offsets)
    return np.vstack(parts)


def _cli(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"privlabel {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def _simulate_file(extra) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.json"
        _cli(SIMULATE_ARGV + extra + ["--out", str(path)])
        return path.read_bytes()


def _supports(gen: np.random.Generator, d: int, c: int, n: int, per_report: bool) -> np.ndarray:
    """n sorted rows of c distinct indices below d, or one such row."""
    rows = np.sort(np.argsort(gen.random((n if per_report else 1, d)), axis=1)[:, :c], axis=1)
    return rows if per_report else rows[0]


def _encode_cases() -> dict:
    cases = {}
    for i, (name, (d, c, l, eps, n, per_report)) in enumerate(ENCODE_CASES.items()):
        gen = np.random.default_rng([ENCODE_SEED, i])
        support = _supports(gen, d, c, n, per_report)
        if name.startswith("gse/"):
            params = local.GseParams(d, c, eps, l)
            cases[f"encode/{name}"] = {"cells": digest(local.gse_encode_batch(support, params, gen, n))}
            continue
        params = local.CollisionParams(d, c, eps, l)
        seeds, cells = local.collision_encode_batch(support, params, gen, n)
        fields = {"seeds": digest(seeds), "cells": digest(cells)}
        if params.estimator_denominator > 0:
            fields["estimates"] = digest(local.collision_indicator_estimates(seeds, cells, params))
        cases[f"encode/{name}"] = fields
    return cases


def compute() -> dict:
    """{case: {field: digest}} of every case, in a fixed order."""
    records, public = data.generate_synthetic(data.SyntheticSpec(**WORLD), seed=WORLD_SEED)
    multi_records, multi_public = data.generate_synthetic(data.SyntheticSpec(**MULTI_LABEL_WORLD), seed=WORLD_SEED)
    cases = {"world/bench": _world(records, public), "world/multi-label-r=2": _world(multi_records, multi_public)}
    for kind in TRIAL_KINDS:
        for seed in TRIAL_SEEDS:
            fields = _trial(records, public, *TRIAL_KINDS[kind], seed)
            cases[f"trial/{kind}/seed={seed}"] = {name: digest(v) for name, v in fields.items()}
    small_records, small_public = data.generate_synthetic(data.SyntheticSpec(**MIXED_WORLD), seed=WORLD_SEED)
    fields = _trial(small_records, small_public, "LOCAL", "rr", MIXED_CLIENTS, TRIAL_SEEDS[0])
    cases["trial/local-rr/mixed-clients"] = {name: digest(v) for name, v in fields.items()}
    centers = {}
    for s in KMEANS_S:
        centers[s], assignment = geometry.kmeans(public.embeddings, s, np.random.default_rng(s))
        cases[f"kmeans/s={s}"] = {"centers": digest(centers[s]), "assignment": digest(assignment)}
    runs = [geometry.kmeans(_near_tie_pool(seed), NEAR_TIES["s"], np.random.default_rng(seed)) for seed in NEAR_TIES["seeds"]]
    cases["kmeans/near-ties"] = {"centers": digest([c for c, _ in runs]), "assignment": digest([a for _, a in runs])}
    queries = core.QuerySet(centers[200])
    for k in CONNECT_K:
        connections = geometry.reverse_knn_connect(records.embeddings, queries, k)
        cases[f"connect/k={k}"] = {"indices": digest(connections.indices)}
    p = MSE_POINT
    curves = mse.mse_comparison(p["s"], p["label_count"], p["k"], p["r"], np.array([p["epsilon"]]), p["trials"], p["seed"])
    cases["mse-point"] = {
        name: digest(getattr(curves, name)) for name in ("collision", "separation", "concatenation")
    }
    cases.update(_encode_cases())
    cases["cli/bounds"] = {"stdout": digest(_cli(BOUNDS_ARGV))}
    for model, extra in SIMULATE_MODELS.items():
        cases[f"cli/simulate/{model}"] = {"results": digest(_simulate_file(["--model", model] + extra))}
    return cases


def moved(expected: dict, actual: dict) -> list[str]:
    """``case: field`` for every digest that differs, is missing or is new."""
    out = []
    for case in sorted(expected.keys() | actual.keys()):
        old, new = expected.get(case, {}), actual.get(case, {})
        out += [f"{case}: {field}" for field in sorted(old.keys() | new.keys()) if old.get(field) != new.get(field)]
    return out


def check() -> list[str]:
    """One line per moved digest of ``compute()`` against the committed
    file, with a note when the numpy version differs; empty if none moved."""
    doc = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    lines = moved(doc["cases"], compute())
    if lines and doc["numpy"] != np.__version__:
        lines.append(f"(digests written with numpy {doc['numpy']}, running numpy {np.__version__})")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--update"]:
        doc = {"numpy": np.__version__, "cases": compute()}
        GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(doc['cases'])} cases to {GOLDEN_PATH}")
        return 0
    if argv:
        print("usage: python tests/golden.py [--update]", file=sys.stderr)
        return 2
    lines = check()
    print("\n".join(lines) or "no digest moved")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
