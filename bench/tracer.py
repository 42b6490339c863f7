"""Span tracer that instruments privlabel from outside the package.

Every public function of the traced modules is wrapped in the namespace that
calls it: the defining module and every module that imported it by name
(``simulate`` imports the geometry functions, ``mse`` imports ``bucket_hash``
and ``collision_encode_batch``).  A span is (name, start, end, parent).

Layer metrics fold the spans of functions that have no metric of their own
(``kmeans``, ``pairwise_distances``, ``amplify_forward``...) into their
nearest named ancestor, so ``geometry.select_queries_cluster.self_s`` holds
the clustering work rather than only the call overhead.  A named function
that the package no longer defines is reported as absent and its metrics
read 0.
"""
from __future__ import annotations

import inspect
import sys
import time
from typing import Callable

import numpy as np

TRACED_MODULES = ("core", "geometry", "central", "local", "shuffle", "simulate", "mse", "data")

# layer metric groups; each is charged the self time of its functions' spans
SELF_METRICS = (
    "geometry.select_queries_cluster",
    "geometry.reverse_knn_connect",
    "geometry.local_answer",
    "geometry.select_queries_uncertainty",
    "simulate.partition_records",
    "simulate.proxy_student",
    "simulate.run_algorithm1",
    "central.central_laplace_mechanism",
    "central.sample_laplace",
    "local.rr_encode_batch",
    "local.rr_estimate",
    "local.collision_encode_batch",
    "local.collision_indicator_estimates",
    "local.bucket_hash",
    "local.gse_encode",
    "local.gse_encode_batch",
    "local.gse_members_to_matrix",
    "local.gse_estimate",
    "shuffle.multi_message_pipeline",
    "shuffle.sample_noise_share",
    "shuffle.multi_message_decode",
    "shuffle.single_message_pipeline",
    "shuffle.amplify_invert",
    "core.labels",
    "mse.mse_comparison",
    "data.generate_synthetic",
)
PROXY_METHODS = ("fit", "fit_soft", "predict", "soft")
# function (module.name) -> the group it is charged to
LABEL_FUNCTIONS = ("hard_labels", "soft_labels", "soft_label", "degenerate_buckets")
GROUPS = {name: name for name in SELF_METRICS if name not in ("simulate.proxy_student", "core.labels")}
GROUPS.update({f"simulate.ProxyStudent.{m}": "simulate.proxy_student" for m in PROXY_METHODS})
GROUPS.update({f"core.{f}": "core.labels" for f in LABEL_FUNCTIONS})
# functions whose calls are counted; the first and last fold into their caller's self time
CALL_METRICS = ("local.flatten_support", "local.gse_encode", "shuffle.multi_message_encode")

ROOT = "bench.op"


def _distance_cells(args, kwargs) -> int:
    embeddings = kwargs.get("embeddings", args[0] if args else None)
    queries = kwargs.get("queries", args[1] if len(args) > 1 else None)
    return int(np.shape(getattr(embeddings, "embeddings", embeddings))[0]) * int(queries.s)


def _hash_cells(args, kwargs) -> int:
    seeds = kwargs.get("hash_seed", args[0] if args else None)
    values = kwargs.get("values", args[1] if len(args) > 1 else None)
    return int(np.prod(np.broadcast_shapes(np.shape(seeds), np.shape(values)), dtype=np.int64))


def _message_count(args, kwargs) -> int:
    messages = kwargs.get("messages", args[0] if args else None)
    return int(np.shape(messages)[0]) if np.size(messages) else 0


# wrapped function -> (work metric, count taken from its arguments)
WORK_COUNTERS: dict[str, tuple[str, Callable]] = {
    "geometry.reverse_knn_connect": ("geometry.distance_cells", _distance_cells),
    "local.bucket_hash": ("local.bucket_hash.cells", _hash_cells),
    "shuffle.multi_message_decode": ("shuffle.messages", _message_count),
}
# kmeans_iterations counts pairwise_distances spans charged to select_queries_cluster
WORK_METRICS = ("geometry.kmeans_iterations",) + tuple(metric for metric, _ in WORK_COUNTERS.values())


class Tracer:
    """Records spans and work counts while installed; restores the package on exit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: dict[int, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def reset(self) -> None:
        self.names.clear()
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        self.work.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        counter = WORK_COUNTERS.get(name, (None, None))[1]

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                if counter is not None:
                    tracer.work[idx] = counter(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the traced modules wherever it is bound."""
        modules = [m for key, m in list(sys.modules.items()) if key == package.__name__ or key.startswith(package.__name__ + ".")]
        found = set()
        for short in TRACED_MODULES:
            module = sys.modules.get(f"{package.__name__}.{short}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                found.add(name)
                wrapper = self.wrap(name, fn)
                for other in modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, other_attr, wrapper)
            if short == "simulate" and hasattr(module, "ProxyStudent"):
                cls = module.ProxyStudent
                for method in PROXY_METHODS:
                    raw = inspect.getattr_static(cls, method, None)
                    if raw is None:
                        continue
                    name = f"simulate.ProxyStudent.{method}"
                    found.add(name)
                    if isinstance(raw, classmethod):
                        self._patch(cls, method, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        self._patch(cls, method, self.wrap(name, raw))
        self.absent = sorted(name for name in set(GROUPS) | set(CALL_METRICS) if name not in found)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(starts, ends, parents) -> np.ndarray:
    """Span duration minus the part of its interval covered by its child spans."""
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    own = ends - starts
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    for parent, kids in children.items():
        intervals = sorted((max(starts[k], starts[parent]), min(ends[k], ends[parent])) for k in kids)
        covered, cur_start, cur_end = 0.0, None, None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        own[parent] -= covered
    return own


def owners(names, parents) -> list[str]:
    """Metric group each span is charged to: its own, or its nearest named ancestor's."""
    owner: list[str] = []
    for idx, name in enumerate(names):
        group = GROUPS.get(name)
        if group is None:
            group = owner[parents[idx]] if parents[idx] >= 0 else ROOT
        owner.append(group)
    return owner


def op_profile(tracer: Tracer) -> dict:
    """Per-group self seconds, calls and work counts of the spans recorded so far.

    Also returns the root span's wall time and the sum of all self times,
    which must agree.
    """
    names, parents = tracer.names, tracer.parents
    self_s = self_times(tracer.starts, tracer.ends, parents)
    owner = owners(names, parents)
    profile: dict[str, float] = {}
    for idx, group in enumerate(owner):
        key = f"{group}.self_s"
        profile[key] = profile.get(key, 0.0) + float(self_s[idx])
        if names[idx] in CALL_METRICS:
            calls = f"{names[idx]}.calls"
            profile[calls] = profile.get(calls, 0) + 1
        if names[idx] == "geometry.pairwise_distances" and group == "geometry.select_queries_cluster":
            profile["geometry.kmeans_iterations"] = profile.get("geometry.kmeans_iterations", 0) + 1
    for idx, value in tracer.work.items():
        metric = WORK_COUNTERS[names[idx]][0]
        profile[metric] = profile.get(metric, 0) + value
    roots = [i for i, p in enumerate(parents) if p < 0]
    profile["wall_s"] = float(sum(tracer.ends[i] - tracer.starts[i] for i in roots))
    profile["self_sum_s"] = float(self_s.sum())
    return profile
