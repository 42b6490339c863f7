"""Shared fixtures, random-instance builders, and the acceptance summary."""
from __future__ import annotations

import re

import numpy as np
import pytest

from privlabel.core import QuerySet, RecordSet, label_vector

_CRITERIA = {
    "01": "exhaustive local-DP verification (RR, collision, subset release)",
    "02": "estimator unbiasedness, 4-sigma Monte-Carlo at N = 1e5",
    "03": "max-error bound conformance at beta in {0.01, 0.05, 0.1}",
    "04": "local-oracle MSE curves: concatenation vs separation vs collision",
    "05": "shuffle model: amplification values, inversion, noise fit, round trip",
    "06": "reverse k-NN attains the brute-force arithmetic-mean optimum",
    "07": "partition invariance of the pre-noise aggregate",
    "08": "synthetic end-to-end labeling accuracy (central and local)",
    "09": "sensitivity never exceeds 2kr; constructed case attains it",
    "10": "byte-identical reproducibility, sequential vs parallel",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    outcomes: dict[str, set] = {}
    for status in ("passed", "failed", "error", "xfailed", "xpassed", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if match:
                outcomes.setdefault(match.group(1), set()).add(status)
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(outcomes):
        statuses = outcomes[number]
        if statuses & {"failed", "error", "xpassed"}:
            verdict = "FAIL"
        elif "xfailed" in statuses:
            verdict = "PASS (with a documented expected failure)"
        else:
            verdict = "PASS"
        description = _CRITERIA.get(number, "")
        terminalreporter.write_line(f"criterion {int(number):2d}: {verdict} - {description}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_record_set(
    rng: np.random.Generator, m: int, dim: int, label_count: int, r: int = 1
) -> RecordSet:
    emb = rng.normal(size=(m, dim))
    labels = np.zeros((m, label_count), dtype=np.uint8)
    for j in range(m):
        picks = rng.choice(label_count, size=r, replace=False)
        labels[j, picks] = 1
    return RecordSet(emb, labels)


def random_queries(rng: np.random.Generator, s: int, dim: int) -> QuerySet:
    return QuerySet(rng.normal(size=(s, dim)))


def swap_one_record(
    records: RecordSet, rng: np.random.Generator, r: int
) -> RecordSet:
    """Neighboring dataset: one record replaced with a fresh one."""
    j = int(rng.integers(records.m))
    emb = records.embeddings.copy()
    labels = records.labels.copy()
    emb[j] = rng.normal(size=records.dim)
    new_label = np.zeros(records.label_count, dtype=np.uint8)
    picks = rng.choice(records.label_count, size=r, replace=False)
    new_label[picks] = 1
    labels[j] = new_label
    return RecordSet(emb, labels)


def bisector_near_ties(seed: int, label_count: int = 3) -> tuple[RecordSet, QuerySet]:
    """Fewer than 40 one-label records on the bisector of two of 2-4 random
    queries: each record is exactly equidistant from the two, so its computed
    distances tie up to their last bit."""
    gen = np.random.default_rng(seed)
    dim = int(gen.choice([2, 3, 8, 50]))
    s, m = int(gen.integers(2, 5)), int(gen.integers(2, 40))
    queries = gen.normal(size=(s, dim))
    a, b = gen.choice(s, size=2, replace=False)
    normal = queries[b] - queries[a]
    offsets = gen.normal(scale=0.3, size=(m, dim))
    offsets -= np.outer(offsets @ normal / (normal @ normal), normal)
    labels = np.zeros((m, label_count), dtype=np.uint8)
    labels[np.arange(m), gen.integers(0, label_count, size=m)] = 1
    return RecordSet((queries[a] + queries[b]) / 2 + offsets, labels), QuerySet(queries)


def four_point_fixture():
    """Three far-apart queries and four records with forced connections.

    With k=1 Euclidean: records 0 and 3 connect to query 0, record 1 to
    query 1, record 2 to query 2; labels give the exact aggregate
    [[2, 0], [0, 1], [0, 1]].
    """
    queries = QuerySet(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]))
    emb = np.array([[1.0, 0.0], [9.0, 0.0], [0.0, 9.0], [0.0, 1.0]])
    labels = np.array([[1, 0], [0, 1], [0, 1], [1, 0]], dtype=np.uint8)
    return RecordSet(emb, labels), queries
