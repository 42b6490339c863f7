"""Every caller-supplied index array goes through ``core.integer_array``.

A fractional index raises "<name> must be integers" rather than being
truncated into another, valid index, and an index outside [0, size) raises
"<name> out of range [0, size)" rather than being read from the end of an
array or counted in the wrong bucket.  The integer shape fields of the
report parameters go through ``core.check_integers``.
"""
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from privlabel.analysis import predict_labeling_accuracy
from privlabel.central import laplace_accuracy_bound
from privlabel.core import (
    ConnectionMap,
    PrivacyModel,
    PrivacyParams,
    flatten_support,
    label_vector,
    vote_counts,
)
from privlabel.geometry import propagate_labels, select_queries_uncertainty
from privlabel.local import (
    CollisionParams,
    GseParams,
    bucket_hash,
    collision_encode_batch,
    collision_hit_counts,
    collision_indicator_estimates,
    gse_estimate,
    rr_accuracy_bound,
)
from privlabel.shuffle import multi_message_accuracy_bound, multi_message_pipeline
from privlabel.simulate import Partition, PartitionScheme, ProxyStudent

FILTER = CollisionParams(8, 1, 1.0, 2)
SEEDS = np.array([1, 2], dtype=np.uint64)
SOFT = np.array([[0.9, 0.1], [0.6, 0.4], [0.5, 0.5]])


def _rng():
    return np.random.default_rng(0)


class Site(NamedTuple):
    call: Callable[[np.ndarray], object]  # passes one two-entry index array on
    name: str  # as the error names it
    size: int | None  # indices must lie in [0, size); None: no upper bound
    # False where a fraction was already rejected under this name, or by a
    # shape check that runs first (gse_estimate's "cell stack")
    new_fraction: bool = True


SITES = {
    "connection-map": Site(lambda idx: ConnectionMap(idx.reshape(-1, 1), s=3, k=1), "bucket indices", 3, False),
    "vote-counts": Site(lambda idx: vote_counts(idx, (2, 2)), "vote indices", 4, False),
    "partition": Site(lambda idx: Partition(idx, 3, PartitionScheme.IID), "client ids", 3, False),
    "support": Site(
        lambda idx: collision_encode_batch(idx, CollisionParams.for_budget(8, 2, 1.0), _rng(), 1),
        "support indices", 8, False,
    ),
    "report-cells": Site(lambda idx: collision_indicator_estimates(SEEDS, idx, FILTER), "report cells (filter range)", 2),
    "hit-columns": Site(
        lambda idx: collision_hit_counts(SEEDS, np.array([0, 1]), FILTER, [idx]), "column indices", 8
    ),
    "gse-cells": Site(lambda idx: gse_estimate(idx.reshape(1, 2), GseParams(8, 2, 1.0, 2)), "released cells", 8, False),
    "propagate": Site(lambda idx: propagate_labels(idx, np.array([4, 5, 6])), "cluster assignment", 3),
    "exclude": Site(lambda idx: select_queries_uncertainty(SOFT, 1, exclude=idx), "excluded samples", 3),
    "label-vector": Site(lambda idx: label_vector(idx, 3), "label indices", 3),
    "flatten-buckets": Site(lambda idx: flatten_support(idx, [0], 3), "bucket indices", None),
    "flatten-labels": Site(lambda idx: flatten_support([0, 1], idx, 3), "label indices", 3),
    "client-mass": Site(
        lambda idx: multi_message_pipeline(
            np.array([[1, 1]]), idx, PrivacyParams(1.0, PrivacyModel.SHUFFLE_MULTI, 1, 1, 1, 2, 1e-6), _rng()
        ),
        "client vote totals", None,
    ),
    "student-labels": Site(lambda idx: ProxyStudent.fit(np.eye(2), idx, 3), "labels", 3),
    "predicted-assignment": Site(
        lambda idx: predict_labeling_accuracy(np.ones((3, 2)), idx, [0, 1], 1.0, _rng(), draws=4),
        "cluster assignment", 3,
    ),
    "predicted-truth": Site(
        lambda idx: predict_labeling_accuracy(np.ones((3, 2)), [0, 1], idx, 1.0, _rng(), draws=4),
        "true labels", 2,
    ),
}

CASES = [
    pytest.param(site, kind, id=f"{key}-{kind}")
    for key, site in SITES.items()
    for kind in ("fraction", "negative", "past-the-end")
    if (site.new_fraction if kind == "fraction" else site.size is not None)
]


@pytest.mark.parametrize("site, kind", CASES)
def test_malformed_index_rejected(site, kind):
    # a cast would read [0.5, 1.5] as [0, 1], and numpy would read -1 as the
    # last entry
    if kind == "fraction":
        indices, message = np.array([0.5, 1.5]), f"{site.name} must be integers, got float64"
    else:
        indices = np.array([-1, 1] if kind == "negative" else [1, site.size])
        message = f"{site.name} out of range [0, {site.size})"
    with pytest.raises(ValueError, match=re.escape(message)):
        site.call(indices)


@pytest.mark.parametrize("make, field", [
    (lambda: CollisionParams(100.5, 1, 1.0, 3), "domain_size"),
    (lambda: CollisionParams(100, 1.5, 1.0, 3), "support_size"),
    # would hash into 2 cells while Omega and the estimator use 2.5
    (lambda: CollisionParams(100, 1, 1.0, 2.5), "filter_length"),
    (lambda: GseParams(10.5, 1, 1.0, 2), "domain_size"),
    (lambda: GseParams(10, 1.5, 1.0, 2), "support_size"),
    (lambda: GseParams(10, 2, 1.0, 2.5), "output_size"),
    (lambda: GseParams(10, 2, 1.0, 2, 1.5), "alpha_min"),
], ids=["collision-d", "collision-c", "collision-l", "gse-d", "gse-c", "gse-l", "gse-alpha"])
def test_fractional_report_shape_rejected(make, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        make()


@pytest.mark.parametrize("bound", [
    lambda beta: laplace_accuracy_bound(PrivacyParams(1.0, PrivacyModel.CENTRAL, 1, 1, 2, 2), beta),
    lambda beta: multi_message_accuracy_bound(PrivacyParams(1.0, PrivacyModel.SHUFFLE_MULTI, 1, 1, 2, 2, 1e-6), beta),
    lambda beta: rr_accuracy_bound(PrivacyParams(1.0, PrivacyModel.LOCAL, 1, 1, 2, 2), 10, beta),
], ids=["central", "shuffle-multi", "local-rr"])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_every_bound_checks_beta_alike(bound, beta):
    with pytest.raises(ValueError, match=re.escape("beta must lie in (0, 1)")):
        bound(beta)


@pytest.mark.parametrize("seed, values, length, message", [
    # a cast would hash into 2 cells, read 0.5 as 0 and wrap -1 to 2**64 - 1
    (3, np.arange(10), 2.5, "filter length must be integers, got float64"),
    (3, np.arange(10), 0, "filter length must be at least 1"),
    (3, np.array([0.5, -1.0]), 8, "hashed values must be integers, got float64"),
    (3, np.array([-1, 1]), 8, "hashed values must be non-negative"),
    (0.5, np.arange(2), 8, "hash seeds must be integers, got float64"),
    (np.array([[1], [-1]]), np.arange(2), 8, "hash seeds must be non-negative"),
], ids=["fractional-length", "empty-filter", "fractional-values", "negative-values", "fractional-seed", "negative-seed"])
def test_bucket_hash_rejects_what_a_cast_would_change(seed, values, length, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        bucket_hash(seed, values, length)
