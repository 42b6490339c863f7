"""Domain types and exact (non-private) operations for bucketized sparse vote sums.

The data model: every private record carries a sparse binary label vector
(``r`` ones over a label domain of size ``label_count``) and gets attached to
at most ``k`` buckets (query indices).  The quantity of interest is the
per-bucket sum of label vectors, an ``s x label_count`` count matrix.  All
privacy mechanisms in this package perturb that matrix; this module holds the
exact arithmetic they are measured against.  A record's votes are kept flat,
as its min(k, s) * r indices bucket * label_count + label, and every count is
a ``vote_counts`` of such indices.
"""
from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np


class PrivacyModel(enum.Enum):
    """Trust model under which the count matrix is privatized."""

    CENTRAL = "central"
    LOCAL = "local"
    SHUFFLE_MULTI = "shuffle-multi"
    SHUFFLE_SINGLE = "shuffle-single"


_PURE_DP_MODELS = (PrivacyModel.CENTRAL, PrivacyModel.LOCAL)


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget plus the problem-shape parameters every bound needs.

    ``epsilon`` may be ``math.inf`` to express the noiseless limit.  Central
    and local models are pure DP and require ``delta == 0``; both shuffle
    models require ``delta > 0``.
    """

    epsilon: float
    model: PrivacyModel
    k: int
    r: int
    s: int
    label_count: int
    delta: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        if self.model in _PURE_DP_MODELS and self.delta != 0.0:
            raise ValueError(f"{self.model.value} model is pure DP and requires delta = 0")
        if self.model not in _PURE_DP_MODELS and not self.delta > 0.0:
            raise ValueError(f"{self.model.value} model requires delta > 0")
        for name in ("k", "r", "s", "label_count"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("k", "r", "s"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.label_count < 2:
            raise ValueError("label_count must be at least 2")
        if self.r > self.label_count:
            raise ValueError("r cannot exceed label_count")

    @property
    def sensitivity(self) -> int:
        """Worst-case L1 change of the aggregate under a one-record swap."""
        return 2 * self.k * self.r

    @property
    def flat_domain_size(self) -> int:
        return self.s * self.label_count

    def per_iteration(self, iterations: int) -> "PrivacyParams":
        """Evenly split budget across ``iterations`` (sequential composition)."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        return replace(self, epsilon=self.epsilon / iterations)


def integer_array(values, name: str) -> np.ndarray:
    """``values`` as an int64 array.  A nonempty input must hold integers
    already: a cast would truncate 0.5 and 1.7 into other, valid indices."""
    values = np.asarray(values)
    if values.size and not np.issubdtype(values.dtype, np.integer):
        raise ValueError(f"{name} must be integers, got {values.dtype}")
    return values.astype(np.int64, copy=False)


def label_vector(indices: Iterable[int], label_count: int) -> np.ndarray:
    """Build a multi-hot label vector with ones at ``indices``."""
    bits = np.zeros(label_count, dtype=np.uint8)
    idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)
    if idx.size == 0:
        raise ValueError("a label vector needs at least one class index")
    if idx.min() < 0 or idx.max() >= label_count:
        raise ValueError(f"label index out of range [0, {label_count})")
    bits[idx] = 1
    return bits


def validate_label_matrix(labels: np.ndarray) -> int:
    """Check a stacked (m, label_count) multi-hot matrix; return the shared
    cardinality r.  Every entry must equal 0 or 1 exactly (NaN does not), in
    any bool, integer or float dtype, and all rows must have the same number
    of ones.  The check allocates two boolean masks of the matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("labels must be a 2-D multi-hot matrix")
    ones = labels == 1
    if not np.logical_or(labels == 0, ones, out=ones).all():
        raise ValueError("label entries must be 0 or 1")
    cards = labels.sum(axis=1)
    if labels.shape[0] == 0:
        return 1
    found = int(cards[0])
    if not (cards == found).all():
        raise ValueError("all records must share the same label cardinality")
    if found < 1:
        raise ValueError("label cardinality must be at least 1")
    return found


@dataclass(frozen=True)
class RecordSet:
    """Column-stacked private dataset.

    ``embeddings`` is (m, dim) float64, ``labels`` is (m, label_count)
    multi-hot uint8 with a uniform cardinality ``r`` across rows.  Labels
    are validated in the dtype given, before the cast to uint8, so that an
    entry such as 256 or 0.5 is rejected rather than cast.  A record set is
    immutable: its fields are validated once and cannot be reassigned, and
    ``dataclasses.replace`` builds a revalidated copy.  So it keeps two
    read-only per-record arrays, computed at first use and shared by every
    query set connected to these records: ``squared_norms`` and
    ``label_indices``.  The field arrays are not copied, so a write into
    them in place is not seen by these.
    """

    embeddings: np.ndarray
    labels: np.ndarray
    ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        embeddings = np.asarray(self.embeddings, dtype=np.float64)
        labels = np.asarray(self.labels)
        if embeddings.ndim != 2:
            raise ValueError("embeddings must be (m, dim)")
        if not np.isfinite(embeddings).all():
            raise ValueError("record embeddings must be finite")
        validate_label_matrix(labels)
        if labels.shape[0] != embeddings.shape[0]:
            raise ValueError("embeddings and labels disagree on record count")
        labels = labels.astype(np.uint8, copy=False)
        if self.ids is None:
            ids = np.arange(embeddings.shape[0])
        else:
            ids = np.asarray(self.ids)
            if ids.shape[0] != embeddings.shape[0]:
                raise ValueError("ids length mismatch")
        object.__setattr__(self, "embeddings", embeddings)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ids", ids)

    @property
    def m(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def label_count(self) -> int:
        return self.labels.shape[1]

    @property
    def r(self) -> int:
        return int(self.labels[0].sum()) if self.m else 1

    @functools.cached_property
    def squared_norms(self) -> np.ndarray:
        """(m,) |x|² of every record, as ``np.einsum("ij,ij->i")`` sums it:
        the norms a connect's rounding margins read.  A norm beyond the
        float range reads inf."""
        with np.errstate(over="ignore"):
            squares = np.einsum("ij,ij->i", self.embeddings, self.embeddings)
        squares.flags.writeable = False
        return squares

    @functools.cached_property
    def label_indices(self) -> np.ndarray:
        """(m, r) label ids of every record, increasing along each row."""
        # the 0/1 matrix's ones in row-major order, each flat index modulo
        # label_count: np.nonzero(labels)[1] without its row indices
        indices = np.flatnonzero(self.labels.view(bool))
        indices %= self.label_count
        indices = indices.reshape(self.m, self.r)
        indices.flags.writeable = False
        return indices

    def subset(self, index: np.ndarray) -> "RecordSet":
        return RecordSet(self.embeddings[index], self.labels[index], self.ids[index])


@dataclass(frozen=True)
class QuerySet:
    """Query (bucket) embeddings with stable indices 0..s-1."""

    embeddings: np.ndarray

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        if emb.ndim != 2 or emb.shape[0] < 1:
            raise ValueError("queries must be a nonempty (s, dim) array")
        if not np.isfinite(emb).all():
            raise ValueError("query embeddings must be finite")
        object.__setattr__(self, "embeddings", emb)

    @property
    def s(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True)
class ConnectionMap:
    """Per-record bucket sets, stored as an (m, degree) index array.

    Rows are strictly increasing (no duplicate buckets per record) and
    ``degree <= min(k, s)``.
    """

    indices: np.ndarray
    s: int
    k: int

    def __post_init__(self):
        idx = integer_array(self.indices, "bucket indices")
        if idx.ndim != 2:
            raise ValueError("connection indices must be (m, degree)")
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.s:
                raise ValueError("bucket index out of range")
            if idx.shape[1] > 1 and not (np.diff(idx, axis=1) > 0).all():
                raise ValueError("each record's bucket set must be strictly increasing")
        if idx.shape[1] > min(self.k, self.s):
            raise ValueError("record degree exceeds min(k, s)")
        object.__setattr__(self, "indices", idx)

    @property
    def m(self) -> int:
        return self.indices.shape[0]

    @property
    def degree(self) -> int:
        return self.indices.shape[1]


@dataclass
class MechanismReport:
    """Outcome of one privatization pass over the count matrix."""

    model: str
    mechanism: str
    noisy_counts: np.ndarray
    hard: np.ndarray
    soft: np.ndarray
    degenerate_buckets: np.ndarray
    empirical_eta: float | None = None
    theoretical_eta: float | None = None
    eta_exceed_rate: float | None = None  # share of buckets whose max error reaches eta


# ---------------------------------------------------------------------------
# exact operations


def flatten_support(buckets, labels, label_count: int) -> np.ndarray:
    """Flat vote indices bucket * label_count + label.

    ``buckets`` is (..., degree) and ``labels`` is (..., r); the result is
    (..., degree * r), bucket-major, so it increases along each row when both
    inputs do.  1-D inputs give one record's votes.
    """
    buckets = np.asarray(buckets, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    flat = buckets[..., :, None] * label_count + labels[..., None, :]
    return flat.reshape(flat.shape[:-2] + (flat.shape[-2] * flat.shape[-1],))


def record_votes(records: RecordSet, connections: ConnectionMap) -> np.ndarray:
    """(m, degree * r) flat votes of every record: its r labels in each of
    its buckets."""
    if connections.m != records.m:
        raise ValueError("connections must cover exactly these records")
    return flatten_support(connections.indices, records.label_indices, records.label_count)


def vote_counts(votes: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Count array of ``shape``: how many votes fall on each flat cell."""
    votes = integer_array(votes, "vote indices").ravel()
    size = math.prod(shape)
    if votes.size and (votes.min() < 0 or votes.max() >= size):
        raise ValueError(f"vote index out of range [0, {size})")
    return np.bincount(votes, minlength=size).reshape(shape)


def hard_labels(counts: np.ndarray) -> np.ndarray:
    """Each count row's argmax, ties broken by the smallest index."""
    return np.argmax(np.asarray(counts), axis=1)


def soft_labels(counts: np.ndarray) -> np.ndarray:
    """Normalize each count row to a probability vector.

    Negative (post-noise) entries are clamped to zero first; a row that is
    all zero after clamping maps to the uniform distribution.
    """
    # C order sums each row as one contiguous run, as a lone row is summed
    clamped = np.maximum(np.asarray(counts, dtype=np.float64, order="C"), 0.0)
    total = clamped.sum(axis=1, keepdims=True)
    empty = total == 0.0
    return np.where(empty, 1.0 / clamped.shape[1], clamped / np.where(empty, 1.0, total))


def degenerate_buckets(counts: np.ndarray) -> np.ndarray:
    """Bucket indices whose rows are all-zero after clamping negatives."""
    clamped = np.maximum(np.asarray(counts, dtype=np.float64), 0.0)
    return np.flatnonzero(clamped.sum(axis=1) == 0.0)


def count_gap(row: np.ndarray, true_label: int) -> float:
    """Margin of the true label's count over the best competing label."""
    row = np.asarray(row, dtype=np.float64)
    if row.size < 2:
        raise ValueError("count_gap needs at least two labels")
    if not 0 <= true_label < row.size:
        raise ValueError("true_label out of range")
    others = np.delete(row, true_label)
    return float(row[true_label] - others.max())
