"""Synthetic Gaussian-mixture data and the embeddings CSV format.

CSV layout: header ``id,label,e1..e{dim}``; the label column is empty in
public files, a class index like ``3`` for single-label records, and a
``|``-separated index list like ``3|7`` for multi-label records.  Floats are
written with 17 significant digits so a round trip is lossless.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeds as seeds_mod
from .core import RecordSet, label_vector


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian mixture shape: class count, samples, dimension, separation."""

    classes: int
    per_class: int
    dim: int
    separation: float
    std: float
    pub_per_class: int
    multilabel_r: int = 1

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError("need at least two classes")
        if self.per_class < 1 or self.pub_per_class < 0:
            raise ValueError("sample counts must be positive")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.std <= 0 or self.separation < 0:
            raise ValueError("std must be positive and separation nonnegative")
        if not 1 <= self.multilabel_r <= self.classes:
            raise ValueError("multilabel_r must lie in [1, classes]")


@dataclass
class PublicSet:
    embeddings: np.ndarray
    true_labels: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]


def class_means(spec: SyntheticSpec) -> np.ndarray:
    """Deterministic class means with pairwise distance >= separation.

    Scaled one-hot axes when the dimension allows, otherwise points on a
    circle in the first two dimensions.
    """
    if spec.dim >= spec.classes:
        means = np.zeros((spec.classes, spec.dim))
        for c in range(spec.classes):
            # one-hot axes are sqrt(2) apart, so rescale to hit `separation`
            means[c, c] = spec.separation / math.sqrt(2.0)
        return means
    if spec.dim < 2:
        raise ValueError("dim must be >= 2 when classes exceed the dimension")
    radius = spec.separation / (2.0 * math.sin(math.pi / spec.classes))
    means = np.zeros((spec.classes, spec.dim))
    angles = 2.0 * math.pi * np.arange(spec.classes) / spec.classes
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


def _label_set(base_class: int, spec: SyntheticSpec) -> list[int]:
    return [(base_class + j) % spec.classes for j in range(spec.multilabel_r)]


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[RecordSet, PublicSet]:
    """Private records plus a disjoint public split from the same mixture.

    Each split is drawn class by class: per_class standard normal rows,
    scaled by ``std`` and shifted by the mean of the class's label set's
    class means, written in place into the one array the split returns.
    The public split keeps its ground-truth classes for scoring only; they
    are never fed to any mechanism.
    """
    rng = seeds_mod.generator(seed, "synthetic")
    means = class_means(spec)
    label_sets = [_label_set(c, spec) for c in range(spec.classes)]

    def draw(per_class: int) -> np.ndarray:
        out = np.empty((spec.classes * per_class, spec.dim))
        for block, classes in zip(np.split(out, spec.classes), label_sets):
            rng.standard_normal(out=block)
            block *= spec.std
            block += means[classes].mean(axis=0)
        return out

    bits = np.stack([label_vector(classes, spec.classes) for classes in label_sets])
    records = RecordSet(draw(spec.per_class), np.repeat(bits, spec.per_class, axis=0))
    truth = np.repeat(np.arange(spec.classes, dtype=np.int64), spec.pub_per_class)
    return records, PublicSet(draw(spec.pub_per_class), truth)


# ---------------------------------------------------------------------------
# CSV round trip


def _format_label(bits: np.ndarray) -> str:
    return "|".join(str(i) for i in np.flatnonzero(bits))


def _parse_label(text: str, line_no: int) -> list[int]:
    try:
        return [int(part) for part in text.split("|")]
    except ValueError as exc:
        raise ValueError(f"line {line_no}: malformed label {text!r}") from exc


def _write_csv(path, ids, tags, embeddings: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,label," + ",".join(f"e{i + 1}" for i in range(embeddings.shape[1])) + "\n")
        for rid, tag, emb in zip(ids, tags, embeddings, strict=True):
            coords = ",".join(f"{x:.17g}" for x in emb)
            fh.write(f"{rid},{tag},{coords}\n")


def write_records_csv(path, records: RecordSet) -> None:
    _write_csv(path, records.ids, map(_format_label, records.labels), records.embeddings)


def write_public_csv(path, embeddings: np.ndarray, labels: np.ndarray | None = None) -> None:
    """Public files leave the label column empty; pass ``labels`` to write a
    ground-truth companion file instead."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    tags = [""] * embeddings.shape[0] if labels is None else [str(int(v)) for v in labels]
    _write_csv(path, range(embeddings.shape[0]), tags, embeddings)


def load_embeddings_csv(path, label_count: int | None = None):
    """Parse a dataset file; labeled rows give a RecordSet, an all-empty label
    column gives a PublicSet.  Errors carry the offending line number."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if len(cols) < 3 or cols[0] != "id" or cols[1] != "label":
            raise ValueError(f"line 1: header must be id,label,e1..e{{dim}}, got {header!r}")
        expected = ["id", "label"] + [f"e{i + 1}" for i in range(len(cols) - 2)]
        if cols != expected:
            raise ValueError(f"line 1: malformed embedding columns in {header!r}")
        dim = len(cols) - 2
        ids, raw_labels, rows = [], [], []
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != dim + 2:
                raise ValueError(f"line {line_no}: expected {dim + 2} columns, got {len(parts)}")
            try:
                row = [float(x) for x in parts[2:]]
            except ValueError as exc:
                raise ValueError(f"line {line_no}: non-numeric embedding entry") from exc
            if not all(map(math.isfinite, row)):
                raise ValueError(f"line {line_no}: non-finite embedding entry")
            rows.append(row)
            ids.append(parts[0])
            raw_labels.append((line_no, parts[1]))
    if not rows:
        raise ValueError("file holds no data rows")
    embeddings = np.asarray(rows, dtype=np.float64)
    labeled = [text != "" for _, text in raw_labels]
    if not any(labeled):
        return PublicSet(embeddings, None)
    if not all(labeled):
        missing = next(line_no for (line_no, text), flag in zip(raw_labels, labeled) if not flag)
        raise ValueError(f"line {missing}: missing label in a labeled file")
    parsed = [(line_no, _parse_label(text, line_no)) for line_no, text in raw_labels]
    if label_count is None:
        label_count = max(2, 1 + max(max(indices) for _, indices in parsed))
    for line_no, indices in parsed:
        if any(i < 0 or i >= label_count for i in indices):
            raise ValueError(f"line {line_no}: label index out of range [0, {label_count})")
    labels = np.stack([label_vector(indices, label_count) for _, indices in parsed])
    return RecordSet(embeddings, labels, np.asarray(ids))
