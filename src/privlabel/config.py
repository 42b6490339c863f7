"""Experiment configuration and the flat key-value config file format.

Grammar, one directive per line:

    # comment lines and blank lines are ignored
    key = value

Keys are the field names of :class:`ExperimentConfig`; values are parsed by
the field's type (int, float, str).  Unknown keys are rejected.  Command-line
flags override file values.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .core import PrivacyModel, PrivacyParams, check_beta
from .simulate import PartitionScheme, check_label_mode, resolve_mechanism


@dataclass
class ExperimentConfig:
    dataset: str = "synthetic"
    classes: int = 10
    per_class: int = 100
    dim: int = 8
    separation: float = 10.0
    std: float = 1.0
    pub_per_class: int = 50
    multilabel_r: int = 1
    csv_priv: str = ""
    csv_pub: str = ""
    csv_pub_truth: str = ""
    s: int = 10
    k: int = 1
    t: int = 1
    model: str = "central"
    epsilon: float = 1.0
    delta: float = 0.0
    beta: float = 0.05
    mechanism: str = "auto"
    label_mode: str = "hard"
    partition: str = "single-record"
    n_clients: int = 0
    dirichlet_alpha: float = 0.5
    trials: int = 1
    workers: int = 1
    seed: int = 0
    out: str = ""

    def privacy_model(self) -> PrivacyModel:
        try:
            return PrivacyModel(self.model)
        except ValueError:
            raise ValueError(f"unknown privacy model {self.model!r}") from None

    def partition_scheme(self) -> PartitionScheme:
        try:
            return PartitionScheme(self.partition)
        except ValueError:
            raise ValueError(f"unknown partition scheme {self.partition!r}") from None

    def privacy_params(self, label_count: int, r: int) -> PrivacyParams:
        return PrivacyParams(
            epsilon=self.epsilon,
            model=self.privacy_model(),
            k=self.k,
            r=r,
            s=self.s,
            label_count=label_count,
            delta=self.delta,
        )

    def validate(self) -> None:
        """Reject every bad field that does not depend on the data, before it is loaded."""
        resolve_mechanism(self.privacy_model(), self.mechanism)
        check_label_mode(self.label_mode)
        # r = 1 and two labels are the loosest valid shape: the probe checks only data-free fields
        self.privacy_params(label_count=2, r=1)
        scheme = self.partition_scheme()
        if scheme is not PartitionScheme.SINGLE_RECORD and self.n_clients < 1:
            raise ValueError(f"the {self.partition} partition needs n_clients >= 1")
        if scheme is PartitionScheme.DIRICHLET and not self.dirichlet_alpha > 0:
            raise ValueError("dirichlet_alpha must be positive")
        if self.dataset not in ("synthetic", "csv"):
            raise ValueError(f"dataset must be 'synthetic' or 'csv', got {self.dataset!r}")
        if self.dataset == "csv" and not (self.csv_priv and self.csv_pub):
            raise ValueError("csv dataset needs csv_priv and csv_pub paths")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.t < 1:
            raise ValueError("t must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        check_beta(self.beta)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def as_recorded_dict(self) -> dict:
        """Config as written into results files.

        Execution details that cannot change any computed number (output path,
        worker count) are dropped so identical experiments produce
        byte-identical results.
        """
        doc = self.as_dict()
        doc.pop("out")
        doc.pop("workers")
        return doc


# field name -> the type its text values (config lines, command-line flags) parse to
FIELD_TYPES = {
    f.name: {"int": int, "float": float}.get(f.type, str) for f in dataclasses.fields(ExperimentConfig)
}


def parse_config_text(text: str) -> dict:
    """Raw key-value pairs from the flat config grammar."""
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {line_no}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in FIELD_TYPES:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    return {key: FIELD_TYPES[key](value) for key, value in raw.items()}


def build_config(file_values: dict | None = None, flag_values: dict | None = None) -> ExperimentConfig:
    """Merge file values with flag overrides into a validated config."""
    merged: dict = {}
    merged.update(file_values or {})
    for key, value in (flag_values or {}).items():
        if value is not None:
            merged[key] = value
    unknown = set(merged) - set(FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    config = ExperimentConfig(**merged)
    config.validate()
    return config
