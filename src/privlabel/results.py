"""Results JSON, schema version 1.

Layout (insertion order is the stable key order):

    {"schema": 1,
     "config": {...},
     "per_trial": [{"acc_pl", "acc_proxy", "max_error", "labels"}, ...],
     "summary": {"mean": {...}, "std": {...}, "empirical_beta": ...},
     "budget_ledger_summary": {...}}

``empirical_beta`` is the mean over trials of the share of buckets whose max
error reaches the mechanism's eta(beta) bound, the per-bucket failure rate to
compare with beta; it is null when the mechanism has no bound.

The file is strict JSON.  The noiseless budget eps = inf, in ``config`` and
``budget_ledger_summary``, is written as the string ``"inf"``, the form
``--epsilon`` and config files parse; a NaN or infinity anywhere else is an
error and nothing is written.
"""
from __future__ import annotations

import json
import math

import numpy as np

SCHEMA_VERSION = 1

_TRIAL_KEYS = ("acc_pl", "acc_proxy", "max_error")


def _clean(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _budget_value(value):
    value = _clean(value)
    return "inf" if value == math.inf else value


def build_results(
    config: dict,
    per_trial: list[dict],
    budget_ledger_summary: dict,
) -> dict:
    """Assemble the schema-1 results document from per-trial records.

    A record's optional ``eta_exceed_rate`` feeds ``empirical_beta`` and is
    not written per trial.
    """
    if not per_trial:
        raise ValueError("results need at least one trial")
    trials = []
    for record in per_trial:
        trials.append(
            {
                "acc_pl": _clean(record.get("acc_pl")),
                "acc_proxy": _clean(record.get("acc_proxy")),
                "max_error": _clean(record.get("max_error")),
                "labels": _clean(record.get("labels")),
            }
        )
    mean, std = {}, {}
    for key in _TRIAL_KEYS:
        values = [t[key] for t in trials if t[key] is not None]
        if values:
            mean[key] = float(np.mean(values))
            std[key] = float(np.std(values))
        else:
            mean[key] = None
            std[key] = None
    rates = [record["eta_exceed_rate"] for record in per_trial if record.get("eta_exceed_rate") is not None]
    empirical_beta = float(np.mean(rates)) if rates else None
    return {
        "schema": SCHEMA_VERSION,
        "config": {key: _budget_value(val) for key, val in config.items()},
        "per_trial": trials,
        "summary": {"mean": mean, "std": std, "empirical_beta": empirical_beta},
        "budget_ledger_summary": {key: _budget_value(val) for key, val in budget_ledger_summary.items()},
    }


def write_results(results: dict, path) -> None:
    """Write strict JSON: a NaN or infinite value (``build_results`` has
    already spelled eps = inf as "inf") raises ValueError and nothing is written."""
    text = json.dumps(results, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_results(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
