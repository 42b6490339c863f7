#!/usr/bin/env python3
"""Labeling accuracy of every privacy model on a well-separated mixture.

Runs the full pipeline on a 10-class Gaussian mixture (60k private records,
5k public samples) and prints mean labeling accuracy per model over a few
seeds.  The central run mirrors the headline setting (s=40, k=1, eps=0.1);
the local runs use randomized response, the collision mechanism and subset
release (GSE) at eps=0.4 with s=10.  Each mean is printed with the
per-seed std and its standard error std/sqrt(seeds).
"""
import argparse
import math
import sys

import numpy as np

from privlabel.core import PrivacyModel, PrivacyParams
from privlabel.data import SyntheticSpec, generate_synthetic
from privlabel.simulate import PartitionScheme, run_algorithm1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--per-class", type=int, default=6000)
    args = parser.parse_args()

    spec = SyntheticSpec(
        classes=10, per_class=args.per_class, dim=8,
        separation=12.0, std=1.0, pub_per_class=500,
    )
    records, public = generate_synthetic(spec, seed=808)
    print(f"{records.m} private records, {public.n} public samples")

    settings = [
        ("central eps=inf (noiseless)", PrivacyParams(math.inf, PrivacyModel.CENTRAL, 1, 1, 40, 10), 40, "auto"),
        ("central eps=0.1", PrivacyParams(0.1, PrivacyModel.CENTRAL, 1, 1, 40, 10), 40, "auto"),
        ("local rr eps=0.4", PrivacyParams(0.4, PrivacyModel.LOCAL, 1, 1, 10, 10), 10, "rr"),
        ("local collision eps=0.4", PrivacyParams(0.4, PrivacyModel.LOCAL, 1, 1, 10, 10), 10, "collision"),
        ("local gse eps=0.4", PrivacyParams(0.4, PrivacyModel.LOCAL, 1, 1, 10, 10), 10, "gse"),
        ("shuffle-multi eps=0.4", PrivacyParams(0.4, PrivacyModel.SHUFFLE_MULTI, 1, 1, 10, 10, delta=1e-6), 10, "auto"),
    ]
    for name, params, s, mechanism in settings:
        accs = []
        for seed in range(args.seeds):
            run = run_algorithm1(
                records, public.embeddings, params, T=1, s=s, k=1,
                master_seed=seed, pub_true_labels=public.true_labels,
                mechanism=mechanism, partition_scheme=PartitionScheme.SINGLE_RECORD,
            )
            accs.append(run.acc_pl)
        std = np.std(accs)
        print(f"{name:32s} mean acc_pl = {np.mean(accs):.4f} (std {std:.4f}, se {std / math.sqrt(len(accs)):.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
