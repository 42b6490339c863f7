#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload mse-figure --seeds 1 2 3 4 5

Runs ``bench/run.py --trace 0`` once per seed, one after another, and prints
each metric's median, quartiles and interquartile range as a share of the
median, next to the bound in ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    """Median, first and third quartile (``statistics.quantiles``, n=4) and
    their distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        last = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip().splitlines()[-1]
        result = json.loads(last)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        s = summarize(values[metric["name"]])
        print(f"{metric['name']}: median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g} "
              f"spread {s['spread']:.4f} (bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
