#!/usr/bin/env python3
"""Compare two revisions on one benchmark workload in bracketed pairs.

Run from inside a git checkout:

    python3 scripts/bench_pair.py BASE CHANGE --workload one-record-clients --pairs 10 --seed 2501

The runs alternate between the revisions over the whole session and end on
BASE: BASE CHANGE BASE CHANGE ... CHANGE BASE, so no revision ever runs twice
in a row.  Pair i compares CHANGE's run i with the mean of the BASE runs just
before and just after it.  Each CHANGE run is bracketed the same way, so
neither a drift of the shared host nor an effect of running first or second
favours one side.  Run j of either revision uses seed + j, and ``bench/run.py
--trace 0`` runs in a fresh ``git archive`` copy of its revision, always
extracted under the same directory name, since the path can move the
process's memory layout.  The script prints every run as it ends, every pair,
then each metric's median and quartiles per revision over its own runs, the
median's relative change, and in how many pairs CHANGE read lower than its
bracket.  Only the standard library is used.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def archive(rev: str, dest: Path) -> None:
    """Extract ``git archive rev`` into the empty directory ``dest``."""
    dest.mkdir(parents=True)
    blob = subprocess.run(["git", "archive", "--format=tar", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=blob, check=True)


def run_side(rev: str, dest: Path, args) -> dict:
    """The result line of one benchmark run of ``rev`` extracted at ``dest``."""
    archive(rev, dest)
    try:
        cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed_now),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=dest, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{rev} at seed {args.seed_now} exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(dest)


def spread(values: list) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def compare(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="base revision, e.g. a commit or HEAD~1")
    parser.add_argument("change", help="changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first runs; run j of either revision uses seed + j")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--work", type=Path, help="directory for the copies (default: a new temporary one)")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="bench-pair-", dir=args.work))
    sides = (args.base, args.change)
    names = ("base", "change")
    values = ({}, {})
    bad = []
    for run in range(2 * args.pairs + 1):
        side, args.seed_now = run % 2, args.seed + run // 2
        result = run_side(sides[side], work / "tree", args)
        if not result["correct"] or result["failed"]:
            bad.append(f"run {run} {sides[side]}: correct={result['correct']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values[side].setdefault(name, []).append(metric["value"])
        line = "  ".join(f"{name} {metric['value']:.5g}" for name, metric in result["metrics"].items())
        print(f"run {run} {names[side]} seed {args.seed_now}: {line}", flush=True)
    brackets = {name: [(a + b) / 2 for a, b in zip(runs, runs[1:])] for name, runs in values[0].items()}
    for i in range(args.pairs):
        line = "  ".join(f"{name} {brackets[name][i]:.5g} -> {values[1][name][i]:.5g}" for name in brackets)
        print(f"pair {i} (runs {2 * i}, {2 * i + 1}, {2 * i + 2}): {line}")
    work.rmdir()
    print(f"\n{args.workload}, {args.pairs} pairs, {args.seconds:g} s runs: {args.base} -> {args.change}")
    for name in values[0]:
        base, change = values[0][name], values[1][name]
        (m0, a0, b0), (m1, a1, b1) = spread(base), spread(change)
        lower = sum(c < b for b, c in zip(brackets[name], change))
        rel = 100.0 * (m1 - m0) / m0 if m0 else float("nan")
        print(f"{name}: {m0:.5g} [{a0:.5g}, {b0:.5g}] -> {m1:.5g} [{a1:.5g}, {b1:.5g}] "
              f"({rel:+.1f}%), lower in {lower} of {len(change)}, base IQR {b0 - a0:.3g}")
    for line in bad:
        print(f"NOT CLEAN: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(compare())
