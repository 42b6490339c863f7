#!/usr/bin/env python3
"""Compare two revisions on one benchmark workload in alternating pairs.

Run from inside a git checkout:

    python3 scripts/bench_pair.py BASE CHANGE --workload one-record-clients --pairs 10 --seed 2501

Each pair runs ``bench/run.py --trace 0`` once per revision, both at the
pair's seed.  Each side runs in a fresh ``git archive`` copy of its
revision, extracted into one directory name per pair, the same name for both
sides, since the path can move the process's memory layout.  Even pairs run
BASE first, odd pairs CHANGE first.  The script prints every pair's values,
then each metric's median and quartiles per revision, the median's relative
change, and in how many pairs CHANGE read lower.  Only the standard library
is used.
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
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i runs seed + i")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--work", type=Path, help="directory for the copies (default: a new temporary one)")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="bench-pair-", dir=args.work))
    sides = (args.base, args.change)
    values = {side: {} for side in range(2)}
    bad = []
    for i in range(args.pairs):
        args.seed_now = args.seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            result = run_side(sides[side], work / f"pair{i:03d}", args)
            if not result["correct"] or result["failed"]:
                bad.append(f"pair {i} {sides[side]}: correct={result['correct']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
        line = "  ".join(f"{name} {values[0][name][-1]:.5g} -> {values[1][name][-1]:.5g}" for name in values[0])
        print(f"pair {i} seed {args.seed_now} ({'base' if order[0] == 0 else 'change'} first): {line}", flush=True)
    work.rmdir()
    print(f"\n{args.workload}, {args.pairs} pairs, {args.seconds:g} s runs: {args.base} -> {args.change}")
    for name in values[0]:
        base, change = values[0][name], values[1][name]
        (m0, a0, b0), (m1, a1, b1) = spread(base), spread(change)
        lower = sum(c < b for b, c in zip(base, change))
        rel = 100.0 * (m1 - m0) / m0 if m0 else float("nan")
        print(f"{name}: {m0:.5g} [{a0:.5g}, {b0:.5g}] -> {m1:.5g} [{a1:.5g}, {b1:.5g}] "
              f"({rel:+.1f}%), lower in {lower} of {len(base)}, base IQR {b0 - a0:.3g}")
    for line in bad:
        print(f"NOT CLEAN: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(compare())
