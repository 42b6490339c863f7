#!/usr/bin/env python3
"""Benchmark of privlabel's labeling trials and local-oracle MSE sweep.

Run from the root of a source checkout:

    python3 bench/run.py --workload silo-aggregate --seed 1 --seconds 25 --trace 0

``--trace 0`` runs whole rounds of the workload's operations for at least
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs one
operation of each kind under tracemalloc, then one round untraced, then the
same round again with every public function of the package wrapped in
spans, and prints the per-layer metrics.  Every operation's output is checked.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; raw records go to ``bench/out/``.
"""
import os

# one BLAS thread: the process stays within the machine's two cores and
# timings do not depend on what other processes leave free
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 8  # half before the timed rounds and half after, to span the run

from checks import Pool, check_mse_point, check_trial  # noqa: E402
from tracer import CALL_METRICS, ROOT, SELF_METRICS, WORK_METRICS, Tracer, op_profile  # noqa: E402
from workloads import KINDS, MSE_KIND, MSE_SHAPE, TRIAL_KINDS, WORKLOADS, make_world, master_seed, run_mse_point, run_trial  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "op_s": "s",
    "round_s": "s",
}
PER_LAYER = {
    **{f"{group}.self_s": "s" for group in SELF_METRICS},
    **{metric: "count" for metric in WORK_METRICS},
    **{f"{name}.calls": "count" for name in CALL_METRICS},
    **{f"trial_s.{kind}": "s" for kind in TRIAL_KINDS},
    "mse_point_s": "s",
    **{f"mem.peak_mib.{kind}": "MiB" for kind in KINDS},
    "trace.overhead_pct": "%",
}


def load_package():
    """Import privlabel from the checkout's ``src``; exit 2 if it is not there."""
    src = ROOT_DIR / "src"
    if not (src / "privlabel" / "__init__.py").is_file():
        print(f"error: no privlabel sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import privlabel
    from privlabel import core, data, mse, shuffle, simulate
    from privlabel import local as local_mod

    return types.SimpleNamespace(package=privlabel, core=core, data=data, local=local_mod, mse=mse, shuffle=shuffle, simulate=simulate)


class Context:
    """Inputs of one workload process: the package, the world and the run-wide check pool."""

    def __init__(self, workload_name: str, seed: int):
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.pl = load_package()
        self.world = make_world(self.pl, seed)
        self.pool = Pool()

    def execute(self, kind: str, position: int, seed: int):
        w = self.workload
        if kind == MSE_KIND:
            return run_mse_point(self.pl, w.eps_grid[position], w.mse_trials, seed)
        return run_trial(self.pl, self.world, w.labeling, kind, seed)

    def verify(self, kind: str, position: int, output) -> list:
        w = self.workload
        if kind == MSE_KIND:
            return check_mse_point(output, w.eps_grid[position], w.mse_trials, MSE_SHAPE, self.pl)
        records, public = self.world
        return check_trial(output, records, public.embeddings, w.labeling, kind, self.pool, self.pl)

    def run_op(self, round_index: int, position: int, tracer: Tracer | None = None, memory: bool = False) -> dict:
        kind = self.workload.round[position]
        seed = master_seed(self.seed, round_index, position)
        output, problems, profile, peak = None, [], None, None
        if memory:
            tracemalloc.start()
        if tracer is not None:
            tracer.reset()
            root = tracer.open(ROOT)
        start = time.perf_counter()
        try:
            output = self.execute(kind, position, seed)
        except Exception as exc:  # a failing operation is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {exc!r}"]
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
            profile = op_profile(tracer)
            tracer.reset()
        if memory:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        if output is not None:
            problems = self.verify(kind, position, output)
        return dict(kind=kind, round=round_index, position=position, seed=seed, seconds=seconds, problems=problems, profile=profile, peak_mib=peak)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited with {child.returncode}")
    return elapsed


def per_kind_medians(ops: list) -> dict:
    kinds: dict = {}
    for op in ops:
        kinds.setdefault(op["kind"], []).append(op["seconds"])
    return {kind: statistics.median(values) for kind, values in kinds.items()}


def timed_run(ctx: Context, seconds: float) -> tuple[list, dict]:
    ops, start, round_index = [], time.perf_counter(), 0
    while round_index == 0 or time.perf_counter() - start < seconds:
        ops += [ctx.run_op(round_index, pos) for pos in range(len(ctx.workload.round))]
        round_index += 1
    medians = per_kind_medians(ops)
    rounds = [sum(op["seconds"] for op in ops if op["round"] == r) for r in range(round_index)]
    metrics = {
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_s": math.exp(statistics.fmean(math.log(v) for v in medians.values())),
        "round_s": statistics.median(rounds),
    }
    return ops, metrics


def layer_median(profiles: list, key: str) -> float:
    """Median over the operations that recorded ``key``; 0 when none did."""
    values = [p[key] for p in profiles if key in p]
    return float(statistics.median(values)) if values else 0.0


def traced_run(ctx: Context) -> tuple[list, dict, list]:
    positions = range(len(ctx.workload.round))
    first = {}
    for pos in positions:
        first.setdefault(ctx.workload.round[pos], pos)
    # the tracemalloc pass goes first, so the two timed passes both run warm
    memory = [ctx.run_op(0, pos, memory=True) for pos in first.values()]
    untraced = [ctx.run_op(0, pos) for pos in positions]
    problems = []
    with Tracer() as tracer:
        tracer.install(ctx.pl.package)
        root = tracer.open(ROOT)
        make_world(ctx.pl, ctx.seed)
        tracer.close(root)
        setup_profile = op_profile(tracer)
        traced = [ctx.run_op(0, pos, tracer=tracer) for pos in positions]
        absent = tracer.absent

    profiles = [op["profile"] for op in traced]
    for op, profile in zip(traced, profiles):
        if not math.isclose(profile["self_sum_s"], profile["wall_s"], rel_tol=1e-6, abs_tol=1e-9):
            problems.append(f"{op['kind']}: span self times sum to {profile['self_sum_s']} s, wall time {profile['wall_s']} s")
    metrics = {}
    for name in PER_LAYER:
        metrics[name] = layer_median(profiles, name)
    metrics["data.generate_synthetic.self_s"] = setup_profile.get("data.generate_synthetic.self_s", 0.0)
    medians = per_kind_medians(untraced)
    for kind in TRIAL_KINDS:
        metrics[f"trial_s.{kind}"] = medians.get(kind, 0.0)
    metrics["mse_point_s"] = medians.get(MSE_KIND, 0.0)
    for kind in KINDS:
        metrics[f"mem.peak_mib.{kind}"] = next((op["peak_mib"] for op in memory if op["kind"] == kind), 0.0)
    base = sum(op["seconds"] for op in untraced)
    metrics["trace.overhead_pct"] = 100.0 * (sum(op["seconds"] for op in traced) - base) / base
    if absent:
        print("absent spans (reported as 0): " + ", ".join(absent))
    return memory + untraced + traced, metrics, problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        Context(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    load_package()  # fail before spawning probes when the sources are missing
    setup_times = []
    if args.trace:
        ctx = Context(args.workload, args.seed)
        ops, metrics, problems = traced_run(ctx)
        units = PER_LAYER
    else:
        setup_times += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
        ctx = Context(args.workload, args.seed)
        ops, metrics = timed_run(ctx, args.seconds)
        setup_times += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
        metrics["setup_s"] = statistics.median(setup_times)
        problems, units = [], END_TO_END
    problems += ctx.pool.problems()
    failed = sum(1 for op in ops if op["problems"])

    OUT_DIR.mkdir(exist_ok=True)
    raw = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps(dict(args=vars(args), setup_times=setup_times, ops=ops, problems=problems, metrics=metrics), indent=1))

    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED {op['kind']} round {op['round']} position {op['position']}: {problem}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"attempted = {len(ops)}, failed = {failed}")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
