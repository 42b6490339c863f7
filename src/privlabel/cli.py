"""Command-line interface.

Subcommands: ``gen`` (synthetic data), ``simulate`` (labeling runs -> results
JSON), ``bounds`` (max-error bounds), ``verify-dp`` (exhaustive local-DP
checks), ``mse-compare`` (local-oracle MSE curves as CSV), ``amplify``
(shuffle amplification calculator).  Exit codes: 0 success, 2 usage error,
3 config or invariant violation, 4 I/O error; a standard output closed
early, as by ``head``, exits 0.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, config as config_mod, data as data_mod, local as local_mod
from . import mse as mse_mod, results as results_mod, seeds as seeds_mod, shuffle as shuffle_mod
from .core import PrivacyModel
from .simulate import RELEASES, account_budget, run_algorithm1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _flag(field_name: str) -> str:
    return "--" + field_name.replace("_", "-")


def _add_shape_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--r", type=int, default=1)
    parser.add_argument("--s", type=int, default=10)
    parser.add_argument("--labels", type=int, default=10, help="label domain size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privlabel")
    sub = parser.add_subparsers(dest="command", required=True)

    # the synthetic-data flags default to the experiment config's values
    gen = sub.add_parser("gen", help="generate a synthetic dataset as CSV files")
    defaults = config_mod.ExperimentConfig()
    for field in dataclasses.fields(data_mod.SyntheticSpec):
        gen.add_argument(_flag(field.name), type=config_mod.FIELD_TYPES[field.name],
                         default=getattr(defaults, field.name))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", type=str, required=True, help="output directory")

    # one flag per config field; an unset flag leaves the file's or the default value
    sim = sub.add_parser("simulate", help="run the labeling pipeline over trials")
    sim.add_argument("--config", type=str, default=None, help="flat key=value config file")
    mechanisms = sorted({"auto"}.union(mechanism for _, mechanism in RELEASES))
    for name, kind in config_mod.FIELD_TYPES.items():
        if name == "seed":
            sim.add_argument("--seed", type=int, required=True)
        else:
            sim.add_argument(_flag(name), type=kind, default=None,
                             choices=mechanisms if name == "mechanism" else None)

    bounds = sub.add_parser("bounds", help="print max-error bounds eta(beta)")
    bounds.add_argument("--model", type=str, default=None,
                        choices=[m.value for m in PrivacyModel])
    bounds.add_argument("--eps", type=float, required=True)
    bounds.add_argument("--delta", type=float, default=0.0)
    bounds.add_argument("--beta", type=float, default=0.05)
    bounds.add_argument("--n", type=int, default=None)
    _add_shape_flags(bounds)

    verify = sub.add_parser("verify-dp", help="exhaustive local-DP ratio checks")
    verify.add_argument("--eps-list", type=str, default="0.1,ln2,1,2")
    verify.add_argument("--hash-seeds", type=int, default=20)

    cmp_ = sub.add_parser("mse-compare", help="MSE curves of the local oracles as CSV")
    _add_shape_flags(cmp_)
    cmp_.add_argument("--eps-grid", type=str, default="1:6:0.5")
    cmp_.add_argument("--trials", type=int, default=100000)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")

    amp = sub.add_parser("amplify", help="shuffle amplification calculator")
    direction = amp.add_mutually_exclusive_group(required=True)
    direction.add_argument("--forward", action="store_true")
    direction.add_argument("--invert", action="store_true")
    amp.add_argument("--eps", type=float, required=True,
                     help="local eps0 for --forward, central target for --invert")
    amp.add_argument("--n", type=int, required=True)
    amp.add_argument("--delta", type=float, required=True)
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _synthetic_spec(values) -> data_mod.SyntheticSpec:
    """The mixture named by ``values``' SyntheticSpec fields (parsed flags or a config)."""
    fields = dataclasses.fields(data_mod.SyntheticSpec)
    return data_mod.SyntheticSpec(**{f.name: getattr(values, f.name) for f in fields})


def _cmd_gen(args) -> int:
    records, public = data_mod.generate_synthetic(_synthetic_spec(args), args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.write_records_csv(out / "priv.csv", records)
    data_mod.write_public_csv(out / "pub.csv", public.embeddings)
    data_mod.write_public_csv(out / "pub_truth.csv", public.embeddings, public.true_labels)
    print(f"wrote {records.m} private records and {public.n} public samples to {out}")
    return EXIT_OK


def _load_dataset(cfg: config_mod.ExperimentConfig):
    if cfg.dataset == "synthetic":
        return data_mod.generate_synthetic(_synthetic_spec(cfg), cfg.seed)
    records = data_mod.load_embeddings_csv(cfg.csv_priv)
    if isinstance(records, data_mod.PublicSet):
        raise ValueError(f"{cfg.csv_priv} has no labels; it cannot be the private dataset")
    pub = data_mod.load_embeddings_csv(cfg.csv_pub)
    if not isinstance(pub, data_mod.PublicSet):
        raise ValueError(f"{cfg.csv_pub} is labeled; public files must leave labels empty")
    truth = None
    if cfg.csv_pub_truth:
        truth_set = data_mod.load_embeddings_csv(cfg.csv_pub_truth, label_count=records.label_count)
        if isinstance(truth_set, data_mod.PublicSet):
            raise ValueError(f"{cfg.csv_pub_truth} carries no labels")
        truth = np.argmax(truth_set.labels, axis=1)
    return records, data_mod.PublicSet(pub.embeddings, truth)


def _one_trial(cfg, records, public, params, trial: int) -> dict:
    trial_seed = int(seeds_mod.generator(cfg.seed, "trial", trial).integers(0, 2 ** 63))
    result = run_algorithm1(
        records,
        public.embeddings,
        params,
        T=cfg.t,
        s=cfg.s,
        k=cfg.k,
        master_seed=trial_seed,
        pub_true_labels=public.true_labels,
        partition_scheme=cfg.partition_scheme(),
        n_clients=cfg.n_clients or None,
        dirichlet_alpha=cfg.dirichlet_alpha,
        mechanism=cfg.mechanism,
        label_mode=cfg.label_mode,
        beta=cfg.beta,
    )
    final = result.iterations[-1].report
    return {
        "acc_pl": result.acc_pl,
        "acc_proxy": result.proxy_accuracy,
        "max_error": final.empirical_eta,
        "labels": [int(v) for v in final.hard],
        "eta_exceed_rate": final.eta_exceed_rate,
        "_budget": account_budget(result.ledger, cfg.k, cfg.s),
    }


def _cmd_simulate(args) -> int:
    flags = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
    file_values = config_mod.load_config_file(args.config) if args.config else {}
    cfg = config_mod.build_config(file_values, flags)
    records, public = _load_dataset(cfg)
    params = cfg.privacy_params(records.label_count, records.r)

    trials = list(range(cfg.trials))
    if cfg.workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(lambda i: _one_trial(cfg, records, public, params, i), trials))
    else:
        rows = [_one_trial(cfg, records, public, params, i) for i in trials]

    doc = results_mod.build_results(cfg.as_recorded_dict(), rows, rows[-1]["_budget"])
    if cfg.out:
        results_mod.write_results(doc, cfg.out)
        print(f"wrote results to {cfg.out}")
    else:
        import json

        print(json.dumps(doc["summary"], indent=2, allow_nan=False))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    rows = analysis.bounds_table(
        args.model, args.eps, args.delta, args.k, args.r, args.s, args.labels, args.beta, args.n
    )
    for name, eta in rows.items():
        print(f"{name} eta = {eta:.6g}")
    return EXIT_OK


def _parse_eps_list(text: str) -> list[float]:
    """The budgets of ``--eps-list``, every one checked before any is used."""
    out = []
    for part in text.split(","):
        part = part.strip()
        eps = math.log(2.0) if part == "ln2" else float(part)
        if not (math.isfinite(eps) and eps >= 0):
            raise ValueError(f"--eps-list entry {part!r} is not a finite epsilon >= 0")
        out.append(eps)
    return out


def _cmd_verify_dp(args) -> int:
    if args.hash_seeds < 1:
        raise ValueError("--hash-seeds must be at least 1")
    # every budget's mechanisms are built, and so checked, before any result is printed
    budgets = [
        (
            eps,
            local_mod.rr_bit_pmfs(eps),
            [local_mod.CollisionParams.for_budget(4, c, eps) for c in (1, 2)],
            [local_mod.GseParams(d, c, eps, l, alpha) for d, c, l, alpha in ((4, 1, 1, 1), (5, 2, 2, 1), (5, 2, 2, 2))],
        )
        for eps in _parse_eps_list(args.eps_list)
    ]
    failures = 0
    for eps, (inputs, pmf), collisions, subsets in budgets:
        ratio = local_mod.verify_local_dp(inputs, pmf)
        ok = ratio <= eps + 1e-9
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} rr-bit eps={eps:.6g} max_ratio={ratio:.6g}")
        for params in collisions:
            c = params.support_size
            worst = 0.0
            for seed_idx in range(args.hash_seeds):
                rng = seeds_mod.generator(7, "verify-dp", eps, c, seed_idx)
                hash_seed = int(rng.integers(0, 2 ** 63))
                inputs, pmf = local_mod.collision_pmfs(params, hash_seed)
                worst = max(worst, local_mod.verify_local_dp(inputs, pmf))
            ok = worst <= eps + 1e-9
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} collision d=4 c={c} eps={eps:.6g} max_ratio={worst:.6g}")
        for params in subsets:
            inputs, pmf = local_mod.gse_pmfs(params)
            ratio = local_mod.verify_local_dp(inputs, pmf)
            ok = ratio <= eps + 1e-9
            failures += not ok
            print(
                f"{'PASS' if ok else 'FAIL'} gse d={params.domain_size} c={params.support_size} "
                f"l={params.output_size} alpha={params.alpha_min} eps={eps:.6g} max_ratio={ratio:.6g}"
            )
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_INVARIANT
    print("all local-DP checks passed")
    return EXIT_OK


def _cmd_mse_compare(args) -> int:
    grid = mse_mod.parse_grid(args.eps_grid)
    curves = mse_mod.mse_comparison(
        args.s, args.labels, args.k, args.r, grid, args.trials, args.seed
    )
    text = curves.csv_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_amplify(args) -> int:
    if args.forward:
        eps = shuffle_mod.amplify_forward(args.eps, args.n, args.delta)
        print(f"central eps = {eps:.9g}")
    else:
        eps0 = shuffle_mod.amplify_invert(args.eps, args.n, args.delta)
        print(f"local eps0 = {eps0:.9g}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "verify-dp": _cmd_verify_dp,
    "mse-compare": _cmd_mse_compare,
    "amplify": _cmd_amplify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        # a closed standard output fails here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early, as `head` does: what is left to print
        # goes nowhere, and that is no error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
