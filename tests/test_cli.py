import argparse
import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import privlabel
from privlabel.cli import build_parser, main
from privlabel.config import ExperimentConfig
from privlabel.data import SyntheticSpec
from privlabel.results import read_results
from privlabel.simulate import MODEL_MECHANISMS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_central_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--model", "central", "--k", "1", "--r", "1",
            "--labels", "10", "--beta", "0.05", "--eps", "0.1",
        )
        assert code == 0
        value = float(re.search(r"central eta = ([0-9.]+)", out).group(1))
        assert value == pytest.approx(105.97, abs=0.01)

    def test_local_rows_with_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--model", "local", "--eps", "1.0", "--n", "1000",
        )
        assert code == 0
        assert "rr eta" in out and "collision eta" in out

    def test_missing_n_is_invariant_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--model", "local", "--eps", "1.0")
        assert code == 3
        assert "--n" in err

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_client_count_below_one_exits_3(self, capsys, n):
        code, out, err = run_cli(capsys, "bounds", "--model", "local", "--eps", "1.0", "--n", n)
        assert code == 3
        assert "--n" in err and out == ""

    @pytest.mark.parametrize("model", ["shuffle-multi", "shuffle-single"])
    def test_shuffle_model_without_delta_exits_3(self, capsys, model):
        code, _, err = run_cli(capsys, "bounds", "--model", model, "--eps", "1.0", "--n", "100000")
        assert code == 3
        assert "--delta" in err

    def test_shuffle_rows_skipped_without_delta(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--eps", "1.0", "--n", "100000")
        assert code == 0
        names = [line.split(" eta = ")[0] for line in out.splitlines()]
        assert names == ["central", "rr", "laplace", "collision"]


class TestAmplify:
    def test_forward(self, capsys):
        code, out, _ = run_cli(
            capsys, "amplify", "--forward", "--eps", "1.0", "--n", "10000", "--delta", "1e-6",
        )
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(0.2140, abs=1e-3)

    def test_invert_recovers_local_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "amplify", "--invert", "--eps", "0.2140256519", "--n", "10000",
            "--delta", "1e-6",
        )
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(1.0, abs=1e-4)

    def test_infeasible_target_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "amplify", "--invert", "--eps", "50", "--n", "10000", "--delta", "1e-6",
        )
        assert code == 3
        assert "achievable" in err


class TestGenAndSimulate:
    def test_gen_then_simulate_csv(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "gen", "--classes", "3", "--per-class", "40", "--dim", "4",
            "--pub-per-class", "15", "--seed", "5", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "priv.csv").exists()
        assert (tmp_path / "pub.csv").exists()
        assert (tmp_path / "pub_truth.csv").exists()

        out_json = tmp_path / "results.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--seed", "11",
            "--dataset", "csv",
            "--csv-priv", str(tmp_path / "priv.csv"),
            "--csv-pub", str(tmp_path / "pub.csv"),
            "--csv-pub-truth", str(tmp_path / "pub_truth.csv"),
            "--s", "3", "--epsilon", "100", "--trials", "2",
            "--out", str(out_json),
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["schema"] == 1
        assert len(doc["per_trial"]) == 2
        assert doc["summary"]["mean"]["acc_pl"] > 0.9

    def test_synthetic_run_reproducible_and_parallel_identical(self, tmp_path, capsys):
        base = [
            "simulate", "--seed", "21", "--classes", "3", "--per-class", "30",
            "--dim", "3", "--pub-per-class", "10", "--s", "3", "--epsilon", "2.0",
            "--trials", "4",
        ]
        paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
        run_cli(capsys, *base, "--out", str(paths[0]))
        run_cli(capsys, *base, "--out", str(paths[1]))
        run_cli(capsys, *base, "--workers", "4", "--out", str(paths[2]))
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1]
        assert blobs[0] == blobs[2]  # parallel execution changes nothing

    def test_noiseless_run_writes_strict_json(self, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--seed", "1", "--classes", "2", "--per-class", "20", "--dim", "2",
            "--pub-per-class", "8", "--s", "2", "--epsilon", "inf", "--out", str(out_json),
        )
        assert code == 0
        doc = read_results(out_json)
        assert doc["config"]["epsilon"] == "inf"
        assert doc["budget_ledger_summary"]["total_epsilon"] == "inf"
        assert doc["summary"]["mean"]["max_error"] == 0.0

    def test_trial_rows_hold_no_per_record_arrays(self, capsys, monkeypatch):
        # every row lives until the last trial ends, so it keeps the small
        # budget summary, never the run's per-record ledger
        kept, build = [], privlabel.results.build_results

        def keep(config, rows, budget):
            kept.append(rows)
            return build(config, rows, budget)

        monkeypatch.setattr(privlabel.results, "build_results", keep)
        code, _, _ = run_cli(
            capsys, "simulate", "--seed", "3", "--classes", "2", "--per-class", "20", "--dim", "2",
            "--pub-per-class", "8", "--s", "2", "--trials", "3",
        )
        assert code == 0
        ((first, second, last),) = kept
        json.dumps([first, second, last])  # no numpy array or ledger object in any row
        assert first["_budget"]["iterations"] == last["_budget"]["iterations"] == 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "classes = 3\nper_class = 20\npub_per_class = 8\ndim = 3\n"
            "s = 3\nepsilon = 0.5\ntrials = 2\n"
        )
        out_json = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--seed", "3",
            "--epsilon", "4.0", "--out", str(out_json),
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["config"]["epsilon"] == 4.0
        assert doc["config"]["per_class"] == 20

    def test_invariant_violation_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--seed", "1", "--model", "nope",
        )
        assert code == 3

    @pytest.mark.parametrize("bad_file", ["priv", "pub"])
    def test_non_finite_embedding_exits_3_before_query_selection(self, tmp_path, capsys, monkeypatch, bad_file):
        import privlabel.simulate as simulate_mod

        selections = []
        monkeypatch.setattr(simulate_mod, "select_queries_cluster", lambda *a, **kw: selections.append(a))
        rows = {"priv": ["0,0,0.0,0.0", "1,1,4.0,4.0", "2,1,4.5,4.0"], "pub": ["0,,0.1,0.0", "1,,4.1,4.0"]}
        rows[bad_file][1] = rows[bad_file][1].rsplit(",", 1)[0] + ",nan"
        for name, lines in rows.items():
            (tmp_path / f"{name}.csv").write_text("id,label,e1,e2\n" + "\n".join(lines) + "\n")
        code, _, err = run_cli(
            capsys, "simulate", "--seed", "1", "--dataset", "csv",
            "--csv-priv", str(tmp_path / "priv.csv"), "--csv-pub", str(tmp_path / "pub.csv"), "--s", "2",
        )
        assert code == 3
        assert "line 3: non-finite" in err
        assert selections == []

    def test_io_error_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--seed", "1", "--dataset", "csv",
            "--csv-priv", str(tmp_path / "missing.csv"),
            "--csv-pub", str(tmp_path / "missing2.csv"),
        )
        assert code == 4

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])  # --seed is mandatory
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["unknown-command"])
        assert exc.value.code == 2


def subcommand_options(name):
    """dest -> action of one subcommand's flags."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[name]._actions if a.option_strings and a.dest != "help"}


class TestFlagsFromFields:
    def test_simulate_has_one_flag_per_config_field(self):
        options = subcommand_options("simulate")
        fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
        assert set(options) == set(fields) | {"config"}
        for name, field in fields.items():
            action = options[name]
            assert action.option_strings == ["--" + name.replace("_", "-")]
            assert action.type.__name__ == field.type
            assert action.required == (name == "seed")
            assert action.default is None
        assert options["mechanism"].choices == sorted({"auto"}.union(*MODEL_MECHANISMS.values()))

    def test_gen_has_one_flag_per_spec_field_with_config_defaults(self):
        options = subcommand_options("gen")
        spec_fields = [f.name for f in dataclasses.fields(SyntheticSpec)]
        assert set(options) == set(spec_fields) | {"seed", "out"}
        defaults = ExperimentConfig()
        for name in spec_fields:
            assert options[name].default == getattr(defaults, name)
            assert options[name].type is type(getattr(defaults, name))
        assert options["seed"].required and options["out"].required


class TestConfigChecksBeforeData:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--model", "shuffle-multi"], "delta"),
            (["--epsilon", "-1"], "epsilon"),
            (["--k", "0"], "k must"),
            (["--partition", "iid"], "n_clients"),
            (["--partition", "dirichlet", "--n-clients", "3", "--dirichlet-alpha", "0"], "dirichlet_alpha"),
            (["--label-mode", "bogus"], "label_mode"),
        ],
    )
    @pytest.mark.parametrize("dataset", [[], ["--dataset", "csv", "--csv-priv", "p.csv", "--csv-pub", "q.csv"]])
    def test_bad_config_exits_3_without_loading_data(self, capsys, monkeypatch, flags, message, dataset):
        import privlabel.data as data_mod

        def no_loading(*args, **kwargs):
            raise AssertionError("data loaded before the config was checked")

        monkeypatch.setattr(data_mod, "generate_synthetic", no_loading)
        monkeypatch.setattr(data_mod, "load_embeddings_csv", no_loading)
        code, _, err = run_cli(capsys, "simulate", "--seed", "1", *dataset, *flags)
        assert code == 3
        assert message in err


class TestMechanismChecks:
    def test_unknown_mechanism_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seed", "1", "--mechanism", "nope"])
        assert exc.value.code == 2

    def test_mechanism_the_model_lacks_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--seed", "1", "--model", "central", "--mechanism", "gse")
        assert code == 3
        assert "no mechanism 'gse'" in err

    def test_infeasible_shuffle_single_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--seed", "1", "--model", "shuffle-single", "--mechanism", "gse",
            "--delta", "1e-6", "--classes", "2", "--per-class", "20", "--dim", "2",
            "--pub-per-class", "8", "--s", "2",
        )
        assert code == 3
        assert "too small" in err

    def test_shuffle_multi_eps_too_small_for_noise_exits_3(self, capsys, monkeypatch):
        import privlabel.simulate as simulate_mod

        selections = []
        monkeypatch.setattr(simulate_mod, "select_queries_cluster", lambda *a, **kw: selections.append(a))
        code, _, err = run_cli(
            capsys, "simulate", "--seed", "1", "--model", "shuffle-multi", "--epsilon", "1e-17",
            "--delta", "1e-6", "--classes", "2", "--per-class", "20", "--dim", "2",
            "--pub-per-class", "8", "--s", "2",
        )
        assert code == 3
        assert "rounds to 1" in err
        assert selections == []

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--model", "local", "--mechanism", "rr", "--epsilon", "1e-300"), "rounds to 1/2"),
        (("bounds", "--eps", "1e-300", "--n", "100"), "rounds to 1/2"),
        (("verify-dp", "--eps-list", "800"), "e^eps overflows"),
        (("simulate", "--model", "central", "--epsilon", "1e-320"), "2kr/eps overflows"),
        (("simulate", "--model", "local", "--mechanism", "laplace", "--epsilon", "1e-300"), "Laplace bound overflows"),
    ])
    def test_extreme_budget_exits_3_before_any_stage(self, capsys, monkeypatch, tmp_path, argv, message):
        import privlabel.simulate as simulate_mod

        selections = []
        monkeypatch.setattr(simulate_mod, "select_queries_cluster", lambda *a, **kw: selections.append(a))
        results = tmp_path / "results.json"
        simulate = ("--seed", "1", "--per-class", "30", "--out", str(results)) if argv[0] == "simulate" else ()
        code, out, err = run_cli(capsys, *argv, *simulate)
        assert code == 3
        assert message in err and "Traceback" not in err
        assert out == "" and selections == [] and not results.exists()

    @pytest.mark.parametrize("pub_per_class", ("5", "4"))
    def test_too_few_public_samples_for_t_exits_3_before_any_stage(self, capsys, monkeypatch, pub_per_class):
        # 3 classes give 15 or 12 public samples; T = 5 at s = 4 needs 16
        import privlabel.simulate as simulate_mod

        selections = []
        monkeypatch.setattr(simulate_mod, "select_queries_cluster", lambda *a, **kw: selections.append(a))
        code, out, err = run_cli(
            capsys, "simulate", "--seed", "1", "--classes", "3", "--per-class", "30",
            "--pub-per-class", pub_per_class, "--t", "5", "--s", "4", "--epsilon", "1",
        )
        assert code == 3
        assert "needs max(1, T - 1) * s = 16" in err and "Traceback" not in err
        assert out == "" and selections == []

    def test_gse_without_an_unbiased_estimate_exits_3_before_query_selection(self, capsys, monkeypatch):
        import privlabel.simulate as simulate_mod

        selections = []
        monkeypatch.setattr(simulate_mod, "select_queries_cluster", lambda *a, **kw: selections.append(a))
        code, _, err = run_cli(
            capsys, "simulate", "--seed", "1", "--model", "local", "--mechanism", "gse", "--epsilon", "1.7",
            "--classes", "3", "--per-class", "50", "--dim", "2", "--pub-per-class", "10", "--s", "4", "--k", "2",
        )
        assert code == 3
        assert "p_true must exceed p_false" in err
        assert selections == []

    @pytest.mark.parametrize("model, mechanism", [
        (model.value, mechanism) for model, mechanisms in MODEL_MECHANISMS.items() for mechanism in mechanisms
    ])
    def test_every_pair_exits_0_or_3(self, capsys, model, mechanism):
        # 500 records, 200 public samples, 10 labels: s = 200 gives d = 2000
        # cells, where gse at eps = 5 releases l = 300 of them
        for eps, s in itertools.product(("0.05", "1", "5"), ("4", "200")):
            code, _, err = run_cli(
                capsys, "simulate", "--seed", "1", "--model", model, "--mechanism", mechanism,
                "--epsilon", eps, "--delta", "1e-6" if model.startswith("shuffle") else "0",
                "--classes", "10", "--per-class", "50", "--dim", "2", "--pub-per-class", "20",
                "--s", s, "--k", "2",
            )
            assert code in (0, 3), (eps, s, err)


class TestMseCompare:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code, _, _ = run_cli(
            capsys, "mse-compare", "--s", "6", "--labels", "5", "--k", "1", "--r", "1",
            "--eps-grid", "1:2:1", "--trials", "500", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eps,collision_mse,separation_mse,concatenation_mse"
        assert len(lines) == 3

    def test_zero_trials_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "mse-compare", "--s", "6", "--labels", "5", "--trials", "0")
        assert code == 3
        assert "trials" in err


class TestVerifyDp:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-dp", "--hash-seeds", "5")
        assert code == 0
        assert "FAIL" not in out
        assert "all local-DP checks passed" in out

    @pytest.mark.parametrize("seeds", ("0", "-2"))
    def test_no_hash_seeds_exits_3_before_any_check(self, capsys, seeds):
        # zero seeds would check no collision hash and still print PASS
        code, out, err = run_cli(capsys, "verify-dp", "--hash-seeds", seeds)
        assert code == 3
        assert "--hash-seeds must be at least 1" in err
        assert out == ""

    @pytest.mark.parametrize("bad, message", [
        ("-1", "--eps-list entry '-1'"),
        ("inf", "--eps-list entry 'inf'"),
        ("nan", "--eps-list entry 'nan'"),
        ("-inf", "--eps-list entry '-inf'"),
        ("700", "impractically long filter"),
        ("800", "e^eps overflows"),
    ])
    def test_bad_epsilon_exits_3_before_any_check(self, capsys, bad, message):
        # each would print PASS or FAIL lines before the check that rejects it
        code, out, err = run_cli(capsys, "verify-dp", "--hash-seeds", "1", "--eps-list", f"1,{bad}")
        assert code == 3
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_standard_output_exits_0_with_nothing_on_stderr(self, unbuffered):
        # the pipe's read end closes before the run starts, as `head` closes
        # it after its lines: every write to standard output fails
        read, write = os.pipe()
        os.close(read)
        src = Path(privlabel.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "privlabel.cli", "verify-dp", "--eps-list", "1e-300"],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (0, b"")


def test_simulate_without_out_prints_summary(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--seed", "2", "--classes", "2", "--per-class", "20",
        "--dim", "2", "--pub-per-class", "8", "--s", "2", "--epsilon", "5.0",
    )
    assert code == 0
    summary = json.loads(out)
    assert "mean" in summary and "empirical_beta" in summary
