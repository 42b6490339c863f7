import json
import math

import numpy as np
import pytest

from privlabel.analysis import bounds_table, collision_entry_std, predict_labeling_accuracy
from privlabel.central import laplace_accuracy_bound
from privlabel.config import ExperimentConfig, build_config, load_config_file, parse_config_text
from privlabel.core import PrivacyModel, PrivacyParams
from privlabel.local import CollisionParams
from privlabel.mse import mse_comparison, parse_grid
from privlabel.results import build_results, read_results, write_results
from privlabel.shuffle import multi_message_accuracy_bound
from privlabel.simulate import RELEASES, PartitionScheme, run_algorithm1
from conftest import random_record_set


class TestConfig:
    def test_parse_flat_grammar(self):
        text = "# a comment\n\nepsilon = 0.5\nmodel = central\ntrials = 3\n"
        assert parse_config_text(text) == {"epsilon": "0.5", "model": "central", "trials": "3"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("nonsense = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("epsilon 0.5\n")

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon = 0.5\ns = 20\n")
        cfg = build_config(load_config_file(path), {"epsilon": 2.0, "seed": 7})
        assert cfg.epsilon == 2.0  # flag wins
        assert cfg.s == 20  # file survives where no flag given

    def test_validation_failures(self):
        with pytest.raises(ValueError, match="model"):
            build_config({}, {"model": "quantum"})
        with pytest.raises(ValueError, match="trials"):
            build_config({}, {"trials": 0})
        with pytest.raises(ValueError, match="csv"):
            build_config({}, {"dataset": "csv"})

    def test_privacy_params_construction(self):
        cfg = ExperimentConfig(model="shuffle-multi", epsilon=2.0, delta=1e-6, k=2, s=5)
        params = cfg.privacy_params(label_count=4, r=1)
        assert params.sensitivity == 4
        assert params.delta == 1e-6


class TestResults:
    def test_schema_and_summary(self):
        doc = build_results(
            {"epsilon": 1.0},
            [
                {"acc_pl": 0.9, "acc_proxy": 0.92, "max_error": 3.0, "labels": [0, 1], "eta_exceed_rate": 0.0},
                {"acc_pl": 0.8, "acc_proxy": 0.90, "max_error": 5.0, "labels": [1, 1], "eta_exceed_rate": 0.25},
            ],
            {"iterations": 1},
        )
        assert doc["schema"] == 1
        assert doc["summary"]["mean"]["acc_pl"] == pytest.approx(0.85)
        # the mean over trials of the share of buckets reaching eta
        assert doc["summary"]["empirical_beta"] == pytest.approx(0.125)
        assert set(doc["per_trial"][0]) == {"acc_pl", "acc_proxy", "max_error", "labels"}
        assert list(doc.keys()) == ["schema", "config", "per_trial", "summary", "budget_ledger_summary"]

    def test_summary_mean_matches_trials(self):
        trials = [{"acc_pl": v, "acc_proxy": None, "max_error": v, "labels": []} for v in (0.2, 0.4, 0.9)]
        doc = build_results({}, trials, {})
        assert doc["summary"]["mean"]["acc_pl"] == pytest.approx(np.mean([0.2, 0.4, 0.9]))

    def test_empty_trials_rejected(self):
        with pytest.raises(ValueError):
            build_results({}, [], {})

    def test_write_read_round_trip(self, tmp_path):
        doc = build_results({"x": 1}, [{"acc_pl": 1.0, "acc_proxy": None, "max_error": 0.0, "labels": [2]}], {})
        path = tmp_path / "results.json"
        write_results(doc, path)
        assert read_results(path) == json.loads(json.dumps(doc))

    def test_nan_is_never_written(self, tmp_path):
        doc = build_results({"x": 1}, [{"acc_pl": 1.0, "acc_proxy": None, "max_error": math.nan, "labels": [2]}], {})
        path = tmp_path / "results.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            write_results(doc, path)
        assert not path.exists()


class TestBoundsTable:
    def test_central_row(self):
        rows = bounds_table("central", 0.1, 0.0, 1, 1, 2, 10, 0.05)
        assert rows["central"] == pytest.approx(105.96634, abs=1e-4)

    def test_local_needs_n(self):
        with pytest.raises(ValueError, match="--n"):
            bounds_table("local", 1.0, 0.0, 1, 1, 2, 10, 0.05)
        rows = bounds_table("local", 1.0, 0.0, 1, 1, 2, 10, 0.05, n=100)
        assert set(rows) == {"rr", "laplace", "collision"}

    def test_each_mechanism_rejects_only_a_budget_too_small_for_it(self):
        # at eps/(2kr) = 5e-18, e^(eps/(2kr)) rounds to 1: rr and collision
        # reject the budget, Laplace's scale 2e17 still gives a finite bound
        assert set(bounds_table("local", 1e-17, 0.0, 1, 1, 2, 10, 0.05, n=100)) == {"laplace"}
        with pytest.raises(ValueError, match="rounds to 1/2"):
            bounds_table("local", 1e-300, 0.0, 1, 1, 2, 10, 0.05, n=100)

    def test_all_rows_with_full_inputs(self):
        rows = bounds_table(None, 0.5, 1e-6, 1, 1, 2, 10, 0.05, n=100_000)
        assert {"central", "shuffle-multi", "rr", "collision", "shuffled-rr"} <= set(rows)


class TestGapPrediction:
    def test_noiseless_prediction_matches_propagation(self, rng):
        exact = np.array([[30.0, 0.0], [0.0, 25.0]])
        assignment = np.array([0, 0, 1, 1])
        truth = np.array([0, 0, 1, 1])
        acc = predict_labeling_accuracy(exact, assignment, truth, np.zeros((2, 2)) + 1e-12, rng)
        assert acc == pytest.approx(1.0)

    def test_overwhelming_noise_predicts_chance(self, rng):
        exact = np.array([[30.0, 29.0], [29.0, 30.0]])
        assignment = np.array([0, 1])
        truth = np.array([0, 1])
        acc = predict_labeling_accuracy(exact, assignment, truth, np.full((2, 2), 1e4), rng, draws=4000)
        assert acc == pytest.approx(0.5, abs=0.05)

    def test_prediction_equals_the_add_at_reference(self):
        gen = np.random.default_rng(12)
        s, label_count, pub = 7, 4, 333
        exact = gen.integers(0, 40, size=(s, label_count)).astype(np.float64)
        assignment, truth = gen.integers(0, s, pub), gen.integers(0, label_count, pub)
        sd = gen.uniform(0.5, 20.0, size=(s, label_count))
        frac = np.zeros((s, label_count))
        np.add.at(frac, (assignment, truth), 1.0)
        frac /= pub
        noisy = exact[None] + sd[None] * np.random.default_rng(3).standard_normal((500, s, label_count))
        expected = float(frac[np.arange(s)[None, :], np.argmax(noisy, axis=2)].sum(axis=1).mean())
        assert predict_labeling_accuracy(exact, assignment, truth, sd, np.random.default_rng(3), draws=500) == expected

    def test_collision_entry_std_interpolates(self):
        params = CollisionParams.for_budget(20, 1, 0.4)
        sd = collision_entry_std(np.array([[0.0, 100.0]]), params, n=100)
        assert sd.shape == (1, 2)
        assert sd[0, 0] > 0 and sd[0, 1] > 0


class TestMseGrid:
    def test_parse_grid(self):
        assert np.allclose(parse_grid("1:6:0.5"), np.arange(1.0, 6.01, 0.5))
        assert np.allclose(parse_grid("2:2:1"), [2.0])
        with pytest.raises(ValueError):
            parse_grid("5:1:1")

    def test_small_comparison_matches_analytic(self):
        from privlabel.local import collision_average_mse, concatenation_params, separation_params
        from reference import concatenation_entry_mse, separation_entry_mse

        s, labels, k, r = 6, 5, 1, 1
        curves = mse_comparison(s, labels, k, r, np.array([1.0, 5.0]), trials=30_000, master_seed=9)

        def category_average(entry_mse, *args):
            n11, n10, n01 = k * r, k * (labels - r), (s - k) * r
            n00 = s * labels - n11 - n10 - n01
            return (
                n11 * entry_mse(*args, True, True)
                + n10 * entry_mse(*args, True, False)
                + n01 * entry_mse(*args, False, True)
                + n00 * entry_mse(*args, False, False)
            ) / (s * labels)

        for i, eps in enumerate((1.0, 5.0)):
            flat = CollisionParams.for_budget(s * labels, k * r, eps)
            assert curves.collision[i] == pytest.approx(collision_average_mse(flat), rel=0.1)
            assert curves.separation[i] == pytest.approx(
                category_average(separation_entry_mse, separation_params(s, labels, k, r, eps)),
                rel=0.1,
            )
            assert curves.concatenation[i] == pytest.approx(
                category_average(concatenation_entry_mse, concatenation_params(s, labels, k, r, eps)),
                rel=0.1,
            )
        assert (curves.concatenation <= curves.separation).all()

    def test_comparison_equals_per_report_rows(self):
        # reference: each trial's sum of (est - truth)^2 over explicit
        # per-report estimate rows, with outer products for the composites
        from privlabel import seeds as seeds_mod
        from privlabel.core import flatten_support
        from privlabel.local import (
            collision_encode_batch,
            concatenation_params,
            separation_params,
        )
        from reference import collision_report_estimates

        s, labels, k, r, trials, seed = 6, 5, 2, 2, 500, 21
        grid = np.array([1.0, 3.0, 5.0])
        curves = mse_comparison(s, labels, k, r, grid, trials, master_seed=seed)
        truth = np.zeros((s, labels))
        truth[:k, :r] = 1.0

        def rows(support, params, rng):
            return collision_report_estimates(*collision_encode_batch(support, params, rng, trials), params)

        for i, eps in enumerate(grid):
            flat = CollisionParams.for_budget(s * labels, k * r, eps)
            rng = seeds_mod.generator(seed, "mse-collision", i)
            est = rows(flatten_support(np.arange(k), np.arange(r), labels), flat, rng)
            assert curves.collision[i] == pytest.approx(((est - truth.ravel()) ** 2).mean(), rel=1e-12)
            bucket_params, label_params = separation_params(s, labels, k, r, eps)
            rng = seeds_mod.generator(seed, "mse-separation", i)
            a, b = rows(np.arange(k), bucket_params, rng), rows(np.arange(r), label_params, rng)
            sep = ((a[:, :, None] * b[:, None, :] - truth) ** 2).mean()
            assert curves.separation[i] == pytest.approx(sep, rel=1e-12)
            params = concatenation_params(s, labels, k, r, eps)
            rng = seeds_mod.generator(seed, "mse-concatenation", i)
            est = rows(np.concatenate([np.arange(k), s + np.arange(r)]), params, rng)
            cat = ((est[:, :s, None] * est[:, None, s:] - truth) ** 2).mean()
            assert curves.concatenation[i] == pytest.approx(cat, rel=1e-12)

    def test_chunking_leaves_curves_byte_identical(self, monkeypatch):
        import privlabel.local as local_mod

        s, labels, trials = 6, 5, 500
        curves = []
        # the default, one report per chunk, and the whole batch in one chunk
        for chunk_cells in (local_mod._COLLISION_CHUNK_CELLS, 1, trials * s * labels):
            monkeypatch.setattr(local_mod, "_COLLISION_CHUNK_CELLS", chunk_cells)
            got = mse_comparison(s, labels, 2, 2, np.array([1.0, 4.0]), trials, master_seed=5)
            curves.append(b"".join(a.tobytes() for a in (got.collision, got.separation, got.concatenation)))
        assert curves[1] == curves[0] and curves[2] == curves[0]


def test_bounds_table_is_same_code_path():
    from privlabel.central import laplace_accuracy_bound
    from privlabel.core import PrivacyModel, PrivacyParams
    from privlabel.local import MECHANISMS, rr_accuracy_bound
    from privlabel.shuffle import multi_message_accuracy_bound, single_message_params

    rows = bounds_table(None, 0.7, 1e-6, 2, 1, 5, 10, 0.05, n=50_000)
    central = PrivacyParams(0.7, PrivacyModel.CENTRAL, 2, 1, 5, 10)
    assert rows["central"] == laplace_accuracy_bound(central, 0.05)
    multi = PrivacyParams(0.7, PrivacyModel.SHUFFLE_MULTI, 2, 1, 5, 10, delta=1e-6)
    assert rows["shuffle-multi"] == multi_message_accuracy_bound(multi, 0.05)
    local = PrivacyParams(0.7, PrivacyModel.LOCAL, 2, 1, 5, 10)
    assert rows["rr"] == rr_accuracy_bound(local, 50_000, 0.05)
    # the laplace rows equal the bound a run reports through the mechanism table
    assert rows["laplace"] == MECHANISMS["laplace"].bound(local, 50_000, 0.05)
    single = PrivacyParams(0.7, PrivacyModel.SHUFFLE_SINGLE, 2, 1, 5, 10, delta=1e-6)
    eps0_params = single_message_params(single, 50_000)
    assert rows["shuffled-laplace"] == MECHANISMS["laplace"].bound(eps0_params, 50_000, 0.05)
    # s < k: a record reaches only s buckets, and the collision row sizes its
    # support as min(k, s) * r like a run does
    rows = bounds_table("local", 2.0, 0.0, 3, 1, 2, 10, 0.05, n=500)
    narrow = PrivacyParams(2.0, PrivacyModel.LOCAL, 3, 1, 2, 10)
    run_eta = MECHANISMS["collision"].bound(narrow, 500, 0.05)
    assert rows["collision"] == run_eta


@pytest.mark.parametrize("model, mechanism", list(RELEASES))
def test_run_reports_the_bounds_table_row(model, mechanism):
    # a T = 1 run reports the eta that `privlabel bounds` prints for its inputs,
    # with n the number of clients that hold a record
    rng = np.random.default_rng(31)
    records = random_record_set(rng, m=3000, dim=2, label_count=5)
    delta = 1e-6 if model in (PrivacyModel.SHUFFLE_MULTI, PrivacyModel.SHUFFLE_SINGLE) else 0.0
    params = PrivacyParams(0.8, model, 2, 1, 4, 5, delta=delta)
    result = run_algorithm1(
        records, rng.normal(size=(40, 2)), params, T=1, s=4, k=2, master_seed=6, mechanism=mechanism,
        partition_scheme=PartitionScheme.IID, n_clients=2500,
    )
    reporting = np.unique(result.partition.client_of).size
    assert reporting < 2500  # some clients hold no record and do not report
    rows = bounds_table(model.value, 0.8, delta, 2, 1, 4, 5, 0.05, n=reporting)
    run_names = {PrivacyModel.LOCAL: mechanism, PrivacyModel.SHUFFLE_SINGLE: f"shuffled-{mechanism}"}
    name = run_names.get(model, model.value)
    eta = result.iterations[0].report.theoretical_eta
    if mechanism == "gse":
        assert eta is None and name not in rows
    else:
        assert eta == rows[name]


class TestBoundsRules:
    def test_shuffle_rows_need_delta(self):
        rows = bounds_table(None, 0.5, 0.0, 1, 1, 2, 10, 0.05, n=100_000)
        assert set(rows) == {"central", "rr", "laplace", "collision"}
        for model in ("shuffle-multi", "shuffle-single"):
            with pytest.raises(ValueError, match="--delta"):
                bounds_table(model, 0.5, 0.0, 1, 1, 2, 10, 0.05, n=100_000)

    @pytest.mark.parametrize("n", [0, -5])
    def test_client_count_below_one_rejected(self, n):
        for model in (None, "central", "local"):
            with pytest.raises(ValueError, match="--n"):
                bounds_table(model, 1.0, 0.0, 1, 1, 2, 10, 0.05, n=n)

    def test_no_model_skips_rows_lacking_n(self):
        rows = bounds_table(None, 0.5, 1e-6, 1, 1, 2, 10, 0.05)
        assert set(rows) == {"central", "shuffle-multi"}

    def test_a_shape_a_run_rejects_has_no_row(self):
        # d = 12 cells, c = 2 and l = 11 at eps = 1.7 leave gse with
        # p_true = p_false: a gse run stops before any stage, the other rows stay
        rows = bounds_table("local", 1.7, 0.0, 2, 1, 4, 3, 0.05, n=100)
        assert set(rows) == {"rr", "laplace", "collision"}
        with pytest.raises(ValueError, match="p_true must exceed p_false"):
            RELEASES[PrivacyModel.LOCAL, "gse"].bound(PrivacyParams(1.7, PrivacyModel.LOCAL, 2, 1, 4, 3), 100, 0.05)

    @pytest.mark.parametrize("bound, message", [
        (lambda: laplace_accuracy_bound(PrivacyParams(1e-310, PrivacyModel.CENTRAL, 1, 1, 2, 2), 0.05),
         "the Laplace scale 2kr/eps overflows"),
        (lambda: multi_message_accuracy_bound(PrivacyParams(1e-300, PrivacyModel.SHUFFLE_MULTI, 1, 1, 2, 2, 1e-6), 0.05),
         "rounds to 1"),
    ], ids=["central", "shuffle-multi"])
    def test_aggregate_bound_rejects_a_budget_its_noise_rejects(self, bound, message):
        # called directly, not only through a run or the table: no inf or
        # finite eta for a noise the release cannot draw
        with pytest.raises(ValueError, match=message):
            bound()

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_beta_outside_the_unit_interval_rejected(self, beta):
        with pytest.raises(ValueError, match="--beta"):
            bounds_table("local", 1.0, 0.0, 1, 1, 2, 10, beta, n=100)
