"""Tests of the benchmark's own code at a small size.

    python3 -m pytest bench
"""
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import checks
import run
import spread
from checks import Pool, binomial_upper, check_mse_point, check_trial, nearest_queries
from tracer import ROOT, Tracer, op_profile, self_times
from workloads import Labeling, run_mse_point, run_trial

SMALL_WORLD = dict(classes=10, per_class=200, dim=8, separation=12.0, std=1.0, pub_per_class=20)


@pytest.fixture(scope="module")
def pl():
    return run.load_package()


@pytest.fixture(scope="module")
def world(pl):
    return pl.data.generate_synthetic(pl.data.SyntheticSpec(**SMALL_WORLD), seed=5)


# ---------------------------------------------------------------------------
# span arithmetic and the tracer


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has a grandchild [2, 3]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 9.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    assert np.allclose(self_times(starts, ends, parents), [10 - 5 - 1, 3 - 1, 3, 1, 1])


def test_profile_folds_unnamed_spans_and_self_times_add_up_to_wall():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.0, 12.0])
    t = Tracer(clock=lambda: next(ticks))
    root = t.open(ROOT)  # 0
    outer = t.open("geometry.select_queries_cluster")  # 1
    inner = t.open("geometry.kmeans")  # 2: no metric of its own
    dist = t.open("geometry.pairwise_distances")  # 5
    t.close(dist)  # 6
    t.close(inner)  # 7
    t.close(outer)  # 9
    t.close(root)  # 12
    profile = op_profile(t)
    assert profile["geometry.select_queries_cluster.self_s"] == pytest.approx(8.0)
    assert profile["bench.op.self_s"] == pytest.approx(4.0)
    assert profile["geometry.kmeans_iterations"] == 1
    assert profile["self_sum_s"] == pytest.approx(profile["wall_s"]) == pytest.approx(12.0)


def test_tracer_wraps_the_calling_namespace_and_restores_it(pl, world):
    original = pl.simulate.reverse_knn_connect
    records, public = world
    with Tracer() as t:
        t.install(pl.package)
        assert t.absent == []
        assert pl.simulate.reverse_knn_connect is not original
        assert pl.mse.bucket_hash is pl.local.bucket_hash
        params = pl.core.PrivacyParams(1.0, pl.core.PrivacyModel.CENTRAL, 1, 1, 10, 10)
        root = t.open(ROOT)
        pl.simulate.run_algorithm1(records, public.embeddings, params, T=1, s=10, k=1, master_seed=1)
        t.close(root)
        profile = op_profile(t)
    assert pl.simulate.reverse_knn_connect is original
    assert profile["geometry.distance_cells"] == records.m * 10
    assert profile["geometry.reverse_knn_connect.self_s"] > 0
    assert profile["self_sum_s"] == pytest.approx(profile["wall_s"], rel=1e-9)


def test_missing_functions_are_reported_absent():
    package = types.ModuleType("fakepkg")
    local = types.ModuleType("fakepkg.local")

    def bucket_hash(seed, values, length):
        return values % length

    bucket_hash.__module__ = "fakepkg.local"
    local.bucket_hash = bucket_hash
    sys.modules.update({"fakepkg": package, "fakepkg.local": local})
    try:
        with Tracer() as t:
            t.install(package)
            local.bucket_hash(1, np.arange(4), 3)
            assert "local.gse_members_to_matrix" in t.absent
            assert "local.bucket_hash" not in t.absent
            assert t.names == ["local.bucket_hash"]
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.local"]


# ---------------------------------------------------------------------------
# summaries


def test_summary_median_and_quartiles():
    s = spread.summarize([float(v) for v in range(1, 11)])
    assert (s["q1"], s["median"], s["q3"]) == (2.75, 5.5, 8.25)
    assert s["spread"] == pytest.approx(1.0)


@pytest.mark.parametrize("n,p", [(1000, 0.05), (3000, 0.05), (60, 0.1)])
def test_binomial_upper_limit(n, p):
    x = binomial_upper(n, p, 1e-6)
    assert stats.binom.sf(x, n, p) <= 1e-6 < stats.binom.sf(x - 1, n, p)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# ---------------------------------------------------------------------------
# output checks reject wrong outputs


def test_nearest_queries_matches_brute_force():
    rng = np.random.default_rng(0)
    points, queries = rng.standard_normal((500, 3)), rng.standard_normal((12, 3))
    chosen, ambiguous = nearest_queries(points, queries, 3)
    d = ((points[:, None, :] - queries[None]) ** 2).sum(-1)
    assert np.array_equal(chosen, np.sort(np.argsort(d, axis=1)[:, :3], axis=1))
    assert not ambiguous.any()


def test_trial_check_rejects_a_record_connected_to_the_wrong_query(pl, world):
    records, public = world
    labeling = Labeling(s=20, k=2, T=2, epsilon=1.0, scheme="iid", n_clients=50)
    result = run_trial(pl, world, labeling, "central", 3)
    assert check_trial(result, records, public.embeddings, labeling, "central", Pool(), pl) == []
    exact = result.iterations[0].exact
    bucket = int(np.argmax(exact.sum(axis=1)))
    label = int(np.argmax(exact[bucket]))
    exact[bucket, label] -= 1
    exact[(bucket + 1) % 20, label] += 1
    problems = check_trial(result, records, public.embeddings, labeling, "central", Pool(), pl)
    assert any("differs from the recomputed" in p for p in problems)


def test_trial_check_rejects_a_wrong_cluster_assignment(pl, world):
    records, public = world
    labeling = Labeling(s=20, k=1, T=1, epsilon=1.0, scheme="iid", n_clients=50)
    result = run_trial(pl, world, labeling, "central", 4)
    result.cluster_assignment[0] = (result.cluster_assignment[0] + 1) % 20
    problems = check_trial(result, records, public.embeddings, labeling, "central", Pool(), pl)
    assert any("nearest iteration-1 query" in p for p in problems)


@pytest.mark.parametrize("kind", ["local-rr", "local-laplace", "local-collision", "local-gse"])
def test_unbiasedness_rejects_counts_shifted_by_several_standard_errors(pl, world, kind):
    records, public = world
    labeling = Labeling(s=10, k=1, T=1, epsilon=2.0, scheme="single-record")
    results = [run_trial(pl, world, labeling, kind, seed) for seed in range(3)]
    honest = Pool()
    for result in results:
        assert check_trial(result, records, public.embeddings, labeling, kind, honest, pl) == []
    assert honest.problems() == []
    shifted = Pool()
    for result in results:
        it = result.iterations[0]
        error_sd = np.std(it.report.noisy_counts - it.exact)
        it.report.noisy_counts = it.report.noisy_counts + 4.0 * error_sd
        check_trial(result, records, public.embeddings, labeling, kind, shifted, pl)
    assert any("biased" in p for p in shifted.problems())


def test_bound_conformance_rejects_too_many_exceedances():
    pool = Pool()
    pool.add_bound("central", np.r_[np.full(100, 5.0), np.zeros(900)], eta=5.0)
    assert pool.problems() and "reach eta" in pool.problems()[0]
    pool = Pool()
    pool.add_bound("central", np.r_[np.full(50, 5.0), np.zeros(950)], eta=5.0)
    assert pool.problems() == []


def test_mse_check_rejects_an_mse_off_by_ten_percent(pl):
    shape = (200, 50, 2, 2)
    curves = run_mse_point(pl, 3.0, 500, 7)
    assert check_mse_point(curves, 3.0, 500, shape, pl) == []
    curves.collision = curves.collision * 1.1
    assert any("closed form" in p for p in check_mse_point(curves, 3.0, 500, shape, pl))


def test_mse_check_rejects_a_broken_ordering(pl):
    shape = (200, 50, 2, 2)
    curves = run_mse_point(pl, 1.0, 200, 8)
    curves.separation = curves.concatenation * 0.5
    assert any("exceeds separation" in p for p in check_mse_point(curves, 1.0, 200, shape, pl))


def test_flat_collision_closed_form_matches_the_package(pl):
    for eps in (1.0, 3.5, 6.0):
        params = pl.local.CollisionParams.for_budget(10_000, 4, eps)
        mean, _ = checks.flat_collision_mse(eps, 10_000, 4, params.filter_length)
        assert math.isclose(mean, pl.local.collision_average_mse(params), rel_tol=1e-9)


def test_an_untraced_run_prints_every_end_to_end_metric_last(capsys):
    assert run.main(["--workload", "mse-figure", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 11 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
