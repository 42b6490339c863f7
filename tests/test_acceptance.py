"""Acceptance gate.

Each criterion runs at its stated tolerance; the terminal summary prints one
pass/fail line per criterion (hook in conftest).  Heavy Monte-Carlo sizes are
the contract sizes, so this module dominates suite runtime.
"""
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from privlabel import seeds as seeds_mod
from privlabel.analysis import collision_entry_std, predict_labeling_accuracy
from privlabel.central import (
    central_laplace_mechanism,
    laplace_accuracy_bound,
    noise_scale,
    pipeline_aggregate,
    sample_laplace,
    worst_case_neighbor_pair,
)
from privlabel.cli import main as cli_main
from privlabel.core import PrivacyModel, PrivacyParams, QuerySet, flatten_support
from privlabel.data import SyntheticSpec, generate_synthetic
from privlabel.geometry import (
    ConnectionObjective,
    brute_force_best_connection,
    connection_scores,
    objective_value,
    reverse_knn_connect,
)
from privlabel.local import (
    CollisionParams,
    GseParams,
    bucket_hash,
    collision_accuracy_bound,
    collision_encode_batch,
    collision_pmfs,
    concatenation_params,
    gse_encode_batch,
    gse_pmfs,
    local_laplace_accuracy_bound,
    rr_accuracy_bound,
    rr_bit_pmfs,
    rr_flip_probability,
    separation_params,
    verify_local_dp,
)
from privlabel.mse import mse_comparison
from privlabel.shuffle import (
    amplify_forward,
    amplify_invert,
    discrete_laplace_parameter,
    discrete_laplace_pmf,
    multi_message_accuracy_bound,
    multi_message_pipeline,
    sample_noise_share,
)
from privlabel.simulate import PartitionScheme, run_algorithm1, verify_partition_invariance
from conftest import random_queries, random_record_set, swap_one_record
from test_shuffle import dlap_chisquare

EPS_GRID_DP = (0.1, math.log(2), 1.0, 2.0)


# ---------------------------------------------------------------------------
# criterion 1: exhaustive local-DP verification


@pytest.mark.parametrize("eps", EPS_GRID_DP)
def test_criterion_01_exhaustive_local_dp(eps):
    tol = eps + 1e-9
    inputs, pmf = rr_bit_pmfs(eps)
    assert verify_local_dp(inputs, pmf) <= tol

    for c in (1, 2):
        params = CollisionParams.for_budget(4, c, eps)
        rng = seeds_mod.generator(101, "dp-hash", eps, c)
        for _ in range(30):
            inputs, pmf = collision_pmfs(params, int(rng.integers(0, 2 ** 63)))
            assert verify_local_dp(inputs, pmf) <= tol

    for d, c, l, alpha in ((4, 1, 1, 1), (5, 1, 2, 1), (5, 2, 2, 1), (5, 2, 2, 2)):
        inputs, pmf = gse_pmfs(GseParams(d, c, eps, l, alpha))
        assert verify_local_dp(inputs, pmf) <= tol


# ---------------------------------------------------------------------------
# criterion 2: unbiasedness of every estimator, 4-sigma at N = 1e5


N_REPORTS = 100_000

INSTANCES = (
    ("i1", 2, 2, (0,), (1,)),
    ("i2", 3, 4, (0, 2), (1, 3)),
    ("i3", 4, 3, (3,), (0, 2)),
)


def instance_answer(s, labels, buckets, label_set):
    answer = np.zeros((s, labels), dtype=np.uint8)
    for b in buckets:
        answer[b, list(label_set)] = 1
    return answer


def assert_mean_within_4_sigma(per_report: np.ndarray, truth: np.ndarray):
    """per_report: (N, ...) stack of single-report unbiased estimates."""
    n = per_report.shape[0]
    mean = per_report.mean(axis=0)
    sigma = per_report.std(axis=0) / math.sqrt(n)
    assert (np.abs(mean - truth) <= 4 * sigma + 1e-12).all()


def _local_params(s, labels, buckets, label_set, epsilon=1.0):
    return PrivacyParams(
        epsilon, PrivacyModel.LOCAL, len(buckets), len(label_set), s, labels
    )


@pytest.mark.parametrize("name,s,labels,buckets,label_set", INSTANCES)
def test_criterion_02_unbiased_central_laplace(name, s, labels, buckets, label_set):
    rng = seeds_mod.generator(202, "laplace", name)
    truth = instance_answer(s, labels, buckets, label_set).astype(float) * 37
    params = PrivacyParams(1.0, PrivacyModel.CENTRAL, len(buckets), len(label_set), s, labels)
    noisy = truth[None] + sample_laplace(noise_scale(params), rng, size=(N_REPORTS, s, labels))
    assert_mean_within_4_sigma(noisy, truth)


@pytest.mark.parametrize("name,s,labels,buckets,label_set", INSTANCES)
def test_criterion_02_unbiased_rr(name, s, labels, buckets, label_set):
    rng = seeds_mod.generator(202, "rr", name)
    answer = instance_answer(s, labels, buckets, label_set)
    params = _local_params(s, labels, buckets, label_set)
    p = rr_flip_probability(params.epsilon, params.k, params.r)
    flips = rng.random((N_REPORTS, s, labels)) < p
    bits = answer[None] ^ flips.astype(np.uint8)
    per_report = (bits - p) / (1.0 - 2.0 * p)
    assert_mean_within_4_sigma(per_report, answer.astype(float))


@pytest.mark.parametrize("name,s,labels,buckets,label_set", INSTANCES)
def test_criterion_02_unbiased_local_laplace(name, s, labels, buckets, label_set):
    rng = seeds_mod.generator(202, "local-laplace", name)
    answer = instance_answer(s, labels, buckets, label_set).astype(float)
    params = _local_params(s, labels, buckets, label_set)
    scale = params.sensitivity / params.epsilon
    noisy = answer[None] + sample_laplace(scale, rng, size=(N_REPORTS, s, labels))
    assert_mean_within_4_sigma(noisy, answer)


def _collision_per_report(support, params, rng, n_reports):
    seeds, cells = collision_encode_batch(support, params, rng, n_reports)
    coords = np.arange(params.domain_size)
    hits = bucket_hash(seeds[:, None], coords[None, :], params.filter_length) == cells[:, None]
    return (hits - 1.0 / params.filter_length) / params.estimator_denominator


@pytest.mark.parametrize("name,s,labels,buckets,label_set", INSTANCES)
def test_criterion_02_unbiased_collision(name, s, labels, buckets, label_set):
    rng = seeds_mod.generator(202, "collision", name)
    support = flatten_support(np.array(buckets), np.array(label_set), labels)
    params = CollisionParams.for_budget(s * labels, support.size, 1.0)
    per_report = _collision_per_report(support, params, rng, N_REPORTS)
    truth = np.zeros(s * labels)
    truth[support] = 1.0
    assert_mean_within_4_sigma(per_report, truth)


@pytest.mark.parametrize("name,s,labels,buckets,label_set", INSTANCES)
def test_criterion_02_unbiased_gse(name, s, labels, buckets, label_set):
    rng = seeds_mod.generator(202, "gse", name)
    support = flatten_support(np.array(buckets), np.array(label_set), labels)
    d = s * labels
    params = GseParams(d, support.size, 1.0, min(support.size + 1, d - 1), 1)
    cells = gse_encode_batch(support, params, rng, N_REPORTS)
    member = np.zeros((N_REPORTS, d), dtype=bool)
    np.put_along_axis(member, cells, True, axis=1)
    per_report = (member - params.p_false) / (params.p_true - params.p_false)
    truth = np.zeros(d)
    truth[support] = 1.0
    assert_mean_within_4_sigma(per_report, truth)


@pytest.mark.parametrize("name,s,labels,buckets,label_set", INSTANCES)
def test_criterion_02_unbiased_separation(name, s, labels, buckets, label_set):
    rng = seeds_mod.generator(202, "separation", name)
    pair = separation_params(s, labels, len(buckets), len(label_set), 1.0)
    t_hat = _collision_per_report(np.array(buckets), pair[0], rng, N_REPORTS)
    y_hat = _collision_per_report(np.array(label_set), pair[1], rng, N_REPORTS)
    per_report = np.einsum("ni,nj->nij", t_hat, y_hat)
    truth = instance_answer(s, labels, buckets, label_set).astype(float)
    assert_mean_within_4_sigma(per_report, truth)


@pytest.mark.parametrize("name,s,labels,buckets,label_set", INSTANCES)
@pytest.mark.xfail(
    strict=True,
    reason="a single shared report cannot give an unbiased product at jointly-"
    "nonzero entries; the offset is exactly -1/(l*(e^eps/Omega - 1/l)), see "
    "concatenation_entry_mse and notes in the module docstring",
)
def test_criterion_02_unbiased_concatenation(name, s, labels, buckets, label_set):
    rng = seeds_mod.generator(202, "concatenation", name)
    params = concatenation_params(s, labels, len(buckets), len(label_set), 1.0)
    support = np.concatenate([np.array(buckets), s + np.array(label_set)])
    est = _collision_per_report(support, params, rng, N_REPORTS)
    per_report = np.einsum("ni,nj->nij", est[:, :s], est[:, s:])
    truth = instance_answer(s, labels, buckets, label_set).astype(float)
    assert_mean_within_4_sigma(per_report, truth)


# ---------------------------------------------------------------------------
# criterion 3: bound conformance at beta in {0.01, 0.05, 0.1}, 1e4 trials


BETAS = (0.01, 0.05, 0.1)
N_TRIALS_BOUND = 10_000


def test_criterion_03_laplace_bound_conformance():
    rng = seeds_mod.generator(303, "laplace")
    params = PrivacyParams(0.5, PrivacyModel.CENTRAL, 1, 1, 3, 4)
    noise = sample_laplace(noise_scale(params), rng, size=(N_TRIALS_BOUND, 3, 4))
    bucket_dev = np.abs(noise).max(axis=2)
    for beta in BETAS:
        eta = laplace_accuracy_bound(params, beta)
        per_bucket = (bucket_dev >= eta).mean(axis=0)
        assert (per_bucket <= beta + 0.02).all()


def test_criterion_03_rr_bound_conformance():
    rng = seeds_mod.generator(303, "rr")
    s, labels, n = 3, 4, 300
    params = PrivacyParams(2.0, PrivacyModel.LOCAL, 2, 2, s, labels)
    answer = instance_answer(s, labels, (0, 2), (1, 3))
    truth = answer.astype(float) * n
    p = rr_flip_probability(params.epsilon, params.k, params.r)
    bucket_dev = np.empty((N_TRIALS_BOUND, s))
    chunk = 500
    for start in range(0, N_TRIALS_BOUND, chunk):
        m = min(chunk, N_TRIALS_BOUND - start)
        flips = rng.random((m, n, s, labels)) < p
        bits = answer[None, None] ^ flips.astype(np.uint8)
        est = (bits.sum(axis=1) - n * p) / (1 - 2 * p)
        bucket_dev[start : start + m] = np.abs(est - truth).max(axis=2)
    for beta in BETAS:
        eta = rr_accuracy_bound(params, n, beta)
        per_bucket = (bucket_dev >= eta).mean(axis=0)
        assert (per_bucket <= beta + 0.02).all()


def test_criterion_03_collision_bound_conformance():
    rng = seeds_mod.generator(303, "collision")
    s, labels, n = 3, 4, 300
    support = flatten_support(np.array([0, 2]), np.array([1, 3]), labels)
    params = CollisionParams.for_budget(s * labels, support.size, 1.0)
    truth = np.zeros(s * labels)
    truth[support] = n
    seeds, cells = collision_encode_batch(support, params, rng, N_TRIALS_BOUND * n)
    coords = np.arange(s * labels)
    hits = bucket_hash(seeds[:, None], coords[None, :], params.filter_length) == cells[:, None]
    per_trial_hits = hits.reshape(N_TRIALS_BOUND, n, -1).sum(axis=1)
    est = (per_trial_hits - n / params.filter_length) / params.estimator_denominator
    bucket_dev = np.abs(est - truth).reshape(N_TRIALS_BOUND, s, labels).max(axis=2)
    for beta in BETAS:
        eta = collision_accuracy_bound(params, n, labels, beta)
        per_bucket = (bucket_dev >= eta).mean(axis=0)
        assert (per_bucket <= beta + 0.02).all()


# ---------------------------------------------------------------------------
# criterion 4: MSE comparison figure (n=1, s=200, |Y|=50, k=2, r=2)


def test_criterion_04_mse_figure():
    grid = np.arange(1.0, 6.01, 0.5)
    curves = mse_comparison(200, 50, 2, 2, grid, trials=100_000, master_seed=404)
    assert (curves.concatenation <= curves.separation).all()
    high = grid >= 4.0
    assert (curves.concatenation[high] < curves.collision[high]).all()
    low = grid <= 2.0
    assert (curves.concatenation[low] >= curves.collision[low]).all()


# ---------------------------------------------------------------------------
# criterion 5: shuffle-model checks


def test_criterion_05a_amplification_closed_form():
    # independent recomputation of the closed form
    ee = math.exp(1.0)
    term = (
        8.0 * math.sqrt(ee * math.log(4.0 / 1e-6)) / math.sqrt(10_000)
        + 8.0 * ee / 10_000
    ) * (ee - 1.0) / (ee + 1.0)
    by_hand = math.log(1.0 + term)
    got = amplify_forward(1.0, 10_000, 1e-6)
    assert got == pytest.approx(by_hand, abs=1e-12)
    assert got == pytest.approx(0.214, abs=1e-3)


def test_criterion_05b_forward_invert_identity_grid():
    checked = 0
    for n in (3000, 10_000, 100_000, 1_000_000):
        for delta in (1e-5, 1e-6, 1e-8):
            limit = math.log(n / (16 * math.log(2 / delta)))
            for eps0 in np.linspace(0.05, limit * 0.98, 9):
                target = amplify_forward(float(eps0), n, delta)
                back = amplify_invert(target, n, delta)
                assert abs(back - eps0) <= 1e-6
                checked += 1
    assert checked >= 100


def test_criterion_05c_distributed_noise_goodness_of_fit():
    rng = seeds_mod.generator(505, "gof")
    n, aggregates = 50, 10_000
    q = discrete_laplace_parameter(1.0, 1, 1)
    totals = np.zeros(aggregates, dtype=np.int64)
    for _ in range(n):
        totals += sample_noise_share(n, 1.0, 1, 1, rng, size=aggregates)
    assert dlap_chisquare(totals, q) > 0.01


def test_criterion_05d_noiseless_round_trip_exact():
    rng = seeds_mod.generator(505, "round-trip")
    params = PrivacyParams(math.inf, PrivacyModel.SHUFFLE_MULTI, 2, 1, 4, 3, delta=1e-6)
    answers = [rng.integers(0, 4, size=(4, 3)) for _ in range(9)]
    decoded = multi_message_pipeline(
        np.sum(answers, axis=0), [a.sum() for a in answers], params, rng
    )
    assert np.array_equal(decoded, np.sum(answers, axis=0))


# ---------------------------------------------------------------------------
# criterion 6: reverse k-NN attains the brute-force arithmetic-mean optimum


def test_criterion_06_reverse_knn_optimality():
    rng = seeds_mod.generator(606)
    for trial in range(200):
        s = int(rng.integers(2, 5))
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 3))
        emb = rng.normal(size=(m, 2))
        queries = QuerySet(rng.normal(size=(s, 2)))
        greedy = reverse_knn_connect(emb, queries, k)
        best = brute_force_best_connection(emb, queries, k, ConnectionObjective.ARITHMETIC_MEAN)
        got = objective_value(
            connection_scores(emb, queries, greedy), ConnectionObjective.ARITHMETIC_MEAN
        )
        opt = objective_value(
            connection_scores(emb, queries, best), ConnectionObjective.ARITHMETIC_MEAN
        )
        assert abs(got - opt) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 7: partition invariance on 10 random datasets of 1e3 records


def test_criterion_07_partition_invariance():
    rng = seeds_mod.generator(707)
    params = PrivacyParams(1.0, PrivacyModel.CENTRAL, 2, 1, 6, 4)
    for trial in range(10):
        records = random_record_set(rng, m=1000, dim=3, label_count=4)
        queries = random_queries(rng, s=6, dim=3)
        outcome = verify_partition_invariance(
            records,
            queries,
            k=2,
            schemes=[
                PartitionScheme.IID,
                PartitionScheme.DIRICHLET,
                PartitionScheme.SINGLE_RECORD,
            ],
            n_clients=13,
            master_seed=trial,
            params=params,
            dirichlet_alpha=0.1,
        )
        assert outcome.applicable and outcome.pre_noise_equal and outcome.noisy_identical


# ---------------------------------------------------------------------------
# criterion 8: synthetic end-to-end


MNIST_SHAPED = SyntheticSpec(
    classes=10, per_class=6000, dim=8, separation=12.0, std=1.0, pub_per_class=500
)
N_SEEDS_E2E = 20


@pytest.fixture(scope="module")
def mnist_shaped_world():
    return generate_synthetic(MNIST_SHAPED, seed=808)


def test_criterion_08_central_end_to_end(mnist_shaped_world):
    records, public = mnist_shaped_world
    noiseless_params = PrivacyParams(math.inf, PrivacyModel.CENTRAL, 1, 1, 40, 10)
    noisy_params = PrivacyParams(0.1, PrivacyModel.CENTRAL, 1, 1, 40, 10)
    noiseless, noisy = [], []
    for seed in range(N_SEEDS_E2E):
        base = run_algorithm1(
            records, public.embeddings, noiseless_params, T=1, s=40, k=1,
            master_seed=seed, pub_true_labels=public.true_labels,
        )
        noiseless.append(base.acc_pl)
        run = run_algorithm1(
            records, public.embeddings, noisy_params, T=1, s=40, k=1,
            master_seed=seed, pub_true_labels=public.true_labels,
        )
        noisy.append(run.acc_pl)
    assert np.mean(noiseless) >= 0.99
    assert np.mean(noisy) >= np.mean(noiseless) - 0.02


def test_criterion_08_local_collision_degrades_gracefully(mnist_shaped_world):
    records, public = mnist_shaped_world
    params = PrivacyParams(0.4, PrivacyModel.LOCAL, 1, 1, 10, 10)
    cparams = CollisionParams.for_budget(100, 1, 0.4)
    observed, predicted = [], []
    for seed in range(N_SEEDS_E2E):
        run = run_algorithm1(
            records, public.embeddings, params, T=1, s=10, k=1,
            master_seed=seed, pub_true_labels=public.true_labels,
            mechanism="collision", partition_scheme=PartitionScheme.SINGLE_RECORD,
        )
        observed.append(run.acc_pl)
        exact = run.iterations[0].exact
        sd = collision_entry_std(exact, cparams, n=records.m)
        predicted.append(
            predict_labeling_accuracy(
                exact,
                run.cluster_assignment,
                public.true_labels,
                sd,
                seeds_mod.generator(808, "prediction", seed),
            )
        )
    assert abs(np.mean(observed) - np.mean(predicted)) <= 0.05


# ---------------------------------------------------------------------------
# criterion 9: sensitivity never exceeds 2kr; worst case attains it


def test_criterion_09_sensitivity_search():
    rng = seeds_mod.generator(909)
    swaps_per_shape = 10_000 // 6
    for k in (1, 2, 3):
        for r in (1, 2):
            bound = 2 * k * r
            records = random_record_set(rng, m=12, dim=3, label_count=4, r=r)
            queries = random_queries(rng, s=8, dim=3)
            base = pipeline_aggregate(records, queries, k)
            worst = 0.0
            for _ in range(swaps_per_shape):
                neighbor = swap_one_record(records, rng, r)
                diff = float(np.abs(base - pipeline_aggregate(neighbor, queries, k)).sum())
                worst = max(worst, diff)
            assert worst <= bound

    for k, r in ((1, 1), (2, 1), (3, 2)):
        left, right, queries = worst_case_neighbor_pair(s=2 * k + 1, k=k, r=r, label_count=r + 2)
        diff = np.abs(
            pipeline_aggregate(left, queries, k) - pipeline_aggregate(right, queries, k)
        ).sum()
        assert diff == 2 * k * r


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reproducibility, sequential vs parallel


def test_criterion_10_reproducibility(tmp_path):
    base = [
        "simulate", "--seed", "1001", "--classes", "5", "--per-class", "80",
        "--dim", "4", "--pub-per-class", "30", "--s", "5", "--epsilon", "1.0",
        "--trials", "6",
    ]
    paths = [tmp_path / name for name in ("seq_a.json", "seq_b.json", "par.json")]
    assert cli_main(base + ["--out", str(paths[0])]) == 0
    assert cli_main(base + ["--out", str(paths[1])]) == 0
    assert cli_main(base + ["--workers", "3", "--out", str(paths[2])]) == 0
    blob = paths[0].read_bytes()
    assert blob == paths[1].read_bytes()
    assert blob == paths[2].read_bytes()


def test_criterion_10_reproducibility_gse(tmp_path):
    # the same check through the sparse subset-release encoder
    base = [
        "simulate", "--seed", "1002", "--classes", "5", "--per-class", "80",
        "--dim", "4", "--pub-per-class", "30", "--s", "5", "--epsilon", "1.0",
        "--model", "local", "--mechanism", "gse", "--trials", "4",
    ]
    paths = [tmp_path / name for name in ("seq_a.json", "seq_b.json", "par.json")]
    assert cli_main(base + ["--out", str(paths[0])]) == 0
    assert cli_main(base + ["--out", str(paths[1])]) == 0
    assert cli_main(base + ["--workers", "2", "--out", str(paths[2])]) == 0
    blob = paths[0].read_bytes()
    assert blob == paths[1].read_bytes()
    assert blob == paths[2].read_bytes()
