import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privlabel import simulate as simulate_mod
from privlabel.core import PrivacyModel, PrivacyParams, QuerySet, RecordSet, record_votes
from privlabel.data import SyntheticSpec, generate_synthetic
from privlabel.geometry import reverse_knn_connect
from privlabel.simulate import (
    RELEASES,
    BudgetLedger,
    Partition,
    PartitionScheme,
    ProxyStudent,
    account_budget,
    partition_records,
    run_algorithm1,
    verify_partition_invariance,
)
from conftest import four_point_fixture, random_record_set


def fixture_world():
    """Fixture records plus a public pool of three tight blobs with truth."""
    records, queries = four_point_fixture()
    rng = np.random.default_rng(5)
    blobs, truth = [], []
    for center, label in zip(queries.embeddings, (0, 1, 1)):
        blobs.append(center + 0.05 * rng.normal(size=(30, 2)))
        truth.append(np.full(30, label))
    return records, np.concatenate(blobs), np.concatenate(truth)


def make_params(model, epsilon, s=3, k=1, labels=2, delta=0.0):
    return PrivacyParams(epsilon, model, k, 1, s, labels, delta=delta)


class TestPartition:
    def test_single_record_per_client(self, rng):
        records = random_record_set(rng, m=4, dim=2, label_count=3)
        part = partition_records(records, PartitionScheme.SINGLE_RECORD, 4, rng)
        assert sorted(part.client_of.tolist()) == [0, 1, 2, 3]

    def test_single_record_rejects_other_counts(self, rng):
        records = random_record_set(rng, m=4, dim=2, label_count=3)
        with pytest.raises(ValueError):
            partition_records(records, PartitionScheme.SINGLE_RECORD, 5, rng)
        with pytest.raises(ValueError):
            partition_records(records, PartitionScheme.SINGLE_RECORD, 3, rng)

    def test_iid_reproducible(self, rng):
        records = random_record_set(rng, m=50, dim=2, label_count=3)
        a = partition_records(records, PartitionScheme.IID, 5, np.random.default_rng(3))
        b = partition_records(records, PartitionScheme.IID, 5, np.random.default_rng(3))
        assert np.array_equal(a.client_of, b.client_of)

    def test_dirichlet_concentrates_to_uniform(self, rng):
        records = random_record_set(rng, m=4000, dim=2, label_count=4)
        part = partition_records(
            records, PartitionScheme.DIRICHLET, 4, rng, dirichlet_alpha=1e6
        )
        shares = np.bincount(part.client_of, minlength=4) / records.m
        assert np.allclose(shares, 0.25, atol=0.02)

    def test_dirichlet_alpha_positive(self, rng):
        records = random_record_set(rng, m=10, dim=2, label_count=3)
        with pytest.raises(ValueError):
            partition_records(records, PartitionScheme.DIRICHLET, 2, rng, dirichlet_alpha=0.0)

    @pytest.mark.parametrize("n_clients, m", [(1, 1), (7, 50), (100, 30), (60, 60)])
    def test_one_record_per_client_is_its_first_in_a_permutation(self, n_clients, m):
        # the reference sorts every record by client to find each client's first
        client_of = np.random.default_rng(m).integers(0, n_clients, m)
        perm = np.random.default_rng(3).permutation(m)
        _, first = np.unique(client_of[perm], return_index=True)
        partition = Partition(client_of, n_clients, PartitionScheme.IID)
        chosen = simulate_mod._one_record_per_client(partition, np.random.default_rng(3))
        assert chosen.tobytes() == perm[first].tobytes()

    def test_fractional_client_ids_rejected(self):
        # a cast would assign the records to clients 0 and 1
        with pytest.raises(ValueError, match="integers"):
            Partition(np.array([0.5, 1.7]), 3, PartitionScheme.IID)

    @pytest.mark.parametrize("n_clients, m", [(50, 50), (80, 50)])
    def test_one_record_clients_report_without_a_draw(self, n_clients, m):
        client_of = np.random.default_rng(m).permutation(n_clients)[:m]
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        chosen = simulate_mod._one_record_per_client(Partition(client_of, n_clients, PartitionScheme.IID), rng)
        assert rng.bit_generator.state == state
        assert chosen.tolist() == np.argsort(client_of).tolist()

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=4),
        st.integers(1, 200),
        st.sampled_from([0.01, 0.5, 10.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_dirichlet_split_equals_the_np_split_loop(self, class_sizes, n_clients, alpha, seed):
        records = _records_with_class_sizes(class_sizes)
        part = partition_records(records, PartitionScheme.DIRICHLET, n_clients, np.random.default_rng(seed), alpha)
        expected, _ = _dirichlet_split_reference(records, n_clients, np.random.default_rng(seed), alpha)
        assert part.client_of.tobytes() == expected.tobytes()

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=4),
        st.integers(1, 200),
        st.sampled_from([0.01, 0.5, 10.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_dirichlet_split_equals_the_searchsorted_form(self, class_sizes, n_clients, alpha, seed):
        # a one-member class and an unused last label ride along; sizes of at
        # most 50 leave most draws with more clients than some class has
        records = _records_with_class_sizes(class_sizes + [1, 0])
        part = partition_records(records, PartitionScheme.DIRICHLET, n_clients, np.random.default_rng(seed), alpha)
        expected = _dirichlet_searchsorted_reference(records, n_clients, np.random.default_rng(seed), alpha)
        assert part.client_of.tobytes() == expected.tobytes()

    def test_dirichlet_split_with_empty_clients_and_end_cuts(self):
        # alpha = 0.01 piles each class onto a few of 200 clients: most
        # clients stay empty and cuts fall at 0 and at the class size
        records = _records_with_class_sizes([50, 0, 1, 37])
        at_zero = at_size = 0
        for seed in range(20):
            part = partition_records(records, PartitionScheme.DIRICHLET, 200, np.random.default_rng(seed), 0.01)
            expected, cuts = _dirichlet_split_reference(records, 200, np.random.default_rng(seed), 0.01)
            assert part.client_of.tobytes() == expected.tobytes()
            assert np.unique(expected).size < 200
            at_zero += sum(int((c == 0).any()) for c in cuts)
            at_size += sum(int((c == size).any()) for c, size in zip(cuts, [50, 1, 37]))
        assert at_zero > 10 and at_size > 10

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_multi_label_records_split_by_their_argmax(self, r):
        # a record's class is the first 1 of its row, the row's argmax
        for seed in range(6):
            records = random_record_set(np.random.default_rng(seed), m=400, dim=2, label_count=5, r=r)
            for alpha in (0.05, 0.5, 10.0):
                part = partition_records(records, PartitionScheme.DIRICHLET, 30, np.random.default_rng(seed), alpha)
                expected = _dirichlet_searchsorted_reference(records, 30, np.random.default_rng(seed), alpha)
                assert part.client_of.tobytes() == expected.tobytes(), (seed, alpha)

    def test_every_record_assigned_once(self, rng):
        records = random_record_set(rng, m=300, dim=2, label_count=3)
        part = partition_records(records, PartitionScheme.DIRICHLET, 7, rng, 0.3)
        assert part.client_of.shape == (300,)
        assert part.client_of.min() >= 0 and part.client_of.max() < 7


def _records_with_class_sizes(class_sizes):
    """One-hot records: class c holds class_sizes[c] records, interleaved."""
    primary = np.repeat(np.arange(len(class_sizes)), class_sizes)
    primary = primary[np.random.default_rng(len(primary)).permutation(len(primary))]
    labels = np.zeros((len(primary), len(class_sizes)), dtype=np.uint8)
    labels[np.arange(len(primary)), primary] = 1
    return RecordSet(np.zeros((len(primary), 2)), labels)


def _dirichlet_split_reference(records, n_clients, rng, alpha):
    """Dirichlet partition dealt out chunk by chunk with np.split, and each
    class's cuts: the loop the vectorized split must reproduce."""
    primary = np.argmax(records.labels, axis=1)
    client_of = np.empty(records.m, dtype=np.int64)
    all_cuts = []
    for cls in np.unique(primary):
        members = np.flatnonzero(primary == cls)
        members = members[rng.permutation(members.size)]
        props = rng.dirichlet(np.full(n_clients, alpha))
        cuts = np.floor(np.cumsum(props)[:-1] * members.size).astype(np.int64)
        for cid, chunk in enumerate(np.split(members, cuts)):
            client_of[chunk] = cid
        all_cuts.append(cuts)
    return client_of, all_cuts


def _dirichlet_searchsorted_reference(records, n_clients, rng, alpha):
    """Dirichlet partition with the classes from np.unique and each member's
    client counted by searchsorted over the cuts."""
    primary = np.argmax(records.labels, axis=1)
    client_of = np.empty(records.m, dtype=np.int64)
    for cls in np.unique(primary):
        members = np.flatnonzero(primary == cls)
        members = members[rng.permutation(members.size)]
        props = rng.dirichlet(np.full(n_clients, alpha))
        cuts = np.floor(np.cumsum(props)[:-1] * members.size).astype(np.int64)
        client_of[members] = np.searchsorted(cuts, np.arange(members.size), side="right")
    return client_of


class TestProxyStudent:
    def test_predicts_nearest_centroid(self):
        emb = np.array([[0.0, 0.0], [10.0, 0.0]])
        student = ProxyStudent.fit(emb, np.array([3, 7]), label_count=10)
        assert student.predict(np.array([[1.0, 0.0], [9.0, 0.0]])).tolist() == [3, 7]

    def test_soft_labels_normalized_and_supported(self):
        emb = np.array([[0.0, 0.0], [10.0, 0.0]])
        student = ProxyStudent.fit(emb, np.array([0, 2]), label_count=3)
        soft = student.soft(np.array([[2.0, 0.0]]))
        assert soft.shape == (1, 3)
        assert soft.sum() == pytest.approx(1.0)
        assert soft[0, 1] == 0.0  # class never observed

    def test_deterministic(self):
        emb = np.random.default_rng(0).normal(size=(20, 3))
        labels = np.random.default_rng(1).integers(0, 4, size=20)
        a = ProxyStudent.fit(emb, labels, 4)
        b = ProxyStudent.fit(emb, labels, 4)
        x = np.random.default_rng(2).normal(size=(9, 3))
        assert np.array_equal(a.predict(x), b.predict(x))
        assert np.array_equal(a.soft(x), b.soft(x))


class TestRunAlgorithm1:
    def test_noiseless_central_fixture(self):
        records, pub, truth = fixture_world()
        params = make_params(PrivacyModel.CENTRAL, 1e6)
        result = run_algorithm1(
            records, pub, params, T=1, s=3, k=1, master_seed=42, pub_true_labels=truth
        )
        assert sorted(result.iterations[0].report.hard.tolist()) == [0, 1, 1]
        assert result.acc_pl == 1.0
        assert result.iterations[-1].report.empirical_eta < 1e-3

    @pytest.mark.parametrize("n_pub", (15, 12))
    def test_too_few_public_samples_for_the_uncertainty_rounds_rejected(self, monkeypatch, n_pub):
        # rounds 2..5 at s = 4 each label 4 samples no earlier round did: 16
        # are needed; 15 used to crash in round 5, 12 to stop after round 4
        selections = []
        monkeypatch.setattr(simulate_mod, "select_queries_cluster", lambda *a, **kw: selections.append(a))
        rng = np.random.default_rng(4)
        records = random_record_set(rng, m=60, dim=2, label_count=3)
        params = PrivacyParams(1.0, PrivacyModel.CENTRAL, 1, 1, 4, 3)
        with pytest.raises(ValueError, match=rf"max\(1, T - 1\) \* s = 16, got {n_pub}"):
            run_algorithm1(records, rng.normal(size=(n_pub, 2)), params, T=5, s=4, k=1, master_seed=1)
        assert selections == []

    def test_exactly_enough_public_samples_runs_every_round(self):
        rng = np.random.default_rng(4)
        records = random_record_set(rng, m=60, dim=2, label_count=3)
        params = PrivacyParams(1.0, PrivacyModel.CENTRAL, 1, 1, 4, 3)
        result = run_algorithm1(records, rng.normal(size=(16, 2)), params, T=5, s=4, k=1, master_seed=1)
        assert len(result.iterations) == 5
        assert result.ledger.epsilon_spent.max() == pytest.approx(1.0)
        assert all(outcome.query_indices.size == 4 for outcome in result.iterations[1:])

    def test_infinite_epsilon_equals_nonprivate(self):
        records, pub, truth = fixture_world()
        params = make_params(PrivacyModel.CENTRAL, math.inf)
        result = run_algorithm1(
            records, pub, params, T=1, s=3, k=1, master_seed=7, pub_true_labels=truth
        )
        outcome = result.iterations[0]
        assert np.array_equal(outcome.report.noisy_counts, outcome.exact)
        assert result.iterations[-1].report.empirical_eta == 0.0

    def test_tiny_epsilon_labels_near_uniform(self):
        records, pub, truth = fixture_world()
        params = make_params(PrivacyModel.CENTRAL, 0.001)
        noiseless = run_algorithm1(
            records, pub, make_params(PrivacyModel.CENTRAL, 1e9),
            T=1, s=3, k=1, master_seed=0,
        ).iterations[0].report.hard
        matches = []
        for seed in range(300):
            noisy = run_algorithm1(
                records, pub, params, T=1, s=3, k=1, master_seed=seed
            ).iterations[0].report.hard
            matches.append(np.mean(noisy == noiseless))
        rate = np.mean(matches)
        assert 0.35 < rate < 0.65  # ~ 1/|Y| with |Y| = 2

    def test_local_rr_and_collision_run(self):
        records, pub, truth = fixture_world()
        for mech in ("rr", "collision", "laplace", "gse"):
            params = make_params(PrivacyModel.LOCAL, 8.0)
            result = run_algorithm1(
                records, pub, params, T=1, s=3, k=1, master_seed=3,
                pub_true_labels=truth, mechanism=mech,
            )
            assert result.iterations[0].report.mechanism == mech
            assert result.public_hard_labels.shape == truth.shape

    def test_shuffle_models_run(self):
        records, pub, truth = fixture_world()
        multi = make_params(PrivacyModel.SHUFFLE_MULTI, 5.0, delta=1e-6)
        result = run_algorithm1(
            records, pub, multi, T=1, s=3, k=1, master_seed=3, pub_true_labels=truth
        )
        assert result.iterations[0].report.mechanism == "distributed-laplace"
        # single-message needs a large cohort for the amplification bound
        rng = np.random.default_rng(0)
        big = random_record_set(rng, m=3000, dim=2, label_count=2)
        pub_big = rng.normal(size=(40, 2))
        single = make_params(PrivacyModel.SHUFFLE_SINGLE, 0.9, s=3, delta=1e-6)
        result = run_algorithm1(big, pub_big, single, T=1, s=3, k=1, master_seed=4)
        assert result.iterations[0].report.mechanism == "shuffled-rr"

    def test_multi_iteration_uncertainty_flow(self):
        records, pub, truth = fixture_world()
        params = make_params(PrivacyModel.CENTRAL, 1e6)
        result = run_algorithm1(
            records, pub, params, T=2, s=3, k=1, master_seed=11, pub_true_labels=truth
        )
        assert len(result.iterations) == 2
        assert result.iterations[1].query_indices is not None
        ledger = result.ledger
        assert ledger.per_iteration_epsilon == [5e5, 5e5]
        assert ledger.queries_touched.max() <= 1 * 2

    @pytest.mark.parametrize("model, mechanism, delta, match", [
        (PrivacyModel.CENTRAL, "gse", 0.0, "no mechanism 'gse'"),
        (PrivacyModel.SHUFFLE_MULTI, "rr", 1e-6, "no mechanism 'rr'"),
        (PrivacyModel.LOCAL, "distributed-laplace", 0.0, "no mechanism"),
        (PrivacyModel.SHUFFLE_SINGLE, "gse", 1e-6, "too small"),  # 4 clients cannot amplify
    ], ids=["central-gse", "shuffle-multi-rr", "local-distributed-laplace", "shuffle-single-few-clients"])
    def test_bad_mechanism_fails_before_any_stage(self, monkeypatch, model, mechanism, delta, match):
        def must_not_run(*args, **kwargs):
            pytest.fail("query selection ran before the mechanism was checked")

        monkeypatch.setattr(simulate_mod, "select_queries_cluster", must_not_run)
        records, pub, _ = fixture_world()
        params = make_params(model, 1.0, delta=delta)
        with pytest.raises(ValueError, match=match):
            run_algorithm1(records, pub, params, T=1, s=3, k=1, master_seed=0, mechanism=mechanism)

    def test_gse_without_an_unbiased_estimate_fails_before_any_stage(self, monkeypatch):
        # k = 2 of s = 3 buckets and 2 labels: l = d - 1 = 5 cells, so every
        # output subset meets the 2-cell support and p_true = p_false
        def must_not_run(*args, **kwargs):
            pytest.fail("query selection ran before the gse parameters were checked")

        monkeypatch.setattr(simulate_mod, "select_queries_cluster", must_not_run)
        records, pub, _ = fixture_world()
        params = make_params(PrivacyModel.LOCAL, 1.0, k=2)
        with pytest.raises(ValueError, match="p_true must exceed p_false"):
            run_algorithm1(records, pub, params, T=1, s=3, k=2, master_seed=0, mechanism="gse")

    def test_shuffle_multi_q_underflow_is_noiseless(self):
        # q = exp(-5000/4) underflows to 0: DLap(0) is the point mass at 0,
        # as at eps = inf, so the release is the exact aggregate
        records, pub, _ = fixture_world()
        params = make_params(PrivacyModel.SHUFFLE_MULTI, 5000.0, delta=1e-6)
        result = run_algorithm1(records, pub, params, T=1, s=3, k=1, master_seed=2)
        iteration = result.iterations[0]
        assert np.array_equal(iteration.report.noisy_counts, iteration.exact)

    def test_shuffle_multi_q_of_one_fails_before_any_stage(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            pytest.fail("query selection ran before the noise parameter was checked")

        monkeypatch.setattr(simulate_mod, "select_queries_cluster", must_not_run)
        records, pub, _ = fixture_world()
        params = make_params(PrivacyModel.SHUFFLE_MULTI, 1e-17, delta=1e-6)
        with pytest.raises(ValueError, match="rounds to 1"):
            run_algorithm1(records, pub, params, T=1, s=3, k=1, master_seed=0)

    def test_parameter_consistency_enforced(self):
        records, pub, truth = fixture_world()
        params = make_params(PrivacyModel.CENTRAL, 1.0)
        with pytest.raises(ValueError, match="params.s"):
            run_algorithm1(records, pub, params, T=1, s=2, k=1, master_seed=0)
        with pytest.raises(ValueError, match="label_count"):
            bad = PrivacyParams(1.0, PrivacyModel.CENTRAL, 1, 1, 3, 5)
            run_algorithm1(records, pub, bad, T=1, s=3, k=1, master_seed=0)
        with pytest.raises(ValueError, match="public"):
            run_algorithm1(records, pub[:2], params, T=1, s=3, k=1, master_seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_public_embedding_fails_before_any_stage(self, monkeypatch, bad):
        def must_not_run(*args, **kwargs):
            pytest.fail("query selection ran on a non-finite public pool")

        monkeypatch.setattr(simulate_mod, "select_queries_cluster", must_not_run)
        records, pub, _ = fixture_world()
        pub[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            run_algorithm1(records, pub, make_params(PrivacyModel.CENTRAL, 1.0), T=1, s=3, k=1, master_seed=0)

    def test_reproducible_given_seed(self):
        records, pub, truth = fixture_world()
        params = make_params(PrivacyModel.CENTRAL, 0.5)
        a = run_algorithm1(records, pub, params, T=1, s=3, k=1, master_seed=9)
        b = run_algorithm1(records, pub, params, T=1, s=3, k=1, master_seed=9)
        assert np.array_equal(a.iterations[0].report.noisy_counts, b.iterations[0].report.noisy_counts)
        assert np.array_equal(a.public_hard_labels, b.public_hard_labels)


class TestPartitionInvariance:
    def test_aggregates_identical_across_schemes(self):
        records, queries = four_point_fixture()
        result = verify_partition_invariance(
            records,
            queries,
            k=1,
            schemes=[PartitionScheme.IID, PartitionScheme.DIRICHLET, PartitionScheme.SINGLE_RECORD],
            n_clients=2,
            master_seed=17,
            params=make_params(PrivacyModel.CENTRAL, 1.0),
        )
        assert result.applicable
        assert result.pre_noise_equal
        assert result.noisy_identical

    def test_shuffle_multi_noise_identical_across_schemes(self):
        # the release reads each scheme's partition, which sets only the modulus
        records, queries = four_point_fixture()
        result = verify_partition_invariance(
            records,
            queries,
            k=1,
            schemes=[PartitionScheme.IID, PartitionScheme.DIRICHLET, PartitionScheme.SINGLE_RECORD],
            n_clients=2,
            master_seed=17,
            params=make_params(PrivacyModel.SHUFFLE_MULTI, 1.0, delta=1e-6),
        )
        assert result.applicable and result.pre_noise_equal
        assert result.noisy_identical is True

    def test_random_datasets_agree(self, rng):
        for trial in range(5):
            records = random_record_set(rng, m=200, dim=3, label_count=4, r=2)
            queries = QuerySet(rng.normal(size=(6, 3)))
            outcome = verify_partition_invariance(
                records, queries, 2,
                [PartitionScheme.IID, PartitionScheme.DIRICHLET, PartitionScheme.SINGLE_RECORD],
                n_clients=9, master_seed=trial,
            )
            assert outcome.pre_noise_equal

    def test_memory_independent_of_client_count(self, rng):
        # each scheme's aggregate is counted in O(s * |Y|); the dense
        # (n_clients, s, |Y|) tensor would be m * s * |Y| * 8 = 15.6 MiB here
        m, s, labels = 5000, 40, 10
        records = random_record_set(rng, m=m, dim=4, label_count=labels)
        queries = QuerySet(rng.normal(size=(s, 4)))
        tracemalloc.start()
        try:
            outcome = verify_partition_invariance(
                records, queries, 2, [PartitionScheme.IID, PartitionScheme.SINGLE_RECORD],
                n_clients=50, master_seed=3,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outcome.pre_noise_equal
        assert peak < m * s * labels * 8 / 4

    @staticmethod
    def assert_run_ignores_the_partition(params):
        # the whole run, not one aggregate: each iteration's queries, exact
        # counts and noisy counts are the same bytes under every split
        spec = SyntheticSpec(classes=4, per_class=60, dim=3, separation=4.0, std=1.0, pub_per_class=15)
        records, public = generate_synthetic(spec, 31)
        runs = [
            run_algorithm1(
                records, public.embeddings, params, T=3, s=5, k=2, master_seed=23,
                partition_scheme=scheme, n_clients=7, dirichlet_alpha=0.1,
            )
            for scheme in (PartitionScheme.IID, PartitionScheme.DIRICHLET, PartitionScheme.SINGLE_RECORD)
        ]
        splits = [run.partition.client_of.tobytes() for run in runs]
        assert len(set(splits)) == 3
        for run in runs:
            assert len(run.iterations) == 3
            assert np.any(run.iterations[0].report.noisy_counts != run.iterations[0].exact)
        for t, outcome in enumerate(runs[0].iterations):
            for other in runs[1:]:
                same = other.iterations[t]
                assert same.query_embeddings.tobytes() == outcome.query_embeddings.tobytes(), t
                assert same.exact.tobytes() == outcome.exact.tobytes(), t
                assert same.report.noisy_counts.tobytes() == outcome.report.noisy_counts.tobytes(), t

    def test_central_run_ignores_the_partition(self):
        self.assert_run_ignores_the_partition(PrivacyParams(1.0, PrivacyModel.CENTRAL, 2, 1, 5, 4))

    def test_shuffle_multi_run_ignores_the_partition(self):
        # n sets only the modulus, and the noise totals are drawn per cell
        self.assert_run_ignores_the_partition(PrivacyParams(1.0, PrivacyModel.SHUFFLE_MULTI, 2, 1, 5, 4, delta=1e-6))

    def test_local_model_reports_inapplicable(self):
        records, queries = four_point_fixture()
        outcome = verify_partition_invariance(
            records, queries, 1, [PartitionScheme.IID], 2, 0,
            params=make_params(PrivacyModel.LOCAL, 1.0),
        )
        assert not outcome.applicable
        assert "partition" in outcome.reason


def test_only_the_release_table_names_a_privacy_model():
    # every per-model decision of simulate.py is an entry of RELEASES
    tree = ast.parse(Path(simulate_mod.__file__).read_text(encoding="utf-8"))
    table = next(
        node for node in tree.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node.target.id == "RELEASES"
    )
    inside = {id(node) for node in ast.walk(table)}
    members = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "PrivacyModel"
    ]
    assert {node.attr for node in members} == {model.name for model in PrivacyModel}
    assert [(node.lineno, node.attr) for node in members if id(node) not in inside] == []


class TestBudget:
    def test_even_split_and_totals(self):
        records, pub, truth = fixture_world()
        params = make_params(PrivacyModel.CENTRAL, 0.3)
        result = run_algorithm1(records, pub, params, T=3, s=3, k=1, master_seed=2)
        summary = account_budget(result.ledger, k=1, s=3)
        assert summary["iterations"] == 3
        assert summary["total_epsilon"] == pytest.approx(0.3)
        assert result.ledger.per_iteration_epsilon == pytest.approx([0.1, 0.1, 0.1])
        assert summary["max_queries_touched"] <= summary["touch_bound"] == 3
        assert summary["forward_knn_worst_case"] == 9

    def test_ledger_charge_accumulates(self):
        ledger = BudgetLedger.empty(4)
        ledger.charge(0.2, 1)
        ledger.charge(0.2, 1)
        assert np.allclose(ledger.epsilon_spent, 0.4)
        assert ledger.queries_touched.tolist() == [2, 2, 2, 2]


class TestSoftLabelMode:
    def test_soft_student_fit(self):
        emb = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 0.0]])
        soft = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        student = ProxyStudent.fit_soft(emb, soft, label_count=2)
        # the ambiguous point pulls both centroids toward the middle equally
        assert np.allclose(student.centroids, [[5.0 / 3, 0.0], [25.0 / 3, 0.0]])

    def test_soft_mode_runs_and_matches_hard_when_confident(self):
        records, pub, truth = fixture_world()
        params = make_params(PrivacyModel.CENTRAL, 1e6)
        hard = run_algorithm1(
            records, pub, params, T=1, s=3, k=1, master_seed=6,
            pub_true_labels=truth, label_mode="hard",
        )
        soft = run_algorithm1(
            records, pub, params, T=1, s=3, k=1, master_seed=6,
            pub_true_labels=truth, label_mode="soft",
        )
        assert soft.acc_pl == hard.acc_pl == 1.0
        assert np.array_equal(soft.public_hard_labels, hard.public_hard_labels)


def test_acc_pl_monotone_in_noise():
    from privlabel.data import SyntheticSpec, generate_synthetic

    spec = SyntheticSpec(
        classes=5, per_class=400, dim=4, separation=10.0, std=1.0, pub_per_class=60
    )
    records, public = generate_synthetic(spec, seed=31)
    means = {}
    for eps in (1.0, 0.01):
        params = PrivacyParams(eps, PrivacyModel.CENTRAL, 1, 1, 5, 5)
        accs = [
            run_algorithm1(
                records, public.embeddings, params, T=1, s=5, k=1,
                master_seed=seed, pub_true_labels=public.true_labels,
            ).acc_pl
            for seed in range(20)
        ]
        means[eps] = np.mean(accs)
    assert means[1.0] >= means[0.01]


def test_local_model_multi_record_clients_sample_one_record():
    # under local privacy each client reports a single uniformly chosen
    # record, so with a huge budget the estimate carries one vote per client
    rng = np.random.default_rng(44)
    records = random_record_set(rng, m=9, dim=2, label_count=2)
    pub = rng.normal(size=(12, 2))
    params = PrivacyParams(1e4, PrivacyModel.LOCAL, 1, 1, 3, 2)
    result = run_algorithm1(
        records, pub, params, T=1, s=3, k=1, master_seed=8,
        partition_scheme=PartitionScheme.IID, n_clients=3, mechanism="rr",
    )
    noisy = result.iterations[0].report.noisy_counts
    reporting = np.unique(result.partition.client_of).size
    assert noisy.sum() == pytest.approx(reporting, abs=1e-6)
    assert result.iterations[0].exact.sum() == 9  # the exact pipeline still counts all


@pytest.mark.parametrize("model, mechanism", list(RELEASES))
def test_every_model_mechanism_pair_runs(model, mechanism):
    rng = np.random.default_rng(12)
    records = random_record_set(rng, m=3000, dim=2, label_count=3)
    delta = 1e-6 if model in (PrivacyModel.SHUFFLE_MULTI, PrivacyModel.SHUFFLE_SINGLE) else 0.0
    params = PrivacyParams(0.9, model, 2, 1, 4, 3, delta=delta)
    result = run_algorithm1(
        records, rng.normal(size=(40, 2)), params, T=2, s=4, k=2, master_seed=5, mechanism=mechanism
    )
    expected = f"shuffled-{mechanism}" if model is PrivacyModel.SHUFFLE_SINGLE else mechanism
    for outcome in result.iterations:
        report = outcome.report
        assert report.mechanism == expected
        assert report.noisy_counts.shape == (4, 3) and np.isfinite(report.noisy_counts).all()
        assert (report.theoretical_eta is None) == (mechanism == "gse")
        if report.theoretical_eta is not None:
            assert 0.0 <= report.eta_exceed_rate <= 1.0


@pytest.mark.parametrize(
    "scheme, n_clients",
    [(PartitionScheme.IID, 7), (PartitionScheme.DIRICHLET, 40), (PartitionScheme.SINGLE_RECORD, None)],
)
def test_shuffle_multi_modulus_matches_per_client_reference(monkeypatch, scheme, n_clients):
    # the pipeline sums at the modulus sized from each client's vote count,
    # counted here client by client, with empty clients counted in n
    from privlabel import shuffle as shuffle_mod

    moduli = []
    choose = shuffle_mod.choose_modulus

    def spy(*args):
        moduli.append(choose(*args))
        return moduli[-1]

    monkeypatch.setattr(shuffle_mod, "choose_modulus", spy)
    rng = np.random.default_rng(21)
    records = random_record_set(rng, m=150, dim=2, label_count=3, r=2)
    params = PrivacyParams(0.9, PrivacyModel.SHUFFLE_MULTI, 2, 2, 4, 3, delta=1e-6)
    result = run_algorithm1(
        records, rng.normal(size=(40, 2)), params, T=1, s=4, k=2, master_seed=8,
        partition_scheme=scheme, n_clients=n_clients, dirichlet_alpha=0.1,
    )
    partition = result.partition
    queries = QuerySet(result.iterations[0].query_embeddings)
    connections = reverse_knn_connect(records.embeddings, queries, 2)
    votes = record_votes(records, connections)
    mass = np.array([votes[partition.client_of == client].size for client in range(partition.n_clients)])
    if scheme is PartitionScheme.DIRICHLET:
        assert (mass == 0).any()
    expected = choose(partition.n_clients * max(int(mass.max()), 1), 2, 2, 0.9)
    assert moduli == [expected]


@pytest.mark.parametrize("k, r, s", itertools.product((1, 2), (1, 2), (3, 1)))
def test_record_votes_match_dense_votes(k, r, s):
    # the flat votes equal the nonzero cells of each chosen record's dense
    # vote matrix, also when s < k caps the degree
    rng = np.random.default_rng(10 * k + r)
    records = random_record_set(rng, m=50, dim=2, label_count=4, r=r)
    connections = reverse_knn_connect(records.embeddings, QuerySet(rng.normal(size=(s, 2))), k)
    chosen = rng.permutation(50)[:20]
    dense = np.zeros((20, s, 4), dtype=np.uint8)
    for col in range(connections.degree):
        dense[np.arange(20), connections.indices[chosen, col], :] |= records.labels[chosen]
    expected = np.stack([np.flatnonzero(row) for row in dense.reshape(20, -1)])
    assert np.array_equal(record_votes(records, connections)[chosen], expected)


def test_eta_exceed_rate_is_per_bucket():
    # eta(beta) bounds each bucket's max error: over 20 seeds x 40 buckets the
    # share of buckets reaching eta stays within a binomial tolerance of beta
    from privlabel.data import SyntheticSpec, generate_synthetic

    spec = SyntheticSpec(classes=10, per_class=100, dim=4, separation=10.0, std=1.0, pub_per_class=10)
    records, public = generate_synthetic(spec, seed=3)
    params = PrivacyParams(0.1, PrivacyModel.CENTRAL, 1, 1, 40, 10)
    rates = [
        run_algorithm1(records, public.embeddings, params, T=1, s=40, k=1, master_seed=seed)
        .iterations[0].report.eta_exceed_rate
        for seed in range(20)
    ]
    beta, buckets = 0.05, 20 * 40
    assert np.mean(rates) <= beta + 3.0 * math.sqrt(beta * (1.0 - beta) / buckets)
