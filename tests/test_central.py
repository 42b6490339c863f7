import math
from dataclasses import replace

import numpy as np
import pytest

from privlabel.central import (
    central_laplace_mechanism,
    laplace_accuracy_bound,
    laplace_inverse_cdf,
    log_density_ratio,
    noise_scale,
    pipeline_aggregate,
    sample_laplace,
    verify_sensitivity,
    worst_case_neighbor_pair,
)
from privlabel.core import PrivacyModel, PrivacyParams, RecordSet
from conftest import bisector_near_ties, random_queries, random_record_set, swap_one_record


def make_params(epsilon=0.1, k=1, r=1, s=2, labels=10):
    return PrivacyParams(epsilon, PrivacyModel.CENTRAL, k, r, s, labels)


class TestSampler:
    def test_median_maps_to_zero(self):
        assert laplace_inverse_cdf(0.5, scale=3.0) == 0.0

    def test_quartiles(self):
        # F(-b ln 2... P[X <= -b*ln2] = 0.25 for Laplace(b)
        assert laplace_inverse_cdf(0.25, 1.0) == pytest.approx(-math.log(2))
        assert laplace_inverse_cdf(0.75, 1.0) == pytest.approx(math.log(2))

    def test_mean_close_to_zero(self, rng):
        draws = sample_laplace(1.0, rng, size=1_000_000)
        assert abs(draws.mean()) < 0.01

    def test_variance_matches_2b_squared(self, rng):
        draws = sample_laplace(2.0, rng, size=1_000_000)
        assert draws.var() == pytest.approx(8.0, rel=0.03)

    def test_nonpositive_scale_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_laplace(0.0, rng)
        with pytest.raises(ValueError):
            sample_laplace(-1.0, rng)


class TestMechanism:
    def test_noise_scale_formula(self):
        assert noise_scale(make_params(epsilon=0.1, k=1, r=1)) == pytest.approx(20.0)

    def test_infinite_epsilon_is_identity(self, rng):
        params = make_params(epsilon=math.inf)
        agg = np.arange(20).reshape(2, 10)
        assert np.array_equal(central_laplace_mechanism(agg, params, rng), agg)

    def test_output_real_valued_and_shifted(self, rng):
        params = make_params()
        agg = np.zeros((2, 10))
        noisy = central_laplace_mechanism(agg, params, rng)
        assert noisy.dtype == np.float64
        assert not np.array_equal(noisy, agg)

    def test_wrong_model_rejected(self, rng):
        params = PrivacyParams(1.0, PrivacyModel.LOCAL, 1, 1, 2, 10)
        with pytest.raises(ValueError, match="central"):
            central_laplace_mechanism(np.zeros((2, 10)), params, rng)

    def test_unbiased_per_entry(self, rng):
        params = make_params(epsilon=1.0, s=1, labels=2)
        agg = np.array([[5.0, 11.0]])
        n = 100_000
        noise = sample_laplace(noise_scale(params), rng, size=(n, 1, 2))
        samples = agg + noise
        mean = samples.mean(axis=0)
        sigma = samples.std(axis=0) / math.sqrt(n)
        assert (np.abs(mean - agg) < 4 * sigma).all()


class TestBound:
    def test_worked_example(self):
        eta = laplace_accuracy_bound(make_params(0.1, 1, 1, 2, 10), beta=0.05)
        assert eta == pytest.approx(105.96634, abs=1e-4)

    def test_doubling_k_doubles_eta(self):
        base = laplace_accuracy_bound(make_params(k=1), 0.05)
        assert laplace_accuracy_bound(make_params(k=2), 0.05) == pytest.approx(2 * base)

    def test_monotone_in_beta(self):
        params = make_params()
        assert laplace_accuracy_bound(params, 0.01) > laplace_accuracy_bound(params, 0.2)

    def test_per_bucket_failure_rate_within_beta_slack(self, rng):
        # the guarantee is per bucket; the max-over-buckets rate is reported
        # separately and may exceed beta
        params = make_params(epsilon=0.5, s=3, labels=4)
        b = noise_scale(params)
        for beta in (0.05, 0.1):
            eta = laplace_accuracy_bound(params, beta)
            noise = sample_laplace(b, rng, size=(4000, 3, 4))
            per_bucket = (np.abs(noise).max(axis=2) >= eta).mean(axis=0)
            assert (per_bucket <= beta + 0.02).all()


class TestDistributionalPrivacy:
    def test_log_density_ratio_bounded_by_epsilon(self, rng):
        params = make_params(epsilon=0.8, k=2, r=1, s=2, labels=3)
        scale = noise_scale(params)
        records = random_record_set(rng, m=6, dim=2, label_count=3)
        queries = random_queries(rng, s=2, dim=2)
        a = pipeline_aggregate(records, queries, params.k).astype(float)
        b = pipeline_aggregate(swap_one_record(records, rng, 1), queries, params.k).astype(float)
        assert np.abs(a - b).sum() <= params.sensitivity
        for _ in range(50):
            z = central_laplace_mechanism(a, params, rng)
            ratio = log_density_ratio(a, b, z, scale)
            assert abs(ratio) <= params.epsilon + 1e-9


class TestSensitivityVerifier:
    def test_label_only_swap_within_two(self, rng):
        def pairs():
            records = random_record_set(rng, m=5, dim=2, label_count=3)
            queries = random_queries(rng, s=4, dim=2)
            labels = records.labels.copy()
            labels[0] = np.roll(labels[0], 1)
            return records, replace(records, labels=labels), queries

        assert verify_sensitivity(pairs, k=1, trials=50) <= 2

    def test_identical_connections_same_label_no_change(self, rng):
        def pairs():
            records = random_record_set(rng, m=4, dim=2, label_count=3)
            queries = random_queries(rng, s=3, dim=2)
            emb = records.embeddings.copy()
            emb[0] += 1e-9  # nudge too small to change any nearest query
            return records, replace(records, embeddings=emb), queries

        assert verify_sensitivity(pairs, k=2, trials=20) == 0.0

    def test_adversarial_swap_attains_exactly_2kr(self):
        left, right, queries = worst_case_neighbor_pair(s=4, k=2, r=1, label_count=3)
        diff = np.abs(
            pipeline_aggregate(left, queries, 2) - pipeline_aggregate(right, queries, 2)
        ).sum()
        assert diff == 4

    def test_worst_case_for_larger_r(self):
        left, right, queries = worst_case_neighbor_pair(s=6, k=3, r=2, label_count=4)
        diff = np.abs(
            pipeline_aggregate(left, queries, 3) - pipeline_aggregate(right, queries, 3)
        ).sum()
        assert diff == 2 * 3 * 2

    def test_near_ties_keep_remove_one_within_kr_and_swap_within_2kr(self):
        # records on the bisector of two queries: if a record's connection
        # depended on the other records, removing one could move their votes too
        for seed in range(300):
            records, queries = bisector_near_ties(seed)
            full = pipeline_aggregate(records, queries, 1)
            for j in range(records.m):
                rest = records.subset(np.delete(np.arange(records.m), j))
                assert np.abs(pipeline_aggregate(rest, queries, 1) - full).sum() <= 1, (seed, j)
                emb, labels = records.embeddings.copy(), records.labels.copy()
                emb[j], labels[j] = emb[j - 1], np.roll(labels[j], 1)
                swapped = pipeline_aggregate(RecordSet(emb, labels), queries, 1)
                assert np.abs(swapped - full).sum() <= 2, (seed, j)
