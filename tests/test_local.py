import itertools
import math

import numpy as np
import pytest

from privlabel.core import PrivacyModel, PrivacyParams, flatten_support
from privlabel.local import (
    MECHANISMS,
    CollisionParams,
    GseParams,
    bucket_hash,
    collision_accuracy_bound,
    collision_cell_pmf,
    collision_encode_batch,
    collision_hit_counts,
    collision_indicator_estimates,
    collision_indicator_moments,
    collision_pmfs,
    collision_report_estimates,
    concatenation_entry_mse,
    concatenation_params,
    default_filter_length,
    gse_encode_batch,
    gse_estimate,
    gse_pmfs,
    gse_subset_probability,
    local_laplace_accuracy_bound,
    rr_accuracy_bound,
    rr_bit_pmfs,
    rr_encode_batch,
    rr_estimate,
    rr_flip_probability,
    rr_matrix_pmfs,
    separation_entry_mse,
    separation_params,
    verify_local_dp,
)


def local_params(epsilon, k=1, r=1, s=2, labels=2):
    return PrivacyParams(epsilon, PrivacyModel.LOCAL, k, r, s, labels)


def one_record_answer(buckets, labels, s, label_count):
    answer = np.zeros((s, label_count), dtype=np.uint8)
    for b in buckets:
        answer[b, list(labels)] = 1
    return answer


class TestRandomizedResponse:
    def test_flip_probability_values(self):
        assert rr_flip_probability(2 * math.log(3), 1, 1) == pytest.approx(0.25)
        assert rr_flip_probability(1e9, 1, 1) == pytest.approx(0.0, abs=1e-12)
        assert rr_flip_probability(1e-9, 1, 1) == pytest.approx(0.5, abs=1e-9)

    def test_huge_epsilon_keeps_input(self, rng):
        params = local_params(1e6)
        answer = one_record_answer([0], [1], 2, 2)[None]
        assert np.array_equal(rr_encode_batch(answer, params, rng), answer)

    def test_non_binary_rejected(self, rng):
        with pytest.raises(ValueError, match="binary"):
            rr_encode_batch(np.array([[[2, 0]]]), local_params(1.0, s=1), rng)

    def test_aggregate_sampler_matches_closed_form_and_summed_reports(self, rng):
        # the rr entry draws the summed bits directly; its estimate is unbiased
        # with variance n p (1-p) / (1-2p)^2 per cell, and its sums follow the
        # law of summed per-report rr_encode_batch bits
        from scipy import stats

        params = local_params(1.0, s=1, labels=2)
        n, trials = 30, 20_000
        supports = (np.arange(n) < n // 3).astype(np.int64)[:, None]  # 10 reports vote for cell 1
        truth = np.array([n - n // 3, n // 3])
        p = rr_flip_probability(1.0, 1, 1)
        estimates = np.array([MECHANISMS["rr"].release(supports, params, rng) for _ in range(trials)])
        var = n * p * (1 - p) / (1 - 2 * p) ** 2
        assert np.abs(estimates.mean(axis=0) - truth).max() < 5 * math.sqrt(var / trials)
        assert estimates.var(axis=0) == pytest.approx([var, var], rel=0.05)
        answers = np.zeros((n, 1, 2), dtype=np.uint8)
        answers[np.arange(n), 0, supports[:, 0]] = 1
        summed = np.array([rr_encode_batch(answers, params, rng).sum(axis=0)[0] for _ in range(5000)])
        drawn = np.rint(estimates * (1 - 2 * p) + n * p)
        for cell in range(2):
            assert stats.ks_2samp(drawn[:, cell], summed[:, cell]).pvalue > 0.001

    def test_estimate_fixture(self):
        # eps' = ln 3 per bit: p = 1/4, single client
        params = local_params(2 * math.log(3))
        assert rr_estimate(np.array([1.0]), params, 1)[0] == pytest.approx(1.5)
        assert rr_estimate(np.array([0.0]), params, 1)[0] == pytest.approx(-0.5)
        # expectation when the true bit is 1
        assert 0.75 * 1.5 + 0.25 * (-0.5) == pytest.approx(1.0)

    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError):
            rr_estimate(np.zeros(2), local_params(1.0), 0)

    def test_estimator_unbiased_at_zero_truth(self, rng):
        params = local_params(1.0, s=1, labels=2)
        n, trials = 40, 100_000
        p = rr_flip_probability(1.0, 1, 1)
        # all-zero truth: observed sums are Binomial(n, p) per entry
        sums = rng.binomial(n, p, size=trials)
        estimates = (sums - n * p) / (1 - 2 * p)
        sigma = estimates.std() / math.sqrt(trials)
        assert abs(estimates.mean()) < 4 * sigma

    def test_bound_scales_as_sqrt_n(self):
        params = local_params(0.5)
        assert rr_accuracy_bound(params, 4 * 1000, 0.05) == pytest.approx(
            2 * rr_accuracy_bound(params, 1000, 0.05)
        )

    def test_bound_substitution(self):
        # eps' = ln 3: prefactor (3+1)/(3-1) = 2, tail sqrt(3 n ln(|Y|/beta)/4)
        params = local_params(2 * math.log(3), labels=10)
        n, beta = 500, 0.05
        expected = 2.0 * math.sqrt(3 * n * math.log(10 / beta) / 4.0)
        assert rr_accuracy_bound(params, n, beta) == pytest.approx(expected)

    def test_small_epsilon_asymptotic_within_ten_percent(self):
        for eps_prime in (0.05, 0.02):
            params = local_params(2 * eps_prime, labels=10)
            exact = rr_accuracy_bound(params, 500, 0.05)
            approx = (4 / (2 * eps_prime)) * math.sqrt(3 * 500 * math.log(10 / 0.05) / 2)
            assert abs(exact - approx) / exact < 0.10


class TestLocalLaplace:
    def test_bound_is_max_of_two_branches(self):
        params = local_params(0.5, labels=10)
        load = math.log(10 / 0.05)
        for n in (1, 10, 1000):
            quad = math.sqrt(8 * load * n * n / 0.25)
            tail = 4 * load / 0.5
            assert local_laplace_accuracy_bound(params, n, 0.05) == pytest.approx(
                max(quad, tail)
            )

    def test_noise_variance_adds_across_clients(self, rng):
        # the summed noise of n Laplace(b) reports has mean 0 and variance 2 n b^2
        params = local_params(1.0, s=1, labels=2)
        n, trials = 8, 20_000
        supports = np.zeros((n, 1), dtype=np.int64)  # every report votes for cell 0
        totals = np.array([MECHANISMS["laplace"].release(supports, params, rng) for _ in range(trials)])
        expected = n * 2.0 * (2.0 / 1.0) ** 2
        assert np.abs(totals.mean(axis=0) - [n, 0]).max() < 5 * math.sqrt(expected / trials)
        assert totals.var(axis=0) == pytest.approx([expected, expected], rel=0.05)

    def test_infinite_epsilon_noiseless(self, rng):
        params = local_params(math.inf, s=1, labels=2)
        estimate = MECHANISMS["laplace"].release(np.array([[0], [0], [1]]), params, rng)
        assert np.array_equal(estimate, [2.0, 1.0])
        assert MECHANISMS["laplace"].bound(params, 3, 0.05) == 0.0


_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _reference_hash(seed: int, value: int, filter_length: int) -> int:
    """The bucket hash in Python integers, one (seed, value) cell at a time."""
    x = (_splitmix64(seed) ^ _splitmix64(value + 1)) * 0xD6E8FEB86659FD93 & _M64
    return (x ^ (x >> 29)) % filter_length


class TestBucketHash:
    LENGTHS = (2, 3, 139, 2 ** 31 + 11, 2 ** 62 - 57)

    def test_scalar_seed_matches_python_integer_reference(self, rng):
        values = np.arange(10_001, dtype=np.int64)
        for seed in (0, 1, 2 ** 63 - 1, int(rng.integers(2 ** 63, dtype=np.uint64))):
            for l in self.LENGTHS:
                got = bucket_hash(seed, values, l)
                assert got.dtype == np.int64 and got.shape == values.shape
                step = 1 if l == 139 else 97  # every value once, a stride for the rest
                want = [_reference_hash(seed, v, l) for v in range(0, 10_001, step)]
                assert got[::step].tolist() == want

    def test_seed_column_matches_python_integer_reference(self, rng):
        seeds = np.concatenate([
            np.array([0, 1, 2 ** 63 - 1], dtype=np.uint64),
            rng.integers(0, 2 ** 63, size=5, dtype=np.uint64),
        ])
        values = np.concatenate([[0, 1, 10_000], rng.integers(0, 10_001, size=60)])
        for l in self.LENGTHS:
            got = bucket_hash(seeds[:, None], values, l)
            assert got.dtype == np.int64 and got.shape == (seeds.size, values.size)
            want = [[_reference_hash(int(s), int(v), l) for v in values] for s in seeds]
            assert got.tolist() == want


class TestCollisionEncoding:
    def test_default_filter_length(self):
        assert default_filter_length(1, math.log(2)) == 3
        assert default_filter_length(1, 1.0) == 4  # 1 + e rounds up
        assert default_filter_length(1, 1e-6) == 2  # floor at 2

    def test_fixture_probabilities(self):
        params = CollisionParams.for_budget(8, 1, math.log(2))
        assert params.filter_length == 3 and params.omega == pytest.approx(4.0)
        pmf = collision_cell_pmf(np.array([5]), params, hash_seed=99)
        hit = bucket_hash(99, np.array([5]), 3)[0]
        assert pmf[hit] == pytest.approx(0.5)
        assert np.allclose(np.delete(pmf, hit), 0.25)

    def test_zero_budget_outputs_uniform(self):
        params = CollisionParams(8, 2, 0.0, 5)
        pmf = collision_cell_pmf(np.array([1, 4]), params, hash_seed=7)
        assert np.allclose(pmf, 0.2)

    def test_pmf_sums_to_one_for_random_supports(self, rng):
        for _ in range(1000):
            c = int(rng.integers(1, 5))
            params = CollisionParams.for_budget(12, c, float(rng.uniform(0.1, 3.0)))
            support = rng.choice(12, size=c, replace=False)
            pmf = collision_cell_pmf(support, params, int(rng.integers(2 ** 60)))
            assert pmf.min() >= 0
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_wrong_support_size_rejected(self, rng):
        params = CollisionParams.for_budget(8, 2, 1.0)
        with pytest.raises(ValueError, match="support"):
            collision_encode_batch(np.array([3]), params, rng, 1)

    def test_batch_encoder_matches_exact_pmf(self, rng):
        params = CollisionParams.for_budget(6, 2, 1.0)
        support = np.array([1, 4])
        seeds, cells = collision_encode_batch(support, params, rng, 60_000)
        # conditional frequencies per hash seed are intractable; the joint
        # (hit-or-not) rate is exact to check: sum over support of P[z=H(v)]
        hashed = bucket_hash(seeds[:, None], support[None, :], params.filter_length)
        hit_rate = (hashed == cells[:, None]).any(axis=1).mean()
        kappa = (np.sort(hashed, axis=1)[:, 1:] != np.sort(hashed, axis=1)[:, :-1]).sum(axis=1) + 1
        expected = (kappa * params.hit_probability).mean()
        assert hit_rate == pytest.approx(expected, abs=0.01)


class TestCollisionEstimation:
    def test_estimator_substitution(self):
        params = CollisionParams.for_budget(8, 1, math.log(2))
        est = collision_indicator_estimates(np.array([4242], dtype=np.uint64), np.array([1]), params)
        hits = bucket_hash(4242, np.arange(8), 3) == 1
        assert np.allclose(est, 6.0 * hits - 2.0)

    def test_never_hit_coordinate_estimates_negative(self, rng):
        params = CollisionParams.for_budget(8, 1, math.log(2))
        seeds, cells = collision_encode_batch(np.array([0]), params, rng, 20)
        est = collision_indicator_estimates(seeds, cells, params)
        missed = ~(bucket_hash(seeds[:, None], np.arange(8), 3) == cells[:, None]).any(axis=0)
        assert (est[missed] < 0).all()

    def test_monte_carlo_unbiased_c2_d8(self, rng):
        params = CollisionParams.for_budget(8, 2, 1.0)
        support = np.array([2, 5])
        n = 100_000
        seeds, cells = collision_encode_batch(support, params, rng, n)
        est = collision_indicator_estimates(seeds, cells, params)
        truth = np.zeros(8)
        truth[support] = n / n  # per-report mean is the indicator
        _, m2_one = collision_indicator_moments(params, True)
        _, m2_zero = collision_indicator_moments(params, False)
        sd = np.sqrt(np.where(truth > 0, m2_one - 1.0, m2_zero))
        assert (np.abs(est / n - truth) <= 4 * sd / math.sqrt(n)).all()

    @pytest.mark.parametrize("d, c, n", [(8, 2, 500), (10_000, 4, 40), (None, 2, 5)])
    def test_chunking_leaves_estimates_byte_identical(self, d, c, n, rng, monkeypatch):
        import privlabel.local as local_mod

        default = local_mod._COLLISION_CHUNK_CELLS
        d = d or default + 3  # a domain wider than one block: one report per block
        params = CollisionParams.for_budget(d, c, 1.0)
        supports = np.sort(np.argsort(rng.random((n, d)), axis=1)[:, :c], axis=1)
        seeds, cells = collision_encode_batch(supports, params, rng, n)
        columns = (slice(None), np.array([2, 5]), slice(3, 6))
        # the dense recomputation every block layout must reproduce
        hits = bucket_hash(seeds[:, None], np.arange(d), params.filter_length) == cells[:, None]
        expected_counts = np.stack([hits[:, cols].sum(axis=1) for cols in columns])
        expected_rows = (hits - 1.0 / params.filter_length) / params.estimator_denominator
        expected_sums = (hits.sum(axis=0) - n / params.filter_length) / params.estimator_denominator
        # the default, one report per block, 7-report blocks with a short last
        # one, and the whole batch in one block
        for chunk_cells in (default, 1, 7 * d, n * d):
            monkeypatch.setattr(local_mod, "_COLLISION_CHUNK_CELLS", chunk_cells)
            assert np.array_equal(collision_hit_counts(seeds, cells, params, columns), expected_counts)
            assert collision_report_estimates(seeds, cells, params).tobytes() == expected_rows.tobytes()
            assert collision_indicator_estimates(seeds, cells, params).tobytes() == expected_sums.tobytes()

    def test_estimation_rejects_zero_budget(self):
        params = CollisionParams(8, 1, 0.0, 3)
        with pytest.raises(ValueError, match="filter"):
            collision_indicator_estimates(np.array([1], dtype=np.uint64), np.array([0]), params)


class TestCollisionBound:
    def test_closed_form_value(self):
        params = CollisionParams.for_budget(40, 1, 1.0)
        e = math.e
        prefactor = (e + 1) * (2 * e) / ((e * e - 1) - (e - 1))
        expected = prefactor * math.sqrt(2 * 100 * math.log(10 / 0.05) / 4)
        assert collision_accuracy_bound(params, 100, 10, 0.05) == pytest.approx(expected)
        assert collision_accuracy_bound(params, 100, 10, 0.05) == pytest.approx(70.44203, abs=1e-4)

    def test_monotone_decreasing_in_epsilon(self):
        values = []
        for eps in np.linspace(0.05, 1.0, 12):
            params = CollisionParams.for_budget(40, 2, float(eps))
            values.append(collision_accuracy_bound(params, 1000, 10, 0.05))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_beats_rr_bound_by_sqrt_kr_factor(self):
        # kr = 16 at eps = 0.1: the ratio sits between 2 and 8 (~sqrt(16))
        pp = PrivacyParams(0.1, PrivacyModel.LOCAL, k=4, r=4, s=20, label_count=10)
        rr = rr_accuracy_bound(pp, 1000, 0.05)
        cparams = CollisionParams.for_budget(200, 16, 0.1)
        col = collision_accuracy_bound(cparams, 1000, 10, 0.05)
        assert 2.0 <= rr / col <= 8.0


class TestCollisionVsRrEmpirical:
    def test_collision_smaller_max_error_high_privacy(self, rng):
        # kr = 4, eps = 0.2, one shared instance, n clients
        s, labels, k, r = 4, 4, 2, 2
        eps, n, trials = 0.2, 400, 60
        params = local_params(eps, k=k, r=r, s=s, labels=labels)
        answer = one_record_answer([0, 1], [0, 1], s, labels)
        truth = answer.astype(float) * n
        support = np.flatnonzero(answer.ravel())
        cparams = CollisionParams.for_budget(s * labels, k * r, eps)
        rr_err, col_err = [], []
        p = rr_flip_probability(eps, k, r)
        for _ in range(trials):
            flips = rng.random((n, s, labels)) < p
            bits = answer[None, :, :] ^ flips.astype(np.uint8)
            rr_est = rr_estimate(bits.sum(axis=0), params, n)
            rr_err.append(np.abs(rr_est - truth).max())
            seeds, cells = collision_encode_batch(support, cparams, rng, n)
            col = collision_indicator_estimates(seeds, cells, cparams).reshape(s, labels)
            col_err.append(np.abs(col - truth).max())
        assert np.mean(col_err) < np.mean(rr_err)

    def test_error_grows_as_sqrt_n(self, rng):
        params = local_params(0.5, s=1, labels=2)
        p = rr_flip_probability(0.5, 1, 1)
        means = []
        for n in (500, 2000):
            errs = []
            for _ in range(1000):
                sums = rng.binomial(n, p, size=2)
                errs.append(np.abs(rr_estimate(sums, params, n)).max())
            means.append(np.mean(errs))
        assert 1.8 <= means[1] / means[0] <= 2.2


class TestGse:
    def test_fixture_distribution(self):
        params = GseParams(4, 1, math.log(2), 1, 1)
        assert params.omega == pytest.approx(5.0)
        support = np.array([2])
        assert gse_subset_probability([2], support, params) == pytest.approx(0.4)
        for other in (0, 1, 3):
            assert gse_subset_probability([other], support, params) == pytest.approx(0.2)

    def test_fixture_estimator(self):
        params = GseParams(4, 1, math.log(2), 1, 1)
        assert params.p_true == pytest.approx(0.4)
        assert params.p_false == pytest.approx(0.2)
        member = np.zeros(4, dtype=bool)
        member[2] = True
        est = gse_estimate(member, params)
        assert est[2] == pytest.approx((1 - 0.2) / 0.2)
        assert est[0] == pytest.approx(-0.2 / 0.2)

    def test_zero_budget_uniform_and_estimator_rejected(self, rng):
        params = GseParams(5, 2, 0.0, 2, 1)
        support = np.array([0, 3])
        probs = [
            gse_subset_probability(z, support, params)
            for z in itertools.combinations(range(5), 2)
        ]
        assert np.allclose(probs, 1.0 / len(probs))
        member = gse_encode_batch(support, params, rng, 4)
        with pytest.raises(ValueError, match="p_true"):
            gse_estimate(member, params)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            GseParams(4, 1, 1.0, 5, 1)  # l > d
        with pytest.raises(ValueError):
            GseParams(6, 2, 1.0, 2, 3)  # alpha_min > min(c, l)

    def test_unbiased_by_full_enumeration(self):
        params = GseParams(5, 2, 0.7, 2, 1)
        support = np.array([1, 3])
        expectation = np.zeros(5)
        mass = 0.0
        for z in itertools.combinations(range(5), 2):
            prob = gse_subset_probability(z, support, params)
            mass += prob
            member = np.zeros(5, dtype=bool)
            member[list(z)] = True
            expectation += prob * (member - params.p_false) / (params.p_true - params.p_false)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(expectation, [0, 1, 0, 1, 0], atol=1e-12)

    def test_alpha_two_weights(self):
        params = GseParams(5, 2, 1.0, 2, 2)
        support = np.array([0, 1])
        assert gse_subset_probability([0, 1], support, params) == pytest.approx(
            math.e / params.omega
        )
        assert gse_subset_probability([0, 2], support, params) == pytest.approx(
            1.0 / params.omega
        )

    def test_sampler_matches_exact_pmf(self, rng):
        # per-report supports: alternate rows carry different supports, and
        # each row's subsets must follow the exact pmf of its own support
        from scipy import stats

        params = GseParams(6, 2, 1.0, 3, 1)
        supports = np.array([[1, 4], [0, 5]])
        outputs = list(itertools.combinations(range(6), 3))
        index = np.zeros(1 << 6, dtype=np.int64)
        for i, z in enumerate(outputs):
            index[sum(1 << v for v in z)] = i
        n = 40_000
        member = gse_encode_batch(np.tile(supports, (n // 2, 1)), params, rng, n)
        assert (member.sum(axis=1) == 3).all()
        codes = index[member.astype(np.int64) @ (1 << np.arange(6))]
        for row, support in enumerate(supports):
            exact = np.array([gse_subset_probability(z, support, params) for z in outputs])
            counts = np.bincount(codes[row::2], minlength=len(outputs))
            _, pvalue = stats.chisquare(counts, exact * (n // 2))
            assert pvalue > 0.001

    def test_monte_carlo_sum_tracks_truth(self, rng):
        params = GseParams(8, 2, 1.2, 3, 1)
        support = np.array([2, 6])
        n = 10_000
        member = gse_encode_batch(support, params, rng, n)
        est = gse_estimate(member, params)
        truth = np.zeros(8)
        truth[support] = n
        per_report_var = (
            params.p_true * (1 - params.p_true) / params.estimator_denominator ** 2
        )
        sd = math.sqrt(n * per_report_var)
        assert (np.abs(est - truth) <= 4 * sd + 1e-9).all()

    @pytest.mark.parametrize("eps", [0.0, 0.7, 3.0])
    def test_law_matches_subset_enumeration(self, eps):
        # reference: weigh every size-l subset of the domain on its own,
        # e^eps when it meets the support {0..c-1} in at least alpha cells
        for d in range(1, 9):
            for c, l in itertools.product(range(1, d + 1), repeat=2):
                subsets = list(itertools.combinations(range(d), l))
                overlaps = [sum(v < c for v in z) for z in subsets]
                for alpha in range(1, min(c, l) + 1):
                    params = GseParams(d, c, eps, l, alpha)
                    weights = np.array([math.exp(eps) if i >= alpha else 1.0 for i in overlaps])
                    probs = weights / weights.sum()
                    pmf = np.bincount(overlaps, weights=probs, minlength=min(c, l) + 1)
                    p_true = sum(p for z, p in zip(subsets, probs) if 0 in z)
                    p_false = sum(p for z, p in zip(subsets, probs) if d - 1 in z) if d > c else 0.0
                    case = (d, c, l, alpha)
                    assert params.omega == pytest.approx(weights.sum(), rel=1e-12), case
                    assert np.abs(params.law.pmf - pmf).max() <= 1e-12, case
                    assert abs(params.p_true - p_true) <= 1e-12, case
                    assert abs(params.p_false - p_false) <= 1e-12, case
                    support = np.arange(c)
                    exact = [gse_subset_probability(z, support, params) for z in subsets]
                    assert np.abs(np.array(exact) - probs).max() <= 1e-12, case
                    if d > c and np.ptp(weights) == 0:  # uniform output: nothing to estimate
                        assert params.estimator_denominator == 0.0, case

    @pytest.mark.parametrize("l", [300, 800])
    @pytest.mark.parametrize("eps", [1.0, 5.0])
    def test_law_finite_on_a_large_domain(self, l, eps):
        params = GseParams(2000, 2, eps, l)
        assert math.isfinite(params.law.log_omega) and np.isfinite(params.law.pmf).all()
        assert params.law.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < params.p_false < params.p_true < 1.0


class TestSeparationConcatenation:
    def test_separation_zero_entries_unbiased(self, rng):
        s, labels, k, r = 4, 3, 1, 1
        pair = separation_params(s, labels, k, r, epsilon=2.0)
        n = 30_000
        buckets = collision_encode_batch(np.array([0]), pair[0], rng, n)
        label_reports = collision_encode_batch(np.array([1]), pair[1], rng, n)
        # the separation product: outer(bucket estimate, label estimate) summed over clients
        est = collision_report_estimates(*buckets, pair[0]).T @ collision_report_estimates(*label_reports, pair[1]) / n
        # entries with a zero factor have mean zero; the (0,1) entry is 1
        sd = math.sqrt(separation_entry_mse(pair, False, False) / n)
        assert abs(est[2, 2]) < 6 * sd
        sd11 = math.sqrt(separation_entry_mse(pair, True, True) / n)
        assert abs(est[0, 1] - 1.0) < 6 * sd11

    def test_separation_splits_budget_evenly(self):
        pair = separation_params(6, 4, 2, 1, epsilon=3.0)
        assert pair[0].epsilon == pytest.approx(1.5)
        assert pair[1].epsilon == pytest.approx(1.5)
        assert pair[0].domain_size == 6 and pair[1].domain_size == 4

    def test_concatenation_domain_and_support(self):
        params = concatenation_params(6, 4, 2, 1, epsilon=3.0)
        assert params.domain_size == 10 and params.support_size == 3
        assert params.epsilon == pytest.approx(3.0)

    def test_concatenation_zero_entries_unbiased_and_joint_entry_biased(self, rng):
        s, labels, k, r = 4, 3, 1, 1
        params = concatenation_params(s, labels, k, r, epsilon=1.0)
        n = 60_000
        seeds, cells = collision_encode_batch(np.array([0, s + 1]), params, rng, n)
        # the concatenation product: one report's bucket part times its label part
        rows = collision_report_estimates(seeds, cells, params)
        est = rows[:, :s].T @ rows[:, s:] / n
        sd00 = math.sqrt(concatenation_entry_mse(params, False, False) / n)
        assert abs(est[2, 2]) < 6 * sd00
        # the shared report leaves a known offset at jointly-nonzero entries
        predicted = -1.0 / (params.filter_length * params.estimator_denominator)
        spread = math.sqrt(concatenation_entry_mse(params, True, True) / n)
        assert abs(est[0, 1] - predicted) < 6 * spread

    def test_analytic_mse_matches_simulation(self, rng):
        s, labels, k, r = 3, 3, 1, 1
        params = concatenation_params(s, labels, k, r, epsilon=1.5)
        n = 80_000
        seeds, cells = collision_encode_batch(np.array([1, s + 0]), params, rng, n)
        est = collision_report_estimates(seeds, cells, params)
        truth = np.zeros((s, labels))
        truth[1, 0] = 1.0
        simulated = ((est[:, :s, None] * est[:, None, s:] - truth) ** 2).mean(axis=0)
        for in_b, in_l, cell in ((True, True, (1, 0)), (False, False, (0, 1)), (True, False, (1, 1))):
            assert simulated[cell] == pytest.approx(
                concatenation_entry_mse(params, in_b, in_l), rel=0.15
            )

    def test_vectorized_estimates_equal_per_report_sums(self, rng):
        # reference: the sum over reports of outer products of each report's
        # own indicator estimates, against the products of the report rows
        def one(seed, cell, params):
            return collision_indicator_estimates(np.array([seed], dtype=np.uint64), np.array([cell]), params)

        s, labels = 4, 3
        pair = separation_params(s, labels, 1, 1, epsilon=2.0)
        buckets = collision_encode_batch(np.array([0]), pair[0], rng, 50)
        label_reports = collision_encode_batch(np.array([1]), pair[1], rng, 50)
        loop = sum(
            np.outer(one(*b, pair[0]), one(*y, pair[1])) for b, y in zip(zip(*buckets), zip(*label_reports))
        )
        product = collision_report_estimates(*buckets, pair[0]).T @ collision_report_estimates(*label_reports, pair[1])
        assert np.allclose(product, loop, rtol=1e-12, atol=1e-9)
        params = concatenation_params(s, labels, 1, 1, epsilon=1.0)
        seeds, cells = collision_encode_batch(np.array([0, s + 1]), params, rng, 50)
        loop = sum(np.outer(one(z, c, params)[:s], one(z, c, params)[s:]) for z, c in zip(seeds, cells))
        rows = collision_report_estimates(seeds, cells, params)
        assert np.allclose(rows[:, :s].T @ rows[:, s:], loop, rtol=1e-12, atol=1e-9)

    def test_high_budget_mse_decreases(self, rng):
        s, labels, k, r = 4, 3, 1, 1
        mse = []
        for eps in (0.5, 4.0, 10.0):
            params = concatenation_params(s, labels, k, r, eps)
            mse.append(concatenation_entry_mse(params, False, False))
        assert mse[0] > mse[1] > mse[2]
        # collision-style reports keep residual variance even as eps grows
        assert mse[2] > 0


class TestVerifyLocalDp:
    def test_rr_single_bit_exact_ratio(self):
        inputs, pmf = rr_bit_pmfs(math.log(3))
        assert verify_local_dp(inputs, pmf) == pytest.approx(math.log(3), abs=1e-12)

    def test_rr_matrix_level(self):
        params = local_params(1.0, k=1, r=1, s=2, labels=2)
        inputs, pmf = rr_matrix_pmfs(params)
        assert verify_local_dp(inputs, pmf) <= 1.0 + 1e-9

    def test_collision_fixed_hash_within_budget(self, rng):
        eps = math.log(2)
        params = CollisionParams.for_budget(4, 1, eps)
        for seed in rng.integers(0, 2 ** 60, size=25):
            inputs, pmf = collision_pmfs(params, int(seed))
            assert verify_local_dp(inputs, pmf) <= eps + 1e-9

    def test_gse_fixture_exact_ratio(self):
        params = GseParams(4, 1, math.log(2), 1, 1)
        inputs, pmf = gse_pmfs(params)
        assert verify_local_dp(inputs, pmf) == pytest.approx(math.log(2), abs=1e-12)

    def test_guard_on_instance_size(self):
        inputs = list(range(2000))
        with pytest.raises(ValueError, match="large"):
            verify_local_dp(inputs, lambda x: np.ones(1000) / 1000)


def test_flatten_support_row_major():
    flat = flatten_support(np.array([1, 3]), np.array([0, 2]), label_count=4)
    assert sorted(flat.tolist()) == [4, 6, 12, 14]


def test_collision_error_grows_as_sqrt_n(rng):
    params = CollisionParams.for_budget(8, 1, 0.5)
    support = np.array([3])
    means = []
    for n in (400, 1600):
        errs = []
        for _ in range(1000):
            seeds, cells = collision_encode_batch(support, params, rng, n)
            est = collision_indicator_estimates(seeds, cells, params)
            truth = np.zeros(8)
            truth[3] = n
            errs.append(np.abs(est - truth).max())
        means.append(np.mean(errs))
    assert 1.8 <= means[1] / means[0] <= 2.2


@pytest.mark.parametrize("encode, params", [
    (collision_encode_batch, CollisionParams.for_budget(8, 2, 1.0)),
    (gse_encode_batch, GseParams(8, 2, 1.0, 3)),
])
def test_per_report_supports_validated(encode, params, rng):
    with pytest.raises(ValueError, match="distinct"):
        encode(np.array([[1, 2], [3, 3]]), params, rng, 2)
    with pytest.raises(ValueError, match="range"):
        encode(np.array([[1, 2], [3, 8]]), params, rng, 2)
    with pytest.raises(ValueError, match="n_reports"):
        encode(np.array([[1, 2], [3, 4]]), params, rng, 3)
    with pytest.raises(ValueError, match="expected 2"):
        encode(np.array([[1, 2, 3]]), params, rng, 1)


class TestSaturatedFilter:
    def test_full_filter_renormalizes_to_uniform(self):
        # more support elements than cells: every cell can be hit, and the
        # exponential branch must renormalize instead of summing past 1
        params = CollisionParams(domain_size=6, support_size=3, epsilon=1.0, filter_length=2)
        rng = np.random.default_rng(2)
        saturated = 0
        for _ in range(200):
            seed = int(rng.integers(0, 2 ** 62))
            pmf = collision_cell_pmf(np.array([0, 2, 4]), params, seed)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            hashed = bucket_hash(seed, np.array([0, 2, 4]), 2)
            if np.unique(hashed).size == 2:
                saturated += 1
                assert np.allclose(pmf, 0.5)
        assert saturated > 0

    def test_saturated_filter_still_private(self):
        params = CollisionParams(domain_size=4, support_size=2, epsilon=0.7, filter_length=2)
        rng = np.random.default_rng(3)
        for _ in range(25):
            inputs, pmf = collision_pmfs(params, int(rng.integers(0, 2 ** 62)))
            assert verify_local_dp(inputs, pmf) <= 0.7 + 1e-9


def test_batch_encoder_saturated_filter_stays_in_range(rng):
    params = CollisionParams(domain_size=6, support_size=3, epsilon=1.0, filter_length=2)
    supports = np.array([[0, 2, 4]])
    repeated = np.repeat(supports, 5000, axis=0)
    seeds, cells = collision_encode_batch(repeated, params, rng, 5000)
    assert cells.min() >= 0 and cells.max() < 2
    # saturated reports are uniform over both cells
    hashed = np.sort(bucket_hash(seeds[:, None], supports, 2), axis=1)
    distinct = (hashed[:, 1:] != hashed[:, :-1]).sum(axis=1) + 1
    saturated = distinct == 2
    assert saturated.sum() > 100
    assert abs(cells[saturated].mean() - 0.5) < 0.05
