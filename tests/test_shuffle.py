import math
import time

import numpy as np
import pytest
from scipy import stats

import privlabel.shuffle as shuffle_mod
from privlabel.core import PrivacyModel, PrivacyParams
from privlabel.shuffle import (
    amplification_validity_limit,
    amplify_forward,
    amplify_invert,
    choose_modulus,
    discrete_laplace_parameter,
    discrete_laplace_pmf,
    discrete_laplace_std,
    expected_noise_messages,
    multi_message_accuracy_bound,
    multi_message_pipeline,
    sample_noise_share,
    single_message_params,
)


def shuffle_params(epsilon=1.0, k=1, r=1, s=2, labels=2, delta=1e-6, single=False):
    model = PrivacyModel.SHUFFLE_SINGLE if single else PrivacyModel.SHUFFLE_MULTI
    return PrivacyParams(epsilon, model, k, r, s, labels, delta=delta)


def dlap_chisquare(samples: np.ndarray, q: float, span: int = None) -> float:
    """Chi-square p-value of integer samples against the two-sided geometric."""
    if span is None:
        span = max(2, int(np.percentile(np.abs(samples), 99)))
    edges = np.arange(-span, span + 1)
    observed = np.array([(samples == v).sum() for v in edges], dtype=float)
    probs = discrete_laplace_pmf(edges, q)
    # geometric tail mass beyond +-span
    tail = q ** (span + 1) / (1.0 + q)
    observed = np.concatenate([[(samples < -span).sum()], observed, [(samples > span).sum()]])
    probs = np.concatenate([[tail], probs, [tail]])
    # merge under-filled bins into their inward neighbor until all expected >= 5
    while probs.size > 2 and (probs * samples.size).min() < 5:
        i = int(np.argmin(probs))
        j = i + 1 if i < probs.size // 2 else i - 1
        probs[j] += probs[i]
        observed[j] += observed[i]
        probs = np.delete(probs, i)
        observed = np.delete(observed, i)
    probs /= probs.sum()
    _, pvalue = stats.chisquare(observed, probs * samples.size)
    return pvalue


class TestNoiseShares:
    def test_single_client_share_is_discrete_laplace(self):
        rng = np.random.default_rng(7)
        q = discrete_laplace_parameter(1.0, 1, 1)
        shares = sample_noise_share(1, 1.0, 1, 1, rng, size=200_000)
        assert dlap_chisquare(shares, q) > 0.01

    def test_share_mean_zero(self):
        rng = np.random.default_rng(11)
        shares = sample_noise_share(10, 0.5, 1, 1, rng, size=200_000)
        sigma = shares.std() / math.sqrt(shares.size)
        assert abs(shares.mean()) < 4 * sigma

    def test_aggregated_shares_match_discrete_laplace(self):
        rng = np.random.default_rng(13)
        n, trials = 100, 40_000
        q = discrete_laplace_parameter(1.0, 1, 1)
        shares = np.zeros(trials, dtype=np.int64)
        for _ in range(n):
            shares += sample_noise_share(n, 1.0, 1, 1, rng, size=trials)
        assert dlap_chisquare(shares, q) > 0.01

    def test_scale_matches_target_laplace(self):
        # the aggregate pmf is proportional to exp(-|x| eps / (4kr))
        q = discrete_laplace_parameter(0.8, 2, 1)
        assert q == pytest.approx(math.exp(-0.8 / 8.0))
        assert discrete_laplace_pmf(np.array([3]), q)[0] == pytest.approx(
            (1 - q) / (1 + q) * q ** 3
        )


class TestMultiMessage:
    def test_zero_noise_gives_exactly_kr_messages(self, rng):
        params = shuffle_params(epsilon=math.inf, k=2, r=1, s=3, labels=2)
        answer = np.zeros((3, 2), dtype=int)
        answer[0, 1] = 1
        answer[2, 0] = 1  # one record, k=2, r=1 -> two unit votes; four empty clients
        decoded = multi_message_pipeline(answer, [2, 0, 0, 0, 0], params, rng)
        assert np.array_equal(decoded, answer)  # no noise, only the two votes
        assert np.flatnonzero(decoded).tolist() == [1, 4]

    @pytest.mark.parametrize("n", (1, 40))
    def test_expected_message_count(self, n):
        params = shuffle_params(epsilon=1.0, s=2, labels=2)
        d = 20_000
        shares = sample_noise_share(n, 1.0, 1, 1, np.random.default_rng(n), size=(n, d))
        extra = np.count_nonzero(shares) / n  # nonzero shares per client
        predicted = expected_noise_messages(n, d, 1.0, 1, 1)
        assert extra == pytest.approx(predicted, rel=0.02)
        # stays within a constant factor of the d k^2 r^2 log^2(1/delta)/(eps^2 n) envelope
        envelope = d * math.log(1 / params.delta) ** 2 / (1.0 * n)
        assert extra <= 2.0 * envelope

    def test_expected_message_count_counts_ties(self):
        # one client's share is zero exactly when its two geometric draws tie
        q = discrete_laplace_parameter(1.0, 1, 1)
        assert expected_noise_messages(1, 1, 1.0, 1, 1) == pytest.approx(1 - (1 - q) / (1 + q), rel=1e-12)
        assert expected_noise_messages(7, 5, math.inf, 1, 1) == 0.0

    @pytest.mark.parametrize("n", (2, 40, 1000))
    @pytest.mark.parametrize("epsilon", (0.1, 1.0, 5.0))
    def test_expected_message_count_matches_pmf_sum(self, n, epsilon):
        # 1 - sum_x P(NB(1/n, q) = x)^2, summed out to a 1e-18 tail
        q = discrete_laplace_parameter(epsilon, 1, 1)
        nb = stats.nbinom(1.0 / n, 1.0 - q)
        x = np.arange(int(nb.isf(1e-18)) + 1)
        exact = 1.0 - math.fsum(nb.pmf(x) ** 2)
        assert expected_noise_messages(n, 3, epsilon, 1, 1) == pytest.approx(3 * exact, rel=1e-10)

    @pytest.mark.parametrize("epsilon", (1e-6, 1e-9, 1e-12))
    def test_expected_message_count_at_tiny_epsilon_is_quick(self, epsilon):
        # q -> 1 needs no series out to the O(1/(1-q)) tail
        q = discrete_laplace_parameter(epsilon, 1, 1)
        start = time.perf_counter()
        one = expected_noise_messages(1, 1, epsilon, 1, 1)
        many = expected_noise_messages(60_000, 1, epsilon, 1, 1)
        assert time.perf_counter() - start < 1.0
        assert one == pytest.approx(1 - (1 - q) / (1 + q), rel=1e-12)
        assert 0.0 < many < one

    def test_noiseless_round_trip_is_exact_aggregate(self, rng):
        params = shuffle_params(epsilon=math.inf, k=1, r=1, s=3, labels=2)
        answers = [rng.integers(0, 3, size=(3, 2)) for _ in range(7)]
        decoded = multi_message_pipeline(
            np.sum(answers, axis=0), [a.sum() for a in answers], params, rng
        )
        assert np.array_equal(decoded, np.sum(answers, axis=0))

    def test_inputs_checked(self, rng):
        params = shuffle_params(s=1, labels=2)
        with pytest.raises(ValueError, match="nonnegative integers"):
            multi_message_pipeline(np.array([[-1, 2]]), [1], params, rng)
        with pytest.raises(ValueError, match="nonnegative integers"):
            multi_message_pipeline(np.array([[0.5, 0.5]]), [1], params, rng)
        with pytest.raises(ValueError, match="at least one client"):
            multi_message_pipeline(np.zeros((1, 2), dtype=int), [], params, rng)
        with pytest.raises(ValueError, match="sum to the aggregate"):
            multi_message_pipeline(np.array([[1, 2]]), [1, 1], params, rng)

    def test_decode_error_distribution(self, rng):
        params = shuffle_params(epsilon=1.0, s=1, labels=2)
        q = discrete_laplace_parameter(1.0, 1, 1)
        n = 10
        counts = np.array([[n, 0]])
        errors = []
        for _ in range(4000):
            noisy = multi_message_pipeline(counts, np.ones(n, dtype=int), params, rng)
            errors.extend((noisy - counts).ravel().tolist())
        assert dlap_chisquare(np.asarray(errors, dtype=np.int64), q) > 0.01

    def test_empty_clients_send_shares(self, rng):
        # one client holds every vote; the nine empty ones must still add their
        # shares, or the noise total falls far short of DLap(q)
        params = shuffle_params(epsilon=1.0, s=1, labels=2)
        q = discrete_laplace_parameter(1.0, 1, 1)
        counts = np.array([[3, 0]])
        client_mass = np.array([3] + [0] * 9)
        errors = np.concatenate(
            [(multi_message_pipeline(counts, client_mass, params, rng) - counts).ravel() for _ in range(4000)]
        )
        assert dlap_chisquare(errors.astype(np.int64), q) > 0.01

    def test_accuracy_bound_formula_and_conformance(self, rng):
        params = shuffle_params(epsilon=1.0, s=2, labels=4)
        beta = 0.05
        eta = multi_message_accuracy_bound(params, beta)
        assert eta == pytest.approx(4 * math.log(4 / beta) / 1.0)
        n = 6
        counts = np.zeros((2, 4), dtype=int)
        fails = np.zeros(2)
        trials = 2000
        for _ in range(trials):
            noisy = multi_message_pipeline(counts, np.zeros(n, dtype=int), params, rng)
            fails += np.abs(noisy).max(axis=1) >= eta
        assert (fails / trials <= beta + 0.02).all()


def pooled_release(counts, client_mass, params, rng):
    """The message-pool protocol, written out: every client draws a dense
    noise share per cell (``sample_noise_share``) and sends one (cell, 1)
    message per vote and one (cell, share mod M) per nonzero share; the pool
    is permuted, summed mod M per cell and recentred.  In the noiseless limit
    q = 0 every share is 0 and no noise message is sent."""
    flat = np.asarray(counts, dtype=np.int64).ravel()
    n, d = len(client_mass), flat.size
    modulus = shuffle_mod.choose_modulus(n * max(int(np.max(client_mass)), 1), params.k, params.r, params.epsilon)
    if discrete_laplace_parameter(params.epsilon, params.k, params.r) == 0.0:
        shares = np.zeros((n, d), dtype=np.int64)
    else:
        shares = sample_noise_share(n, params.epsilon, params.k, params.r, rng, size=(n, d))
    clients, cells = np.nonzero(shares)
    pool = np.concatenate([
        np.column_stack([np.repeat(np.arange(d), flat), np.ones(flat.sum(), dtype=np.int64)]),
        np.column_stack([cells, np.mod(shares[clients, cells], modulus)]),
    ])
    pool = pool[rng.permutation(len(pool))]
    totals = np.zeros(d, dtype=np.int64)
    np.add.at(totals, pool[:, 0], pool[:, 1])
    totals %= modulus
    totals = np.where(totals > modulus // 2, totals - modulus, totals)
    return totals.reshape(np.shape(counts)).astype(np.float64)


def same_law_pvalue(x, y, bins):
    """Chi-square p-value that integer samples x and y share one law, over
    at most ``bins`` bins cut at the pooled sample's quantiles; bins with
    fewer than 10 draws of the two together are left out."""
    edges = np.unique(np.quantile(np.concatenate([x, y]), np.linspace(0, 1, bins + 1)[1:-1]))
    table = np.stack([np.bincount(np.searchsorted(edges, v, side="right"), minlength=edges.size + 1) for v in (x, y)])
    table = table[:, table.sum(axis=0) >= 10]
    return stats.chi2_contingency(table)[1] if table.shape[1] > 1 else 1.0


def releases(release, counts, client_mass, params, seed, trials):
    """(trials, cells) released counts of ``trials`` runs of ``release``."""
    rng = np.random.default_rng(seed)
    return np.stack([release(counts, client_mass, params, rng).ravel() for _ in range(trials)])


class TestPooledReference:
    """The release has the law of the shuffled message pool's decode, built
    from every client's dense noise shares."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_shapes(self, seed):
        rng = np.random.default_rng(300 + seed)
        k, r = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        s, labels, n = int(rng.integers(1, 6)), int(rng.integers(2, 6)), int(rng.integers(1, 60))
        counts = rng.integers(0, 30, size=(s, labels))
        # split the votes over n clients, many of them empty
        client_mass = np.bincount(rng.integers(0, max(1, n // 3), size=counts.sum()), minlength=n)
        eps = float(rng.choice([0.05, 0.5, 2.0, 8.0]))
        params = shuffle_params(epsilon=eps, k=k, r=r, s=s, labels=labels)
        got = releases(multi_message_pipeline, counts, client_mass, params, seed, 300)
        want = releases(pooled_release, counts, client_mass, params, 1000 + seed, 300)
        # the errors over every cell: a vote in the wrong cell shifts them
        errors = [(v - counts.ravel()).ravel() for v in (got, want)]
        assert same_law_pvalue(*errors, bins=10) > 0.001

    def test_noiseless(self):
        params = shuffle_params(epsilon=math.inf, k=2, r=1, s=3, labels=4)
        counts = np.random.default_rng(5).integers(0, 9, size=(3, 4))
        client_mass = np.array([counts.sum(), 0, 0])
        got = multi_message_pipeline(counts, client_mass, params, np.random.default_rng(5))
        want = pooled_release(counts, client_mass, params, np.random.default_rng(5))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, counts)

    def test_wraparound(self, monkeypatch):
        # at M = 8 the exact counts and the noise totals both wrap
        monkeypatch.setattr(shuffle_mod, "choose_modulus", lambda *args: 8)
        params = shuffle_params(epsilon=0.3, s=4, labels=3)
        counts = np.random.default_rng(6).integers(0, 40, size=(4, 3))
        assert (counts > 4).any()
        client_mass = np.bincount(np.arange(counts.sum()) % 7, minlength=10)
        got = releases(multi_message_pipeline, counts, client_mass, params, 6, 400)
        want = releases(pooled_release, counts, client_mass, params, 7, 400)
        assert ((got >= -3) & (got <= 4)).all()
        # each (cell, released value) pair is its own bin
        keys = [(v + 3 + 8 * np.arange(counts.size)).ravel() for v in (got, want)]
        assert same_law_pvalue(*keys, bins=8 * counts.size) > 0.001


def noise_release(n, d, rng):
    """The release's noise at eps = 1, k = r = 1: d empty cells, n empty clients."""
    params = shuffle_params(epsilon=1.0, s=d // 2, labels=2)
    zeros = np.zeros((d // 2, 2), dtype=np.int64)
    return multi_message_pipeline(zeros, np.zeros(n, dtype=np.int64), params, rng).ravel().astype(np.int64)


class TestSparseNoiseMessages:
    """The noise messages: each client sends its nonzero dense shares, and
    the release adds their per-cell sum, drawn directly from its law."""

    @pytest.mark.parametrize("n", (1, 3, 50))
    def test_pool_matches_dense_shares(self, n):
        # the per-cell sums of n clients' nonzero dense shares against the
        # release's noise: the law must not depend on n
        rng = np.random.default_rng(100 + n)
        d = 20_000
        shares = sample_noise_share(n, 1.0, 1, 1, rng, size=(n, d))
        clients, cells = np.nonzero(shares)
        assert (shares[clients, cells] != 0).all()  # no zero shares sent
        pooled = np.zeros(d, dtype=np.int64)
        np.add.at(pooled, cells, shares[clients, cells])
        assert same_law_pvalue(pooled, noise_release(n, d, rng), bins=20) > 0.01

    @pytest.mark.parametrize("n", (1, 3, 50, 60_000))
    def test_cell_totals_are_discrete_laplace(self, n):
        rng = np.random.default_rng(200 + n)
        q = discrete_laplace_parameter(1.0, 1, 1)
        assert dlap_chisquare(noise_release(n, 40_000, rng), q) > 0.01

    def test_noiseless_limits_send_nothing(self, rng):
        # eps = inf, and a finite eps whose q underflows to 0: DLap(0) is 0
        assert discrete_laplace_parameter(5000.0, 1, 1) == 0.0
        counts = np.array([[3, 0, 1], [0, 2, 0]])
        for eps in (math.inf, 5000.0):
            params = shuffle_params(epsilon=eps, s=2, labels=3)
            assert np.array_equal(multi_message_pipeline(counts, [4, 2, 0, 0], params, rng), counts)

    def test_q_rounding_to_one_rejected(self):
        with pytest.raises(ValueError, match="rounds to 1"):
            discrete_laplace_parameter(1e-17, 1, 1)
        with pytest.raises(ValueError, match="rounds to 1"):
            choose_modulus(10, 1, 1, 1e-17)


class TestAmplification:
    def test_forward_closed_form_value(self):
        assert amplify_forward(1.0, 10_000, 1e-6) == pytest.approx(0.2140, abs=1e-3)

    def test_forward_vanishes_with_eps0(self):
        assert amplify_forward(1e-9, 10_000, 1e-6) < 1e-8

    def test_forward_monotone(self):
        values = [amplify_forward(e, 10_000, 1e-6) for e in np.linspace(0.1, 3.0, 15)]
        assert all(a < b for a, b in zip(values, values[1:]))
        by_n = [amplify_forward(1.0, n, 1e-6) for n in (10 ** 4, 10 ** 5, 10 ** 6)]
        assert by_n[0] > by_n[1] > by_n[2]

    def test_validity_condition_enforced(self):
        limit = amplification_validity_limit(10_000, 1e-6)
        assert limit == pytest.approx(math.log(10_000 / (16 * math.log(2e6))))
        with pytest.raises(ValueError, match="validity"):
            amplify_forward(limit + 0.01, 10_000, 1e-6)
        with pytest.raises(ValueError, match="too small"):
            amplification_validity_limit(100, 1e-6)

    def test_invert_round_trip(self):
        eps0 = amplify_invert(amplify_forward(1.0, 10_000, 1e-6), 10_000, 1e-6)
        assert eps0 == pytest.approx(1.0, abs=1e-6)

    def test_invert_monotone_in_n(self):
        values = [amplify_invert(0.2, n, 1e-6) for n in (10 ** 4, 10 ** 5, 10 ** 6)]
        assert values[0] < values[1] < values[2]

    def test_unreachable_target_rejected_with_interval(self):
        with pytest.raises(ValueError, match="achievable"):
            amplify_invert(50.0, 10_000, 1e-6)

    @pytest.mark.parametrize("target, n", [(0.4, 60_000), (3.3e-301, 300)])
    def test_invert_never_overspends(self, target, n):
        spent = amplify_forward(amplify_invert(target, n, 1e-6), n, 1e-6)
        assert target * (1 - 1e-9) <= spent <= target

    def test_invert_within_relative_tolerance_below_target_on_a_grid(self):
        for n in (1_000, 10_000, 1_000_000):
            for delta in (1e-5, 1e-8):
                top = amplify_forward(amplification_validity_limit(n, delta), n, delta)
                for target in np.concatenate([np.geomspace(1e-300, 1e-3, 12), np.linspace(0.01, 1, 12) * top]):
                    spent = amplify_forward(amplify_invert(float(target), n, delta), n, delta)
                    assert target * (1 - 1e-9) <= spent <= target

    def test_target_without_a_positive_eps0_rejected(self):
        with pytest.raises(ValueError, match="no local budget"):
            amplify_invert(5e-324, 300, 1e-6)


class TestSingleMessage:
    def test_requires_single_model(self):
        with pytest.raises(ValueError, match="single"):
            single_message_params(shuffle_params(single=False), 4)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            single_message_params(shuffle_params(single=True), 100)

    def test_estimate_unbiased_and_within_bound(self, rng):
        from privlabel.local import MECHANISMS, rr_accuracy_bound

        n, s, labels = 3000, 2, 2
        params = shuffle_params(epsilon=1.0, s=s, labels=labels, single=True)
        # half the reports vote (bucket 0, label 0), half (bucket 1, label 1)
        supports = np.where(np.arange(n) < n // 2, 0, 3)[:, None]
        truth = np.array([[n // 2, 0], [0, n - n // 2]])
        eps0 = amplify_invert(1.0, n, 1e-6)
        local = single_message_params(params, n)
        assert local == PrivacyParams(local.epsilon, PrivacyModel.LOCAL, 1, 1, s, labels)
        assert local.epsilon == pytest.approx(eps0, abs=1e-9)
        eta = rr_accuracy_bound(local, n, 0.05)
        fails = np.zeros(s)
        trials = 300
        for _ in range(trials):
            est = MECHANISMS["rr"].release(supports, local, rng)
            assert MECHANISMS["rr"].bound(local, n, 0.05) == eta
            fails += np.abs(est.reshape(s, labels) - truth).max(axis=1) >= eta
        assert (fails / trials <= 0.05 + 0.03).all()

    def test_collision_mechanism_round_trip(self, rng):
        from privlabel.local import MECHANISMS

        n, s, labels = 500, 2, 3
        params = shuffle_params(epsilon=0.5, s=s, labels=labels, single=True, delta=1e-4)
        local = single_message_params(params, n)
        supports = np.ones((n, 1), dtype=np.int64)  # every report votes (bucket 0, label 1)
        flat = MECHANISMS["collision"].release(supports, local, rng)
        est = flat.reshape(s, labels)
        assert local.epsilon > params.epsilon  # amplification enlarges the local budget
        assert est[0, 1] > est[1, 2]

    def test_shuffling_cannot_change_rr_estimate(self, rng):
        from privlabel.local import rr_estimate

        params = PrivacyParams(2.0, PrivacyModel.LOCAL, 1, 1, 2, 2)
        bits = rng.integers(0, 2, size=(50, 2, 2))
        direct = rr_estimate(bits.sum(axis=0), params, 50)
        permuted = rr_estimate(bits[rng.permutation(50)].sum(axis=0), params, 50)
        assert np.array_equal(direct, permuted)
