import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privlabel.central import laplace_accuracy_bound, pipeline_aggregate, sample_laplace
from privlabel.core import (
    ConnectionMap,
    PrivacyModel,
    PrivacyParams,
    RecordSet,
    count_gap,
    degenerate_buckets,
    flatten_support,
    hard_labels,
    label_vector,
    record_votes,
    soft_labels,
    vote_counts,
)
from conftest import random_queries, random_record_set, swap_one_record


class TestLabels:
    def test_hard_label_max(self):
        assert hard_labels(np.array([[2, 0]])).tolist() == [0]

    def test_hard_label_tie_smallest_index(self):
        assert hard_labels(np.array([[1, 1]])).tolist() == [0]

    def test_hard_label_noisy_reals(self):
        assert hard_labels(np.array([[0.3, 5.1, -2.0]])).tolist() == [1]

    def test_all_zero_row_flagged_degenerate(self):
        counts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert hard_labels(counts)[0] == 0
        assert list(degenerate_buckets(counts)) == [0]

    def test_soft_label_normalizes(self):
        assert np.allclose(soft_labels(np.array([[2, 2]])), [[0.5, 0.5]])
        assert np.allclose(soft_labels(np.array([[3, 0, 1]])), [[0.75, 0.0, 0.25]])

    def test_soft_label_clamps_negatives(self):
        assert np.allclose(soft_labels(np.array([[-1.0, 2.0]])), [[0.0, 1.0]])

    def test_soft_label_degenerate_uniform(self):
        assert np.allclose(soft_labels(np.array([[-3.0, -1.0]])), [[0.5, 0.5]])

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=6))
    def test_soft_sums_to_one(self, row):
        probs = soft_labels(np.array([row]))
        assert probs.min() >= 0
        assert abs(probs.sum() - 1.0) < 1e-12

    @given(
        st.lists(st.integers(0, 100), min_size=2, max_size=8).filter(
            lambda row: sorted(row)[-1] != sorted(row)[-2]
        )
    )
    def test_hard_soft_agree_without_ties_or_clamping(self, row):
        counts = np.array([row], dtype=float)
        assert hard_labels(counts)[0] == int(np.argmax(soft_labels(counts)[0]))


class TestCountGap:
    def test_examples(self):
        assert count_gap(np.array([5, 2, 1]), 0) == 3
        assert count_gap(np.array([1, 1]), 0) == 0
        assert count_gap(np.array([0, 4]), 0) == -4

    def test_needs_two_labels(self):
        with pytest.raises(ValueError):
            count_gap(np.array([1.0]), 0)

    def test_wide_gap_survives_bounded_perturbation(self, rng):
        # buckets whose gap is at least 2*alpha keep their hard label under
        # any perturbation below alpha, so an (alpha, beta)-accurate oracle
        # labels them correctly with probability >= 1 - beta
        alpha = 3.0
        row = np.array([10.0, 4.0, 1.0])  # gap 6 = 2*alpha
        for _ in range(200):
            noise = rng.uniform(-alpha, alpha, size=3) * 0.999
            assert hard_labels([row + noise])[0] == 0


class TestEmpiricalAccuracy:
    def test_laplace_trials_respect_prop_bound(self, rng):
        # Monte-Carlo against the Laplace tail: with b = 20 (k=r=1, eps=0.1)
        # and eta at the stated bound, each bucket's failure rate must stay near beta
        params = PrivacyParams(0.1, PrivacyModel.CENTRAL, k=1, r=1, s=1, label_count=10)
        beta = 0.05
        eta = laplace_accuracy_bound(params, beta)
        assert eta == pytest.approx(2 * math.log(10 / beta) / 0.1, rel=1e-12)
        noise = np.stack([sample_laplace(20.0, rng, size=(1, 10)) for _ in range(10_000)])
        bucket_error = np.abs(noise).max(axis=2)  # (trials, buckets)
        assert ((bucket_error >= eta).mean(axis=0) <= beta + 0.02).all()


class TestSensitivity:
    def test_random_swaps_stay_below_2kr(self, rng):
        for k, r in ((1, 1), (2, 1), (2, 2), (3, 2)):
            bound = 2 * k * r
            for _ in range(40):
                records = random_record_set(rng, m=8, dim=3, label_count=4, r=r)
                neighbor = swap_one_record(records, rng, r)
                queries = random_queries(rng, s=6, dim=3)
                diff = np.abs(
                    pipeline_aggregate(records, queries, k)
                    - pipeline_aggregate(neighbor, queries, k)
                ).sum()
                assert diff <= bound


class TestPrivacyParams:
    def test_pure_models_require_zero_delta(self):
        with pytest.raises(ValueError, match="delta"):
            PrivacyParams(1.0, PrivacyModel.CENTRAL, 1, 1, 2, 2, delta=0.1)
        with pytest.raises(ValueError, match="delta"):
            PrivacyParams(1.0, PrivacyModel.LOCAL, 1, 1, 2, 2, delta=1e-6)

    def test_shuffle_models_require_positive_delta(self):
        with pytest.raises(ValueError, match="delta"):
            PrivacyParams(1.0, PrivacyModel.SHUFFLE_MULTI, 1, 1, 2, 2, delta=0.0)
        PrivacyParams(1.0, PrivacyModel.SHUFFLE_SINGLE, 1, 1, 2, 2, delta=1e-6)

    def test_sensitivity_and_budget_split(self):
        params = PrivacyParams(0.3, PrivacyModel.CENTRAL, k=2, r=3, s=4, label_count=5)
        assert params.sensitivity == 12
        assert params.per_iteration(3).epsilon == pytest.approx(0.1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            PrivacyParams(1.0, PrivacyModel.CENTRAL, 0, 1, 2, 2)
        with pytest.raises(ValueError):
            PrivacyParams(-1.0, PrivacyModel.CENTRAL, 1, 1, 2, 2)
        with pytest.raises(ValueError):
            PrivacyParams(1.0, PrivacyModel.CENTRAL, 1, 3, 2, 2)

    @pytest.mark.parametrize("name", ["k", "r", "s", "label_count"])
    def test_rejects_non_integer_shapes(self, name):
        # label_count = 10.5 would give a flat domain of 105.0 cells
        shape = dict(k=2, r=1, s=10, label_count=10)
        shape[name] += 0.5
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PrivacyParams(1.0, PrivacyModel.CENTRAL, **shape)

    def test_accepts_numpy_integers(self):
        params = PrivacyParams(1.0, PrivacyModel.CENTRAL, np.int64(2), np.int32(1), np.uint8(10), np.int64(10))
        assert params.flat_domain_size == 100 and params.sensitivity == 4


class TestLabelVector:
    def test_multi_hot(self):
        bits = label_vector([3, 7], 10)
        assert bits.sum() == 2 and bits[3] == 1 and bits[7] == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            label_vector([10], 10)

    @given(st.sets(st.integers(0, 9), min_size=1, max_size=5))
    def test_cardinality_matches(self, indices):
        assert label_vector(indices, 10).sum() == len(indices)


def test_hard_labels_vectorized():
    counts = np.array([[1, 2], [5, 0], [3, 3]])
    assert np.array_equal(hard_labels(counts), [1, 0, 0])


class TestAccuracySpecAndRecords:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_rejected(self, bad):
        from privlabel.core import QuerySet, RecordSet

        emb = np.zeros((2, 2))
        emb[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            RecordSet(emb, np.array([[1, 0], [0, 1]], dtype=np.uint8))
        with pytest.raises(ValueError, match="finite"):
            QuerySet(emb)

    def test_mixed_cardinality_rejected(self):
        from privlabel.core import RecordSet

        labels = np.array([[1, 0, 0], [1, 1, 0]], dtype=np.uint8)
        with pytest.raises(ValueError, match="cardinality"):
            RecordSet(np.zeros((2, 2)), labels)

    @pytest.mark.parametrize("bad", [256, 0.5, np.nan, -1])
    def test_non_binary_labels_rejected_before_the_cast(self, bad):
        # a uint8 cast would store 256 and 0.5 as 0
        labels = np.array([[1.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValueError, match="0 or 1"):
            RecordSet(np.zeros((2, 2)), labels)
        if float(bad).is_integer():
            with pytest.raises(ValueError, match="0 or 1"):
                RecordSet(np.zeros((2, 2)), labels.astype(np.int64))

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.uint64, np.float32, np.float64])
    def test_binary_labels_of_any_dtype_are_stored_as_uint8(self, dtype):
        labels = np.array([[1, 0, 0], [0, 0, 1]], dtype=dtype)
        records = RecordSet(np.zeros((2, 2)), labels)
        assert records.labels.dtype == np.uint8
        assert records.labels.tolist() == [[1, 0, 0], [0, 0, 1]] and records.r == 1

    def test_construction_memory_beyond_its_inputs(self):
        # 60,000 x 10 labels: the label check allocates two boolean masks of
        # the labels (1.1 MiB); a per-cell membership test allocated 6.9 MiB
        gen = np.random.default_rng(5)
        embeddings = gen.normal(size=(60_000, 8))
        labels = np.zeros((60_000, 10), dtype=np.uint8)
        labels[np.arange(60_000), gen.integers(0, 10, 60_000)] = 1
        tracemalloc.start()
        try:
            RecordSet(embeddings, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20


class TestRecordSet:
    @pytest.mark.parametrize("name", ["embeddings", "labels", "ids"])
    def test_fields_cannot_be_reassigned(self, rng, name):
        records = random_record_set(rng, m=3, dim=2, label_count=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(records, name, getattr(records, name).copy())

    def test_replace_revalidates(self, rng):
        records = random_record_set(rng, m=3, dim=2, label_count=3)
        emb = records.embeddings.copy()
        emb[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(records, embeddings=emb)
        labels = records.labels.copy()
        labels[0] = 1
        with pytest.raises(ValueError, match="cardinality"):
            dataclasses.replace(records, labels=labels)

    @pytest.mark.parametrize("m, r", [(0, 1), (1, 1), (50, 1), (50, 2), (50, 3)])
    def test_cached_arrays_equal_the_forms_they_replace(self, m, r):
        gen = np.random.default_rng(m * 10 + r)
        records = random_record_set(gen, m=m, dim=8, label_count=5, r=r)
        # the first half's norms overflow to inf
        scale = np.where(np.arange(m) < m // 2, 1e155, 1.0)[:, None]
        records = dataclasses.replace(records, embeddings=records.embeddings * scale)
        # computed at first use, not at construction
        assert "squared_norms" not in vars(records) and "label_indices" not in vars(records)
        with np.errstate(over="ignore"):
            squares = np.einsum("ij,ij->i", records.embeddings, records.embeddings)
        indices = np.flatnonzero(records.labels.view(bool)) % records.label_count
        assert records.squared_norms.tobytes() == squares.tobytes()
        assert records.label_indices.shape == (m, r)
        assert records.label_indices.tobytes() == indices.tobytes()
        assert (records.label_indices == np.nonzero(records.labels)[1].reshape(m, r)).all()
        for cached in (records.squared_norms, records.label_indices):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[...] = 0
        assert records.squared_norms is records.squared_norms


@st.composite
def vote_instances(draw):
    """Records with r labels each over |Y| labels, connected to min(k, s) of s
    buckets."""
    m, s = draw(st.integers(0, 60)), draw(st.integers(1, 6))
    k, r = draw(st.integers(1, s + 2)), draw(st.integers(1, 3))
    label_count = draw(st.integers(max(2, r), 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    buckets = np.sort(np.argsort(rng.random((m, s)), axis=1)[:, : min(k, s)], axis=1)
    labels = np.zeros((m, label_count), dtype=np.uint8)
    for row in labels:
        row[rng.choice(label_count, r, replace=False)] = 1
    records = RecordSet(rng.normal(size=(m, 2)), labels)
    return records, ConnectionMap(buckets, s=s, k=k)


def loop_counts(records, connections):
    """Reference count matrix: one vote per (record, bucket, label)."""
    counts = np.zeros((connections.s, records.label_count), dtype=np.int64)
    for i in range(records.m):
        for bucket in connections.indices[i]:
            for label in np.flatnonzero(records.labels[i]):
                counts[bucket, label] += 1
    return counts


class TestVotes:
    @settings(max_examples=150, deadline=None)
    @given(vote_instances())
    def test_counts_match_the_loop(self, instance):
        records, connections = instance
        votes = record_votes(records, connections)
        assert votes.shape == (records.m, connections.degree * records.r)
        assert (np.diff(votes, axis=1) > 0).all()
        whole = vote_counts(votes, (connections.s, records.label_count))
        assert np.array_equal(whole, loop_counts(records, connections))

    @pytest.mark.parametrize("votes", ([-1, 0], [0, 4], [[1], [7]]))
    def test_out_of_range_votes_rejected(self, votes):
        with pytest.raises(ValueError, match="out of range"):
            vote_counts(votes, (2, 2))

    def test_fractional_votes_rejected(self):
        # a cast would count 0.5 and 1.5 as cells 0 and 1
        with pytest.raises(ValueError, match="integers"):
            vote_counts(np.array([0.5, 1.5]), (2, 2))

    def test_fractional_bucket_indices_rejected(self):
        # a cast would turn [[0.2], [1.9]] into buckets 0 and 1
        with pytest.raises(ValueError, match="integers"):
            ConnectionMap(np.array([[0.2], [1.9]]), s=3, k=1)
        assert ConnectionMap(np.zeros((0, 1)), s=3, k=1).indices.dtype == np.int64

    def test_empty_votes_give_zeros(self):
        assert vote_counts(np.zeros((0, 3), dtype=np.int64), (2, 2)).tolist() == [[0, 0], [0, 0]]

    def test_batched_flatten_matches_rows(self):
        buckets = np.array([[0, 2], [1, 3]])
        labels = np.array([[1, 4], [0, 2]])
        flat = flatten_support(buckets, labels, label_count=5)
        assert flat.shape == (2, 4)
        for row, b, y in zip(flat, buckets, labels):
            assert np.array_equal(row, flatten_support(b, y, 5))
