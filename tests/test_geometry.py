import contextlib
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privlabel.geometry as geometry_mod
from privlabel.core import ConnectionMap, QuerySet, RecordSet, record_votes, vote_counts
from privlabel.data import SyntheticSpec, generate_synthetic
from privlabel.geometry import (
    ConnectionObjective,
    brute_force_best_connection,
    connection_scores,
    kmeans,
    margins,
    objective_value,
    pairwise_distances,
    propagate_labels,
    propagation_accuracy,
    reverse_knn_connect,
    select_queries_cluster,
    select_queries_uncertainty,
    similarity_from_distance,
    squared_distances,
)
from conftest import bisector_near_ties, four_point_fixture, random_queries, random_record_set


class TestMetrics:
    def test_euclidean_self_distance_zero(self, rng):
        # the memory-light quadratic expansion leaves O(sqrt(eps)) residue
        x = rng.normal(size=(5, 3))
        d = pairwise_distances(x, x)
        assert np.allclose(np.diag(d), 0.0, atol=1e-6)

    @pytest.mark.parametrize("dim", [8, 50])
    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e4])
    def test_euclidean_matches_the_direct_difference(self, dim, offset):
        # the expansion |x|² + |q|² − 2x·q cancels as the points move away
        # from the origin; its error must stay within 1e-11 of |x| + |q|
        gen = np.random.default_rng(dim)
        x = gen.normal(size=(200, dim)) + offset
        q = gen.normal(size=(40, dim)) + offset
        direct = np.sqrt(((x[:, None, :] - q[None, :, :]) ** 2).sum(axis=2))
        scale = np.linalg.norm(x, axis=1)[:, None] + np.linalg.norm(q, axis=1)[None, :]
        assert (np.abs(pairwise_distances(x, q) - direct) <= 1e-11 * scale).all()


@st.composite
def _distance_instances(draw):
    """Points, queries and a small block size for the distance kernel."""
    m, s = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    dim = draw(st.sampled_from([1, 2, 3, 8, 50]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gen.normal(size=(m, dim)), gen.normal(size=(s, dim)), draw(st.integers(1, 3 * s))


class TestRowIndependence:
    """A row's distances, and so its record's connection, depend on that row
    and the queries alone: the 2kr sensitivity argument assumes it."""

    @given(_distance_instances())
    @settings(max_examples=150, deadline=None)
    def test_row_distances_ignore_the_other_rows_and_the_memory_offset(self, instance):
        x, q, cells = instance
        full = pairwise_distances(x, q)
        buf = np.empty(x.nbytes + 1, dtype=np.uint8)
        shifted = np.frombuffer(buf, dtype=np.float64, count=x.size, offset=1).reshape(x.shape)
        shifted[...] = x
        with mock.patch.object(geometry_mod, "_DISTANCE_BLOCK_CELLS", cells):
            # each block is a view of one reused buffer: copy it out
            blocks = [block.copy() for _, block in geometry_mod._squared_blocks(x, geometry_mod._query_side(q))]
        for i in range(len(x)):
            assert pairwise_distances(x[i : i + 1].copy(), q).tobytes() == full[i].tobytes()
        assert pairwise_distances(shifted, q).tobytes() == full.tobytes()
        assert np.sqrt(np.maximum(np.concatenate(blocks), 0.0)).tobytes() == full.tobytes()

    def test_record_connects_alone_as_inside_the_set(self):
        # a kernel whose rows depend on the rows sharing the call (one gemm
        # over all of them) fails here in about 3 datasets in 4
        for seed in range(300):
            records, queries = bisector_near_ties(seed)
            x = records.embeddings
            full = reverse_knn_connect(x, queries, 1).indices
            for j in range(len(x)):
                alone = reverse_knn_connect(x[j : j + 1].copy(), queries, 1).indices
                assert alone.tobytes() == full[j].tobytes(), (seed, j)
                rest = reverse_knn_connect(np.delete(x, j, 0), queries, 1).indices
                assert rest.tobytes() == np.delete(full, j, 0).tobytes(), (seed, j)

    def test_kmeans_memory_stays_below_8_mib_on_the_bench_pool_shape(self):
        # the dense (5,000, 200) distance matrix alone is 7.6 MiB
        points = np.random.default_rng(6).normal(size=(5_000, 8))
        tracemalloc.start()
        try:
            kmeans(points, 200, np.random.default_rng(0), max_iter=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestQuerySelection:
    def test_separated_points_become_their_own_centers(self, rng):
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        queries, assignment = select_queries_cluster(corners, 4, rng)
        found = queries.embeddings[np.lexsort(queries.embeddings.T[::-1])]
        assert np.allclose(found, corners, atol=1e-9)
        assert len(set(assignment.tolist())) == 4

    def test_two_blob_centers_near_means(self, rng):
        mean_a, mean_b = np.array([0.0, 0.0]), np.array([50.0, 0.0])
        pts = np.vstack(
            [mean_a + rng.normal(size=(100, 2)), mean_b + rng.normal(size=(100, 2))]
        )
        queries, _ = select_queries_cluster(pts, 2, rng)
        centers = queries.embeddings[np.argsort(queries.embeddings[:, 0])]
        # sample-mean concentration: 3*sigma/sqrt(100)
        assert np.linalg.norm(centers[0] - mean_a) < 3 * 1.0 / 10 * np.sqrt(2) * 2
        assert np.linalg.norm(centers[1] - mean_b) < 3 * 1.0 / 10 * np.sqrt(2) * 2

    def test_single_cluster_is_global_mean(self, rng):
        pts = rng.normal(size=(50, 3))
        queries, assignment = select_queries_cluster(pts, 1, rng)
        assert np.allclose(queries.embeddings[0], pts.mean(axis=0), atol=1e-9)
        assert (assignment == 0).all()

    def test_more_clusters_than_points_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4, rng)

    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(7).normal(size=(60, 2))
        a, _ = select_queries_cluster(pts, 5, np.random.default_rng(123))
        b, _ = select_queries_cluster(pts, 5, np.random.default_rng(123))
        assert np.array_equal(a.embeddings, b.embeddings)

    @pytest.mark.parametrize(
        "points, seeded, expected",
        [
            # cluster 0 starts empty and takes point 3 from cluster 2, whose
            # mean is then taken without it
            ([[0, 0], [1, 0], [10, 0], [12, 0]], [[100, 100], [0, 0], [10, 0]], [[12, 0], [0.5, 0], [10, 0]]),
            # the donor, cluster 2, empties in turn and takes the point back
            ([[0, 0], [1, 0], [55, 0]], [[100, 100], [0, 0], [60, 0]], [[55, 0], [0.5, 0], [55, 0]]),
        ],
    )
    def test_empty_cluster_reseeds_at_farthest_point_in_index_order(self, points, seeded, expected):
        points = np.asarray(points, dtype=np.float64)
        with mock.patch.object(geometry_mod, "_kmeans_plus_plus_init", return_value=np.asarray(seeded, dtype=np.float64)):
            centers, _ = kmeans(points, 3, np.random.default_rng(0), max_iter=1)
        assert centers.tolist() == expected

    def test_lloyd_stops_on_unchanged_centers_without_a_final_connect(self):
        # cluster 0 starts empty and takes a (4, 0); the other (4, 0) follows
        # it, and at the fixed point (0, 0) is 1 from centers 1 and 2
        points = np.array([[4, 0], [4, 0], [-2, 0], [0, 0], [1, 0], [1, 0], [1, 0]], dtype=np.float64)
        seeded = np.array([[1000, 1000], [-1, 0], [1, 0]], dtype=np.float64)
        evaluated = []
        assign = geometry_mod._LloydBounds.assign

        def spy(bounds, queries):
            evaluated.append(queries.embeddings.tobytes())
            return assign(bounds, queries)

        with mock.patch.object(geometry_mod, "_kmeans_plus_plus_init", return_value=seeded), mock.patch.object(
            geometry_mod._LloydBounds, "assign", autospec=True, side_effect=spy
        ), mock.patch.object(geometry_mod, "_connected_distances", wraps=geometry_mod._connected_distances) as emptied:
            centers, assignment = kmeans(points, 3, np.random.default_rng(0))
        assert emptied.called
        assert centers.tolist() == [[4, 0], [-1, 0], [1, 0]]
        dists = pairwise_distances(points, centers)
        assert dists[3, 1] == dists[3, 2]
        assert assignment.tolist() == np.argmin(dists, axis=1).tolist() == [0, 0, 1, 1, 2, 2, 2]
        # no center set is evaluated twice, and the last one evaluated is returned
        assert len(set(evaluated)) == len(evaluated)
        assert evaluated[-1] == centers.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_seeding_picks_what_rng_choice_picks(self, seed, n, dim):
        # below 8 coordinates a row sum adds them in order, as the column
        # updates do, so the D² weights and the picks match bytewise
        gen = np.random.default_rng(seed)
        distinct = gen.normal(size=(int(gen.integers(1, n + 1)), dim)).round(1)
        points = distinct[gen.integers(0, len(distinct), size=n)]
        s = int(gen.integers(1, n + 1))
        centers = geometry_mod._kmeans_plus_plus_init(points, s, np.random.default_rng(seed))
        assert centers.tobytes() == _reference_kmeans_plus_plus(points, s, np.random.default_rng(seed)).tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_lloyd_update_matches_sequential_loop(self, seed, n, dim):
        # few distinct points: k-means++ repeats centers, so clusters empty.
        # dim starts at 2: numpy's mean of a 1-D column sums pairwise, not in
        # index order, so 1-D centers may differ in the last bit
        gen = np.random.default_rng(seed)
        distinct = gen.normal(size=(int(gen.integers(1, n + 1)), dim)).round(1)
        points = distinct[gen.integers(0, len(distinct), size=n)]
        s = int(gen.integers(1, n + 1))
        centers, assignment = kmeans(points, s, np.random.default_rng(seed))
        ref_centers, ref_assignment = _sequential_kmeans(points, s, np.random.default_rng(seed))
        assert centers.tobytes() == ref_centers.tobytes()
        assert assignment.tobytes() == ref_assignment.tobytes()

    @pytest.mark.parametrize("case", range(64))
    def test_lloyd_matches_sequential_loop_on_hard_pools(self, case):
        # pools offset by 1e4 or 1e8, where the expansion cancels and the
        # skip margin must scale with |x| + |c|; bisector near ties, seeded at
        # the two tied queries or by k-means++; repeated points that force
        # reseeds; and s = 1 and s = n
        gen = np.random.default_rng(case)
        kind = case % 4
        if kind == 0:
            offset = 1e4 if case % 8 == 0 else 1e8
            # dim >= 2: the reference's 1-D means sum pairwise (see above)
            points = gen.normal(size=(int(gen.integers(2, 80)), int(gen.integers(2, 9)))) + offset
            s = int(gen.integers(1, min(len(points), 12) + 1))
        elif kind == 1:
            records, queries = bisector_near_ties(case)
            points = np.vstack([records.embeddings, queries.embeddings])
            s = queries.s
        elif kind == 2:
            points, s = _repeated_pool(gen)
        else:
            points = gen.normal(size=(int(gen.integers(1, 40)), 2)) * 10.0**gen.integers(-3, 4)
            s = 1 if case % 8 == 3 else len(points)
        seeds = [None]
        if kind == 1:
            seeds.append(queries.embeddings)
        for seeded in seeds:
            patch = mock.patch.object(geometry_mod, "_kmeans_plus_plus_init", return_value=seeded)
            with patch if seeded is not None else contextlib.nullcontext():
                centers, assignment = kmeans(points, s, np.random.default_rng(case))
                ref_centers, ref_assignment = _sequential_kmeans(points, s, np.random.default_rng(case))
            assert centers.tobytes() == ref_centers.tobytes()
            assert assignment.tobytes() == ref_assignment.tobytes()

    def test_repeated_points_reseed(self):
        # the repeated-point pools above do reseed
        for case in range(2, 64, 4):
            points, s = _repeated_pool(np.random.default_rng(case))
            with mock.patch.object(geometry_mod, "_connected_distances", wraps=geometry_mod._connected_distances) as emptied:
                kmeans(points, s, np.random.default_rng(case))
            assert emptied.called, case

    def test_the_pass_after_a_reseed_is_full(self):
        # a reseed moves points between clusters behind the bounds' back, so
        # the next assignment sends every row through _nearest_blocks
        events = []
        nearest, connected = geometry_mod._nearest_blocks, geometry_mod._connected_distances

        def spy_nearest(x, *args):
            events.append(len(x))
            return nearest(x, *args)

        def spy_reseed(*args):
            events.append("reseed")
            return connected(*args)

        reseeds = 0
        for case in range(2, 64, 4):
            points, s = _repeated_pool(np.random.default_rng(case))
            events.clear()
            with mock.patch.object(geometry_mod, "_nearest_blocks", side_effect=spy_nearest), mock.patch.object(
                geometry_mod, "_connected_distances", side_effect=spy_reseed
            ):
                kmeans(points, s, np.random.default_rng(case))
            after = [events[i + 1] for i, event in enumerate(events) if event == "reseed"]
            assert after == [len(points)] * len(after), case
            reseeds += len(after)
        assert reseeds

    @pytest.mark.parametrize("s", [10, 40, 200])
    def test_lloyd_matches_sequential_loop_on_the_bench_pool(self, s):
        # s = 10 re-sums only the changed clusters on every pass after the
        # first, s = 40 sums the whole pool on many (see the tests below)
        pool = _bench_pool(3)
        centers, assignment = kmeans(pool, s, np.random.default_rng(s))
        ref_centers, ref_assignment = _sequential_kmeans(pool, s, np.random.default_rng(s))
        assert centers.tobytes() == ref_centers.tobytes()
        assert assignment.tobytes() == ref_assignment.tobytes()

    def test_lloyd_resums_only_the_clusters_whose_members_changed(self):
        pool = _bench_pool(3)
        passes = _sum_passes(pool, 10, np.random.default_rng(10))
        assert all(kind == "changed" for kind, _ in passes[1:-1])
        assert max(rows for _, rows in passes[1:]) <= len(pool) // 2
        # the last assignment repeats the one before, so its centers repeat
        # and kmeans returns without summing a row
        assert passes[-1] == ("none", 0)

    def test_lloyd_sums_every_cluster_when_the_changed_ones_hold_most_rows(self):
        pool = _bench_pool(3)
        passes = _sum_passes(pool, 40, np.random.default_rng(40))
        kinds = {kind for kind, _ in passes[1:]}
        assert kinds >= {"full", "changed"}
        # a full pass sums all rows where the changed clusters held fewer
        assert any(kind == "full" and rows < len(pool) for kind, rows in passes[1:])

    def test_lloyd_skips_most_rows_on_the_bench_pool(self):
        # a full pass per center set assigns (iterations + 1)·n rows; the
        # bounds leave about a tenth of them at s = 10, and the gemm decides
        # every one of those here
        pool = _bench_pool(1)
        rows, assigned, evaluated = _count_kernel_rows(lambda: kmeans(pool, 10, np.random.default_rng(0)))
        assert evaluated > 10
        assert assigned <= 0.35 * evaluated * len(pool)
        assert rows == 0

    def test_overflowing_margin_falls_back_to_full_passes(self):
        # |x|² and every square stay finite, but (|x| + max|c|)² does not:
        # no row may be skipped, and the result is the full-pass one
        gen = np.random.default_rng(9)
        points = gen.normal(scale=1e150, size=(60, 2)) + 0.5e154
        with np.errstate(over="ignore"):
            assert np.isfinite(squared_distances(points, points)).all()
            assert not np.isfinite((2 * np.linalg.norm(points, axis=1)) ** 2).any()
        rows, assigned, evaluated = _count_kernel_rows(lambda: kmeans(points, 4, np.random.default_rng(2)))
        assert evaluated > 1
        assert rows == assigned == evaluated * len(points)
        centers, assignment = kmeans(points, 4, np.random.default_rng(2))
        ref_centers, ref_assignment = _sequential_kmeans(points, 4, np.random.default_rng(2))
        assert centers.tobytes() == ref_centers.tobytes()
        assert assignment.tobytes() == ref_assignment.tobytes()

    @pytest.mark.parametrize(
        "points, s, message",
        [
            ([[0.0, 0.0], [1e200, 0.0]], 2, "k-means[+][+] weights overflow"),
            ([[1e160, 0.0], [1e160, 1.0]], 2, "coordinates too large to square"),
            # one cluster computes no distance, but its mean overflows
            ([[1e308, 0.0], [1e308, 0.0]], 1, "query embeddings must be finite"),
            ([[0.0], [1.0]], 0, "must lie in"),
            ([[0.0], [1.0]], 3, "must lie in"),
        ],
    )
    def test_kmeans_errors(self, points, s, message):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
            kmeans(np.asarray(points), s, np.random.default_rng(0))


def _repeated_pool(gen):
    """(points, s): 10-59 copies of 2-5 distinct points and at least as many
    clusters as distinct points, so k-means++ repeats centers."""
    distinct = gen.normal(size=(int(gen.integers(2, 6)), 3)).round(1)
    points = distinct[gen.integers(0, len(distinct), size=int(gen.integers(10, 60)))]
    return points, int(gen.integers(len(distinct), len(points) + 1))


def _bench_pool(seed):
    """The public pool of the benchmark world: 5,000 rows of dim 8."""
    spec = SyntheticSpec(classes=10, per_class=6000, dim=8, separation=12.0, std=1.0, pub_per_class=500)
    return generate_synthetic(spec, seed)[1].embeddings


def _sum_passes(points, s, rng):
    """(kind, rows) for each assignment of ``kmeans(points, s, rng)``, from
    the weighted ``np.bincount`` calls that follow it, one per coordinate:
    "full" calls read every row's cluster, "changed" ones the clusters of
    the ``rows`` rows whose cluster gained or lost a row since the previous
    assignment, in index order, and "none" makes no call.  Fails on a reseed,
    or where the kind does not fit the half-pool rule."""
    events = []
    bincount, assign = np.bincount, geometry_mod._LloydBounds.assign

    def spy_bincount(x, weights=None, minlength=0):
        if weights is not None:
            events.append(np.array(x))
        return bincount(x, weights, minlength)

    def spy_assign(bounds, queries):
        assignment = assign(bounds, queries)
        events.append(("assign", assignment.copy()))
        return assignment

    with mock.patch.object(np, "bincount", side_effect=spy_bincount), mock.patch.object(
        geometry_mod._LloydBounds, "assign", autospec=True, side_effect=spy_assign
    ), mock.patch.object(geometry_mod, "_connected_distances", side_effect=AssertionError("reseeded")):
        kmeans(points, s, rng)
    groups = []  # (assignment, the weighted bincounts that follow it)
    for event in events:
        if isinstance(event, tuple):
            groups.append((event[1], []))
        else:
            groups[-1][1].append(event)
    n, dim = points.shape
    passes, previous = [], None
    for assignment, calls in groups:
        if previous is None:
            rows = np.arange(n)
        else:
            moved = assignment != previous
            changed = np.zeros(s, dtype=bool)
            changed[previous[moved]] = changed[assignment[moved]] = True
            rows = np.flatnonzero(changed[assignment])
        previous = assignment
        if not calls:
            passes.append(("none", rows.size))
            continue
        assert len(calls) == dim
        kind = "full" if all(x.tobytes() == assignment.tobytes() for x in calls) else "changed"
        if kind == "changed":
            assert 2 * rows.size <= n
            assert all(x.tobytes() == assignment[rows].tobytes() for x in calls)
        else:
            assert 2 * rows.size > n
        passes.append((kind, rows.size))
    return passes


def _count_kernel_rows(run):
    """(rows sent through the exact distance kernel, rows assigned by a pass
    of ``_nearest_blocks``, center sets assigned to) by ``run()``."""
    rows, assigned, evaluated = [0], [0], []
    squared, nearest, assign = geometry_mod._squared, geometry_mod._nearest_blocks, geometry_mod._LloydBounds.assign

    def count_rows(x, *args):
        rows[0] += len(x)
        return squared(x, *args)

    def count_assigned(x, *args):
        assigned[0] += len(x)
        return nearest(x, *args)

    def count_sets(bounds, queries):
        evaluated.append(queries.s)
        return assign(bounds, queries)

    with mock.patch.object(geometry_mod, "_squared", side_effect=count_rows), mock.patch.object(
        geometry_mod, "_nearest_blocks", side_effect=count_assigned
    ), mock.patch.object(geometry_mod._LloydBounds, "assign", autospec=True, side_effect=count_sets):
        run()
    return rows[0], assigned[0], len(evaluated)


def _exact_squares(points, centers):
    """(m, s) object array of the exact squared distances as Fractions, for
    coordinates in [256, 512): each is a multiple of 2⁻⁴⁴, so every difference
    is exact in floats and, scaled by 2⁴⁴, an integer."""
    assert ((256 <= points) & (points < 512)).all() and ((256 <= centers) & (centers < 512)).all()
    scaled = ((points[:, None, :] - centers[None]) * 2.0**44).astype(np.int64).astype(object)
    return (scaled * scaled).sum(axis=2) * Fraction(1, 2**88)


def _reference_kmeans_plus_plus(points, s, rng):
    """k-means++ seeding through rng.choice, with row-wise D² sums."""
    n = points.shape[0]
    centers = np.empty((s, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    closest_sq = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, s):
        total = closest_sq.sum()
        pick = int(rng.integers(n)) if total == 0.0 else int(rng.choice(n, p=closest_sq / total))
        centers[j] = points[pick]
        closest_sq = np.minimum(closest_sq, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _sequential_kmeans(points, s, rng, max_iter=100, tol=1e-6):
    """Lloyd iterations with one boolean mask per cluster and reseeding in
    cluster order: the reference the vectorized update must reproduce.
    Assignments take the first minimum of the squared distances; the farthest
    point is read from the rooted ones, as kmeans reseeds by."""
    n = points.shape[0]
    centers = geometry_mod._kmeans_plus_plus_init(points, s, rng)
    for _ in range(max_iter):
        sq = squared_distances(points, centers)
        assignment = np.argmin(sq, axis=1)
        dists = np.sqrt(np.maximum(sq, 0.0))
        new_centers = centers.copy()
        for j in range(s):
            members = assignment == j
            if members.any():
                new_centers[j] = points[members].mean(axis=0)
            else:
                far = int(np.argmax(dists[np.arange(n), assignment]))
                new_centers[j] = points[far]
                assignment[far] = j
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if shift < tol:
            break
    return centers, np.argmin(squared_distances(points, centers), axis=1)


class TestUncertaintySelection:
    def test_smallest_margin_wins(self):
        soft = np.array([[0.95, 0.05], [0.525, 0.475], [0.75, 0.25]])
        assert np.allclose(margins(soft), [0.9, 0.05, 0.5])
        assert list(select_queries_uncertainty(soft, 1)) == [1]

    def test_ties_break_by_index(self):
        soft = np.full((4, 2), 0.5)
        assert list(select_queries_uncertainty(soft, 2)) == [0, 1]

    def test_uniform_beats_peaked(self):
        soft = np.array([[0.9, 0.1], [0.5, 0.5], [0.8, 0.2]])
        assert list(select_queries_uncertainty(soft, 1)) == [1]

    def test_fewer_candidates_than_s_returns_all(self):
        soft = np.array([[0.9, 0.1], [0.5, 0.5], [0.8, 0.2]])
        picked = select_queries_uncertainty(soft, 5, exclude=np.array([1]))
        assert list(picked) == [0, 2]


class TestReverseKnn:
    def test_fixture_connections(self):
        records, queries = four_point_fixture()
        conn = reverse_knn_connect(records.embeddings, queries, k=1)
        assert conn.indices.ravel().tolist() == [0, 1, 2, 0]

    def test_k_at_least_s_connects_all(self):
        records, queries = four_point_fixture()
        conn = reverse_knn_connect(records.embeddings, queries, k=3)
        assert conn.degree == 3
        assert np.array_equal(conn.indices, np.tile([0, 1, 2], (4, 1)))

    def test_distance_tie_prefers_smaller_index(self):
        queries = QuerySet(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        conn = reverse_knn_connect(np.array([[0.0, 0.0]]), queries, k=1)
        assert conn.indices.tolist() == [[0]]

    def test_empty_record_list_is_valid(self):
        _, queries = four_point_fixture()
        conn = reverse_knn_connect(np.zeros((0, 2)), queries, k=2)
        assert conn.m == 0

    def test_overflowing_distances_rejected(self):
        # every distance is inf, so argmin alone would pick query 0 twice
        queries = QuerySet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            reverse_knn_connect(np.array([[0.5, 0.0], [1e200, 0.0]]), queries, k=2)

    def test_overflowing_query_rejected(self):
        # every record's distance to the far query is inf, so no record picks
        # it: only the query's squared norm shows the overflow
        queries = QuerySet(np.array([[0.0, 0.0], [1e200, 0.0], [2.0, 0.0]]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            reverse_knn_connect(np.array([[0.5, 0.0], [1.5, 0.0]]), queries, k=1)

    def test_overflowing_cells_with_finite_norms_rejected(self):
        # |x|² and |q|² are finite but each cross term is beyond the float
        # range, so the record has no finite distance to pick
        queries = QuerySet(np.array([[-1.2e154, 0.0], [-1.1e154, 0.0]]))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflow"):
            reverse_knn_connect(np.array([[0.0, 0.0], [1.2e154, 0.0]]), queries, k=1)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_overflowing_cell_among_finite_ones_rejected(self, dim):
        # the norms are finite but the record's product with query 0 is not:
        # as the product sums its terms the square is -inf or NaN, which the
        # first pass picks, although query 2 stays finite
        x = np.zeros((1, dim))
        x[0, 0] = 1.3e154
        q = np.zeros((3, dim))
        q[0, 0], q[1, 1], q[2, 0] = 1.3e154, 1.3e154, 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for k in (1, 2):
                with pytest.raises(ValueError, match="overflow"):
                    reverse_knn_connect(x, QuerySet(q), k)

    def test_infinite_square_rejected_only_when_picked(self):
        # the cross terms with queries 0 and 3 overflow upward, so their
        # squares are +inf: passes that stop at the finite queries connect,
        # and a pass that reaches an inf square raises
        x = np.array([[1.3e154, 0.0]])
        queries = QuerySet(np.array([[-1.3e154, 0.0], [1.0, 0.0], [2.0, 0.0], [-1.2e154, 0.0]]))
        with np.errstate(over="ignore"):
            assert np.isposinf(squared_distances(x, queries.embeddings)[0, [0, 3]]).all()
            assert reverse_knn_connect(x, queries, 1).indices.tolist() == [[1]]
            assert reverse_knn_connect(x, queries, 2).indices.tolist() == [[1, 2]]
            with pytest.raises(ValueError, match="overflow"):
                reverse_knn_connect(x, queries, 3)

    def test_k_below_one_rejected(self):
        records, queries = four_point_fixture()
        with pytest.raises(ValueError):
            reverse_knn_connect(records.embeddings, queries, k=0)

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_degree_bound_always_holds(self, k, m, s):
        gen = np.random.default_rng(k * 100 + m * 10 + s)
        emb = gen.normal(size=(m, 2))
        queries = QuerySet(gen.normal(size=(s, 2)))
        conn = reverse_knn_connect(emb, queries, k)
        assert conn.degree == min(k, s) <= k


def _reference_connect(emb, queries, k):
    """Full-sort connect: the whole (m, s) squared matrix, stable-argsorted per row."""
    order = np.argsort(squared_distances(emb, queries.embeddings), axis=1, kind="stable")
    return np.sort(order[:, : min(k, queries.s)], axis=1)


def _reference_scores(emb, queries, indices):
    """Scores read from the dense similarity matrix."""
    sims = similarity_from_distance(pairwise_distances(emb, queries.embeddings))
    scores = np.zeros(queries.s)
    for col in range(indices.shape[1]):
        np.add.at(scores, indices[:, col], sims[np.arange(len(indices)), indices[:, col]])
    return scores


def _clamped_instance(seed, scale):
    """Records and queries on exact and last-bit duplicates of three random
    points, plus noisy copies and four free records, all times ``scale``."""
    gen = np.random.default_rng(seed)
    dim = int(gen.integers(2, 9))
    base = gen.normal(size=(3, dim))
    pool = np.vstack([base, base[:2], np.nextafter(base[:1], np.inf), base[2:] * (1 + 2.0**-52)])
    pool = pool[gen.permutation(len(pool))]
    emb = np.vstack([pool, pool + gen.normal(scale=1e-9, size=pool.shape), gen.normal(size=(4, dim))]) * scale
    return emb, QuerySet(pool * scale)


@st.composite
def _tied_instances(draw):
    """Records and queries with repeated rows and small-integer coordinates,
    so many distances tie exactly."""
    m, s = draw(st.integers(0, 300)), draw(st.integers(1, 12))
    k = draw(st.integers(1, s + 2))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = int(gen.integers(2, 4))
    if draw(st.booleans()):
        pool = gen.integers(1, 4, size=(max(1, s // 2), dim)).astype(np.float64)
    else:
        pool = gen.normal(size=(max(1, s // 2), dim)) + 3.0
    queries = QuerySet(pool[gen.integers(0, len(pool), size=s)])
    records = np.vstack([pool, gen.normal(size=(5, dim)) + 3.0])[gen.integers(0, len(pool) + 5, size=m)]
    return records, queries, k


class TestBlockedConnect:
    @given(_tied_instances())
    @settings(max_examples=150, deadline=None)
    def test_connect_and_scores_equal_dense_reference(self, instance):
        emb, queries, k = instance
        expected = _reference_connect(emb, queries, k)
        expected_scores = _reference_scores(emb, queries, expected)
        # the default, one row per block, and three rows per block
        for cells in (geometry_mod._DISTANCE_BLOCK_CELLS, queries.s, 3 * queries.s):
            with mock.patch.object(geometry_mod, "_DISTANCE_BLOCK_CELLS", cells):
                conn = reverse_knn_connect(emb, queries, k)
                assert conn.indices.tobytes() == expected.tobytes()
                assert connection_scores(emb, queries, conn).tobytes() == expected_scores.tobytes()

    @pytest.mark.parametrize("m", [1001, 1000])
    def test_blocking_leaves_outputs_byte_identical(self, rng, monkeypatch, m):
        # s = 7 divides neither m; m = 1001 leaves a lone row after 2-row blocks
        emb = rng.normal(size=(m, 8))
        queries = QuerySet(rng.normal(size=(7, 8)))
        maps, scores = [], []
        for cells in (geometry_mod._DISTANCE_BLOCK_CELLS, 7, 14, 7 * 333, 7 * m):
            monkeypatch.setattr(geometry_mod, "_DISTANCE_BLOCK_CELLS", cells)
            conn = reverse_knn_connect(emb, queries, 3)
            maps.append(conn.indices.tobytes())
            scores.append(connection_scores(emb, queries, conn).tobytes())
        assert maps == [_reference_connect(emb, queries, 3).tobytes()] * len(maps)
        assert len(set(scores)) == 1

    def test_near_ties_follow_the_squared_distance(self):
        # records on the bisector of two queries: their squares tie up to the
        # last bit, and an exact tie goes to the smaller index
        for seed in range(300):
            records, queries = bisector_near_ties(seed)
            for k in (1, 2):
                expected = _reference_connect(records.embeddings, queries, k)
                assert reverse_knn_connect(records.embeddings, queries, k).indices.tobytes() == expected.tobytes(), (seed, k)

    @pytest.mark.parametrize("scale", [1.0, 1e-155])
    def test_clamped_and_subnormal_squares_follow_the_squared_distance(self, scale):
        # records on exact and last-bit duplicates of the queries have squares
        # at or below 0, which all root to distance 0 but order by the square;
        # at scale 1e-155 the squares are subnormal
        for seed in range(100):
            emb, queries = _clamped_instance(seed, scale)
            for k in (1, 2, queries.s - 1):
                expected = _reference_connect(emb, queries, k)
                conn = reverse_knn_connect(emb, queries, k)
                assert conn.indices.tobytes() == expected.tobytes(), (seed, k)
                scores = connection_scores(emb, queries, conn)
                assert scores.tobytes() == _reference_scores(emb, queries, expected).tobytes(), (seed, k)

    def test_connect_builds_no_dense_matrix(self, monkeypatch):
        # the bisector and clamped datasets are where a tie fallback through
        # the whole distance matrix would fire
        def dense(*args):
            raise AssertionError("reverse_knn_connect built the dense matrix")

        cases = [(r.embeddings, q) for r, q in map(bisector_near_ties, range(300))]
        cases += [_clamped_instance(seed, scale) for seed in range(100) for scale in (1.0, 1e-155)]
        monkeypatch.setattr(geometry_mod, "pairwise_distances", dense)
        monkeypatch.setattr(geometry_mod, "squared_distances", dense)
        for emb, queries in cases:
            for k in (1, 2):
                assert reverse_knn_connect(emb, queries, k).m == len(emb)

    @pytest.mark.parametrize("k", [1, 2])
    def test_memory_stays_within_a_few_blocks_on_the_bench_record_shape(self, k):
        # picks, block buffers and one block's temporaries: augmenting every
        # record at once instead would take about 8 MiB here
        gen = np.random.default_rng(8)
        emb = gen.normal(size=(60_000, 8))
        queries = QuerySet(gen.normal(size=(200, 8)))
        tracemalloc.start()
        try:
            reverse_knn_connect(emb, queries, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_memory_stays_below_a_quarter_of_the_dense_matrix(self):
        gen = np.random.default_rng(5)
        m, s = 40_000, 200
        emb = gen.normal(size=(m, 8))
        queries = QuerySet(gen.normal(size=(s, 8)))
        tracemalloc.start()
        try:
            reverse_knn_connect(emb, queries, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * s * 8 / 4


def _short_row_blocks(s):
    """(rows, s) blocks with exact ties, repeated rows, NaN, ±inf and ±0.0."""
    gen = np.random.default_rng(s)
    ties = gen.integers(-2, 3, size=(40, s)).astype(np.float64)
    ties[20:] = ties[gen.integers(0, 20, size=20)]
    special = gen.normal(size=(60, s))
    cells = gen.integers(0, s, size=(60, 3))
    special[np.arange(0, 60, 6)[:, None], cells[::6]] = np.nan
    special[np.arange(1, 60, 6)[:, None], cells[1::6]] = np.inf
    special[np.arange(2, 60, 6)[:, None], cells[2::6]] = -np.inf
    special[np.arange(3, 60, 6)[:, None], cells[3::6]] = 0.0
    special[np.arange(4, 60, 6)[:, None], cells[4::6]] = -0.0
    special[5] = np.nan
    special[11] = np.inf
    special[17] = np.where(np.arange(s) % 2, 0.0, -0.0)
    return ties, special, gen.normal(size=(30, s))


class TestShortRowPicks:
    """Rows below ``_SHORT_ROW`` cells read the value after their picks by
    column minima, longer rows by one more argmin pass."""

    def test_picks_equal_the_argmin_passes_on_both_sides_of_the_bound(self):
        assert 2 < geometry_mod._SHORT_ROW < 40
        for s in range(2, 41):
            for block in _short_row_blocks(s):
                for degree in range(1, min(5, s - 1) + 1):
                    ref = block.copy()
                    rows = np.arange(len(ref))
                    expected = np.empty((degree, len(ref)), dtype=np.int64)
                    values = []
                    for col in range(degree):
                        expected[col] = np.argmin(ref, axis=1)
                        values.append(ref[rows, expected[col]])
                        ref[rows, expected[col]] = np.inf
                    after = ref[rows, np.argmin(ref, axis=1)]
                    picks = np.empty((degree, len(block)), dtype=np.int64)
                    got = geometry_mod._picks(block.copy(), picks)
                    assert picks.tobytes() == expected.tobytes(), (s, degree)
                    assert got[0].tobytes() == values[0].tobytes(), (s, degree)
                    assert got[1].tobytes() == values[-1].tobytes(), (s, degree)
                    # the same value, up to the sign of a zero; NaN where argmin reads NaN
                    assert np.array_equal(got[2], after, equal_nan=True), (s, degree)

    def test_only_long_rows_take_an_argmin_pass_for_the_next_value(self):
        argmin, shapes = np.argmin, []

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return argmin(a, *args, **kwargs)

        gen = np.random.default_rng(2)
        bound = geometry_mod._SHORT_ROW
        for s, passes in ((200, 3), (bound, 3), (bound - 1, 2), (10, 2)):
            shapes.clear()
            with mock.patch.object(geometry_mod.np, "argmin", side_effect=spy):
                geometry_mod._picks(gen.normal(size=(50, s)), np.empty((2, 50), dtype=np.int64))
            assert shapes == [(50, s)] * passes, s

    @pytest.mark.parametrize("s", [2, 10] + [geometry_mod._SHORT_ROW + i for i in (-1, 0, 1)])
    def test_connect_equals_the_dense_reference_around_the_bound(self, s):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            # queries repeat rows of a small-integer pool, so distances tie exactly
            pool = gen.integers(1, 4, size=(max(1, s // 2), 3)).astype(np.float64)
            queries = QuerySet(pool[gen.integers(0, len(pool), size=s)])
            emb = np.vstack([pool, gen.normal(size=(300, 3)) + 2.0])
            for k in sorted({1, 2, s - 1} & set(range(1, s))):
                expected = _reference_connect(emb, queries, k).tobytes()
                # the default block, and 7-row blocks
                for cells in (geometry_mod._DISTANCE_BLOCK_CELLS, 7 * s):
                    with mock.patch.object(geometry_mod, "_DISTANCE_BLOCK_CELLS", cells):
                        assert reverse_knn_connect(emb, queries, k).indices.tobytes() == expected, (seed, k)


@contextlib.contextmanager
def _kernel_rows():
    """Collect the rows every ``_squared`` call receives, as one list of row bytes."""
    seen, squared = [], geometry_mod._squared

    def spy(x, *args):
        seen.extend(row.tobytes() for row in x)
        return squared(x, *args)

    with mock.patch.object(geometry_mod, "_squared", side_effect=spy):
        yield seen


class TestCertifiedPass:
    """Connection and Lloyd's assignment pick from one gemm per block and send
    only the rows the gemm cannot decide through the exact kernel."""

    def test_well_separated_records_skip_the_exact_kernel(self):
        gen = np.random.default_rng(12)
        queries = QuerySet(gen.normal(scale=20.0, size=(12, 8)))
        emb = queries.embeddings[gen.integers(0, 12, size=5_000)] + gen.normal(size=(5_000, 8))
        for k in (1, 2, 11):
            with _kernel_rows() as seen:
                conn = reverse_knn_connect(emb, queries, k)
            assert seen == [], k
            assert conn.indices.tobytes() == _reference_connect(emb, queries, k).tobytes()

    def test_every_tied_row_goes_through_the_exact_kernel(self):
        # a row whose k-th and (k+1)-th squares tie up to rounding has no
        # certified picks; rows whose tie lies elsewhere may be certified
        tied_rows = 0
        for seed in range(300):
            records, queries = bisector_near_ties(seed)
            x = records.embeddings
            sq = np.sort(squared_distances(x, queries.embeddings), axis=1)
            scale = (np.linalg.norm(x, axis=1) + np.linalg.norm(queries.embeddings, axis=1).max()) ** 2
            for k in range(1, queries.s):
                with _kernel_rows() as seen:
                    conn = reverse_knn_connect(x, queries, k)
                assert conn.indices.tobytes() == _reference_connect(x, queries, k).tobytes(), (seed, k)
                tied = np.flatnonzero(sq[:, k] - sq[:, k - 1] <= 1e-12 * scale)
                assert {x[i].tobytes() for i in tied} <= set(seen), (seed, k)
                tied_rows += len(tied)
        assert tied_rows > 1000

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 50])
    def test_offset_inputs_connect_as_the_dense_reference(self, dim):
        # |x|² and |q|² near 1e8·dim cancel in every square; repeated queries
        # tie exactly, so some rows fall back and the others are certified
        for seed in range(20):
            gen = np.random.default_rng(seed)
            pool = gen.normal(size=(6, dim)) + 1e4
            queries = QuerySet(pool[gen.integers(0, 6, size=10)])
            emb = np.vstack([pool, gen.normal(size=(300, dim)) + 1e4])
            for k in (1, 2, queries.s - 1):
                conn = reverse_knn_connect(emb, queries, k)
                assert conn.indices.tobytes() == _reference_connect(emb, queries, k).tobytes(), (seed, k)

    @staticmethod
    def _far_world():
        """50 records and 5 queries of norm about 1e151, every query with a
        first coordinate below -1e151: the squares of a record near
        (1.3407e154, 0), where |x|² is just finite, all overflow."""
        gen = np.random.default_rng(4)
        q = gen.normal(size=(5, 2)) * 1e151
        q[:, 0] = -1e151 - np.abs(q[:, 0])
        return gen.normal(size=(50, 2)) * 1e151, QuerySet(q)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1.3407e154, 0.0], "distances overflow: embeddings too large to connect"),
            ([np.inf, 0.0], "distances overflow: coordinates too large to square"),
            ([0.0, -np.inf], "distances overflow: coordinates too large to square"),
            ([np.nan, 1.0], "distances overflow: coordinates too large to square"),
            ([1.3e154, 0.0], None),
        ],
    )
    def test_rows_near_the_float_range_get_the_exact_kernels_outcome(self, bad, message):
        # the other rows are certified; the bad one's margin overflows, so it
        # raises, or connects, as the exact kernel does
        emb, queries = self._far_world()
        emb[37] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            for k in (1, 2):
                # the default block, and 4-row blocks with the row in the tenth
                for cells in (geometry_mod._DISTANCE_BLOCK_CELLS, 4 * queries.s):
                    with mock.patch.object(geometry_mod, "_DISTANCE_BLOCK_CELLS", cells), _kernel_rows() as seen:
                        if message is None:
                            conn = reverse_knn_connect(emb, queries, k)
                        else:
                            with pytest.raises(ValueError) as raised:
                                reverse_knn_connect(emb, queries, k)
                            assert str(raised.value) == message, (k, cells)
                    assert seen == [emb[37].tobytes()], (k, cells)
                    if message is None:
                        assert conn.indices.tobytes() == _reference_connect(emb, queries, k).tobytes()

    def test_the_first_failing_block_names_the_error(self):
        # an unconnectable row in one block and an infinite one in a later
        # block raise for the earlier, in either order
        emb, queries = self._far_world()
        with np.errstate(over="ignore", invalid="ignore"), mock.patch.object(
            geometry_mod, "_DISTANCE_BLOCK_CELLS", 4 * queries.s
        ):
            for first, second, message in (
                ([1.3407e154, 0.0], [np.inf, 0.0], "embeddings too large to connect"),
                ([np.inf, 0.0], [1.3407e154, 0.0], "coordinates too large to square"),
            ):
                emb[1], emb[6] = first, second
                with pytest.raises(ValueError, match=message):
                    reverse_knn_connect(emb, queries, 1)

    def test_lloyd_bounds_hold_on_gemm_and_kernel_rows(self):
        # after every assignment, upper bounds each row's exact distance to
        # its center and lower every other exact distance; the offset makes a
        # square's rounding far larger than a point's spread, and the
        # repeated center sends its rows through the kernel
        gen = np.random.default_rng(5)
        points = gen.normal(size=(2_000, 4)) + 300.0
        centers = points[gen.choice(len(points), 8, replace=False)]
        centers[7] = centers[3]
        bounds, everyone = geometry_mod._LloydBounds(points), np.arange(len(points))
        for _ in range(4):
            with _kernel_rows() as seen:
                assignment = bounds.assign(QuerySet(centers))
            assert 0 < len(seen) < len(points)
            assert assignment.tobytes() == np.argmin(squared_distances(points, centers), axis=1).tobytes()
            exact = _exact_squares(points, centers)
            assert all(Fraction(u) ** 2 >= d for u, d in zip(bounds.upper, exact[everyone, assignment]))
            exact[everyone, assignment] = math.inf
            assert all(Fraction(v) ** 2 <= d for v, d in zip(bounds.lower, exact.min(axis=1)))
            step = gen.normal(scale=0.02, size=centers.shape)
            step[7] = step[3]
            bounds.move(step)
            centers = centers + step

    def test_lloyd_on_the_bench_pool_certifies_every_row(self):
        # at s = 200 the gemm decides every row Lloyd assigns, and centers
        # and assignments stay those of the sequential reference
        pool = _bench_pool(3)
        rows, assigned, evaluated = _count_kernel_rows(lambda: kmeans(pool, 200, np.random.default_rng(200)))
        assert assigned > 3 * len(pool)
        assert rows == 0
        centers, assignment = kmeans(pool, 200, np.random.default_rng(200))
        ref_centers, ref_assignment = _sequential_kmeans(pool, 200, np.random.default_rng(200))
        assert centers.tobytes() == ref_centers.tobytes()
        assert assignment.tobytes() == ref_assignment.tobytes()


class TestRowWorkOncePerCall:
    """Norms and margins are computed once per connect and per Lloyd
    assignment, not once per block, and the cheaper orderings around the
    kernel give the bytes of the forms they replace."""

    def test_margins_run_once_per_connect_and_per_assignment(self):
        gen = np.random.default_rng(14)
        queries = QuerySet(gen.normal(size=(200, 8)))
        emb = gen.normal(size=(5_000, 8))
        with mock.patch.object(geometry_mod, "_margins", wraps=geometry_mod._margins) as margins_spy:
            for k in (1, 2, 5):
                reverse_knn_connect(emb, queries, k)
                assert margins_spy.call_count == 1, k
                margins_spy.reset_mock()
        pool = _bench_pool(3)
        assigned = []
        assign = geometry_mod._LloydBounds.assign

        def count(bounds, queries):
            assigned.append(queries.s)
            return assign(bounds, queries)

        with mock.patch.object(geometry_mod, "_margins", wraps=geometry_mod._margins) as margins_spy, mock.patch.object(
            geometry_mod._LloydBounds, "assign", autospec=True, side_effect=count
        ):
            kmeans(pool, 200, np.random.default_rng(200))
        assert len(assigned) > 3
        assert margins_spy.call_count == len(assigned)

    def test_connect_reads_the_record_sets_norms(self):
        # the norms cached on the record set give the map of the norms
        # computed per call, and the connect computes none of its own
        gen = np.random.default_rng(17)
        queries = QuerySet(gen.normal(size=(200, 8)))
        records = random_record_set(gen, m=5_000, dim=8, label_count=3)
        squares = records.squared_norms
        expected = {k: reverse_knn_connect(records.embeddings, queries, k).indices for k in (1, 2, 5)}

        def forbidden(*args, **kwargs):
            raise AssertionError("the connect computed the norms")

        with mock.patch.object(np, "einsum", forbidden), mock.patch.object(
            geometry_mod, "_margins", wraps=geometry_mod._margins
        ) as margins_spy:
            for k, indices in expected.items():
                got = reverse_knn_connect(records.embeddings, queries, k, squares=squares)
                assert got.indices.tobytes() == indices.tobytes(), k
                assert margins_spy.call_count == 1, k
                margins_spy.reset_mock()

    @pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), ()])
    def test_norms_of_the_wrong_shape_are_rejected(self, shape):
        emb = np.zeros((5, 2))
        with pytest.raises(ValueError, match="one squared norm per record"):
            reverse_knn_connect(emb, QuerySet(np.eye(2)), 1, squares=np.zeros(shape))

    def test_blocks_compute_no_norm_or_margin(self):
        # 16 blocks of 327 rows, some rows through the exact kernel (the
        # repeated query ties): the blocks read the caller's norms and gaps
        gen = np.random.default_rng(15)
        q = gen.normal(size=(200, 8))
        q[7] = q[3]
        emb = np.vstack([q, gen.normal(size=(5_000, 8))])
        cols = geometry_mod._query_side(q)
        squares = np.einsum("ij,ij->i", emb, emb)
        gaps = 4 * geometry_mod._margins(squares, cols)

        def forbidden(*args, **kwargs):
            raise AssertionError("a block computed a norm or margin")

        picks = []
        with mock.patch.object(np, "einsum", forbidden), mock.patch.object(geometry_mod, "_margins", forbidden), _kernel_rows() as seen:
            for start, nearest, _, _ in geometry_mod._nearest_blocks(emb, cols, 2, squares, gaps):
                picks.append(nearest.T.copy())
        assert seen
        expected = np.argsort(squared_distances(emb, q), axis=1, kind="stable")[:, :2]
        assert np.sort(np.concatenate(picks), axis=1).tobytes() == np.sort(expected, axis=1).tobytes()

    @pytest.mark.parametrize("n", [2, 7, 5000])
    @pytest.mark.parametrize("dim", [1, 2, 8, 64, 130])
    @pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e150, 0.0), (1e-150, 0.0), (1.0, 1e4)])
    def test_kmeans_plus_plus_squares_equal_the_coordinate_loop(self, n, dim, scale, offset):
        gen = np.random.default_rng(n * dim)
        points = gen.normal(size=(n, dim)) * scale + offset
        columns = np.ascontiguousarray(points.T)
        center = points[n // 2] + gen.normal(size=dim) * scale
        expected, diff = np.empty(n), np.empty(n)
        with np.errstate(over="ignore", under="ignore"):
            # the per-coordinate loop the whole-array update replaces
            np.square(np.subtract(columns[0], center[0], out=expected), out=expected)
            for column, coordinate in zip(columns[1:], center[1:]):
                expected += np.square(np.subtract(column, coordinate, out=diff), out=diff)
            got = geometry_mod._center_squares(columns, center, np.empty_like(columns), np.empty(n))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [1, 8, 130])
    def test_kmeans_plus_plus_of_a_lone_point_computes_no_squares(self, dim):
        # numpy sums a lone column pairwise; a lone point's one center weighs
        # no pick, so no D² is computed for it
        point = np.random.default_rng(dim).normal(size=(1, dim))
        with mock.patch.object(geometry_mod, "_center_squares", wraps=geometry_mod._center_squares) as squares:
            centers = geometry_mod._kmeans_plus_plus_init(point, 1, np.random.default_rng(0))
            geometry_mod._kmeans_plus_plus_init(np.vstack([point, point + 1]), 2, np.random.default_rng(0))
        assert centers.tobytes() == point.tobytes()
        assert squares.call_count == 1

    def test_pairs_picked_in_either_order_equal_a_per_row_sort(self):
        # repeated queries tie exactly; the first pick has the larger index in
        # some rows and the smaller in others (TestBlockedConnect covers k = 2
        # on random tied instances)
        gen = np.random.default_rng(16)
        q = gen.integers(0, 3, size=(12, 2)).astype(np.float64)
        emb = np.vstack([q, gen.normal(size=(500, 2)) + 1.0])
        sq = squared_distances(emb, q)
        picks = np.argsort(sq, axis=1, kind="stable")[:, :2]
        assert (picks[:, 0] > picks[:, 1]).any() and (picks[:, 0] < picks[:, 1]).any()
        assert (sq[np.arange(len(emb)), picks[:, 0]] == sq[np.arange(len(emb)), picks[:, 1]]).any()
        for cells in (geometry_mod._DISTANCE_BLOCK_CELLS, 12, 36):
            with mock.patch.object(geometry_mod, "_DISTANCE_BLOCK_CELLS", cells):
                assert reverse_knn_connect(emb, QuerySet(q), 2).indices.tobytes() == np.sort(picks, axis=1).tobytes()


def connected_counts(records, conn):
    """The (s, label_count) vote counts of ``records`` under ``conn``."""
    return vote_counts(record_votes(records, conn), (conn.s, records.label_count))


class TestVoteCounts:
    def test_partial_client(self):
        records, queries = four_point_fixture()
        client = records.subset(np.array([0, 3]))
        conn = reverse_knn_connect(client.embeddings, queries, k=1)
        counts = connected_counts(client, conn)
        assert counts.tolist() == [[2, 0], [0, 0], [0, 0]]

    def test_zero_records_zero_matrix(self):
        _, queries = four_point_fixture()
        conn = reverse_knn_connect(np.zeros((0, 2)), queries, k=1)
        counts = connected_counts(RecordSet(np.zeros((0, 2)), np.zeros((0, 2), dtype=np.uint8)), conn)
        assert counts.shape == (3, 2) and counts.sum() == 0

    def test_full_fixture_aggregate(self):
        records, queries = four_point_fixture()
        conn = reverse_knn_connect(records.embeddings, queries, k=1)
        assert connected_counts(records, conn).tolist() == [[2, 0], [0, 1], [0, 1]]

    def test_l1_norm_is_m_times_degree_times_r(self, rng):
        records = random_record_set(rng, m=7, dim=2, label_count=5, r=2)
        queries = random_queries(rng, s=4, dim=2)
        conn = reverse_knn_connect(records.embeddings, queries, k=3)
        counts = connected_counts(records, conn)
        assert counts.sum() == 7 * conn.degree * 2

    def test_record_order_irrelevant(self, rng):
        records = random_record_set(rng, m=6, dim=2, label_count=3)
        queries = random_queries(rng, s=3, dim=2)
        perm = rng.permutation(6)
        a = connected_counts(records, reverse_knn_connect(records.embeddings, queries, 2))
        shuffled = records.subset(perm)
        b = connected_counts(shuffled, reverse_knn_connect(shuffled.embeddings, queries, 2))
        assert np.array_equal(a, b)

    def test_label_out_of_range_rejected(self):
        # labels are checked once, where the record set is built
        records, _ = four_point_fixture()
        bad = records.labels.copy().astype(np.int64)
        bad[0, 0] = 2
        with pytest.raises(ValueError):
            RecordSet(records.embeddings, bad)

    def test_connections_must_cover_the_records(self):
        records, queries = four_point_fixture()
        conn = reverse_knn_connect(records.embeddings[:3], queries, k=1)
        with pytest.raises(ValueError, match="cover"):
            record_votes(records, conn)


class TestScoresAndObjectives:
    def test_fixture_scores(self):
        records, queries = four_point_fixture()
        conn = reverse_knn_connect(records.embeddings, queries, k=1)
        scores = connection_scores(records.embeddings, queries, conn)
        # records 0 and 3 both sit at distance 1 from query 0
        assert scores[0] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(similarity_from_distance(1.0))

    def test_unconnected_query_scores_zero(self):
        queries = QuerySet(np.array([[0.0, 0.0], [100.0, 0.0]]))
        conn = reverse_knn_connect(np.array([[0.0, 1.0]]), queries, k=1)
        scores = connection_scores(np.array([[0.0, 1.0]]), queries, conn)
        assert scores[1] == 0.0

    def test_zero_distance_scores_one(self):
        queries = QuerySet(np.array([[2.0, 2.0], [9.0, 9.0]]))
        emb = np.array([[2.0, 2.0]])
        conn = reverse_knn_connect(emb, queries, k=1)
        assert connection_scores(emb, queries, conn)[0] == pytest.approx(1.0)

    def test_scores_reject_records_the_map_does_not_cover(self):
        queries = QuerySet(np.array([[2.0, 2.0], [9.0, 9.0]]))
        conn = reverse_knn_connect(np.array([[2.0, 2.0]]), queries, k=1)
        with pytest.raises(ValueError, match="cover"):
            connection_scores(np.array([[2.0, 2.0], [9.0, 9.0]]), queries, conn)

    def test_objective_values(self):
        scores = np.array([1.0, 0.5, 0.5])
        assert objective_value(scores, ConnectionObjective.ARITHMETIC_MEAN) == pytest.approx(2 / 3)
        assert objective_value(scores, ConnectionObjective.MAX_MIN) == pytest.approx(0.5)
        assert objective_value(scores, ConnectionObjective.HARMONIC_MEAN) == pytest.approx(0.6)

    def test_harmonic_mean_zero_convention(self):
        assert objective_value(np.array([0.0, 1.0]), ConnectionObjective.HARMONIC_MEAN) == 0.0

    @pytest.mark.parametrize("objective", list(ConnectionObjective))
    def test_score_rows_reduce_as_single_rows(self, objective):
        # the (candidates, s) form brute force reduces equals the 1-D value row by row
        gen = np.random.default_rng(17)
        for s in (1, 2, 4, 9):
            scores = gen.random((300, s)) * 3.0
            scores[gen.random((300, s)) < 0.15] = 0.0
            values = objective_value(scores, objective)
            assert values.shape == (300,)
            rows = [objective_value(row, objective) for row in scores]
            assert values.tobytes() == np.array(rows).tobytes()
            if objective is ConnectionObjective.HARMONIC_MEAN:
                assert (values[(scores == 0).any(axis=1)] == 0.0).all()


class TestBruteForce:
    def test_reverse_knn_attains_arithmetic_optimum_on_fixture(self):
        records, queries = four_point_fixture()
        greedy = reverse_knn_connect(records.embeddings, queries, k=1)
        best = brute_force_best_connection(
            records.embeddings, queries, 1, ConnectionObjective.ARITHMETIC_MEAN
        )
        value = lambda conn: objective_value(
            connection_scores(records.embeddings, queries, conn),
            ConnectionObjective.ARITHMETIC_MEAN,
        )
        assert value(greedy) == pytest.approx(value(best), abs=1e-12)

    def test_maxmin_with_unreachable_query_returns_lexicographic_first(self):
        queries = QuerySet(np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]]))
        emb = np.array([[0.1, 0.0]])
        best = brute_force_best_connection(emb, queries, 1, ConnectionObjective.MAX_MIN)
        # one record cannot reach three queries, so min score is 0 everywhere
        # and the tie resolves to the first candidate
        assert best.indices.tolist() == [[0]]

    def test_k_equals_s_connects_everything_under_arithmetic_mean(self, rng):
        emb = rng.normal(size=(3, 2))
        queries = random_queries(rng, s=3, dim=2)
        best = brute_force_best_connection(
            emb, queries, 3, ConnectionObjective.ARITHMETIC_MEAN
        )
        assert np.array_equal(best.indices, np.tile([0, 1, 2], (3, 1)))

    def test_large_instance_rejected(self, rng):
        emb = rng.normal(size=(7, 2))
        queries = random_queries(rng, s=3, dim=2)
        with pytest.raises(ValueError):
            brute_force_best_connection(emb, queries, 1, ConnectionObjective.ARITHMETIC_MEAN)

    @pytest.mark.parametrize("trial", range(25))
    def test_reverse_knn_maximizes_arithmetic_mean(self, trial):
        gen = np.random.default_rng(1000 + trial)
        s = int(gen.integers(2, 5))
        m = int(gen.integers(1, 7))
        k = int(gen.integers(1, 3))
        emb = gen.normal(size=(m, 2))
        queries = QuerySet(gen.normal(size=(s, 2)))
        greedy = reverse_knn_connect(emb, queries, k)
        best = brute_force_best_connection(emb, queries, k, ConnectionObjective.ARITHMETIC_MEAN)
        got = objective_value(
            connection_scores(emb, queries, greedy), ConnectionObjective.ARITHMETIC_MEAN
        )
        opt = objective_value(
            connection_scores(emb, queries, best), ConnectionObjective.ARITHMETIC_MEAN
        )
        assert got == pytest.approx(opt, abs=1e-12)


class TestPropagation:
    def test_cluster_members_inherit_center_label(self):
        assignment = np.array([2, 2, 2, 0])
        labels = np.array([4, 5, 7])
        assert propagate_labels(assignment, labels).tolist() == [7, 7, 7, 4]

    def test_single_cluster_constant(self):
        assert propagate_labels(np.zeros(5, dtype=int), np.array([3])).tolist() == [3] * 5

    def test_perfect_fixture_accuracy(self):
        records, queries = four_point_fixture()
        conn = reverse_knn_connect(records.embeddings, queries, k=1)
        counts = connected_counts(records, conn)
        bucket_labels = np.argmax(counts, axis=1)
        assignment = np.array([0, 1, 2, 0])
        truth = np.array([0, 1, 1, 0])
        propagated = propagate_labels(assignment, bucket_labels)
        assert propagation_accuracy(propagated, truth) == 1.0
