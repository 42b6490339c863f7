"""Embedding-space geometry: query selection, reverse k-NN connection and
connection-quality scores.

Reverse k-NN attaches every record to its k nearest queries, which caps each
record's contribution to the aggregate (the forward rule would let one record
touch every query).  Query selection uses k-means++ seeded Lloyd iterations on
the public embeddings; later rounds switch to smallest-margin uncertainty
sampling.

Distances are Euclidean only, and every one is sqrt(max(sq, 0)) of one
squared-distance product: a row is [x, |x|², 1] @ [-2qᵀ; 1; |q|²], whose
query side is built and checked once per call.  A row's values depend on that
row and the queries alone, never on the rows sharing the call or on the row's
memory offset, so a record connects alone as it does inside any record set.
The aggregate's 2kr sensitivity relies on this.  ``squared_distances``
returns the unrooted matrix and ``pairwise_distances`` its root.  Connection
orders queries by the squared values themselves, ties toward the smaller
index, and rejects a row whose picks are not all finite.  Scores root only
the cells they take.  A squared norm that overflows is rejected before any
product.
"""
from __future__ import annotations

import enum
import itertools

import numpy as np

from .core import ConnectionMap, QuerySet


class ConnectionObjective(enum.Enum):
    ARITHMETIC_MEAN = "arithmetic-mean"
    MAX_MIN = "max-min"
    HARMONIC_MEAN = "harmonic-mean"


_OVERFLOW = "distances overflow: coordinates too large to square"


def _points(points: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError("points and queries must be 2-D with a shared dimension")
    return x


def _query_side(queries: np.ndarray) -> np.ndarray:
    """The (dim + 2, s) right factor [-2qᵀ; 1; |q|²] of every distance
    product.  Raises ValueError when a query's squared norm overflows."""
    dim = queries.shape[1]
    cols = np.empty((dim + 2, queries.shape[0]))
    np.multiply(queries.T, -2.0, out=cols[:dim])
    cols[dim] = 1.0
    np.sum(queries * queries, axis=1, out=cols[dim + 1])
    if not np.isfinite(cols[dim + 1]).all():
        # finite coordinates beyond ~1e154 overflow the squared norms
        raise ValueError(_OVERFLOW)
    return cols


def _squared(x: np.ndarray, cols: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared distances of x's rows to the queries behind ``cols``, into
    ``out`` (n, 1, s).  ``rows`` (n, dim + 2), whose last column holds ones,
    takes [x, |x|², 1].

    Each row is its own (1, dim + 2) @ (dim + 2, s) product, which gives
    |x|² + |q|² − 2x·q directly: a gemm over all rows rounds a row's last bit
    by how many rows share the call.  Raises ValueError when a row's squared
    norm overflows."""
    dim = x.shape[1]
    rows[:, :dim] = x
    np.sum(x * x, axis=1, out=rows[:, dim])
    if not np.isfinite(rows[:, dim]).all():
        raise ValueError(_OVERFLOW)
    return np.matmul(rows[:, None, :], cols, out=out)


def squared_distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(m, s) squared Euclidean distances between row vectors of the two
    arrays, unrooted: one augmented product per row, the values every
    connection orders by.  A square may round below 0.  Raises ValueError
    when a row's or query's squared norm overflows."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError("points and queries must be 2-D with a shared dimension")
    x = _points(points, q.shape[1])
    m, s = x.shape[0], q.shape[0]
    return _squared(x, _query_side(q), np.ones((m, x.shape[1] + 2)), np.empty((m, 1, s)))[:, 0]


def pairwise_distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(m, s) Euclidean distance matrix between row vectors of the two arrays:
    sqrt(max(sq, 0)) of ``squared_distances``."""
    sq = squared_distances(points, queries)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def similarity_from_distance(dist: np.ndarray) -> np.ndarray:
    """Positive, monotone-decreasing similarity used by connection scores."""
    return 1.0 / (1.0 + np.asarray(dist, dtype=np.float64))


# ---------------------------------------------------------------------------
# query selection


def _kmeans_plus_plus_init(points: np.ndarray, s: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    # D² runs down the columns of a (dim, n) copy, one coordinate at a time: a
    # row-wise sum of (points - c)**2 makes an (n, dim) temporary per center
    columns = np.ascontiguousarray(points.T)
    centers = np.empty((s, points.shape[1]))
    closest_sq = np.full(n, np.inf)
    dist_sq, diff = np.empty(n), np.empty(n)
    pick = int(rng.integers(n))
    for j in range(s):
        if j:
            total = closest_sq.sum()
            if not np.isfinite(total):
                raise ValueError("k-means++ weights overflow: points too large to cluster")
            if total == 0.0:
                # all remaining mass collapsed onto chosen centers; pick uniformly
                pick = int(rng.integers(n))
            else:
                # rng.choice(n, p=closest_sq / total) without its validation:
                # the same cdf searched with the same draw
                cdf = np.cumsum(closest_sq / total)
                cdf /= cdf[-1]
                pick = int(cdf.searchsorted(rng.random(), side="right"))
        centers[j] = points[pick]
        np.square(np.subtract(columns[0], centers[j, 0], out=dist_sq), out=dist_sq)
        for column, coordinate in zip(columns[1:], centers[j, 1:]):
            dist_sq += np.square(np.subtract(column, coordinate, out=diff), out=diff)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
    return centers


def kmeans(
    points: np.ndarray,
    s: int,
    rng: np.random.Generator,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations from a k-means++ seeding.

    Returns (centers, assignment).  Deterministic given the generator state;
    assignment ties in squared distance go to the smallest center index.  An
    emptied cluster is reseeded at the point farthest from its current center.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be (n, dim)")
    n = points.shape[0]
    if not 1 <= s <= n:
        raise ValueError(f"cluster count s={s} must lie in [1, {n}]")
    centers = _kmeans_plus_plus_init(points, s, rng)
    for _ in range(max_iter):
        queries = QuerySet(centers)
        assignment = reverse_knn_connect(points, queries, 1).indices[:, 0]
        counts = np.bincount(assignment, minlength=s)
        # bincount sums rows in index order from 0.0, as an axis-0 mean does,
        # so each mean equals points[assignment == j].mean(axis=0) bytewise
        sums = np.stack([np.bincount(assignment, col, s) for col in points.T], axis=1)
        new_centers = centers.copy()
        filled = counts > 0
        new_centers[filled] = sums[filled] / counts[filled, None]
        if filled.all() and new_centers.tobytes() == centers.tobytes():
            # a connect to these centers would repeat this assignment
            return centers, assignment
        empty = np.flatnonzero(~filled)
        if empty.size:
            assigned = _connected_distances(points, queries, assignment[:, None])[:, 0]
        while empty.size:
            # reseed in index order; a donor with a larger index takes its
            # mean without the moved point, and may empty in turn
            j = int(empty[0])
            far = int(np.argmax(assigned))
            donor = int(assignment[far])
            new_centers[j] = points[far]
            assignment[far] = j
            # a lone row's distances equal its row of the whole matrix
            assigned[far] = pairwise_distances(points[far : far + 1], centers)[0, j]
            counts[donor] -= 1
            counts[j] += 1
            if donor > j and counts[donor]:
                new_centers[donor] = points[assignment == donor].mean(axis=0)
            empty = j + 1 + np.flatnonzero(counts[j + 1 :] == 0)
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if shift < tol:
            break
    return centers, reverse_knn_connect(points, QuerySet(centers), 1).indices[:, 0]


def select_queries_cluster(
    pub_embeddings: np.ndarray, s: int, rng: np.random.Generator
) -> tuple[QuerySet, np.ndarray]:
    """Cluster the public pool into s groups; the centers become queries."""
    centers, assignment = kmeans(pub_embeddings, s, rng)
    return QuerySet(centers), assignment


def margins(soft: np.ndarray) -> np.ndarray:
    """Top-1 minus top-2 probability per row; small margin = high uncertainty."""
    soft = np.asarray(soft, dtype=np.float64)
    if soft.shape[1] < 2:
        raise ValueError("margins need at least two classes")
    part = np.sort(soft, axis=1)
    return part[:, -1] - part[:, -2]


def select_queries_uncertainty(
    soft: np.ndarray, s: int, exclude: np.ndarray | None = None
) -> np.ndarray:
    """Indices of the s least-confident samples (smallest margin, ties by index).

    Samples listed in ``exclude`` are never selected; if fewer than s eligible
    samples remain, all of them are returned.
    """
    gap = margins(soft)
    eligible = np.ones(gap.shape[0], dtype=bool)
    if exclude is not None and len(exclude):
        eligible[np.asarray(exclude, dtype=np.int64)] = False
    candidates = np.flatnonzero(eligible)
    if candidates.size <= s:
        return candidates
    order = np.lexsort((candidates, gap[candidates]))
    return np.sort(candidates[order[:s]])


# ---------------------------------------------------------------------------
# connection and local answers


_DISTANCE_BLOCK_CELLS = 1 << 16


def _squared_blocks(points: np.ndarray, cols: np.ndarray):
    """Yield (first row, block) for consecutive row blocks of the squared
    distances from ``points`` to the queries behind ``cols``, at most
    ``_DISTANCE_BLOCK_CELLS`` cells (and at least one row) each.  Every block
    is a view of one buffer that the next block overwrites."""
    m, s = points.shape[0], cols.shape[1]
    size = max(1, min(m, _DISTANCE_BLOCK_CELLS // s))
    rows, out = np.ones((size, points.shape[1] + 2)), np.empty((size, 1, s))
    for start in range(0, m, size):
        n = min(size, m - start)
        yield start, _squared(points[start : start + n], cols, rows[:n], out[:n])[:, 0]


def _connected_distances(embeddings: np.ndarray, queries: QuerySet, indices: np.ndarray) -> np.ndarray:
    """(m, degree) distances from each record to the queries its ``indices`` row names."""
    picked = np.empty(indices.shape)
    for start, block in _squared_blocks(embeddings, _query_side(queries.embeddings)):
        rows = slice(start, start + len(block))
        picked[rows] = np.take_along_axis(block, indices[rows], axis=1)
    # the cells of pairwise_distances: sqrt and maximum act cell by cell
    np.maximum(picked, 0.0, out=picked)
    return np.sqrt(picked, out=picked)


def reverse_knn_connect(embeddings: np.ndarray, queries: QuerySet, k: int) -> ConnectionMap:
    """Connect each record to its min(k, s) nearest queries.

    The picks are min(k, s) argmin passes over the record's row of
    ``squared_distances``: ties in the squared value go to the smaller query
    index, so the map is deterministic, and a row whose picks are not all
    finite raises ValueError.  Distances are taken in row blocks, so memory
    is O(m·min(k, s)) plus one block; with k >= s every record takes every
    query and no distance is computed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    embeddings = _points(embeddings, queries.dim)
    s = queries.s
    degree = min(k, s)
    m = embeddings.shape[0]
    if m == 0 or degree == s:
        return ConnectionMap(np.tile(np.arange(degree, dtype=np.int64), (m, 1)), s=s, k=k)
    chosen = np.empty((m, degree), dtype=np.int64)
    for start, block in _squared_blocks(embeddings, _query_side(queries.embeddings)):
        n = len(block)
        picks, flat, offsets = chosen[start : start + n], block.reshape(-1), np.arange(0, n * s, s)
        for col in range(degree):
            # argmin keeps the first minimum: ties go to the smaller index
            picks[:, col] = np.argmin(block, axis=1)
            cells = offsets + picks[:, col]
            last = flat[cells]
            if col == 0:
                first = last
            flat[cells] = np.inf
        # a NaN or -inf square is picked first, so finite first and last
        # picks mean every pick is finite
        if not (np.isfinite(first) & np.isfinite(last)).all():
            raise ValueError("distances overflow: embeddings too large to connect")
    if degree > 1:
        chosen.sort(axis=1)
    return ConnectionMap(chosen, s=s, k=k)


def connection_scores(embeddings: np.ndarray, queries: QuerySet, connections: ConnectionMap) -> np.ndarray:
    """Per-query sum of similarities of its connected records (0 if none)."""
    embeddings = _points(embeddings, queries.dim)
    if embeddings.shape[0] != connections.m:
        raise ValueError("connections must cover exactly these records")
    sims = similarity_from_distance(_connected_distances(embeddings, queries, connections.indices))
    # column by column, each in record order, as a sum from 0.0 per query
    return np.bincount(connections.indices.T.ravel(), weights=sims.T.ravel(), minlength=queries.s)


def objective_value(scores: np.ndarray, objective: ConnectionObjective) -> float | np.ndarray:
    """Aggregate per-query scores (the last axis) into connection-quality numbers.

    A 1-D ``scores`` gives a float, a stack of score rows one value per row.
    The harmonic mean is defined as 0 wherever any query scores 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if objective is ConnectionObjective.ARITHMETIC_MEAN:
        values = scores.mean(axis=-1)
    elif objective is ConnectionObjective.MAX_MIN:
        values = scores.min(axis=-1)
    else:
        positive = ~(scores <= 0).any(axis=-1)
        # a row with a nonpositive score inverts ones instead, then reads 0
        inverted = 1.0 / np.where(positive[..., None], scores, 1.0)
        values = np.where(positive, scores.shape[-1] / inverted.sum(axis=-1), 0.0)
    return float(values) if values.ndim == 0 else values


def brute_force_best_connection(
    embeddings: np.ndarray,
    queries: QuerySet,
    k: int,
    objective: ConnectionObjective,
    max_candidates: int = 200_000,
) -> ConnectionMap:
    """Exhaustive search over every max-degree-k connection set (tiny instances).

    Candidate sets give each record exactly min(k, s) buckets; enumeration is
    lexicographic over sorted bucket tuples, and the first maximum wins, so the
    result is deterministic.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    m = embeddings.shape[0]
    s = queries.s
    degree = min(k, s)
    if s > 4 or m > 6:
        raise ValueError("brute force is guarded to s <= 4 and m <= 6")
    combos = list(itertools.combinations(range(s), degree))
    if len(combos) ** m > max_candidates:
        raise ValueError("instance too large for exhaustive search")
    dists = pairwise_distances(embeddings, queries.embeddings)
    sims = similarity_from_distance(dists)
    # per-record score contribution of each candidate bucket set
    member = np.array([[q in combo for q in range(s)] for combo in combos])
    contrib = np.where(member, sims[:, None, :], 0.0)
    total = contrib[0]
    for j in range(1, m):
        total = (total[:, None, :] + contrib[j][None, :, :]).reshape(-1, s)
    choices = np.unravel_index(int(np.argmax(objective_value(total, objective))), (len(combos),) * m)
    return ConnectionMap(np.asarray([combos[c] for c in choices], dtype=np.int64), s=s, k=k)


# ---------------------------------------------------------------------------
# label propagation


def propagate_labels(assignment: np.ndarray, query_labels: np.ndarray) -> np.ndarray:
    """Give every public sample the label of its cluster center."""
    assignment = np.asarray(assignment, dtype=np.int64)
    query_labels = np.asarray(query_labels)
    if assignment.size and (assignment.min() < 0 or assignment.max() >= query_labels.shape[0]):
        raise ValueError("assignment refers to an unknown cluster")
    return query_labels[assignment]


def propagation_accuracy(propagated: np.ndarray, true_labels: np.ndarray) -> float:
    """Fraction of public samples receiving their true label."""
    propagated = np.asarray(propagated)
    true_labels = np.asarray(true_labels)
    if propagated.shape != true_labels.shape:
        raise ValueError("shape mismatch")
    if propagated.size == 0:
        raise ValueError("no samples to score")
    return float((propagated == true_labels).mean())
