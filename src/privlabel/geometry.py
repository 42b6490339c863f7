"""Embedding-space geometry: query selection, reverse k-NN connection and
connection-quality scores.

Reverse k-NN attaches every record to its k nearest queries, which caps each
record's contribution to the aggregate (the forward rule would let one record
touch every query).  Query selection uses k-means++ seeded Lloyd iterations on
the public embeddings; later rounds switch to smallest-margin uncertainty
sampling.

Distances are Euclidean only, and every one is sqrt(max(sq, 0)) of one
squared-distance product, the exact kernel: a row is [x, |x|², 1] @
[-2qᵀ; 1; |q|²].  A row's values depend on that row and the queries alone,
never on the rows sharing the call or on the row's memory offset, so a record
connects alone as it does inside any record set; the aggregate's 2kr
sensitivity relies on this.  Connection orders queries by the squared values,
ties toward the smaller index, and rejects a row whose picks are not all
finite.  A squared norm that overflows is rejected before any product.

Connection and Lloyd's assignment take a row's picks from one gemm per row
block where a gap of four rounding margins proves that the exact kernel picks
the same (``_nearest_blocks``), and Lloyd skips the rows whose nearest center
provably repeats (``_LloydBounds``).  So every pick and every error raised is
the exact kernel's, and k-means gives the centers and assignments of full
kernel passes.
"""
from __future__ import annotations

import enum
import itertools

import numpy as np

from .core import ConnectionMap, QuerySet, integer_array


class ConnectionObjective(enum.Enum):
    ARITHMETIC_MEAN = "arithmetic-mean"
    MAX_MIN = "max-min"
    HARMONIC_MEAN = "harmonic-mean"


_OVERFLOW = "distances overflow: coordinates too large to square"
_UNCONNECTABLE = "distances overflow: embeddings too large to connect"


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


def _center_squares(columns: np.ndarray, center: np.ndarray, diff: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared distances from the n points whose coordinates are the rows of
    ``columns`` (dim, n) to ``center``, into ``out`` (n,), through the
    (dim, n) buffer ``diff``.  Needs n >= 2: numpy reduces the C-contiguous
    buffer along axis 0 by adding its rows one after another, so each sum
    runs over the coordinates in order, as a row-wise loop does, but it
    sums a lone column pairwise."""
    np.square(np.subtract(columns, center[:, None], out=diff), out=diff)
    return np.add.reduce(diff, axis=0, out=out)


def _kmeans_plus_plus_init(points: np.ndarray, s: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    # D² runs down the columns of a (dim, n) copy: a row-wise sum of
    # (points - c)**2 makes an (n, dim) temporary per center
    columns = np.ascontiguousarray(points.T)
    centers = np.empty((s, points.shape[1]))
    closest_sq = np.full(n, np.inf)
    dist_sq, diff = np.empty(n), np.empty_like(columns)
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
        if j + 1 < s:
            # the last center's D² would weigh no pick; so a lone point, whose
            # s is 1, computes none
            np.minimum(closest_sq, _center_squares(columns, centers[j], diff, dist_sq), out=closest_sq)
    return centers


def _margins(squares: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per-row rounding margin γ·(|x| + max|c|)² + 2⁻¹⁰⁰⁰, γ = 4·(dim + 3)·2⁻⁵³,
    of rows whose computed |x|² are ``squares``, against the queries behind
    ``cols`` (``_query_side``).  Callers silence the overflow.

    Lemma: a computed square lies within half a margin of the exact one.
    With u = 2⁻⁵³ and γ_k = k·u / (1 − k·u), a sum of k products errs by
    at most γ_k times the sum of their magnitudes, in any summation order
    (Higham, Accuracy and Stability of Numerical Algorithms, §3.1).  So the
    computed norms X and Q lie within γ_dim·|x|² and γ_dim·|q|² of |x|² and
    |q|², the kernel's K within γ_(dim+2)·(X + 2|x||q| + Q) of X − 2x·q + Q,
    and the gemm's G of ``_nearest_blocks`` within γ_(dim+1)·(2|x||q| + Q) of
    Q − 2x·q.  Each of these two product errors is below a quarter margin,
    and each computed square, K or fl(G + X), lies within about
    2·(dim + 1)·u·(|x| + |q|)², below half a margin, of |x − q|².  The
    2⁻¹⁰⁰⁰ covers products that underflow; the rest of γ absorbs the
    rounding of the margin and of the tests that use it.

    The margin is squared as (2·(|x| + max|c|))²·γ/4, so a finite margin
    keeps every partial sum of either product, at most (|x| + max|c|)², a
    factor 4 below overflow; a NaN or infinite |x|² gives a non-finite
    margin."""
    gamma = 4 * (cols.shape[0] + 1) * 2.0**-53
    spread = np.sqrt(squares)
    spread += np.sqrt(cols[-1].max())
    spread *= 2.0
    np.square(spread, out=spread)
    spread *= gamma / 4
    spread += 2.0**-1000
    return spread


class _LloydBounds:
    """Hamerly bounds (Hamerly 2010) that let Lloyd's assignment skip the
    rows whose nearest center provably repeats.

    Per row, ``upper`` is at least the exact distance to the assigned center
    and ``lower`` at most the exact distance to every other center.  They
    start at +inf and 0, and ``reset`` sets ``lower`` to 0, so that no row
    passes the test.  ``move`` adds the assigned center's shift to ``upper``
    and takes the largest shift of all centers from ``lower``, rounded
    outward by the factor 1 ± ``grow``; a center whose bytes are unchanged
    shifts by exactly 0.

    ``assign`` skips a row when lower² − upper² > 2·margin (``_margins``):
    a full pass's square to the assigned center is then below
    upper² + margin/2 and every other one above lower² − margin/2, so its
    first argmin repeats; the second margin absorbs the rounding of the test.
    A skipped row's margin is finite, so a full pass's checks would pass on
    it, and a NaN margin or bound or an infinite ``upper`` fails the test.
    The other rows get a full pass's picks from ``_nearest_blocks`` and take
    upper = √(first + margin), lower = √(second − margin) from the squares it
    yields.

    The bounds compute every pool row's |x|² (``squares``) once, and each
    ``assign`` computes every row's margin once: the test reads it, and the
    passed rows hand their norms and 4 margins to ``_nearest_blocks`` as its
    certification gaps."""

    def __init__(self, points: np.ndarray):
        n, dim = points.shape
        self.points = points
        with np.errstate(over="ignore", invalid="ignore"):
            self.squares = np.einsum("ij,ij->i", points, points)
        self.grow = 2 * (dim + 8) * 2.0**-53
        self.assignment = np.zeros(n, dtype=np.int64)
        self.upper, self.lower = np.full(n, np.inf), np.zeros(n)

    def reset(self) -> None:
        """Forget the bounds: the next ``assign`` is a full pass."""
        self.lower[:] = 0.0

    def move(self, step: np.ndarray) -> None:
        """Loosen the bounds by the centers' displacement ``step`` (s, dim)."""
        grow, upper, lower = self.grow, self.upper, self.lower
        with np.errstate(over="ignore", invalid="ignore"):
            # 2⁻⁵⁰⁰ covers a shift whose squares underflow to a norm of 0
            shift = np.linalg.norm(step, axis=1) * (1 + grow) + 2.0**-500 * step.any(axis=1)
            upper += shift[self.assignment]
            upper *= 1 + grow
            lower -= shift.max()
            np.maximum(lower, 0.0, out=lower)
            lower *= 1 - grow

    def assign(self, queries: QuerySet) -> np.ndarray:
        """Each row's first nearest center by squared distance, as a full
        pass of the distance kernel gives it, with the bounds refreshed."""
        if queries.s == 1:
            # as connect with k >= s: no distance is computed
            return self.assignment
        cols = _query_side(queries.embeddings)
        upper, lower, grow = self.upper, self.lower, self.grow
        with np.errstate(over="ignore", invalid="ignore"):
            margin = _margins(self.squares, cols)
            rows = np.flatnonzero(~((lower - upper) * (lower + upper) > 2 * margin))
        margin = margin[rows]
        picks, first, second = np.empty(len(rows), dtype=np.int64), np.empty(len(rows)), np.empty(len(rows))
        blocks = _nearest_blocks(self.points[rows], cols, 1, self.squares[rows], 4 * margin)
        for start, nearest, near, after in blocks:
            at = slice(start, start + len(near))
            picks[at], first[at], second[at] = nearest[0], near, after
        self.assignment[rows] = picks
        with np.errstate(over="ignore", invalid="ignore"):
            upper[rows] = np.sqrt(first + margin) * (1 + grow)
            lower[rows] = np.sqrt(np.maximum(second - margin, 0.0)) * (1 - grow)
        return self.assignment


def _resum(sums: np.ndarray, columns: np.ndarray, assignment: np.ndarray, summed: np.ndarray | None) -> None:
    """Make ``sums`` (s, dim) the coordinate sums of each cluster's members
    under ``assignment``, given that they are those under ``summed`` (None:
    ``sums`` holds nothing yet).  ``columns`` is the (dim, n) pool.

    Only the clusters that gained or lost a row are summed again, each over
    all its members in index order: adding and subtracting the moved rows
    would round differently.  Where those clusters hold more than half the
    pool, every cluster is summed, which is cheaper than gathering them."""
    s = sums.shape[0]
    if summed is not None:
        moved = assignment != summed
        if not moved.any():
            return
        changed = np.zeros(s, dtype=bool)
        changed[summed[moved]] = True
        changed[assignment[moved]] = True
        rows = np.flatnonzero(changed[assignment])
        if 2 * rows.size <= assignment.size:
            members = assignment[rows]
            for sum_, column in zip(sums.T, columns[:, rows]):
                sum_[changed] = np.bincount(members, column, s)[changed]
            return
    for sum_, column in zip(sums.T, columns):
        sum_[:] = np.bincount(assignment, column, s)


def kmeans(
    points: np.ndarray,
    s: int,
    rng: np.random.Generator,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations from a k-means++ seeding.

    Returns (centers, assignment).  Deterministic given the generator state.
    Each assignment is the first argmin of every row's ``squared_distances``
    to the centers, ties to the smallest center index, and raises where that
    full pass would, so centers and assignments are those of a full connect
    per iteration, byte for byte; ``_LloydBounds`` passes only the rows whose
    argmin could change.  An emptied cluster is reseeded at the point
    farthest from its current center, and the pass after a reseed is full.

    A cluster's coordinate sum is the in-order ``np.bincount`` of its
    members from 0.0, as an axis-0 mean sums them, so each mean equals
    ``points[assignment == j].mean(axis=0)`` bytewise; a sum is redone only
    when its cluster's member set changes (``_resum``).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be (n, dim)")
    n = points.shape[0]
    if not 1 <= s <= n:
        raise ValueError(f"cluster count s={s} must lie in [1, {n}]")
    centers = _kmeans_plus_plus_init(points, s, rng)
    queries = QuerySet(centers)
    bounds = _LloydBounds(points)
    assignment = bounds.assign(queries)
    # the center sums read one contiguous (dim, n) copy per call: bincount
    # reads points.T's strided rows slower
    columns = np.ascontiguousarray(points.T)
    sums, summed = np.empty_like(centers), None
    for _ in range(max_iter):
        counts = np.bincount(assignment, minlength=s)
        _resum(sums, columns, assignment, summed)
        summed = assignment.copy()
        new_centers = centers.copy()
        filled = counts > 0
        new_centers[filled] = sums[filled] / counts[filled, None]
        if filled.all() and new_centers.tobytes() == centers.tobytes():
            # an assignment to these centers would repeat this one
            return centers, assignment
        empty = np.flatnonzero(~filled)
        if empty.size:
            assigned = _connected_distances(points, queries, assignment[:, None])[:, 0]
            bounds.reset()
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
        step = new_centers - centers
        shift = np.linalg.norm(step, axis=1).max()
        bounds.move(step)
        centers = new_centers
        queries = QuerySet(centers)
        assignment = bounds.assign(queries)
        if shift < tol:
            break
    return centers, assignment


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
    if exclude is not None:
        eligible[integer_array(exclude, "excluded samples", gap.shape[0])] = False
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


# rows shorter than this many cells read their next value by column minima,
# which beats an argmin pass there
_SHORT_ROW = 32


def _picks(block: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill ``picks`` (degree, n) with degree argmin passes over ``block``
    (n, s), ties to the smaller index, and return the values of each row's
    first and last pick and of the next smallest cell.  Picked cells are
    overwritten with inf.  Needs s >= 2.

    The next value is the row's minimum once its picks are inf: a NaN reads
    as NaN either way, and a zero may read with either sign."""
    n, s = block.shape
    flat, offsets = block.reshape(-1), np.arange(0, n * s, s)
    for col, out in enumerate(picks):
        cells = offsets + np.argmin(block, axis=1, out=out)
        last = flat[cells]
        if col == 0:
            first = last
        flat[cells] = np.inf
    if s < _SHORT_ROW:
        after = np.minimum(block[:, 0], block[:, 1])
        for j in range(2, s):
            np.minimum(after, block[:, j], out=after)
        return first, last, after
    # on long rows one more argmin pass reads the next value faster than a
    # min pass
    return first, last, flat[offsets + np.argmin(block, axis=1)]


def _nearest_blocks(points: np.ndarray, cols: np.ndarray, degree: int, squares: np.ndarray, gaps: np.ndarray):
    """Yield (first row, picks, last, after) for consecutive row blocks of
    ``points``, ``_DISTANCE_BLOCK_CELLS`` cells each as in ``_squared_blocks``:
    ``picks`` (degree, n) are the picks of ``degree`` argmin passes over each
    row of the exact kernel against the queries behind ``cols``, and ``last``
    and ``after`` are computed squares (``_margins``) to the last pick and to
    the next nearest query.  Needs degree < s.  Raises ValueError where the
    exact kernel over the same rows would: a row's squared norm overflows, or
    its first or last pick is not finite.  The yielded arrays are views of
    buffers that the next block overwrites.

    The caller computes each row's |x|² once per call, as ``squares``, and
    its certification gap, 4·``_margins(squares, cols)``, as ``gaps``: the
    blocks compute no norm or margin.

    One gemm per block gives G_j = fl(Q_j − 2x·q_j) for every query j.  The
    kernel's K_j − X differs from G_j by less than half a margin
    (``_margins``), and X is the same for every query, so K_l − K_j lies
    within one margin of G_l − G_j.  Where the value after the last pick
    leads it by more than 4 margins, every other query's K exceeds every
    picked one's by more than 3 margins, so the kernel's passes pick the same
    set: maps sort it, and Lloyd's passes pick one.  The other 3 margins
    absorb the rounding of the margin, the norms and the gap, and a finite
    margin keeps the row's squares finite, so the kernel's checks would pass.
    Every other row, including one whose norm, margin or gap is not finite,
    goes through ``_squared_blocks`` as a gathered subset, whose row
    independence gives it the kernel's bytes and checks."""
    m, dim = points.shape
    s = cols.shape[1]
    size = max(1, min(m, _DISTANCE_BLOCK_CELLS // s))
    # [-2qᵀ; |q|²]: the kernel's query side without the row for |x|²
    side = np.delete(cols, dim, axis=0)
    rows, out = np.ones((size, dim + 1)), np.empty((size, s))
    picks = np.empty((degree, size), dtype=np.int64)
    for start in range(0, m, size):
        n = min(size, m - start)
        x = points[start : start + n]
        rows[:n, :dim] = x
        square = squares[start : start + n]
        with np.errstate(over="ignore", invalid="ignore"):
            _, last, after = _picks(np.matmul(rows[:n], side, out=out[:n]), picks[:, :n])
            exact = np.flatnonzero(~(after - last > gaps[start : start + n]))
            last += square
            after += square
        if exact.size:
            for first_row, block in _squared_blocks(x[exact], cols):
                at = exact[first_row : first_row + len(block)]
                sub = np.empty((degree, len(at)), dtype=np.int64)
                first, last[at], after[at] = _picks(block, sub)
                # a NaN or -inf square is picked first, so finite first and
                # last picks mean every pick is finite
                if not (np.isfinite(first) & np.isfinite(last[at])).all():
                    raise ValueError(_UNCONNECTABLE)
                picks[:, at] = sub
        yield start, picks[:, :n], last, after


def _connected_distances(embeddings: np.ndarray, queries: QuerySet, indices: np.ndarray) -> np.ndarray:
    """(m, degree) distances from each record to the queries its ``indices`` row names."""
    picked = np.empty(indices.shape)
    for start, block in _squared_blocks(embeddings, _query_side(queries.embeddings)):
        rows = slice(start, start + len(block))
        picked[rows] = np.take_along_axis(block, indices[rows], axis=1)
    # the cells of pairwise_distances: sqrt and maximum act cell by cell
    np.maximum(picked, 0.0, out=picked)
    return np.sqrt(picked, out=picked)


def reverse_knn_connect(
    embeddings: np.ndarray, queries: QuerySet, k: int, squares: np.ndarray | None = None
) -> ConnectionMap:
    """Connect each record to its min(k, s) nearest queries.

    The picks are min(k, s) argmin passes over the record's row of
    ``squared_distances``: ties in the squared value go to the smaller query
    index, so the map is deterministic, and a row whose picks are not all
    finite raises ValueError.  Distances are taken in row blocks, so memory
    is O(m·min(k, s)) plus one block; with k >= s every record takes every
    query and no distance is computed.

    ``squares``, if given, are the rows' |x|² as ``np.einsum("ij,ij->i")``
    sums them (``RecordSet.squared_norms``), which the rounding margins read;
    otherwise they are computed here.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    embeddings = _points(embeddings, queries.dim)
    s = queries.s
    degree = min(k, s)
    m = embeddings.shape[0]
    if squares is not None and np.shape(squares) != (m,):
        raise ValueError(f"squares must hold one squared norm per record, got shape {np.shape(squares)}")
    if m == 0 or degree == s:
        return ConnectionMap(np.tile(np.arange(degree, dtype=np.int64), (m, 1)), s=s, k=k)
    cols = _query_side(queries.embeddings)
    with np.errstate(over="ignore", invalid="ignore"):
        if squares is None:
            squares = np.einsum("ij,ij->i", embeddings, embeddings)
        gaps = _margins(squares, cols)
        gaps *= 4
    chosen = np.empty((m, degree), dtype=np.int64)
    for start, picks, _, _ in _nearest_blocks(embeddings, cols, degree, squares, gaps):
        at = slice(start, start + picks.shape[1])
        if degree == 2:
            # a pair is ordered by its minimum and maximum, not a sort
            np.minimum(picks[0], picks[1], out=chosen[at, 0])
            np.maximum(picks[0], picks[1], out=chosen[at, 1])
        else:
            chosen[at] = picks.T
    if degree > 2:
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
    query_labels = np.asarray(query_labels)
    return query_labels[integer_array(assignment, "cluster assignment", query_labels.shape[0])]


def propagation_accuracy(propagated: np.ndarray, true_labels: np.ndarray) -> float:
    """Fraction of public samples receiving their true label."""
    propagated = np.asarray(propagated)
    true_labels = np.asarray(true_labels)
    if propagated.shape != true_labels.shape:
        raise ValueError("shape mismatch")
    if propagated.size == 0:
        raise ValueError("no samples to score")
    return float((propagated == true_labels).mean())
