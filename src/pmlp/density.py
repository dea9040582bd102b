"""Path sampling, exponential-kernel density estimation, and aggregation.

The density factor attached to a pair of features is built in three steps:
sample interior points on the straight segment between the two feature
vectors, estimate a kernel density at each sampled point from its nearest
support points, and collapse the per-point densities with an aggregator.
Pairs whose segment crosses a low-density region end up with a small
factor, which is what lets the propagation graph respect cluster shape.

Nearest rows, for KDE supports here and for kNN edges in ``graph``, come
from one exact search, ``_nearest_rows``, in rounds over the queries still
unproven: a path point's endpoint lists (below), then slabs of the pool
sorted on its widest coordinate, four times wider each round, then the
whole pool. A screen takes a block of queries through one GEMM against
the pool stored as [-2 x; ||x||^2], which ranks the rows as their
distances do, keeps candidates, then ranks them on direct-difference
distances with ties toward the lower row index (``_rank``). The
candidates hold each query's smallest screened values, found exactly
from group minima (``_smallest``): a row's columns fall into strided
groups, one pass takes every group's minimum, and only the groups with
the smallest minima are partitioned, not every screened value. In a
slab the key gap to the first row outside it proves the result. At low
d that holds for nearly every query, so the pass stops being quadratic.
By one stop rule, a list or slab round that proves under half of what
it tries hands the rest to the next stage, as at high d.
What the whole pool's screen cannot prove ``_rank`` ranks over all rows,
once, so the result never depends on rounds, BLAS rounding or thread count.
Blocks are sized by one element budget, ``_CHUNK_ELEMENTS`` (about 4 MB of
float64; a screen block keeps at least ``_MIN_SCREEN_BLOCK`` queries), and
the KDE reduces each block to its kernel means before the next, so the
working set stays near one cache-sized block whatever the number of queries.

Nearest-row lists have one shape, every row's list: (indices, squared
distances), each (N, m), row i holding i's m nearest other rows (the
search finds m + 1 and drops i, or its last row where i is not listed).
One function, ``_row_lists``, builds them and alone knows how long they
must be to prove a number of KDE supports (``_list_length``); ``graph``
takes the kNN edges from the first columns of the same lists. A path
point lies between its two endpoint rows, so its supports are usually
among the endpoints' own nearest rows. ``_listed_rows`` ranks each
point's supports among its endpoints and their lists. A row outside an
endpoint e's list lies at least r_m(e), the distance to e's m-th row,
from e; two bounds turn that into a distance from the point q, and
either proves the result: the triangle inequality, r_m(e) - ||q - e||,
and Stewart's theorem on the segment from a to b, whose squared bound
mixes r_m(a)^2 and r_m(b)^2. Stewart's bound proves nearly every
kNN-edge point with lists of m = ceil(4 n / 3) + 2 rows for n supports,
where the triangle bound needed 2 n + 2. Points neither bound proves go
on to the screens, so the output is the same either way.

All operations are pure; per-pair computations are independent and may run
in any order without changing the result.
"""

import numpy as np

from .core import DataError, FeatureMatrix, NumericalError

__all__ = [
    "batch_normalized_density",
    "batch_path_density_info",
    "density_ratio",
]

# Element budget for the transient arrays of one query block: its screening
# values and, on a screen too narrow to group (``_smallest``), their
# partition order (queries x rows each), its gathered
# candidates (queries x candidates x dim) with their rows, distances and
# order, its supports' kernel values (queries x supports), or, for queries
# ranked over all rows, their (queries x rows x dim) differences. 500,000
# elements (4 MB of float64) keeps a block near the size of a core's L2
# cache; on 4,000-5,000-row kNN passes at d = 2 and d = 32 it was as fast as
# budgets of 1 M to 8 M, or faster.
_CHUNK_ELEMENTS = 500_000

# Fewest queries in one screen block. Each block reads the whole lifted
# pool, (dim + 1) x rows, and makes a few numpy calls. From about 4,000
# rows up the budget alone would give fewer queries than this, and that
# fixed cost would grow to dominate: at 50,000 rows and d = 32, blocks of 4
# queries took 1.5x as long as blocks of 16. With grouped selection
# (``_smallest``) the GEMM is most of a screen: at 20,000 rows and d = 32,
# blocks of 64 took 0.78x (kNN lists, m = 62) and 0.76x (path KDE) the time
# of blocks of 16, and 128 gained under 5% more; at 50,000 rows, m = 6
# lists took 5.5 s against 6.7 s and 20 MB more peak RSS; at 4,000-5,000
# rows the time was within 5%.
_MIN_SCREEN_BLOCK = 64

# Candidates the screen keeps beyond the requested count. Any margin >= 1
# is exact; a few spare rows let the screen prove its cut when the
# distances just past the count are close but not tied.
_SCREEN_MARGIN = 8

# Group size s of ``_smallest``, the screen's selection: _GROUP_SCALE
# sqrt(columns / values kept), or no groups below _MIN_GROUP. Timed on d = 32
# screens, 2-vCPU host, as a share of one argpartition of every column: the
# best s was 0.45-0.65 sqrt(w / k) (w = 5,000, k = 16: 0.49 at s = 8; w =
# 20,000, k = 16-72: 0.31-0.38; w = 4,000, k = 54-72: 0.74-0.83 at s = 4-5),
# and no s gained at sqrt(w / k) = 3.7 (1.37 at best). Whole passes, two
# blobs at d = 32, against argpartition: 4,000 rows, kNN 0.77-0.89 and path
# KDE 0.86; 1,000 rows, 0.76-0.98.
_GROUP_SCALE = 0.6
_MIN_GROUP = 4

# First slab half-width, in sorted pool rows per candidate the screen keeps
# (count + ``_SCREEN_MARGIN``); each later round is four times wider. On
# the 4,000-row two-moons list pass (32 rows per list, d = 2) 8 was the
# fastest of 6 to 24: 0.04-0.05 s of CPU, where the whole-pool screen took
# 0.09-0.13 s.
_FIRST_SLAB = 8

# Rows per candidate beyond which, at d >= 2, the first slab widens as
# sqrt(rows): to ``_FIRST_SLAB`` sqrt(rows / (``_SLAB_ROWS`` candidates)),
# about 0.6 sqrt(rows / candidates), as a query's nearest rows span about
# sqrt(rows x candidates) sorted rows at d = 2. Two-blob list passes at
# 50,000 rows, width 8 -> this rule: d = 2, 1.66 -> 1.19 s (m = 62) and
# 0.53 -> 0.44 s (m = 6); d = 3, 4.8 -> 3.7 s and 2.0 -> 1.7 s; at 20,000
# rows, within 7%. At d = 1 the key gap is the distance and 8 stays the
# fastest (0.51 s at 50,000 rows, m = 62, against 0.76 s at 16).
_SLAB_ROWS = 180


def _nearest_rows(queries, pool, count, exclude=None, ends=None, lists=None):
    """The ``count`` pool rows nearest to each query, closest first.

    Returns (indices, squared distances), each (n_queries, count). The
    distance is ``np.sum((q - x) ** 2)`` over the differences, and ties go
    to the lower row index: the result equals a stable argsort of every
    direct distance. ``ends`` and ``lists``, if given, are the path points'
    as ``_listed_rows`` takes them. ``exclude``, if given, holds one pool
    row per query that is never returned; ``count`` must leave enough
    rows. It is read here alone: the search runs for ``count`` + 1 rows
    with no exclusion, each query's excluded row, or its last row where
    the excluded one is not among them, moves to the front, and the
    result is the views past it. The first ``count`` + 1 rows by
    (distance, row) always hold the first ``count`` other than any one
    row, so this is exact whichever row is excluded, tied or not.

    The search runs in rounds over the queries still unproven: the
    endpoint lists (``_listed_rows``), then slabs of the pool, then the
    whole pool, each screened by ``_screen``. For the slabs the pool is
    sorted once along its widest coordinate a (largest max - min), by a
    stable argsort, and the queries are taken in that key order. A block
    of queries is screened against the pool rows within ``width`` sorted
    positions of the block's key range, ``width`` starting at
    ``_FIRST_SLAB`` times the screen's candidates, widened as sqrt(rows)
    on large pools at d >= 2 (``_SLAB_ROWS``). A row x outside the slab
    has its key at or beyond g, the first key outside the slab on its
    side, so ||q - x|| >= |q_a - x_a| >= G = |q_a - g|, the query's key
    gap. A query is accepted when the screen proves its cut within the
    slab and its ``count``-th direct distance d_n, rounded up, is below its
    key gap, rounded down: then every row outside the slab ranks after the
    count, whatever its index. The slack is derived as ``_listed_rows``
    derives its triangle bound's. The computed gap is one rounded
    subtraction, at most G (1 + eps / 2), and x's computed squared
    distance is at least (1 - (dim + 2) eps / 2) G^2 less the smallest
    normal number; the test sqrt(d_n + tiny) (1 + s) < gap (1 - s), with
    s = 2 (dim + 4) eps, leaves room for all of these and its own few
    roundings, so x's computed distance exceeds d_n. The queries not
    accepted go round again with ``width`` four times larger, until
    2 ``width`` reaches the pool size. The whole pool is the last slab,
    where the gap is infinite, and the queries whose cut it cannot prove
    are ranked over all rows (``_rank_all``), once. Pools of at most
    2 ``width`` rows skip the slabs before any sort, and pools of at most
    ``count`` + ``_SCREEN_MARGIN`` rows skip the screens.

    Where distances concentrate (high d) the lists and the key gaps prove
    little, so the list and slab rounds probe, by the stop rule of the
    block loop (``search``): a stopped round hands the queries it leaves to
    the next stage, the slabs or the whole pool. The whole pool takes its
    queries in row order, a run of consecutive ones without a copy. The
    rounds change the time, never the result.

    Callers: ``_row_lists`` for every row's list (self excluded) and
    ``_kernel_means`` for KDE supports, with endpoint lists for path points.
    """
    if exclude is not None:
        indices, dist2 = _nearest_rows(queries, pool, count + 1, None, ends, lists)
        moved = np.flatnonzero(indices[:, 0] != exclude)
        # One True per row: the excluded row, or the last where it is not
        # listed. A stable sort of ~hit puts it first, the rest in order.
        hit = indices[moved] == exclude[moved, None]
        hit[:, -1] |= ~hit.any(axis=1)
        order = np.argsort(~hit, axis=1, kind="stable")
        indices[moved] = _along(indices[moved], order)
        dist2[moved] = _along(dist2[moved], order)
        return indices[:, 1:], dist2[:, 1:]
    n, dim = pool.shape
    keep = count + _SCREEN_MARGIN
    indices = np.empty((queries.shape[0], count), dtype=np.intp)
    dist2 = np.empty((queries.shape[0], count))
    # Overflow is left to the finiteness tests, which send the affected
    # queries on to the exact rule.
    with np.errstate(over="ignore", invalid="ignore"):
        radius = np.sqrt(np.einsum("ij,ij->i", pool, pool).max())

    def take(rows):
        """Queries ``rows``, ascending: a view when they are consecutive."""
        if rows.size and rows[-1] - rows[0] == rows.size - 1:
            return queries[rows[0] : rows[-1] + 1]
        return queries[rows]

    def search(pending, fit, prove, least, probing):
        """Prove ``pending`` in blocks; the rows left, and whether it stopped.

        ``fit(rest)`` is how many of the rows ``rest`` fit one block, which
        takes at least ``least``. The stop rule: a probing round's first
        block is an eighth of the others, as it may prove nothing, and the
        round ends once fewer than half of the queries it has tried so far
        are proven; its rows left go to the next stage.
        """
        left, start, proven = [], 0, 0
        while start < pending.size:
            size = fit(pending[start:]) // (8 if probing and not start else 1)
            rows = pending[start : start + max(least, size)]
            done, idx, d2 = prove(rows)
            indices[rows[done]], dist2[rows[done]] = idx, d2
            left.append(np.delete(rows, done))
            start += rows.size
            proven += done.size
            if probing and 2 * proven < start:
                break
        return np.concatenate(left + [pending[start:]]), start < pending.size

    pending = np.arange(queries.shape[0])
    # Fewer candidates than supports (short lists) prove nothing.
    if lists is not None and 2 * (lists[0].shape[1] + 1) >= count:
        # A block's candidate arrays fill at most half of the budget: the
        # heap may keep their pages when a screen is allocated after them.
        block = max(1, _CHUNK_ELEMENTS // (4 * (lists[0].shape[1] + 1) * (dim + 4)))

        def listed(rows):
            return _listed_rows(take(rows), pool, count, ends[rows], lists, radius)

        pending = search(pending, lambda rest: block, listed, 1, True)[0]
    if keep < n and pending.size:
        lifted = np.empty((dim + 1, n))
        with np.errstate(over="ignore"):
            np.multiply(pool.T, -2.0, out=lifted[:dim])
            np.einsum("ij,ij->i", pool, pool, out=lifted[dim])
        # One screen buffer, the size of a whole-pool block's screen, serves
        # every block: a new one per block would cost its page faults each time.
        block = max(_MIN_SCREEN_BLOCK, _CHUNK_ELEMENTS // (2 * n + keep * dim))
        buffer = np.empty(min(block, pending.size) * n)

        def screen(q, a=None, b=None):
            """``_screen`` of queries ``q`` against the sorted pool rows a:b,
            or with no a against the whole pool in row order."""
            slab = None if a is None else order[a:b]
            columns = lifted if a is None else np.take(lifted, slab, axis=1)
            out = buffer[: q.shape[0] * columns.shape[1]].reshape(q.shape[0], -1)
            return _screen(q, pool, columns, slab, radius, count, out)

        def slab_size(rest):
            """How many of ``rest`` fit the budget and the buffer with the
            slab they span, which holds at least ``width`` rows."""
            most = max(_MIN_SCREEN_BLOCK, _CHUNK_ELEMENTS // (2 * width + keep * dim))
            key = queries[rest[:most], axis]
            a = max(np.searchsorted(keys, key[0], "left") - width, 0)
            b = np.minimum(np.searchsorted(keys, key, "right") + width, n)
            size = np.arange(1, b.size + 1)
            return np.count_nonzero(
                (size * (2 * (b - a) + keep * dim) <= _CHUNK_ELEMENTS)
                & (size * (b - a) <= buffer.size)
            )

        def slab(rows):
            q = queries[rows]
            a = max(np.searchsorted(keys, q[0, axis], "left") - width, 0)
            b = min(np.searchsorted(keys, q[-1, axis], "right") + width, n)
            ok, idx, d2 = screen(q, a, b)
            with np.errstate(over="ignore", invalid="ignore"):
                # The key gap to the first row outside the slab either side.
                gap = np.full(ok.size, np.inf)
                if a > 0:
                    gap = q[ok, axis] - keys[a - 1]
                if b < n:
                    gap = np.minimum(gap, keys[b] - q[ok, axis])
                far = np.sqrt(d2[:, -1] + tiny) * (1 + slack) < gap * (1 - slack)
            return ok[far], idx[far], d2[far]

        width = _FIRST_SLAB * keep
        if dim > 1 and n > _SLAB_ROWS * keep:
            width = int(np.ceil(width * np.sqrt(n / (_SLAB_ROWS * keep))))
        if 2 * width < n:
            with np.errstate(over="ignore", invalid="ignore"):
                axis = np.argmax(np.ptp(pool, axis=0))
            order = np.argsort(pool[:, axis], kind="stable")
            keys = pool[order, axis]
            slack = 2 * (dim + 4) * np.finfo(float).eps
            tiny = np.finfo(float).tiny
            pending = pending[np.argsort(queries[pending, axis], kind="stable")]
            while pending.size and 2 * width < n:
                pending, stopped = search(
                    pending, slab_size, slab, _MIN_SCREEN_BLOCK, True
                )
                width = n if stopped else 4 * width  # a stop ends the slabs
            pending = np.sort(pending)
        pending = search(
            pending, lambda rest: block, lambda rows: screen(take(rows)),
            _MIN_SCREEN_BLOCK, False,
        )[0]
    if pending.size:
        indices[pending], dist2[pending] = _rank_all(take(pending), pool, count)
    return indices, dist2


def _screen(q, pool, lifted, rows, radius, count, out):
    """Rank a block of queries among the pool rows ``rows`` behind ``lifted``.

    ``lifted`` holds the pool rows ``rows`` (None: every row, in order) as
    A = [-2 x; ||x||^2], (dim + 1) x columns, and ``out`` takes the
    screen. One GEMM, [q, 1] A, gives s(x) = ||x||^2 - 2 q.x =
    ||q - x||^2 - ||q||^2 for every column. Leaving out ||q||^2 shifts a
    query's whole row by one constant, so it ranks the rows as their
    distances do; ``_smallest`` keeps ``count`` plus ``_SCREEN_MARGIN``
    candidates and the next smallest value. With u = eps / 2, gamma_k =
    k u / (1 - k u) and R the largest pool norm, the (dim + 1)-term dot
    product, summed in any order, is within gamma_(dim+1) (2 ||q|| R +
    R^2) of its exact value, and the rounded ||x||^2 it adds within
    gamma_dim R^2: less than
    (dim + 1) eps (||q|| + R)^2 in all. A direct squared distance is
    within (dim + 2) u (||q|| + R)^2 of the exact one, so a screened value
    is within 2 (dim + 4) eps (||q|| + R)^2 of the direct distance less
    ||q||^2. When the first column screened out lies more than twice that
    past the ``count``-th, no column outside the candidates can rank
    inside the count. The proof reads only the smallest values, which
    ``_smallest`` finds exactly, so it proves the rows a full partition
    would; a proven row's candidates can differ from a full partition's
    only among columns tied past the count, and ``_rank`` orders those by
    (distance, row). A row with a non-finite screened value has an
    infinite 2 (||q|| + R)^2, so it is never proven.

    Returns the block rows so proven and their (indices, squared
    distances) among the columns, as ``_rank`` ranks them.
    """
    keep = count + _SCREEN_MARGIN
    dim = q.shape[1]
    lifted_q = np.ones((q.shape[0], dim + 1))
    lifted_q[:, :dim] = q
    with np.errstate(over="ignore", invalid="ignore"):
        screen = np.matmul(lifted_q, lifted, out=out)
        part, kept = _smallest(screen, keep + 1)
        last = np.partition(kept[:, :keep], count - 1, axis=1)[:, count - 1]
        scale = (np.sqrt(np.einsum("ij,ij->i", q, q)) + radius) ** 2
        # The tiny term covers rounding among subnormal products. A
        # finite 2 * scale rules out overflow, so every screened value
        # is finite.
        bound = 4 * (dim + 4) * np.finfo(float).eps * scale + np.finfo(float).tiny
        proven = np.flatnonzero((kept[:, keep] - last > bound) & (2 * scale < np.inf))
    candidates = part[proven, :keep]
    if rows is not None:
        candidates = rows[candidates]
    return (proven, *_rank(q[proven], pool, candidates, count))


def _smallest(screen, k):
    """Each row's ``k`` smallest values: (columns, values), each (rows, k).

    Position k - 1 holds the k-th smallest value, positions before it the
    k - 1 smaller ones, in any order, as ``np.argpartition`` at k - 1
    leaves them. A row's w columns are split into g = w // s strided
    groups of s, group j holding columns j, j + g, ..., j + (s - 1) g; the
    fewer than s columns past s g are candidates always. One
    ``np.minimum.reduce`` gives every group's minimum, the k groups with
    the smallest minima are kept, and their k s columns and the leftovers
    are partitioned. This is exact: with T the k-th smallest group
    minimum, the k kept groups each hold a value <= T, so the k-th smallest
    value is <= T, and every value below T lies in a kept group. So the
    candidates hold the k smallest values as a multiset; which of the
    columns tied at the k-th value are returned may differ from a full
    partition's, and ``_rank`` settles such ties by (distance, row). A NaN
    minimum sorts last, so a row with a NaN may lose its smallest values,
    but ``_screen`` proves no such row: its screen overflowed.

    The cost is about w / s + k s partitioned values plus one pass of the
    minimum, so s = ``_GROUP_SCALE`` sqrt(w / k). Groups of fewer than
    ``_MIN_GROUP`` columns fall back to one partition of every column.
    """
    width = screen.shape[1]
    size = int(_GROUP_SCALE * np.sqrt(width / k))
    if size < _MIN_GROUP or width // size < k:
        part = np.argpartition(screen, k - 1, axis=1)[:, :k]
        return part, _along(screen, part)
    groups = width // size
    grouped = screen[:, : size * groups].reshape(screen.shape[0], size, groups)
    minima = np.minimum.reduce(grouped, axis=1)
    chosen = np.argpartition(minima, k - 1, axis=1)[:, :k]
    columns = (chosen[:, None, :] + groups * np.arange(size)[:, None]).reshape(
        screen.shape[0], -1
    )
    if size * groups < width:
        rest = np.arange(size * groups, width)
        columns = np.concatenate(
            [columns, np.broadcast_to(rest, (screen.shape[0], rest.size))], axis=1
        )
    values = _along(screen, columns)
    part = np.argpartition(values, k - 1, axis=1)[:, :k]
    return _along(columns, part), _along(values, part)


def _distances(queries, pool, candidates):
    """Direct squared distance from each query to each of its candidate rows."""
    # (x - q) ** 2 equals (q - x) ** 2 bit for bit; working in place keeps
    # one (queries x candidates x dim) array alive.
    diff = np.take(pool, candidates, axis=0)
    # An overflow gives inf, which ranks last, as in the exact rule.
    with np.errstate(over="ignore"):
        diff -= queries[:, None, :]
        np.square(diff, out=diff)
        if diff.shape[2] == 2:
            # One addition rounds once in any order: sum's value, without
            # its per-row cost on an axis of two.
            return np.add(diff[..., 0], diff[..., 1])
        return diff.sum(axis=2)


def _along(values, order):
    """``np.take_along_axis(values, order, axis=1)`` for a 2-d ``values``.

    One flat ``np.take``: a few times faster on the small blocks here.
    """
    starts = np.arange(0, values.size, values.shape[1])
    return np.take(values.reshape(-1), order + starts[:, None])


def _rank(queries, pool, candidates, count):
    """The ``count`` first of each query's candidate rows by (distance, row).

    Returns (rows, direct squared distances), each (n_queries, count).
    This is the search's one tie rule; ``_rank_all`` ranks through it too.
    The candidates are put in row order and a repeated row's distance set
    to inf, so it ranks after every finite one, and a stable sort of the
    distances breaks ties toward the lower row. A quicksort runs first;
    only rows with a tie among their first ``count`` + 1 are sorted again,
    stably.
    """
    candidates = np.sort(candidates, axis=1)
    dist2 = _distances(queries, pool, candidates)
    dist2[:, 1:][candidates[:, 1:] == candidates[:, :-1]] = np.inf
    order = np.argsort(dist2, axis=1)
    ranked = _along(dist2, order)
    head = ranked[:, : count + 1]
    ties = np.flatnonzero(np.any(head[:, 1:] == head[:, :-1], axis=1))
    if ties.size:
        order[ties] = np.argsort(dist2[ties], axis=1, kind="stable")
        ranked[ties] = _along(dist2[ties], order[ties])
    return _along(candidates, order[:, :count]), ranked[:, :count]


def _rank_all(queries, pool, count):
    """The direct rule over every pool row: ``_rank`` with every row a candidate.

    Queries are chunked so that the (queries x rows) arrays a chunk holds
    stay within the budget: ``_rank`` holds dim + 2 of them while it takes
    the differences, and at most eight while it sorts tied rows again.
    """
    n, dim = pool.shape
    indices = np.empty((queries.shape[0], count), dtype=np.intp)
    dist2 = np.empty((queries.shape[0], count))
    step = max(1, _CHUNK_ELEMENTS // (n * max(dim + 2, 8)))
    for start in range(0, queries.shape[0], step):
        q = queries[start : start + step]
        candidates = np.broadcast_to(np.arange(n), (q.shape[0], n))
        rows = slice(start, start + q.shape[0])
        indices[rows], dist2[rows] = _rank(q, pool, candidates, count)
    return indices, dist2


def _list_length(support_n, n_rows):
    """Length m of the lists that prove ``support_n`` supports.

    m = ceil(4 n / 3) + 2, at most every other row. With it Stewart's
    bound (``_listed_rows``) proves almost every kNN-edge point; shorter
    lists leave many to the screens, and longer ones only cost.
    kNN-edge midpoints left unproven, and lists plus affinity, for m =
    n + 2 / ceil(4 n / 3) + 2 / ceil(3 n / 2) + 2 / 2 n + 2 (the length
    the triangle bound alone needed):

    - 4,000-row two moons (seed 1000), n = 15, k = 5 (12,202 pairs):
      1,127 / 11 / 2 / 0, in 0.064 / 0.065 / 0.066 / 0.079 s;
    - two blobs, d = 2, n = 45, k = 6: at 4,000 rows 2,119 / 0 / 0 / 0,
      in 0.136 / 0.129 / 0.156 / 0.175 s; at 20,000 rows 11,143 / 0 / 0 /
      0, in 0.91 / 0.74 / 0.89 / 1.04 s.
    """
    return min((4 * support_n + 2) // 3 + 2, n_rows - 1)


def _row_lists(data, count=0, support_n=None):
    """Every row's nearest other rows, closest first: the one list shape.

    Returns (indices, squared distances), each (N, m): row i holds i's m
    nearest rows other than i, as ``_nearest_rows`` ranks them, views of
    its (N, m + 1) search. m is ``count``, raised with ``support_n`` to
    ``_list_length``, enough for ``_listed_rows`` to prove that many KDE
    supports.
    """
    n = data.shape[0]
    if support_n is not None:
        count = max(count, _list_length(support_n, n))
    return _nearest_rows(data, data, count, np.arange(n))


def _listed_rows(queries, pool, count, ends, lists, radius):
    """A block of path points' supports, proven from endpoint lists.

    ``ends`` is a (Q, 2) array: each query's two endpoint rows a and b,
    the query a point of the segment between them, computed as
    a + f (b - a) with f in [0, 1]. ``lists`` is every pool row's list
    from ``_row_lists``, so an end indexes its own list.

    A query's candidates are its ends and their lists, duplicates
    removed, ranked by (direct distance, row index). Let d_n be the
    squared distance of the ``count``-th candidate and r_m(e) end e's
    distance to its m-th listed row. Every other row x lies outside both
    lists, so ||x - e|| >= r_m(e) for each end; the query is proven when
    either bound below puts every such x past d_n, so that no x can rank
    inside the count. A non-finite distance proves nothing; lists that
    cover every row (m >= pool rows - 1) need no bound.

    Triangle: ||x - q|| >= r_m(e) - ||q - e|| for each end e, and any q.
    On floats, a direct squared distance is within (dim + 2) eps / 2 of
    the exact one relative, plus the smallest normal number absolute, so
    the test widens each root toward the failing side by
    ``2 (dim + 4) eps``, which also covers its own few roundings.

    Stewart: with alpha = ||q - a||, beta = ||q - b|| and L = alpha + beta
    = ||a - b|| for q on the segment, Stewart's theorem gives ||x - q||^2
    = (beta ||x - a||^2 + alpha ||x - b||^2) / L - alpha beta, so ||x -
    q||^2 >= S = (beta r_m(a)^2 + alpha r_m(b)^2) / L - alpha beta. On a
    kNN pair this is never weaker than the triangle bound; on a long pair
    the triangle bound can win near an end, so both are tried. On floats,
    with u = eps / 2 and R the largest pool norm: the computed q lies
    within delta <= 2 u (||a|| + ||b||) + u ||q|| <= 4 u (||q|| + R) of a
    point q* of the segment, so the computed alpha and beta are within
    epsilon = delta + (dim + 3) u L of q*'s, and the computed r_m(e)^2
    within (dim + 2) u relative of exact bounds on the rows outside e's
    list. S = r_m(a)^2 + t (r_m(b)^2 - r_m(a)^2) - alpha beta with t =
    alpha / L in [0, 1], and r_m(e), the (m + 1)-th distance from e to the
    pool counting e itself, is 1-Lipschitz, so |r_m(b)^2 - r_m(a)^2| <= L
    (r_m(a) + r_m(b)): moving alpha and beta by epsilon moves S by at most
    epsilon (r_m(a) + r_m(b) + 2 L) + epsilon^2. Moving q* to q lowers
    ||q - x||^2 by at most 2 delta sqrt(S), with S <= max r_m(e)^2, and
    x's computed distance is at least (1 - (dim + 2) u) times the exact
    one. Since 2 delta r <= 4 u ((||q|| + R)^2 + r^2), every error is a
    few (dim + 4) eps times E = r_m(a)^2 + r_m(b)^2 + L^2 + (||q|| +
    R)^2. Its absolute term, (||q|| + R)^2, is the point's own rounding,
    which scales with the coordinates, not with the distances. Near
    underflow a squared distance is off by up to the smallest normal
    number, and its root by up to sqrt(tiny), which adds at most
    eps E + tiny / eps. The test d_n + 64 (dim + 4) eps E + tiny / eps < S
    leaves a wide margin for all of these and for its own roundings.

    ``radius`` is R. Returns the queries so proven and their (indices,
    squared distances), as ``_rank`` ranks them; ``_nearest_rows`` ranks
    the rest, so the bounds change the time, never the result.
    """
    n, dim = pool.shape
    list_rows, list_d2 = lists
    eps = np.finfo(float).eps
    slack = 2 * (dim + 4) * eps
    tiny = np.finfo(float).tiny
    candidates = np.concatenate(
        [ends, list_rows[ends].reshape(queries.shape[0], -1)], axis=1
    )
    found, best = _rank(queries, pool, candidates, count)
    proven = np.isfinite(best[:, -1])
    if list_rows.shape[1] < n - 1:
        with np.errstate(over="ignore", invalid="ignore"):
            last = best[:, -1]
            near2 = _distances(queries, pool, ends)
            reach2 = list_d2[ends, -1]
            # r_m(e), rounded down; 0, which proves nothing, where it is not finite.
            reach = np.sqrt(reach2 - tiny) * (1 - slack)
            reach[~np.isfinite(reach)] = 0.0
            # Triangle: ||q - e|| and d_n, rounded up, within r_m(e).
            near = np.sqrt(near2 + tiny)
            near += np.sqrt(last + tiny)[:, None]
            near *= 1 + slack
            triangle = np.any(near < reach, axis=1)
            # Stewart: d_n, plus the rounding bound, below S.
            alpha, beta = np.sqrt(near2).T
            total = alpha + beta
            r2a, r2b = reach2.T
            floor = (beta / total) * r2a + (alpha / total) * r2b - alpha * beta
            scale = np.sqrt(np.einsum("ij,ij->i", queries, queries)) + radius
            error = r2a + r2b + total * total + scale * scale
            error *= 64 * (dim + 4) * eps
            stewart = last + error + tiny / eps < floor
            proven &= triangle | stewart
    rows = np.flatnonzero(proven)
    return rows, found[rows], best[rows]


def _check_kernel(features, n, h):
    """The support count ``n`` as an int, once it and ``h`` are valid."""
    n = int(n)
    if n < 1 or n > features.n_rows:
        raise DataError("support count %d outside [1, %d]" % (n, features.n_rows))
    if not h > 0:
        raise DataError("bandwidth h must be positive")
    return n


def _kernel_means(queries, data, n, h, ends=None, lists=None):
    """The mean kernel over each query's ``n`` supports, block by block.

    Supports come from ``_nearest_rows``, given each query's ``ends`` and
    every row's ``lists`` if there are any; they do not change the result.
    Queries are taken in blocks whose support rows and distances fill
    ``_CHUNK_ELEMENTS``, and each block is reduced to its kernel means
    before the next is searched, so no (queries x supports) array
    outlives its block. A row's mean is summed along that row alone, so
    the blocks do not change its bytes.
    """
    values = np.empty(queries.shape[0])
    step = max(1, _CHUNK_ELEMENTS // (2 * n))
    for start in range(0, queries.shape[0], step):
        rows = slice(start, start + step)
        d2 = _nearest_rows(
            queries[rows], data, n, None, ends if ends is None else ends[rows], lists
        )[1]
        # d2 / -h is -d2 / h bit for bit: division rounds symmetrically. A
        # quotient that overflows has a kernel value of 0 either way.
        with np.errstate(over="ignore"):
            np.divide(d2, -h, out=d2)
        values[rows] = np.mean(np.exp(d2, out=d2), axis=1)
        del d2  # before the next block allocates its own
    return values


def batch_normalized_density(queries, features, n, h):
    """Normalized exponential-kernel density at each row of ``queries``.

    For a query q with supports s_1..s_n, its ``n`` nearest feature rows
    (found by ``_nearest_rows``; a query's own row counts), the value is
    the mean kernel (1/n) * sum_m exp(-||s_m - q||^2 / h). That is h times
    the kernel density (1 / (n h)) * sum_m exp(-||s_m - q||^2 / h), so it
    lies in (0, 1] apart from underflow at extreme distances: exactly 1
    when every support coincides with q, and tending to 1 as h grows,
    which is why huge bandwidths erase all density information. Queries
    are reduced block by block (``_kernel_means``).
    """
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(features)
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != features.dim:
        raise DataError("queries must be 2-dimensional with the feature dim")
    if not np.all(np.isfinite(queries)):
        raise DataError("queries must be finite")
    n = _check_kernel(features, n, h)
    return _kernel_means(queries, features.data, n, h)


def _canonical_pairs(features, pairs):
    """Validated features and pairs, each pair ordered (low, high).

    The one check of row pairs, for path densities and for the graph's
    edges (``graph.build_affinity``): a nonempty (n, 2) array of row
    indices in range, no pair joining a row to itself. The canonical
    ordering makes every density exactly symmetric in the pair orientation.
    """
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(features)
    pairs = np.asarray(pairs, dtype=int)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
        raise DataError("pairs must be a nonempty (n, 2) index array")
    if np.any(pairs < 0) or np.any(pairs >= features.n_rows):
        raise DataError("pair index out of range")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise DataError("a pair joins a row to itself (self loop, zero-length path)")
    low, high = np.minimum(*pairs.T), np.maximum(*pairs.T)
    return features, np.column_stack([low, high])


def _pair_point_densities(features, pairs, cfg, lists=None):
    """Normalized densities at the path points of canonical pairs: (n_pairs, k).

    Each point's supports are proven from its pair's lists (``_listed_rows``).
    ``lists``, every row's list, is built here when not given.
    """
    n = _check_kernel(features, cfg.kde_support_n, cfg.bandwidth_h)
    if lists is None:
        lists = _row_lists(features.data, support_n=n)
    elif lists[0].shape[0] != features.n_rows or lists[0].shape[1] < 1:
        raise DataError("lists must hold a nonempty list per feature row")
    lo, hi = pairs[:, 0], pairs[:, 1]
    k = int(cfg.path_points_k)
    fracs = np.arange(1, k + 1) / (k + 1)
    a = features.data[lo][:, None, :]
    b = features.data[hi][:, None, :]
    points = a + fracs[None, :, None] * (b - a)
    if not np.all(np.isfinite(points)):
        raise DataError("path points must be finite")
    dens = _kernel_means(
        points.reshape(-1, features.dim),
        features.data,
        n,
        cfg.bandwidth_h,
        np.repeat(pairs, k, axis=0),
        lists,
    )
    return dens.reshape(pairs.shape[0], k)


def batch_path_density_info(features, pairs, cfg, lists=None):
    """Density factor of each row pair (i, j): one value in [0, 1] per pair.

    The k = cfg.path_points_k interior points x_i + (l / (k + 1)) (x_j - x_i),
    l = 1..k, divide the segment equally (k = 1 is the midpoint; the
    endpoints are never included). Each point's density is
    ``batch_normalized_density`` over cfg.kde_support_n supports at
    bandwidth cfg.bandwidth_h, and cfg.aggregator collapses a pair's k
    values: "min", "max", "avg", or "quantile" (linear interpolation at
    cfg.quantile_t). Pairs are put in (low, high) order first, so the
    factor is exactly symmetric in (i, j). ``lists``, every row's
    nearest-row list from ``graph.neighbor_lists``, saves computing the
    lists again; it does not change the result.
    """
    values = _pair_point_densities(*_canonical_pairs(features, pairs), cfg, lists)
    if cfg.aggregator == "min":
        return values.min(axis=1)
    if cfg.aggregator == "max":
        return values.max(axis=1)
    if cfg.aggregator == "avg":
        return values.mean(axis=1)
    return np.quantile(values, cfg.quantile_t, axis=1)


def density_ratio(features, pairs, cfg, lists=None):
    """Max over min of every per-point path density across ``pairs``.

    A diagnostic of how strongly the density factor can differentiate
    pairs at the configured bandwidth; always >= 1, and it approaches 1 as
    the bandwidth grows. Reversed or repeated pairs are evaluated once.
    ``lists``, every row's nearest-row list, lets calls that differ only
    in the bandwidth share one list pass; it does not change the result.
    """
    features, pairs = _canonical_pairs(features, pairs)
    values = _pair_point_densities(features, np.unique(pairs, axis=0), cfg, lists)
    lowest = float(values.min())
    if lowest <= 0.0:
        raise NumericalError(
            "minimum path density underflowed to zero; the ratio is undefined "
            "(try a larger bandwidth)"
        )
    return float(values.max()) / lowest
