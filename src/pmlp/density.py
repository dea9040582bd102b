"""Path sampling, exponential-kernel density estimation, and aggregation.

The density factor attached to a pair of features is built in three steps:
sample interior points on the straight segment between the two feature
vectors, estimate a kernel density at each sampled point from its nearest
support points, and collapse the per-point densities with an aggregator.
Pairs whose segment crosses a low-density region end up with a small
factor, which is what lets the propagation graph respect cluster shape.

Nearest rows, for KDE supports here and for kNN edges in ``graph``, come
from one exact search, ``_nearest_rows``: one block loop over the
queries still unproven, in rounds. The first takes a path point's
endpoint lists (below); then come slabs of the pool sorted on its widest
coordinate, four times wider each round, up to the slab of all N rows,
the whole pool, which takes its queries back in row order, and proves
every query its screens are given, as no row lies outside it. The
search sorts the pool once, centres it on its mean and stores it in that
order as [-2 x; ||x||^2], in float32 unless the centred squares would
leave its normal range; a pool whose first round is the whole pool is
stored in row order, with no key. Every screen reads a run of those
columns without a copy and takes a block of queries through one GEMM
against it, which ranks the rows as their distances do up to a
rounding the proof bounds. It keeps candidates, then ranks them on float64
direct-difference distances of the raw rows with ties toward the lower
row index (``_rank``). The candidates hold each query's smallest
screened values, found exactly from group minima (``_smallest``): a
row's columns fall into strided groups, one pass takes every group's
minimum, and only the groups with the smallest minima are partitioned,
not every screened value. In a narrower slab the key gap to the first
row outside it proves the result. At low d that holds for nearly every
query, so the pass stops being quadratic. By one stop rule, a list or
slab round that proves under half of what it tries hands the rest to
the next, as at high d. A screen keeps four times more candidates until
it proves a cut, at most every column, where nothing is screened out:
so every screen proves its cuts, and the result never depends on
rounds, BLAS rounding or threads. Blocks are sized by one element
budget, ``_CHUNK_ELEMENTS`` (about 4 MB of float64; a screen block keeps
at least ``_MIN_SCREEN_BLOCK`` queries): every round takes full blocks,
and each block's screen is a new array. One search runs per pool and
yields each block as a round proves it, and the KDE reduces the
search's own blocks to their kernel means as they come, so the working
set stays near one cache-sized block whatever the number of queries.

Nearest-row lists have one shape, every row's list: (indices, squared
distances), each (N, m), row i holding i's m nearest other rows (the
search finds m + 1 and drops i, or its last row where i is not listed).
One function, ``_row_lists``, builds them, alone leaves a row out of a
search, and alone knows how long they must be to prove a number of KDE
supports (``_list_length``); ``graph`` takes the kNN edges from the first
columns of the same lists. A path point lies between its two endpoint
rows, so its supports are usually among the endpoints' own nearest rows.
``_listed_rows`` ranks each point's supports among its endpoints and
their lists. A row outside an endpoint e's list lies at least r_m(e),
the distance to e's m-th row, from e; one bound, Stewart's theorem on
the segment from a to b, turns that into a distance from the point q,
mixing r_m(a)^2 and r_m(b)^2, and is exact where a and b are equal
(L = 0), as q is then a itself. It proves nearly every kNN-edge point
with lists of m = ceil(4 n / 3) + 2 rows for n supports. The list round
runs only where a point's 2 (m + 1) candidates are fewer than the pool
rows; points it leaves go on to the screens, so the output is the same
either way.

All operations are pure; per-pair computations are independent and may run
in any order without changing the result.
"""

import numpy as np

from . import core
from .core import ConfigError, DataError, NumericalError
from .core import _check_elements, _features

__all__ = [
    "batch_normalized_density",
    "batch_path_density_info",
    "density_ratio",
]

# Element budget for the transient arrays of one query block: its screening
# values (float32 where ``_screen`` can) and, on a screen too narrow to
# group (``_smallest``), their partition order (queries x rows each), its
# gathered candidates (queries x candidates x dim) with their rows,
# distances and order, ranked in chunks however many candidates a tied
# screen keeps (``_screen``); the KDE reduces a block's distances in place.
# 500,000 elements (4 MB of float64) keeps a block near a core's L2 cache
# size; on 4,000-5,000-row kNN passes at d = 2 and d = 32 it was as fast as
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
# rows the time was within 5%. A whole-pool screen of 64 queries holds 64 N
# values, 5 MB of float32 at 20,000 rows, made anew for each block.
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


def _nearest_rows(queries, pool, count, ends=None, lists=None):
    """The ``count`` pool rows nearest to each query, closest first, in blocks.

    Yields (rows, indices, squared distances) for each block of queries a
    round tries: ``rows`` are the positions of the queries it proved,
    possibly none, and indices and distances are each (rows, count).
    Every query is yielded once, in no fixed order, so a caller keeps
    what it needs of a block before the next: ``_row_lists`` collects
    them, ``_kernel_means`` reduces each to its kernel means. Each block's
    indices and distances are new arrays (``_listed_rows`` and ``_screen``
    make them, and the key-gap test takes copies), and no yielded array
    shares memory the search reads again, so the caller may write into it. The
    distance is ``np.sum((q - x) ** 2)`` over the differences, and ties go
    to the lower row index: the result equals a stable argsort of every
    direct distance. ``ends`` and ``lists``, if given, are the path
    points' as ``_listed_rows`` takes them.

    The search is one block loop (``search``) run in rounds over the
    queries still unproven: the endpoint lists (``_listed_rows``), where a
    point's 2 (m + 1) candidates, its ends and their lists of m, are at
    least ``count`` and fewer than the N pool rows, then slabs of the
    pool, each screened by ``_screen``. Before the first screen the pool
    is sorted once along its widest coordinate a (largest max - min), by a
    stable argsort, and lifted in that order: every screen reads the
    columns a:b of that one array, a view, with rows ``order[a:b]``. The
    slab rounds take the queries in key order. A block
    of queries is screened against the pool rows within ``width`` sorted
    positions of the block's key range, ``width`` starting at
    ``_FIRST_SLAB`` times the screen's candidates, widened as sqrt(rows)
    on large pools at d >= 2 (``_SLAB_ROWS``). A row x outside the slab
    has its key at or beyond g, the first key outside the slab on its
    side, so ||q - x|| >= |q_a - x_a| >= G = |q_a - g|, the query's key
    gap. A query is accepted when the screen proves its cut within the
    slab and its ``count``-th direct distance d_n, rounded up, is below
    its key gap, rounded down: then every row outside the slab ranks after
    the count, whatever its index. On floats, a direct squared distance is
    within (dim + 2) eps / 2 of the exact one relative, plus the smallest
    normal number absolute, so x's computed squared distance is at least
    (1 - (dim + 2) eps / 2) G^2 less that number, and the computed gap is
    one rounded subtraction, at most G (1 + eps / 2). The test sqrt(d_n +
    tiny) (1 + s) < gap (1 - s) widens each root toward the failing side
    by s = 2 (dim + 4) eps, which leaves room for all of these and its own
    few roundings, so x's computed distance exceeds d_n. The queries not
    accepted go round again with ``width`` four times larger. Once 2
    ``width`` reaches the pool size N, the round is the slab of all N
    rows, the run 0:n, the whole pool: its queries go back to row order,
    in blocks of max(``_MIN_SCREEN_BLOCK``, ``_CHUNK_ELEMENTS`` // (2 N +
    candidates dim)), and as no row lies outside it, it proves every query
    its screen is given (``_screen`` proves every cut). Pools of at most 2
    ``width`` rows have this round alone: they are lifted in row order,
    with no axis, key sort or slab ends, as every ``harness compare`` pool
    of 200 rows is.

    Every round takes full blocks, as many queries as the budget allows.
    Where distances concentrate (high d) the lists and the key gaps prove
    little, so the list round and the narrower slabs stop after a block,
    by the stop rule of the block loop: a stopped round hands the queries
    it leaves to the next, the slabs or the whole pool. The rule decides
    once per search, over all of its queries. The rounds change the time,
    never the result.
    """
    n, dim = pool.shape
    keep = count + _SCREEN_MARGIN

    def search(pending, prove):
        """Prove ``pending`` in blocks, yielding each proven block; returns
        the rows left, and whether it stopped.

        ``prove(rest)``, ``listed`` or ``slab``, takes a full block from
        the front of the rows ``rest`` and returns it, the positions in it
        proven, and their indices and distances. The stop rule: the round
        ends once under half of the queries it has tried are proven, so a
        first block that proves under half of its own ends it; the rest
        go on. The whole pool proves every query, so its round never
        stops.
        """
        left, start, proven = [], 0, 0
        while start < pending.size:
            rows, done, idx, d2 = prove(pending[start:])
            yield rows[done], idx, d2
            left.append(np.delete(rows, done))
            start += rows.size
            proven += done.size
            if 2 * proven < start:
                break
        return np.concatenate(left + [pending[start:]]), start < pending.size

    pending = np.arange(queries.shape[0])
    # Fewer candidates than supports (short lists) prove nothing, and as
    # many as the pool rows cost more than a screen of the whole pool.
    if lists is not None and count <= 2 * (lists[0].shape[1] + 1) < n:
        # A block's candidate arrays fill at most half of the budget: the
        # heap may keep their pages when a screen is allocated after them.
        block = max(1, _CHUNK_ELEMENTS // (4 * (lists[0].shape[1] + 1) * (dim + 4)))
        # Overflow is left to the finiteness tests, which leave the affected
        # queries to a screen that keeps every column.
        with np.errstate(over="ignore", invalid="ignore"):
            radius = np.sqrt(np.einsum("ij,ij->i", pool, pool).max())

        def listed(rest):
            rows = rest[:block]
            return rows, *_listed_rows(
                queries[rows], pool, count, ends[rows], lists, radius
            )

        pending = (yield from search(pending, listed))[0]
    if pending.size:
        width = _FIRST_SLAB * keep
        if dim > 1 and n > _SLAB_ROWS * keep:
            width = int(np.ceil(width * np.sqrt(n / (_SLAB_ROWS * keep))))
        # The pool lifted once, in the order every screen reads a run of:
        # sorted on its widest coordinate a (largest max - min), with the
        # queries in key order, where slabs come first, and in row order
        # where the whole pool is the first round. Its rows are centred on
        # the pool mean (on zero where it overflows), in float32 unless
        # their squares would leave its normal range (``_screen``).
        with np.errstate(over="ignore", invalid="ignore"):
            if 2 * width < n:
                axis = np.argmax(np.ptp(pool, axis=0))
                order = np.argsort(pool[:, axis], kind="stable")
                keys = pool[order, axis]
                pending = pending[np.argsort(queries[pending, axis], kind="stable")]
            else:
                order = np.arange(n)
            centre = pool.mean(axis=0)
            centre[~np.isfinite(centre)] = 0.0
            centred = pool[order]
            centred -= centre
            norms = np.einsum("ij,ij->i", centred, centred)
        single, radius2 = np.finfo(np.float32), norms.max()
        normal = single.tiny / single.eps <= radius2 <= single.max / 16
        kind = np.float32 if normal else float
        lifted = np.empty((dim + 1, n), kind)
        with np.errstate(over="ignore"):
            np.multiply(centred.T, -2.0, out=lifted[:dim])
        lifted[dim] = norms
        del centred, norms
        slack = 2 * (dim + 4) * np.finfo(float).eps
        reach, tiny = np.sqrt(radius2), np.finfo(float).tiny

        def slab(rest):
            """Screen as many of ``rest`` as fit the budget with the slab
            they span, ``width`` rows either side of their keys, and prove
            them by the key gap, or all of them where the slab holds every
            row."""
            most = max(_MIN_SCREEN_BLOCK, _CHUNK_ELEMENTS // (2 * width + keep * dim))
            if width == n:  # the whole pool: no slab ends to find
                rows, a, b = rest[:most], 0, n
            else:
                key = queries[rest[:most], axis]
                a = max(np.searchsorted(keys, key[0], "left") - width, 0)
                b = np.minimum(np.searchsorted(keys, key, "right") + width, n)
                size = np.arange(1, b.size + 1)
                fit = np.count_nonzero(
                    size * (2 * (b - a) + keep * dim) <= _CHUNK_ELEMENTS
                )
                rows = rest[: max(_MIN_SCREEN_BLOCK, fit)]
                b = b[rows.size - 1]
            q = queries[rows]
            idx, d2 = _screen(q, pool, lifted[:, a:b], order[a:b], centre, reach, count)
            if b - a == n:  # no row lies outside a slab of every row
                return rows, np.arange(rows.size), idx, d2
            with np.errstate(over="ignore", invalid="ignore"):
                # The key gap to the first row outside the slab either side.
                below = q[:, axis] - keys[a - 1] if a else np.inf
                gap = np.minimum(below, keys[b] - q[:, axis] if b < n else np.inf)
                far = np.sqrt(d2[:, -1] + tiny) * (1 + slack) < gap * (1 - slack)
            return rows, np.flatnonzero(far), idx[far], d2[far]

        while pending.size:
            if 2 * width >= n:  # the whole pool, the last slab, in row order
                width, pending = n, np.sort(pending)
            pending, stopped = yield from search(pending, slab)
            width = n if stopped else 4 * width  # a stop ends the slabs


def _screen(q, pool, lifted, rows, centre, radius, count):
    """Rank a block of queries among the pool rows ``rows`` behind ``lifted``.

    ``lifted`` holds the pool rows ``rows``, a run of the key-sorted pool,
    less ``centre``, as A = [-2 x; ||x||^2], (dim + 1) x columns, in the
    screen's dtype; ``radius`` is R, the largest centred pool norm. One
    GEMM, [q, 1] A, with q centred too, gives the screen, a new queries x
    columns array: s(x) = ||x||^2 - 2 q.x = ||q - x||^2 - ||q||^2 for
    every column.
    Leaving out ||q||^2 shifts a query's whole row by one constant, so it
    ranks the rows as their distances do; ``_smallest`` keeps ``count``
    plus ``_SCREEN_MARGIN`` candidates and the next smallest value.

    The bound. Let u = eps / 2 of the screen's dtype, gamma_k = k u / (1 -
    k u) and S = (||q|| + R)^2, centred. Centring rounds once in float64,
    relative to the centred value, and the cast once more, so each entry
    is within 2 u of its exact centred value, relative: ||q - x||^2 moves
    by at most 5 u S (||q||^2 is the row's constant). The stored ||x||^2,
    summed in float64 and cast, is within (dim + 6) u R^2 of the cast
    row's, and the (dim + 1)-term dot product, summed in any order, within
    gamma_(dim+1) S of its exact value: to first order in u, a screened
    value is within (dim + 6) eps S of ||q - x||^2 less the row's
    constant. A direct squared distance, in float64 on the raw rows, is
    within (dim + 2) u S of the exact one, as q - x is the same whatever
    the centre. Twice the sum, (3 dim + 14) eps S, leaves (dim + 2) eps S
    of 4 (dim + 4) eps S for higher-order terms: when the first column
    screened out lies more than that past the ``count``-th, in a
    difference rounded once, no column outside the candidates can rank
    inside the count. The tiny term covers rounding among subnormal
    products. ``_nearest_rows`` screens in float32 only where eps R^2 is
    at least float32's smallest normal number, so a cast's absolute
    rounding near underflow is far below eps S, and 16 R^2 at most its
    largest number. A row whose 2 S exceeds the dtype's largest number
    could overflow, so its bound is infinite and it is never proven this
    way. The proof reads only the smallest values, which ``_smallest``
    finds exactly, so it proves the rows a full partition would; a proven
    row's candidates can differ from a full partition's only among
    columns tied past the count, and ``_rank`` orders those by (distance,
    row).

    The rows left are selected again from the same screen with four times
    more candidates, until these would be every column: then nothing is
    screened out, so every row is proven, non-finite values included, and
    a screen no wider than the first candidates needs no GEMM. ``_rank``
    takes them in chunks whose (queries x candidates) arrays, max(dim + 2,
    8) at most, fit ``_CHUNK_ELEMENTS``.

    Returns every query's (indices, squared distances) among the columns,
    as ``_rank`` ranks them.
    """
    keep = count + _SCREEN_MARGIN
    dim, width = q.shape[1], lifted.shape[1]
    indices = np.empty((q.shape[0], count), dtype=np.intp)
    dist2 = np.empty((q.shape[0], count))
    todo = np.arange(q.shape[0])
    if keep < width:
        info = np.finfo(lifted.dtype)
        lifted_q = np.ones((q.shape[0], dim + 1), lifted.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = q - centre
            lifted_q[:, :dim] = shifted
            screen = np.matmul(lifted_q, lifted)
            scale = (np.sqrt(np.einsum("ij,ij->i", shifted, shifted)) + radius) ** 2
            # The tiny term covers rounding among subnormal products. A
            # 2 * scale below the dtype's largest value rules out overflow;
            # where it is not, an infinite bound proves nothing.
            bound = 4 * (dim + 4) * info.eps * scale + info.tiny
            bound[~(2 * scale < info.max)] = np.inf
    while todo.size:
        if keep < width:
            with np.errstate(over="ignore", invalid="ignore"):
                # Until a pass proves a query, the screen is read in place.
                rest = screen if todo.size == q.shape[0] else screen[todo]
                part, kept = _smallest(rest, keep + 1)
                last = np.partition(kept[:, :keep], count - 1, axis=1)[:, count - 1]
                ok = kept[:, keep] - last > bound[todo]
            candidates = rows[part[ok, :keep]]
            del rest, part, kept  # before _rank allocates
        else:  # every column
            ok = np.ones(todo.size, dtype=bool)
            candidates = np.broadcast_to(rows, (todo.size, width))
        done, todo = todo[ok], todo[~ok]
        step = max(1, _CHUNK_ELEMENTS // (candidates.shape[1] * max(dim + 2, 8)))
        for start in range(0, done.size, step):
            at, chunk = done[start : start + step], candidates[start : start + step]
            indices[at], dist2[at] = _rank(q[at], pool, chunk, count)
        keep *= 4
    return indices, dist2


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
    This is the search's one tie rule, for lists' and screens' candidates.
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


def _list_length(support_n, n_rows):
    """Length m of the lists that prove ``support_n`` supports.

    m = ceil(4 n / 3) + 2, at most every other row. With it Stewart's
    bound (``_listed_rows``) proves almost every kNN-edge point; shorter
    lists leave many to the screens, and longer ones only cost.
    kNN-edge midpoints left unproven, and lists plus affinity, for m =
    n + 2 / ceil(4 n / 3) + 2 / ceil(3 n / 2) + 2 / 2 n + 2:

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
    nearest rows other than i, as ``_nearest_rows`` ranks them. m is
    ``count``, raised with ``support_n`` to ``_list_length``, enough for
    ``_listed_rows`` to prove that many KDE supports. The search's N x (m
    + 1) arrays must fit ``core.MAX_ELEMENTS``: ``graph`` checks the kNN
    graph, 7 N ``count`` elements, before it asks for lists, so only a
    length that ``support_n`` set can be refused here, by an error that
    names ``kde_support_n``.

    This is the one place that leaves a row out of a search. The search
    finds each row's m + 1 nearest rows; row i's own index, or its last
    row where i is not among them, moves to the front, and the lists are
    the views past it. The first m + 1 rows by (distance, row) always
    hold the first m other than any one row, so this is exact whether i
    is listed or not, tied or not.
    """
    n = data.shape[0]
    if support_n is not None and _list_length(support_n, n) > count:
        count = _list_length(support_n, n)
        what = "%d rows x %d nearest rows" % (n, count + 1)
        _check_elements("kde_support_n", n * (count + 1), what)
    indices = np.empty((n, count + 1), dtype=np.intp)
    dist2 = np.empty((n, count + 1))
    for rows, idx, d2 in _nearest_rows(data, data, count + 1):
        indices[rows], dist2[rows] = idx, d2
    moved = np.flatnonzero(indices[:, 0] != np.arange(n))
    # One True per row: its own index, or the last where it is not listed.
    # A stable sort of ~hit puts it first, the rest in order.
    hit = indices[moved] == moved[:, None]
    hit[:, -1] |= ~hit.any(axis=1)
    order = np.argsort(~hit, axis=1, kind="stable")
    indices[moved] = _along(indices[moved], order)
    dist2[moved] = _along(dist2[moved], order)
    return indices[:, 1:], dist2[:, 1:]


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
    the bound S below puts every such x past d_n, so that no x can rank
    inside the count. An infinite d_n proves nothing, nor at L > 0 does
    an infinite r_m(e)^2, which makes the rounding bound infinite.

    Stewart: with alpha = ||q - a||, beta = ||q - b|| and L = alpha + beta
    = ||a - b|| for q on the segment, Stewart's theorem gives ||x - q||^2
    = (beta ||x - a||^2 + alpha ||x - b||^2) / L - alpha beta, so ||x -
    q||^2 >= S = (beta r_m(a)^2 + alpha r_m(b)^2) / L - alpha beta. With
    alpha = t L, S - (r_m(a) - alpha)^2 = t (r_m(b)^2 - (r_m(a) - L)^2),
    and likewise from b: both are >= 0 where L <= r_m(a), as on a kNN
    pair, so there S is never weaker than the triangle inequality's
    (r_m(e) - ||q - e||)^2.

    At L = 0, where a and b are equal value for value (tested on the
    rows: a subnormal difference can make alpha + beta 0 where they
    differ), S is max(r_m(a)^2, r_m(b)^2), and it is exact. The point is
    computed as a + f 0, which is a value for value, so every computed
    distance from it is the computed distance from a, and from b, as the
    lists rank their rows: a row outside both lists lies at least each
    computed r_m(e)^2 away, and d_n < S proves the query with no slack.

    On floats, at L > 0, with u = eps / 2 and R the largest pool norm: the
    computed q lies within delta <= 2 u (||a|| + ||b||) + u ||q|| <= 4 u
    (||q|| + R) of a point q* of the segment, so the computed alpha and
    beta are within epsilon = delta + (dim + 3) u L of q*'s, and the
    computed r_m(e)^2 within (dim + 2) u relative of exact bounds on the
    rows outside e's list. S = r_m(a)^2 + t (r_m(b)^2 - r_m(a)^2) - alpha
    beta with t = alpha / L in [0, 1], and r_m(e), the (m + 1)-th distance
    from e to the pool counting e itself, is 1-Lipschitz, so |r_m(b)^2 -
    r_m(a)^2| <= L (r_m(a) + r_m(b)): moving alpha and beta by epsilon
    moves S by at most epsilon (r_m(a) + r_m(b) + 2 L) + epsilon^2. Moving
    q* to q lowers ||q - x||^2 by at most 2 delta sqrt(S), with S <= max
    r_m(e)^2, and x's computed distance is at least (1 - (dim + 2) u) times
    the exact one. With P = ||q|| + R, the point's own rounding stays a
    product: delta <= 4 u P and sqrt(S) <= r_m(a) + r_m(b), so 2 delta
    sqrt(S) <= 4 eps P (r_m(a) + r_m(b)); delta (r_m(a) + r_m(b) + 2 L) <=
    4 eps P (r_m(a) + r_m(b) + L); and epsilon^2 <= 2 delta^2 + 2 ((dim +
    3) u L)^2, whose first term is at most 8 eps^2 P^2. The rest, (dim + 3)
    u L (r_m(a) + r_m(b) + 2 L), is at most (dim + 3) u (r_m(a)^2 +
    r_m(b)^2 + 3 L^2) by AM-GM. So every error is a few (dim + 4) eps times
    E = r_m(a)^2 + r_m(b)^2 + L^2 + P (r_m(a) + r_m(b) + L + eps P): the
    coordinates' scale P enters only times a distance, or times eps P, so
    an offset of 1e6 adds about eps 1e6 r, not eps 1e12. Near underflow a
    squared distance is off by up to the smallest normal number, and its
    root by up to sqrt(tiny), which adds at most eps E + tiny / eps. The
    test d_n + 64 (dim + 4) eps E + tiny / eps < S leaves a wide margin for
    all of these and for its own roundings.

    ``radius`` is R. Returns the queries so proven and their (indices,
    squared distances), as ``_rank`` ranks them; ``_nearest_rows`` ranks
    the rest, so the bound changes the time, never the result.
    """
    dim = pool.shape[1]
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    candidates = np.concatenate(
        [ends, lists[0][ends].reshape(queries.shape[0], -1)], axis=1
    )
    found, best = _rank(queries, pool, candidates, count)
    last = best[:, -1]
    r2a, r2b = lists[1][ends, -1].T
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, beta = np.sqrt(_distances(queries, pool, ends)).T
        total = alpha + beta
        floor = (beta / total) * r2a + (alpha / total) * r2b - alpha * beta
        scale = np.sqrt(np.einsum("ij,ij->i", queries, queries)) + radius
        spread = np.sqrt(r2a) + np.sqrt(r2b) + total + eps * scale
        error = r2a + r2b + total * total + scale * spread
        error *= 64 * (dim + 4) * eps
        proven = last + error + tiny / eps < floor
    same = np.all(pool[ends[:, 0]] == pool[ends[:, 1]], axis=1)
    proven[same] = last[same] < np.maximum(r2a, r2b)[same]  # L = 0: exact
    rows = np.flatnonzero(proven)
    return rows, found[rows], best[rows]


def _check_kernel(features, n, h):
    """The support count ``n`` as an int, once it and ``h`` are valid."""
    n = int(n)
    if n < 1 or n > features.shape[0]:
        raise DataError("support count %d outside [1, %d]" % (n, features.shape[0]))
    if not h > 0:
        raise DataError("bandwidth h must be positive")
    return n


def _kernel_means(queries, data, n, h, ends=None, lists=None):
    """The mean kernel over each query's ``n`` supports, block by block.

    Supports come from one ``_nearest_rows`` search, given each query's
    ``ends`` and every row's ``lists`` if there are any; they do not
    change the result. Each block the search yields is reduced to its
    kernel means, in place, before the search goes on, so no (queries x
    supports) array outlives its block. A row's mean is summed along that
    row alone, so the blocks do not change its bytes.
    """
    values = np.empty(queries.shape[0])
    for rows, _, d2 in _nearest_rows(queries, data, n, ends, lists):
        # d2 / -h is -d2 / h bit for bit: division rounds symmetrically. A
        # quotient that overflows has a kernel value of 0 either way.
        with np.errstate(over="ignore"):
            np.divide(d2, -h, out=d2)
        values[rows] = np.mean(np.exp(d2, out=d2), axis=1)
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
    features = _features(features)
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != features.shape[1]:
        raise DataError("queries must be 2-dimensional with the feature dim")
    if not np.all(np.isfinite(queries)):
        raise DataError("queries must be finite")
    n = _check_kernel(features, n, h)
    return _kernel_means(queries, features, n, h)


def _canonical_pairs(features, pairs):
    """The pairs of rows of ``features``, each ordered (low, high).

    The one check of row pairs, for path densities and for the graph's
    edges (``graph.build_affinity``): a nonempty (n, 2) array of row
    indices in range, no pair joining a row to itself. The canonical
    ordering makes every density exactly symmetric in the pair orientation.
    """
    pairs = np.asarray(pairs, dtype=int)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
        raise DataError("pairs must be a nonempty (n, 2) index array")
    if np.any(pairs < 0) or np.any(pairs >= features.shape[0]):
        raise DataError("pair index out of range")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise DataError("a pair joins a row to itself (self loop, zero-length path)")
    low, high = np.minimum(*pairs.T), np.maximum(*pairs.T)
    return np.column_stack([low, high])


def _path_points(cfg, pairs, dim, least=""):
    """``cfg.path_points_k`` as an int, once the points on ``pairs`` pairs
    and their densities, pairs x k x (dim + 1) elements, fit
    ``core.MAX_ELEMENTS``. The ConfigError names ``path_points_k`` and
    ``neighbor_count``, which sizes a kNN graph's pairs; ``least`` words a
    pair count that is a lower bound."""
    k = int(cfg.path_points_k)
    if pairs * k * (dim + 1) > core.MAX_ELEMENTS:
        raise ConfigError(
            "path_points_k",
            "%d points on each of %s%d pairs at d = %d exceed %d elements; "
            "neighbor_count sizes the pairs of a kNN graph"
            % (k, least, pairs, dim, core.MAX_ELEMENTS),
        )
    return k


def _pair_point_densities(features, pairs, cfg, lists=None):
    """Normalized densities at the path points of canonical pairs: (n_pairs, k).

    Each point's supports are proven from its pair's lists (``_listed_rows``).
    ``lists``, every row's list, is built here when not given. The points
    must fit ``core.MAX_ELEMENTS`` (``_path_points``).
    """
    n = _check_kernel(features, cfg.kde_support_n, cfg.bandwidth_h)
    rows, dim = features.shape
    k = _path_points(cfg, pairs.shape[0], dim)
    if lists is None:
        lists = _row_lists(features, support_n=n)
    elif lists[0].shape[0] != rows or lists[0].shape[1] < 1:
        raise DataError("lists must hold a nonempty list per feature row")
    lo, hi = pairs[:, 0], pairs[:, 1]
    fracs = np.arange(1, k + 1) / (k + 1)
    a = features[lo][:, None, :]
    b = features[hi][:, None, :]
    # An overflow is left to the finiteness test, the same with warnings
    # as errors.
    with np.errstate(over="ignore", invalid="ignore"):
        points = a + fracs[None, :, None] * (b - a)
    if not np.all(np.isfinite(points)):
        raise DataError("path points must be finite")
    dens = _kernel_means(
        points.reshape(-1, dim),
        features,
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
    features = _features(features)
    pairs = _canonical_pairs(features, pairs)
    values = _pair_point_densities(features, pairs, cfg, lists)
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
    features = _features(features)
    pairs = np.unique(_canonical_pairs(features, pairs), axis=0)
    values = _pair_point_densities(features, pairs, cfg, lists)
    lowest = float(values.min())
    if lowest <= 0.0:
        raise NumericalError(
            "minimum path density underflowed to zero; the ratio is undefined "
            "(try a larger bandwidth)"
        )
    return float(values.max()) / lowest
