"""Path sampling, exponential-kernel density estimation, and aggregation.

The density factor attached to a pair of features is built in three steps:
sample interior points on the straight segment between the two feature
vectors, estimate a kernel density at each sampled point from its nearest
support points, and collapse the per-point densities with an aggregator.
Pairs whose segment crosses a low-density region end up with a small
factor, which is what lets the propagation graph respect cluster shape.

Nearest rows, for KDE supports here and for kNN edges in ``graph``, come
from one exact kernel, ``_nearest_rows``. It screens each block of queries
with GEMM distances and ``argpartition``, then ranks the surviving
candidates on direct-difference distances with ties toward the lower row
index. A query whose cut the screen cannot prove is ranked over all rows,
so the result never depends on BLAS rounding or thread count.

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
# distances and their partition order (queries x rows each), its gathered
# candidates (queries x candidates x dim), or, for queries ranked over all
# rows, their (queries x rows x dim) differences. Keeps each block near
# 64 MB of float64.
_CHUNK_ELEMENTS = 8_000_000

# Candidates the screen keeps beyond the requested count. Any margin >= 1
# is exact; a few spare rows let the screen prove its cut when the
# distances just past the count are close but not tied.
_SCREEN_MARGIN = 8


def _nearest_rows(queries, pool, count, exclude=None):
    """The ``count`` pool rows nearest to each query, closest first.

    Returns (indices, squared distances), each (n_queries, count). The
    distance is ``np.sum((q - x) ** 2)`` over the differences, and ties go
    to the lower row index: the result equals a stable argsort of every
    direct distance. ``exclude``, if given, holds one pool row per query
    that is never returned; ``count`` must leave enough rows.

    Each query block is screened with GEMM distances
    ||q||^2 + ||x||^2 - 2 q.x, and ``argpartition`` keeps ``count`` plus
    ``_SCREEN_MARGIN`` candidates. A screened distance is within
    ``bound`` = 2 (dim + 4) eps (||q|| + max ||x||)^2 of the direct one, so
    when the first row screened out lies more than 2 * bound past the
    ``count``-th, no row outside the candidates can rank inside the count.
    Queries that fail this test are ranked over all rows.
    """
    n, dim = pool.shape
    width = count + _SCREEN_MARGIN
    if width >= n:
        return _rank_all(queries, pool, count, exclude)
    indices = np.empty((queries.shape[0], count), dtype=np.intp)
    dist2 = np.empty((queries.shape[0], count))
    pool_sq = np.einsum("ij,ij->i", pool, pool)
    radius = np.sqrt(pool_sq.max())
    slack = 4 * (dim + 4) * np.finfo(float).eps
    block = max(1, _CHUNK_ELEMENTS // (2 * n + width * dim))
    # One screen buffer serves every block, and each block frees its
    # partition order, so only one block's large arrays are ever alive.
    screen_rows = np.empty((min(block, queries.shape[0]), n))
    for start in range(0, queries.shape[0], block):
        q = queries[start : start + block]
        skip = None if exclude is None else exclude[start : start + block]
        # Overflow is left to the finiteness test below, which sends the
        # affected queries to the exact rule.
        with np.errstate(over="ignore", invalid="ignore"):
            q_sq = np.einsum("ij,ij->i", q, q)
            screen = np.matmul(q, pool.T, out=screen_rows[: q.shape[0]])
            screen *= -2.0
            screen += pool_sq
            screen += q_sq[:, None]
            if skip is not None:
                screen[np.arange(q.shape[0]), skip] = np.inf
            part = np.argpartition(screen, width, axis=1)
            kept = np.take_along_axis(screen, part[:, : width + 1], axis=1)
            last = np.partition(kept[:, :width], count - 1, axis=1)[:, count - 1]
            scale = (np.sqrt(q_sq) + radius) ** 2
            # The tiny term covers rounding among subnormal squares. A finite
            # 2 * scale rules out overflow, so every screened value is finite
            # and an excluded row (inf) is never a candidate.
            bound = slack * scale + np.finfo(float).tiny
            proven = (kept[:, width] - last > bound) & (2 * scale < np.inf)
        rows = np.flatnonzero(proven)
        indices[start + rows], dist2[start + rows] = _rank(
            q[rows], pool, part[rows, :width], count
        )
        rows = np.flatnonzero(~proven)
        if rows.size:
            indices[start + rows], dist2[start + rows] = _rank_all(
                q[rows], pool, count, None if skip is None else skip[rows]
            )
        del part
    return indices, dist2


def _rank(queries, pool, candidates, count):
    """Rank each query's candidate rows by (direct distance, row index)."""
    # (x - q) ** 2 equals (q - x) ** 2 bit for bit; working in place keeps
    # one (queries x candidates x dim) array alive.
    diff = pool[candidates]
    diff -= queries[:, None, :]
    np.square(diff, out=diff)
    dist2 = diff.sum(axis=2)
    order = np.lexsort((candidates, dist2), axis=1)[:, :count]
    return (
        np.take_along_axis(candidates, order, axis=1),
        np.take_along_axis(dist2, order, axis=1),
    )


def _rank_all(queries, pool, count, exclude):
    """The direct rule over every pool row: a stable argsort of all distances.

    An excluded row is set to -inf, so it sorts first and is dropped.
    Queries are chunked so their differences stay within the budget.
    """
    n, dim = pool.shape
    skip = 0 if exclude is None else 1
    indices = np.empty((queries.shape[0], count), dtype=np.intp)
    dist2 = np.empty((queries.shape[0], count))
    step = max(1, _CHUNK_ELEMENTS // (n * dim))
    for start in range(0, queries.shape[0], step):
        q = queries[start : start + step]
        rows = slice(start, start + q.shape[0])
        diff = q[:, None, :] - pool[None, :, :]
        np.square(diff, out=diff)
        d2 = diff.sum(axis=2)
        if skip:
            d2[np.arange(q.shape[0]), exclude[rows]] = -np.inf
        order = np.argsort(d2, axis=1, kind="stable")[:, skip : skip + count]
        indices[rows] = order
        dist2[rows] = np.take_along_axis(d2, order, axis=1)
    return indices, dist2


def batch_normalized_density(queries, features, n, h):
    """Normalized exponential-kernel density at each row of ``queries``.

    For a query q with supports s_1..s_n, its ``n`` nearest feature rows
    (found by ``_nearest_rows``; a query's own row counts), the value is
    the mean kernel (1/n) * sum_m exp(-||s_m - q||^2 / h). That is h times
    the kernel density (1 / (n h)) * sum_m exp(-||s_m - q||^2 / h), so it
    lies in (0, 1] apart from underflow at extreme distances: exactly 1
    when every support coincides with q, and tending to 1 as h grows,
    which is why huge bandwidths erase all density information.
    """
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(features)
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != features.dim:
        raise DataError("queries must be 2-dimensional with the feature dim")
    if not np.all(np.isfinite(queries)):
        raise DataError("queries must be finite")
    n = int(n)
    if n < 1 or n > features.n_rows:
        raise DataError(
            "support count %d outside [1, %d]" % (n, features.n_rows)
        )
    if not h > 0:
        raise DataError("bandwidth h must be positive")

    _, d2 = _nearest_rows(queries, features.data, n)
    return np.mean(np.exp(-d2 / h), axis=1)


def _canonical_pairs(features, pairs):
    """Validated features and pairs, each pair ordered (low, high).

    The canonical ordering makes every density exactly symmetric in the
    pair orientation.
    """
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(features)
    pairs = np.asarray(pairs, dtype=int)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
        raise DataError("pairs must be a nonempty (n, 2) index array")
    if np.any(pairs < 0) or np.any(pairs >= features.n_rows):
        raise DataError("pair index out of range")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise DataError("a zero-length path has no interior points")
    return features, np.sort(pairs, axis=1)


def _pair_point_densities(features, pairs, cfg):
    """Normalized densities at the path points of canonical pairs: (n_pairs, k)."""
    lo, hi = pairs[:, 0], pairs[:, 1]
    k = int(cfg.path_points_k)
    fracs = np.arange(1, k + 1) / (k + 1)
    a = features.data[lo][:, None, :]
    b = features.data[hi][:, None, :]
    points = a + fracs[None, :, None] * (b - a)
    dens = batch_normalized_density(
        points.reshape(-1, features.dim), features, cfg.kde_support_n, cfg.bandwidth_h
    )
    return dens.reshape(pairs.shape[0], k)


def batch_path_density_info(features, pairs, cfg):
    """Density factor of each row pair (i, j): one value in [0, 1] per pair.

    The k = cfg.path_points_k interior points x_i + (l / (k + 1)) (x_j - x_i),
    l = 1..k, divide the segment equally (k = 1 is the midpoint; the
    endpoints are never included). Each point's density is
    ``batch_normalized_density`` over cfg.kde_support_n supports at
    bandwidth cfg.bandwidth_h, and cfg.aggregator collapses a pair's k
    values: "min", "max", "avg", or "quantile" (linear interpolation at
    cfg.quantile_t). Pairs are put in (low, high) order first, so the
    factor is exactly symmetric in (i, j).
    """
    values = _pair_point_densities(*_canonical_pairs(features, pairs), cfg)
    if cfg.aggregator == "min":
        return values.min(axis=1)
    if cfg.aggregator == "max":
        return values.max(axis=1)
    if cfg.aggregator == "avg":
        return values.mean(axis=1)
    return np.quantile(values, cfg.quantile_t, axis=1)


def density_ratio(features, pairs, cfg):
    """Max over min of every per-point path density across ``pairs``.

    A diagnostic of how strongly the density factor can differentiate
    pairs at the configured bandwidth; always >= 1, and it approaches 1 as
    the bandwidth grows. Reversed or repeated pairs are evaluated once.
    """
    features, pairs = _canonical_pairs(features, pairs)
    values = _pair_point_densities(features, np.unique(pairs, axis=0), cfg)
    lowest = float(values.min())
    if lowest <= 0.0:
        raise NumericalError(
            "minimum path density underflowed to zero; the ratio is undefined "
            "(try a larger bandwidth)"
        )
    return float(values.max()) / lowest
