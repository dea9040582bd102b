"""Neighbor selection, affinity construction, and symmetric normalization.

The affinity between two nodes is a base term derived from the configured
distance measure, optionally multiplied by the path-density factor. The
matrix is symmetrized as (M + M^T) / 2, stored as a sparse CSR
``AffinityMatrix``, and normalized as D^(-1/2) W D^(-1/2) with D the
diagonal of row sums, which keeps the spectral radius at or below one and
makes the propagation contraction converge. Scaling W by any positive
constant leaves the normalized matrix unchanged.
"""

import numpy as np

from .core import AffinityMatrix, DataError, FeatureMatrix, NumericalError
from .density import _canonical_pairs, _distances, _row_lists, batch_path_density_info

__all__ = [
    "EPS_DISTANCE",
    "build_affinity",
    "knn_edges",
    "neighbor_lists",
    "normalize_symmetric",
]

# Floor applied to a Euclidean distance before inversion, guarding against
# coincident points.
EPS_DISTANCE = 1e-12


def _check_count(features, count):
    count = int(count)
    if count < 1 or count >= features.n_rows:
        raise DataError(
            "neighbor count %d must lie in [1, %d)" % (count, features.n_rows)
        )
    return count


def neighbor_lists(features, cfg):
    """Each row's m nearest other rows, closest first, for one run.

    Returns (indices, squared distances), each (N, m), ranked as
    ``knn_edges`` ranks neighbors. The one pass serves a run's kNN edges,
    its first cfg.neighbor_count columns, and in "pmlp" mode the path
    points' KDE supports, which ``density`` proves from their endpoints'
    lists. So m is cfg.neighbor_count in "classical_lpa" mode, and in
    "pmlp" mode at least ceil(4 * cfg.kde_support_n / 3) + 2
    (``density._list_length``), capped at N - 1.
    """
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(features)
    count = _check_count(features, cfg.neighbor_count)
    support_n = cfg.kde_support_n if cfg.mode == "pmlp" else None
    return _row_lists(features.data, count, support_n)


def knn_edges(features, count, lists=None):
    """Directed nearest-neighbor edges (i -> each of i's ``count`` nearest).

    Returns an (N * count, 2) index array whose rows i * count through
    (i + 1) * count - 1 hold i's neighbors, closest first under Euclidean
    distance, with exact ties going to the lower row index. A row's own
    index is never among its neighbors, though a row that coincides with
    it may be. ``lists`` from ``neighbor_lists``, if at least ``count``
    long, saves building the rows' lists here.
    """
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(features)
    count = _check_count(features, count)
    n = features.n_rows
    if lists is None:
        lists = _row_lists(features.data, count)
    elif lists[0].shape[0] != n or lists[0].shape[1] < count:
        raise DataError("lists must hold at least %d neighbors per row" % count)
    sources = np.repeat(np.arange(n), count)
    return np.column_stack([sources, lists[0][:, :count].reshape(-1)])


def _base_affinity(data, first, second, mode):
    """Base affinity of each pair of rows (data[first], data[second]).

    "euclidean_inverse" is 1 / ||a - b||, with the distance floored at
    EPS_DISTANCE, of the squared distance the nearest-row search ranks by
    (``density._distances``). "first_order_similarity" is the inner
    product and "cosine_similarity" the cosine of the angle, both clamped
    at zero. The cosine of a zero-norm row is undefined and raises
    DataError. Every mode is exactly symmetric in the two rows. Each mode
    keeps at most two (pairs x dim) arrays alive. Overflow raises no
    warning here, so ``-W error`` changes no outcome: a distance that
    overflows gives weight 0, which ``normalize_symmetric`` names by row,
    and an inner product or norm that overflows an infinite or NaN
    weight, a DataError naming the first such pair.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "euclidean_inverse":
            dist2 = _distances(data[first], data, np.asarray(second)[:, None])
            return 1.0 / np.maximum(np.sqrt(dist2[:, 0]), EPS_DISTANCE)
        if mode not in ("first_order_similarity", "cosine_similarity"):
            raise DataError("unknown distance mode: %r" % (mode,))
        left = data[first]
        if mode == "cosine_similarity":
            norm_l = np.sqrt(np.sum(left**2, axis=1))
        right = data[second]
        # The left rows are not needed again, so they take the product.
        dot = np.sum(np.multiply(left, right, out=left), axis=1)
        if mode == "first_order_similarity":
            values = np.maximum(dot, 0.0)
        else:
            norm_r = np.sqrt(np.sum(np.square(right, out=right), axis=1))
            if np.any(norm_l == 0.0) or np.any(norm_r == 0.0):
                raise DataError("cosine similarity is undefined for a zero-norm vector")
            values = np.maximum(dot / (norm_l * norm_r), 0.0)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DataError(
            "affinity matrix contains non-finite entries: the first is pair (%d, %d), "
            "where an inner product or norm overflowed"
            % (first[bad[0]], second[bad[0]])
        )
    return values


def build_affinity(features, edges, cfg, lists=None):
    """Symmetrized sparse affinity matrix of the graph on ``edges``.

    ``edges`` is a directed (E, 2) array of row indices, such as
    ``knn_edges`` returns, checked and put in (low, high) order by
    ``density._canonical_pairs``, the path densities' own rule. Each pair
    of rows it joins receives one entry, and the (M + M^T) / 2
    symmetrization assigns half weight to a pair joined in a single
    direction. In "pmlp" mode each entry is multiplied by the pair's
    path-density factor; in "classical_lpa" mode the factor is
    identically one. ``lists`` from ``neighbor_lists`` is handed to
    ``batch_path_density_info``; it saves time and changes no value.
    """
    edges = np.asarray(edges, dtype=int)
    features, pairs = _canonical_pairs(features, edges)
    n = features.n_rows
    keys, inverse = np.unique(pairs[:, 0] * n + pairs[:, 1], return_inverse=True)
    ahead = edges[:, 0] == pairs[:, 0]  # the edge runs from low to high
    forward = np.zeros(keys.size, dtype=bool)
    backward = np.zeros(keys.size, dtype=bool)
    forward[inverse[ahead]] = True
    backward[inverse[~ahead]] = True
    weight = np.where(forward & backward, 1.0, 0.5)
    iu, ju = np.divmod(keys, n)

    values = _base_affinity(features.data, iu, ju, cfg.distance_mode)
    if cfg.mode == "pmlp":
        values = values * batch_path_density_info(
            features, np.column_stack([iu, ju]), cfg, lists
        )
    return AffinityMatrix(n, iu, ju, weight * values)


def normalize_symmetric(affinity):
    """Symmetrically normalized matrix S = D^(-1/2) W D^(-1/2).

    D is the diagonal matrix of row sums of W; S keeps the sparsity
    pattern of W. Every row must have a positive sum; the first that has
    none is reported by index, not patched: as an isolated node if it
    stores no entry, else as a row whose stored edges all weigh 0 (every
    row of a kNN graph stores at least k edges).
    """
    if not isinstance(affinity, AffinityMatrix):
        raise DataError("normalize_symmetric needs an AffinityMatrix")
    degrees = affinity.operator(1)(np.ones(affinity.size))
    dead = np.flatnonzero(degrees <= 0.0)
    if dead.size:
        row = int(dead[0])
        stored = int(affinity.indptr[row + 1] - affinity.indptr[row])
        if not stored:
            raise NumericalError(
                "row %d has zero degree (isolated node); "
                "enlarge neighbor_count or check the affinity inputs" % row
            )
        raise NumericalError(
            "row %d has zero degree: its %d stored edges all weigh 0 (bandwidth_h "
            "too small for the path density, a similarity clamped at 0, or a "
            "distance that overflowed)" % (row, stored)
        )
    return affinity.scaled(1.0 / np.sqrt(degrees))
