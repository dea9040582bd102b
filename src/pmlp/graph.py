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
from .density import _row_lists, batch_path_density_info

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
    EPS_DISTANCE; "first_order_similarity" is the inner product and
    "cosine_similarity" the cosine of the angle, both clamped at zero. The
    cosine of a zero-norm row is undefined and raises DataError. Every
    mode is exactly symmetric in the two rows. Each mode keeps at most two
    (pairs x dim) arrays alive, working on the gathered rows in place.
    Overflow raises no warning here, so ``-W error`` changes no outcome: a
    distance that overflows gives weight 0, which ``normalize_symmetric``
    names by row, and a product that overflows an infinite or NaN entry,
    which ``AffinityMatrix`` refuses as a DataError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "euclidean_inverse":
            # (b - a) ** 2 equals (a - b) ** 2 bit for bit.
            diff = data[second]
            diff -= data[first]
            np.square(diff, out=diff)
            dist = np.sqrt(diff.sum(axis=1))
            return 1.0 / np.maximum(dist, EPS_DISTANCE)
        if mode not in ("first_order_similarity", "cosine_similarity"):
            raise DataError("unknown distance mode: %r" % (mode,))
        left = data[first]
        if mode == "cosine_similarity":
            norm_l = np.sqrt(np.sum(left**2, axis=1))
        right = data[second]
        # The left rows are not needed again, so they take the product.
        dot = np.sum(np.multiply(left, right, out=left), axis=1)
        if mode == "first_order_similarity":
            return np.maximum(dot, 0.0)
        norm_r = np.sqrt(np.sum(np.square(right, out=right), axis=1))
        if np.any(norm_l == 0.0) or np.any(norm_r == 0.0):
            raise DataError("cosine similarity is undefined for a zero-norm vector")
        return np.maximum(dot / (norm_l * norm_r), 0.0)


def build_affinity(features, edges, cfg, lists=None):
    """Symmetrized sparse affinity matrix of the graph on ``edges``.

    ``edges`` is a directed (E, 2) array of row indices, such as
    ``knn_edges`` returns; each pair of rows it joins receives one entry,
    and the (M + M^T) / 2 symmetrization assigns half weight to a pair
    joined in a single direction. In "pmlp" mode each entry is multiplied
    by the pair's path-density factor; in "classical_lpa" mode the factor
    is identically one. ``lists`` from ``neighbor_lists`` is handed to
    ``batch_path_density_info``; it saves time and changes no value.
    """
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(features)
    n = features.n_rows
    edges = np.asarray(edges, dtype=int)
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.shape[0] < 1:
        raise DataError("edges must be a nonempty (E, 2) row index array")
    if np.any(edges < 0) or np.any(edges >= n):
        raise DataError("edge row index out of range")
    if np.any(edges[:, 0] == edges[:, 1]):
        raise DataError("self loops are not allowed")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keys, inverse = np.unique(lo * n + hi, return_inverse=True)
    forward = np.zeros(keys.size, dtype=bool)
    backward = np.zeros(keys.size, dtype=bool)
    forward[inverse[edges[:, 0] < edges[:, 1]]] = True
    backward[inverse[edges[:, 0] > edges[:, 1]]] = True
    weight = np.where(forward & backward, 1.0, 0.5)
    iu = keys // n
    ju = keys % n

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
