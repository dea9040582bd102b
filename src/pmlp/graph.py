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
from .density import _nearest_rows, batch_path_density_info

__all__ = [
    "EPS_DISTANCE",
    "build_affinity",
    "knn_edges",
    "normalize_symmetric",
]

# Floor applied to a Euclidean distance before inversion, guarding against
# coincident points.
EPS_DISTANCE = 1e-12


def knn_edges(features, count):
    """Directed nearest-neighbor edges (i -> each of i's ``count`` nearest).

    Returns an (N * count, 2) index array whose rows i * count through
    (i + 1) * count - 1 hold i's neighbors, closest first under Euclidean
    distance, with exact ties going to the lower row index. A row's own
    index is never among its neighbors, though a row that coincides with
    it may be.
    """
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(features)
    count = int(count)
    if count < 1 or count >= features.n_rows:
        raise DataError(
            "neighbor count %d must lie in [1, %d)" % (count, features.n_rows)
        )
    n = features.n_rows
    neighbors, _ = _nearest_rows(features.data, features.data, count, np.arange(n))
    sources = np.repeat(np.arange(n), count)
    return np.column_stack([sources, neighbors.reshape(-1)])


def _base_affinity(left, right, mode):
    """Base affinity of each pair of rows of ``left`` and ``right``.

    "euclidean_inverse" is 1 / ||a - b||, with the distance floored at
    EPS_DISTANCE; "first_order_similarity" is the inner product and
    "cosine_similarity" the cosine of the angle, both clamped at zero. The
    cosine of a zero-norm row is undefined and raises DataError. Every
    mode is exactly symmetric in the two rows.
    """
    if mode == "euclidean_inverse":
        dist = np.sqrt(np.sum((left - right) ** 2, axis=1))
        return 1.0 / np.maximum(dist, EPS_DISTANCE)
    if mode == "first_order_similarity":
        return np.maximum(np.sum(left * right, axis=1), 0.0)
    if mode == "cosine_similarity":
        norm_l = np.sqrt(np.sum(left**2, axis=1))
        norm_r = np.sqrt(np.sum(right**2, axis=1))
        if np.any(norm_l == 0.0) or np.any(norm_r == 0.0):
            raise DataError("cosine similarity is undefined for a zero-norm vector")
        sim = np.sum(left * right, axis=1) / (norm_l * norm_r)
        return np.maximum(sim, 0.0)
    raise DataError("unknown distance mode: %r" % (mode,))


def build_affinity(features, edges, cfg):
    """Symmetrized sparse affinity matrix of the graph on ``edges``.

    ``edges`` is a directed (E, 2) array of row indices, such as
    ``knn_edges`` returns; each pair of rows it joins receives one entry,
    and the (M + M^T) / 2 symmetrization assigns half weight to a pair
    joined in a single direction. In "pmlp" mode each entry is multiplied
    by the pair's path-density factor; in "classical_lpa" mode the factor
    is identically one.
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

    values = _base_affinity(features.data[iu], features.data[ju], cfg.distance_mode)
    if cfg.mode == "pmlp":
        values = values * batch_path_density_info(
            features, np.column_stack([iu, ju]), cfg
        )
    return AffinityMatrix(n, iu, ju, weight * values)


def normalize_symmetric(affinity):
    """Symmetrically normalized matrix S = D^(-1/2) W D^(-1/2).

    D is the diagonal matrix of row sums of W; S keeps the sparsity
    pattern of W. Every row must have a positive sum; an isolated node is
    reported by index rather than silently patched (enlarging the
    neighbor count usually fixes it).
    """
    if not isinstance(affinity, AffinityMatrix):
        raise DataError("normalize_symmetric needs an AffinityMatrix")
    degrees = affinity.operator(1)(np.ones(affinity.size))
    dead = np.flatnonzero(degrees <= 0.0)
    if dead.size:
        raise NumericalError(
            "row %d has zero degree (isolated node); "
            "enlarge neighbor_count or check the affinity inputs" % int(dead[0])
        )
    return affinity.scaled(1.0 / np.sqrt(degrees))
