"""Independent reference for nearest-row selection.

This is the direct rule the library's blocked kernel must reproduce: for
each query, every direct-difference squared distance, ranked by a stable
argsort so that ties go to the lower row index. An excluded row is pushed
to the front with -inf and dropped, as the original single-query helpers
did. Tests compare the kernel, and everything built on it, against this.
"""

import numpy as np


def nearest_rows_oracle(queries, pool, count, exclude=None):
    """(indices, squared distances) of the ``count`` nearest pool rows."""
    queries = np.asarray(queries, dtype=float)
    pool = np.asarray(pool, dtype=float)
    indices = np.empty((queries.shape[0], count), dtype=int)
    dist2 = np.empty((queries.shape[0], count))
    for row, query in enumerate(queries):
        d2 = np.sum((pool - query) ** 2, axis=1)
        skip = 0
        if exclude is not None:
            d2[exclude[row]] = -np.inf
            skip = 1
        order = np.argsort(d2, kind="stable")[skip : skip + count]
        indices[row] = order
        dist2[row] = d2[order]
    return indices, dist2
