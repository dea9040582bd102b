"""Dense reference for the sparse graph and the closed-form solve.

``affinity_from_dense`` turns a hand-written symmetric matrix into the
library's CSR ``AffinityMatrix``: one pair per nonzero entry of the upper
triangle, the diagonal included, so the type's own checks see self loops
and negative weights. ``upper_pairs`` lists a matrix's pairs the same way,
and ``to_dense`` turns a matrix back into a dense one.
``complete_edges`` lists every pair of rows in both directions, the edges
of the all-pairs graphs that small hand-checked tests build.
``solve_dense`` is the direct LU solve of (I - alpha * S) Y = Y_high that
the library used before its iterative closed form; tests compare the
solver against it.
"""

import numpy as np

from pmlp.core import AffinityMatrix


def affinity_from_dense(matrix):
    """The AffinityMatrix holding a symmetric dense square matrix."""
    matrix = np.asarray(matrix, dtype=float)
    assert np.array_equal(matrix, matrix.T), "the dense matrix is not symmetric"
    first, second = np.nonzero(np.triu(matrix != 0))
    return AffinityMatrix(len(matrix), first, second, matrix[first, second])


def upper_pairs(affinity):
    """The (first, second, values) of an AffinityMatrix's entries above the
    diagonal, from which its constructor builds the same matrix."""
    rows = np.repeat(np.arange(affinity.size), np.diff(affinity.indptr))
    upper = rows < affinity.indices
    return rows[upper], affinity.indices[upper], affinity.data[upper]


def complete_edges(n):
    """The (n * (n - 1), 2) directed edges joining every two of n rows."""
    return np.argwhere(~np.eye(n, dtype=bool))


def to_dense(affinity):
    """The dense square matrix of an AffinityMatrix."""
    out = np.zeros((affinity.size, affinity.size))
    rows = np.repeat(np.arange(affinity.size), np.diff(affinity.indptr))
    out[rows, affinity.indices] = affinity.data
    return out


def solve_dense(S, y_high, alpha, scaling="fixed_point"):
    """np.linalg.solve of (I - alpha * S) Y = Y_high, clipped at zero."""
    S = to_dense(S) if isinstance(S, AffinityMatrix) else np.asarray(S, dtype=float)
    y = np.asarray(getattr(y_high, "data", y_high), dtype=float)
    solution = np.linalg.solve(np.eye(len(S)) - alpha * S, y)
    if scaling == "fixed_point":
        solution = (1.0 - alpha) * solution
    return np.maximum(solution, 0.0)
