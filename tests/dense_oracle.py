"""Dense reference for the sparse graph and the closed-form solve.

``affinity_from_dense`` turns a hand-written square matrix into the
library's CSR ``AffinityMatrix`` (every entry that is nonzero in the matrix
or its transpose is stored, so the type's own checks see asymmetry, self
loops and negative weights), and ``to_dense`` turns one back.
``complete_edges`` lists every pair of rows in both directions, the edges
of the all-pairs graphs that small hand-checked tests build.
``solve_dense`` is the direct LU solve of (I - alpha * S) Y = Y_high that
the library used before its iterative closed form; tests compare the
solver against it.
"""

import numpy as np

from pmlp.core import AffinityMatrix


def affinity_from_dense(matrix):
    """The CSR AffinityMatrix holding a dense square matrix."""
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = np.nonzero((matrix != 0) | (matrix.T != 0))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(matrix)))])
    return AffinityMatrix(indptr, cols, matrix[rows, cols])


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
