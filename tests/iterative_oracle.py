"""Plain fixed-point iteration of the diffusion, the reference for the solve.

``propagate_iterative`` runs Y(i) = alpha * S Y(i-1) + (1 - alpha) * Y_high
from Y(0) = Y_high until the max-abs update drops below ``tol``. Its limit
is the fixed point ``pmlp.propagate.propagate_closed_form`` returns, so
tests compare the two. The absolute stop leaves rows that the labels reach
only after more than about log(tol) / log(alpha) hops at exactly zero, so
it is a reference only on small, well-connected graphs.
"""

import numpy as np


def propagate_iterative(S, y_high, alpha, max_iters=10000, tol=1e-10):
    """Iterate to ``tol`` or ``max_iters``; returns ``(result, iterations,
    residual)``, the residual being the last update's max-abs change."""
    y_high = np.asarray(y_high, dtype=float)
    base = y_high.T.ravel()  # class-major, as S.operator takes it
    apply = S.operator(y_high.shape[1])
    current = base
    iterations, residual = 0, float("inf")
    for iterations in range(1, max_iters + 1):
        nxt = alpha * apply(current) + (1.0 - alpha) * base
        residual = float(np.max(np.abs(nxt - current)))
        current = nxt
        if residual < tol:
            break
    result = current.reshape(y_high.shape[1], -1).T
    return result, iterations, residual
