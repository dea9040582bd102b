"""Independent reference for the benchmark's output check.

A transcription of the seed engine's label propagation (kNN graph, path
density KDE, (M + M^T) / 2 symmetrization, D^-1/2 W D^-1/2, closed-form
solve of (I - alpha S) Y = Y_high scaled by 1 - alpha, ground-truth clamp,
eta mix) written on a different footing: scipy's KD-tree for neighbour and
support search, a sparse graph, and conjugate gradients to a relative
residual of 1e-14 (the system is symmetric positive definite with condition
number at most (1 + alpha) / (1 - alpha) = 9). Rows of a component that
holds no label stay exactly zero, as in the direct solve. It shares no code
with ``src/pmlp``, so a later change to the engine is checked against the
engine's behaviour as first recorded, not against itself.

Scope is what the workloads feed it: every label is a ground-truth class or
unlabelled (no soft predictions), the base affinity is inverse Euclidean,
the path density aggregator is the mean, and the seed engine's defaults
hold for every knob the workloads do not set.
"""

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, identity
from scipy.sparse.linalg import cg
from scipy.spatial import cKDTree

ALPHA = 0.8
ETA = 0.2
TAU = 0.95
PATH_POINTS_K = 1
EPS_DISTANCE = 1e-12
CG_RTOL = 1e-14


def knn(x, count):
    """Each row's ``count`` nearest other rows, closest first."""
    n = x.shape[0]
    _, nb = cKDTree(x).query(x, k=count + 1)
    self_hit = nb == np.arange(n)[:, None]
    keep = ~self_hit
    # A row whose own index fell outside its k+1 hits (exact duplicates)
    # drops its farthest hit instead.
    keep[~self_hit.any(axis=1), -1] = False
    return nb[keep].reshape(n, count)


def path_density(x, lo, hi, support_n, h):
    """Mean normalized KDE over the interior path points of each pair."""
    fracs = np.arange(1, PATH_POINTS_K + 1) / (PATH_POINTS_K + 1)
    a = x[lo][:, None, :]
    b = x[hi][:, None, :]
    points = (a + fracs[None, :, None] * (b - a)).reshape(-1, x.shape[1])
    _, idx = cKDTree(x).query(points, k=support_n)
    idx = idx.reshape(points.shape[0], support_n)
    d2 = np.sum((x[idx] - points[:, None, :]) ** 2, axis=2)
    dens = np.mean(np.exp(-d2 / h), axis=1)
    return dens.reshape(lo.size, PATH_POINTS_K).mean(axis=1)


def propagate(x, labels, n_classes, neighbor_count, density=None):
    """Final soft scores of ``pmlp label`` for one feature matrix.

    ``labels`` holds a class index on ground-truth rows and -1 elsewhere.
    ``density`` is ``(kde_support_n, bandwidth_h)`` for the density-aware
    mode and None for classical propagation.
    """
    n = x.shape[0]
    nb = knn(x, neighbor_count)
    ones = np.ones(n * neighbor_count)
    directed = csr_matrix(
        (ones, (np.repeat(np.arange(n), neighbor_count), nb.ravel())), shape=(n, n)
    )
    # Weight 1 for a pair linked both ways, 1/2 for a one-way link.
    upper = coo_matrix(((directed + directed.T) * 0.5).tocsr())
    pick = upper.row < upper.col
    lo, hi, weight = upper.row[pick], upper.col[pick], upper.data[pick]
    dist = np.sqrt(np.sum((x[lo] - x[hi]) ** 2, axis=1))
    values = 1.0 / np.maximum(dist, EPS_DISTANCE)
    if density is not None:
        values = values * path_density(x, lo, hi, *density)
    values = weight * values
    w = coo_matrix(
        (np.concatenate([values, values]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
        shape=(n, n),
    ).tocsr()
    inv_sqrt = 1.0 / np.sqrt(np.asarray(w.sum(axis=1)).ravel())
    s = w.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :])

    gt = labels >= 0
    y_high = np.zeros((n, n_classes))
    y_high[np.flatnonzero(gt), labels[gt]] = 1.0
    system = (identity(n, format="csr") - ALPHA * s).tocsr()
    solved = np.zeros_like(y_high)
    for c in range(n_classes):
        solved[:, c], info = cg(system, y_high[:, c], rtol=CG_RTOL, atol=0.0, maxiter=10 * n)
        if info != 0:
            raise ArithmeticError("oracle CG did not converge (info %d)" % info)
    solved = np.maximum((1.0 - ALPHA) * solved, 0.0)
    solved[gt] = y_high[gt]
    # Rows without a ground-truth label hold no initial mass, so the
    # low-confidence side of the mix is zero everywhere.
    return ETA * solved


def two_moons(n, noise, labeled_per_class, seed):
    """The seed engine's two-moons generator: features, truth, labels."""
    n_upper, n_lower = n - n // 2, n // 2
    rng = np.random.default_rng(seed)
    t_upper = rng.uniform(0.0, np.pi, n_upper)
    t_lower = rng.uniform(0.0, np.pi, n_lower)
    upper = np.column_stack([np.cos(t_upper), np.sin(t_upper)])
    lower = np.column_stack([1.0 - np.cos(t_lower), 0.5 - np.sin(t_lower)])
    x = np.vstack([upper, lower])
    if noise > 0:
        x = x + noise * rng.standard_normal(x.shape)
    truth = np.repeat([0, 1], [n_upper, n_lower])
    labels = np.full(n, -1)
    labels[:labeled_per_class] = 0
    labels[n_upper : n_upper + labeled_per_class] = 1
    return x, truth, labels


def trial_metric_bounds(scores, truth, labels, tol):
    """Ranges of (accuracy, high_conf_ratio, correct_high_ratio) of one
    compare trial over every score matrix within ``tol`` of ``scores``.

    A row whose mass is near zero, or whose top classes nearly tie, has a
    confidence or an argmax that rounding decides: the direct solve and CG
    agree on its scores to 1e-15 and still differ there. An engine whose
    scores match to ``tol`` may report any value inside these ranges; a row
    of real mass pins its part of them to one value. Each range is
    ``(lo, hi)``; correct_high_ratio's has a third item, whether the
    harness may report no value (no confident unlabelled row).
    """
    n, k = scores.shape
    unlabeled = labels < 0
    rows = np.arange(n)
    # Classes the argmax may pick: those within 2 tol of the row's maximum.
    candidates = scores >= scores.max(axis=1, keepdims=True) - 2 * tol
    may_right = candidates[rows, truth]
    sure_right = may_right & (candidates.sum(axis=1) == 1)
    # Confidence is max / sum, or 0 for an all-zero row.
    raised = scores + tol
    lowered = np.maximum(scores - tol, 0.0)
    rest = lowered.sum(axis=1, keepdims=True) - lowered
    upper = np.max(raised / (raised + rest), axis=1)
    lower = np.maximum(1.0 / k, np.max(lowered, axis=1) / (scores.sum(axis=1) + k * tol))
    lower[scores.max(axis=1) <= tol] = 0.0
    sure_conf = lower >= TAU
    may_conf = upper >= TAU

    accuracy = (float(np.mean(sure_right[unlabeled])), float(np.mean(may_right[unlabeled])))
    high_conf = (float(sure_conf.mean()), float(may_conf.mean()))
    sure_pick = sure_conf & unlabeled
    maybe_pick = may_conf & unlabeled & ~sure_conf
    # Fewest right: every maybe-pick that may be wrong is in, as wrong.
    picked = sure_pick | (maybe_pick & ~sure_right)
    low = np.sum(sure_pick & sure_right) / picked.sum() if picked.any() else 1.0
    # Most right: every maybe-pick that may be right is in, as right.
    picked = sure_pick | (maybe_pick & may_right)
    high = np.sum(picked & may_right) / picked.sum() if picked.any() else 0.0
    return accuracy, high_conf, (float(low), float(high), not sure_pick.any())
