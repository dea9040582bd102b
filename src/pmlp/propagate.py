"""The label propagation pipeline and the adaptive threshold scheduler.

Pipeline stages: split the initial soft labels by confidence, build the
(optionally density-reweighted) neighbor affinity, normalize it, diffuse
the high-confidence mass Y(i) = alpha * S * Y(i-1) + (1-alpha) * Y_high,
and mix the result back with the retained low-confidence predictions.
With alpha in (0, 1) and the symmetric normalization the diffusion map is
a contraction, and ``propagate_closed_form`` solves for its one fixed
point. It applies S through the sparse matrix's one gather-and-reduceat
product, with no BLAS call, so its bytes do not depend on the thread
count.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    PREDICTION_SUM_TOL,
    AffinityMatrix,
    DataError,
    NumericalError,
    PmlpConfig,
)
from .core import _check_elements, _features, _float_array, _frozen, _scores
from .graph import build_affinity, knn_edges, neighbor_lists, normalize_symmetric

__all__ = [
    "PropagationResult",
    "ThresholdSchedulerState",
    "confidences",
    "mix_final",
    "propagate_closed_form",
    "renormalized",
    "run_classical_lpa",
    "run_pmlp",
    "split_by_confidence",
    "threshold_increment",
    "update_threshold",
]

# The closed-form solve stops only when the recomputed residual
# r = b + alpha * S x - x proves ||x - x*||_2 <= ||r||_2 / (1 - alpha) <=
# SOLVE_TOL (the spectrum of I - alpha * S lies in [1 - alpha, 1 + alpha]),
# and when every row's residual, the update one more plain fixed-point step
# would make, is at most ROW_TOL of its value. The second test keeps rows
# far from the labels, whose exact masses can be 1e-30, from being left at
# zero by an absolute stop.
SOLVE_TOL = 1e-12
ROW_TOL = 1e-6
# The solve needs about ln(1 / SOLVE_TOL) / sqrt(2 (1 - alpha)) steps once
# the labels have reached every row, and the alpha term of its step cap,
# thirty tenfold falls, grows the same way; a solve whose thirty tenfold
# falls pass this budget (alpha within about 2.4e-7 of 1) is refused before
# it starts, whatever the row count.
MAX_SOLVE_STEPS = 100_000


@dataclass(frozen=True)
class PropagationResult:
    """Everything a propagation run produces.

    final_labels
        The mixed output eta * propagated + (1 - eta) * low, where
        propagated is the diffusion output (ground-truth rows clamped back
        to one-hot when configured), as a read-only (N, C) array. Rows are
        not renormalized, so downstream consumers should take a row argmax
        or call ``renormalized(final_labels)``. At eta = 1 it is the
        diffusion output itself.
    iterations_used, residual
        Solver diagnostics: the number of products with S, and the largest
        change one more fixed-point step would make to the labels.
    """

    final_labels: np.ndarray
    iterations_used: int
    residual: float


def split_by_confidence(labels, ground_truth_mask, tau):
    """Partition rows into high- and low-confidence soft label matrices.

    A row lands in ``high`` when its maximum reaches tau or it carries a
    ground-truth label (callers put one-hot vectors on those rows);
    otherwise it lands in ``low``. The two outputs add back to ``labels``
    entry for entry.
    """
    labels = _scores(labels)
    if not (0.0 < tau <= 1.0):
        raise DataError("tau must lie in (0, 1]")
    mask = np.asarray(ground_truth_mask, dtype=bool)
    if mask.shape != (labels.shape[0],):
        raise DataError("ground_truth_mask length does not match labels")
    high_mask = (labels.max(axis=1) >= tau) | mask
    high = np.where(high_mask[:, None], labels, 0.0)
    low = np.where(high_mask[:, None], 0.0, labels)
    return _frozen(high), _frozen(low)


def propagate_closed_form(S, y_high, alpha):
    """The fixed point (1 - alpha) (I - alpha * S)^(-1) Y_high of the iteration.

    Solves (I - alpha * S) X = Y_high to the stop rule of SOLVE_TOL/ROW_TOL
    and returns (1 - alpha) X, the limit the iteration approaches from any
    start. Labels are held class-major: the flat ``y_high.T.ravel()``.

    The spectrum of alpha * S lies in [-alpha, alpha], so the Chebyshev
    semi-iteration needs no inner products: x_1 = b and
    x_(k+1) = w_(k+1) (b + alpha S x_k) + (1 - w_(k+1)) x_(k-1), with
    w_2 = 1 / (1 - alpha^2 / 2) and w_(k+1) = 1 / (1 - w_k alpha^2 / 4).
    Where rounding keeps the residual above SOLVE_TOL (alpha near 1, or
    large heavily labelled inputs), the absolute test is met instead once
    the residual is within its rounding level and has not fallen for as
    many steps as a tenfold fall should take.

    The step count grows as 1 / sqrt(1 - alpha): about 45 steps past the
    farthest row's hop distance at alpha = 0.8, about 800 at 0.999. The
    step cap is twice the rows plus thirty tenfold falls; a solve whose
    thirty tenfold falls alone pass MAX_SOLVE_STEPS (alpha within about
    2.4e-7 of 1) raises NumericalError before the first step.

    Returns ``(result, steps, residual)``: the products with S taken and
    the max-abs change one more plain fixed-point step would make to
    ``result``.
    """
    if not (0.0 < alpha < 1.0):
        raise DataError("alpha must lie strictly inside (0, 1)")
    y_high = _scores(y_high)
    if not isinstance(S, AffinityMatrix):
        raise DataError("S must be an AffinityMatrix")
    if S.size != y_high.shape[0]:
        raise DataError("S shape does not match the label matrix")
    classes = y_high.shape[1]
    apply = S.operator(classes)
    b = y_high.T.ravel()
    target = SOLVE_TOL * (1.0 - alpha)
    # The error falls by about ``rate`` per step once every row has moved;
    # a row k hops from the nearest label first moves at step k + 1.
    rate = alpha / (1.0 + math.sqrt(1.0 - alpha * alpha))
    patience = math.ceil(math.log(10.0) / -math.log(rate))
    if 30 * patience > MAX_SOLVE_STEPS:
        raise NumericalError(
            "alpha = %r needs %d closed-form steps for thirty tenfold falls, past the "
            "budget of %d; use a smaller alpha" % (alpha, 30 * patience, MAX_SOLVE_STEPS)
        )
    limit = 2 * S.size + 30 * patience
    # Rounding level of the residual: each entry sums at most (row length
    # + 3) terms of size up to |b| + alpha S|x| + |x|, and the recurrence
    # carries each step's rounding on for about 1 / (1 - rate) steps.
    longest_row = np.max(np.diff(S.indptr), initial=0)
    slack = (longest_row + 3) * np.finfo(float).eps / (1.0 - rate)
    b_norm = _norm(b)
    tiny = np.finfo(float).tiny
    previous, current = np.zeros_like(b), b.copy()
    omega, best, since_best = 1.0, math.inf, 0
    for steps in range(1, limit + 1):
        step = apply(current)
        step *= alpha
        step += b
        residual = step - current
        norm = _norm(residual)
        if not norm < math.inf:
            raise NumericalError("closed-form solve produced non-finite values")
        best, since_best = (norm, 0) if norm < best else (best, since_best + 1)
        settled = norm <= target or (
            since_best >= patience
            and norm <= slack * (b_norm + (1.0 + alpha) * _norm(current))
        )
        if settled and np.all(
            np.abs(residual).reshape(classes, -1).max(axis=0)
            <= np.maximum(
                ROW_TOL * np.abs(current).reshape(classes, -1).max(axis=0), tiny
            )
        ):
            break
        if omega == 1.0:
            omega = 1.0 / (1.0 - alpha * alpha / 2.0)
        else:
            omega = 1.0 / (1.0 - omega * alpha * alpha / 4.0)
        # x_(k+1) = step + (1 - omega) (x_(k-1) - step), built in place of
        # x_(k-1).
        previous -= step
        previous *= 1.0 - omega
        previous += step
        previous, current = current, previous
    else:
        raise NumericalError("closed-form solve did not converge in %d steps" % limit)
    change = float(np.max(np.abs(residual), initial=0.0)) * (1.0 - alpha)
    current *= 1.0 - alpha
    # The exact solution is entrywise nonnegative; clip the rounding dust.
    result = _frozen(np.maximum(current.reshape(classes, -1).T, 0.0))
    return result, steps, change


def _norm(x):
    # einsum's own loop, not BLAS, so the value does not depend on the
    # thread count.
    return math.sqrt(np.einsum("i,i->", x, x))


def mix_final(propagated, low, eta):
    """Blend the diffusion output with the retained low-confidence rows.

    Returns eta * propagated + (1 - eta) * low with no renormalization.
    """
    if not (0.0 <= eta <= 1.0):
        raise DataError("eta must lie in [0, 1]")
    propagated, low = _scores(propagated), _scores(low)
    if propagated.shape != low.shape:
        raise DataError("shape mismatch: %s vs %s" % (propagated.shape, low.shape))
    return _frozen(eta * propagated + (1.0 - eta) * low)


def renormalized(scores):
    """Each row of ``scores`` divided by its sum; an all-zero row stays zero."""
    scores = _scores(scores)
    sums = scores.sum(axis=1, keepdims=True)
    return _frozen(np.divide(scores, sums, out=np.zeros_like(scores), where=sums > 0))


def confidences(scores):
    """Per-row maximum of the renormalized scores (0 for zero rows)."""
    return renormalized(scores).max(axis=1)


def _refuse(rows, message):
    """A DataError of ``message`` % the first row set in the mask ``rows``,
    if one is set."""
    if rows.any():
        raise DataError(message % np.argmax(rows))


def _initial_labels(n_rows, ground_truth, predictions, n_classes):
    """``run_pmlp``'s checked label inputs: the label matrix Y, as a
    read-only array, and the ground-truth vector as an integer array."""
    ground_truth = np.asarray(ground_truth)
    integers = np.issubdtype(ground_truth.dtype, np.integer)
    if ground_truth.shape != (n_rows,) or not integers:
        raise DataError("ground_truth must hold one integer class per feature row")
    _refuse(ground_truth < -1, "row %d: class below -1")
    labelled = ground_truth >= 0
    width = 0
    if predictions is not None:
        predictions = _float_array(predictions, "predictions")
        if predictions.ndim != 2 or predictions.shape[0] != n_rows:
            raise DataError("predictions must hold one row per feature row")
        width = predictions.shape[1]
        _refuse(~np.isfinite(predictions).all(1), "row %d: prediction is not finite")
        _refuse((predictions < 0).any(1), "row %d: prediction has a negative entry")
        sums = predictions.sum(axis=1)
        _refuse(
            (sums > 0) & (np.abs(sums - 1.0) > PREDICTION_SUM_TOL),
            "row %d: prediction neither is all zero nor sums to 1",
        )
        _refuse((sums > 0) & labelled, "row %d: a ground-truth row has a prediction")
    if n_classes is None:
        classes = max(int(ground_truth.max()) + 1, width)
    else:
        classes = int(n_classes)
    if classes < 1:
        raise DataError("could not infer a class count; pass n_classes")
    what = "%d rows x %d classes" % (n_rows, classes)
    _check_elements("n_classes", n_rows * classes, what)
    _refuse(ground_truth >= classes, "row %%d: class index outside [0, %d)" % classes)
    if predictions is None:
        predictions = np.zeros((n_rows, classes))
    elif width != classes:
        raise DataError("predictions are %d wide, expected %d classes" % (width, classes))
    rows = np.flatnonzero(labelled)
    predictions[rows, ground_truth[rows]] = 1.0
    return _frozen(predictions), ground_truth


def run_pmlp(
    features,
    ground_truth,
    cfg,
    predictions=None,
    n_classes=None,
    lists=None,
):
    """Run the whole pipeline over a feature matrix and its labels.

    ``features`` is any 2-d array of finite numbers, one row per sample
    (``core._features``). ``ground_truth`` is an (N,) integer vector: each
    labelled row's class, and -1 on every other row. ``predictions``, if
    given, is an (N, C) array of soft predictions: a row is all zero (no
    prediction), or finite, nonnegative and summing to 1 within
    ``PREDICTION_SUM_TOL``, and a labelled row has none. The class count C
    is ``n_classes`` when given, else the larger of
    ``ground_truth.max() + 1`` and the prediction width; every class must
    lie below it, the prediction width must equal it, and N x C must fit
    ``core.MAX_ELEMENTS``. The initial label matrix Y holds a one-hot row
    per labelled row and the predictions elsewhere. Requires at least one
    ground-truth row and at least two classes; every broken rule is a
    DataError. The propagation graph connects every row to its
    ``cfg.neighbor_count`` nearest neighbors.

    ``lists``, every row's nearest-row lists over these features as
    ``graph.neighbor_lists`` returns them, are built here with ``cfg`` when
    not given. The kNN edges take their first ``cfg.neighbor_count``
    columns, and in "pmlp" mode the path points' supports are proven from
    them where ``density``'s cost rule runs the list round
    (``density._rounds``): a round costs the columns it screens plus the
    candidates it ranks times (d + 4), and the list round runs where it
    costs less than the round after it. So the "pmlp"-mode lists of a
    config, k long for k neighbors, or max(k, ceil(4 n / 3) + 2) for n
    supports where that round runs, serve its "classical_lpa" run too,
    whose own lists are their first k columns. Lists change the time,
    never the result.

    Deterministic: equal inputs and configuration give equal outputs.
    """
    if not isinstance(cfg, PmlpConfig):
        raise DataError("cfg must be a PmlpConfig")
    features = _features(features)
    labels, ground_truth = _initial_labels(
        features.shape[0], ground_truth, predictions, n_classes
    )
    gt_mask = ground_truth >= 0
    if not gt_mask.any():
        raise DataError("at least one ground-truth row is required")
    if labels.shape[1] < 2:
        raise DataError("at least two classes are required")

    # Every ground-truth row is high-confidence, so high is never empty.
    high, low = split_by_confidence(labels, gt_mask, cfg.tau)

    # One nearest-row pass gives the kNN edges and the KDE supports' lists.
    if lists is None:
        lists = neighbor_lists(features, cfg)
    edges = knn_edges(features, cfg.neighbor_count, lists)
    # edges by keyword: perfbench/spans.py counts the graph's pairs from it.
    S = normalize_symmetric(build_affinity(features, edges=edges, cfg=cfg, lists=lists))
    propagated, iterations, residual = propagate_closed_form(S, high, cfg.alpha)

    if cfg.clamp_ground_truth:
        clamped = propagated.copy()
        rows = np.flatnonzero(gt_mask)
        clamped[rows] = 0.0
        clamped[rows, ground_truth[rows]] = 1.0
        propagated = _frozen(clamped)

    return PropagationResult(
        final_labels=mix_final(propagated, low, cfg.eta),
        iterations_used=iterations,
        residual=residual,
    )


def run_classical_lpa(features, ground_truth, cfg, **kwargs):
    """``run_pmlp`` with the density reweighting switched off."""
    return run_pmlp(features, ground_truth, replace(cfg, mode="classical_lpa"), **kwargs)


@dataclass(frozen=True)
class ThresholdSchedulerState:
    """State of the adaptive confidence-threshold schedule.

    ``tau`` only ever ratchets upward and never beyond ``tau_max``;
    ``high_count`` accumulates confident predictions across updates.
    """

    tau: float
    high_count: int = 0
    epoch: int = 0
    tau_max: float = 0.99

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise DataError("tau must lie in (0, 1]")
        if not (0.0 < self.tau_max <= 1.0):
            raise DataError("tau_max must lie in (0, 1]")
        if self.tau > self.tau_max:
            raise DataError("tau exceeds tau_max")
        if self.high_count < 0 or self.epoch < 0:
            raise DataError("counts must be nonnegative")


def threshold_increment(epoch):
    """Step size for the threshold schedule at a given training epoch.

    10^-(1 + ceil(epoch / 200)): 0.01 through epoch 200, 0.001 through
    epoch 400, and so on. Epoch 0 is treated like epoch 1.
    """
    epoch = max(int(epoch), 1)
    return 10.0 ** -(1 + -(-epoch // 200))


def update_threshold(state, predictions, epoch):
    """Advance the threshold schedule with a batch of predictions.

    Rows whose maximum reaches the current tau count as confident. Each
    time the cumulative confident count crosses a multiple of 50 the
    threshold gains one ``threshold_increment(epoch)``; the crossings in a
    single update are applied fused, as
    ``min(tau + crossings * increment, tau_max)``. The threshold never
    decreases and saturates at ``tau_max`` instead of erroring.
    """
    predictions = _scores(predictions)
    epoch = int(epoch)
    confident = int(np.sum(predictions.max(axis=1) >= state.tau))
    new_count = state.high_count + confident
    crossings = new_count // 50 - state.high_count // 50
    tau = state.tau
    if crossings:
        tau = min(tau + crossings * threshold_increment(epoch), state.tau_max)
    return ThresholdSchedulerState(
        tau=tau, high_count=new_count, epoch=epoch, tau_max=state.tau_max
    )
