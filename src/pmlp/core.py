"""Shared domain types and configuration.

Features and label scores are plain read-only float64 arrays: an (N, d)
feature matrix and (N, C) matrices of class scores. Each public function
that takes one checks it on entry, with ``_features`` or ``_scores``, which
copy it unless it already is such an array; the private stages behind them
take the checked array as it is. The propagation graph is a sparse
symmetric CSR matrix with about N * neighbor_count entries, so no stage
holds an N x N array. Every type here is immutable after construction and
every array read-only, so all are safe to share across concurrent workers;
all operations in this package are pure functions of their inputs. The file
loaders enforce a ceiling of 20,000 rows.
"""

import copy
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "AGGREGATORS",
    "AffinityMatrix",
    "CONFIG_CHOICES",
    "ConfigError",
    "DISTANCE_MODES",
    "DataError",
    "MAX_ELEMENTS",
    "MODES",
    "NumericalError",
    "PmlpConfig",
    "PmlpError",
    "default_neighbor_count",
    "validate_config",
]

DISTANCE_MODES = ("euclidean_inverse", "cosine_similarity", "first_order_similarity")
AGGREGATORS = ("min", "max", "avg", "quantile")
MODES = ("pmlp", "classical_lpa")
# The PmlpConfig fields that take one of a fixed set of strings.
CONFIG_CHOICES = {
    "aggregator": AGGREGATORS,
    "distance_mode": DISTANCE_MODES,
    "mode": MODES,
}

# A row of soft predictions (``propagate.run_pmlp``'s ``predictions``) is all
# zero or sums to one within this tolerance.
PREDICTION_SUM_TOL = 1e-9

# Most elements of an array that a caller's count sizes (path points,
# classes, generated rows, row pairs): 2^26, 512 MiB of float64. Checked
# before the array is made, so an oversized count is an error that names
# it, not a MemoryError or numpy's "array is too big".
MAX_ELEMENTS = 2**26


class PmlpError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PmlpError, ValueError):
    """A configuration field violates its documented range."""

    def __init__(self, field, message):
        # Both parts go into args, from which pickle rebuilds an exception.
        super().__init__(field, message)
        self.field = field

    def __str__(self):
        return "%s: %s" % self.args


class DataError(PmlpError, ValueError):
    """Malformed or degenerate input data."""


class NumericalError(PmlpError, ArithmeticError):
    """A numerical operation produced an unusable result."""


def _check_elements(name, elements, what):
    """Refuse, before it is made, an array of ``elements`` elements past
    ``MAX_ELEMENTS``: a DataError that names ``name``, the count that sizes
    it, and says ``what`` was asked for."""
    if elements > MAX_ELEMENTS:
        raise DataError("%s: %s exceed %d elements" % (name, what, MAX_ELEMENTS))


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def _float_array(values, what):
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError("%s must be a rectangular array of numbers" % what) from exc


def _read_only(values, what):
    """``values`` as a read-only float64 array: itself if it is one, else a
    copy, so a caller's later writes to its own array change nothing."""
    if not (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and not values.flags.writeable
    ):
        values = _frozen(_float_array(values, what))
    return values


def _features(values):
    """A feature matrix, one sample per row, as a read-only float64 array.

    The one check of features, run once at each public entry: 2-d, at
    least one row and one column, and every entry finite. A read-only
    float64 array passes through after the finite check; any other input
    is copied (``_read_only``).
    """
    data = _read_only(values, "feature matrix")
    if data.ndim != 2:
        raise DataError("feature matrix must be 2-dimensional")
    if data.shape[0] < 1 or data.shape[1] < 1:
        raise DataError("feature matrix needs at least one row and one column")
    if not np.all(np.isfinite(data)):
        raise DataError("feature matrix contains non-finite entries")
    return data


def _scores(values):
    """A soft label matrix, N rows of C nonnegative class scores, as a
    read-only float64 array (``_read_only``).

    A row is either all zero (masked out) or carries positive mass; rows
    need not sum to one mid-pipeline (``propagate.renormalized``).
    """
    data = _read_only(values, "soft label matrix")
    if data.ndim != 2:
        raise DataError("soft label matrix must be 2-dimensional")
    if not np.all(np.isfinite(data)):
        raise DataError("soft label matrix contains non-finite entries")
    if np.any(data < 0):
        raise DataError("soft label matrix contains negative entries")
    return data


class AffinityMatrix:
    """A symmetric nonnegative sparse matrix in CSR form, without self loops.

    ``AffinityMatrix(size, first, second, values)`` holds each value at
    (first, second) and at its mirror (second, first), so the matrix is
    symmetric by construction. The unordered pairs must be distinct and
    join two distinct rows of [0, size), and the values must be finite and
    nonnegative; a value may be zero, and a row may be empty.

    Row i stores the columns ``indices[indptr[i]:indptr[i + 1]]`` in
    strictly ascending order and their weights at the same positions of
    ``data``. Every array is read-only.
    """

    def __init__(self, size, first, second, values):
        first = np.asarray(first, dtype=np.intp)
        second = np.asarray(second, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if first.ndim != 1 or not first.shape == second.shape == values.shape:
            raise DataError("pairs and values must be 1-D arrays of one length")
        rows = np.concatenate([first, second])
        cols = np.concatenate([second, first])
        if rows.size and (rows.min() < 0 or rows.max() >= size):
            raise DataError("affinity matrix index out of range")
        if np.any(first == second):
            raise DataError("affinity matrix diagonal must be exactly zero")
        if not np.all(np.isfinite(values)):
            raise DataError("affinity matrix contains non-finite entries")
        if np.any(values < 0):
            raise DataError("affinity matrix contains negative entries")
        keys = rows * size + cols
        order = np.argsort(keys)
        if np.any(np.diff(keys[order]) == 0):
            raise DataError("affinity matrix pairs repeat")
        self._indptr = _frozen(
            np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=size))])
        )
        self._indices = _frozen(cols[order])
        self._data = _frozen(np.concatenate([values, values])[order])

    def scaled(self, factors):
        """D W D for D = diag(factors): entry (i, j) times factors[i] * factors[j].

        Entry (j, i) gets the same product, so the result keeps this
        matrix's symmetry and sparsity pattern. Factors must be
        nonnegative and the products finite. Where factors[i] * factors[j]
        overflows, as for the factors 1 / sqrt(degree) of subnormal
        weights, the entry is the weight times the smaller factor, then
        the larger: the same for (i, j) and (j, i), and finite whenever
        the scaled weight is.
        """
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (self.size,) or not np.all(factors >= 0.0):
            raise DataError("scaling factors must be %d nonnegative values" % self.size)
        row_factors = np.repeat(factors, np.diff(self._indptr))
        column_factors = factors[self._indices]
        with np.errstate(over="ignore", invalid="ignore"):
            data = row_factors * column_factors * self._data
            wide = np.flatnonzero(~np.isfinite(data))
            if wide.size:
                pair = np.sort([row_factors[wide], column_factors[wide]], axis=0)
                data[wide] = self._data[wide] * pair[0] * pair[1]
        if not np.all(np.isfinite(data)):
            raise DataError("affinity matrix contains non-finite entries")
        # The copy shares the pattern, checked and sorted on construction.
        matrix = copy.copy(self)
        matrix._data = _frozen(data)
        return matrix

    @property
    def indptr(self):
        return self._indptr

    @property
    def indices(self):
        return self._indices

    @property
    def data(self):
        return self._data

    @property
    def size(self):
        return self._indptr.size - 1

    def operator(self, classes):
        """The product x -> W x for ``classes`` vectors stored class-major.

        x and the result are flat arrays of classes * size values, class
        after class. The product is one gather of x at the column indices,
        one multiply by the weights and one ``np.add.reduceat`` over every
        class's row segments. Each row sums in ascending column order
        without BLAS, so the bytes of the product do not depend on the
        thread count.
        """
        n, nnz = self.size, self._data.size
        shift = np.arange(classes)[:, None]
        gather = (shift * n + self._indices).ravel()
        weights = np.tile(self._data, classes)
        # reduceat gives a row with no entries the next row's first value
        # (and fails on a last such row), so only nonempty rows are summed.
        filled = np.tile(np.diff(self._indptr) > 0, classes)
        starts = (shift * nnz + self._indptr[:-1]).ravel()[filled]

        def apply(x):
            out = np.zeros(classes * n)
            out[filled] = np.add.reduceat(x[gather] * weights, starts)
            return out

        return apply

    def __repr__(self):
        return "AffinityMatrix(size=%d, entries=%d)" % (self.size, self._data.size)


@dataclass(frozen=True)
class PmlpConfig:
    """Hyperparameters for density-aware label propagation.

    Construction validates every field and raises ConfigError naming the
    first offender. A float field takes any real number and an int field
    an integer (7.0 is not one); a bool counts as neither.

    alpha
        Diffusion weight of Y(i) = alpha * S * Y(i-1) + (1-alpha) * Y_high,
        strictly inside (0, 1) so the iteration contracts. The pipeline
        solves for its fixed point (1 - alpha) (I - alpha * S)^(-1) Y_high
        to a fixed error bound of 1e-12, or to the rounding level where
        rounding keeps the residual above that (alpha near 1, or large
        heavily labelled inputs); see
        ``pmlp.propagate.propagate_closed_form``. The solve's step count
        grows as 1 / sqrt(1 - alpha), about 45 steps at alpha = 0.8 and 800
        at 0.999 beyond the hops from the labels to the farthest row, and a
        solve whose thirty tenfold falls pass 100,000 steps (alpha within
        about 2.4e-7 of 1, whatever the row count) raises NumericalError
        before it starts.
    eta
        Mixing weight, in (0, 1], of the propagated labels against the
        retained low-confidence predictions. Only low-confidence rows carry
        those, so eta = 0 would zero every other row. Mixing over all rows
        would make eta = 0 pseudo-labeling, but would change every output
        for eta in (0, 1) and no longer match ``perfbench/oracle.py``.
    tau
        Confidence threshold separating high- from low-confidence rows.
    bandwidth_h
        Kernel bandwidth of the exponential-kernel density estimator;
        very large values collapse all density information to 1 and the
        pipeline degenerates to classical label propagation.
    path_points_k
        Number of interior equal-division points sampled on the segment
        between two features.
    kde_support_n
        Number of nearest support points used per density evaluation.
    neighbor_count
        Neighbors kept per node when the propagation graph is built; the
        conventional default is ceil(1.5 * n_classes).
    aggregator, quantile_t
        How the per-point path densities collapse to a single factor:
        "min", "max", "avg", or "quantile" (with parameter quantile_t).
    distance_mode
        Base affinity: "euclidean_inverse" inverts the Euclidean distance;
        the similarity modes use the (clamped) raw similarity.
    mode
        "pmlp" applies the density reweighting; "classical_lpa" skips it.
    clamp_ground_truth
        Reset ground-truth rows to their one-hot vectors after propagation.
    seed
        Seed for every randomized consumer (generators, harnesses).
    """

    alpha: float = 0.8
    eta: float = 0.2
    tau: float = 0.95
    bandwidth_h: float = 5.0
    path_points_k: int = 1
    kde_support_n: int = 45
    neighbor_count: int = 15
    aggregator: str = "avg"
    quantile_t: float = 0.5
    distance_mode: str = "euclidean_inverse"
    mode: str = "pmlp"
    clamp_ground_truth: bool = True
    seed: int = 0

    def __post_init__(self):
        validate_config(self)


def validate_config(cfg):
    """Check every PmlpConfig field, raising ConfigError naming the offender."""
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        choices = CONFIG_CHOICES.get(field.name)
        if choices is not None and value not in choices:
            raise ConfigError(field.name, "must be one of %s" % (choices,))
        if field.type not in (int, float):
            continue
        kind = numbers.Integral if field.type is int else numbers.Real
        # A bool is not a number here, though Python treats it as one.
        if isinstance(value, bool) or not isinstance(value, kind):
            words = "an integer" if field.type is int else "a number"
            raise ConfigError(field.name, "must be %s, not %r" % (words, value))
    if not (0.0 < cfg.alpha < 1.0):
        raise ConfigError("alpha", "must lie strictly inside (0, 1)")
    if not (0.0 < cfg.eta <= 1.0):
        raise ConfigError("eta", "must lie in (0, 1]")
    if not (0.0 < cfg.tau <= 1.0):
        raise ConfigError("tau", "must lie in (0, 1]")
    if not (cfg.bandwidth_h > 0.0):
        raise ConfigError("bandwidth_h", "must be positive")
    if cfg.path_points_k < 1:
        raise ConfigError("path_points_k", "must be an integer >= 1")
    if cfg.kde_support_n < 1:
        raise ConfigError("kde_support_n", "must be an integer >= 1")
    if cfg.neighbor_count < 1:
        raise ConfigError("neighbor_count", "must be an integer >= 1")
    if not (0.0 < cfg.quantile_t < 1.0):
        raise ConfigError("quantile_t", "must lie strictly inside (0, 1)")
    if not isinstance(cfg.clamp_ground_truth, bool):
        raise ConfigError("clamp_ground_truth", "must be a boolean")
    if cfg.seed < 0:
        raise ConfigError("seed", "must be a nonnegative integer")
    return cfg


def default_neighbor_count(n_classes):
    """Conventional neighbor count: 1.5 neighbors per class, rounded up."""
    if n_classes < 1:
        raise DataError("n_classes must be >= 1")
    return math.ceil(1.5 * n_classes)
