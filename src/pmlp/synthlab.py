"""Seeded synthetic datasets and the statistical verification harnesses.

Three checks live here besides the generators, one per ``pmlp harness``
job, each returning a list of report rows. The separation sweep grows
the distance between two Gaussian clusters and measures how often the
straight line between cross-cluster samples dips below a low-density
threshold; the fraction should rise toward one as the clusters separate,
and so should the fraction of the line spent below the threshold. The
density-ratio sweep takes the max/min path-density ratio of fixed row
pairs per bandwidth, which should fall toward one as the bandwidth grows.
The mode comparison runs the density-aware and classical pipelines over
freshly sampled datasets, in a pool of forked processes, one per CPU the
process may use, and reports pseudo-label quality side by side.

Every generator is a pure function of its parameters and seed, and every
dataset can be regenerated bit for bit from its ``generator_spec``.
"""

import os
import threading
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import MODES, DataError, FeatureMatrix, LabelAssignment
from .density import (
    _pair_point_densities,
    _row_lists,
    batch_normalized_density,
    density_ratio,
)
from .propagate import run_pmlp

__all__ = [
    "ComparisonTrial",
    "DensityRatioReport",
    "SeparationReport",
    "SyntheticDataset",
    "assignments_from_dataset",
    "compare_pmlp_vs_lpa",
    "density_ratio_sweep",
    "gen_gaussian_blobs",
    "gen_two_moons",
    "regenerate",
    "separation_sweep",
]


@dataclass(frozen=True)
class SyntheticDataset:
    """Features plus the generating truth.

    ``generator_spec`` is a plain dict of (kind, params, seed) from which
    ``regenerate`` rebuilds the dataset bit-identically.
    """

    features: FeatureMatrix
    true_class: np.ndarray
    labeled_mask: np.ndarray
    generator_spec: dict

    def __post_init__(self):
        self.true_class.setflags(write=False)
        self.labeled_mask.setflags(write=False)

    @property
    def n_classes(self):
        return int(self.true_class.max()) + 1


def gen_gaussian_blobs(means, sigma, per_class, labeled_per_class, seed):
    """Isotropic Gaussian clusters, one block of rows per class.

    Rows are grouped class by class; within a class, the first
    ``labeled_per_class`` rows of the seeded stream are the labeled ones.
    """
    means = np.asarray(means, dtype=float)
    if means.ndim != 2 or means.shape[0] < 1:
        raise DataError("means must be a nonempty 2-dimensional array")
    if not sigma > 0:
        raise DataError("sigma must be positive")
    per_class = int(per_class)
    labeled_per_class = int(labeled_per_class)
    if per_class < 1:
        raise DataError("per_class must be >= 1")
    if not 0 <= labeled_per_class <= per_class:
        raise DataError("labeled_per_class must lie in [0, per_class]")
    rng = np.random.default_rng(seed)
    blocks = []
    for mean in means:
        blocks.append(mean + sigma * rng.standard_normal((per_class, means.shape[1])))
    features = FeatureMatrix(np.vstack(blocks))
    true_class = np.repeat(np.arange(means.shape[0]), per_class)
    labeled_mask = np.zeros(features.n_rows, dtype=bool)
    for c in range(means.shape[0]):
        labeled_mask[c * per_class : c * per_class + labeled_per_class] = True
    spec = {
        "kind": "gaussian_blobs",
        "params": {
            "means": means.tolist(),
            "sigma": float(sigma),
            "per_class": per_class,
            "labeled_per_class": labeled_per_class,
        },
        "seed": int(seed),
    }
    return SyntheticDataset(features, true_class, labeled_mask, spec)


def gen_two_moons(n, noise, labeled_per_class, seed):
    """Two interleaving half circles of radius one plus Gaussian noise.

    The upper moon (class 0) is the arc of the unit circle around the
    origin over angles [0, pi); the lower moon (class 1) is its mirror
    shifted to center (1, 0.5). Angles are drawn uniformly, so the first
    ``labeled_per_class`` rows of each class block sit at seeded random
    positions along their arc.
    """
    n = int(n)
    if n < 2:
        raise DataError("n must be >= 2")
    if noise < 0:
        raise DataError("noise must be nonnegative")
    labeled_per_class = int(labeled_per_class)
    n_upper = n - n // 2
    n_lower = n // 2
    if not 0 <= labeled_per_class <= min(n_upper, n_lower):
        raise DataError("labeled_per_class exceeds a class size")
    rng = np.random.default_rng(seed)
    t_upper = rng.uniform(0.0, np.pi, n_upper)
    t_lower = rng.uniform(0.0, np.pi, n_lower)
    upper = np.column_stack([np.cos(t_upper), np.sin(t_upper)])
    lower = np.column_stack([1.0 - np.cos(t_lower), 0.5 - np.sin(t_lower)])
    points = np.vstack([upper, lower])
    if noise > 0:
        points = points + noise * rng.standard_normal(points.shape)
    features = FeatureMatrix(points)
    true_class = np.repeat([0, 1], [n_upper, n_lower])
    labeled_mask = np.zeros(n, dtype=bool)
    labeled_mask[:labeled_per_class] = True
    labeled_mask[n_upper : n_upper + labeled_per_class] = True
    spec = {
        "kind": "two_moons",
        "params": {
            "n": n,
            "noise": float(noise),
            "labeled_per_class": labeled_per_class,
        },
        "seed": int(seed),
    }
    return SyntheticDataset(features, true_class, labeled_mask, spec)


# Dataset kind -> its generator; ``pmlp generate --kind`` and ``pmlp harness
# compare --dataset`` take their kinds from here, with dashes.
_GENERATORS = {
    "two_moons": gen_two_moons,
    "gaussian_blobs": gen_gaussian_blobs,
}


def regenerate(spec, seed=None):
    """Rebuild a dataset from a ``generator_spec``, optionally reseeded."""
    kind = spec.get("kind")
    if kind not in _GENERATORS:
        raise DataError("unknown generator kind: %r" % (kind,))
    use_seed = spec["seed"] if seed is None else seed
    return _GENERATORS[kind](seed=use_seed, **spec["params"])


def assignments_from_dataset(dataset):
    """Ground-truth assignments on labeled rows, unlabeled everywhere else."""
    out = []
    for labeled, cls in zip(dataset.labeled_mask, dataset.true_class):
        if labeled:
            out.append(LabelAssignment.ground_truth(int(cls)))
        else:
            out.append(LabelAssignment.unlabeled())
    return out


@dataclass(frozen=True)
class SeparationReport:
    """One row of the separation sweep.

    fraction_paths_low_density
        Fraction of sampled cross-cluster segments containing at least one
        point whose density falls at or below the threshold.
    fraction_length_low_density
        Mean fraction of each segment's sampled points at or below the
        threshold.
    """

    separation: float
    tau_density: float
    fraction_paths_low_density: float
    fraction_length_low_density: float


def separation_sweep(
    separations,
    sigma,
    samples_per_cluster,
    pairs,
    tau_quantile,
    cfg,
    line_points=50,
):
    """Low-density crossing statistics for a family of cluster separations.

    For each separation, two isotropic Gaussian clusters are generated that
    far apart, the density threshold is set at the ``tau_quantile``
    quantile of the densities observed at the sample points themselves,
    and ``pairs`` random cross-cluster segments are scanned at
    ``line_points`` equally spaced interior points. Separations must be
    ascending so the reports read as a trend.
    """
    separations = [float(s) for s in separations]
    if len(separations) < 1:
        raise DataError("need at least one separation")
    if any(b < a for a, b in zip(separations, separations[1:])):
        raise DataError("separations must be ascending")
    if not (0.0 < tau_quantile < 1.0):
        raise DataError("tau_quantile must lie strictly inside (0, 1)")
    pairs = int(pairs)
    line_points = int(line_points)
    if pairs < 1 or line_points < 1:
        raise DataError("pairs and line_points must be >= 1")

    reports = []
    for index, delta in enumerate(separations):
        dataset = gen_gaussian_blobs(
            means=[[0.0, 0.0], [delta, 0.0]],
            sigma=sigma,
            per_class=samples_per_cluster,
            labeled_per_class=1,
            seed=cfg.seed + index,
        )
        features = dataset.features
        point_density = batch_normalized_density(
            features.data, features, cfg.kde_support_n, cfg.bandwidth_h
        )
        tau_density = float(np.quantile(point_density, tau_quantile))

        rng = np.random.default_rng(cfg.seed + 1000 + index)
        left = rng.integers(0, samples_per_cluster, pairs)
        right = samples_per_cluster + rng.integers(0, samples_per_cluster, pairs)
        density = _pair_point_densities(
            features,
            np.column_stack([left, right]),
            replace(cfg, path_points_k=line_points),
        )

        below = density <= tau_density
        reports.append(
            SeparationReport(
                separation=delta,
                tau_density=tau_density,
                fraction_paths_low_density=float(below.any(axis=1).mean()),
                fraction_length_low_density=float(below.mean(axis=1).mean()),
            )
        )
    return reports


@dataclass(frozen=True)
class DensityRatioReport:
    """One row of the density-ratio sweep: ``density.density_ratio`` of the
    sweep's pairs at kernel bandwidth ``bandwidth_h``."""

    bandwidth_h: float
    density_ratio: float


def density_ratio_sweep(bandwidths, pairs, separation, sigma, samples_per_cluster, cfg):
    """One report per bandwidth, in order, over one fixed sample of pairs.

    Two Gaussian blobs ``separation`` apart are drawn with seed cfg.seed,
    then ``pairs`` row pairs with seed cfg.seed + 1: a uniform first row
    and a second uniform over the other rows, so no pair is a self loop.
    The rows' nearest-row lists do not depend on the bandwidth, so one
    pass serves every bandwidth.
    """
    dataset = gen_gaussian_blobs(
        means=[[0.0, 0.0], [separation, 0.0]],
        sigma=sigma,
        per_class=samples_per_cluster,
        labeled_per_class=1,
        seed=cfg.seed,
    )
    rng = np.random.default_rng(cfg.seed + 1)
    features = dataset.features
    n = features.n_rows
    left = rng.integers(0, n, pairs)
    offset = 1 + rng.integers(0, n - 1, pairs)
    row_pairs = np.column_stack([left, (left + offset) % n])
    lists = _row_lists(features.data, support_n=cfg.kde_support_n)
    return [
        DensityRatioReport(
            bandwidth_h=float(h),
            density_ratio=density_ratio(
                features, row_pairs, replace(cfg, bandwidth_h=h), lists
            ),
        )
        for h in bandwidths
    ]


@dataclass(frozen=True)
class ComparisonTrial:
    """Pseudo-label quality of one pipeline mode on one sampled dataset.

    ``high_conf_ratio`` is the fraction of all rows whose renormalized
    final scores reach tau; ``correct_high_ratio`` is the argmax accuracy
    restricted to the confident unlabeled rows (NaN when there are none).
    """

    trial: int
    seed: int
    mode: str
    accuracy: float
    high_conf_ratio: float
    correct_high_ratio: float


def _trial_metrics(result, dataset, tau):
    unlabeled = ~dataset.labeled_mask
    predicted = result.final_labels.data.argmax(axis=1)
    accuracy = float(np.mean(predicted[unlabeled] == dataset.true_class[unlabeled]))
    confident = result.final_labels.confidences() >= tau
    high_ratio = float(confident.mean())
    picked = confident & unlabeled
    if picked.any():
        correct_high = float(
            np.mean(predicted[picked] == dataset.true_class[picked])
        )
    else:
        correct_high = float("nan")
    return accuracy, high_ratio, correct_high


def _worker_count(trials):
    """How many processes ``compare_pmlp_vs_lpa`` runs ``trials`` in.

    One per CPU this process may use, at most one per trial; 1 where
    ``os.sched_getaffinity`` or the fork start method is missing, in a
    daemonic ``multiprocessing`` worker, which may not start processes, or
    while another Python thread runs: a fork copies only the calling
    thread, so a lock that another thread holds would stay held in the
    child for good.
    """
    import multiprocessing

    if (
        not hasattr(os, "sched_getaffinity")
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        return 1
    return max(1, min(trials, len(os.sched_getaffinity(0))))


def _compare_trial(spec, cfg, t):
    """The two ComparisonTrial records of trial t, one per mode in MODES order."""
    seed = spec["seed"] + t
    sample = regenerate(spec, seed=seed)
    assignments = assignments_from_dataset(sample)
    records = []
    for mode in MODES:
        result = run_pmlp(
            sample.features,
            assignments,
            replace(cfg, mode=mode),
            n_classes=sample.n_classes,
        )
        accuracy, high_ratio, correct_high = _trial_metrics(result, sample, cfg.tau)
        records.append(
            ComparisonTrial(
                trial=t,
                seed=seed,
                mode=mode,
                accuracy=accuracy,
                high_conf_ratio=high_ratio,
                correct_high_ratio=correct_high,
            )
        )
    return records


def _run_trial(spec, cfg, t):
    """``_compare_trial(spec, cfg, t)`` for the process pool: the name is
    looked up when the trial runs, so a worker forked while
    ``_compare_trial`` is replaced runs the replacement."""
    return _compare_trial(spec, cfg, t)


def _pooled(run, trials, workers):
    """Outcomes of ``run(t)`` for trials t in ``range(trials)``, run by a
    pool of ``workers`` forked processes: {t: records, or the exception
    trial t raised}.

    At most ``workers + 1`` trials are in flight, and no trial past the
    earliest failure known is started, so past a failing trial only those
    started before its failure arrived run. A trial is missing when the
    pool cannot start, or breaks because a worker dies or an answer cannot
    be read. The pool forks all its workers at the first submit, before it
    starts a thread of its own, so no fork copies a held lock of the pool.
    Every process it forked is joined before this returns; a pool whose
    later fork failed leaves its first workers waiting for work that never
    comes, so those are terminated.
    """
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    fork = multiprocessing.get_context("fork")
    outcomes = {}
    before = multiprocessing.active_children()
    try:
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            running = {}  # future -> trial
            stop = trials  # the earliest failing trial known
            t = 0
            while running or t < stop:
                while t < stop and len(running) <= workers:
                    running[pool.submit(run, t)] = t
                    t += 1
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    trial = running.pop(future)
                    try:
                        outcomes[trial] = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as error:
                        outcomes[trial] = error
                        stop = min(stop, trial)
    except (OSError, BrokenProcessPool):
        for process in multiprocessing.active_children():
            if process not in before:
                process.terminate()
                process.join()
    return outcomes


def compare_pmlp_vs_lpa(dataset, cfg, trials):
    """Density-aware vs classical propagation over freshly seeded trials.

    Trial t regenerates the dataset from its ``generator_spec`` with seed
    ``seed + t`` and runs both modes on identical inputs; the returned
    list holds two ComparisonTrial records per trial, in trial order.

    With W = ``_worker_count`` above 1, a pool of W processes forked for
    this call runs the trials (``_pooled``) while the caller waits; with
    W = 1 no process is made. The caller then walks the trials in order,
    running itself each trial the pool did not answer, and raises the
    first exception it meets: that of the earliest failing trial, as one
    serial loop would. Every trial is a pure function of the spec, the
    config and t, so the records, and so the bytes a job writes, are the
    same for any W. The pool starts no trial past the earliest failure it
    knows of, so a failing job stops soon after its first failure. When
    the pool cannot start or breaks, the caller runs every trial it did
    not answer, up to the first failure. Every forked process is joined
    before this returns or raises.
    """
    trials = int(trials)
    if trials < 1:
        raise DataError("trials must be >= 1")
    spec = dataset.generator_spec
    workers = _worker_count(trials)
    run = partial(_run_trial, spec, cfg)
    outcomes = _pooled(run, trials, workers) if workers > 1 else {}
    records = []
    for t in range(trials):
        outcome = outcomes[t] if t in outcomes else _compare_trial(spec, cfg, t)
        if isinstance(outcome, Exception):
            raise outcome
        records.extend(outcome)
    return records
