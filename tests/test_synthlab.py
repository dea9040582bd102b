"""Synthetic generators and the statistical harnesses."""

import errno
import json
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from pmlp import cli, density, graph, synthlab
from pmlp.core import MODES, ConfigError, DataError, NumericalError, PmlpConfig
from pmlp.density import density_ratio
from pmlp.propagate import run_pmlp
from pmlp.synthlab import (
    compare_pmlp_vs_lpa,
    density_ratio_sweep,
    gen_gaussian_blobs,
    gen_two_moons,
    regenerate,
    separation_sweep,
)


class TestGaussianBlobs:
    def test_empty_class_rejected(self):
        with pytest.raises(DataError):
            gen_gaussian_blobs([[0.0], [1.0]], 1.0, per_class=0, labeled_per_class=0, seed=0)

    def test_labeled_count_bounded(self):
        with pytest.raises(DataError):
            gen_gaussian_blobs([[0.0]], 1.0, per_class=3, labeled_per_class=4, seed=0)

    def test_seeded_determinism(self):
        a = gen_gaussian_blobs([[0.0, 0.0], [5.0, 0.0]], 0.7, 20, 2, seed=123)
        b = gen_gaussian_blobs([[0.0, 0.0], [5.0, 0.0]], 0.7, 20, 2, seed=123)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labeled_mask, b.labeled_mask)

    def test_sample_means_near_true_means(self):
        per_class = 500
        sigma = 0.5
        dataset = gen_gaussian_blobs(
            [[0.0, 0.0], [10.0, 0.0]], sigma, per_class, 1, seed=99
        )
        bound = 3 * sigma / np.sqrt(per_class)
        first = dataset.features[:per_class].mean(axis=0)
        second = dataset.features[per_class:].mean(axis=0)
        assert np.all(np.abs(first - [0.0, 0.0]) < bound)
        assert np.all(np.abs(second - [10.0, 0.0]) < bound)

    def test_block_layout_and_labels(self):
        dataset = gen_gaussian_blobs([[0.0], [9.0]], 1.0, 4, 2, seed=1)
        assert dataset.true_class.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert dataset.labeled_mask.tolist() == [1, 1, 0, 0, 1, 1, 0, 0]

    def test_regeneration_is_bit_identical(self):
        dataset = gen_gaussian_blobs([[0.0, 1.0], [4.0, 4.0]], 1.2, 15, 3, seed=42)
        clone = regenerate(dataset.generator_spec)
        assert np.array_equal(dataset.features, clone.features)
        assert np.array_equal(dataset.true_class, clone.true_class)
        assert np.array_equal(dataset.labeled_mask, clone.labeled_mask)


class TestTwoMoons:
    def test_noiseless_points_on_unit_arcs(self):
        dataset = gen_two_moons(n=60, noise=0.0, labeled_per_class=1, seed=5)
        points = dataset.features
        upper = points[dataset.true_class == 0]
        lower = points[dataset.true_class == 1]
        np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(lower - [1.0, 0.5], axis=1), 1.0, atol=1e-12
        )
        assert np.all(upper[:, 1] >= -1e-12)
        assert np.all(lower[:, 1] <= 0.5 + 1e-12)

    def test_seeded_determinism(self):
        a = gen_two_moons(n=40, noise=0.1, labeled_per_class=2, seed=11)
        b = gen_two_moons(n=40, noise=0.1, labeled_per_class=2, seed=11)
        assert np.array_equal(a.features, b.features)

    def test_centroids_well_separated(self):
        dataset = gen_two_moons(n=1000, noise=0.1, labeled_per_class=2, seed=31)
        upper = dataset.features[dataset.true_class == 0].mean(axis=0)
        lower = dataset.features[dataset.true_class == 1].mean(axis=0)
        assert abs(upper[0] - lower[0]) > 0.4
        assert abs(upper[1] - lower[1]) > 0.4

    def test_regeneration_is_bit_identical(self):
        dataset = gen_two_moons(n=30, noise=0.05, labeled_per_class=3, seed=8)
        clone = regenerate(dataset.generator_spec)
        assert np.array_equal(dataset.features, clone.features)

    def test_tiny_n_rejected(self):
        with pytest.raises(DataError):
            gen_two_moons(n=1, noise=0.1, labeled_per_class=0, seed=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(DataError):
            gen_two_moons(n=10, noise=-0.1, labeled_per_class=1, seed=0)


class TestAssignments:
    def test_labeled_rows_become_ground_truth(self):
        dataset = gen_gaussian_blobs([[0.0], [5.0]], 1.0, 3, 1, seed=2)
        assert dataset.ground_truth.tolist() == [0, -1, -1, 1, -1, -1]


SWEEP_CFG = PmlpConfig(bandwidth_h=2.0, kde_support_n=45, seed=7)


class TestSeparationSweep:
    def test_coincident_clusters_are_a_negative_control(self):
        report = separation_sweep(
            [0.0], sigma=1.0, samples_per_cluster=100, pairs=40,
            tau_quantile=0.1, cfg=SWEEP_CFG,
        )[0]
        assert 0.0 <= report.fraction_paths_low_density <= 1.0
        assert 0.0 <= report.fraction_length_low_density <= 1.0
        # the threshold sits at the 10% quantile, so crossings stay rare
        assert report.fraction_paths_low_density < 0.95

    def test_report_fields_sane_at_moderate_separation(self):
        report = separation_sweep(
            [8.0], sigma=1.0, samples_per_cluster=100, pairs=40,
            tau_quantile=0.1, cfg=SWEEP_CFG,
        )[0]
        assert report.separation == 8.0
        assert report.tau_density > 0.0
        assert report.fraction_paths_low_density > 0.5

    def test_separations_must_ascend(self):
        with pytest.raises(DataError):
            separation_sweep(
                [4.0, 2.0], sigma=1.0, samples_per_cluster=50, pairs=10,
                tau_quantile=0.1, cfg=SWEEP_CFG,
            )

    def test_quantile_range_enforced(self):
        with pytest.raises(DataError):
            separation_sweep(
                [2.0], sigma=1.0, samples_per_cluster=50, pairs=10,
                tau_quantile=1.0, cfg=SWEEP_CFG,
            )


class TestDensityRatioSweep:
    def test_one_pair_sample_per_bandwidth_in_order(self, monkeypatch):
        calls = []

        def spy(features, pairs, cfg, lists):
            calls.append((features, pairs, cfg, lists))
            return density_ratio(features, pairs, cfg, lists)

        monkeypatch.setattr(synthlab, "density_ratio", spy)
        cfg = PmlpConfig(kde_support_n=20, seed=3)
        reports = density_ratio_sweep((50.0, 2.0, 9.0), 200, 5.0, 1.0, 20, cfg)
        assert [r.bandwidth_h for r in reports] == [50.0, 2.0, 9.0]
        features, pairs, _, lists = calls[0]
        # 200 pairs over 40 rows: two independent draws per pair would join
        # some row to itself with probability above 0.99.
        assert features.shape[0] == 40 and pairs.shape == (200, 2)
        assert np.all(pairs[:, 0] != pairs[:, 1])
        assert pairs.min() >= 0 and pairs.max() < 40
        # The first rows come from the documented seed, cfg.seed + 1.
        first = np.random.default_rng(cfg.seed + 1).integers(0, 40, 200)
        assert np.array_equal(pairs[:, 0], first)
        for report, (_, same_pairs, used, same_lists) in zip(reports, calls):
            assert used.bandwidth_h == report.bandwidth_h
            assert np.array_equal(same_pairs, pairs)
            # One list pass serves every bandwidth and changes no value.
            assert same_lists is lists
            assert report.density_ratio == density_ratio(features, pairs, used)


class TestCompare:
    def test_trivially_separable_blobs(self):
        dataset = gen_gaussian_blobs(
            [[0.0, 0.0], [20.0, 0.0]], sigma=1.0, per_class=100,
            labeled_per_class=1, seed=7,
        )
        cfg = PmlpConfig(bandwidth_h=2.0, kde_support_n=45, neighbor_count=8, seed=7)
        records = compare_pmlp_vs_lpa(dataset, cfg, trials=3)
        assert len(records) == 6
        assert all(r.accuracy >= 0.99 for r in records)

    def test_degenerate_bandwidth_equalizes_modes(self):
        dataset = gen_two_moons(n=80, noise=0.1, labeled_per_class=2, seed=7)
        cfg = PmlpConfig(
            bandwidth_h=1e12, kde_support_n=15, neighbor_count=5, seed=7
        )
        records = compare_pmlp_vs_lpa(dataset, cfg, trials=2)
        by_trial = {}
        for record in records:
            by_trial.setdefault(record.trial, {})[record.mode] = record
        for pair in by_trial.values():
            pm, classical = pair["pmlp"], pair["classical_lpa"]
            assert pm.accuracy == classical.accuracy
            assert pm.high_conf_ratio == classical.high_conf_ratio
            assert pm.correct_high_ratio == classical.correct_high_ratio

    def test_two_moons_non_inferiority(self):
        dataset = gen_two_moons(n=200, noise=0.1, labeled_per_class=2, seed=7)
        cfg = PmlpConfig(
            bandwidth_h=0.05, kde_support_n=15, neighbor_count=5, seed=7
        )
        records = compare_pmlp_vs_lpa(dataset, cfg, trials=20)
        acc = {
            mode: np.array([r.accuracy for r in records if r.mode == mode])
            for mode in ("pmlp", "classical_lpa")
        }
        assert acc["pmlp"].mean() >= acc["classical_lpa"].mean() - 0.01
        assert np.median(acc["pmlp"]) >= np.median(acc["classical_lpa"])

    def test_trial_seeds_advance_from_base(self):
        dataset = gen_gaussian_blobs(
            [[0.0, 0.0], [15.0, 0.0]], 1.0, per_class=40, labeled_per_class=1, seed=3
        )
        cfg = PmlpConfig(bandwidth_h=2.0, kde_support_n=20, neighbor_count=8, seed=3)
        records = compare_pmlp_vs_lpa(dataset, cfg, trials=3)
        assert sorted({r.seed for r in records}) == [3, 4, 5]

    def test_trials_must_be_positive(self):
        dataset = gen_gaussian_blobs([[0.0], [9.0]], 1.0, 5, 1, seed=0)
        with pytest.raises(DataError):
            compare_pmlp_vs_lpa(dataset, PmlpConfig(), trials=0)

    def test_a_200_row_trial_takes_the_list_round(self, monkeypatch):
        """compare_n200's trials: 200 two-moons rows, 15 supports and k =
        5. The cost rule runs the list round, which proves the path
        points' supports."""
        dataset = gen_two_moons(n=200, noise=0.1, labeled_per_class=2, seed=1000)
        cfg = PmlpConfig(bandwidth_h=0.05, kde_support_n=15, neighbor_count=5, seed=1000)
        tried, proven = [], []
        listed_rows = density._listed_rows

        def spy(*args):
            got = listed_rows(*args)
            tried.append(len(args[0]))
            proven.append(got[0].size)
            return got

        monkeypatch.setattr(density, "_listed_rows", spy)
        _workers(monkeypatch, 1)
        compare_pmlp_vs_lpa(dataset, cfg, trials=1)
        assert tried and sum(proven) >= 0.9 * sum(tried)

    def test_one_list_pass_serves_both_modes(self, monkeypatch):
        dataset = gen_two_moons(n=60, noise=0.1, labeled_per_class=2, seed=9)
        cfg = PmlpConfig(bandwidth_h=0.05, kde_support_n=15, neighbor_count=5, seed=9)
        passes = []
        row_lists = density._row_lists

        def spy(*args, **kwargs):
            passes.append(args[0].shape[0])
            return row_lists(*args, **kwargs)

        monkeypatch.setattr(density, "_row_lists", spy)
        monkeypatch.setattr(graph, "_row_lists", spy)
        _workers(monkeypatch, 1)
        records = [repr(r) for r in compare_pmlp_vs_lpa(dataset, cfg, trials=3)]
        assert passes == [60] * 3
        plain = []
        for t in range(3):
            sample = regenerate(dataset.generator_spec, seed=9 + t)
            for mode in MODES:
                result = run_pmlp(
                    sample.features,
                    sample.ground_truth,
                    replace(cfg, mode=mode),
                    n_classes=sample.n_classes,
                )
                metrics = synthlab._trial_metrics(result, sample, cfg.tau)
                plain.append(repr(synthlab.ComparisonTrial(t, 9 + t, mode, *metrics)))
        assert passes == [60] * 9  # each plain run makes its own pass
        assert records == plain

    def test_a_label_error_comes_before_a_neighbor_count_error(self, tmp_path):
        # No labelled row and more neighbors than rows: run_pmlp checks the
        # labels first, and the shared list pass keeps that order.
        out = tmp_path / "out"
        argv = ["harness", "compare", "--out-dir", str(out), "--n", "20",
                "--labeled-per-class", "0", "--neighbor-count", "50", "--trials", "2"]
        assert cli.main(argv) == 2
        error = json.loads((out / "report.json").read_text())["error"]
        assert error == {"code": "data", "message": "at least one ground-truth row is required"}


def _workers(monkeypatch, count):
    """Make ``compare_pmlp_vs_lpa`` run its trials in ``count`` processes."""
    monkeypatch.setattr(synthlab, "_worker_count", lambda trials: count)


def _exit_in_workers(monkeypatch):
    """Make every trial that starts in a forked process end that process
    at once, without an answer; the caller's trials run as before."""
    parent = os.getpid()
    real = synthlab._compare_trial

    def trial(spec, cfg, t):
        if os.getpid() != parent:
            os._exit(1)
        return real(spec, cfg, t)

    monkeypatch.setattr(synthlab, "_compare_trial", trial)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestCompareSlices:
    """The trials run by a pool of forked processes, and any the pool does
    not answer run by the caller, give what one serial loop gives."""

    dataset = gen_two_moons(n=40, noise=0.1, labeled_per_class=2, seed=5)
    cfg = PmlpConfig(bandwidth_h=0.05, kde_support_n=8, neighbor_count=4, seed=5)

    def records(self):
        # repr writes NaN as nan, so a NaN ratio compares equal.
        return [repr(r) for r in compare_pmlp_vs_lpa(self.dataset, self.cfg, 5)]

    def test_records_do_not_depend_on_the_worker_count(self, monkeypatch):
        _workers(monkeypatch, 1)
        serial = self.records()
        order = [(r.trial, r.mode) for r in compare_pmlp_vs_lpa(self.dataset, self.cfg, 5)]
        assert order == [(t, mode) for t in range(5) for mode in ("pmlp", "classical_lpa")]
        for count in (2, 3, 7):  # 7 workers for 5 trials leaves two idle
            _workers(monkeypatch, count)
            assert self.records() == serial
            _assert_no_child_left()

    def test_worker_count_follows_the_usable_cpus(self):
        cpus = len(os.sched_getaffinity(0))
        assert synthlab._worker_count(1) == 1
        assert synthlab._worker_count(100) == min(100, cpus)

    def test_no_fork_beside_another_thread(self, monkeypatch):
        serial = self.records()
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert synthlab._worker_count(100) == 1

            def no_fork():
                raise AssertionError("forked beside another thread")

            monkeypatch.setattr(os, "fork", no_fork)
            assert self.records() == serial
        finally:
            release.set()
            waiter.join()
        _assert_no_child_left()

    def failing_trial(self, monkeypatch, failures, log=None):
        """Make trial t, for t in ``failures``, sleep ``failures[t][0]``
        seconds and raise ``failures[t][1]``, or run as before if that is
        None. With ``log``, every call, in any process, appends its trial
        to that file."""
        real = synthlab._compare_trial

        def trial(spec, cfg, t):
            if log is not None:
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write("%d\n" % t)
            if t in failures:
                delay, error = failures[t]
                time.sleep(delay)
                if error is not None:
                    raise error
            return real(spec, cfg, t)

        monkeypatch.setattr(synthlab, "_compare_trial", trial)

    @pytest.mark.parametrize(
        "failures, message",
        [
            # Trial 0 fails at once; trials 1 and 3 are slow.
            ({0: (0.0, DataError("trial 0")), 1: (0.2, None), 3: (0.2, None)}, "trial 0"),
            # Trial 1 fails while trial 0 runs.
            ({0: (0.3, None), 1: (0.0, DataError("trial 1"))}, "trial 1"),
        ],
    )
    def test_a_failing_job_stops_early(self, monkeypatch, tmp_path, failures, message):
        log = tmp_path / "calls"
        self.failing_trial(monkeypatch, failures, log)
        _workers(monkeypatch, 2)
        with pytest.raises(DataError, match=message):
            compare_pmlp_vs_lpa(self.dataset, self.cfg, 20)
        _assert_no_child_left()
        # Only the trials in flight past the known failure run, not the
        # other seventeen.
        assert len(log.read_text().split()) <= 3

    def test_a_lost_slice_past_a_known_failure_is_not_rerun(self, monkeypatch, tmp_path):
        log = tmp_path / "calls"
        self.failing_trial(monkeypatch, {0: (0.0, DataError("trial 0"))}, log)
        _exit_in_workers(monkeypatch)
        _workers(monkeypatch, 3)
        with pytest.raises(DataError, match="trial 0"):
            compare_pmlp_vs_lpa(self.dataset, self.cfg, 20)
        _assert_no_child_left()
        assert log.read_text().split() == ["0"]

    @pytest.mark.parametrize(
        "failures",
        [
            # Trial 2 fails after trial 3.
            {2: (0.3, DataError("trial 2")), 3: (0.0, NumericalError("trial 3"))},
            # Trial 1 fails after trial 2, with an error of two constructor
            # arguments.
            {1: (0.3, ConfigError("seed", "trial 1")), 2: (0.0, DataError("trial 2"))},
        ],
    )
    def test_the_earliest_failing_trial_raises(self, monkeypatch, failures):
        self.failing_trial(monkeypatch, failures)
        outcomes = []
        for count in (1, 2):
            _workers(monkeypatch, count)
            with pytest.raises(Exception) as err:
                self.records()
            outcomes.append((type(err.value), str(err.value)))
            _assert_no_child_left()
        first = failures[min(failures)][1]
        assert outcomes == [(type(first), str(first))] * 2

    def test_a_numerical_failure_is_the_serial_one(self, monkeypatch):
        cfg = PmlpConfig(bandwidth_h=1e-300, kde_support_n=8, neighbor_count=4, seed=5)
        messages = []
        for count in (1, 2):
            _workers(monkeypatch, count)
            with pytest.raises(NumericalError) as err:
                compare_pmlp_vs_lpa(self.dataset, cfg, trials=4)
            messages.append(str(err.value))
            _assert_no_child_left()
        assert messages[0] == messages[1]

    def test_a_worker_that_sends_nothing_leaves_its_trials_to_the_caller(
        self, monkeypatch
    ):
        _workers(monkeypatch, 1)
        serial = self.records()
        _exit_in_workers(monkeypatch)
        _workers(monkeypatch, 3)
        assert self.records() == serial
        _assert_no_child_left()

    def test_a_worker_that_cannot_start_leaves_its_trials_to_the_caller(
        self, monkeypatch, tmp_path
    ):
        _workers(monkeypatch, 1)
        serial = self.records()
        job = ["harness", "compare", "--trials", "5", "--n", "40", "--seed", "5",
               "--kde-support-n", "8", "--neighbor-count", "4"]
        assert cli.main(job + ["--out-dir", str(tmp_path / "serial")]) == 0

        def no_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_fork)
        _workers(monkeypatch, 2)
        assert self.records() == serial
        # Not the "cannot write" data error that the CLI makes of an OSError.
        assert cli.main(job + ["--out-dir", str(tmp_path / "forkless")]) == 0
        for name in ("mode_comparison.csv", "report.json"):
            assert (tmp_path / "forkless" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes()
        _assert_no_child_left()

    def test_a_pool_whose_second_fork_fails_leaves_no_child(self, monkeypatch):
        _workers(monkeypatch, 1)
        serial = self.records()
        fork = os.fork
        forks = []

        def second_fork_fails():
            forks.append(len(forks))
            if len(forks) > 1:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        _workers(monkeypatch, 3)
        assert self.records() == serial
        assert forks == [0, 1]
        _assert_no_child_left()

    def test_a_pooled_job_leaves_no_thread(self, monkeypatch):
        worker_count = synthlab._worker_count
        _workers(monkeypatch, 2)
        self.records()
        assert threading.active_count() == 1
        # So a second job in this process forks again.
        assert worker_count(100) == min(100, len(os.sched_getaffinity(0)))
