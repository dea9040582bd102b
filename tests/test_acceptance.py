"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints ``ACCEPTANCE <n> (<name>): PASS|FAIL`` (visible with
``pytest -s``). The statistical criteria 5-7 run the shipped ``pmlp
harness`` jobs with no flags and check the rows of their ``report.json``,
so a green suite also vouches for the CLI's out-of-the-box behavior.
Criterion 10 (the worked unit examples) lives in the per-module test
files; its test here checks that they are all present.
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np

from pmlp.cli import main
from pmlp.core import (
    AffinityMatrix,
    PmlpConfig,
    default_neighbor_count,
)
from pmlp.density import batch_normalized_density
from pmlp.graph import build_affinity, knn_edges, normalize_symmetric
from pmlp.propagate import (
    ThresholdSchedulerState,
    propagate_closed_form,
    run_classical_lpa,
    run_pmlp,
    split_by_confidence,
    threshold_increment,
    update_threshold,
)
from pmlp.synthlab import gen_gaussian_blobs

from dense_oracle import affinity_from_dense, upper_pairs
from iterative_oracle import propagate_iterative


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d (%s): FAIL" % (number, name))
        raise
    print("ACCEPTANCE %d (%s): PASS" % (number, name))


def random_blob_instance(i, rng):
    classes = (2, 3, 5)[i % 3]
    per_class = int(rng.integers(15, 200 // classes + 1))
    means = rng.normal(0.0, 8.0, size=(classes, 2))
    return gen_gaussian_blobs(
        means, sigma=1.0, per_class=per_class, labeled_per_class=2,
        seed=int(rng.integers(0, 10_000)),
    )


def test_criterion_1_infinite_bandwidth_degeneration():
    with criterion(1, "infinite-bandwidth degeneration"):
        started = time.monotonic()
        rng = np.random.default_rng(20240)
        for i in range(20):
            dataset = random_blob_instance(i, rng)
            assert dataset.features.shape[0] <= 200
            cfg = PmlpConfig(
                bandwidth_h=1e12,
                kde_support_n=min(20, dataset.features.shape[0]),
                neighbor_count=default_neighbor_count(dataset.n_classes),
                seed=7,
            )
            pm = run_pmlp(dataset.features, dataset.ground_truth, cfg)
            classical = run_classical_lpa(dataset.features, dataset.ground_truth, cfg)
            diff = np.max(
                np.abs(pm.final_labels - classical.final_labels)
            )
            assert diff < 1e-6
            assert np.array_equal(
                pm.final_labels.argmax(axis=1),
                classical.final_labels.argmax(axis=1),
            )
        assert time.monotonic() - started < 10.0


def test_criterion_2_affinity_scale_invariance():
    with criterion(2, "affinity scale invariance"):
        dataset = gen_gaussian_blobs(
            [[0.0, 0.0], [6.0, 0.0]], 1.0, per_class=40, labeled_per_class=2, seed=7
        )
        cfg = PmlpConfig(bandwidth_h=2.0, kde_support_n=20, neighbor_count=5, seed=7)
        edges = knn_edges(dataset.features, cfg.neighbor_count)
        W = build_affinity(dataset.features, edges, cfg)
        S = normalize_symmetric(W)
        labels = np.eye(2)[dataset.true_class] * dataset.labeled_mask[:, None]
        high, _ = split_by_confidence(labels, dataset.labeled_mask, cfg.tau)
        base, _, _ = propagate_closed_form(S, high, cfg.alpha)
        first, second, values = upper_pairs(W)
        for c in (1e-3, 1.0, 1e3):
            scaled_W = AffinityMatrix(W.size, first, second, c * values)
            assert np.array_equal(scaled_W.data, c * W.data)
            scaled_S = normalize_symmetric(scaled_W)
            assert np.array_equal(scaled_S.indices, S.indices)
            assert np.max(np.abs(scaled_S.data - S.data)) < 1e-12
            scaled, _, _ = propagate_closed_form(scaled_S, high, cfg.alpha)
            assert np.max(np.abs(scaled - base)) < 1e-9


def test_criterion_3_solver_cross_check():
    with criterion(3, "iterative vs closed-form solvers"):
        rng = np.random.default_rng(30303)
        for trial in range(50):
            alpha = (0.1, 0.5, 0.8)[trial % 3]
            n = int(rng.integers(3, 51))
            W = rng.random((n, n))
            W = (W + W.T) / 2
            np.fill_diagonal(W, 0.0)
            S = normalize_symmetric(affinity_from_dense(W))
            mask = rng.random(n) < 0.4
            mask[0] = True
            Y = rng.random((n, 3)) * mask[:, None]
            iterated, _, residual = propagate_iterative(
                S, Y, alpha, max_iters=200000, tol=1e-12
            )
            assert residual < 1e-12
            fixed, _, _ = propagate_closed_form(S, Y, alpha)
            diff = np.max(np.abs(iterated - fixed))
            assert diff < 1e-8


def test_criterion_4_kde_oracle_equivalence():
    with criterion(4, "KDE oracle equivalence"):
        rng = np.random.default_rng(40404)
        for _ in range(1000):
            dim = int(rng.integers(1, 6))
            count = int(rng.integers(1, 25))
            query = rng.normal(size=dim) * 3
            supports = rng.normal(size=(count, dim)) * 3
            h = float(10 ** rng.uniform(-1, 2))
            # independent double-loop evaluation of the same formula
            total = 0.0
            for support in supports:
                squared = 0.0
                for s, q in zip(support, query):
                    squared += (s - q) ** 2
                total += math.exp(-squared / h)
            expected = total / (count * h)
            got = batch_normalized_density(query[None], supports, count, h)[0] / h
            assert abs(got - expected) <= 1e-12


def harness_rows(kind, out_dir):
    """The report rows of ``pmlp harness <kind>`` run with its shipped
    defaults, and the header of its plot CSV."""
    assert main(["harness", kind, "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    (plot,) = [name for name in os.listdir(out_dir) if name.endswith(".csv")]
    return report["rows"], (out_dir / plot).read_text().splitlines()[0]


def test_criterion_5_low_density_crossing_direction(tmp_path):
    with criterion(5, "low-density crossing grows with separation"):
        started = time.monotonic()
        rows, header = harness_rows("theorem1", tmp_path)
        assert header.startswith("separation,tau_density,")
        assert [r["separation"] for r in rows] == [2.0, 4.0, 8.0, 16.0]
        crossing = [r["fraction_paths_low_density"] for r in rows]
        length = [r["fraction_length_low_density"] for r in rows]
        assert all(a <= b for a, b in zip(crossing, crossing[1:]))
        assert crossing[-1] >= 0.95
        assert all(a <= b for a, b in zip(length, length[1:]))
        assert length[-1] >= 0.5
        assert time.monotonic() - started < 60.0


def test_criterion_6_density_ratio_trend(tmp_path):
    with criterion(6, "density ratio shrinks with bandwidth"):
        rows, header = harness_rows("density-ratio", tmp_path)
        assert header == "bandwidth_h,density_ratio"
        assert [r["bandwidth_h"] for r in rows] == [5.0, 100.0, 1e12]
        ratios = [r["density_ratio"] for r in rows]
        assert ratios[0] > ratios[1] > ratios[2]
        assert 1.0 <= ratios[2] <= 1.001


def test_criterion_7_pseudo_label_quality_direction(tmp_path):
    with criterion(7, "density-aware pseudo-label quality"):
        started = time.monotonic()
        rows, _ = harness_rows("compare", tmp_path)
        accuracy = {
            mode: np.array([r["accuracy"] for r in rows if r["mode"] == mode])
            for mode in ("pmlp", "classical_lpa")
        }
        # A NaN ratio (no confident unlabeled row) is written as null, which
        # reads back as NaN here.
        correct_high = {
            mode: np.array(
                [r["correct_high_ratio"] for r in rows if r["mode"] == mode],
                dtype=float,
            )
            for mode in ("pmlp", "classical_lpa")
        }
        assert accuracy["pmlp"].mean() >= accuracy["classical_lpa"].mean() - 0.01
        assert not np.isnan(correct_high["pmlp"]).any()
        assert not np.isnan(correct_high["classical_lpa"]).any()
        wins = int(
            (correct_high["pmlp"] >= correct_high["classical_lpa"]).sum()
        )
        assert wins >= 12
        assert time.monotonic() - started < 120.0


def test_criterion_8_adaptive_threshold_contract():
    with criterion(8, "adaptive threshold schedule"):
        rng = np.random.default_rng(80808)
        for stream in range(5):
            state = ThresholdSchedulerState(tau=float(rng.uniform(0.6, 0.95)))
            for step in range(150):
                epoch = 1 + step * int(rng.integers(1, 10))
                rows = int(rng.integers(1, 60))
                raw = rng.random((rows, 4))
                predictions = raw / raw.sum(axis=1, keepdims=True)
                before = state
                state = update_threshold(state, predictions, epoch)
                confident = int(
                    np.sum(predictions.max(axis=1) >= before.tau)
                )
                crossings = (
                    (before.high_count + confident) // 50 - before.high_count // 50
                )
                if crossings:
                    expected = min(
                        before.tau + crossings * threshold_increment(epoch),
                        before.tau_max,
                    )
                else:
                    expected = before.tau
                assert state.tau == expected  # documented schedule, exactly
                assert state.tau >= before.tau  # monotone
                assert state.tau <= state.tau_max  # capped


def test_criterion_9_job_determinism(tmp_path):
    with criterion(9, "byte-identical job reruns"):
        data = tmp_path / "blobs.csv"
        truth = tmp_path / "truth.csv"
        assert main(
            ["generate", "--kind", "gaussian-blobs", "--means", "0,0;9,0",
             "--sigma", "0.8", "--per-class", "40", "--labeled-per-class", "2",
             "--seed", "7", "--out", str(data), "--truth-out", str(truth)]
        ) == 0
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(
                ["label", "--input", str(data), "--truth", str(truth),
                 "--out-dir", str(out), "--seed", "7"]
            ) == 0
            outputs.append(out)
        first, second = outputs
        assert (first / "pseudo_labels.csv").read_bytes() == (
            second / "pseudo_labels.csv"
        ).read_bytes()
        assert (first / "metrics.json").read_bytes() == (
            second / "metrics.json"
        ).read_bytes()
        m1 = json.loads((first / "manifest.json").read_text())
        m2 = json.loads((second / "manifest.json").read_text())
        m1.pop("timestamp"), m2.pop("timestamp")
        assert m1 == m2


def test_criterion_10_worked_examples_present():
    with criterion(10, "worked unit examples encoded"):
        here = os.path.dirname(__file__)
        for module in (
            "test_core.py",
            "test_density.py",
            "test_graph.py",
            "test_propagate.py",
            "test_synthlab.py",
            "test_cli.py",
        ):
            assert os.path.exists(os.path.join(here, module))
