"""Synthetic generators and the statistical harnesses."""

import numpy as np
import pytest

from pmlp import synthlab
from pmlp.core import DataError, PmlpConfig
from pmlp.density import density_ratio
from pmlp.synthlab import (
    assignments_from_dataset,
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
        assert np.array_equal(a.features.data, b.features.data)
        assert np.array_equal(a.labeled_mask, b.labeled_mask)

    def test_sample_means_near_true_means(self):
        per_class = 500
        sigma = 0.5
        dataset = gen_gaussian_blobs(
            [[0.0, 0.0], [10.0, 0.0]], sigma, per_class, 1, seed=99
        )
        bound = 3 * sigma / np.sqrt(per_class)
        first = dataset.features.data[:per_class].mean(axis=0)
        second = dataset.features.data[per_class:].mean(axis=0)
        assert np.all(np.abs(first - [0.0, 0.0]) < bound)
        assert np.all(np.abs(second - [10.0, 0.0]) < bound)

    def test_block_layout_and_labels(self):
        dataset = gen_gaussian_blobs([[0.0], [9.0]], 1.0, 4, 2, seed=1)
        assert dataset.true_class.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert dataset.labeled_mask.tolist() == [1, 1, 0, 0, 1, 1, 0, 0]

    def test_regeneration_is_bit_identical(self):
        dataset = gen_gaussian_blobs([[0.0, 1.0], [4.0, 4.0]], 1.2, 15, 3, seed=42)
        clone = regenerate(dataset.generator_spec)
        assert np.array_equal(dataset.features.data, clone.features.data)
        assert np.array_equal(dataset.true_class, clone.true_class)
        assert np.array_equal(dataset.labeled_mask, clone.labeled_mask)


class TestTwoMoons:
    def test_noiseless_points_on_unit_arcs(self):
        dataset = gen_two_moons(n=60, noise=0.0, labeled_per_class=1, seed=5)
        points = dataset.features.data
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
        assert np.array_equal(a.features.data, b.features.data)

    def test_centroids_well_separated(self):
        dataset = gen_two_moons(n=1000, noise=0.1, labeled_per_class=2, seed=31)
        upper = dataset.features.data[dataset.true_class == 0].mean(axis=0)
        lower = dataset.features.data[dataset.true_class == 1].mean(axis=0)
        assert abs(upper[0] - lower[0]) > 0.4
        assert abs(upper[1] - lower[1]) > 0.4

    def test_regeneration_is_bit_identical(self):
        dataset = gen_two_moons(n=30, noise=0.05, labeled_per_class=3, seed=8)
        clone = regenerate(dataset.generator_spec)
        assert np.array_equal(dataset.features.data, clone.features.data)

    def test_tiny_n_rejected(self):
        with pytest.raises(DataError):
            gen_two_moons(n=1, noise=0.1, labeled_per_class=0, seed=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(DataError):
            gen_two_moons(n=10, noise=-0.1, labeled_per_class=1, seed=0)


class TestAssignments:
    def test_labeled_rows_become_ground_truth(self):
        dataset = gen_gaussian_blobs([[0.0], [5.0]], 1.0, 3, 1, seed=2)
        assignments = assignments_from_dataset(dataset)
        kinds = [a.kind for a in assignments]
        assert kinds[0] == "ground_truth"
        assert kinds[1] == "unlabeled"
        assert assignments[3].class_index == 1


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
        assert features.n_rows == 40 and pairs.shape == (200, 2)
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
