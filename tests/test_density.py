"""Path sampling, KDE, aggregators, and the density-ratio diagnostic.

The KDE checks compare against a deliberately naive double-loop evaluator
written here, independent of the library's vectorized path; support
selection is checked against the direct rule in ``nearest_oracle``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pmlp import density as density_module
from pmlp.core import DataError, NumericalError, PmlpConfig
from pmlp.density import (
    batch_normalized_density,
    batch_path_density_info,
    density_ratio,
)
from pmlp.synthlab import gen_gaussian_blobs

from nearest_oracle import nearest_rows_oracle
from test_nearest import collected


def brute_force_kde(query, supports, h):
    """Independent double-loop evaluation of the raw KDE formula."""
    total = 0.0
    for support in supports:
        squared = 0.0
        for s, q in zip(support, query):
            squared += (s - q) ** 2
        total += math.exp(-squared / h)
    return total / (len(supports) * h)


def brute_force_path_info(features, i, j, k, n, h, aggregator="avg", t=0.5):
    """Independent composition: interior points, nearest supports, mean kernel."""
    x_i, x_j = features[i], features[j]
    values = []
    for l in range(1, k + 1):
        point = [a + (l / (k + 1)) * (b - a) for a, b in zip(x_i, x_j)]
        ranked = sorted(
            range(len(features)),
            key=lambda r: (sum((f - p) ** 2 for f, p in zip(features[r], point)), r),
        )[:n]
        kernel = [
            math.exp(-sum((f - p) ** 2 for f, p in zip(features[r], point)) / h)
            for r in ranked
        ]
        values.append(sum(kernel) / n)
    if aggregator == "avg":
        return sum(values) / len(values)
    if aggregator == "min":
        return min(values)
    if aggregator == "max":
        return max(values)
    # quantile t, interpolating linearly between order statistics
    values = sorted(values)
    position = t * (len(values) - 1)
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (position - low) * (values[high] - values[low])


def path_points(features, pair, cfg):
    """The query points ``batch_path_density_info`` gives the KDE for one pair."""
    seen = []
    real = density_module._kernel_means

    def spy(queries, *args):
        seen.append(np.array(queries))
        return real(queries, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density_module, "_kernel_means", spy)
        batch_path_density_info(features, [pair], cfg)
    return seen[0]


PAIR_ROWS = np.array([[0.0], [1.0]])


def aggregated(values, aggregator, quantile_t=0.5):
    """The factor of one pair whose path points have the given densities."""
    values = np.asarray(values, dtype=float)
    cfg = PmlpConfig(
        path_points_k=len(values),
        kde_support_n=1,
        aggregator=aggregator,
        quantile_t=quantile_t,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density_module, "_kernel_means", lambda *a: values)
        return float(batch_path_density_info(PAIR_ROWS, [(0, 1)], cfg)[0])


class TestSamplePath:
    def test_three_interior_points(self):
        fm = np.array([[0.0, 0.0], [4.0, 0.0]])
        points = path_points(fm, (0, 1), PmlpConfig(path_points_k=3, kde_support_n=1))
        np.testing.assert_array_equal(points, [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])

    def test_single_point_is_midpoint(self):
        fm = np.array([[0.0, 0.0], [2.0, 2.0]])
        points = path_points(fm, (0, 1), PmlpConfig(path_points_k=1, kde_support_n=1))
        np.testing.assert_array_equal(points, [[1.0, 1.0]])

    def test_two_point_fractions(self):
        fm = np.array([[1.0, 1.0], [1.0, 5.0]])
        points = path_points(fm, (0, 1), PmlpConfig(path_points_k=2, kde_support_n=1))
        np.testing.assert_allclose(
            points, [[1.0, 7.0 / 3.0], [1.0, 11.0 / 3.0]], atol=1e-12
        )

    def test_zero_length_path_rejected(self):
        fm = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DataError):
            batch_path_density_info(fm, [(1, 1)], PmlpConfig(kde_support_n=1))

    def test_points_lie_on_segment(self):
        rng = np.random.default_rng(11)
        fm = rng.normal(size=(6, 4))
        for k in (1, 2, 5):
            # a reversed pair is sampled from its lower row
            cfg = PmlpConfig(path_points_k=k, kde_support_n=1)
            points = path_points(fm, (3, 0), cfg)
            x_i, x_j = fm[0], fm[3]
            assert len(points) == k
            for l, point in enumerate(points, start=1):
                expected = x_i + (l / (k + 1)) * (x_j - x_i)
                np.testing.assert_allclose(point, expected, atol=1e-9)


class TestKdeDensity:
    """``batch_normalized_density`` over every support is h times the KDE."""

    def test_single_coincident_support(self):
        assert batch_normalized_density([(0.0, 0.0)], [(0.0, 0.0)], 1, 1.0)[0] == 1.0

    def test_two_supports_hand_value(self):
        # (1/(2*2)) * (exp(-1/2) + exp(-1/2)) = exp(-0.5) / 2
        value = batch_normalized_density([(0.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)], 2, 2.0)
        assert value[0] / 2.0 == pytest.approx(0.5 * math.exp(-0.5), abs=1e-12)

    def test_large_bandwidth_limits(self):
        h = 1e12
        normalized = batch_normalized_density([(0.0, 0.0)], [(1.0, 0.0)], 1, h)[0]
        assert normalized / h == pytest.approx(1.0 / h, rel=1e-6)
        assert normalized == pytest.approx(1.0, abs=1e-6)

    def test_normalized_hand_value(self):
        value = batch_normalized_density([(0.0, 0.0)], [(1.0, 0.0), (0.0, 1.0)], 2, 2.0)
        assert value[0] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_normalized_is_exactly_one_on_coincident_supports(self):
        for h in (0.01, 1.0, 37.5):
            assert batch_normalized_density([(2.0, 3.0)], [(2.0, 3.0)], 1, h)[0] == 1.0

    def test_empty_supports_rejected(self):
        with pytest.raises(DataError):
            batch_normalized_density([(0.0,)], np.zeros((0, 1)), 1, 1.0)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(DataError):
            batch_normalized_density([(0.0,)], [(1.0,)], 1, 0.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            dim = rng.integers(1, 6)
            count = rng.integers(1, 20)
            query = rng.normal(size=dim) * 3
            supports = rng.normal(size=(count, dim)) * 3
            h = float(10 ** rng.uniform(-1, 2))
            got = batch_normalized_density(query[None], supports, count, h)[0] / h
            want = brute_force_kde(query, supports, h)
            assert got == pytest.approx(want, abs=1e-12)

    def test_normalized_is_h_times_raw(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            query = rng.normal(size=3)
            supports = rng.normal(size=(7, 3))
            h = float(10 ** rng.uniform(-1, 2))
            raw = brute_force_kde(query, supports, h)
            normalized = batch_normalized_density(query[None], supports, 7, h)[0]
            assert normalized == pytest.approx(h * raw, rel=1e-12)
            assert 0.0 < normalized <= 1.0

    def test_normalized_monotone_in_bandwidth(self):
        rng = np.random.default_rng(6)
        query = rng.normal(size=(1, 4))
        supports = rng.normal(size=(10, 4))
        values = [
            batch_normalized_density(query, supports, 10, h)[0]
            for h in (0.1, 0.5, 1.0, 5.0, 50.0, 1e6)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestSelectSupports:
    def test_nearest_two(self):
        fm = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        got = batch_normalized_density([(0.4, 0.0)], fm, 2, 1.0)[0]
        want = brute_force_kde((0.4, 0.0), [[0.0, 0.0], [1.0, 0.0]], 1.0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_n_equal_rows_returns_everything(self):
        fm = np.array([[0.0], [1.0], [2.0]])
        got = batch_normalized_density([(1.6,)], fm, 3, 1.0)[0]
        assert got == pytest.approx(brute_force_kde((1.6,), fm, 1.0), abs=1e-12)

    def test_tie_broken_by_row_index(self):
        # rows 2 and 7 are equidistant from the query; row 2 wins the last slot
        rows = np.full((8, 2), 50.0)
        rows[2] = (1.0, 0.0)
        rows[7] = (-1.0, 0.0)
        supports, _ = collected(np.zeros((1, 2)), rows, 1)
        assert supports.tolist() == [[2]]

    def test_too_many_supports_rejected(self):
        fm = np.array([[0.0], [1.0]])
        with pytest.raises(DataError):
            batch_normalized_density([(0.0,)], fm, 3, 1.0)

    @pytest.mark.parametrize(
        "ends, lists",
        [
            ([0, 1], None),  # one row of two ends per path, not a flat list
            ([[0, 1, 2]], None),  # three ends for one path
            ([[0, 3]], None),  # past the last feature row
            ([[-1, 0]], None),
            ([[0, 1]], (np.zeros((2, 1), dtype=np.intp), np.zeros((2, 1)))),
            ([[0, 1]], (np.zeros((3, 0), dtype=np.intp), np.zeros((3, 0)))),
        ],
    )
    def test_malformed_ends_or_lists_rejected(self, ends, lists):
        # A path point's ends are its pair's rows, which prove its supports
        # from their lists: both are checked where they enter the density.
        fm = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(DataError):
            batch_path_density_info(fm, ends, PmlpConfig(kde_support_n=2), lists)


class TestAggregate:
    def test_avg(self):
        assert aggregated([1.0, 2.0, 3.0], "avg") == 2.0

    def test_median_quantile(self):
        assert aggregated([1.0, 2.0, 3.0], "quantile", 0.5) == 2.0

    def test_min_max(self):
        assert aggregated([4.0, 1.0, 9.0, 16.0], "min") == 1.0
        assert aggregated([4.0, 1.0, 9.0, 16.0], "max") == 16.0

    def test_empty_rejected(self):
        no_pairs = np.zeros((0, 2), dtype=int)
        with pytest.raises(DataError):
            batch_path_density_info(PAIR_ROWS, no_pairs, PmlpConfig(kde_support_n=1))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_quantile_between_min_and_max(self, values, t):
        low = aggregated(values, "min")
        mid = aggregated(values, "quantile", t)
        high = aggregated(values, "max")
        assert low <= mid <= high


class TestPathDensityInfo:
    def test_huge_bandwidth_gives_one(self):
        dataset = gen_gaussian_blobs(
            [[0.0, 0.0], [6.0, 0.0]], 1.0, per_class=20, labeled_per_class=1, seed=2
        )
        cfg = PmlpConfig(bandwidth_h=1e12, kde_support_n=10, path_points_k=3)
        value = batch_path_density_info(dataset.features, [(0, 25)], cfg)[0]
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_within_blob_beats_cross_blob(self):
        dataset = gen_gaussian_blobs(
            [[0.0, 0.0], [10.0, 0.0]], 1.0, per_class=40, labeled_per_class=1, seed=9
        )
        cfg = PmlpConfig(bandwidth_h=2.0, kde_support_n=15, path_points_k=1)
        pairs = [(0, 1), (0, 40)]
        within, cross = batch_path_density_info(dataset.features, pairs, cfg)
        assert within > cross
        # agree with the independent composition
        raw = dataset.features.tolist()
        assert within == pytest.approx(
            brute_force_path_info(raw, 0, 1, 1, 15, 2.0), abs=1e-12
        )
        assert cross == pytest.approx(
            brute_force_path_info(raw, 0, 40, 1, 15, 2.0), abs=1e-12
        )

    def test_exactly_symmetric(self):
        dataset = gen_gaussian_blobs(
            [[0.0, 0.0], [4.0, 1.0]], 1.0, per_class=15, labeled_per_class=1, seed=3
        )
        cfg = PmlpConfig(bandwidth_h=1.5, kde_support_n=8, path_points_k=4)
        pairs = np.array([(0, 5), (3, 20), (14, 29)])
        forward = batch_path_density_info(dataset.features, pairs, cfg)
        backward = batch_path_density_info(dataset.features, pairs[:, ::-1], cfg)
        assert np.array_equal(forward, backward)

    # Translating the rows, or rotating them by an orthogonal matrix, keeps
    # every distance, so each factor of fixed pairs is kept up to rounding.
    # With coordinates within 5, shifts within 50 and h >= 1, rounding moves
    # a path point's squared distance to a row by under 1e-11, so a kernel
    # value by under 1e-11 relative, and a support that swaps with a
    # near-tied row as little. The bound: 1e-9 relative. No kernel
    # underflows: squared distances stay below 300.
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.tuples(
                arrays(float, st.tuples(st.integers(4, 12), st.just(dim)),
                       elements=st.floats(-5, 5)),
                arrays(float, dim, elements=st.floats(-50, 50)),
            )
        ),
        st.integers(0, 2**32 - 1),
        st.floats(1.0, 100.0),
        st.integers(1, 4),
        st.sampled_from(["min", "max", "avg", "quantile"]),
    )
    def test_translation_and_rotation_keep_the_factors(
        self, drawn, seed, h, k, aggregator
    ):
        data, shift = drawn
        rows, dim = data.shape
        rotation = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))[0]
        cfg = PmlpConfig(
            bandwidth_h=h, kde_support_n=4, path_points_k=k, aggregator=aggregator
        )
        pairs = np.column_stack([np.arange(rows - 1), np.arange(1, rows)])
        factors = batch_path_density_info(data, pairs, cfg)
        for moved in (data + shift, data @ rotation):
            np.testing.assert_allclose(
                batch_path_density_info(moved, pairs, cfg), factors, rtol=1e-9, atol=0
            )

    def test_batch_matches_scalar_composition(self):
        rng = np.random.default_rng(17)
        fm = rng.normal(size=(30, 3))
        raw = fm.tolist()
        for aggregator in ("min", "max", "avg", "quantile"):
            cfg = PmlpConfig(
                bandwidth_h=0.8,
                kde_support_n=6,
                path_points_k=3,
                aggregator=aggregator,
                quantile_t=0.25,
            )
            pairs = [(0, 4), (7, 2), (11, 28)]
            batch = batch_path_density_info(fm, pairs, cfg)
            for (i, j), got in zip(pairs, batch):
                want = brute_force_path_info(
                    raw, min(i, j), max(i, j), 3, 6, 0.8, aggregator, 0.25
                )
                assert got == pytest.approx(want, abs=1e-12)

    def test_batch_normalized_density_matches_scalar(self):
        rng = np.random.default_rng(23)
        fm = rng.normal(size=(25, 2))
        queries = rng.normal(size=(40, 2))
        batch = batch_normalized_density(queries, fm, 7, 1.3)
        supports, _ = nearest_rows_oracle(queries, fm, 7)
        for q, rows, got in zip(queries, supports, batch):
            want = 1.3 * brute_force_kde(q, fm[rows], 1.3)
            assert got == pytest.approx(want, abs=1e-12)


class TestDensityRatio:
    def test_coincident_supports_give_unit_ratio(self):
        fm = np.zeros((6, 2))
        cfg = PmlpConfig(bandwidth_h=1.0, kde_support_n=6, path_points_k=2)
        assert density_ratio(fm, [(0, 1), (2, 5)], cfg) == 1.0

    def test_huge_bandwidth_ratio_near_one(self):
        dataset = gen_gaussian_blobs(
            [[0.0, 0.0], [8.0, 0.0]], 1.0, per_class=30, labeled_per_class=1, seed=4
        )
        cfg = PmlpConfig(bandwidth_h=1e12, kde_support_n=20, path_points_k=2)
        pairs = [(0, 31), (5, 40), (12, 59), (3, 8)]
        ratio = density_ratio(dataset.features, pairs, cfg)
        assert 1.0 <= ratio < 1.0 + 1e-3

    def test_small_bandwidth_ratio_exceeds_large(self):
        dataset = gen_gaussian_blobs(
            [[0.0, 0.0], [8.0, 0.0]], 1.0, per_class=30, labeled_per_class=1, seed=4
        )
        pairs = [(0, 31), (5, 40), (12, 59), (3, 8), (45, 50)]
        small = density_ratio(
            dataset.features, pairs, PmlpConfig(bandwidth_h=5.0, kde_support_n=20)
        )
        large = density_ratio(
            dataset.features, pairs, PmlpConfig(bandwidth_h=100.0, kde_support_n=20)
        )
        assert small > large

        # cross-check the small-bandwidth ratio against the naive composition
        raw = dataset.features.tolist()
        values = []
        for i, j in pairs:
            lo, hi = min(i, j), max(i, j)
            values.append(brute_force_path_info(raw, lo, hi, 1, 20, 5.0))
        assert small == pytest.approx(max(values) / min(values), rel=1e-12)

    def test_reversed_and_repeated_pairs_evaluated_once(self, monkeypatch):
        dataset = gen_gaussian_blobs(
            [[0.0, 0.0], [8.0, 0.0]], 1.0, per_class=30, labeled_per_class=1, seed=4
        )
        cfg = PmlpConfig(bandwidth_h=5.0, kde_support_n=20, path_points_k=3)
        pairs = [(0, 31), (5, 40), (12, 59)]
        base = density_ratio(dataset.features, pairs, cfg)

        queried = []
        real = density_module._kernel_means

        def spy(queries, *args):
            queried.append(len(queries))
            return real(queries, *args)

        monkeypatch.setattr(density_module, "_kernel_means", spy)
        noisy = [(31, 0), (5, 40), (40, 5), (12, 59), (0, 31), (59, 12)]
        assert density_ratio(dataset.features, noisy, cfg) == base
        assert queried == [len(pairs) * cfg.path_points_k]

    def test_underflowed_density_rejected(self):
        fm = np.array([[0.0, 0.0], [1e4, 0.0]])
        cfg = PmlpConfig(bandwidth_h=0.001, kde_support_n=1, path_points_k=1)
        with pytest.raises(NumericalError):
            density_ratio(fm, [(0, 1)], cfg)

    def test_empty_pairs_rejected(self):
        fm = np.array([[0.0], [1.0]])
        with pytest.raises(DataError):
            density_ratio(fm, np.zeros((0, 2), dtype=int), PmlpConfig())
