"""Neighbor selection, affinity construction, and normalization."""

import warnings

import numpy as np
import pytest

from pmlp import density
from pmlp.core import (
    DISTANCE_MODES,
    AffinityMatrix,
    DataError,
    NumericalError,
    PmlpConfig,
)
from pmlp.graph import build_affinity, knn_edges, neighbor_lists, normalize_symmetric
from pmlp.propagate import run_pmlp
from pmlp.synthlab import gen_gaussian_blobs, gen_two_moons

from dense_oracle import affinity_from_dense, complete_edges, to_dense
from nearest_oracle import nearest_rows_oracle

CLASSICAL = PmlpConfig(mode="classical_lpa")


class TestKnnSelect:
    """Row i's neighbors are the rows of ``knn_edges`` whose source is i."""

    def test_nearest_two_on_a_line(self):
        fm = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
        edges = knn_edges(fm, 2)
        assert edges[edges[:, 0] == 0, 1].tolist() == [1, 2]
        assert edges[edges[:, 0] == 3, 1].tolist() == [2, 1]

    def test_all_other_rows(self):
        fm = np.array([[0.0], [3.0], [1.0], [7.0]])
        edges = knn_edges(fm, 3)
        assert edges[edges[:, 0] == 0, 1].tolist() == [2, 1, 3]  # ascending distance

    def test_center_never_included(self):
        fm = np.array([[0.0], [0.0], [1.0]])  # rows 0 and 1 coincide
        edges = knn_edges(fm, 2)
        assert edges.tolist() == [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]

    def test_tie_breaks_toward_lower_index(self):
        fm = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 0.0], [-2.0, 0.0]])
        edges = knn_edges(fm, 3)
        assert edges[edges[:, 0] == 0, 1].tolist() == [1, 2, 3]

    def test_count_must_leave_room(self):
        fm = np.array([[0.0], [1.0]])
        with pytest.raises(DataError):
            knn_edges(fm, 2)

    def test_edges_match_per_center_selection(self):
        rng = np.random.default_rng(3)
        fm = rng.normal(size=(12, 3))
        edges = knn_edges(fm, 4)
        expected, _ = nearest_rows_oracle(fm, fm, 4, np.arange(12))
        for center in range(12):
            got = edges[edges[:, 0] == center][:, 1].tolist()
            assert got == expected[center].tolist()


class TestNeighborLists:
    """One nearest-row pass serves the kNN edges and the path supports."""

    @pytest.mark.parametrize(
        "cfg, length",
        [
            (PmlpConfig(mode="classical_lpa", neighbor_count=5, kde_support_n=15), 5),
            pytest.param(
                PmlpConfig(neighbor_count=5, kde_support_n=15),
                density._list_length(15, 60),
                id="cfg1-32",  # the id of m = 2n + 2, kept
            ),
            (PmlpConfig(neighbor_count=40, kde_support_n=15), 40),
            (PmlpConfig(neighbor_count=5, kde_support_n=45), 59),  # N - 1
        ],
    )
    def test_length_and_order(self, cfg, length):
        fm = np.random.default_rng(4).normal(size=(60, 2))
        indices, dist2 = neighbor_lists(fm, cfg)
        want = nearest_rows_oracle(fm, fm, length, np.arange(60))
        assert np.array_equal(indices, want[0])
        assert np.array_equal(dist2, want[1])
        assert np.array_equal(
            knn_edges(fm, cfg.neighbor_count, (indices, dist2)),
            knn_edges(fm, cfg.neighbor_count),
        )

    def test_short_lists_rejected(self):
        fm = np.random.default_rng(5).normal(size=(10, 2))
        lists = neighbor_lists(fm, PmlpConfig(mode="classical_lpa", neighbor_count=3))
        with pytest.raises(DataError):
            knn_edges(fm, 4, lists)

    @pytest.mark.parametrize("aggregator", ["min", "avg"])
    def test_lists_change_no_affinity_byte(self, aggregator):
        features = gen_two_moons(n=400, noise=0.1, labeled_per_class=2, seed=3).features
        cfg = PmlpConfig(
            bandwidth_h=0.05, kde_support_n=15, neighbor_count=5,
            path_points_k=3, aggregator=aggregator,
        )
        lists = neighbor_lists(features, cfg)
        edges = knn_edges(features, cfg.neighbor_count, lists)
        shared = build_affinity(features, edges, cfg, lists)
        alone = build_affinity(features, edges, cfg)
        assert np.array_equal(shared.data, alone.data)
        assert np.array_equal(shared.indices, alone.indices)


class TestBuildAffinity:
    def test_three_collinear_points(self):
        spacing = 2.0
        fm = np.array([[0.0], [spacing], [2 * spacing]])
        W = to_dense(build_affinity(fm, complete_edges(3), CLASSICAL))
        np.testing.assert_allclose(W[0, 1], 1.0 / spacing)
        np.testing.assert_allclose(W[1, 2], 1.0 / spacing)
        np.testing.assert_allclose(W[0, 2], 1.0 / (2 * spacing))

    def test_diagonal_zero_entries_nonnegative(self):
        rng = np.random.default_rng(0)
        fm = rng.normal(size=(10, 2))
        cfg = PmlpConfig(kde_support_n=5, bandwidth_h=1.0)
        W = to_dense(build_affinity(fm, complete_edges(10), cfg))
        assert np.all(np.diagonal(W) == 0.0)
        assert W.min() >= 0.0

    def test_huge_bandwidth_matches_classical(self):
        dataset = gen_gaussian_blobs(
            [[0.0, 0.0], [5.0, 0.0]], 1.0, per_class=15, labeled_per_class=1, seed=8
        )
        edges = complete_edges(30)
        pm = build_affinity(
            dataset.features,
            edges,
            PmlpConfig(bandwidth_h=1e12, kde_support_n=10),
        )
        classical = build_affinity(dataset.features, edges, CLASSICAL)
        pm, classical = to_dense(pm), to_dense(classical)
        scale = np.max(np.abs(classical))
        assert np.max(np.abs(pm - classical)) / scale < 1e-6

    def test_single_direction_edge_gets_half_weight(self):
        fm = np.array([[0.0], [1.0], [3.0]])
        both = to_dense(build_affinity(fm, [(0, 1), (1, 0)], CLASSICAL))
        single = to_dense(build_affinity(fm, [(0, 1)], CLASSICAL))
        assert single[0, 1] == both[0, 1] / 2
        assert single[1, 0] == single[0, 1]
        assert both[0, 2] == 0.0

    def test_output_is_exactly_symmetric(self):
        rng = np.random.default_rng(4)
        fm = rng.normal(size=(15, 2))
        edges = knn_edges(fm, 3)
        W = to_dense(build_affinity(fm, edges, PmlpConfig(kde_support_n=5)))
        assert np.array_equal(W, W.T)

    def test_cosine_mode_clamps_negative_similarity(self):
        fm = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        W = to_dense(build_affinity(
            fm, complete_edges(3),
            PmlpConfig(mode="classical_lpa", distance_mode="cosine_similarity"),
        ))
        assert W[0, 1] == 0.0  # opposite vectors
        assert W[0, 2] == 0.0  # orthogonal

    def test_coincident_points_hit_distance_floor(self):
        fm = np.array([[1.0, 1.0], [1.0, 1.0]])
        W = to_dense(build_affinity(fm, complete_edges(2), CLASSICAL))
        assert W[0, 1] == 1e12  # 1 / EPS_DISTANCE

    @staticmethod
    def assert_two_pair_arrays(distance_mode):
        """At d=32 the gathered rows dominate: at most two (pairs x d) arrays.

        Gathering both rows and then their difference, product or squares
        would hold three or four. tracemalloc counts numpy's buffers; the
        inputs are allocated first.
        """
        import tracemalloc

        means = np.eye(32)[:2] * 3.0
        features = gen_gaussian_blobs(means, 1.0, 1000, 1, seed=5).features
        edges = knn_edges(features, 6)
        pairs = np.unique(np.sort(edges, axis=1), axis=0).shape[0]
        # Two pair arrays, plus 16 float64 per pair for the pair keys,
        # weights, values and the sparse matrix.
        bound = 8 * pairs * (2 * features.shape[1] + 16)
        cfg = PmlpConfig(mode="classical_lpa", distance_mode=distance_mode)
        tracemalloc.start()
        try:
            build_affinity(features, edges, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_euclidean_affinity_holds_two_pair_arrays(self):
        self.assert_two_pair_arrays("euclidean_inverse")

    @pytest.mark.parametrize("distance_mode", ["first_order_similarity", "cosine_similarity"])
    def test_similarity_affinity_holds_two_pair_arrays(self, distance_mode):
        self.assert_two_pair_arrays(distance_mode)


def normalized(matrix):
    return to_dense(normalize_symmetric(affinity_from_dense(matrix)))


class TestNormalizeSymmetric:
    def test_unit_degrees_unchanged(self):
        S = normalized([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(S, [[0.0, 1.0], [1.0, 0.0]])

    def test_uniform_scaling_cancels(self):
        S = normalized([[0.0, 2.0], [2.0, 0.0]])
        np.testing.assert_allclose(S, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_star_graph_by_hand(self):
        S = normalized([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        root2 = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(S[0, 1], root2, atol=1e-15)
        np.testing.assert_allclose(S[0, 2], root2, atol=1e-15)
        assert S[1, 2] == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        M = rng.random((8, 8))
        M = (M + M.T) / 2
        np.fill_diagonal(M, 0.0)
        base = normalized(M)
        for c in (1e-3, 1.0, 1e3):
            scaled = normalized(c * M)
            assert np.max(np.abs(scaled - base)) < 1e-12

    def test_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = rng.integers(3, 16)
            M = rng.random((n, n))
            M = (M + M.T) / 2
            np.fill_diagonal(M, 0.0)
            eigenvalues = np.linalg.eigvalsh(normalized(M))
            assert eigenvalues.min() >= -1.0 - 1e-12
            assert eigenvalues.max() <= 1.0 + 1e-12

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(10)
        M = rng.random((9, 9))
        M = (M + M.T) / 2
        np.fill_diagonal(M, 0.0)
        S = normalized(M)
        assert np.array_equal(S, S.T)

    def test_isolated_node_error_names_row(self):
        W = affinity_from_dense(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        with pytest.raises(NumericalError, match="row 2"):
            normalize_symmetric(W)

    def test_isolated_middle_row_is_named(self):
        W = affinity_from_dense(
            [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        )
        with pytest.raises(NumericalError, match="row 1"):
            normalize_symmetric(W)

    def test_zero_weight_row_is_isolated(self):
        # Row 2 stores its one edge, to row 0, with weight zero.
        W = AffinityMatrix(3, [0, 0], [1, 2], [1.0, 0.0])
        with pytest.raises(NumericalError, match="row 2"):
            normalize_symmetric(W)

    def test_zero_degree_error_tells_empty_rows_from_zero_weights(self):
        # Row 2 stores one edge, of weight 0; in the second matrix, none.
        W = AffinityMatrix(3, [0, 0], [1, 2], [1.0, 0.0])
        with pytest.raises(NumericalError, match="row 2 has zero degree: its 1 stored"):
            normalize_symmetric(W)
        W = AffinityMatrix(3, [0], [1], [1.0])
        with pytest.raises(NumericalError, match=r"row 2 has zero degree \(isolated"):
            normalize_symmetric(W)

    @pytest.mark.parametrize("mode", ["cosine_similarity", "first_order_similarity"])
    def test_similarities_clamped_at_zero_are_named(self, mode):
        # Each row's two nearest rows lie at right angles to it.
        fm = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        cfg = PmlpConfig(mode="classical_lpa", distance_mode=mode)
        W = build_affinity(fm, knn_edges(fm, 2), cfg)
        with pytest.raises(NumericalError, match="row 0 .* its 2 stored edges all weigh 0"):
            normalize_symmetric(W)

    @pytest.mark.parametrize("mode", ["pmlp", "classical_lpa"])
    @pytest.mark.parametrize("distance_mode", DISTANCE_MODES)
    def test_overflow_fails_alike_with_warnings_as_errors(self, mode, distance_mode):
        # The squared difference and the inner product of these rows overflow.
        # Whether RuntimeWarning is an error or not, the run ends in the
        # library's own error: no edge weight (or a NaN cosine) for row 0.
        features = np.array([[1e200, 0.0], [-1e200, 0.0]])
        labels = [0, 1]
        cfg = PmlpConfig(
            mode=mode, distance_mode=distance_mode, neighbor_count=1, kde_support_n=2
        )
        error, message = NumericalError, "row 0 has zero degree"
        if distance_mode == "cosine_similarity":
            error, message = DataError, (
                r"non-finite entries: the first is pair \(0, 1\), "
                "where an inner product or norm overflowed"
            )
        for action in ("ignore", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                with pytest.raises(error, match=message):
                    run_pmlp(features, labels, cfg)

    @pytest.mark.parametrize("distance_mode", ["cosine_similarity", "first_order_similarity"])
    def test_an_overflowed_similarity_names_its_pair(self, distance_mode):
        # Rows 1 and 3 are the first pair whose inner product overflows to
        # +inf: 1e200 * 1e200. Rows 0 and 2 are small.
        features = np.array([[1.0, 0.0], [1e200, 0.0], [1.0, 1.0], [1e200, 1.0]])
        cfg = PmlpConfig(mode="classical_lpa", distance_mode=distance_mode)
        with pytest.raises(DataError, match=r"the first is pair \(1, 3\), where an inner"):
            build_affinity(features, [(0, 2), (1, 3), (0, 1), (2, 3)], cfg)

    def test_keeps_the_sparsity_pattern(self):
        W = build_affinity(
            np.arange(12.0).reshape(6, 2),
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            CLASSICAL,
        )
        S = normalize_symmetric(W)
        np.testing.assert_array_equal(S.indptr, W.indptr)
        np.testing.assert_array_equal(S.indices, W.indices)


class TestOperator:
    def test_matches_dense_product_with_empty_rows(self):
        # np.add.reduceat alone would give an empty row the next row's first
        # product, and fail on an empty last row.
        rng = np.random.default_rng(11)
        M = rng.random((7, 7)) * (rng.random((7, 7)) < 0.4)
        M = M + M.T
        np.fill_diagonal(M, 0.0)
        M[[0, 3, 6], :] = 0.0  # empty first, middle and last rows
        M[:, [0, 3, 6]] = 0.0
        W = affinity_from_dense(M)
        x = rng.random((3, 7))
        product = W.operator(3)(x.ravel()).reshape(3, 7)
        np.testing.assert_allclose(product, x @ M, atol=1e-15)
        assert not product[:, [0, 3, 6]].any()

    def test_no_entries_gives_zero(self):
        W = affinity_from_dense(np.zeros((4, 4)))
        np.testing.assert_array_equal(W.operator(2)(np.ones(8)), np.zeros(8))
