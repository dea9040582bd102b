"""Domain types, distance measures, and configuration validation."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlp.core import (
    ConfigError,
    DataError,
    NumericalError,
    PmlpError,
    FeatureMatrix,
    LabelAssignment,
    AffinityMatrix,
    PmlpConfig,
    SoftLabelMatrix,
    default_neighbor_count,
    soft_labels_from_assignments,
    validate_config,
)
from pmlp.density import batch_normalized_density
from pmlp.graph import EPS_DISTANCE, _base_affinity

from dense_oracle import affinity_from_dense, to_dense

MODES = ("euclidean_inverse", "cosine_similarity", "first_order_similarity")

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
vectors = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.tuples(
        st.lists(finite_floats, min_size=d, max_size=d),
        st.lists(finite_floats, min_size=d, max_size=d),
    )
)


def base_affinity(a, b, mode="euclidean_inverse"):
    """The graph's base affinity between two vectors."""
    return float(_base_affinity(np.array([a, b], float), [0], [1], mode)[0])


class TestDistance:
    def test_three_four_five_triangle(self):
        assert base_affinity((0.0, 0.0), (3.0, 4.0)) == 1.0 / 5.0

    def test_identical_points(self):
        assert base_affinity((1.0, 2.0), (1.0, 2.0)) == 1.0 / EPS_DISTANCE

    def test_orthogonal_cosine(self):
        assert base_affinity((1.0, 0.0), (0.0, 1.0), "cosine_similarity") == 0.0

    def test_first_order_is_inner_product(self):
        value = base_affinity((1.0, 2.0), (3.0, 4.0), "first_order_similarity")
        assert value == 11.0

    def test_dimension_mismatch(self):
        # Base affinities pair rows of one FeatureMatrix; the one place two
        # vectors of separate origin meet is a KDE query and its supports.
        with pytest.raises(DataError):
            batch_normalized_density([(1.0, 2.0)], [(1.0, 2.0, 3.0)], 1, 1.0)

    def test_zero_norm_cosine(self):
        with pytest.raises(DataError):
            base_affinity((0.0, 0.0), (1.0, 0.0), "cosine_similarity")

    def test_unknown_mode(self):
        with pytest.raises(DataError):
            base_affinity((1.0,), (2.0,), "manhattan")

    @settings(max_examples=100, deadline=None)
    @given(vectors)
    def test_exactly_symmetric_in_all_modes(self, pair):
        a, b = pair
        for mode in MODES:
            if mode == "cosine_similarity" and (
                np.sum(np.square(a)) == 0.0 or np.sum(np.square(b)) == 0.0
            ):
                continue  # norm underflow is a defined error, tested elsewhere
            assert base_affinity(a, b, mode) == base_affinity(b, a, mode)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            d = rng.integers(1, 8)
            a, b, c = rng.normal(size=(3, d)) * 10
            # euclidean_inverse inverts a metric
            ab, bc, ac = (1 / base_affinity(*pair) for pair in ((a, b), (b, c), (a, c)))
            assert ac <= ab + bc + 1e-9


class TestErrors:
    def test_every_error_survives_pickling(self):
        # A harness worker process sends its error to the caller by pickle.
        errors = [
            PmlpError("base"),
            ConfigError("alpha", "must lie in (0, 1)"),
            DataError("row 3: bad"),
            NumericalError("row 0 has zero degree"),
        ]
        assert {type(e) for e in errors} == {PmlpError, *all_subclasses(PmlpError)}
        for error in errors:
            copy = pickle.loads(pickle.dumps(error))
            assert type(copy) is type(error)
            assert str(copy) == str(error)
            assert getattr(copy, "field", None) == getattr(error, "field", None)
        assert str(errors[1]) == "alpha: must lie in (0, 1)"


def all_subclasses(cls):
    return {sub for direct in cls.__subclasses__() for sub in {direct, *all_subclasses(direct)}}


class TestConfig:
    def test_reference_values_accepted(self):
        cfg = PmlpConfig(alpha=0.8, eta=0.2, tau=0.95, bandwidth_h=5.0)
        assert validate_config(cfg) is cfg

    def test_alpha_one_diverges(self):
        with pytest.raises(ConfigError) as err:
            PmlpConfig(alpha=1.0)
        assert err.value.field == "alpha"

    def test_zero_bandwidth(self):
        with pytest.raises(ConfigError) as err:
            PmlpConfig(bandwidth_h=0.0)
        assert err.value.field == "bandwidth_h"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", 0.0),
            ("alpha", -0.1),
            ("eta", 0.0),
            ("eta", 1.5),
            ("tau", 0.0),
            ("tau", 1.2),
            ("bandwidth_h", -1.0),
            ("path_points_k", 0),
            ("kde_support_n", 0),
            ("neighbor_count", 0),
            ("aggregator", "median"),
            ("quantile_t", 1.0),
            ("distance_mode", "euclidean"),
            ("mode", "hybrid"),
            ("seed", -1),
            ("alpha", "0.5"),
            ("tau", None),
            ("neighbor_count", True),
            ("path_points_k", 1.5),
            ("seed", float("inf")),
        ],
    )
    def test_each_field_raises_named_error(self, field, value):
        with pytest.raises(ConfigError) as err:
            PmlpConfig(**{field: value})
        assert err.value.field == field

    def test_boundaries_accepted(self):
        PmlpConfig(eta=1.0)
        PmlpConfig(tau=1.0)

    def test_default_neighbor_count_ten_classes(self):
        assert default_neighbor_count(10) == 15

    def test_default_neighbor_count_rounds_up(self):
        assert default_neighbor_count(3) == 5
        assert default_neighbor_count(2) == 3


class TestFeatureMatrix:
    def test_rejects_nan(self):
        with pytest.raises(DataError):
            FeatureMatrix([[0.0, np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.zeros((0, 3)))

    def test_shape_and_immutability(self):
        fm = FeatureMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert (fm.n_rows, fm.dim) == (2, 2)
        with pytest.raises(ValueError):
            fm.data[0, 0] = 9.0

    def test_copy_on_construction(self):
        raw = np.ones((2, 2))
        fm = FeatureMatrix(raw)
        raw[0, 0] = 5.0
        assert fm.data[0, 0] == 1.0


class TestLabelAssignment:
    def test_prediction_must_sum_to_one(self):
        LabelAssignment.prediction([0.7, 0.3])
        with pytest.raises(DataError):
            LabelAssignment.prediction([0.7, 0.2])

    def test_prediction_rejects_negative(self):
        with pytest.raises(DataError):
            LabelAssignment.prediction([1.2, -0.2])

    def test_ground_truth_rejects_negative_index(self):
        with pytest.raises(DataError):
            LabelAssignment.ground_truth(-2)


class TestSoftLabelMatrix:
    def test_rejects_negative(self):
        with pytest.raises(DataError):
            SoftLabelMatrix([[0.5, -0.1]])

    def test_renormalized_keeps_zero_rows(self):
        m = SoftLabelMatrix([[2.0, 2.0], [0.0, 0.0]])
        out = m.renormalized().data
        assert out[0].tolist() == [0.5, 0.5]
        assert out[1].tolist() == [0.0, 0.0]

    def test_confidences(self):
        m = SoftLabelMatrix([[3.0, 1.0], [0.0, 0.0]])
        assert m.confidences().tolist() == [0.75, 0.0]


class TestAffinityMatrix:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DataError):
            affinity_from_dense([[1e-15, 1.0], [1.0, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            affinity_from_dense([[0.0, -1.0], [-1.0, 0.0]])

    def test_from_pairs_mirrors_and_checks(self):
        W = AffinityMatrix(3, [0, 2], [1, 1], [2.0, 0.5])
        np.testing.assert_array_equal(
            to_dense(W), [[0.0, 2.0, 0.0], [2.0, 0.0, 0.5], [0.0, 0.5, 0.0]]
        )
        for first, second, values in (
            ([0, 1], [1, 0], [1.0, 1.0]),  # the same unordered pair twice
            ([1], [1], [1.0]),  # a self loop
            ([0], [3], [1.0]),  # off the grid
            ([0], [1], [-1.0]),
            ([0], [1], [np.nan]),
        ):
            with pytest.raises(DataError):
                AffinityMatrix(3, first, second, values)

    def test_scaled_is_d_w_d(self):
        dense = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 0.5], [1.0, 0.5, 0.0]])
        factors = np.array([1.0, 0.5, 3.0])
        scaled = affinity_from_dense(dense).scaled(factors)
        np.testing.assert_array_equal(to_dense(scaled), np.outer(factors, factors) * dense)
        with pytest.raises(DataError):
            affinity_from_dense(dense).scaled([1.0, -1.0, 1.0])

    def test_dense_round_trip(self):
        dense = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
        W = affinity_from_dense(dense)
        assert W.indptr.tolist() == [0, 1, 3, 4]
        assert W.indices.tolist() == [1, 0, 2, 1]
        np.testing.assert_array_equal(to_dense(W), dense)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FeatureMatrix([[1.0, 2.0], [1.0, 2.0, 3.0]]),
        lambda: FeatureMatrix([["a", 1.0]]),
        lambda: SoftLabelMatrix([[1.0], [1.0, 2.0]]),
        lambda: LabelAssignment.prediction(["a", 1.0]),
    ],
    ids=["ragged_features", "text_feature", "ragged_scores", "text_probability"],
)
def test_constructor_rejects_non_numeric_or_ragged_input_with_data_error(build):
    with pytest.raises(DataError):
        build()


class TestSoftLabelsFromAssignments:
    def test_ground_truth_rows_are_one_hot(self):
        labels, gt_mask, gt_classes = soft_labels_from_assignments(
            [
                LabelAssignment.ground_truth(2),
                LabelAssignment.prediction([0.25, 0.5, 0.25]),
                LabelAssignment.unlabeled(),
            ]
        )
        assert labels.data[0].tolist() == [0.0, 0.0, 1.0]
        assert labels.data[1].tolist() == [0.25, 0.5, 0.25]
        assert labels.data[2].tolist() == [0.0, 0.0, 0.0]
        assert gt_mask.tolist() == [True, False, False]
        assert gt_classes.tolist() == [2, -1, -1]

    def test_explicit_class_count_must_cover(self):
        with pytest.raises(DataError):
            soft_labels_from_assignments(
                [LabelAssignment.ground_truth(3)], n_classes=2
            )

    def test_needs_inferable_classes(self):
        with pytest.raises(DataError):
            soft_labels_from_assignments([LabelAssignment.unlabeled()])

    def test_config_is_frozen(self):
        cfg = PmlpConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.alpha = 0.5
