"""Domain types, distance measures, and configuration validation."""

import dataclasses
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlp import graph, propagate
from pmlp.cli import emit_features
from pmlp.core import (
    ConfigError,
    DataError,
    NumericalError,
    PmlpError,
    AffinityMatrix,
    PmlpConfig,
    default_neighbor_count,
    validate_config,
)
from pmlp.density import batch_normalized_density, batch_path_density_info, density_ratio
from pmlp.graph import (
    EPS_DISTANCE,
    _base_affinity,
    build_affinity,
    knn_edges,
    neighbor_lists,
    normalize_symmetric,
)
from pmlp.propagate import (
    ThresholdSchedulerState,
    confidences,
    mix_final,
    propagate_closed_form,
    renormalized,
    run_pmlp,
    split_by_confidence,
    update_threshold,
)
from pmlp.synthlab import gen_gaussian_blobs, gen_two_moons

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
        # Base affinities pair rows of one feature matrix; the one place two
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


# Four rows in two pairs; row 0 is class 0, row 2 class 1, and row 1 may
# carry a prediction.
FOUR_ROWS = [[0.0, 0.0], [0.0, 1.0], [5.0, 0.0], [5.0, 1.0]]
FOUR_ROWS_CFG = PmlpConfig(neighbor_count=2, kde_support_n=4)


class TestFeatureMatrix:
    """The one check of features at every public entry (``core._features``):
    any 2-d array of finite numbers, held as a read-only float64 array."""

    def test_rejects_nan(self):
        for bad in ([[0.0, np.nan], [1.0, 0.0]], [[0.0, 0.0], [np.inf, 0.0]]):
            with pytest.raises(DataError, match="feature matrix contains non-finite"):
                knn_edges(bad, 1)

    def test_rejects_empty(self):
        for empty in (np.zeros((0, 3)), np.zeros((3, 0))):
            with pytest.raises(DataError, match="needs at least one row and one col"):
                knn_edges(empty, 1)
        with pytest.raises(DataError, match="feature matrix must be 2-dimensional"):
            knn_edges([0.0, 1.0, 2.0], 1)

    def test_shape_and_immutability(self):
        features = gen_gaussian_blobs([[0.0, 0.0]], 1.0, 3, 1, seed=0).features
        final = label_four_rows().final_labels
        assert features.shape == (3, 2) and final.shape == (4, 2)
        for array in (features, final):
            assert array.dtype == np.float64
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 9.0

    def test_copy_on_construction(self, monkeypatch):
        # A writable input is checked into a read-only copy, so the caller's
        # later writes reach no stage; a read-only float64 array is used
        # as it is.
        seen = []
        row_lists = graph._row_lists

        def spy(data, *args):
            seen.append(data)
            return row_lists(data, *args)

        monkeypatch.setattr(graph, "_row_lists", spy)
        raw = np.array(FOUR_ROWS)
        first = run_pmlp(raw, [0, -1, 1, -1], FOUR_ROWS_CFG).final_labels
        raw[0, 0] = 5.0
        assert seen[0][0, 0] == 0.0 and not seen[0].flags.writeable
        frozen = np.array(FOUR_ROWS)
        frozen.setflags(write=False)
        second = run_pmlp(frozen, [0, -1, 1, -1], FOUR_ROWS_CFG).final_labels
        assert seen[1] is frozen
        assert first.tobytes() == second.tobytes()



def label_four_rows(ground_truth=(0, -1, 1, -1), prediction=None, row=1, **kwargs):
    """``run_pmlp`` on FOUR_ROWS, with ``prediction`` on ``row`` and all-zero
    prediction rows elsewhere, if given."""
    predictions = None
    if prediction is not None:
        predictions = [[0.0] * len(prediction) for _ in range(4)]
        predictions[row] = list(prediction)
    return run_pmlp(FOUR_ROWS, list(ground_truth), FOUR_ROWS_CFG, predictions, **kwargs)


class TestLabelAssignment:
    """The rules of ``run_pmlp``'s label inputs: a class per row, -1 on an
    unlabeled row, and optional rows of soft predictions."""

    def test_prediction_must_sum_to_one(self):
        label_four_rows(prediction=[0.7, 0.3])
        label_four_rows(prediction=[0.0, 0.0])  # an all-zero row holds none
        label_four_rows(prediction=[0.7, 0.3 + 1e-10])
        for prediction in ([0.7, 0.2], [0.7, 0.3 + 1e-8]):
            with pytest.raises(DataError, match="row 1: prediction neither"):
                label_four_rows(prediction=prediction)

    def test_prediction_rejects_negative(self):
        with pytest.raises(DataError, match="row 1: prediction has a negative entry"):
            label_four_rows(prediction=[1.2, -0.2])

    def test_prediction_rejects_non_finite_entries(self):
        for prediction in ([np.nan, 1.0], [np.inf, 0.0], [np.inf, -np.inf]):
            with pytest.raises(DataError, match="row 1: prediction is not finite"):
                label_four_rows(prediction=prediction)

    def test_ground_truth_rejects_negative_index(self):
        with pytest.raises(DataError, match="row 1: class below -1"):
            label_four_rows(ground_truth=(0, -2, 1, -1))

    def test_a_labeled_row_carries_no_prediction(self):
        with pytest.raises(DataError, match="row 2: a ground-truth row has a predic"):
            label_four_rows(prediction=[0.5, 0.5], row=2)

    @pytest.mark.parametrize(
        "ground_truth",
        [
            (0, -1, 1),
            (0, -1, 1, -1, 0),
            (0.0, -1.0, 1.0, -1.0),
            (True, False, True, False),
        ],
        ids=["short", "long", "floats", "bools"],
    )
    def test_ground_truth_is_one_integer_class_per_row(self, ground_truth):
        with pytest.raises(DataError, match="one integer class per feature row"):
            label_four_rows(ground_truth=ground_truth)


class TestSoftLabelMatrix:
    """The one check of class scores at every public entry
    (``core._scores``), and the row renormalization."""

    def test_rejects_negative(self):
        with pytest.raises(DataError, match="soft label matrix contains negative"):
            split_by_confidence([[0.5, -0.1]], [False], 0.9)
        with pytest.raises(DataError, match="soft label matrix contains non-finite"):
            mix_final([[0.5, np.nan]], [[0.5, 0.0]], 0.5)
        with pytest.raises(DataError, match="soft label matrix must be 2-dimensional"):
            mix_final([0.5, 0.5], [0.5, 0.0], 0.5)

    def test_renormalized_keeps_zero_rows(self):
        out = renormalized([[2.0, 2.0], [0.0, 0.0]])
        assert out[0].tolist() == [0.5, 0.5]
        assert out[1].tolist() == [0.0, 0.0]
        assert not out.flags.writeable

    def test_confidences(self):
        assert confidences([[3.0, 1.0], [0.0, 0.0]]).tolist() == [0.75, 0.0]


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

    @pytest.mark.parametrize("strict", [False, True])
    def test_subnormal_weights_normalize(self, strict):
        """Degree factors near 1/sqrt(5e-324) overflow their product, not
        the scaled weight: each entry is w / sqrt(d_i d_j), 1/sqrt(2)."""
        W = AffinityMatrix(3, [0, 1], [1, 2], [5e-324] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error" if strict else "ignore", RuntimeWarning)
            S = normalize_symmetric(W)
        np.testing.assert_allclose(S.data, np.full(4, 1 / np.sqrt(2)), rtol=1e-15)
        np.testing.assert_array_equal(to_dense(S), to_dense(S).T)

    def test_dense_round_trip(self):
        dense = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
        W = affinity_from_dense(dense)
        assert W.indptr.tolist() == [0, 1, 3, 4]
        assert W.indices.tolist() == [1, 0, 2, 1]
        np.testing.assert_array_equal(to_dense(W), dense)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: knn_edges([[1.0, 2.0], [1.0, 2.0, 3.0]], 1), "feature matrix"),
        (lambda: run_pmlp([["a", 1.0]], [0], FOUR_ROWS_CFG), "feature matrix"),
        (lambda: mix_final([[1.0], [1.0, 2.0]], [[1.0]], 0.5), "soft label matrix"),
        (lambda: label_four_rows(prediction=["a", 1.0]), "predictions"),
    ],
    ids=["ragged_features", "text_feature", "ragged_scores", "text_probability"],
)
def test_constructor_rejects_non_numeric_or_ragged_input_with_data_error(build, message):
    with pytest.raises(DataError, match=message + " must be a rectangular array of"):
        build()


# Every public entry that takes features, called on FOUR_ROWS with a NaN in
# row 1 (``rows``), or, for a generator, with parameters that make one.
FEATURE_ENTRIES = {
    "run_pmlp_list": lambda rows, path: run_pmlp(rows, [0, -1, 1, -1], FOUR_ROWS_CFG),
    "run_pmlp_array": lambda rows, path: run_pmlp(
        np.array(rows), np.array([0, -1, 1, -1]), FOUR_ROWS_CFG
    ),
    "neighbor_lists": lambda rows, path: neighbor_lists(rows, FOUR_ROWS_CFG),
    "knn_edges": lambda rows, path: knn_edges(rows, 2),
    "build_affinity": lambda rows, path: build_affinity(rows, [(0, 1)], FOUR_ROWS_CFG),
    "batch_path_density_info": lambda rows, path: batch_path_density_info(
        rows, [(0, 2)], FOUR_ROWS_CFG
    ),
    "batch_normalized_density": lambda rows, path: batch_normalized_density(
        [[0.0, 0.0]], rows, 2, 1.0
    ),
    "density_ratio": lambda rows, path: density_ratio(rows, [(0, 2)], FOUR_ROWS_CFG),
    "emit_features": lambda rows, path: emit_features(path, rows, [0, -1, 1, -1]),
    "gen_gaussian_blobs": lambda rows, path: gen_gaussian_blobs(
        [[0.0, np.nan], [5.0, 0.0]], 1.0, 2, 1, seed=0
    ),
    "gen_two_moons": lambda rows, path: gen_two_moons(4, np.inf, 1, seed=0),
}
# Every public entry that takes class scores, called on a negative score.
SCORE_ENTRIES = {
    "split_by_confidence": lambda scores: split_by_confidence(scores, [1, 0], 0.9),
    "propagate_closed_form": lambda scores: propagate_closed_form(
        affinity_from_dense([[0.0, 1.0], [1.0, 0.0]]), scores, 0.5
    ),
    "mix_final": lambda scores: mix_final(np.zeros((2, 2)), scores, 0.5),
    "update_threshold": lambda scores: update_threshold(
        ThresholdSchedulerState(tau=0.9), scores, 1
    ),
    "renormalized": renormalized,
    "confidences": confidences,
}


@pytest.mark.parametrize("entry", sorted(FEATURE_ENTRIES) + sorted(SCORE_ENTRIES))
def test_every_public_entry_checks_its_arrays(entry, tmp_path):
    # A NaN feature and a negative score are refused with the check's own
    # message, before anything is written.
    path = tmp_path / "rows.csv"
    if entry in FEATURE_ENTRIES:
        rows = [list(row) for row in FOUR_ROWS]
        rows[1][0] = np.nan
        with pytest.raises(DataError, match="feature matrix contains non-finite"):
            FEATURE_ENTRIES[entry](rows, path)
    else:
        with pytest.raises(DataError, match="soft label matrix contains negative"):
            SCORE_ENTRIES[entry]([[1.0, 0.0], [0.5, -0.5]])
    assert not path.exists()


class TestSoftLabelsFromAssignments:
    """The label matrix Y that ``run_pmlp`` builds from its label inputs,
    and the class count it infers."""

    def test_ground_truth_rows_are_one_hot(self, monkeypatch):
        seen = []
        split = propagate.split_by_confidence

        def spy(labels, *args):
            seen.append(labels.copy())
            return split(labels, *args)

        monkeypatch.setattr(propagate, "split_by_confidence", spy)
        label_four_rows(ground_truth=(2, -1, 1, -1), prediction=[0.25, 0.5, 0.25])
        assert seen[0].tolist() == [
            [0.0, 0.0, 1.0], [0.25, 0.5, 0.25], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]
        ]

    def test_explicit_class_count_must_cover(self):
        with pytest.raises(DataError, match=r"row 2: class index outside \[0, 2\)"):
            label_four_rows(ground_truth=(0, -1, 2, -1), n_classes=2)
        with pytest.raises(DataError, match="predictions are 3 wide, expected 2 classes"):
            label_four_rows(prediction=[0.2, 0.3, 0.5], n_classes=2)

    def test_the_class_count_is_the_wider_of_classes_and_predictions(self):
        # Three prediction classes, two ground-truth classes: C = 3.
        result = label_four_rows(prediction=[0.2, 0.3, 0.5])
        assert result.final_labels.shape[1] == 3
        # Class 3 needs four classes, which a prediction of two cannot have.
        with pytest.raises(DataError, match="predictions are 2 wide, expected 4 classes"):
            label_four_rows(ground_truth=(0, -1, 3, -1), prediction=[0.5, 0.5])

    def test_needs_inferable_classes(self):
        with pytest.raises(DataError, match="could not infer a class count"):
            label_four_rows(ground_truth=(-1, -1, -1, -1))

    def test_classes_past_the_element_limit_are_refused(self):
        message = "n_classes: 4 rows x %d classes exceed" % 2**62
        with pytest.raises(DataError, match=message):
            label_four_rows(n_classes=2**62)
        # 4 x 2 labels fit a limit of 11 elements, and only the graph's
        # later check, of 56, refuses the run; 4 x 3 do not fit.
        with mock.patch("pmlp.core.MAX_ELEMENTS", 11):
            with pytest.raises(DataError, match="n_classes: 4 rows x 3 classes exc"):
                label_four_rows(prediction=[0.2, 0.3, 0.5])
            with pytest.raises(DataError, match="neighbor_count: 4 rows"):
                label_four_rows()

    def test_config_is_frozen(self):
        cfg = PmlpConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.alpha = 0.5
