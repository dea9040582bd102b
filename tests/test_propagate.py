"""Confidence split, the diffusion solve, final mixing, the full pipeline,
and the adaptive threshold schedule."""

import math

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pmlp.core import (
    MODES,
    AffinityMatrix,
    DataError,
    NumericalError,
    PmlpConfig,
    PmlpError,
)
from pmlp.graph import build_affinity, knn_edges, neighbor_lists, normalize_symmetric
from pmlp.propagate import (
    MAX_SOLVE_STEPS,
    ThresholdSchedulerState,
    mix_final,
    propagate_closed_form,
    renormalized,
    run_classical_lpa,
    run_pmlp,
    split_by_confidence,
    threshold_increment,
    update_threshold,
)
from pmlp.synthlab import gen_gaussian_blobs, gen_two_moons

from dense_oracle import affinity_from_dense, solve_dense, to_dense, upper_pairs
from iterative_oracle import propagate_iterative


def random_normalized_instance(rng, n, classes):
    """Random symmetric affinity (positive degrees) and sparse label mass."""
    W = rng.random((n, n))
    W = (W + W.T) / 2
    np.fill_diagonal(W, 0.0)
    S = normalize_symmetric(affinity_from_dense(W))
    mask = rng.random(n) < 0.3
    mask[0] = True
    Y = rng.random((n, classes)) * mask[:, None]
    return S, Y


class TestSplitByConfidence:
    def test_confident_row_goes_high(self):
        labels = np.array([[0.97, 0.03]])
        high, low = split_by_confidence(labels, [False], 0.95)
        assert high[0].tolist() == [0.97, 0.03]
        assert low[0].tolist() == [0.0, 0.0]

    def test_uncertain_row_goes_low(self):
        labels = np.array([[0.6, 0.4]])
        high, low = split_by_confidence(labels, [False], 0.95)
        assert high[0].tolist() == [0.0, 0.0]
        assert low[0].tolist() == [0.6, 0.4]

    def test_ground_truth_row_always_high(self):
        labels = np.array([[0.0, 0.0, 1.0]])  # one-hot class 2 of 3
        high, low = split_by_confidence(labels, [True], 0.95)
        assert high[0].tolist() == [0.0, 0.0, 1.0]
        assert low[0].tolist() == [0.0, 0.0, 0.0]

    def test_split_partitions_exactly(self):
        rng = np.random.default_rng(2)
        raw = rng.random((20, 4))
        labels = raw / raw.sum(axis=1, keepdims=True)
        gt = rng.random(20) < 0.2
        high, low = split_by_confidence(labels, gt, 0.5)
        np.testing.assert_array_equal(high + low, labels)

    def test_tau_range_enforced(self):
        labels = np.array([[1.0, 0.0]])
        with pytest.raises(DataError):
            split_by_confidence(labels, [False], 0.0)
        with pytest.raises(DataError):
            split_by_confidence(labels, [False], 1.5)


class TestIterative:
    """Hand-solved fixed points of Y(i) = alpha S Y(i-1) + (1 - alpha) Y_high,
    as ``propagate_closed_form`` returns them, and the iteration's own
    contraction."""

    def test_no_edges_fixed_point(self):
        Y = np.array([[1.0, 0.0], [0.0, 0.5]])
        S = affinity_from_dense(np.zeros((2, 2)))
        alpha = 0.8
        result, iterations, residual = propagate_closed_form(S, Y, alpha)
        np.testing.assert_array_equal(result, (1 - alpha) * Y)
        assert residual < 1e-10

    def test_two_node_hand_solution(self):
        # S = [[0,1],[1,0]], alpha = 0.5:
        # (I - 0.5 S)^-1 = (4/3) [[1, 0.5], [0.5, 1]]; fixed point scales by 0.5
        S = affinity_from_dense([[0.0, 1.0], [1.0, 0.0]])
        Y = np.array([[1.0, 0.0], [0.0, 0.0]])
        result, _, _ = propagate_closed_form(S, Y, 0.5)
        np.testing.assert_allclose(
            result, [[2.0 / 3.0, 0.0], [1.0 / 3.0, 0.0]], atol=1e-12
        )

    def test_zero_labels_stay_zero(self):
        S = affinity_from_dense([[0.0, 1.0], [1.0, 0.0]])
        Y = np.zeros((2, 2))
        result, _, _ = propagate_closed_form(S, Y, 0.5)
        np.testing.assert_array_equal(result, np.zeros((2, 2)))

    def test_residual_nonincreasing_above_noise_floor(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            S, Y = random_normalized_instance(rng, int(rng.integers(5, 30)), 3)
            S = to_dense(S)
            alpha = float(rng.choice([0.1, 0.5, 0.8]))
            current = Y.copy()
            residuals = []
            for _ in range(50):
                nxt = alpha * (S @ current) + (1 - alpha) * Y
                residuals.append(float(np.max(np.abs(nxt - current))))
                current = nxt
            arr = np.array(residuals)
            arr = arr[arr > 1e-10]  # rounding dust breaks ordering below this
            assert np.all(arr[2:] <= arr[1:-1] * (1 + 1e-12))

    def test_alpha_range_enforced(self):
        Y = np.array([[1.0]])
        for alpha in (0.0, 1.0):
            with pytest.raises(DataError):
                propagate_closed_form(affinity_from_dense(np.zeros((1, 1))), Y, alpha)

    def test_overflowing_affinity_reported(self):
        S = affinity_from_dense([[0.0, 1e308], [1e308, 0.0]])
        Y = np.array([[1.0, 0.0], [1.0, 0.0]])
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            propagate_closed_form(S, Y, 0.5)


class TestClosedForm:
    def test_identity_system_unscaled(self):
        # With no edges the raw solve of (I - alpha S) X = Y is Y itself,
        # and the solver returns it times (1 - alpha).
        Y = np.array([[0.3, 0.7], [1.0, 0.0]])
        S = affinity_from_dense(np.zeros((2, 2)))
        result, _, _ = propagate_closed_form(S, Y, 0.8)
        raw = solve_dense(S, Y, 0.8, scaling="unscaled")
        np.testing.assert_array_equal(raw, Y)
        np.testing.assert_array_equal(result, (1 - 0.8) * raw)

    def test_identity_system_fixed_point(self):
        Y = np.array([[0.3, 0.7]])
        result, _, _ = propagate_closed_form(affinity_from_dense(np.zeros((1, 1))), Y, 0.8)
        np.testing.assert_allclose(result, 0.2 * Y, atol=1e-15)

    def test_two_node_first_row(self):
        S = affinity_from_dense([[0.0, 1.0], [1.0, 0.0]])
        Y = np.array([[1.0, 0.0], [0.0, 0.0]])
        fixed, _, _ = propagate_closed_form(S, Y, 0.5)
        # (1 - alpha) times the raw solve's 4/3
        np.testing.assert_allclose(fixed[0], [2.0 / 3.0, 0.0], atol=1e-12)

    def test_matches_direct_inverse_oracle(self):
        rng = np.random.default_rng(13)
        S, Y = random_normalized_instance(rng, 12, 4)
        got, _, _ = propagate_closed_form(S, Y, 0.8)
        want = np.linalg.inv(np.eye(12) - 0.8 * to_dense(S)) @ Y
        # 1e-10 on the raw solve, which the solver scales by 1 - alpha
        np.testing.assert_allclose(
            got, (1 - 0.8) * want, atol=(1 - 0.8) * 1e-10
        )

    def test_solver_cross_check_on_random_instances(self):
        rng = np.random.default_rng(29)
        for trial in range(12):
            alpha = (0.1, 0.5, 0.8)[trial % 3]
            S, Y = random_normalized_instance(rng, int(rng.integers(4, 21)), 3)
            iterated, _, _ = propagate_iterative(
                S, Y, alpha, max_iters=100000, tol=1e-12
            )
            fixed, _, _ = propagate_closed_form(S, Y, alpha)
            np.testing.assert_allclose(iterated, fixed, atol=1e-8)


@st.composite
def sparse_graphs(draw):
    """A random sparse symmetric graph of disjoint parts, and its labels.

    Each part is a random tree plus a few extra edges, with weights from 1
    down to 1e-300; some parts carry labels and some carry none. Returns
    the affinity, the label matrix and the mask of rows in unlabelled parts.
    """
    classes = draw(st.integers(2, 3))
    pairs, weights, labels, unlabelled = [], [], [], []
    start = 0
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(2, 14))
        part = [(start + i, start + draw(st.integers(0, i - 1))) for i in range(1, size)]
        part += draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
            .filter(lambda e: e[0] != e[1])
            .map(lambda e: (start + e[0], start + e[1])),
            max_size=size,
        ))
        part = sorted({(min(e), max(e)) for e in part})
        pairs += part
        weights += [10.0 ** -draw(st.floats(0.0, 300.0)) for _ in part]
        mass = np.zeros((size, classes))
        if draw(st.booleans()):
            for row in draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=3)):
                mass[row, draw(st.integers(0, classes - 1))] = draw(st.floats(0.05, 1.0))
        labels.append(mass)
        unlabelled += [not mass.any()] * size
        start += size
    first, second = np.array(pairs).T
    W = AffinityMatrix(start, first, second, np.array(weights))
    return W, np.vstack(labels), np.array(unlabelled)


class TestSparseSolve:
    def test_reports_steps_and_next_change(self):
        rng = np.random.default_rng(17)
        S, Y = random_normalized_instance(rng, 30, 3)
        result, steps, change = propagate_closed_form(S, Y, 0.8)
        assert steps > 1
        # The reported change is that of one more plain fixed-point step.
        step = 0.8 * to_dense(S) @ result + (1.0 - 0.8) * Y
        assert abs(change - np.max(np.abs(step - result))) <= 1e-15
        assert change <= 1e-12

    def test_alpha_next_to_one_is_refused_before_any_step(self, monkeypatch):
        # At alpha = 1 - 1e-9 the step cap is about 1.5 million products;
        # the solve must refuse at once rather than run them.
        S, Y = random_normalized_instance(np.random.default_rng(5), 20, 2)
        products = []
        operator = AffinityMatrix.operator

        def counting(self, classes):
            apply = operator(self, classes)
            return lambda x: products.append(1) or apply(x)

        monkeypatch.setattr(AffinityMatrix, "operator", counting)
        with pytest.raises(NumericalError, match="budget"):
            propagate_closed_form(S, Y, 1.0 - 1e-9)
        assert products == []
        _, steps, _ = propagate_closed_form(S, Y, 0.8)
        assert len(products) == steps

    @settings(max_examples=200, deadline=None)
    @given(graph=sparse_graphs(), alpha=st.sampled_from([0.1, 0.5, 0.8, 0.99]))
    def test_matches_dense_oracle(self, graph, alpha):
        W, Y, unlabelled = graph
        S = normalize_symmetric(W)
        got = propagate_closed_form(S, Y, alpha)[0]
        want = solve_dense(S, Y, alpha)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert not got[unlabelled].any()
        # Every row the oracle gives a normal-range mass and a decided
        # argmax must agree with it.
        top2 = np.sort(want, axis=1)[:, -2:]
        decided = (top2[:, 1] >= np.finfo(float).tiny) & (
            top2[:, 1] - top2[:, 0] > 1e-5 * top2[:, 1]
        )
        assert np.array_equal(got.argmax(axis=1)[decided], want.argmax(axis=1)[decided])

    def test_far_end_of_a_chain_is_reached(self):
        # An absolute stop at 1e-12 comes after about 40 steps, long before
        # mass can walk 299 hops; the far end's exact mass is near 1e-91.
        n = 300
        rows = np.arange(n - 1)
        S = normalize_symmetric(AffinityMatrix(n, rows, rows + 1, np.ones(n - 1)))
        Y = np.zeros((n, 2))
        Y[0, 0], Y[1, 1] = 1.0, 0.5
        got, steps, _ = propagate_closed_form(S, Y, 0.8)
        want = solve_dense(S, Y, 0.8)
        assert steps >= n - 1  # each step moves mass one hop
        assert np.all(got[-1] > 0.0)
        assert got[-1].argmax() == want[-1].argmax() == 0
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_fifty_thousand_rows_run_to_the_stop_rule(self):
        # 10,000 disjoint 5-row cliques, one labelled row each: 50,000 rows
        # whose step cap, 2N + 120 at alpha = 0.8, passes MAX_SOLVE_STEPS,
        # but whose labels are one hop from every row.
        cliques, size = 10_000, 5
        first, second = np.triu_indices(size, 1)
        starts = size * np.arange(cliques)[:, None]
        W = AffinityMatrix(
            cliques * size,
            (starts + first).ravel(),
            (starts + second).ravel(),
            np.ones(cliques * first.size),
        )
        S = normalize_symmetric(W)
        assert 2 * S.size + 120 > MAX_SOLVE_STEPS
        # Clique c labels its row c % 5 with class c % 2: ten kinds of clique.
        Y = np.zeros((cliques, size, 2))
        c = np.arange(cliques)
        Y[c, c % size, c % 2] = 1.0
        labels = Y.reshape(-1, 2)
        result, steps, _ = propagate_closed_form(S, labels, 0.8)
        assert steps < 100  # the stop rule, far below the cap
        got = result.reshape(cliques, size, 2)
        one = normalize_symmetric(AffinityMatrix(size, first, second, np.ones(first.size)))
        for kind in range(10):
            want = solve_dense(one, Y[kind], 0.8)
            assert np.max(np.abs(got[kind::10] - want)) <= 1e-12

    def test_stops_at_the_rounding_level_when_the_tolerance_is_out_of_reach(self):
        # Every row labelled and alpha = 0.999: the raw solve's solution is
        # about 1000 per row, so rounding alone keeps ||r|| far above
        # SOLVE_TOL * (1 - alpha) = 1e-15.
        rng = np.random.default_rng(8)
        n = 400
        rows = np.arange(n - 1)
        extra = rng.integers(0, n, size=(2 * n, 2))
        extra = extra[extra[:, 0] != extra[:, 1]]
        chain = np.column_stack([rows, rows + 1])
        pairs = np.unique(np.sort(np.vstack([chain, extra]), axis=1), axis=0)
        weights = rng.random(len(pairs)) + 0.1
        W = AffinityMatrix(n, pairs[:, 0], pairs[:, 1], weights)
        S = normalize_symmetric(W)
        Y = np.eye(3)[rng.integers(0, 3, n)]
        got = propagate_closed_form(S, Y, 0.999)[0]
        want = solve_dense(S, Y, 0.999)
        assert np.max(np.abs(got - want)) <= 1e-9
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


class TestMixFinal:
    def test_eta_one_keeps_propagated(self):
        propagated = np.array([[1.0, 0.0]])
        low = np.array([[0.6, 0.4]])
        np.testing.assert_array_equal(
            mix_final(propagated, low, 1.0), propagated
        )

    def test_eta_zero_keeps_low(self):
        propagated = np.array([[1.0, 0.0]])
        low = np.array([[0.6, 0.4]])
        np.testing.assert_array_equal(mix_final(propagated, low, 0.0), low)

    def test_reference_blend(self):
        propagated = np.array([[1.0, 0.0]])
        low = np.array([[0.6, 0.4]])
        mixed = mix_final(propagated, low, 0.2)
        np.testing.assert_allclose(mixed, [[0.68, 0.32]], atol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            mix_final(
                np.array([[1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]), 0.5
            )

    def test_mass_conservation_without_edges(self):
        # With S = 0 the whole pipeline reduces to
        # eta * (1 - alpha) * Y_high + (1 - eta) * Y_low, exactly.
        rng = np.random.default_rng(3)
        high = rng.random((6, 3)) * (rng.random((6, 1)) < 0.5)
        low = rng.random((6, 3)) * (rng.random((6, 1)) < 0.5)
        alpha, eta = 0.8, 0.2
        propagated, _, _ = propagate_closed_form(
            affinity_from_dense(np.zeros((6, 6))), high, alpha
        )
        mixed = mix_final(propagated, low, eta)
        expected = eta * ((1 - alpha) * high) + (1 - eta) * low
        np.testing.assert_array_equal(mixed, expected)


def blob_fixture(seed=21, per_class=30):
    return gen_gaussian_blobs(
        [[0.0, 0.0], [12.0, 0.0]],
        sigma=1.0,
        per_class=per_class,
        labeled_per_class=1,
        seed=seed,
    )


PIPE_CFG = PmlpConfig(bandwidth_h=2.0, kde_support_n=15, neighbor_count=8, seed=0)


def pipeline_outcome(*args, **kwargs):
    """``run_pmlp(*args, **kwargs)`` as bytes: its final labels, steps and
    residual, or the error it raised."""
    try:
        result = run_pmlp(*args, **kwargs)
    except PmlpError as error:
        return repr(error)
    return result.final_labels.tobytes(), result.iterations_used, result.residual


@settings(max_examples=150, deadline=None)
@given(
    distinct=st.integers(1, 30),
    n=st.integers(3, 40),
    dim=st.sampled_from([1, 2, 3]),
    mode=st.sampled_from(MODES),
    k_fraction=st.floats(0.0, 1.0),
    support_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(distinct=1, n=12, dim=2, mode="classical_lpa", k_fraction=0.5,
         support_fraction=1.0, seed=0)
def test_shared_lists_change_no_byte(
    distinct, n, dim, mode, k_fraction, support_fraction, seed
):
    # Rows on a grid of 0.5, drawn from ``distinct`` rows with repeats, so
    # distances tie and rows coincide; the first two rows are labelled.
    rng = np.random.default_rng(seed)
    grid = rng.integers(-2, 3, size=(distinct, dim)) * 0.5
    features = grid[rng.integers(0, distinct, n)]
    ground_truth = np.array([0, 1] + [-1] * (n - 2))
    cfg = PmlpConfig(
        mode=mode,
        bandwidth_h=1.0,
        neighbor_count=1 + int(k_fraction * (n - 2)),
        kde_support_n=1 + int(support_fraction * (n - 1)),
    )
    lists = neighbor_lists(features, replace(cfg, mode="pmlp"))
    assert pipeline_outcome(features, ground_truth, cfg, lists=lists) == pipeline_outcome(
        features, ground_truth, cfg
    )


class TestRunPmlp:
    def test_degenerates_to_classical_at_huge_bandwidth(self):
        dataset = blob_fixture()
        ground_truth = dataset.ground_truth
        pm = run_pmlp(
            dataset.features, ground_truth, replace(PIPE_CFG, bandwidth_h=1e12)
        )
        classical = run_classical_lpa(dataset.features, ground_truth, PIPE_CFG)
        diff = np.max(np.abs(pm.final_labels - classical.final_labels))
        assert diff < 1e-6
        assert np.array_equal(
            pm.final_labels.argmax(axis=1),
            classical.final_labels.argmax(axis=1),
        )

    def test_separated_blobs_recover_generating_class(self):
        dataset = blob_fixture(seed=5)
        ground_truth = dataset.ground_truth
        for mode in ("pmlp", "classical_lpa"):
            result = run_pmlp(dataset.features, ground_truth, replace(PIPE_CFG, mode=mode))
            predicted = result.final_labels.argmax(axis=1)
            unlabeled = ~dataset.labeled_mask
            assert np.all(predicted[unlabeled] == dataset.true_class[unlabeled])

    def test_affinity_scaling_changes_nothing(self):
        dataset = blob_fixture(seed=6)
        edges = knn_edges(dataset.features, PIPE_CFG.neighbor_count)
        W = build_affinity(dataset.features, edges, PIPE_CFG)
        high = np.eye(2)[dataset.true_class] * dataset.labeled_mask[:, None]
        base, _, _ = propagate_closed_form(normalize_symmetric(W), high, PIPE_CFG.alpha)
        first, second, values = upper_pairs(W)
        scaled_W = AffinityMatrix(W.size, first, second, 10.0 * values)
        scaled, _, _ = propagate_closed_form(normalize_symmetric(scaled_W), high, PIPE_CFG.alpha)
        assert np.array_equal(base.argmax(axis=1), scaled.argmax(axis=1))
        assert np.max(np.abs(base - scaled)) < 1e-9

    def test_deterministic_rerun(self):
        dataset = blob_fixture(seed=10)
        ground_truth = dataset.ground_truth
        first = run_pmlp(dataset.features, ground_truth, PIPE_CFG)
        second = run_pmlp(dataset.features, ground_truth, PIPE_CFG)
        assert np.array_equal(first.final_labels, second.final_labels)

    def test_ground_truth_rows_clamped_by_default(self):
        dataset = blob_fixture(seed=11)
        ground_truth = dataset.ground_truth
        # At eta = 1 the final labels are the clamped diffusion output.
        result = run_pmlp(dataset.features, ground_truth, replace(PIPE_CFG, eta=1.0))
        rows = np.flatnonzero(dataset.labeled_mask)
        for row in rows:
            one_hot = np.zeros(2)
            one_hot[dataset.true_class[row]] = 1.0
            np.testing.assert_array_equal(result.final_labels[row], one_hot)

    def test_requires_ground_truth_row(self):
        dataset = blob_fixture(seed=12)
        ground_truth = np.full(dataset.features.shape[0], -1)
        with pytest.raises(DataError, match="at least one ground-truth row"):
            run_pmlp(dataset.features, ground_truth, PIPE_CFG, n_classes=2)

    def test_requires_two_classes(self):
        dataset = blob_fixture(seed=13)
        ground_truth = np.full(dataset.features.shape[0], -1)
        ground_truth[0] = 0
        with pytest.raises(DataError, match="at least two classes"):
            run_pmlp(dataset.features, ground_truth, PIPE_CFG, n_classes=1)

    def test_iterative_solver_agrees_with_closed_form(self):
        # The pipeline's solve against the plain iteration on its own graph.
        dataset = blob_fixture(seed=14)
        ground_truth = dataset.ground_truth
        cfg = replace(PIPE_CFG, clamp_ground_truth=False, eta=1.0)
        direct = run_pmlp(dataset.features, ground_truth, cfg)
        edges = knn_edges(dataset.features, cfg.neighbor_count)
        S = normalize_symmetric(build_affinity(dataset.features, edges, cfg))
        labels = np.eye(2)[dataset.true_class] * dataset.labeled_mask[:, None]
        high, _ = split_by_confidence(labels, dataset.labeled_mask, cfg.tau)
        iterated, iterations, residual = propagate_iterative(
            S, high, cfg.alpha, tol=1e-13
        )
        np.testing.assert_allclose(direct.final_labels, iterated, atol=1e-9)
        assert iterations > 0
        assert residual < 1e-13
        assert direct.iterations_used > 0
        assert direct.residual < 1e-13

    def test_final_labels_nonnegative(self):
        dataset = blob_fixture(seed=15)
        ground_truth = dataset.ground_truth
        result = run_pmlp(dataset.features, ground_truth, PIPE_CFG)
        assert result.final_labels.min() >= 0.0

    def test_renormalized_rows_sum_to_one(self):
        dataset = blob_fixture(seed=16)
        ground_truth = dataset.ground_truth
        result = run_pmlp(dataset.features, ground_truth, PIPE_CFG)
        sums = renormalized(result.final_labels).sum(axis=1)
        positive = sums > 0
        np.testing.assert_allclose(sums[positive], 1.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(40, 200),
        eta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        mode=st.sampled_from(MODES),
        clamp=st.booleans(),
    )
    def test_tiny_alpha_reduces_to_pseudo_labeling(self, seed, n, eta, mode, clamp):
        # As alpha -> 0 the fixed point tends to Y_high, so the final labels
        # tend to eta * Y_high + (1 - eta) * Y_low: every labelled row keeps
        # its class and every prediction its argmax, as in thresholded
        # pseudo-labeling. The fixed point differs from Y_high by at most
        # alpha * (1 + sqrt(N)) in any entry (||S||_2 <= 1, label entries
        # <= 1), so a top-two gap above 1e-3 provably survives while that,
        # times eta, stays below (1 - eta) times the gap; near eta = 1 it
        # need not.
        alpha, gap = 1e-6, 1e-3
        assume(eta * alpha * (1 + math.sqrt(n)) < (1.0 - eta) * gap)
        dataset = gen_two_moons(n=n, noise=0.1, labeled_per_class=2, seed=seed)
        rng = np.random.default_rng(seed)
        predictions = np.zeros((n, 2))
        for row in np.flatnonzero(~dataset.labeled_mask):
            if rng.random() < 0.7:
                predictions[row] = rng.dirichlet([0.3, 0.3])
        cfg = PmlpConfig(
            alpha=alpha, eta=eta, bandwidth_h=0.05, kde_support_n=15,
            neighbor_count=5, mode=mode, clamp_ground_truth=clamp,
        )
        final = run_pmlp(dataset.features, dataset.ground_truth, cfg, predictions)
        final = final.final_labels
        labels = predictions + np.eye(2)[dataset.true_class] * dataset.labeled_mask[:, None]
        high = (labels.max(axis=1) >= cfg.tau)[:, None]
        expected = np.where(high, eta * labels, (1.0 - eta) * labels)
        assert np.max(np.abs(final - expected)) <= eta * alpha * (1 + math.sqrt(n))
        labelled = dataset.labeled_mask
        assert np.array_equal(final[labelled].argmax(axis=1), dataset.true_class[labelled])
        for row in np.flatnonzero(predictions.any(axis=1)):
            top2 = np.sort(predictions[row])[-2:]
            if top2[1] - top2[0] > gap:
                assert final[row].argmax() == predictions[row].argmax()


    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(40, 200), mode=st.sampled_from(MODES))
    def test_permuting_rows_permutes_the_labels(self, seed, n, mode):
        # Continuous features have no distance ties, so each row keeps its
        # neighbors, supports and candidate union under any row order; only
        # the order of the sums changes.
        dataset = gen_two_moons(n=n, noise=0.1, labeled_per_class=2, seed=seed)
        ground_truth = dataset.ground_truth
        order = np.random.default_rng(seed).permutation(n)
        cfg = PmlpConfig(bandwidth_h=0.05, kde_support_n=15, neighbor_count=5, mode=mode)
        base = run_pmlp(dataset.features, ground_truth, cfg).final_labels
        moved = run_pmlp(dataset.features[order], ground_truth[order], cfg).final_labels
        assert np.max(np.abs(moved - base[order])) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("power", [-1, 1])
    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_scaling_by_a_power_of_two_changes_no_bit(self, power, mode, seed):
        # Features times 4**power and bandwidth times 16**power scale every
        # difference, squared distance and key gap by a power of two, which
        # rounds exactly, so every kNN, support, density factor and proof
        # is unchanged; W's factor 4**-power cancels exactly in
        # D^(-1/2) W D^(-1/2). 1,000 rows take the nearest-row slabs. The
        # EPS_DISTANCE floor does not scale, so coincident rows are left out.
        dataset = gen_two_moons(n=1000, noise=0.1, labeled_per_class=3, seed=seed)
        data = dataset.features
        assume(np.unique(data, axis=0).shape[0] == data.shape[0])
        ground_truth = dataset.ground_truth
        cfg = PmlpConfig(bandwidth_h=0.05, kde_support_n=15, neighbor_count=5, mode=mode)
        base = run_pmlp(dataset.features, ground_truth, cfg).final_labels
        scaled = run_pmlp(
            data * 4.0**power,
            ground_truth,
            replace(cfg, bandwidth_h=cfg.bandwidth_h * 16.0**power),
        ).final_labels
        assert scaled.tobytes() == base.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=6, deadline=None)
    @example(seed=1, dim=2, position=1, value=-7.25)
    @example(seed=1, dim=8, position=8, value=0.5)
    @given(
        seed=st.integers(0, 2**16),
        dim=st.sampled_from([2, 8]),
        position=st.integers(0, 8),
        value=st.floats(-1e3, 1e3),
    )
    def test_a_constant_feature_changes_no_score(self, mode, seed, dim, position, value):
        # A constant column adds an exact 0 to every squared difference, so
        # under the default euclidean_inverse every neighbor, support and
        # density factor keeps its value; only the grouping of a sum over
        # d + 1 axes can move its last bit. At d = 2 the three-term sum
        # adds the 0 exactly, and nothing moves. 1,000 two-moons rows take
        # the nearest-row slabs.
        if dim == 2:
            dataset = gen_two_moons(n=1000, noise=0.1, labeled_per_class=3, seed=seed)
            bandwidth = 0.05
        else:
            means = np.random.default_rng(seed).normal(0.0, 3.0, (3, dim))
            dataset = gen_gaussian_blobs(means, 1.0, 100, 3, seed)
            bandwidth = 2.0
        data = dataset.features
        ground_truth = dataset.ground_truth
        cfg = PmlpConfig(
            bandwidth_h=bandwidth, kde_support_n=15, neighbor_count=5, mode=mode
        )
        base = run_pmlp(dataset.features, ground_truth, cfg).final_labels
        widened = np.insert(data, min(position, dim), value, axis=1)
        moved = run_pmlp(widened, ground_truth, cfg).final_labels
        assert np.max(np.abs(moved - base)) <= 1e-12
        if dim == 2:
            assert moved.tobytes() == base.tobytes()


class TestThresholdScheduler:
    def test_below_trigger_count_leaves_tau(self):
        state = ThresholdSchedulerState(tau=0.95)
        predictions = np.tile([0.99, 0.01], (49, 1))
        after = update_threshold(state, predictions, epoch=1)
        assert after.tau == 0.95
        assert after.high_count == 49

    def test_trigger_applies_epoch_increment(self):
        state = ThresholdSchedulerState(tau=0.9)
        predictions = np.tile([0.99, 0.01], (50, 1))
        after = update_threshold(state, predictions, epoch=100)
        assert after.tau == min(0.9 + 1 * 0.01, 0.99)
        assert after.high_count == 50

    def test_saturates_at_tau_max(self):
        state = ThresholdSchedulerState(tau=0.99, tau_max=0.99, high_count=49)
        predictions = np.array([[1.0, 0.0]])
        after = update_threshold(state, predictions, epoch=5)
        assert after.tau == 0.99

    def test_increment_schedule(self):
        assert threshold_increment(1) == 1e-2
        assert threshold_increment(100) == 1e-2
        assert threshold_increment(200) == 1e-2
        assert threshold_increment(201) == 1e-3
        assert threshold_increment(400) == 1e-3
        assert threshold_increment(401) == 1e-4

    def test_unconfident_predictions_do_not_count(self):
        state = ThresholdSchedulerState(tau=0.95)
        predictions = np.tile([0.5, 0.5], (200, 1))
        after = update_threshold(state, predictions, epoch=1)
        assert after.high_count == 0
        assert after.tau == 0.95

    def test_monotone_and_exact_over_random_stream(self):
        rng = np.random.default_rng(77)
        state = ThresholdSchedulerState(tau=0.9)
        for step in range(120):
            epoch = 1 + step * 5
            raw = rng.random((int(rng.integers(1, 40)), 3))
            predictions = raw / raw.sum(axis=1, keepdims=True)
            before = state
            state = update_threshold(state, predictions, epoch)
            confident = int(
                np.sum(predictions.max(axis=1) >= before.tau)
            )
            crossings = (before.high_count + confident) // 50 - before.high_count // 50
            if crossings:
                expected = min(
                    before.tau + crossings * threshold_increment(epoch),
                    before.tau_max,
                )
            else:
                expected = before.tau
            assert state.tau == expected
            assert state.tau >= before.tau
            assert state.tau <= state.tau_max

    def test_initial_tau_above_cap_rejected(self):
        with pytest.raises(DataError):
            ThresholdSchedulerState(tau=0.995, tau_max=0.99)
