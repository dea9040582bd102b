"""The blocked nearest-row kernel against the direct-rule oracle.

The kernel screens candidates with GEMM distances and ranks them on direct
distances; wherever the screen cannot prove its cut, it ranks over all
rows. Either way its output must be exactly the oracle's: same rows, same
order, ties toward the lower index.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmlp import density
from pmlp.density import _nearest_rows, batch_normalized_density

from nearest_oracle import nearest_rows_oracle

KINDS = ("normal", "integer_grid", "duplicated", "identical")


def make_pool(kind, n, dim, offset, rng):
    if kind == "normal":
        pool = rng.normal(size=(n, dim))
    elif kind == "integer_grid":
        pool = rng.integers(-2, 3, size=(n, dim)).astype(float)
    elif kind == "duplicated":
        distinct = max(1, n // 4)
        pool = rng.normal(size=(distinct, dim))[rng.integers(0, distinct, n)]
    else:
        pool = np.tile(rng.normal(size=dim), (n, 1))
    return pool + offset


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.sampled_from([1, 2, 32]),
    n=st.integers(2, 60),
    offset=st.sampled_from([0.0, 1e6]),
    self_excluded=st.booleans(),
    count_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    kind="identical", dim=2, n=40, offset=0.0, self_excluded=True,
    count_fraction=0.1, seed=0,
)
@example(
    kind="normal", dim=32, n=60, offset=1e6, self_excluded=False,
    count_fraction=1.0, seed=1,
)
def test_kernel_matches_oracle(kind, dim, n, offset, self_excluded, count_fraction, seed):
    rng = np.random.default_rng(seed)
    pool = make_pool(kind, n, dim, offset, rng)
    if self_excluded:
        queries, exclude = pool, np.arange(n)
        count = 1 + int(count_fraction * (n - 2))  # 1 .. n - 1
    else:
        # segment midpoints between pool rows, as the path KDE queries them
        a, b = rng.integers(0, n, 20), rng.integers(0, n, 20)
        queries, exclude = pool[a] + 0.5 * (pool[b] - pool[a]), None
        count = 1 + int(count_fraction * (n - 1))  # 1 .. n

    got_idx, got_d2 = _nearest_rows(queries, pool, count, exclude)
    want_idx, want_d2 = nearest_rows_oracle(queries, pool, count, exclude)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)

    # KDE supports never exclude a row
    _, support_d2 = nearest_rows_oracle(queries, pool, count)
    kde = batch_normalized_density(queries, pool, count, 0.5)
    assert np.max(np.abs(kde - np.mean(np.exp(-support_d2 / 0.5), axis=1))) <= 1e-12


@pytest.mark.parametrize(
    "kind, offset, scale, fallback",
    [
        ("identical", 0.0, 1.0, "all"),  # every cut is a tie: nothing provable
        ("normal", 0.0, 1e154, "all"),  # the screen's squares would overflow
        ("normal", 1e6, 1.0, "some"),  # GEMM cancellation swamps the close gaps
        ("normal", 0.0, 1.0, "none"),  # distinct distances: the screen proves all
    ],
)
def test_unprovable_cuts_take_the_exact_fallback(monkeypatch, kind, offset, scale, fallback):
    rng = np.random.default_rng(7)
    n = 400
    pool = make_pool(kind, n, 2, offset, rng) * scale
    ranked = []
    rank_all = density._rank_all

    def spy(queries, *args):
        ranked.append(queries.shape[0])
        return rank_all(queries, *args)

    monkeypatch.setattr(density, "_rank_all", spy)
    got = _nearest_rows(pool, pool, 5, np.arange(n))
    want = nearest_rows_oracle(pool, pool, 5, np.arange(n))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    expected = {"all": lambda r: r == n, "some": lambda r: 0 < r < n, "none": lambda r: r == 0}
    assert expected[fallback](sum(ranked))
