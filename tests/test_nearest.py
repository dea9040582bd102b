"""The nearest-row search and the list proof against the oracle.

The search runs in rounds over the queries still unproven. Path points
are first ranked among their endpoints' nearest-row lists and proven by
Stewart's bound, exact where the two endpoints are equal, where those
candidates are fewer than the pool rows; then blocks are screened
with GEMM distances against slabs of the pool sorted on one coordinate,
proven by the key gap, then against the whole pool. A screen whose cut
is tied keeps four times more candidates, up to every column it screens,
so the whole pool's screen proves every query. Whichever round proves a
query, the output must be exactly the oracle's: same rows, same order,
ties toward the lower index.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmlp import density
from pmlp.core import PmlpConfig
from pmlp.density import batch_normalized_density
from pmlp.graph import knn_edges, neighbor_lists
from pmlp.synthlab import gen_gaussian_blobs, gen_two_moons

from nearest_oracle import nearest_rows_oracle

KINDS = ("normal", "integer_grid", "duplicated", "identical", "far")


def collected(queries, pool, count, ends=None, lists=None):
    """``density._nearest_rows`` gathered into (indices, squared distances),
    each (queries, count), checking that it yields every query once."""
    indices = np.empty((len(queries), count), dtype=np.intp)
    dist2 = np.empty((len(queries), count))
    seen = np.zeros(len(queries), dtype=int)
    for rows, idx, d2 in density._nearest_rows(queries, pool, count, ends, lists):
        indices[rows], dist2[rows] = idx, d2
        np.add.at(seen, rows, 1)
    assert np.all(seen == 1)
    return indices, dist2


def make_pool(kind, n, dim, offset, rng):
    if kind == "normal":
        pool = rng.normal(size=(n, dim))
    elif kind == "integer_grid":
        pool = rng.integers(-2, 3, size=(n, dim)).astype(float)
    elif kind == "duplicated":
        distinct = max(1, n // 4)
        pool = rng.normal(size=(distinct, dim))[rng.integers(0, distinct, n)]
    elif kind == "far":
        # Unit rows and one 300 away: the centred radius, and with it the
        # float32 screen's bound, outgrows the gaps between close rows.
        pool = rng.normal(size=(n, dim))
        pool[0, 0] += 300.0
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

    if self_excluded:
        got_idx, got_d2 = density._row_lists(pool, count)
    else:
        got_idx, got_d2 = collected(queries, pool, count)
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
        ("normal", 1e6, 1.0, "none"),  # centred rows: the offset cancels nothing
        ("far", 0.0, 1.0, "some"),  # a far row's radius swamps the close gaps
        ("normal", 0.0, 1.0, "none"),  # distinct distances: the screen proves all
    ],
)
def test_unprovable_cuts_take_the_exact_fallback(kind, offset, scale, fallback):
    """A cut the first keep leaves unproven widens its screen, for all, some
    or none of the queries (``fallback``), and few reach every pool row."""
    rng = np.random.default_rng(7)
    n = 400
    pool = make_pool(kind, n, 2, offset, rng) * scale
    got, _, _, ranked = rankings_counted(density._row_lists, pool, 5)
    want = nearest_rows_oracle(pool, pool, 5, np.arange(n))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert widened(ranked, 5 + 1 + density._SCREEN_MARGIN) == fallback
    # Ranked over every row: all of an identical pool, whose slabs span it;
    # all at 1e154 too, where an overflowing screen proves no cut short of
    # every column: the first slab block is a full one, all 400 queries,
    # so its slab spans the whole pool; none elsewhere, as a widened keep
    # proves the cut first.
    everywhere = {"identical": n, "normal": 400 if scale > 1 else 0, "far": 0}[kind]
    assert len(over_every_row(ranked, n)) == everywhere


@pytest.mark.parametrize(
    "offset, scale, dtype",
    [
        (0.0, 1.0, np.float32),
        (1e6, 1.0, np.float32),  # centred, the offset is gone
        (0.0, 1e154, np.float64),  # float32 squares would overflow
        (0.0, 1e-160, np.float64),  # float32 squares would be subnormal
        (1e308, 1e307, np.float64),  # the mean overflows: centred on zero
    ],
)
def test_screens_take_float32_where_its_squares_are_normal(offset, scale, dtype):
    """A pass screens in float32 or float64 by its centred radius, and
    matches the oracle either way: every row's list and path midpoints."""
    rng = np.random.default_rng(7)
    n = 400
    pool = make_pool("normal", n, 32, 0.0, rng) * scale + offset
    a, b = rng.integers(0, n, 200), rng.integers(0, n, 200)
    dtypes = []
    screen = density._screen

    def spy(q, pool, lifted, *rest):
        dtypes.append(lifted.dtype)
        return screen(q, pool, lifted, *rest)

    midpoints = pool[a] + 0.5 * (pool[b] - pool[a])
    for call, args, oracle_args in [
        (density._row_lists, (pool, 5), (pool, pool, 5, np.arange(n))),
        (collected, (midpoints, pool, 45), (midpoints, pool, 45)),
    ]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(density, "_screen", spy)
            got = screens_counted(call, *args)[0]
        with np.errstate(over="ignore"):
            want = nearest_rows_oracle(*oracle_args)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
    assert dtypes and set(dtypes) == {np.dtype(dtype)}


def test_tied_cuts_are_proven_by_a_widened_keep():
    """Two blobs of 4,000 rows on a grid of 0.5 hold 190 distinct rows, so
    most cuts tie among copies: a screen four or sixteen times wider proves
    them, and no query is ranked over every row."""
    means = np.zeros((2, 2))
    means[1, 0] = 3.0
    data = gen_gaussian_blobs(means, 1.0, 2000, 1, seed=1000).features
    pool = np.round(data / 0.5) * 0.5
    n = len(pool)
    got, _, _, ranked = rankings_counted(density._row_lists, pool, 6)
    want = nearest_rows_oracle(pool, pool, 6, np.arange(n))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    keep = 6 + 1 + density._SCREEN_MARGIN
    assert any(keep < c < columns for _, c, columns in ranked if columns is not None)
    assert len(over_every_row(ranked, n)) == 0


def listed_rows_counted(queries, pool, count, ends, lists):
    """The search with endpoint lists, and how many queries the lists left:
    None where the search ran no list round."""
    proven = []
    listed = density._listed_rows

    def spy(*args):
        got = listed(*args)
        proven.append(got[0].size)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_listed_rows", spy)
        got = collected(queries, pool, count, ends, lists)
    return got, (len(queries) - sum(proven)) if proven else None


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.sampled_from([1, 2, 32]),
    n=st.integers(3, 60),
    offset=st.sampled_from([0.0, 1e6]),
    length_fraction=st.one_of(st.none(), st.floats(0.0, 1.0)),
    count_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    path=st.none(),
)
# Points at d = 32, far from the origin: the lists prove every one.
@example(
    kind="normal", dim=32, n=60, offset=1e6, length_fraction=None,
    count_fraction=0.05, seed=17, path="proven",
)
# Every distance ties, so the bound cannot separate the n-th support.
@example(
    kind="identical", dim=2, n=40, offset=0.0, length_fraction=0.4,
    count_fraction=0.2, seed=0, path="fallback",
)
# Lists as long as the supports need: some points are proven, some not.
@example(
    kind="normal", dim=1, n=40, offset=1e6, length_fraction=None,
    count_fraction=0.1, seed=5, path="both",
)
def test_list_proof_matches_oracle(
    kind, dim, n, offset, length_fraction, count_fraction, seed, path
):
    """Supports proven from endpoint lists are exactly the oracle's."""
    rng = np.random.default_rng(seed)
    pool = make_pool(kind, n, dim, offset, rng)
    # path points between distinct rows, as the path KDE queries them
    a = rng.integers(0, n, 40)
    b = (a + rng.integers(1, n, 40)) % n
    fracs = rng.choice([0.5, 1 / 3, 2 / 3, 0.25], 40)
    queries = pool[a] + fracs[:, None] * (pool[b] - pool[a])
    ends = np.column_stack([a, b])
    count = 1 + int(count_fraction * (n - 1))  # 1 .. n
    if length_fraction is None:
        length = density._list_length(count, n)
    else:
        length = 1 + int(length_fraction * (n - 2))  # 1 .. n - 1
    lists = nearest_rows_oracle(pool, pool, length, np.arange(n))

    (got_idx, got_d2), fallen = listed_rows_counted(queries, pool, count, ends, lists)
    want_idx, want_d2 = nearest_rows_oracle(queries, pool, count)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)

    # The list round runs only where a point's candidates, its ends and
    # their lists, are at least the count and fewer than the pool rows.
    assert (fallen is None) == (not count <= 2 * (length + 1) < n)
    if fallen is None:
        assert path is None
    elif kind == "identical":
        assert fallen == len(queries)
    expected = {
        "proven": lambda f: f == 0,
        "fallback": lambda f: f == len(queries),
        "both": lambda f: 0 < f < len(queries),
        None: lambda f: True,
    }
    assert expected[path](fallen)


@pytest.mark.parametrize("length", [29, 59])  # 2 (m + 1) = n, and every row
def test_lists_as_long_as_the_pool_skip_the_list_round(length):
    """A point's ends and their lists would be 2 (m + 1) >= n candidates,
    as many as a whole-pool screen ranks, so the search screens it at once,
    with the same result."""
    rng = np.random.default_rng(4)
    n, count = 60, 15
    pool = make_pool("normal", n, 2, 0.0, rng)
    lists = nearest_rows_oracle(pool, pool, length, np.arange(n))
    a = rng.integers(0, n, 100)
    b = lists[0][a, rng.integers(0, 5, 100)]
    queries = pool[a] + 0.5 * (pool[b] - pool[a])
    ends = np.column_stack([a, b])
    (got_idx, got_d2), fallen = listed_rows_counted(queries, pool, count, ends, lists)
    want_idx, want_d2 = nearest_rows_oracle(queries, pool, count)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)
    assert fallen is None


def path_point_bounds(queries, pool, count, ends, lists):
    """Per query: d_n, Stewart's bound, whether its pair has zero length,
    and the nearest row outside both lists.

    All squared and without rounding slack, from the oracle's distances:
    a point the bound leaves open here is open for ``_listed_rows`` too.
    At zero length the bound is max(r_m(a)^2, r_m(b)^2).
    """
    list_rows, list_d2 = lists
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = np.array([np.sum((pool - q) ** 2, axis=1) for q in queries])
        d_n = np.sort(d2, axis=1)[:, count - 1]
        r2 = list_d2[ends, -1]
        alpha, beta = np.sqrt(d2[np.arange(len(queries))[:, None], ends]).T
        stewart = (beta * r2[:, 0] + alpha * r2[:, 1]) / (alpha + beta)
        stewart -= alpha * beta
    zero = np.all(pool[ends[:, 0]] == pool[ends[:, 1]], axis=1)
    stewart[zero] = r2[zero].max(axis=1)
    outside = d2.copy()
    for row, (a, b) in enumerate(ends):
        outside[row, [a, b, *list_rows[a], *list_rows[b]]] = np.inf
    return d_n, stewart, zero, outside.min(axis=1)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.sampled_from([1, 2, 32]),
    n=st.integers(3, 60),
    offset=st.sampled_from([0.0, 1e6]),
    scale=st.sampled_from([1.0, 1e154]),
    knn=st.booleans(),
    count_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    path=st.none(),
)
# kNN-edge points that Stewart's bound proves at L > 0.
@example(
    kind="normal", dim=2, n=60, offset=0.0, scale=1.0, knn=True,
    count_fraction=0.2, seed=0, path="stewart",
)
# kNN pairs between copies of a row: points at L = 0, which only the exact
# bound there, max(r_m(a)^2, r_m(b)^2), proves.
@example(
    kind="duplicated", dim=2, n=60, offset=0.0, scale=1.0, knn=True,
    count_fraction=0.1, seed=0, path="zero",
)
# Ties at d_n, and points at 1/3 off by a rounding: without its slack,
# Stewart's bound proves a point that a lower-index row outside both lists
# beats.
@example(
    kind="integer_grid", dim=2, n=15, offset=0.0, scale=1.0, knn=False,
    count_fraction=0.1, seed=863, path="tie",
)
# At 1e6 the points lie off their segments by a rounding of the
# coordinates, which only the slack's absolute term covers.
@example(
    kind="integer_grid", dim=2, n=47, offset=1e6, scale=1.0, knn=False,
    count_fraction=0.2, seed=170, path="offset",
)
# Squares overflow: an infinite r_m(e) proves nothing, even with d_n finite.
@example(
    kind="normal", dim=2, n=40, offset=1e6, scale=1e154, knn=False,
    count_fraction=0.3, seed=0, path="overflow",
)
def test_path_point_bounds_match_oracle(
    kind, dim, n, offset, scale, knn, count_fraction, seed, path
):
    """Stewart's bound, with lists as long as ``_list_length`` makes them.

    Pairs are kNN edges (an end and one of its 5 nearest rows) or any two
    rows. Each ``@example`` reaches the list round, 2 (m + 1) < n, and
    needs one part of the proof: Stewart's bound at L > 0, its exact form
    at L = 0, or the rounding slack that a tie, a point off its segment
    by rounding or an overflow would break.
    """
    rng = np.random.default_rng(seed)
    pool = make_pool(kind, n, dim, offset, rng) * scale
    count = 1 + int(count_fraction * (n - 1))  # 1 .. n
    length = density._list_length(count, n)
    with np.errstate(over="ignore"):
        lists = nearest_rows_oracle(pool, pool, length, np.arange(n))
    a = rng.integers(0, n, 40)
    if knn:
        b = lists[0][a, rng.integers(0, min(5, length), 40)]
    else:
        b = (a + rng.integers(1, n, 40)) % n
    fracs = rng.choice([0.5, 1 / 3, 2 / 3, 0.25], 40)
    queries = pool[a] + fracs[:, None] * (pool[b] - pool[a])
    ends = np.column_stack([a, b])

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (got_idx, got_d2), fallen = listed_rows_counted(
            queries, pool, count, ends, lists
        )
    with np.errstate(over="ignore"):
        want_idx, want_d2 = nearest_rows_oracle(queries, pool, count)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)
    assert (fallen is None) == (2 * (length + 1) >= n)
    assert path is None or fallen is not None

    d_n, stewart, zero, outside = path_point_bounds(queries, pool, count, ends, lists)
    open_under = stewart < d_n * (1 - 1e-9)
    expected = {
        # a point at L > 0 is proven
        "stewart": lambda: fallen < np.count_nonzero(~zero),
        # a point at L = 0 is proven: without the rule, every one falls
        "zero": lambda: fallen < np.count_nonzero(zero | open_under),
        # a row outside both lists lies exactly at a point's d_n
        "tie": lambda: np.any(outside == d_n),
        # the output is exact, as asserted above
        "offset": lambda: True,
        # a bound is not finite where d_n is
        "overflow": lambda: np.any(~np.isfinite(stewart) & np.isfinite(d_n)),
        None: lambda: True,
    }
    assert expected[path]()


def kde_queries(features, count):
    """Midpoints of the kNN edges and their endpoints, as ``run_pmlp`` asks."""
    edges = knn_edges(features, count)
    pairs = np.unique(np.sort(edges, axis=1), axis=0)
    low, high = features[pairs[:, 0]], features[pairs[:, 1]]
    return low + 0.5 * (high - low), pairs


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_low_d_midpoints_are_proven_from_the_lists(offset):
    """At an offset of 1e6 the midpoints' rounding grows with the
    coordinates, and Stewart's slack must still prove them."""
    moons = gen_two_moons(n=1000, noise=0.1, labeled_per_class=2, seed=1).features
    features = moons + offset
    queries, pairs = kde_queries(features, 5)
    lists = neighbor_lists(features, PmlpConfig(kde_support_n=15, neighbor_count=5))
    assert lists[0].shape == (1000, density._list_length(15, 1000))
    (got_idx, got_d2), fallen = listed_rows_counted(
        queries, features, 15, pairs, lists
    )
    want_idx, want_d2 = nearest_rows_oracle(queries, features, 15)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)
    # The list pass proves 99% of these midpoints on two moons.
    assert 0 < fallen < 0.02 * len(queries)


def test_high_d_ranks_candidates_for_the_first_block_only(monkeypatch):
    means = np.eye(32)[:4] * 3.0
    features = gen_gaussian_blobs(means, 1.0, 250, 1, seed=2).features
    queries, pairs = kde_queries(features, 6)
    lists = neighbor_lists(features, PmlpConfig(kde_support_n=15, neighbor_count=6))
    width = 2 * (lists[0].shape[1] + 1)  # both ends and their lists
    ranked = []
    distances = density._distances

    def spy(queries, pool, candidates):
        if candidates.shape[1] == width:
            ranked.append(queries.shape[0])
        return distances(queries, pool, candidates)

    monkeypatch.setattr(density, "_distances", spy)
    (got_idx, got_d2), fallen = listed_rows_counted(
        queries, features, 15, pairs, lists
    )
    want_idx, want_d2 = nearest_rows_oracle(queries, features, 15)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)
    # Distances concentrate at d=32: Stewart's bound proves a few points,
    # and once a block proves fewer than half of its points, the rest go
    # straight to the screens. That block is the round's first, and a full
    # one: its candidate arrays fill half of the element budget.
    m = lists[0].shape[1]
    block = density._CHUNK_ELEMENTS // (4 * (m + 1) * (features.shape[1] + 4))
    assert ranked == [block]
    assert 0 < len(queries) - fallen < sum(ranked) / 2
    assert sum(ranked) < len(queries) / 8


# Block boundaries. The pools above are small enough that every call is one
# block; these runs shrink the element budget and the screen's minimum block
# so that each block holds 1-3 queries and, with 25 queries, the last block
# of 2 or 3 is partial.
QUERIES = 25


def kernel_budget(per_block, n, count, dim):
    """A budget that gives ``_nearest_rows`` blocks of ``per_block`` queries."""
    return per_block * (2 * n + (count + density._SCREEN_MARGIN) * dim)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.sampled_from([1, 2, 32]),
    n=st.integers(2, 60),
    offset=st.sampled_from([0.0, 1e6]),
    self_excluded=st.booleans(),
    count_fraction=st.floats(0.0, 1.0),
    per_block=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_blocks_match_oracle(
    kind, dim, n, offset, self_excluded, count_fraction, per_block, seed
):
    """Small blocks, a partial last one, and the KDE reduced block by block.

    Self-excluded queries are pool rows, so they are read from every row's
    list at those rows; the KDE reduces the search's own blocks."""
    rng = np.random.default_rng(seed)
    pool = make_pool(kind, n, dim, offset, rng)
    if self_excluded:
        rows = rng.integers(0, n, QUERIES)
        queries = pool[rows]
        count = 1 + int(count_fraction * (n - 2))  # 1 .. n - 1
    else:
        a, b = rng.integers(0, n, QUERIES), rng.integers(0, n, QUERIES)
        queries = pool[a] + 0.5 * (pool[b] - pool[a])
        count = 1 + int(count_fraction * (n - 1))  # 1 .. n

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_MIN_SCREEN_BLOCK", 1)
        patch.setattr(
            density, "_CHUNK_ELEMENTS", kernel_budget(per_block, n, count, dim)
        )
        if self_excluded:
            got_idx, got_d2 = (part[rows] for part in density._row_lists(pool, count))
        else:
            got_idx, got_d2 = collected(queries, pool, count)
        kde = batch_normalized_density(queries, pool, count, 0.5)
    if self_excluded:
        want_idx, want_d2 = (
            part[rows] for part in nearest_rows_oracle(pool, pool, count, np.arange(n))
        )
    else:
        want_idx, want_d2 = nearest_rows_oracle(queries, pool, count)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)
    _, support_d2 = nearest_rows_oracle(queries, pool, count)
    assert np.max(np.abs(kde - np.mean(np.exp(-support_d2 / 0.5), axis=1))) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.sampled_from([1, 2, 32]),
    n=st.integers(3, 60),
    offset=st.sampled_from([0.0, 1e6]),
    length_fraction=st.one_of(st.none(), st.floats(0.0, 1.0)),
    count_fraction=st.floats(0.0, 1.0),
    per_block=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_list_proof_blocks_match_oracle(
    kind, dim, n, offset, length_fraction, count_fraction, per_block, seed
):
    """The list proof and the path KDE in blocks of 1-3 path points."""
    rng = np.random.default_rng(seed)
    pool = make_pool(kind, n, dim, offset, rng)
    a = rng.integers(0, n, QUERIES)
    b = (a + rng.integers(1, n, QUERIES)) % n
    fracs = rng.choice([0.5, 1 / 3, 2 / 3, 0.25], QUERIES)
    queries = pool[a] + fracs[:, None] * (pool[b] - pool[a])
    ends = np.column_stack([a, b])
    count = 1 + int(count_fraction * (n - 1))  # 1 .. n
    if length_fraction is None:
        length = density._list_length(count, n)
    else:
        length = 1 + int(length_fraction * (n - 2))  # 1 .. n - 1
    lists = nearest_rows_oracle(pool, pool, length, np.arange(n))
    width = 2 * (length + 1)  # both ends and their lists

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_MIN_SCREEN_BLOCK", 1)
        patch.setattr(density, "_CHUNK_ELEMENTS", per_block * 2 * width * (dim + 4))
        got_idx, got_d2 = collected(queries, pool, count, ends, lists)
        kde = density._kernel_means(queries, pool, count, 0.5, ends, lists)
    want_idx, want_d2 = nearest_rows_oracle(queries, pool, count)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)
    assert np.max(np.abs(kde - np.mean(np.exp(-want_d2 / 0.5), axis=1))) <= 1e-12


@pytest.mark.parametrize(
    "kind, offset", [("normal", 0.0), ("duplicated", 0.0), ("integer_grid", 1e6)]
)
def test_path_kde_is_the_same_with_and_without_lists(kind, offset):
    """Endpoint lists change which round proves a point, never a bit."""
    rng = np.random.default_rng(11)
    n, count = 300, 15
    pool = make_pool(kind, n, 2, offset, rng)
    lists = density._row_lists(pool, support_n=count)
    # kNN pairs, which the lists prove, and any pairs, which they may not
    a = rng.integers(0, n, 200)
    b = np.where(
        np.arange(200) < 100,
        lists[0][a, rng.integers(0, 5, 200)],
        (a + rng.integers(1, n, 200)) % n,
    )
    fracs = rng.choice([0.5, 1 / 3, 2 / 3, 0.25], 200)
    points = pool[a] + fracs[:, None] * (pool[b] - pool[a])
    ends = np.column_stack([a, b])

    plain = density._kernel_means(points, pool, count, 0.5)
    (_, _), fallen = listed_rows_counted(points, pool, count, ends, lists)
    listed = density._kernel_means(points, pool, count, 0.5, ends, lists)
    assert np.array_equal(plain, listed)
    assert 0 < fallen < len(points)


def test_the_kde_runs_one_search_per_pool(monkeypatch):
    """One ``_kernel_means`` call is one ``_nearest_rows`` search, however
    many blocks the budget makes, so the pool is lifted once: every
    whole-pool screen reads a view of the same lifted array."""
    rng = np.random.default_rng(3)
    n, count = 200, 5  # few enough rows that the search skips the slabs
    pool = make_pool("normal", n, 2, 0.0, rng)
    a, b = rng.integers(0, n, 400), rng.integers(0, n, 400)
    queries = pool[a] + 0.5 * (pool[b] - pool[a])
    # The supports of 100 queries fill this budget: four KDE blocks, had
    # the KDE cut its queries into blocks of its own.
    monkeypatch.setattr(density, "_CHUNK_ELEMENTS", 100 * 2 * count)
    searches, lifted = [], []
    nearest_rows, screen = density._nearest_rows, density._screen

    def search_spy(queries, *rest):
        searches.append(len(queries))
        return nearest_rows(queries, *rest)

    def screen_spy(q, pool, columns, rows, *rest):
        if columns.shape[1] == n:
            lifted.append(columns)  # kept alive, so no id is reused
        return screen(q, pool, columns, rows, *rest)

    monkeypatch.setattr(density, "_nearest_rows", search_spy)
    monkeypatch.setattr(density, "_screen", screen_spy)
    got = density._kernel_means(queries, pool, count, 0.5)
    _, want_d2 = nearest_rows_oracle(queries, pool, count)
    assert np.max(np.abs(got - np.mean(np.exp(-want_d2 / 0.5), axis=1))) <= 1e-12
    assert searches == [len(queries)]
    assert len(lifted) > 1 and lifted[0].base is not None
    assert all(columns.base is lifted[0].base for columns in lifted)


def test_kde_memory_stays_within_the_block_budget(monkeypatch):
    """The KDE never holds a (queries x supports) array beyond one block.

    About 20,000 path points with 45 supports: the full index, distance
    and kernel arrays would take 4 * 8 * Q * n bytes, about 29 MB. The
    budget is set far below that, so only a blocked reduction fits.
    tracemalloc counts numpy's buffers; the inputs are allocated first.
    """
    import tracemalloc

    features = gen_two_moons(n=3000, noise=0.1, labeled_per_class=2, seed=1).features
    queries, pairs = kde_queries(features, 11)
    lists = neighbor_lists(features, PmlpConfig(kde_support_n=45, neighbor_count=11))
    budget = 250_000
    monkeypatch.setattr(density, "_CHUNK_ELEMENTS", budget)
    # Two budgets of block arrays, plus O(Q * d) for the result and the
    # query copies the fallback takes.
    bound = 2 * 8 * budget + 8 * queries.shape[0] * (features.shape[1] + 1)
    assert 4 * 8 * queries.shape[0] * 45 > 5 * bound
    tracemalloc.start()
    try:
        density._kernel_means(queries, features, 45, 0.05, pairs, lists)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_widened_screens_stay_within_the_block_budget(monkeypatch):
    """A tied pool's widened candidates are ranked in budget-sized chunks.

    5,000 path points in a pool of 1,000 identical rows at d = 32, with 45
    supports: every cut ties, so each screen widens to every column, and
    one screen block's direct differences, 67 queries x 1,000 rows x 32,
    would take about nine budgets. The bound allows three: the KDE block's
    supports, the screen with a copy of its unproven rows, and one
    ranking chunk; plus O(Q * d) for the result and the query copies.
    """
    import tracemalloc

    rng = np.random.default_rng(0)
    n, count = 1000, 45
    pool = make_pool("identical", n, 32, 0.0, rng)
    a, b = rng.integers(0, n, 5000), rng.integers(0, n, 5000)
    queries = pool[a] + 0.5 * (pool[b] - pool[a])
    budget = 250_000
    monkeypatch.setattr(density, "_CHUNK_ELEMENTS", budget)
    bound = 3 * 8 * budget + 8 * queries.shape[0] * (pool.shape[1] + 1)
    tracemalloc.start()
    try:
        got = density._kernel_means(queries, pool, count, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, np.ones(len(queries)))
    assert peak <= bound


# Slabs. The pools above hold at most 60 rows, fewer than a first slab
# needs (more than 2 * _FIRST_SLAB * (count + _SCREEN_MARGIN) rows), so they
# screen the whole pool. These use a few hundred rows and, where it says
# so, a first slab of one or two candidates' width, so that blocks are
# screened against slabs of the key-sorted pool, proven by their key gap,
# and sent round again until the whole pool is the slab.


def screens_counted(call, *args):
    """``call(*args)``, and the queries ``_screen`` saw: (slab, whole pool).

    Each entry is one block's queries. A whole-pool screen reads a column
    for every pool row; a slab screen, fewer. Library RuntimeWarnings are
    errors here.
    """
    slabs, whole = [], []
    screen = density._screen

    def spy(q, pool, lifted, rows, *rest):
        (whole if lifted.shape[1] == pool.shape[0] else slabs).append(q)
        return screen(q, pool, lifted, rows, *rest)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        patch.setattr(density, "_screen", spy)
        got = call(*args)
    return got, slabs, whole


def rankings_counted(call, *args):
    """``screens_counted(call, *args)``, and every ``_rank`` call: its
    queries, candidates per query, and the columns of the screen that made
    the call (None outside a screen)."""
    ranked, columns = [], [None]
    screen, rank = density._screen, density._rank

    def screen_spy(q, pool, lifted, *rest):
        columns[0] = lifted.shape[1]
        got = screen(q, pool, lifted, *rest)
        columns[0] = None
        return got

    def rank_spy(queries, pool, candidates, count):
        ranked.append((queries, candidates.shape[1], columns[0]))
        return rank(queries, pool, candidates, count)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_screen", screen_spy)
        patch.setattr(density, "_rank", rank_spy)
        return (*screens_counted(call, *args), ranked)


def widened(ranked, keep):
    """Which screened queries ``keep`` candidates left unproven: "none" (all
    ranked among ``keep``), "all" (all among every column of their screen)
    or "some"."""
    kinds = {
        "none" if candidates == keep else "all" if candidates == columns else "some"
        for _, candidates, columns in ranked
        if columns is not None
    }
    return kinds.pop() if len(kinds) == 1 else "some"


def over_every_row(ranked, n):
    """The queries ranked with every one of the ``n`` pool rows a candidate."""
    rows = [q for q, candidates, _ in ranked if candidates == n]
    return np.concatenate([ranked[0][0][:0]] + rows)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.sampled_from([1, 2, 3, 32]),
    n=st.integers(40, 400),
    offset=st.sampled_from([0.0, 1e6]),
    scale=st.sampled_from([1.0, 1e154]),
    self_excluded=st.booleans(),
    count=st.integers(1, 12),
    first_slab=st.sampled_from([1, 2, 8]),
    seed=st.integers(0, 2**32 - 1),
)
# Tied keys and tied distances at every slab edge, over several rounds.
@example(
    kind="integer_grid", dim=2, n=400, offset=0.0, scale=1.0,
    self_excluded=True, count=5, first_slab=1, seed=0,
)
@example(
    kind="duplicated", dim=1, n=300, offset=1e6, scale=1.0,
    self_excluded=False, count=3, first_slab=1, seed=1,
)
# A row just outside the slab lies exactly at the count-th distance, and
# its lower index ranks it first: the key gap must exceed that distance.
@example(
    kind="integer_grid", dim=2, n=60, offset=0.0, scale=1.0,
    self_excluded=True, count=3, first_slab=1, seed=3,
)
# Squares overflow: every query falls back, with no RuntimeWarning.
@example(
    kind="normal", dim=3, n=300, offset=1e6, scale=1e154,
    self_excluded=True, count=4, first_slab=2, seed=2,
)
def test_slabs_match_oracle(
    kind, dim, n, offset, scale, self_excluded, count, first_slab, seed
):
    rng = np.random.default_rng(seed)
    pool = make_pool(kind, n, dim, offset, rng) * scale
    if self_excluded:
        queries, exclude = pool, np.arange(n)
        call, args = density._row_lists, (pool, count)
    else:
        a, b = rng.integers(0, n, 100), rng.integers(0, n, 100)
        queries, exclude = pool[a] + 0.5 * (pool[b] - pool[a]), None
        call, args = collected, (queries, pool, count)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_FIRST_SLAB", first_slab)
        (got_idx, got_d2), slabs, whole = screens_counted(call, *args)
        kde, _, _ = screens_counted(batch_normalized_density, queries, pool, count, 0.5)
    with np.errstate(over="ignore"):
        want_idx, want_d2 = nearest_rows_oracle(queries, pool, count, exclude)
        _, support_d2 = nearest_rows_oracle(queries, pool, count)
        want_kde = np.mean(np.exp(-support_d2 / 0.5), axis=1)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)
    # A row's list is searched one row longer, and drops one. The slab
    # round takes the queries in key order; a slab that spans the pool, as
    # on tied keys or one block of all the queries, is a whole-pool screen.
    searched = count + 1 if self_excluded else count
    if 2 * first_slab * (searched + density._SCREEN_MARGIN) < n:
        with np.errstate(over="ignore", invalid="ignore"):
            axis = np.argmax(np.ptp(pool, axis=0))
        assert slabs or np.all(np.diff(whole[0][:, axis]) >= 0)
    assert np.max(np.abs(kde - want_kde)) <= 1e-12


@pytest.mark.parametrize("dim, widened", [(2, True), (1, False)])
def test_large_pools_widen_the_first_slab_above_d1(monkeypatch, dim, widened):
    """With ``_SLAB_ROWS`` lowered, 2,000 rows count as a large pool: at
    d = 2 the first slab widens as sqrt(rows), at d = 1 it stays narrow."""
    rng = np.random.default_rng(5)
    n, count = 2000, 5
    keep = count + density._SCREEN_MARGIN
    pool = rng.normal(size=(n, dim))
    monkeypatch.setattr(density, "_SLAB_ROWS", 10)
    assert n > density._SLAB_ROWS * keep
    blocks = []
    screen = density._screen

    def spy(q, pool, lifted, *rest):
        blocks.append((q.shape[0], lifted.shape[1]))
        return screen(q, pool, lifted, *rest)

    monkeypatch.setattr(density, "_screen", spy)
    got_idx, got_d2 = collected(pool, pool, count)
    want_idx, want_d2 = nearest_rows_oracle(pool, pool, count)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)
    # The first block holds the lowest keys, so its slab runs from sorted
    # row 0 to ``width`` rows past its own (distinct keys).
    queries, columns = blocks[0]
    narrow = density._FIRST_SLAB * keep
    if widened:
        assert columns > 2 * narrow
    else:
        assert columns == queries + narrow


@pytest.mark.parametrize("first_slab", [1, 8])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize(
    "kind, offset, scale, fallback",
    [
        ("identical", 0.0, 1.0, "all"),  # every key gap and cut is a tie
        ("normal", 0.0, 1e154, "all"),  # the screen's squares would overflow
        ("normal", 1e6, 1.0, "none"),  # centred rows: the offset cancels nothing
        ("far", 0.0, 1.0, "some"),  # a far row's radius swamps the close gaps
        ("normal", 0.0, 1.0, "none"),  # slabs, then the pool, prove all
    ],
)
def test_unprovable_slab_cuts_take_the_exact_fallback_once(
    monkeypatch, kind, offset, scale, fallback, dim, first_slab
):
    """``test_unprovable_cuts_take_the_exact_fallback`` over several slab
    rounds and dims: no query is ranked over every pool row twice."""
    rng = np.random.default_rng(7)
    n = 1000
    pool = make_pool(kind, n, dim, offset, rng) * scale
    monkeypatch.setattr(density, "_FIRST_SLAB", first_slab)
    got, slabs, whole, ranked = rankings_counted(density._row_lists, pool, 5)
    with np.errstate(over="ignore"):
        want = nearest_rows_oracle(pool, pool, 5, np.arange(n))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    if kind == "identical":  # every key ties: each slab spans the pool
        assert not slabs and sum(len(q) for q in whole) == n
    else:
        assert slabs
    assert widened(ranked, 5 + 1 + density._SCREEN_MARGIN) == fallback
    fallen = over_every_row(ranked, n)
    # Ranked over every row: all of an identical pool, whose slabs span it;
    # at 1e154 and d = 3, those whose key gap an overflowing distance
    # leaves open, and at d = 1, where the key gap is the distance, none;
    # none elsewhere, as a widened keep proves the cut first.
    if kind == "identical":
        assert len(fallen) == n
    elif scale > 1 and dim > 1:
        assert 0 < len(fallen) < n
    else:
        assert len(fallen) == 0
    if kind != "identical":  # distinct rows: none ranked twice
        assert np.unique(fallen, axis=0).shape[0] == len(fallen)


def test_unprovable_list_points_take_the_exact_fallback_once(monkeypatch):
    """With endpoint lists too, each point is ranked over every row once.

    Every distance ties in an identical pool, so the lists prove no point
    and no screen proves a cut before it keeps every column. Every key
    ties too, so each slab spans the pool: the slab round ranks each point
    over every row, once, a slab of every row proves it, and the
    whole-pool round is left nothing: each point is screened once.
    """
    rng = np.random.default_rng(7)
    n, count = 1000, 5
    pool = make_pool("identical", n, 3, 0.0, rng)
    a = rng.integers(0, n, 400)
    b = (a + rng.integers(1, n, 400)) % n
    queries = pool[a] + 0.5 * (pool[b] - pool[a])
    ends = np.column_stack([a, b])
    lists = nearest_rows_oracle(pool, pool, density._list_length(count, n), np.arange(n))
    listed = []
    listed_rows = density._listed_rows

    def list_spy(*args):
        got = listed_rows(*args)
        listed.append(got[0].size)
        return got

    monkeypatch.setattr(density, "_listed_rows", list_spy)
    got, slabs, whole, ranked = rankings_counted(
        collected, queries, pool, count, ends, lists
    )
    want_idx, want_d2 = nearest_rows_oracle(queries, pool, count)
    assert np.array_equal(got[0], want_idx)
    assert np.array_equal(got[1], want_d2)
    assert listed and not any(listed)
    assert not slabs and sum(len(q) for q in whole) == len(queries)
    assert widened(ranked, count + density._SCREEN_MARGIN) == "all"
    assert len(over_every_row(ranked, n)) == len(queries)


def test_low_d_lists_are_proven_in_slabs(monkeypatch):
    data = gen_two_moons(n=2000, noise=0.1, labeled_per_class=2, seed=4).features
    columns = []
    screen = density._screen

    def spy(q, pool, lifted, *rest):
        columns.append(lifted)
        return screen(q, pool, lifted, *rest)

    monkeypatch.setattr(density, "_screen", spy)
    (got_idx, got_d2), slabs, whole = screens_counted(
        density._row_lists, data, 5, 15
    )
    length = density._list_length(15, 2000)
    want_idx, want_d2 = nearest_rows_oracle(data, data, length, np.arange(2000))
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)
    # Every row is screened in slabs, and none needs the whole pool.
    assert sum(q.shape[0] for q in slabs) >= 2000
    assert not whole
    # One search lifts the pool once: each slab is a view of that array,
    # not a copy of its columns.
    lifted = columns[0].base
    assert lifted is not None and lifted.shape[1] == len(data)
    assert all(slab.base is lifted for slab in columns)


def assert_whole_pool_blocks(whole, queries, n, count):
    """The whole-pool screens ``whole`` took ``queries`` in row order, in
    full blocks of max(``_MIN_SCREEN_BLOCK``, ``_CHUNK_ELEMENTS`` // (2 n
    + keep d)) queries but the last, as every round's blocks are.
    ``count`` is the count searched."""
    keep, dim = count + density._SCREEN_MARGIN, queries.shape[1]
    budget = density._CHUNK_ELEMENTS // (2 * n + keep * dim)
    block = max(density._MIN_SCREEN_BLOCK, budget)
    sizes = [len(q) for q in whole]
    assert all(size == block for size in sizes[:-1]) and 0 < sizes[-1] <= block
    assert np.array_equal(np.concatenate(whole), queries)


def first_slab_block(queries, pool, count):
    """How many queries, in key order, fill the element budget with the
    first slab round's span, at the first slab's width (a pool too small
    for it to widen as sqrt(rows)), as ``_nearest_rows`` sizes a block."""
    keep, (n, dim) = count + density._SCREEN_MARGIN, pool.shape
    assert n <= density._SLAB_ROWS * keep
    width = density._FIRST_SLAB * keep
    axis = np.argmax(np.ptp(pool, axis=0))
    keys, key = np.sort(pool[:, axis]), np.sort(queries[:, axis])
    a = max(np.searchsorted(keys, key[0], "left") - width, 0)
    b = np.minimum(np.searchsorted(keys, key, "right") + width, n)
    size = np.arange(1, key.size + 1)
    fit = np.count_nonzero(size * (2 * (b - a) + keep * dim) <= density._CHUNK_ELEMENTS)
    return max(density._MIN_SCREEN_BLOCK, fit)


def test_high_d_leaves_the_slabs_after_one_block():
    means = np.eye(32)[:4] * 3.0
    data = gen_gaussian_blobs(means, 1.0, 300, 1, seed=2).features
    queries = data[::2]
    (got_idx, got_d2), slabs, whole = screens_counted(collected, queries, data, 6)
    want_idx, want_d2 = nearest_rows_oracle(queries, data, 6)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)
    # Distances concentrate at d=32: the first slab block, a full one that
    # fills the element budget, proves under half of its queries, so every
    # query, in row order, is screened against the whole pool, in several
    # full blocks.
    assert len(slabs) == 1 and len(whole) > 1
    assert len(slabs[0]) == first_slab_block(queries, data, 6)
    assert len(slabs[0]) > density._MIN_SCREEN_BLOCK
    assert_whole_pool_blocks(whole, queries, len(data), 6)


def test_small_pools_skip_the_slabs():
    rng = np.random.default_rng(3)
    pool = rng.normal(size=(2 * density._FIRST_SLAB * (5 + density._SCREEN_MARGIN), 2))
    got, slabs, whole = screens_counted(density._row_lists, pool, 5)
    want = nearest_rows_oracle(pool, pool, 5, np.arange(len(pool)))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    # One full block of every row: the whole pool is the first round.
    assert not slabs
    assert_whole_pool_blocks(whole, pool, len(pool), 5 + 1)


@pytest.mark.parametrize("support_n", [None, 15])
def test_small_pools_are_screened_in_row_order(monkeypatch, support_n):
    # harness compare's pools: 200 two-moons rows, 5 neighbors, and in
    # pmlp mode lists for 15 supports. The whole pool is the first round,
    # so it is not sorted on a key: every screen reads it in row order.
    pool = gen_two_moons(200, 0.1, 2, seed=4).features
    orders = []
    screen = density._screen

    def spy(q, pool, lifted, rows, *rest):
        orders.append(rows)
        return screen(q, pool, lifted, rows, *rest)

    monkeypatch.setattr(density, "_screen", spy)
    got = density._row_lists(pool, 5, support_n)
    count = got[0].shape[1]
    want = nearest_rows_oracle(pool, pool, count, np.arange(len(pool)))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert 2 * density._FIRST_SLAB * (count + 1 + density._SCREEN_MARGIN) >= len(pool)
    assert orders and all(np.array_equal(rows, np.arange(len(pool))) for rows in orders)


# Selection. ``_smallest`` finds each screen row's k smallest values from
# group minima; these patch ``_MIN_GROUP`` to 1 so that small screens are
# grouped too, with ``_GROUP_SCALE`` setting how wide the groups are.


def grouped_screen(width, k):
    """Whether ``_smallest`` groups a screen of ``width`` columns for k."""
    size = int(density._GROUP_SCALE * np.sqrt(width / k))
    return size >= density._MIN_GROUP and width // size >= k


@settings(max_examples=400, deadline=None)
@given(
    values=st.sampled_from(["normal", "few", "repeated", "infinite"]),
    rows=st.integers(1, 4),
    width=st.integers(1, 300),
    k_fraction=st.floats(0.0, 1.0),
    scale=st.sampled_from([0.6, 1.0, 2.0, 4.0]),
    seed=st.integers(0, 2**32 - 1),
)
# Every group kept, and one leftover column: k = 24 of 97 = 24 groups of 4, plus 1.
@example(values="normal", rows=2, width=97, k_fraction=0.625, scale=2.0, seed=0)
# Every value tied.
@example(values="repeated", rows=3, width=200, k_fraction=0.05, scale=2.0, seed=1)
def test_smallest_matches_a_stable_sort(values, rows, width, k_fraction, scale, seed):
    """The k smallest values, the k-th at k - 1, at distinct columns."""
    rng = np.random.default_rng(seed)
    k = 1 + int(k_fraction**3 * (width - 1))  # 1 .. width, mostly small
    if values == "normal":
        screen = rng.normal(size=(rows, width))
    elif values == "few":
        screen = rng.integers(0, 4, size=(rows, width)).astype(float)
    elif values == "repeated":
        screen = np.full((rows, width), rng.normal())
    else:
        screen = rng.normal(size=(rows, width))
        screen[rng.random((rows, width)) < 0.3] = np.inf
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_MIN_GROUP", 1)
        patch.setattr(density, "_GROUP_SCALE", scale)
        columns, kept = density._smallest(screen, k)
    want = np.sort(screen, axis=1, kind="stable")[:, :k]
    assert columns.shape == kept.shape == (rows, k)
    assert np.all((columns >= 0) & (columns < width))
    assert all(np.unique(row).size == k for row in columns)
    assert np.array_equal(np.take_along_axis(screen, columns, axis=1), kept)
    assert np.array_equal(np.sort(kept, axis=1), want)
    assert np.array_equal(kept[:, k - 1], want[:, k - 1])


def test_smallest_groups_the_benchmark_screens():
    """Whole-pool screens of 4,000-20,000 rows group at the grid's list and
    KDE lengths (k = 16, 54, 72), and of 1,000 rows at k = 16; 200-row
    screens, 1,000-row KDE screens and two moons' first slabs do not."""
    for width, k in [(5000, 16), (20000, 72), (4000, 54), (4000, 72), (1000, 16)]:
        assert grouped_screen(width, k)
    for width, k in [(200, 15), (200, 24), (1000, 54), (600, 32)]:
        assert not grouped_screen(width, k)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.sampled_from([2, 8, 32]),
    n=st.integers(40, 400),
    offset=st.sampled_from([0.0, 1e6]),
    self_excluded=st.booleans(),
    count=st.integers(1, 12),
    size=st.sampled_from([1, 2, 3, 5, 8]),
    seed=st.integers(0, 2**32 - 1),
)
# Pools of repeated rows: every cut is a tie among copies.
@example(
    kind="duplicated", dim=8, n=400, offset=0.0, self_excluded=True,
    count=5, size=8, seed=0,
)
@example(
    kind="identical", dim=32, n=200, offset=0.0, self_excluded=False,
    count=3, size=3, seed=1,
)
@example(
    kind="integer_grid", dim=2, n=300, offset=1e6, self_excluded=True,
    count=12, size=5, seed=2,
)
def test_grouped_screens_match_oracle(
    kind, dim, n, offset, self_excluded, count, size, seed
):
    """``_nearest_rows`` with whole-pool screens grouped ``size`` columns a
    group wherever the pool holds enough groups, and slabs as the rule
    makes them."""
    rng = np.random.default_rng(seed)
    pool = make_pool(kind, n, dim, offset, rng)
    if self_excluded:
        queries, exclude = pool, np.arange(n)
        call, args = density._row_lists, (pool, count)
    else:
        a, b = rng.integers(0, n, 100), rng.integers(0, n, 100)
        queries, exclude = pool[a] + 0.5 * (pool[b] - pool[a]), None
        call, args = collected, (queries, pool, count)
    # A row's list is searched one row longer, and drops one.
    k = count + int(self_excluded) + density._SCREEN_MARGIN + 1
    widths = []
    smallest = density._smallest

    def spy(screen, k):
        widths.append(screen.shape[1])
        return smallest(screen, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_MIN_GROUP", 1)
        patch.setattr(density, "_GROUP_SCALE", size * (1 + 1e-9) / np.sqrt(n / k))
        patch.setattr(density, "_smallest", spy)
        (got_idx, got_d2), _, _ = screens_counted(call, *args)
        if n in widths:
            assert grouped_screen(n, k) == (n // size >= k)
    want_idx, want_d2 = nearest_rows_oracle(queries, pool, count, exclude)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_d2, want_d2)


@pytest.mark.parametrize(
    "kind, offset, scale, fallback",
    [
        ("identical", 0.0, 1.0, "all"),  # every cut is a tie: nothing provable
        ("normal", 0.0, 1e154, "all"),  # the screen's squares would overflow
        ("normal", 1e6, 1.0, "none"),  # centred rows: the offset cancels nothing
        ("duplicated", 1e6, 1.0, "none"),  # copies tie within the first keep
        ("far", 0.0, 1.0, "some"),  # a far row's radius swamps the close gaps
        ("normal", 0.0, 1.0, "none"),  # distinct distances: the screen proves all
    ],
)
def test_grouped_cuts_take_the_exact_fallback(monkeypatch, kind, offset, scale, fallback):
    """``test_unprovable_cuts_take_the_exact_fallback`` with grouped screens:
    a non-finite screen, whose group minima may be NaN, is never proven
    before it keeps every column."""
    rng = np.random.default_rng(7)
    n = 400
    pool = make_pool(kind, n, 32, offset, rng) * scale
    monkeypatch.setattr(density, "_MIN_GROUP", 1)
    assert grouped_screen(n, 5 + 1 + density._SCREEN_MARGIN + 1)
    got, _, _, ranked = rankings_counted(density._row_lists, pool, 5)
    with np.errstate(over="ignore"):
        want = nearest_rows_oracle(pool, pool, 5, np.arange(n))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert widened(ranked, 5 + 1 + density._SCREEN_MARGIN) == fallback
    # Ranked over every row: all of an identical pool, whose slabs span it;
    # all at 1e154, as at d = 32 the first slab block's key gaps prove too
    # few and every query goes on to the whole pool; none elsewhere, as a
    # widened keep proves the cut first.
    everywhere = n if kind == "identical" or scale > 1 else 0
    assert len(over_every_row(ranked, n)) == everywhere
