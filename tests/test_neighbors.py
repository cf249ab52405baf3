"""Oracle tests for the blocked top-k neighbour kernel.

The reference is the textbook definition: the full distance row of each
query, ordered by ``np.lexsort((index, distance))``.
"""

from __future__ import annotations

import numpy as np
import pytest

from imbaml.evaluate import EvalTimeout
from imbaml.neighbors import (_MIN_SHARE, _POINT_BLOCK, _QUERY_BLOCK, NeighborGraph,
                              NeighborIndex, _top_k)

from helpers import CountingDeadline, overlapping_binary


def reference(points, queries, k, exclude_self=False):
    """With ``exclude_self`` the queries are the points, and query i drops
    point i from its order."""
    n = len(points)
    out = []
    for i, q in enumerate(np.atleast_2d(queries)):
        diff = q[None, :] - points
        d2 = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((np.arange(n), d2))
        if exclude_self:
            order = order[order != i]
        out.append(order[:k])
    return np.array(out)


def grid_points(seed, n, d=2, levels=4):
    """Integer grid: every distance is tied with many others, and many points
    are exact duplicates."""
    return np.random.default_rng(seed).integers(0, levels, size=(n, d)).astype(np.float64)


@pytest.mark.parametrize("k", [1, 2, 5, 40, 150, 10_000])
def test_grid_ties_and_duplicates(k):
    P = grid_points(0, 160)
    Q = grid_points(1, 37)
    assert np.array_equal(NeighborIndex(P).query_batch(Q, k), reference(P, Q, k))


@pytest.mark.parametrize("k", [1, 3, 40, 159, 160, 500])
def test_exclude_self_with_duplicates(k):
    P = grid_points(2, 160, levels=3)
    got = NeighborGraph(P).query(k)
    assert np.array_equal(got, reference(P, P, k, exclude_self=True))
    assert not (got == np.arange(len(P))[:, None]).any()


@pytest.mark.parametrize("k", [1, 4, 300])
def test_blocks_with_partial_tails(k):
    # neither count is a multiple of its block size, and both span several blocks
    n, m = 2 * _POINT_BLOCK + 77, 2 * _QUERY_BLOCK + 5
    P = np.round(np.random.default_rng(3).normal(size=(n, 3)), 1)
    Q = np.round(np.random.default_rng(4).normal(size=(m, 3)), 1)
    index = NeighborIndex(P)
    assert np.array_equal(index.query_batch(Q, k), reference(P, Q, k))
    assert np.array_equal(NeighborGraph(P).query(k), reference(P, P, k, exclude_self=True))


def test_distances_do_not_depend_on_blocking():
    n, m = _POINT_BLOCK + 3, _QUERY_BLOCK + 9
    P = np.random.default_rng(5).normal(size=(n, 7))
    Q = np.random.default_rng(6).normal(size=(m, 7))
    diff = Q[:, None, :] - P[None, :, :]
    whole = np.einsum("ijk,ijk->ij", diff, diff)
    assert NeighborIndex(P).distances(Q).tobytes() == whole.tobytes()


@pytest.mark.parametrize("k", [1, 3, 12, 30])
def test_inf_and_nan_order_like_lexsort(k):
    # PolynomialFeatures overflow yields inf; inf - inf yields NaN distances
    P = grid_points(7, 45, d=3)
    P[[3, 17, 30], 0] = np.inf
    P[[8, 22], 1] = -np.inf
    P[40] = 1e200  # finite, but its squared distance overflows to inf
    Q = np.vstack([grid_points(8, 20, d=3), P[[3, 8, 40]],
                   [[np.inf, 0.0, 0.0], [np.nan, 1.0, 1.0], [np.inf, -np.inf, 0.0]]])
    with np.errstate(invalid="ignore", over="ignore"):
        got = NeighborIndex(P).query_batch(Q, k)
        want = reference(P, Q, k)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 2, 5, 40])
@pytest.mark.parametrize("shape", [(8, 60), (64, 64), (128, 700)])
def test_top_k_of_a_block_orders_like_lexsort(shape, k):
    # few distinct values (wide ties), inf and NaN entries, and rows with
    # fewer than k non-NaN entries; then the same without NaN, which k <= 2
    # selects by first-minimum passes, with a row of fewer than k finite ones
    m, n = shape
    rng = np.random.default_rng(m + n + k)
    d2 = rng.integers(0, 6, size=shape).astype(np.float64)
    d2[rng.random(shape) < 0.05] = np.inf
    finite = d2.copy()
    finite[1, 1:] = np.inf
    d2[rng.random(shape) < 0.05] = np.nan
    d2[0] = np.nan
    d2[1, 1:] = np.nan
    for block in (d2, finite):
        want = np.array([np.lexsort((np.arange(n), row))[:k] for row in block])
        assert np.array_equal(_top_k(block, k), want)


def adversarial_points(kind, seed, n, d=4):
    """Point sets on which the product-formula screen has the least room."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        return grid_points(seed, n, d)
    if kind == "ulp":  # near-duplicates 1-2 ulp apart
        base = rng.normal(size=(n // 6, d))[rng.integers(0, n // 6, n)]
        return base + rng.integers(-2, 3, size=(n, d)) * np.spacing(base)
    if kind == "offset":  # the centring must not lose the spread
        return 1e8 + 1e-3 * rng.normal(size=(n, d))
    if kind == "scaled":
        return rng.normal(size=(n, d)) * np.logspace(-6, 6, d)
    if kind == "half":  # half-integers near 1e6: exact ties at large norms
        return 1e6 + rng.integers(-8, 9, size=(n, d)) / 2
    if kind == "tiny":  # products underflow into subnormals
        return 1e-160 * rng.integers(0, 4, size=(n, d)) + 1e-161 * rng.normal(size=(n, d))
    raise ValueError(kind)


KINDS = ("grid", "ulp", "offset", "scaled", "half", "tiny")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [1, 3, 74, 75])  # 4k < n = 300 <= 4 * 75
@pytest.mark.parametrize("exclude_self", [False, True])
def test_screen_matches_reference_on_adversarial_points(kind, k, exclude_self):
    P = adversarial_points(kind, 20, 300)
    if exclude_self:
        Q, got = P, NeighborGraph(P).query(k)
    else:
        Q = np.vstack([adversarial_points(kind, 21, 150), P[::37]])
        got = NeighborIndex(P).query_batch(Q, k)
    assert np.array_equal(got, reference(P, Q, k, exclude_self))


@pytest.mark.parametrize("k", [1, 5, 74, 75])
@pytest.mark.parametrize("case", ["nan_inf_rows", "overflowing_query", "overflowing_point"])
def test_non_finite_and_overflowing_blocks(case, k):
    # the second query block holds the bad rows; the first is ordinary
    P = np.round(np.random.default_rng(22).normal(size=(300, 3)), 2)
    Q = np.round(np.random.default_rng(23).normal(size=(_QUERY_BLOCK + 40, 3)), 2)
    if case == "nan_inf_rows":
        Q[_QUERY_BLOCK + np.arange(4)] = [[np.nan, 0, 0], [np.inf, 1, 1], [-np.inf, 0, 2],
                                          [np.inf, -np.inf, 0]]
    elif case == "overflowing_query":
        Q[_QUERY_BLOCK + 3] = 1e200
    else:
        P[17] = 1e200
    with np.errstate(invalid="ignore", over="ignore"):
        got = NeighborIndex(P).query_batch(Q, k)
        want = reference(P, Q, k)
    assert np.array_equal(got, want)


def test_ordinary_block_is_screened_without_full_distances(monkeypatch):
    P = np.random.default_rng(24).normal(size=(600, 5))
    Q = np.random.default_rng(25).normal(size=(2 * _QUERY_BLOCK, 5))
    Q[_QUERY_BLOCK + 7, 2] = np.nan  # only the second block falls back
    calls = []
    distances = NeighborIndex.distances

    def spy(self, queries, deadline=None):
        calls.append(len(queries))
        return distances(self, queries, deadline)

    monkeypatch.setattr(NeighborIndex, "distances", spy)
    for k in (1, 5):
        calls.clear()
        with np.errstate(invalid="ignore"):
            got = NeighborIndex(P).query_batch(Q, k)
            want = reference(P, Q, k)
        assert np.array_equal(got, want)
        assert calls == [_QUERY_BLOCK]
        calls.clear()
        NeighborGraph(P).query(k)
        assert calls == []


@pytest.mark.parametrize("kind", ["random", "offset", "scaled"])
@pytest.mark.parametrize("d", [1, 2, 5, 11, 31])
def test_gathered_distances_are_bit_equal_to_distances(kind, d):
    rng = np.random.default_rng(26 + d)
    P = rng.normal(size=(_POINT_BLOCK + 50, d))
    if kind == "offset":
        P = 1e8 + 1e-3 * P
    elif kind == "scaled":
        P *= np.logspace(-6, 6, d)
    Q = P[rng.integers(0, len(P), 70)] + rng.normal(size=(70, d)) * P.std(axis=0)
    index = NeighborIndex(P)
    cand = rng.integers(-1, len(P), size=(70, 40))
    got = index._gathered_distances(Q, cand)
    want = np.take_along_axis(index.distances(Q), np.maximum(cand, 0), axis=1)
    real = cand >= 0
    assert got[real].tobytes() == want[real].tobytes()
    assert np.isinf(got[~real]).all()


@pytest.mark.parametrize("index_type", [NeighborIndex])
@pytest.mark.parametrize("kind", KINDS)
def test_within_matches_brute_force(kind, index_type):
    P = adversarial_points(kind, 30, 300)
    index = index_type(P)
    full = index.distances(P)
    # radii on exact ties: each point's 5th smallest distance to the others
    radii = np.sort(full, axis=1)[:, 5].copy()
    radii[::7], radii[3::11] = np.inf, -np.inf
    for i in (0, 41, 299):
        hit, dist = index.within(P[i], radii)
        want = np.flatnonzero(full[i] <= radii)
        assert np.array_equal(hit, want)
        assert dist.tobytes() == full[i, want].tobytes()


def test_within_gets_exact_distances_for_the_screen_survivors_only(monkeypatch):
    P = np.random.default_rng(32).normal(size=(1000, 5))
    index = NeighborIndex(P)
    radii = np.full(len(P), np.sort(index.distances(P[:1])[0])[10])
    gathered = []
    gathered_distances = NeighborIndex._gathered_distances

    def spy(self, block, cand):
        gathered.append(cand.size)
        return gathered_distances(self, block, cand)

    monkeypatch.setattr(NeighborIndex, "_gathered_distances", spy)
    hit, _ = index.within(P[0], radii)
    assert len(hit) == 11 and gathered == [11]


@pytest.mark.parametrize("case", ["overflowing_point", "overflowing_query", "nan_point"])
def test_within_falls_back_on_non_finite_or_overflowing_input(case):
    P = np.round(np.random.default_rng(31).normal(size=(200, 3)), 2)
    q = P[5].copy()
    if case == "overflowing_point":
        P[17] = 1e200
    elif case == "overflowing_query":
        q[1] = -1e200
    else:
        P[17, 0] = np.nan
    radii = np.full(len(P), 2.0)
    radii[17] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        index = NeighborIndex(P)
        full = index.distances(q)[0]
        hit, dist = index.within(q, radii)
    want = np.flatnonzero(full <= radii)
    assert np.array_equal(hit, want)
    assert dist.tobytes() == full[want].tobytes()


class Counting:
    calls = 0

    def check(self):
        self.calls += 1


def test_deadline_checked_per_query_block():
    P = grid_points(10, 50)
    deadline = Counting()
    NeighborIndex(P).query_batch(grid_points(11, 2 * _QUERY_BLOCK + 1), 3, deadline=deadline)
    assert deadline.calls == 3


def test_deadline_checked_per_point_block_inside_one_query_block():
    P = grid_points(12, 2 * _POINT_BLOCK + 1)
    Q = grid_points(13, _QUERY_BLOCK)
    deadline = Counting()
    d2 = NeighborIndex(P).distances(Q, deadline)
    assert deadline.calls == 3
    assert d2.tobytes() == NeighborIndex(P).distances(Q).tobytes()
    deadline = Counting()
    NeighborIndex(P).query_batch(Q, 3, deadline=deadline)
    assert deadline.calls == 3


def test_no_neighbours_available():
    with pytest.raises(ValueError):
        NeighborGraph(np.zeros((1, 2))).query(1)


# ------------------------------------------------------ graph-served queries

def direct(points, k, members, include_self):
    """The query a graph serves, asked of the subset's own points."""
    if include_self:
        return NeighborIndex(points).query_batch(points[members], min(k, len(points)))
    return reference(points, points, k, exclude_self=True)[members]


def subset_rows(seed, n, share):
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=max(2, round(share * n)), replace=False))


def check_served(graph, rows, k, members=None, include_self=False):
    points = graph.points[rows]
    own = np.arange(rows.size) if members is None else members
    got = graph.query(k, rows, members, include_self)
    assert np.array_equal(got, direct(points, k, own, include_self))


@pytest.mark.parametrize("share", [1 / 9, 1 / 3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("k", [1, 2, 5, 17])
@pytest.mark.parametrize("include_self", [False, True])
def test_graph_matches_direct_query_on_subsets(share, k, include_self):
    # grid points: many exact duplicates and tied distances
    graph = NeighborGraph(grid_points(20, 180))
    for trial in range(4):
        rows = subset_rows(trial, 180, share)
        members = np.sort(np.random.default_rng(trial).choice(
            rows.size, size=rows.size // 3, replace=False))
        check_served(graph, rows, k, None, include_self)
        check_served(graph, rows, k, members, include_self)


@pytest.mark.parametrize("include_self", [False, True])
def test_graph_k_up_to_every_other_row(include_self):
    graph = NeighborGraph(grid_points(21, 60))
    for share in (0.6, 0.9, 1.0):
        rows = subset_rows(3, 60, share)
        for k in (rows.size - 2, rows.size - 1, rows.size, rows.size + 5):
            check_served(graph, rows, k, None, include_self)


def test_graph_subsets_of_subsets():
    # AllKNN queries each edited set again: rows of rows, one graph
    graph = NeighborGraph(grid_points(22, 150, levels=5))
    rng = np.random.default_rng(4)
    rows = np.arange(150)
    while rows.size > 60:
        rows = np.sort(rng.choice(rows, size=rows.size - 15, replace=False))
        for k in (1, 3, 8):
            check_served(graph, rows, k)


def test_graph_row_crowded_out_of_its_own_top_k():
    # rows 0-5 are one point: row 5's include-self top 3 is rows 0, 1, 2
    P = np.vstack([np.zeros((6, 2)), grid_points(23, 40) + 1.0])
    graph = NeighborGraph(P)
    rows = np.arange(46)
    assert graph.query(3, rows, np.array([5]), include_self=True).tolist() == [[0, 1, 2]]
    assert graph.query(3, rows, np.array([1]), include_self=True).tolist() == [[0, 1, 2]]
    assert graph.query(3, rows, np.array([5])).tolist() == [[0, 1, 2]]
    for share in (0.6, 0.8):
        check_served(graph, np.union1d(np.arange(6), subset_rows(5, 46, share)), 3,
                     np.arange(6), include_self=True)


@pytest.mark.parametrize("n_classes", [2, 3, 10])
def test_graph_per_class_subsets(n_classes):
    # one graph per class, queried with the class's rows of each fold
    rng = np.random.default_rng(n_classes)
    P = grid_points(24, 200, levels=6)
    labels = rng.integers(0, n_classes, size=200)
    for fold in range(5):
        rows = np.flatnonzero(np.arange(200) % 5 != fold)
        for c in range(n_classes):
            class_rows = np.flatnonzero(labels == c)
            graph = NeighborGraph(P[class_rows])
            inside = np.searchsorted(class_rows, rows[labels[rows] == c])
            if inside.size >= 2:
                check_served(graph, inside, 4)


def test_graph_fallback_rows_get_exact_queries(monkeypatch):
    # rows 0-29 are one point; a subset keeping only row 0 of them leaves
    # row 0's list with no subset row, so row 0 alone takes the fallback
    P = np.vstack([np.zeros((30, 2)), grid_points(25, 70) + 0.5])
    graph = NeighborGraph(P)
    rows = np.concatenate([[0], np.arange(30, 100)])
    assert rows.size >= _MIN_SHARE * len(P)
    sizes = []
    query_batch = NeighborIndex.query_batch

    def spy(self, queries, k, deadline=None):
        sizes.append((len(self), len(queries)))
        return query_batch(self, queries, k, deadline)

    monkeypatch.setattr(NeighborIndex, "query_batch", spy)
    for include_self in (False, True):
        check_served(graph, rows, 3, None, include_self)
    graph_calls = [s for s in sizes if s[0] == len(P)]
    assert graph_calls == [(100, rows.size)]          # the lists, computed once
    assert (rows.size, 1) in sizes                    # row 0's fallback


def test_graph_reuses_lists_across_folds(monkeypatch):
    P = grid_points(26, 120, levels=8)
    graph = NeighborGraph(P)
    queried = []
    query_batch = NeighborIndex.query_batch

    def spy(self, queries, k, deadline=None):
        if len(self) == len(P):
            queried.append(len(queries))
        return query_batch(self, queries, k, deadline)

    monkeypatch.setattr(NeighborIndex, "query_batch", spy)
    for fold in range(5):
        check_served(graph, np.flatnonzero(np.arange(120) % 5 != fold), 3)
    assert sum(queried) == 120


def test_graph_keeps_no_list_a_deadline_interrupted():
    P = grid_points(27, 2 * _QUERY_BLOCK + 10, levels=20)
    graph = NeighborGraph(P)
    rows = np.arange(1, len(P))
    with pytest.raises(EvalTimeout):
        graph.query(3, rows, deadline=CountingDeadline(fire_at=2))
    assert not graph._width.any()
    check_served(graph, rows, 3)


def overflowing_points(name):
    """Point sets whose squared distances overflow to inf: three points far
    apart, and the class-1 rows of the ``overflow`` resampling fixture."""
    if name == "three":
        return np.array([[1e160], [-1e160], [3e160]])
    huge = overlapping_binary(30, 8, seed=8, d=2)
    return huge.features[huge.labels == 1] * 1e160


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["three", "overflow_class1"])
def test_no_row_is_its_own_neighbour_when_distances_overflow(name, k):
    # the row itself, at distance 0, must not tie with the others at inf
    P = overflowing_points(name)
    n = len(P)
    graph = NeighborGraph(P)
    with np.errstate(over="ignore"):
        # every row, subsets served by the lists, and a pair (below _MIN_SHARE at n = 8)
        for rows in (np.arange(n), np.arange(1, n), np.arange(0, n, 2), np.array([0, n - 1])):
            got = graph.query(k, None if rows.size == n else rows)
            assert got.shape == (rows.size, min(k, rows.size - 1))
            assert not (got == np.arange(rows.size)[:, None]).any()
            points = P[rows]
            assert np.array_equal(got, reference(points, points, k, exclude_self=True))
