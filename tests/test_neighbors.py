"""Oracle tests for the blocked top-k neighbour kernel.

The reference is the textbook definition: the full distance row of each
query, ordered by ``np.lexsort((index, distance))``.
"""

from __future__ import annotations

import numpy as np
import pytest

from imbaml.neighbors import _POINT_BLOCK, _QUERY_BLOCK, NeighborIndex, SumOfSquaresIndex


def reference(points, queries, k, exclude_self=False):
    n = len(points)
    out = []
    for i, q in enumerate(np.atleast_2d(queries)):
        diff = q[None, :] - points
        d2 = np.einsum("ij,ij->i", diff, diff)
        if exclude_self:
            d2[i] = np.inf
        out.append(np.lexsort((np.arange(n), d2))[:min(k, n - exclude_self)])
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
    got = NeighborIndex(P).query_batch(P, k, exclude_self=True)
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
    assert np.array_equal(index.query_batch(P, k, exclude_self=True),
                          reference(P, P, k, exclude_self=True))


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


def test_single_point_query_matches_batch_row():
    P = grid_points(9, 90, d=3)
    index = NeighborIndex(P)
    batch = index.query_batch(P, 7)
    for i in (0, 13, 89):
        assert np.array_equal(index.query(P[i], 7), batch[i])
        assert np.array_equal(index.query(P[i], 7), reference(P, P[i], 7)[0])


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
    Q = P if exclude_self else np.vstack([adversarial_points(kind, 21, 150), P[::37]])
    got = NeighborIndex(P).query_batch(Q, k, exclude_self=exclude_self)
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
        NeighborIndex(P).query_batch(P, k, exclude_self=True)
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


@pytest.mark.parametrize("d", [1, 2, 5, 8, 11, 31])
def test_sum_of_squares_index_uses_its_expression_on_every_path(d):
    rng = np.random.default_rng(40 + d)
    P = rng.normal(size=(_POINT_BLOCK + 50, d)) * np.logspace(-3, 3, d)
    Q = P[rng.integers(0, len(P), 30)] + rng.normal(size=(30, d))
    index = SumOfSquaresIndex(P)
    want = np.stack([((P - q) ** 2).sum(axis=1) for q in Q])
    assert index.distances(Q).tobytes() == want.tobytes()
    cand = rng.integers(0, len(P), size=(30, 40))
    got = index._gathered_distances(Q, cand)
    assert got.tobytes() == np.take_along_axis(want, cand, axis=1).tobytes()


@pytest.mark.parametrize("index_type", [NeighborIndex, SumOfSquaresIndex])
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
        index = SumOfSquaresIndex(P)
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
        NeighborIndex(np.zeros((1, 2))).query_batch(np.zeros((1, 2)), 1, exclude_self=True)
