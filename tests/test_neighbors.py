"""Oracle tests for the blocked top-k neighbour kernel.

The reference is the textbook definition: the full distance row of each
query, ordered by ``np.lexsort((index, distance))``.
"""

from __future__ import annotations

import numpy as np
import pytest

from imbaml.neighbors import _POINT_BLOCK, _QUERY_BLOCK, NeighborIndex


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
