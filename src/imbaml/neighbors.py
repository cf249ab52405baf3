"""Deterministic brute-force nearest neighbours.

Every resampler is defined on Euclidean distance over the coded feature
space, with ties broken by lower row index. Distances are computed with
element-wise operations (no BLAS matmul shortcuts): the squared difference
is reduced by ``np.einsum`` over a block of queries × points. Each distance
is a reduction over one row's features only, so its value does not depend on
the block sizes; equal inputs give bit-equal distances and therefore stable
tie-breaks. That bit-equality holds within one NumPy build and CPU dispatch
(einsum picks a SIMD/FMA reduction at run time); across builds the last bit
may differ. ``samplers.cnn`` keeps its own per-column distance expression so
that its output does not change.

``query_batch`` works one block of queries at a time and keeps only that
block's distance rows, so its working set is O(block × n + n_queries × k).
"""

from __future__ import annotations

import numpy as np

_QUERY_BLOCK = 128
_POINT_BLOCK = 1024


def _top_k(d2: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries per row, in (value, index) order.

    Matches a per-row ``np.lexsort((index, value))``, so inf sorts after every
    finite value and NaN after inf.
    """
    n = d2.shape[1]
    has_nan = np.isnan(d2).any()
    if k == 1 and not has_nan:
        return d2.argmin(axis=1)[:, None]  # first minimum = lowest index
    if has_nan or 4 * k >= n:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    keep = d2 <= kth
    excess = keep.sum(axis=1) - k
    tied = np.flatnonzero(excess)
    if tied.size:
        # more entries equal the k-th value than fit: drop the highest indices
        eq = d2[tied] == kth[tied]
        from_end = np.cumsum(eq[:, ::-1], axis=1)[:, ::-1]
        keep[tied] &= ~(eq & (from_end <= excess[tied, None]))
    cand = np.nonzero(keep)[1].reshape(-1, k)  # ascending index within each row
    order = np.argsort(np.take_along_axis(d2, cand, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cand, order, axis=1)


class NeighborIndex:
    def __init__(self, points):
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError("reference points must be a 2-d matrix")

    def __len__(self) -> int:
        return self.points.shape[0]

    def distances(self, queries) -> np.ndarray:
        """Squared Euclidean distances, shape (n_queries, n_points)."""
        Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n, d = self.points.shape
        out = np.empty((Q.shape[0], n), dtype=np.float64)
        # one reused buffer for the (queries, points, features) differences
        buf = np.empty(min(Q.shape[0], _QUERY_BLOCK) * min(n, _POINT_BLOCK) * d)
        for q0 in range(0, Q.shape[0], _QUERY_BLOCK):
            block = Q[q0:q0 + _QUERY_BLOCK, None, :]
            for p0 in range(0, n, _POINT_BLOCK):
                pts = self.points[None, p0:p0 + _POINT_BLOCK, :]
                m, w = block.shape[0], pts.shape[1]
                diff = np.subtract(block, pts, out=buf[:m * w * d].reshape(m, w, d))
                np.einsum("ijk,ijk->ij", diff, diff, out=out[q0:q0 + m, p0:p0 + w])
        return out

    def query_batch(self, queries, k: int, exclude_self: bool = False,
                    deadline=None) -> np.ndarray:
        """Indices of the k nearest points per query, ordered by (distance, index).

        With ``exclude_self`` the i-th query skips reference point i (queries
        must then be the reference set itself). ``deadline``, when given, is
        checked once per block of queries.
        """
        Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n = len(self)
        if exclude_self and Q.shape[0] != n:
            raise ValueError("exclude_self requires queries == reference points")
        k = min(k, n - (1 if exclude_self else 0))
        if k < 1:
            raise ValueError("no neighbours available")
        order = np.empty((Q.shape[0], k), dtype=np.int64)
        for q0 in range(0, Q.shape[0], _QUERY_BLOCK):
            if deadline is not None:
                deadline.check()
            d2 = self.distances(Q[q0:q0 + _QUERY_BLOCK])
            if exclude_self:
                rows = np.arange(d2.shape[0])
                d2[rows, q0 + rows] = np.inf
            order[q0:q0 + d2.shape[0]] = _top_k(d2, k)
        return order

    def query(self, point, k: int) -> np.ndarray:
        return self.query_batch(np.atleast_2d(point), k)[0]
