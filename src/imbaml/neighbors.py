"""Deterministic brute-force nearest neighbours.

Every resampler is defined on Euclidean distance over the coded feature
space, with ties broken by lower row index. Every squared distance is one
expression, ``_squared_sums``: ``np.einsum`` reduces the squared
differences over the last (feature) axis, so each value is a reduction over
one row's features only and does not depend on block sizes or on how points
are grouped; equal inputs give bit-equal distances and therefore stable
tie-breaks. The bit-equality holds within one NumPy build and CPU dispatch
(einsum picks a SIMD/FMA reduction at run time); across builds the last bit
may differ. Every ranking keeps, per row, the columns of a matrix whose
entry is at most the row's k-th smallest value plus a slack
(``_candidates``), and ranks them by one stable sort of their exact
distances (``_rank``). The matrix is the screen key below, with twice its
error bound as slack, or full distance rows, with none.

``query_batch`` works one block of queries at a time. It first screens the
block with the product formula |p - mu|^2 - 2 (q - mu).(p - mu), where mu is
the points' column mean. The product is einsum's own single-threaded loop,
not a BLAS matrix product: a threaded BLAS competes for the cores with the
other forked evaluation workers. The formula's rounding error is bounded
(``_screen_slack``), so the screen only drops points that cannot be in the
top k; the survivors are re-ranked by exact distances bit-equal to
``distances``, so the result is bit-for-bit that of ranking full distance
rows. A block falls back to full ``distances`` rows when it or the points
hold a non-finite value, when the norms could overflow, when 4k >= n, or
when some row keeps n/4 points or more than a block of points (heavy ties).
The working set is one block × n key or distance matrix plus the
n_queries × k result; the re-rank gathers block × kept × d differences
(kept <= one point block), and the fallback one block × point block × d
difference buffer. A deadline passed to either method is checked once per
block of points. ``within`` screens every point against one query, each
point with its own radius, by the same key and bound.
``_vote_counts`` tallies the class codes of each row's neighbours (or of a
forest's trees); its ``argmax`` gives ties to the lowest code.

``NeighborGraph`` keeps, per row of one point set, the row's nearest rows,
the row itself included, in (distance, index) order: an int32 list that is
the row's ``query_batch`` of the points, computed the first time a query
asks for that row. It answers exact k-NN queries inside any ascending subset
of its rows. A subset's rows keep their order, so its (distance, index)
order is the graph's, and a row's top j in the subset are the first j
entries of its list that lie in the subset. An ``include_self`` query reads
j = k such entries; an "others" query reads j = k + 1 and drops the row
itself, or the last entry when lower-index duplicates crowd the row out
(``_without_self``), so a row is never its own neighbour, also where
squared distances overflow and tie at inf. A new list gets about (j + 2
sqrt(j) + 2) / share entries, share being the subset's share of the rows; a
list that holds fewer than j subset rows is widened to that once, and when
it already has that width the row takes the fallback: a screened
``query_batch`` of the subset's own points, for j entries. A subset of less
than ``_MIN_SHARE`` of the rows is queried that way whole, and a query over
every row takes exactly j entries and no filter. The lists take 4 bytes per
row and entry, the widest list setting the width of all; the graph's
``NeighborIndex`` and point copy are those of a direct query. A list is
stored once its query has finished, so a deadline that ends the query
leaves the graph as it was. ``NeighborGraphs`` is the view of one
dataset's graphs that a ``Dataset`` carries.
"""

from __future__ import annotations

import copy
import functools
import math

import numpy as np

_QUERY_BLOCK = 128
_POINT_BLOCK = 1024
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
_MAX_SCALE = np.finfo(np.float64).max / 4
# a subset holding less than this share of a graph's rows is queried on its
# own points: its lists would need k / share entries per row, over all rows
_MIN_SHARE = 0.5


def _screen_slack(d: int, scale):
    """Slack e on a screen key's rounding error, for d features.

    With centred points p~ = fl(p - mu) and a query q~ = fl(q - mu), the key
    ``|p~|^2 - 2 q~.p~`` is, in exact arithmetic, |q~ - p~|^2 - |q~|^2. Let
    ``scale`` be S^2 with S = |q~| + max |p~|, u = eps / 2 and gamma_m =
    m u / (1 - m u). The computed key differs from (computed distance -
    |q~|^2) by at most E, the sum of
      * gamma_d S^2 + 2 u S^2 for the norm, the dot product and the final
        subtraction (Higham 2002, eq. 3.5; Cauchy-Schwarz bounds |q~.p~| and
        |p~|^2 by S^2);
      * 2 u S^2 + u^2 S^2 for the centring: each coordinate of q~ - p~ is
        off from q - p by at most u (|q - mu| + |p - mu|), a vector of norm
        at most about u S;
      * gamma_(d+2) S^2 for the computed distance, since |q - p| <= S: it
        rounds one difference and one square per feature and sums d terms,
        and the bound does not depend on the order of summation;
      * under gradual underflow, at most one smallest subnormal per
        product, 4 d of them in all.
    That is about (d + 3) eps S^2 + 4 d tiny; e = 16 (d + 4) (eps S^2 +
    tiny) also covers the rounding of S and a few more additions of terms no
    larger than a few S^2, such as those that form a threshold.
    """
    return 16 * (d + 4) * (_EPS * scale + _TINY)


def _kth_smallest(M: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th smallest value, NaN sorting last. Where no row holds
    a NaN, k <= 2 takes first-minimum passes, several times cheaper than the
    partition any other ``M`` takes (an "others" query of ``NeighborGraph``
    at k = 1 asks for 2)."""
    if k <= 2:
        rows, first = np.arange(M.shape[0]), M.argmin(axis=1)
        kth = M[rows, first]  # NaN where the row holds a NaN
        if not np.isnan(kth).any():
            if k == 1:
                return kth
            M[rows, first] = np.inf
            second = M.min(axis=1)
            M[rows, first] = kth
            return second
    return np.partition(M, k - 1, axis=1)[:, k - 1]


def _candidates(M: np.ndarray, k: int, slack=0.0) -> np.ndarray:
    """Each row's columns whose entry is at most its k-th smallest value plus
    ``slack`` (every column where that value is NaN), in ascending order,
    then -1 padding to the widest row."""
    m, n = M.shape
    kth = _kth_smallest(M, k) + slack
    keep = M <= kth[:, None]
    keep[np.isnan(kth)] = True
    flat = np.flatnonzero(keep)
    rows = flat // n
    counts = np.bincount(rows, minlength=m)
    cand = np.full((m, counts.max()), -1, dtype=np.intp)
    cand[rows, np.arange(flat.size) - (np.cumsum(counts) - counts)[rows]] = flat - rows * n
    return cand


def _rank(cand: np.ndarray, vals: np.ndarray, k: int) -> np.ndarray:
    """The first k of each row's candidate columns in (value, index) order:
    one stable sort of ``vals``, the candidates' values. ``cand`` holds each
    row's candidates in ascending order, then -1 padding valued inf; every
    row has at least k candidates, so no padding ranks, and a single
    candidate per row needs no sort."""
    if cand.shape[1] == 1:
        return cand
    return np.take_along_axis(cand, np.argsort(vals, axis=1, kind="stable")[:, :k], axis=1)


def _top_k(d2: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries per row, in (value, index) order.

    Matches a per-row ``np.lexsort((index, value))``, so inf sorts after every
    finite value and NaN after inf: each row's ``_candidates`` ranked by
    their own values.
    """
    cand = _candidates(d2, k)
    vals = np.take_along_axis(d2, cand, axis=1)
    vals[cand < 0] = np.inf  # padding, right of every kept entry
    return _rank(cand, vals, k)


def _squared_sums(diff, out=None) -> np.ndarray:
    """Sum of squares over the last axis: the one squared-distance expression."""
    return np.einsum("...k,...k->...", diff, diff, out=out)


def _vote_counts(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-row class counts of an (n_rows, n_voters) matrix of class codes."""
    n = labels.shape[0]
    flat = (np.arange(n)[:, None] * n_classes + labels).ravel()
    return np.bincount(flat, minlength=n * n_classes).reshape(n, n_classes)


class NeighborIndex:
    def __init__(self, points):
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError("reference points must be a 2-d matrix")
        # screen state; non-finite or overflowing points leave _max_norm
        # non-finite, which sends every query block to the exact path
        with np.errstate(all="ignore"):
            self._centre = self.points.mean(axis=0) if len(self.points) else 0.0
            centred = self.points - self._centre
            self._sq_norms = _squared_sums(centred)
            self._max_norm = np.sqrt(self._sq_norms.max(initial=0.0))
            self._minus2_centred_t = np.ascontiguousarray(-2.0 * centred.T)

    def __len__(self) -> int:
        return self.points.shape[0]

    def distances(self, queries, deadline=None) -> np.ndarray:
        """Squared Euclidean distances, shape (n_queries, n_points).

        ``deadline``, when given, is checked once per block of points (and
        so at least once per block of queries).
        """
        Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n, d = self.points.shape
        out = np.empty((Q.shape[0], n), dtype=np.float64)
        # one reused buffer for the (queries, points, features) differences
        buf = np.empty(min(Q.shape[0], _QUERY_BLOCK) * min(n, _POINT_BLOCK) * d)
        for q0 in range(0, Q.shape[0], _QUERY_BLOCK):
            block = Q[q0:q0 + _QUERY_BLOCK, None, :]
            for p0 in range(0, n, _POINT_BLOCK):
                if deadline is not None:
                    deadline.check()
                pts = self.points[None, p0:p0 + _POINT_BLOCK, :]
                m, w = block.shape[0], pts.shape[1]
                diff = np.subtract(block, pts, out=buf[:m * w * d].reshape(m, w, d))
                _squared_sums(diff, out=out[q0:q0 + m, p0:p0 + w])
        return out

    def query_batch(self, queries, k: int, deadline=None) -> np.ndarray:
        """Indices of the k nearest points per query, ordered by (distance, index).

        A finite query equal to point i ranks i at distance 0, after the
        equal points of lower index. Each block of queries keeps, per row,
        the points whose product-formula key is at most the k-th smallest
        key plus twice its error bound, and ranks them by exact distances
        (``_screened_top_k``); a block with a non-finite value, overflowing
        norms, 4k >= n or heavy ties keeps the points whose distance is at
        most the k-th smallest of its full ``distances`` row instead
        (``_top_k``). Either way the result is the exact one.
        ``deadline``, when given, is checked once per block of points, by
        the screen or by ``distances``, never by both.
        """
        Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        k = min(k, len(self))
        if k < 1:
            raise ValueError("no neighbours available")
        order = np.empty((Q.shape[0], k), dtype=np.int64)
        for q0 in range(0, Q.shape[0], _QUERY_BLOCK):
            block = Q[q0:q0 + _QUERY_BLOCK]
            order[q0:q0 + block.shape[0]] = self._screened_top_k(block, k, deadline)
        return order

    def _exact_top_k(self, block, k, deadline) -> np.ndarray:
        """Top k of one query block from its full ``distances`` rows."""
        return _top_k(self.distances(block, deadline), k)

    def _screened_top_k(self, block, k, deadline) -> np.ndarray:
        """Top k of one query block: screen by a product formula, re-rank exactly.

        The key ``|p~|^2 - 2 q~.p~`` ranks a row's points as the distance
        does, up to the constant |q~|^2 and an error of at most e =
        ``_screen_slack``. If t is the k-th smallest key, the k points
        behind it have distance - |q~|^2 <= t + e, so every exact top-k
        point does too, and its key is <= t + 2e: ``_candidates`` with slack
        2e keeps exactly the points whose key is <= t + 2e. They are ranked
        by ``_gathered_distances``, whose values are bit-equal to
        ``distances``, so order and ties are those of the exact path.
        ``deadline`` is checked once per block of points, by the screen or
        by the fallback, never by both.
        """
        n, d = self.points.shape
        if 4 * k >= n or not (np.isfinite(self._max_norm) and np.isfinite(block).all()):
            return self._exact_top_k(block, k, deadline)
        with np.errstate(over="ignore"):
            qc = block - self._centre
            scale = (np.sqrt(_squared_sums(qc)) + self._max_norm) ** 2
        if not (np.isfinite(scale).all() and scale.max() < _MAX_SCALE):
            return self._exact_top_k(block, k, deadline)
        m = block.shape[0]
        key = np.empty((m, n))
        for p0 in range(0, n, _POINT_BLOCK):
            if deadline is not None:
                deadline.check()
            np.einsum("ik,kj->ij", qc, self._minus2_centred_t[:, p0:p0 + _POINT_BLOCK],
                      out=key[:, p0:p0 + _POINT_BLOCK])
        key += self._sq_norms
        cand = _candidates(key, k, 2 * _screen_slack(d, scale))
        if 4 * cand.shape[1] >= n or cand.shape[1] > _POINT_BLOCK:
            # heavy ties: this block's deadline checks are already done
            return self._exact_top_k(block, k, None)
        return _rank(cand, self._gathered_distances(block, cand), k)

    def _gathered_distances(self, block, cand) -> np.ndarray:
        """Squared distances from each query row to its candidate points.

        ``cand`` holds point indices per row, -1 for padding (distance inf).
        Each value is bit-equal to the matching ``distances`` entry.
        """
        diff = block[:, None, :] - self.points[cand]
        d2 = _squared_sums(diff)
        d2[cand < 0] = np.inf
        return d2

    def within(self, query, radii) -> tuple[np.ndarray, np.ndarray]:
        """Points no farther from ``query`` than their own radius.

        Returns the ascending indices of the points p with distance(query,
        p) <= ``radii[p]``, and those distances, bit-equal to ``distances``.
        A radius of inf keeps its point, -inf drops it. The key of
        ``_screened_top_k`` drops first every point whose key exceeds
        radius - |q~|^2 + e (e = ``_screen_slack``): its distance is above
        the radius. The threshold's own rounding is within e while the
        radius is at most 4 S^2; a larger radius keeps its point anyway, as
        no key exceeds about S^2. Only the survivors get exact distances. A
        non-finite or overflowing query or points get every distance
        instead.
        """
        q = np.asarray(query, dtype=np.float64)
        n, d = self.points.shape
        with np.errstate(over="ignore", invalid="ignore"):
            qc = q - self._centre
            q_norm = _squared_sums(qc)
            scale = (np.sqrt(q_norm) + self._max_norm) ** 2
        if np.isfinite(scale) and scale < _MAX_SCALE:
            key = np.einsum("k,kj->j", qc, self._minus2_centred_t)
            key += self._sq_norms
            cand = np.flatnonzero(key <= radii + (_screen_slack(d, scale) - q_norm))
        else:
            cand = np.arange(n)
        dist = self._gathered_distances(q[None], cand[None])[0]
        near = dist <= radii[cand]
        return cand[near], dist[near]


def _without_self(neigh: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Each row's k nearest others from its k + 1 nearest ``neigh``, in
    (distance, index) order, of a point set holding the row as point
    ``own``: ``own`` dropped or, when lower-index duplicates crowd it out,
    the last entry."""
    drop = neigh == own[:, None]
    drop[:, -1] |= ~drop.any(axis=1)
    return neigh[~drop].reshape(neigh.shape[0], -1)


class NeighborGraph:
    """Each row's nearest rows of one point set, the row itself included,
    in (distance, index) order, computed the first time a query asks for
    the row (module docstring)."""

    def __init__(self, points):
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        n = len(self.points)
        self._lists = np.zeros((n, 0), dtype=np.int32)
        self._width = np.zeros(n, dtype=np.int32)  # valid entries per list

    @functools.cached_property
    def index(self) -> NeighborIndex:
        return NeighborIndex(self.points)

    def query(self, k: int, rows=None, members=None, include_self: bool = False,
              deadline=None) -> np.ndarray:
        """Each member's k nearest other rows among ``rows``, as positions
        in ``rows``, in (distance, index) order.

        ``rows`` are ascending rows of the graph (all for None) and
        ``members`` positions in ``rows`` (all for None). A member is never
        its own neighbour, and k is at most len(rows) - 1: these are the
        member's k + 1 nearest rows less the member or, when lower-index
        duplicates crowd it out, less the last (``_without_self``). With
        ``include_self`` they are its k nearest rows, itself among them as
        in a ``query_batch`` of the rows' points, and k is at most
        len(rows). ``deadline`` goes to every ``query_batch``.
        """
        m = len(self.points) if rows is None else rows.size
        if min(k, m - 1) < 1:
            raise ValueError("no neighbours available")
        if include_self:
            return self._nearest(min(k, m), rows, members, deadline)
        own = np.arange(m) if members is None else members
        return _without_self(self._nearest(min(k + 1, m), rows, members, deadline), own)

    def _nearest(self, j, rows, members, deadline) -> np.ndarray:
        """Each member's j nearest rows among ``rows``, itself included, as
        positions."""
        n = len(self.points)
        m = n if rows is None else rows.size
        own = np.arange(m) if members is None else members
        if m < _MIN_SHARE * n:
            points = self.points[rows]
            return NeighborIndex(points).query_batch(points[own], j, deadline)
        if m == n:  # every row: the lists hold only rows of the subset
            self._fill(members, j, deadline)
            lists = self._lists if members is None else self._lists[members]
            return lists[:, :j].astype(np.int64)
        ids = rows[own]
        position = np.full(n, -1, dtype=np.int64)
        position[rows] = np.arange(m)
        # a row without a list gets one of about j / share entries, with
        # margin; a list that holds too few rows of the subset is widened to
        # that when narrower, and takes the fallback when not
        width = min(n, math.ceil((j + 2 * math.sqrt(j) + 2) * n / m))
        self._fill(ids[self._width[ids] == 0], width, deadline)
        out, served = self._first_inside(ids, j, position)
        redo = np.flatnonzero(~served & (self._width[ids] < width))
        if redo.size:
            self._fill(ids[redo], width, deadline)
            out[redo], served[redo] = self._first_inside(ids[redo], j, position)
        short = np.flatnonzero(~served)
        if short.size:
            points = self.points[rows]
            out[short] = NeighborIndex(points).query_batch(points[own[short]], j, deadline)
        return out

    def _first_inside(self, ids, j, position):
        """The first j entries of the lists of rows ``ids`` that lie in a
        subset, as ``position``s in it, and which rows have j of them (the
        other rows' entries are arbitrary)."""
        near = position[self._lists[ids]]
        near[np.arange(near.shape[1]) >= self._width[ids][:, None]] = -1
        inside = near >= 0
        inside &= np.cumsum(inside, axis=1) <= j
        served = inside.sum(axis=1) == j
        out = np.zeros((ids.size, j), dtype=np.int64)
        out[served] = near[served][inside[served]].reshape(-1, j)
        return out, served

    def _fill(self, ids, width: int, deadline) -> None:
        """Compute, at ``width``, the lists of rows ``ids`` (all for None)
        that hold fewer entries."""
        todo = np.flatnonzero(self._width < width) if ids is None else ids[
            self._width[ids] < width]
        if todo.size == 0:
            return
        lists = self.index.query_batch(self.points[todo], width, deadline)
        if width > self._lists.shape[1]:
            grown = np.zeros((len(self.points), width), dtype=np.int32)
            grown[:, :self._lists.shape[1]] = self._lists
            self._lists = grown
        self._lists[todo, :width] = lists
        self._width[todo] = width


class NeighborGraphs:
    """A view of one dataset's neighbour graphs: ``rows``, the ascending
    rows of that dataset it covers (all of them in a new view), and the
    table of the ``NeighborGraph`` of the dataset's points and of each
    class's points, each built on first use and shared by every view that
    ``subset`` returns.

    ``Dataset.neighbours`` holds a view, and ``Dataset.subset`` passes on
    the view of the rows it keeps, so a search's folds, and the rows its
    samplers keep of them, fill and read one set of lists. ``query`` maps
    the view's rows, or those labelled c, to positions in the matching
    graph for ``NeighborGraph.query``.
    """

    def __init__(self, points: np.ndarray, labels: np.ndarray):
        self._points = points
        self._labels = labels
        self._graphs: dict = {}  # class (None for all) -> (graph, its rows)
        self.rows = np.arange(len(labels))

    def subset(self, indices: np.ndarray) -> "NeighborGraphs | None":
        """The view of this view's rows at ``indices``, or None unless they
        ascend."""
        rows = self.rows[indices]
        if rows.size > 1 and not (rows[1:] > rows[:-1]).all():
            return None
        view = copy.copy(self)
        view.rows = rows
        return view

    def query(self, k: int, c: int | None = None, members=None, include_self: bool = False,
              deadline=None) -> np.ndarray:
        """``NeighborGraph.query`` over this view's rows or, with ``c``, over
        its class-c rows: each member's k nearest, as positions among them,
        in (distance, index) order."""
        if c not in self._graphs:
            class_rows = None if c is None else np.flatnonzero(self._labels == c)
            points = self._points if c is None else self._points[class_rows]
            self._graphs[c] = (NeighborGraph(points), class_rows)
        graph, class_rows = self._graphs[c]
        rows = self.rows
        if c is not None:
            rows = np.searchsorted(class_rows, rows[self._labels[rows] == c])
        return graph.query(k, rows, members, include_self, deadline)
