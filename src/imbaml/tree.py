"""CART-style classification trees and the one split-search kernel behind
them.

``grow_trees`` grows any number of trees, one per bag of rows and columns of
one matrix, in lockstep. ``DecisionTreeClassifier.fit`` is that kernel with
one bag; ``estimators.BaggedTrees`` draws all of its bags and makes one call.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .rng import Rng

# Upper bound on the rows x candidate columns x classes of one split-search
# block (and on the rows x columns ranked at once), unless one node column
# alone is larger: a block holds at least one whole (node, column) segment.
MAX_BLOCK_CELLS = 1 << 16


def _impurity(counts: np.ndarray, criterion: str, total: np.ndarray | None = None) -> np.ndarray:
    """Impurity of class-weight rows (last axis = classes); ``total``, when
    given, is ``counts.sum(axis=-1)``."""
    if total is None:
        total = counts.sum(axis=-1)
    total = total[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        p = counts / np.maximum(total, 1e-300)
        if not (total > 0).all():
            p = np.where(total > 0, p, 0.0)
    if criterion == "gini":
        return 1.0 - np.square(p, out=p).sum(axis=-1)
    if criterion == "entropy":
        logp = np.log2(np.maximum(p, 1e-300))
        logp[~(p > 0)] = 0.0
        return -np.multiply(p, logp, out=logp).sum(axis=-1)
    raise ValueError(f"unknown criterion '{criterion}'")


def _n_candidates(max_features: float | None, d: int) -> int:
    """Columns sampled per node: a fraction of ``d`` clamped to [0, 1]."""
    if max_features is None:
        return d
    frac = min(max(float(max_features), 0.0), 1.0)
    return max(1, math.ceil(frac * d)) if d else 0


class _Ranks:
    """Dense per-column ranks of one matrix, computed per column on first use.

    Equal values share a rank and a larger value has a larger rank, so sorting
    any rows of a column by rank sorts them by value. NaN ranks ``n``, above
    every value; no split is placed before it, as NaN compares false.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self.nan_rank = X.shape[0]
        self.table = None       # (columns, rows) int32, allocated on first use
        self.done = np.zeros(X.shape[1], dtype=bool)
        self.any_nan = False

    def need(self, cols: np.ndarray) -> None:
        if self.table is None:
            self.table = np.empty((self.X.shape[1], self.X.shape[0]), dtype=np.int32)
        todo = np.unique(cols[~self.done[cols]])
        n = self.nan_rank
        step = max(1, MAX_BLOCK_CELLS // max(n, 1))
        for a in range(0, todo.size, step):
            c = todo[a:a + step]
            V = self.X[:, c].T
            order = np.argsort(V, axis=1)
            s = np.take_along_axis(V, order, axis=1)
            r = np.zeros(V.shape, dtype=np.int32)
            np.cumsum(s[:, 1:] > s[:, :-1], axis=1, dtype=np.int32, out=r[:, 1:])
            nan = np.isnan(s)
            if nan.any():
                r[nan] = n
                self.any_nan = True
            table = np.empty_like(r)
            np.put_along_axis(table, order, r, axis=1)
            self.table[c] = table
            self.done[c] = True


class DecisionTreeClassifier:
    """Binary-split classification tree.

    ``max_features`` is a fraction of columns sampled per node (values above
    1.0 clamp to 1.0); a split is kept when its root-normalised impurity
    decrease is positive and at least ``min_impurity_decrease``.
    """

    def __init__(self, criterion: str = "gini", max_depth: int | None = None,
                 max_features: float | None = None, min_samples_split: int = 2,
                 min_impurity_decrease: float = 0.0, rng: Rng | None = None):
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self.rng = rng
        self.n_classes = None
        self.feature = None     # per node; -1 marks a leaf
        self.threshold = None
        self.left = None
        self.right = None
        self.value = None       # per node class-weight sums

    def fit(self, X, y, n_classes: int | None = None, rng: Rng | None = None,
            deadline=None, sample_weight=None):
        """Grow the tree (``grow_trees`` with one bag of every row and column);
        ``rng``, when given, replaces the constructor's Rng for per-node
        feature sampling."""
        if rng is not None:
            self.rng = rng
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1
        n, d = X.shape
        grown, = grow_trees(X, y, n_classes, [(np.arange(n), np.arange(d), self.rng)],
                            criterion=self.criterion, max_depth=self.max_depth,
                            max_features=self.max_features,
                            min_samples_split=self.min_samples_split,
                            min_impurity_decrease=self.min_impurity_decrease,
                            sample_weight=sample_weight, deadline=deadline)
        self.n_classes = n_classes
        self.feature, self.threshold = grown.feature, grown.threshold
        self.left, self.right, self.value = grown.left, grown.right, grown.value
        return self

    def _leaf_of(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(len(X), dtype=np.int64)
        pending = [(np.arange(len(X)), 0)]
        while pending:
            rows, nd = pending.pop()
            if self.feature[nd] < 0:
                node[rows] = nd
                continue
            go_left = X[rows, self.feature[nd]] <= self.threshold[nd]
            pending.append((rows[go_left], self.left[nd]))
            pending.append((rows[~go_left], self.right[nd]))
        return node

    def predict_score(self, X) -> np.ndarray:
        leaves = self.value[self._leaf_of(X)]
        totals = leaves.sum(axis=1, keepdims=True)
        return leaves / np.maximum(totals, 1e-300)

    def predict(self, X, deadline=None) -> np.ndarray:
        return self.predict_score(X).argmax(axis=1)

    def node_count(self) -> int:
        return len(self.feature)


class _Growth:
    """One tree under construction: its bag, Rng, DFS stack and node lists."""

    def __init__(self, rows, cols, rng, n_feat, root_w):
        self.cols = np.asarray(cols, dtype=np.int64)
        self.rng = rng
        self.n_feat = n_feat
        self.root_w = root_w
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []
        self.stack = [(rows, 0, self.new_node())]

    def new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(None)
        return len(self.feature) - 1

    def candidates(self) -> np.ndarray:
        """Local candidate columns of one node, drawing them when sampled."""
        d = self.cols.size
        if self.n_feat < d:
            return np.sort(self.rng.np.choice(d, size=self.n_feat, replace=False))
        return np.arange(d)


def grow_trees(X, y, n_classes: int, bags, *, criterion: str = "gini",
               max_depth: int | None = None, max_features: float | None = None,
               min_samples_split: int = 2, min_impurity_decrease: float = 0.0,
               sample_weight=None, deadline=None) -> list[DecisionTreeClassifier]:
    """Grow one tree per bag ``(rows, cols, rng)`` of ``X``, all in lockstep.

    Each tree equals ``DecisionTreeClassifier(...).fit(X[rows][:, cols],
    y[rows], n_classes, rng)`` with the same parameters, bit for bit: the same
    ``feature`` (an index into ``cols``), ``threshold``, ``left``, ``right``
    and ``value`` arrays. ``sample_weight`` is per row of ``X``; a weighted
    call takes exactly one bag.

    Order: every step pops one node from each unfinished tree's own DFS stack
    (left child first), so each tree keeps its node numbering and draws its
    per-node candidate columns from its own Rng in the order a lone fit does.
    The step counts the classes of all popped nodes with one ``bincount``,
    then searches every splittable node's candidate columns in blocks of
    whole (node, column) segments, each at most ``MAX_BLOCK_CELLS`` rows x
    columns x classes unless one segment alone is larger. A block of one
    node (always so for a node too wide to share a block and for every node
    of a weighted fit) sorts that node's values per column; a block of
    several nodes sorts (segment, rank) keys, from per-column dense ranks
    computed once per call on first use. Per column a split falls between
    distinct values and the first largest impurity decrease wins; per node
    the first column whose best is strictly larger wins, across blocks too.
    Unweighted class counts are integers, so their segmented prefix sums are
    exact in any order; weighted sums run sequentially in the node's row
    order (a stable sort keeps it among ties), as a lone fit sums them.

    The deadline is checked once per step and before every block. From the
    end of a step's first block on, which carries one-off costs such as
    ranking columns, each check also projects the rest of the step: its
    seconds per cell so far times the cells (rows x candidate columns x
    classes) it has left. That is a lower bound on the rest of the fit, and
    ``Deadline.check`` raises ``EvalTimeout`` once it exceeds the deadline's
    projection factor times the time left. A fit that completes is the same
    with or without a deadline.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    w = None if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    if w is not None and len(bags) != 1:
        raise ValueError("a weighted fit grows exactly one tree")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"class codes must lie in [0, {n_classes})")
    C = n_classes
    ranks = _Ranks(X)
    growths = []
    for rows, cols, rng in bags:
        rows = np.asarray(rows, dtype=np.int64)
        root_w = np.float64(rows.size) if w is None else w[rows].sum()
        growths.append(_Growth(rows, cols, rng, _n_candidates(max_features, len(cols)), root_w))

    active = list(growths)
    while active:
        if deadline is not None:
            deadline.check()
        popped = [(g, *g.stack.pop()) for g in active]
        sizes = np.array([rows.size for _, rows, _, _ in popped], dtype=np.int64)
        rows_cat = np.concatenate([rows for _, rows, _, _ in popped])
        node_of = np.repeat(np.arange(len(popped)), sizes)
        counts = np.bincount(node_of * C + y[rows_cat],
                             weights=None if w is None else w[rows_cat],
                             minlength=len(popped) * C).reshape(len(popped), C)
        value = counts.astype(np.float64)
        node_w = value.sum(axis=1)
        imp = _impurity(value, criterion)
        stop = (node_w <= 0.0) | (imp <= 0.0) | (sizes < min_samples_split)
        if max_depth is not None:
            stop |= np.array([depth for _, _, depth, _ in popped]) >= max_depth
        tasks = []
        for k, (g, rows, depth, slot) in enumerate(popped):
            g.value[slot] = value[k]
            if not stop[k]:
                local = g.candidates()
                if local.size:
                    tasks.append((k, local, g.cols[local]))
        if tasks:
            node = _Nodes(sizes, np.concatenate([[0], np.cumsum(sizes)]), rows_cat,
                          value, node_w, imp, np.array([g.root_w for g, _, _, _ in popped]))
            best = {}
            left = C * sum(int(sizes[k]) * cols.size for k, _, cols in tasks)
            started, done = None, 0
            for block in _blocks(tasks, sizes, C, single=w is not None):
                if deadline is not None:
                    deadline.check(started, done, left)
                _search_block(block, node, X, y, w, C, ranks, criterion, best)
                cells = C * sum(int(sizes[k]) * cols.size for k, _, cols in block)
                left -= cells
                if started is None:  # the first block carries one-off costs
                    started = time.monotonic()
                else:
                    done += cells
            for k, (dec, f, thr, lo, hi) in best.items():
                if dec <= 0.0 or dec < min_impurity_decrease:
                    continue
                g, _, depth, slot = popped[k]
                li, ri = g.new_node(), g.new_node()
                g.feature[slot], g.threshold[slot] = f, thr
                g.left[slot], g.right[slot] = li, ri
                g.stack.append((hi, depth + 1, ri))
                g.stack.append((lo, depth + 1, li))
        active = [g for g in active if g.stack]

    trees = []
    for g in growths:
        tree = DecisionTreeClassifier(criterion=criterion, max_depth=max_depth,
                                      max_features=max_features,
                                      min_samples_split=min_samples_split,
                                      min_impurity_decrease=min_impurity_decrease, rng=g.rng)
        tree.n_classes = n_classes
        tree.feature = np.array(g.feature, dtype=np.int64)
        tree.threshold = np.array(g.threshold)
        tree.left = np.array(g.left, dtype=np.int64)
        tree.right = np.array(g.right, dtype=np.int64)
        tree.value = np.array(g.value)
        trees.append(tree)
    return trees


class _Nodes:
    """The popped nodes of one step: their rows (concatenated, node k at
    ``rows[starts[k]:starts[k + 1]]``), class weights, impurity and the root
    weight of their trees."""

    def __init__(self, sizes, starts, rows, value, node_w, imp, root_w):
        self.sizes, self.starts, self.rows = sizes, starts, rows
        self.value, self.node_w, self.imp, self.root_w = value, node_w, imp, root_w


def _blocks(tasks, sizes, C, single):
    """Group (node, local cols, global cols) tasks into blocks of whole
    segments under MAX_BLOCK_CELLS; a node too wide for one block, or any
    node when ``single``, gets blocks of its own."""
    cur, cells = [], 0
    for k, local, cols in tasks:
        per_col = int(sizes[k]) * C
        if single or per_col * cols.size > MAX_BLOCK_CELLS:
            if cur:
                yield cur
                cur, cells = [], 0
            step = max(1, MAX_BLOCK_CELLS // per_col)
            for a in range(0, cols.size, step):
                yield [(k, local[a:a + step], cols[a:a + step])]
            continue
        if cells + per_col * cols.size > MAX_BLOCK_CELLS:
            yield cur
            cur, cells = [], 0
        cur.append((k, local, cols))
        cells += per_col * cols.size
    if cur:
        yield cur


def _search_block(block, node, X, y, w, C, ranks, criterion, best):
    """Best split per node over one block's (node, column) segments; updates
    ``best[k] = (decrease, local col, threshold, left rows, right rows)`` when
    strictly larger than what earlier blocks found."""
    seg_node = np.repeat([k for k, _, _ in block], [local.size for _, local, _ in block])
    seg_local = np.concatenate([local for _, local, _ in block])
    seg_col = np.concatenate([cols for _, _, cols in block])
    seg_len = node.sizes[seg_node]
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    E = int(seg_end[-1])
    entry_seg = np.repeat(np.arange(seg_node.size), seg_len)
    cut = np.zeros(E, dtype=bool)       # a split after entry i
    if len(block) == 1:  # columns of one node: sort its values per column
        k = block[0][0]
        rows = node.rows[node.starts[k]:node.starts[k + 1]]
        vals = X[rows[None, :], seg_col[:, None]]
        order = np.argsort(vals, axis=1, kind=None if w is None else "stable")
        vals = np.take_along_axis(vals, order, axis=1)
        rows = rows[order].ravel()
        cut.reshape(vals.shape)[:, :-1] = vals[:, 1:] > vals[:, :-1]
    else:  # whole nodes, unweighted: one sort of (segment, rank) keys
        n = ranks.nan_rank
        rows = node.rows[np.arange(E) + np.repeat(node.starts[seg_node] - seg_start, seg_len)]
        ranks.need(seg_col)
        rank = ranks.table[seg_col[entry_seg], rows]
        order = np.argsort(entry_seg * (n + 1) + rank)
        rows = rows[order]
        rank = rank[order]
        cut[:-1] = rank[1:] > rank[:-1]
        cut[seg_end - 1] = False        # not across segments
        if ranks.any_nan:
            cut[:-1] &= rank[1:] < n
    cut = np.flatnonzero(cut)
    if cut.size == 0:
        return
    labels = y[rows]
    if w is None:
        onehot = np.eye(C)[labels]
    else:
        onehot = np.zeros((E, C))
        onehot[np.arange(E), labels] = w[rows]
    k = seg_node[entry_seg[cut]]
    if len(block) == 1:  # equal-length segments: one running sum per (segment, class)
        np.cumsum(onehot.reshape(seg_len.size, -1, C), axis=1,
                  out=onehot.reshape(seg_len.size, -1, C))
        left = onehot[cut]
        right = node.value[k[0]] - left
    else:  # integer counts: differences of one running sum are exact
        cum = np.cumsum(onehot, axis=0, out=onehot)
        base = np.zeros((seg_len.size, C))
        base[1:] = cum[seg_start[1:] - 1]
        left = cum[cut] - base[entry_seg[cut]]
        right = node.value[k] - left
    if w is None:  # integer counts: a row sum is the number of entries
        wl = (cut - seg_start[entry_seg[cut]] + 1).astype(np.float64)
        wr = node.node_w[k] - wl
    else:
        wl = left.sum(axis=1)
        wr = right.sum(axis=1)
    child = (wl * _impurity(left, criterion, wl)
             + wr * _impurity(right, criterion, wr)) / node.node_w[k]
    dec = (node.node_w[k] / node.root_w[k]) * (node.imp[k] - child)
    # first largest decrease per node, in (column, position) order
    first = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    top = np.maximum.reduceat(dec, first)
    hit = np.flatnonzero(dec == np.repeat(top, np.diff(np.r_[first, dec.size])))
    win = hit[np.r_[True, k[hit][1:] != k[hit][:-1]]]
    at = cut[win]
    seg = entry_seg[at]
    thr = 0.5 * (X[rows[at], seg_col[seg]] + X[rows[at + 1], seg_col[seg]])
    for kk, dv, s, i, t in zip(k[win].tolist(), dec[win].tolist(), seg.tolist(),
                               at.tolist(), thr.tolist()):
        if kk not in best or dv > best[kk][0]:
            best[kk] = (dv, int(seg_local[s]), t, rows[seg_start[s]:i + 1].copy(),
                        rows[i + 1:seg_end[s]].copy())
