"""CART-style classification trees, the one split-search kernel behind them
and the one walk that predicts with them.

``grow_trees`` grows any number of trees, one per bag of rows and columns of
one matrix, together, a level per step: each step takes every pending node
of every unfinished tree and does its column draws, counting, split search
and row partitioning with NumPy calls over all of them at once. ``DecisionTreeClassifier.fit`` is
that kernel with one bag; ``estimators.BaggedTrees`` draws all of its bags
and makes one call. ``Forest`` stacks fitted trees into one node array and
finds the leaf of every (row, tree) pair in one level-by-level walk, the
walk a single tree's ``predict_score`` also uses.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .rng import LEFT_KEY, RIGHT_KEY, Rng, splitmix64_array

# Upper bound on the rows x candidate columns x classes of one split-search
# block (and on the rows x columns ranked at once, and on the (row, tree)
# pairs one prediction walk holds), unless one (node, column) segment alone
# is larger: a block holds at least one whole segment.
MAX_BLOCK_CELLS = 1 << 16


def _impurity(counts: np.ndarray, criterion: str, total: np.ndarray | None = None) -> np.ndarray:
    """Impurity of class-weight rows (last axis = classes); ``total``, when
    given, is ``counts.sum(axis=-1)``."""
    if total is None:
        total = counts.sum(axis=-1)
    total = total[..., None]
    p = counts / np.maximum(total, 1e-300)     # a positive divisor: no 0/0
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


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: where each of consecutive segments starts."""
    return sizes.cumsum() - sizes


def _segments(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices ``starts[k] + arange(sizes[k])`` for every k, concatenated."""
    return np.arange(int(sizes.sum()), dtype=np.int64) + np.repeat(starts - _starts(sizes), sizes)


def _new_run(a: np.ndarray) -> np.ndarray:
    """True where an entry of ``a`` differs from the one before it, and at 0."""
    out = np.empty(a.size, dtype=bool)
    out[:1] = True
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def _walk(X: np.ndarray, rows: np.ndarray, node: np.ndarray, feature, threshold,
          left, right) -> np.ndarray:
    """Leaf reached from node ``node[i]`` by row ``rows[i]`` of ``X``, for
    every pair i: all pairs descend one level per pass, left when the value
    is ``<=`` the threshold (so NaN goes right)."""
    node = node.copy()
    live = np.flatnonzero(feature[node] >= 0)
    while live.size:
        at = node[live]
        go_left = X[rows[live], feature[at]] <= threshold[at]
        node[live] = np.where(go_left, left[at], right[at])
        live = live[feature[node[live]] >= 0]
    return node


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
    1.0 clamp to 1.0). A tree that samples fewer columns than it has needs
    an ``rng``: each node draws its candidates by its key, derived from
    ``rng.seed`` and the node's path from the root (the rule in ``Rng``), so
    the tree does not depend on the order its nodes grow in. A split is kept
    when its root-normalised impurity decrease is positive and at least
    ``min_impurity_decrease``. Nodes are numbered as a depth-first fit
    creates them: the root is 0, and the k-th node split in left-first
    depth-first order has children 2k+1 and 2k+2.
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
        ``rng``, when given, replaces the constructor's Rng, whose seed keys
        the per-node column draws."""
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
        rows = np.arange(len(X))
        return _walk(X, rows, np.zeros_like(rows), self.feature, self.threshold,
                     self.left, self.right)

    def predict_score(self, X) -> np.ndarray:
        leaves = self.value[self._leaf_of(X)]
        totals = leaves.sum(axis=1, keepdims=True)
        return leaves / np.maximum(totals, 1e-300)

    def predict(self, X, deadline=None) -> np.ndarray:
        return self.predict_score(X).argmax(axis=1)

    def node_count(self) -> int:
        return len(self.feature)


class Forest:
    """Fitted trees stacked into one node array, for predicting with all of
    them at once.

    ``label`` is each node's class, ``predict_score``'s argmax of ``value /
    max(total, 1e-300)`` for a row that ends there; child links point into
    the stacked arrays and tree t's root is ``roots[t]``.
    """

    def __init__(self, trees: list[DecisionTreeClassifier]):
        sizes = np.array([t.node_count() for t in trees], dtype=np.int64)
        self.roots = _starts(sizes)
        self.feature = np.concatenate([t.feature for t in trees])
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.left = np.concatenate([np.where(t.left >= 0, t.left + root, -1)
                                    for t, root in zip(trees, self.roots)])
        self.right = np.concatenate([np.where(t.right >= 0, t.right + root, -1)
                                     for t, root in zip(trees, self.roots)])
        value = np.concatenate([t.value for t in trees])
        self.label = (value / np.maximum(value.sum(axis=1, keepdims=True), 1e-300)).argmax(axis=1)

    def predict(self, X, deadline=None) -> np.ndarray:
        """Class of each (row, tree) pair, shape (rows, trees), walked in
        chunks of at most ``MAX_BLOCK_CELLS`` pairs; the deadline is checked
        before each chunk."""
        X = np.asarray(X, dtype=np.float64)
        n, T = len(X), self.roots.size
        out = np.empty((n, T), dtype=np.int64)
        step = max(1, MAX_BLOCK_CELLS // max(T, 1))
        for a in range(0, n, step):
            if deadline is not None:
                deadline.check()
            b = min(n, a + step)
            rows = np.repeat(np.arange(a, b), T)
            leaf = _walk(X, rows, np.tile(self.roots, b - a), self.feature,
                         self.threshold, self.left, self.right)
            out[a:b] = self.label[leaf].reshape(b - a, T)
        return out


def grow_trees(X, y, n_classes: int, bags, *, criterion: str = "gini",
               max_depth: int | None = None, max_features: float | None = None,
               min_samples_split: int = 2, min_impurity_decrease: float = 0.0,
               sample_weight=None, deadline=None) -> list[DecisionTreeClassifier]:
    """Grow one tree per bag ``(rows, cols, rng)`` of ``X``, all together.

    Each tree equals ``DecisionTreeClassifier(...).fit(X[rows][:, cols],
    y[rows], n_classes, rng)`` with the same parameters, bit for bit: the same
    ``feature`` (an index into ``cols``), ``threshold``, ``left``, ``right``
    and ``value`` arrays. ``sample_weight`` is per row of ``X``; a weighted
    call takes exactly one bag. A tree that samples ``max_features`` of its
    columns per node needs its bag's ``rng``.

    Order: the pending nodes of all trees sit in frontier arrays (node id,
    tree, depth, row count and node key) beside one buffer of their rows,
    and every step pops all of them, so every tree grows a level per step
    and a fit takes its deepest tree's depth + 1 steps. A node that samples
    ``max_features`` of its tree's columns draws them by its key (the rule
    in ``Rng``: a root's key is its tree's seed, a child's key mixes its
    parent's key with its side), so its draw does not depend on the order
    in which nodes grow; the popped nodes draw together, scoring about
    ``MAX_BLOCK_CELLS`` (node, column) pairs at a time. The step counts the
    classes of all popped nodes with one ``bincount``, then searches every
    splittable node's candidate (node, column) segments in blocks of
    consecutive segments, each at most ``MAX_BLOCK_CELLS`` rows x columns x
    classes unless one segment alone is larger; a weighted fit's blocks
    never mix nodes. A block of one node sorts that node's values per
    column; a block of several nodes sorts (segment, rank) keys, from
    per-column dense ranks computed once per call on first use. Per column a
    split falls between distinct values and the first largest impurity
    decrease wins; per node the first column whose best is strictly larger
    wins, across blocks too. Unweighted class counts are integers, so their
    segmented prefix sums are exact in any order, and a child takes the rows
    on its side of the winning cut in any order. Weighted sums run
    sequentially in the node's row order, as a lone fit sums them, so a
    weighted child keeps its rows in the stable sorted order of the winning
    column. After growth each tree's nodes are renumbered to the order a
    depth-first fit creates them in (see ``DecisionTreeClassifier``).

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
    if not bags:
        return []
    C, T = n_classes, len(bags)
    ranks = _Ranks(X)
    rngs = [rng for _, _, rng in bags]
    bag_rows = [np.asarray(rows, dtype=np.int64) for rows, _, _ in bags]
    bag_cols = [np.asarray(cols, dtype=np.int64) for _, cols, _ in bags]
    n_cols = np.array([cols.size for cols in bag_cols], dtype=np.int64)
    col_start = _starts(n_cols)
    cols_cat = np.concatenate(bag_cols)
    n_feat = np.array([_n_candidates(max_features, int(d)) for d in n_cols], dtype=np.int64)
    draws = n_feat < n_cols          # trees that sample columns per node
    any_draws = bool(draws.any())
    if any_draws and any(rngs[t] is None for t in np.flatnonzero(draws).tolist()):
        raise ValueError(f"max_features={max_features} samples columns per node, "
                         "which needs an rng; none was given")
    root_w = np.array([rows.size if w is None else w[rows].sum() for rows in bag_rows],
                      dtype=np.float64)

    # the frontier; node k's rows are rows[at[k]:at[k] + size[k]]
    rows = np.concatenate(bag_rows)
    ids = np.arange(T, dtype=np.int64)
    tree = np.arange(T, dtype=np.int64)
    depth = np.zeros(T, dtype=np.int64)
    size = np.array([r.size for r in bag_rows], dtype=np.int64)
    # node keys, kept only when some tree draws columns per node
    key = (np.array([0 if rng is None else rng.seed for rng in rngs], dtype=np.uint64)
           if any_draws else None)
    next_id = T
    popped_log, split_log = [], []

    while ids.size:
        if deadline is not None:
            deadline.check()
        m = ids.size
        node_of = np.repeat(np.arange(m), size)
        value = np.bincount(node_of * C + y[rows],
                            weights=None if w is None else w[rows],
                            minlength=m * C).reshape(m, C).astype(np.float64, copy=False)
        node_w = value.sum(axis=1)
        imp = _impurity(value, criterion, node_w)
        stop = (node_w <= 0.0) | (imp <= 0.0) | (size < min_samples_split)
        if max_depth is not None:
            stop |= depth >= max_depth
        popped_log.append((ids, tree, value))

        go = np.flatnonzero(~stop)
        if go.size == 0:
            break
        at = _starts(size)
        n_cand = n_feat[tree[go]]
        best = _Best(m)
        node_root_w = root_w[tree]
        left = int((size[go] * n_cand).sum()) * C
        started, done = None, 0
        # nodes with about MAX_BLOCK_CELLS columns in all at a time (their
        # (node, column) draw scores, then their candidate segments), so a
        # step of many wide nodes holds few of them at once
        width = n_cols[tree[go]]
        if width.sum() <= MAX_BLOCK_CELLS:
            chunks = [(go, n_cand)]
        else:
            parts = np.flatnonzero(np.diff(_starts(width) // MAX_BLOCK_CELLS)) + 1
            chunks = zip(np.split(go, parts), np.split(n_cand, parts))
        for nodes, n_seg in chunks:
            seg_node = np.repeat(nodes, n_seg)
            seg_local = np.arange(seg_node.size) - np.repeat(_starts(n_seg), n_seg)
            if any_draws and draws[tree[nodes]].any():
                drawn = draws[tree[nodes]]
                at_draw = nodes[drawn]
                seg_local[np.repeat(drawn, n_seg)] = _draw_columns(
                    key[at_draw], n_cols[tree[at_draw]], n_feat[tree[at_draw]])
            seg_col = cols_cat[col_start[tree[seg_node]] + seg_local]
            seg_cells = size[seg_node] * C
            for a, b in _blocks(seg_node, seg_cells, single=w is not None):
                if deadline is not None:
                    deadline.check(started, done, left)
                if seg_node[a] == seg_node[b - 1]:
                    _search_node(seg_node[a], seg_local[a:b], seg_col[a:b], rows, at, size,
                                 X, y, w, C, criterion, value, node_w, imp, node_root_w, best)
                else:
                    _search_nodes(seg_node[a:b], seg_local[a:b], seg_col[a:b], rows, at, size,
                                  X, y, C, ranks, criterion, value, node_w, imp,
                                  node_root_w, best)
                cells = int(seg_cells[a:b].sum())
                left -= cells
                if started is None:  # the first block carries one-off costs
                    started = time.monotonic()
                else:
                    done += cells

        split = np.flatnonzero(~((best.dec <= 0.0) | (best.dec < min_impurity_decrease)))
        if split.size == 0:
            break
        s_size = size[split]
        s_rows = rows if split.size == m else rows[_segments(at[split], s_size)]
        s_node = np.repeat(np.arange(split.size), s_size)
        f = cols_cat[col_start[tree[split]] + best.local[split]]
        n_left = best.n_left[split]
        if w is None:
            go_left = X[s_rows, f[s_node]] <= best.cut[split][s_node]
        else:  # the winning column's stable order, then a cut by position
            s_rows = s_rows[np.lexsort((X[s_rows, f[s_node]], s_node))]
            go_left = (np.arange(s_rows.size) - np.repeat(_starts(s_size), s_size)
                       < np.repeat(n_left, s_size))
        l_id = next_id + 2 * np.arange(split.size, dtype=np.int64)
        next_id += 2 * split.size
        split_log.append((ids[split], best.local[split], best.thr[split], l_id, l_id + 1))
        # the next frontier: every left child, then every right child
        parent = np.concatenate([split, split])
        rows = np.concatenate([s_rows[go_left], s_rows[~go_left]])
        ids = np.concatenate([l_id, l_id + 1])
        tree = tree[parent]
        depth = depth[parent] + 1
        size = np.concatenate([n_left, s_size - n_left])
        if any_draws:
            side = np.repeat(np.array([LEFT_KEY, RIGHT_KEY], dtype=np.uint64), split.size)
            key = splitmix64_array(key[parent] ^ side)

    return _assemble(next_id, popped_log, split_log, C, T, dict(
        criterion=criterion, max_depth=max_depth, max_features=max_features,
        min_samples_split=min_samples_split, min_impurity_decrease=min_impurity_decrease),
        rngs)


def _draw_columns(keys: np.ndarray, n_cols: np.ndarray, n_feat: np.ndarray) -> np.ndarray:
    """The candidate columns of nodes with keys ``keys``, node i taking
    ``n_feat[i]`` of ``n_cols[i]`` columns by the rule in ``Rng``: each
    node's columns ascending, concatenated in node order."""
    out = np.empty(int(n_feat.sum()), dtype=np.int64)
    at = _starts(n_feat)
    shapes, group = np.unique(np.stack([n_cols, n_feat]), axis=1, return_inverse=True)
    for g, (d, k) in enumerate(shapes.T.tolist()):
        i = np.flatnonzero(group.ravel() == g)
        col_keys = splitmix64_array(np.arange(1, d + 1, dtype=np.uint64))
        score = splitmix64_array(keys[i, None] ^ col_keys)
        # one node's scores are distinct (xor with its key and splitmix64
        # are bijections), so exactly k of them are at most the k-th smallest
        kth = np.partition(score, k - 1, axis=1)[:, k - 1:k]
        out[at[i, None] + np.arange(k)] = np.nonzero(score <= kth)[1].reshape(i.size, k)
    return out


class _Best:
    """Best split found so far for each popped node of a step: its impurity
    decrease (-inf before any), local column, threshold, the value just left
    of the cut and the number of rows left of it."""

    def __init__(self, m: int):
        self.dec = np.full(m, -np.inf)
        self.local = np.zeros(m, dtype=np.int64)
        self.thr = np.zeros(m)
        self.cut = np.zeros(m)
        self.n_left = np.zeros(m, dtype=np.int64)


def _blocks(seg_node: np.ndarray, seg_cells: np.ndarray, single: bool):
    """``(a, b)`` ranges of consecutive segments, each of at most
    MAX_BLOCK_CELLS cells unless one segment alone is larger; with
    ``single``, no range holds segments of two nodes."""
    if seg_cells.size == 0:
        return
    ends = np.cumsum(seg_cells)
    if ends[-1] <= MAX_BLOCK_CELLS and (not single or seg_node[0] == seg_node[-1]):
        yield 0, seg_cells.size         # one block holds them all
        return
    if single:
        node_end = np.append(np.flatnonzero(_new_run(seg_node))[1:], seg_node.size)
    a = 0
    while a < seg_cells.size:
        base = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + MAX_BLOCK_CELLS, side="right")))
        if single:
            b = min(b, int(node_end[np.searchsorted(node_end, a, side="right")]))
        yield a, b
        a = b


def _search_node(k, seg_local, seg_col, rows, at, size, X, y, w, C, criterion, value,
                 node_w, imp, root_w, best: _Best) -> None:
    """Best split of node ``k`` over one block of its candidate columns,
    each sorted by value; updates ``best`` where it is strictly larger than
    what earlier blocks found."""
    node_rows = rows[at[k]:at[k] + size[k]]
    order = np.argsort(X[node_rows[None, :], seg_col[:, None]], axis=1,
                       kind=None if w is None else "stable")
    srows = node_rows[order]                    # (column, position)
    vals = X[srows, seg_col[:, None]]
    col, pos = np.nonzero(vals[:, 1:] > vals[:, :-1])  # a split after (col, pos)
    if col.size == 0:
        return
    labels = y[srows]
    if w is None:
        onehot = np.eye(C)[labels]
    else:
        onehot = np.zeros(labels.shape + (C,))
        onehot.reshape(-1, C)[np.arange(labels.size), labels.ravel()] = w[srows].ravel()
    left = np.cumsum(onehot, axis=1, out=onehot)[col, pos]
    right = value[k] - left
    if w is None:  # integer counts: a row sum is the number of entries
        wl = (pos + 1).astype(np.float64)
        wr = node_w[k] - wl
    else:
        wl = left.sum(axis=1)
        wr = right.sum(axis=1)
    child = (wl * _impurity(left, criterion, wl)
             + wr * _impurity(right, criterion, wr)) / node_w[k]
    dec = (node_w[k] / root_w[k]) * (imp[k] - child)
    # the first largest decrease, in (column, position) order; a NaN
    # decrease wins nothing (NaN is argmax's largest, and fails >)
    j = np.argmax(dec)
    if not dec[j] > best.dec[k]:
        return
    c, i = col[j], pos[j]
    best.dec[k] = dec[j]
    best.local[k] = seg_local[c]
    best.thr[k] = 0.5 * (vals[c, i] + vals[c, i + 1])
    best.cut[k] = vals[c, i]
    best.n_left[k] = i + 1


def _search_nodes(seg_node, seg_local, seg_col, rows, at, size, X, y, C, ranks,
                  criterion, value, node_w, imp, root_w, best: _Best) -> None:
    """Best split per node over one unweighted block of whole (node, column)
    segments of several nodes, sorted together by (segment, rank) keys;
    updates ``best`` where it is strictly larger than what earlier blocks
    found."""
    seg_len = size[seg_node]
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    E = int(seg_end[-1])
    entry_seg = np.repeat(np.arange(seg_node.size), seg_len)
    n = ranks.nan_rank
    srows = rows[np.arange(E) + np.repeat(at[seg_node] - seg_start, seg_len)]
    ranks.need(seg_col)
    rank = ranks.table[seg_col[entry_seg], srows]
    order = np.argsort(entry_seg * (n + 1) + rank)
    srows = srows[order]
    rank = rank[order]
    cut = np.zeros(E, dtype=bool)       # a split after entry i
    cut[:-1] = rank[1:] > rank[:-1]
    cut[seg_end - 1] = False            # not across segments
    if ranks.any_nan:
        cut[:-1] &= rank[1:] < n
    cut = np.flatnonzero(cut)
    if cut.size == 0:
        return
    k = seg_node[entry_seg[cut]]
    # integer counts: differences of one running sum are exact
    onehot = np.eye(C)[y[srows]]
    cum = np.cumsum(onehot, axis=0, out=onehot)
    base = np.zeros((seg_len.size, C))
    base[1:] = cum[seg_start[1:] - 1]
    left = cum[cut] - base[entry_seg[cut]]
    right = value[k] - left
    wl = (cut - seg_start[entry_seg[cut]] + 1).astype(np.float64)  # a row sum is a count
    wr = node_w[k] - wl
    child = (wl * _impurity(left, criterion, wl)
             + wr * _impurity(right, criterion, wr)) / node_w[k]
    dec = (node_w[k] / root_w[k]) * (imp[k] - child)
    # first largest decrease per node, in (column, position) order; a node
    # with a NaN decrease wins nothing
    new = _new_run(k)
    top = np.maximum.reduceat(dec, np.flatnonzero(new))
    hit = np.flatnonzero(dec == top[np.cumsum(new) - 1])
    win = hit[_new_run(k[hit])]
    win = win[dec[win] > best.dec[k[win]]]
    if win.size == 0:
        return
    i = cut[win]
    s = entry_seg[i]
    lo = X[srows[i], seg_col[s]]
    kw = k[win]
    best.dec[kw] = dec[win]
    best.local[kw] = seg_local[s]
    best.thr[kw] = 0.5 * (lo + X[srows[i + 1], seg_col[s]])
    best.cut[kw] = lo
    best.n_left[kw] = i - seg_start[s] + 1


def _assemble(n_nodes, popped_log, split_log, C, T, params, rngs):
    """Trees from the growth logs, each numbered as a depth-first fit
    numbers it: the k-th node split in left-first preorder has children
    2k+1 and 2k+2. Step d split exactly the split nodes at depth d, so
    split counts per subtree go up the split log and preorder positions
    come down it."""
    ids, tree, value = (np.concatenate(parts) for parts in zip(*popped_log))
    node_tree = np.empty(n_nodes, dtype=np.int64)
    node_tree[ids] = tree
    inner = np.zeros(n_nodes, dtype=np.int64)   # split nodes in each subtree
    before = np.zeros(n_nodes, dtype=np.int64)  # split nodes before each in preorder
    local = np.zeros(n_nodes, dtype=np.int64)
    if split_log:
        s_id, s_feat, s_thr, s_left, s_right = (np.concatenate(p) for p in zip(*split_log))
        inner[s_id] = 1
    for v, _, _, lv, rv in reversed(split_log):
        inner[v] += inner[lv] + inner[rv]
    for v, _, _, lv, rv in split_log:
        before[lv] = before[v] + 1
        before[rv] = before[v] + 1 + inner[lv]
        local[lv] = 2 * before[v] + 1
        local[rv] = 2 * before[v] + 2
    counts = np.bincount(node_tree, minlength=T)
    roots = _starts(counts)
    pos = roots[node_tree] + local              # each node's final position
    feature = np.full(n_nodes, -1, dtype=np.int64)
    threshold = np.zeros(n_nodes)
    left = np.full(n_nodes, -1, dtype=np.int64)
    right = np.full(n_nodes, -1, dtype=np.int64)
    node_value = np.empty((n_nodes, C))
    node_value[pos[ids]] = value
    if split_log:
        at = pos[s_id]
        feature[at], threshold[at] = s_feat, s_thr
        left[at], right[at] = local[s_left], local[s_right]
    trees = []
    for t, (a, b) in enumerate(zip(roots.tolist(), (roots + counts).tolist())):
        one = DecisionTreeClassifier(rng=rngs[t], **params)
        one.n_classes = C
        one.feature, one.threshold = feature[a:b], threshold[a:b]
        one.left, one.right, one.value = left[a:b], right[a:b], node_value[a:b]
        trees.append(one)
    return trees
