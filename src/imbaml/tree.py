"""CART-style classification trees, the one split-search kernel behind them
and the one walk that predicts with them.

``grow_trees`` grows any number of trees, one per bag of rows and columns of
one matrix, together, a level per step: each step takes every pending node
of every unfinished tree and does its column draws, counting, split search
and row partitioning with NumPy calls over all of them at once. One kernel
searches every block of (node, column) segments, weighted or not. It
screens the cuts with a cheap score of bounded rounding error, except in
weighted blocks below ``SCREEN_MIN_CELLS``, which keep every cut, and
scores only the kept cuts with the reference formula, so every tree is the
one scoring every cut gives. ``DecisionTreeClassifier.fit`` is
``grow_trees`` with one bag; ``estimators.BaggedTrees`` draws all of its
bags and makes one call. ``Forest`` stacks fitted trees into one node array
and finds the leaf of every (row, tree) pair in one level-by-level walk,
the walk a single tree's ``predict_score`` also uses.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .rng import LEFT_KEY, RIGHT_KEY, Rng, splitmix64_array

# Upper bound on the entries (rows x candidate columns) of one split-search
# block (and on the rows x columns ranked at once, and on the (row, tree)
# pairs one prediction walk holds), unless one (node, column) segment alone
# is larger: a block holds at least one whole segment.
MAX_BLOCK_CELLS = 1 << 16
# A weighted block of fewer cuts x classes than this scores every cut
# exactly; a larger one screens its cuts first (``_screen``). Below it the
# screen's fixed cost exceeds what it saves: depth-3 weighted fits on
# 50 x 9 (10 classes), 40 x 17 and 200 x 17 (2 classes) bags took 2.1, 2.0
# and 3.6 ms with this threshold and 3.6, 3.4 and 4.7 ms with every block
# screened (2-vCPU VM, NumPy 2.4.6), for the same trees.
SCREEN_MIN_CELLS = 1 << 13
_U = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).smallest_subnormal


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
        if self.done.all():
            return
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
    the ``rng`` of ``fit``: each node draws its candidates by its key,
    derived from ``rng.seed`` and the node's path from the root (the rule in
    ``Rng``), so the tree does not depend on the order its nodes grow in. A
    node of fewer than two rows is a leaf. A split is kept when its
    root-normalised impurity decrease is positive and at least
    ``min_impurity_decrease``. Nodes are numbered as a depth-first fit
    creates them: the root is 0, and the k-th node split in left-first
    depth-first order has children 2k+1 and 2k+2.
    """

    def __init__(self, criterion: str = "gini", max_depth: int | None = None,
                 max_features: float | None = None, min_impurity_decrease: float = 0.0):
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.n_classes = None
        self.feature = None     # per node; -1 marks a leaf
        self.threshold = None
        self.left = None
        self.right = None
        self.value = None       # per node class-weight sums

    def fit(self, X, y, n_classes: int | None = None, rng: Rng | None = None,
            deadline=None, sample_weight=None):
        """Grow the tree (``grow_trees`` with one bag of every row and column);
        ``rng``'s seed keys the per-node column draws."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1
        n, d = X.shape
        grown, = grow_trees(X, y, n_classes, [(np.arange(n), np.arange(d), rng)],
                            criterion=self.criterion, max_depth=self.max_depth,
                            max_features=self.max_features,
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


def node_labels(value: np.ndarray) -> np.ndarray:
    """Each node's class: ``predict_score``'s argmax of ``value /
    max(total, 1e-300)`` for a row that ends there."""
    return (value / np.maximum(value.sum(axis=1, keepdims=True), 1e-300)).argmax(axis=1)


class Forest:
    """Fitted trees stacked into one node array, for predicting with all of
    them at once.

    ``label`` is each node's class (``node_labels``); child links point into
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
        self.label = node_labels(np.concatenate([t.value for t in trees]))

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
               min_impurity_decrease: float = 0.0, sample_weight=None, deadline=None,
               ranks: _Ranks | None = None) -> list[DecisionTreeClassifier]:
    """Grow one tree per bag ``(rows, cols, rng)`` of ``X``, all together.

    Each tree equals ``DecisionTreeClassifier(...).fit(X[rows][:, cols],
    y[rows], n_classes, rng=rng)`` with the same parameters, bit for bit: the same
    ``feature`` (an index into ``cols``), ``threshold``, ``left``, ``right``
    and ``value`` arrays. ``sample_weight`` is per row of ``X``; a weighted
    call takes exactly one bag. A tree that samples ``max_features`` of its
    columns per node needs its bag's ``rng``. ``ranks``, a ``_Ranks`` of this
    very ``X``, lets calls on one matrix share its rank table (RUSBoost
    builds one per fit); without it the call ranks the columns it needs.

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
    consecutive segments, each at most ``MAX_BLOCK_CELLS`` entries (rows x
    columns) unless one segment alone is larger; a weighted fit's blocks
    never mix nodes. Per column a split falls between distinct values and
    the first largest impurity decrease wins; per node the first column
    whose best is strictly larger wins, across blocks too.

    Every block goes through one kernel (``_search_block``), which sorts,
    screens and sums the left class weights by whether the fit is
    weighted, and scores the kept cuts and picks the winners alike:
      * sort: a block of one unweighted node sorts that node's values per
        column; a block of several unweighted nodes sorts (segment, rank)
        keys; a weighted node sorts unique (rank, position in the node)
        keys per column, the stable sort by value, whatever its size.
        Ranks are per-column dense ranks, computed once per call on first
        use.
      * screen: unweighted class counts are integers, so the block screens
        every cut in O(entries) from exact integer prefix sums
        (``_count_screen``, ``_count_slack``). A weighted block of at least
        ``SCREEN_MIN_CELLS`` cuts x classes, when every weight is finite
        and has no sign bit, screens its cuts with an O(rows x columns)
        surrogate of the decrease of bounded rounding error (``_screen``,
        ``_screen_slack``); a smaller one scores every cut.
      * left sums: exact counts, unweighted; weighted, the class sums of a
        cumulative sum of one-hot rows, or for a screened block the
        survivors' sums added in the same order (``_survivor_sums``).
    Either way the winner is the one scoring every cut picks. Weighted
    sums run sequentially in the node's row order, as a lone fit sums
    them, so a weighted child keeps its rows in the sorted order of the
    winning column; an unweighted child takes the rows on its side of the
    winning cut in any order. After growth each tree's nodes are
    renumbered to the order a depth-first fit creates them in (see
    ``DecisionTreeClassifier``).

    The deadline is checked once per step and before every block. From the
    end of a step's first block on, which carries one-off costs such as
    ranking columns, each check also projects the rest of the step: its
    seconds per entry so far times the entries (rows x candidate columns)
    it has left. That is a lower bound on the rest of the fit, and
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
    if ranks is None:
        ranks = _Ranks(X)
    elif ranks.X is not X:
        raise ValueError("ranks must be a _Ranks of this X")
    # the screen's error bound needs finite weights without a sign bit
    screen = w is not None and bool(np.isfinite(w).all()) and not np.signbit(w).any()
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
        stop = (node_w <= 0.0) | (imp <= 0.0) | (size < 2)
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
        left = int((size[go] * n_cand).sum())
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
            seg_len = size[seg_node]
            for a, b in _blocks(seg_node, seg_len, single=w is not None):
                if deadline is not None:
                    deadline.check(started, done, left)
                _search_block(seg_node[a:b], seg_local[a:b], seg_col[a:b], rows, at, size, X, y,
                              w, C, ranks, screen, criterion, value, node_w, imp, node_root_w,
                              best)
                entries = int(seg_len[a:b].sum())
                left -= entries
                if started is None:  # the first block carries one-off costs
                    started = time.monotonic()
                else:
                    done += entries

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
            s_rows = np.concatenate([best.order[k] for k in split.tolist()])
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
        min_impurity_decrease=min_impurity_decrease))


def _draw_columns(keys: np.ndarray, n_cols: np.ndarray, n_feat: np.ndarray) -> np.ndarray:
    """The candidate columns of nodes with keys ``keys``, node i taking
    ``n_feat[i]`` of ``n_cols[i]`` columns by the rule in ``Rng``: each
    node's columns ascending, concatenated in node order."""
    out = np.empty(int(n_feat.sum()), dtype=np.int64)
    at = _starts(n_feat)
    base = int(n_feat.max()) + 1
    # one integer per (columns, draws) pair: a 1-d unique is a plain sort
    shapes, group = np.unique(n_cols * base + n_feat, return_inverse=True)
    for g, (d, k) in enumerate(divmod(s, base) for s in shapes.tolist()):
        i = np.flatnonzero(group == g)
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
    of the cut and the number of rows left of it; for a weighted node also
    its rows in the stable sorted order of the winning column."""

    def __init__(self, m: int):
        self.dec = np.full(m, -np.inf)
        self.local = np.zeros(m, dtype=np.int64)
        self.thr = np.zeros(m)
        self.cut = np.zeros(m)
        self.n_left = np.zeros(m, dtype=np.int64)
        self.order = [None] * m


def _blocks(seg_node: np.ndarray, seg_len: np.ndarray, single: bool):
    """``(a, b)`` ranges of consecutive segments, each of at most
    MAX_BLOCK_CELLS entries (``seg_len``) unless one segment alone is
    larger; with ``single``, no range holds segments of two nodes."""
    if seg_len.size == 0:
        return
    ends = np.cumsum(seg_len)
    if ends[-1] <= MAX_BLOCK_CELLS and (not single or seg_node[0] == seg_node[-1]):
        yield 0, seg_len.size         # one block holds them all
        return
    if single:
        node_end = np.append(np.flatnonzero(_new_run(seg_node))[1:], seg_node.size)
    a = 0
    while a < seg_len.size:
        base = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + MAX_BLOCK_CELLS, side="right")))
        if single:
            b = min(b, int(node_end[np.searchsorted(node_end, a, side="right")]))
        yield a, b
        a = b


def _keyed_order(node_rows, seg_col, ranks: _Ranks):
    """One node's rows sorted per candidate column, shape (column,
    position), and their ranks. Each column sorts the unique int64 keys
    ``rank << s | position``, so equal values keep their order in the node
    and NaN (the top rank) goes last: the stable sort by value, from
    NumPy's default sort."""
    n = node_rows.size
    ranks.need(seg_col)
    shift = max(n - 1, 1).bit_length()
    key = ranks.table.take(seg_col, axis=0).take(node_rows, axis=1).astype(np.int64)
    key <<= shift
    key |= np.arange(n)
    key.sort(axis=1)
    return node_rows.take(key & ((1 << shift) - 1)), key >> shift


def _survivor_sums(srows, col, pos, y, w, C) -> np.ndarray:
    """Class weights left of the cuts after ``(col, pos)`` of the sorted
    rows ``srows``, shape (cuts, C), bit for bit those of a cumulative sum
    of weighted one-hot rows: each class's weights added one at a time in
    column order. Few cuts take one ``bincount`` over each one's prefix,
    which adds in that order; many take the one-hot sum over their
    columns, so this never costs more than that."""
    new = _new_run(col)                          # col is ascending
    cols, inv = col[new], np.cumsum(new) - 1
    # in cells: a bincount reads its prefix and costs about 512 cells for
    # the call; the one-hot sum fills and sums columns x rows x classes
    if int(pos.sum()) + 512 * pos.size <= cols.size * srows.shape[1] * C:
        prefixes = [srows[c, :p + 1] for c, p in zip(col.tolist(), pos.tolist())]
        return np.array([np.bincount(y.take(r), weights=w.take(r), minlength=C)
                         for r in prefixes])
    return _onehot_sums(srows[cols], y, w, C)[inv, pos]


def _onehot_sums(srows, y, w, C) -> np.ndarray:
    """Class weights of each prefix of each row of ``srows``, shape
    ``srows.shape + (C,)``: a cumulative sum of one-hot rows of the rows'
    weights."""
    labels = y[srows]
    onehot = np.zeros(labels.shape + (C,))
    onehot.reshape(-1, C)[np.arange(labels.size), labels.ravel()] = w[srows].ravel()
    return np.cumsum(onehot, axis=1, out=onehot)


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """x log2 x of non-negative x, 0 at 0."""
    return x * np.log2(np.maximum(x, _TINY))


def _screen_slack(n: int, C: int, criterion: str, W: float) -> float:
    """Bound on the rounding error of one ``_screen`` score plus that of a
    lone fit's decrease, in units of the child impurity, for a node of n
    rows, C classes and weight W.

    Let u = eps / 2 and scale the weights by 1 / W, so they sum to about 1.
    A cut is regular when both of its sides weigh more than ``_screen``'s
    z >= 32 (n + C + 4) u; the bound covers regular cuts, and ``_screen``
    keeps every other cut.
      * A lone fit's left class sums are cumulative sums and its right ones
        the node's class sums less the left ones, all of non-negative
        terms, so a side's class sums are off by Delta <= (2n + 1) u in all
        (Higham 2002, eq. 3.5), and Delta < w / 16 on a regular side of
        weight w. Gini's side term w - sum_c X_c^2 / w then moves by at most
        5.5 Delta, and the entropy's w H(X / w) by at most (2.7 Delta +
        1.4 C u w)(log2 C + 52) (Fannes' inequality, |f(x) - f(y)| <=
        f(|x - y|) for f(t) = -t log2 t and |x - y| <= 1/2). Evaluating the
        impurities adds (C + 10)(log2 C + 1) u w, and two children at most
        6 u max(1, log2 C) apart can round to one decrease.
      * The screen's running class sums are differences of one prefix sum,
        off by at most (2n + 1) u from the left and (4n + 3) u from the
        right; its side weights are prefix and suffix sums, off by n u
        relatively, and scaling by 1 / W moves each weight by u relatively.
        Per class and per unit of a class sum's error, x^2 moves by at most
        2 x and x log2 x by at most 52 (Fannes again); the increments
        telescope per class, so their running sums add only n u times the
        sum of their sizes (at most w^2 for x^2, 1.07 C for x log2 x).
    Summed over both sides, that is at most (C + 40)(n + C + 4) u for gini
    and 400 (C + 4)(n + C + 4) u for entropy. The returned 64 (C + 4)(n + C
    + 4) u and 1024 (C + 4)(n + C + 4) u cover them; the tiny / W added to
    u covers underflow, each operation of a lone fit on unscaled weights
    being off by at most one smallest subnormal.
    """
    scale = 64 if criterion == "gini" else 1024
    return scale * (C + 4) * (n + C + 4) * (_U + _TINY / W)


def _screen(srows, cut, y, w, C, criterion, W) -> np.ndarray:
    """The cuts of one weighted node that may win: a mask like ``cut``.

    ``srows`` holds the node's rows per candidate column in column order;
    weights are divided by the node's weight W. For the cut after position
    p, let wl and wr be the weights left and right of it and L_c, R_c their
    class-c parts. The lower the child impurity, the higher the score:
    sum_c L_c^2 / wl + sum_c R_c^2 / wr for gini, and sum_c l(L_c) + sum_c
    l(R_c) - l(wl) - l(wr) for entropy, l(x) = x log2 x. Every cut is
    scored in O(rows) per column, with no pass as wide as the classes. Each
    column's rows are grouped by class (a stable sort of the labels), and
    one prefix sum of the grouped weights gives each row j its class's
    running sum L(j), up to and with j, and R(j) = V_c - L(j), the class's
    weight after j. Row j moves phi(L(j)) - phi(L(j-)) into sum_c phi(L_c)
    and phi(R(j-)) - phi(R(j)) out of sum_c phi(R_c) (j- is the row before j
    in its class; before the first one, L = 0 and R = V_c), phi being x^2
    or l. Prefix sums of these increments in column order give sum_c
    phi(L_c) at every cut and suffix sums give sum_c phi(R_c); wl and wr
    are prefix and suffix sums too. No side's sum subtracts the other side
    from the whole, which would cancel on a light side.

    With e = ``_screen_slack`` bounding the error of a score and of a lone
    fit's decrease, a regular cut (both sides heavier than z; see there)
    whose score is below the best regular score less 2e has a smaller
    decrease than the best regular cut, as a lone fit computes them, and is
    dropped. Every other cut is kept: irregular ones, whose lone-fit
    decrease may be anything (NaN included), and any whose score or bound
    is not finite.
    """
    b, n = srows.shape
    v = w.take(srows)                            # (column, position)
    v /= W
    ys = y.take(srows)
    counts = np.bincount(ys[0], minlength=C)     # every column holds the node's rows
    counts = counts[counts > 0]
    ends = np.cumsum(counts)
    starts = ends - counts
    # each column's positions grouped by class, in column order within one,
    # as flat indices into (column, position)
    g = np.argsort(ys.astype(np.min_scalar_type(C - 1)), axis=1, kind="stable")
    g += (np.arange(b) * n)[:, None]
    F = np.cumsum(v.take(g), axis=1)
    base = F[:, starts - 1]
    base[:, 0] = 0.0
    total = F[:, ends - 1] - base                # V_c
    # phi(L(j)) and phi(R(j)), L(j) the class's running sum up to and with
    # row j and R(j) = V_c - L(j) the one after it, grouped
    phi = np.square if criterion == "gini" else _xlog2x
    A = np.empty((2, b, n))
    np.subtract(F, np.repeat(base, counts, axis=1), out=A[0])
    np.subtract(np.repeat(total, counts, axis=1), A[0], out=A[1])
    A = phi(A)
    # d(j) = A(j) - A(j-), j- the row before j in its class; before the
    # first, L = 0 and R = V_c. Row j adds d[0](j) to the sums from the
    # left and -d[1](j) to those from the right.
    d = np.empty_like(A)
    np.subtract(A[:, :, 1:], A[:, :, :-1], out=d[:, :, 1:])
    d[0][:, starts] = A[0][:, starts]
    d[1][:, starts] = A[1][:, starts] - phi(total)
    # scattered to column order beside the weights, the right ones to
    # reversed column order, so that their suffix sums are prefix sums
    pre = np.empty((2, b, n))
    np.put(pre[1], g, d[0])
    np.cumsum(v, axis=1, out=pre[0])
    np.cumsum(pre[1], axis=1, out=pre[1])
    suf = np.empty((2, b, n))
    np.put(suf[1], ((2 * np.arange(b) + 1) * n - 1)[:, None] - g, d[1])
    np.cumsum(v[:, ::-1], axis=1, out=suf[0])
    np.cumsum(suf[1], axis=1, out=suf[1])
    wl, sl = pre[0, :, :-1], pre[1, :, :-1]      # at the cut after each position
    wr, sr = suf[0, :, n - 2::-1], suf[1, :, n - 2::-1]
    z = max(32 * (n + C + 4) * _U, 4e-300 / W)   # see _screen_slack
    if criterion == "gini":
        score = sl / np.maximum(wl, z)
        score -= sr / np.maximum(wr, z)
    else:
        score = sl - sr
        score -= _xlog2x(wl)
        score -= _xlog2x(wr)
    near = (wl <= z) | (wr <= z)
    np.copyto(score, -np.inf, where=near | ~cut)  # the best regular score is the max
    top = score.max()
    if top == -np.inf:                             # no regular cut
        return cut
    return cut & (near | ~(score < top - 2 * _screen_slack(n, C, criterion, W)))


def _search_block(seg_node, seg_local, seg_col, rows, at, size, X, y, w, C, ranks, screen,
                  criterion, value, node_w, imp, root_w, best: _Best) -> None:
    """Best split per node over one block of whole (node, column) segments,
    of one node or, unweighted, several; updates ``best`` where it is
    strictly larger than what earlier blocks found.

    Each segment is sorted by value (``_sorted_entries``; a weighted node
    sorts stably) and a split falls between distinct values (NaN compares
    false). Besides that order, only the screen and the left class sums
    depend on weights:
      * an unweighted block screens every cut in O(entries) from integer
        class counts (``_count_screen``): per node, a cut whose score is
        more than twice ``_count_slack`` below the node's best has a
        smaller decrease, as the reference formula computes it, than the
        best-scoring cut, and is dropped. The survivors' left class counts
        are exact.
      * a weighted block of at least ``SCREEN_MIN_CELLS`` cuts x classes,
        with screenable weights (``grow_trees``) and a finite node weight,
        keeps only the cuts that ``_screen`` cannot rule out. Each cut it
        drops has a smaller decrease, as a lone fit computes it, than the
        winner, and it keeps every cut whose decrease could be NaN. The
        survivors' left class sums are those of the one-hot sum, bit for
        bit (``_survivor_sums``).
      * a smaller weighted block scores every cut, from the class sums of
        one cumulative sum of weighted one-hot rows (``_onehot_sums``).
    The kept cuts are scored with the reference formula, and the first
    largest decrease per node in (column, position) order wins; a NaN
    decrease wins nothing (NaN is argmax's largest, and fails >). A
    weighted winner also records its column's sorted rows, which its
    children keep in that order.
    """
    seg_len = size[seg_node]
    seg_end = np.cumsum(seg_len)
    S, E = seg_len.size, int(seg_end[-1])
    seg_start = seg_end - seg_len
    entry_seg = np.repeat(np.arange(S), seg_len)    # each entry's segment
    srows, cut = _sorted_entries(seg_node, seg_col, seg_len, seg_end, entry_seg, rows, at,
                                 X, ranks, w is not None)
    one = seg_node[0] == seg_node[-1]
    if w is not None:                               # of one node
        W = node_w[seg_node[0]]
        grid = srows.reshape(S, -1)                 # (column, position)
        screened = (screen and S * (seg_len[0] - 1) * C >= SCREEN_MIN_CELLS
                    and math.isfinite(W))
        if screened:
            mask = cut.reshape(S, -1)[:, :-1]
            mask &= _screen(grid, mask, y, w, C, criterion, W)
    cut = np.flatnonzero(cut)
    if cut.size == 0:
        return
    s = entry_seg[cut]
    if w is None:
        # the entries grouped by (class, segment), in block order within a
        # group (a stable sort of small labels is a radix sort), and each
        # one's group, class * segments + segment, ascending
        lab = y[srows].astype(np.min_scalar_type(C - 1))
        g = np.argsort(lab, kind="stable")
        key = lab[g] * np.int64(S)
        key += entry_seg[g]
        first = np.flatnonzero(_new_run(key))
        keep = _count_screen(g, first, cut, seg_len, seg_end, seg_node, s, C, criterion)
        cut, s = cut[keep], s[keep]
        # exact left counts: the entries of each (class, segment) group at
        # or before the cut, in the ascending keys (class, segment, entry)
        key *= E
        key += g
        q = (np.arange(C) * S + s[:, None]) * E
        left = (np.searchsorted(key, q + cut[:, None], side="right")
                - np.searchsorted(key, q)).astype(np.float64)
    elif screened:
        left = _survivor_sums(grid, s, cut - seg_start[s], y, w, C)
    else:
        left = _onehot_sums(grid, y, w, C).reshape(E, C)[cut]
    k = seg_node[0] if one else seg_node[s]
    right = value[k] - left
    wl = left.sum(axis=1)
    wr = right.sum(axis=1)
    child = (wl * _impurity(left, criterion, wl)
             + wr * _impurity(right, criterion, wr)) / node_w[k]
    dec = (node_w[k] / root_w[k]) * (imp[k] - child)
    # first largest decrease per node, in (column, position) order
    if one:
        win = np.argmax(dec)
        if not dec[win] > best.dec[k]:
            return
    else:
        new = _new_run(k)
        top = np.maximum.reduceat(dec, np.flatnonzero(new))
        hit = np.flatnonzero(dec == top[np.cumsum(new) - 1])
        win = hit[_new_run(k[hit])]
        win = win[dec[win] > best.dec[k[win]]]
        if win.size == 0:
            return
    i = cut[win]
    sw = s[win]
    lo = X[srows[i], seg_col[sw]]
    kw = seg_node[sw]
    best.dec[kw] = dec[win]
    best.local[kw] = seg_local[sw]
    best.thr[kw] = 0.5 * (lo + X[srows[i + 1], seg_col[sw]])
    best.cut[kw] = lo
    best.n_left[kw] = i + 1 - seg_start[sw]
    if w is not None:
        best.order[k] = grid[sw].copy()


def _sorted_entries(seg_node, seg_col, seg_len, seg_end, entry_seg, rows, at, X,
                    ranks: _Ranks, weighted: bool):
    """The rows of a block's (node, column) segments, each segment sorted
    by value, concatenated, and a mask of the entries after which a split
    may fall: before a larger value, other than NaN, in the same segment.
    A weighted node orders its rows per column as a stable sort by value
    (``_keyed_order``), as its sums run in that order; an unweighted node
    sorts its values per column; several unweighted nodes sort the unique
    int64 keys ``(segment * (n + 1) + rank) << b | entry``, with b the bits
    of an entry index. ``entry_seg`` holds each entry's segment."""
    E = int(seg_end[-1])
    cut = np.zeros(E, dtype=bool)
    if not weighted and seg_node[0] == seg_node[-1]:
        node_rows = rows[at[seg_node[0]]:][:seg_len[0]]
        vals = X[node_rows[None, :], seg_col[:, None]]
        order = np.argsort(vals, axis=1)
        srows = node_rows[order].ravel()
        vals = np.take_along_axis(vals, order, axis=1).ravel()
        np.greater(vals[1:], vals[:-1], out=cut[:-1])
    else:
        if weighted:
            node_rows = rows[at[seg_node[0]]:][:seg_len[0]]
            srows, rank = _keyed_order(node_rows, seg_col, ranks)
            srows, rank = srows.ravel(), rank.ravel()
        else:
            srows = rows[np.arange(E) + np.repeat(at[seg_node] - (seg_end - seg_len), seg_len)]
            ranks.need(seg_col)
            rank = ranks.table[seg_col[entry_seg], srows]
            # below 2^63: a block of several nodes holds at most
            # MAX_BLOCK_CELLS (2^16) entries, and ranks are int32
            shift = max(E - 1, 1).bit_length()
            key = entry_seg * (ranks.nan_rank + 1) + rank
            key <<= shift
            key |= np.arange(E)
            key.sort()
            order = key & ((1 << shift) - 1)
            srows = srows[order]
            rank = rank[order]
        np.greater(rank[1:], rank[:-1], out=cut[:-1])
        if ranks.any_nan:
            cut[:-1] &= rank[1:] < ranks.nan_rank
    cut[seg_end - 1] = False
    return srows, cut


def _count_screen(g, first, cut, seg_len, seg_end, seg_node, s, C: int,
                  criterion: str) -> np.ndarray:
    """The cuts of one unweighted block that may win, as indices into
    ``cut``: per node, every cut whose score is at least the node's best
    less twice its ``_count_slack``. Any other cut has a smaller decrease,
    as the reference formula computes it, than the node's best-scoring cut.

    The block's entries are in (segment, sorted) order; ``g`` lists them
    grouped by (class, segment), in block order within a group, and
    ``first`` holds where each group starts in ``g``, and ``s`` each cut's
    segment. A cut after entry i (``cut``) of a segment of n entries leaves
    wl entries on the left, with class counts L_c, and wr = n - wl on the
    right, with R_c. Entry j of class c moves one count from R_c to L_c, so
    with phi(x) = x^2 (gini) or a fixed-point x log2 x (entropy), it adds
    phi(L_c + 1) - phi(L_c) to sum_c phi(L_c) and takes phi(R_c) - phi(R_c -
    1) from sum_c phi(R_c).
    Integer prefix sums of these increments, in block order, are exact and
    give both sums at every cut, in O(entries) with no pass as wide as the
    classes. The higher the score, the lower the child impurity:
      * gini scores sum_c L_c^2 / wl + sum_c R_c^2 / wr, which is n less n
        times the child impurity;
      * entropy scores sum_c l(L_c) + sum_c l(R_c) - l(wl) - l(wr), l(x) =
        x log2 x, which is minus n times the child impurity, less the
        node's sum_c l(V_c): a constant per node, as every column holds the
        node's rows. l is tabulated at the integers up to the longest
        segment, in units of 2^-p (``_xlog2x_table``), and one segment's
        increments of both sums add to zero, so a single running sum over
        the block needs no base.
    """
    E = g.size
    run = np.diff(np.append(first, E))
    before = np.arange(E)                   # L_c before the move
    before -= np.repeat(first, run)
    after = np.repeat(run, run)             # V_c, then R_c after the move
    after -= before
    after -= 1
    if criterion == "gini":
        # L_c^2 goes up by 2 L_c + 1 (L_c before the move) and R_c^2 down
        # by 2 R_c + 1 (R_c after it); the running sum of up less down
        # restarts at each segment, that of up needs the segment's start
        both = np.empty(E, dtype=np.int64)
        after -= before
        both[g] = -2 * after
        del after
        up = np.zeros(E + 1, dtype=np.int64)
        before *= 2
        before += 1
        up[1:][g] = before
        del before
        up = np.cumsum(up, out=up)
        both = np.cumsum(both, out=both)
        n = seg_len[s]
        start = seg_end[s] - n
        # sum_c L_c^2, and sum_c R_c^2 = sum_c V_c^2 - sum_c L_c^2 plus the
        # running sum of up less down
        sl = up[cut + 1]
        sr = up[start + n]
        base = up[start]
        sl -= base
        sr -= base
        sr -= sl
        sr += both[cut]
        del up, both, base
        n_left = cut + 1 - start
        score = sl / n_left
        score += sr / (n - n_left)
        p = None
    else:
        table, p = _xlog2x_table(int(seg_len.max()))
        step = np.diff(table)                   # step[x - 1] = l(x) - l(x - 1)
        inc = np.empty(E, dtype=np.int64)
        inc[g] = step[before] - step[after]
        del before, after
        score = np.cumsum(inc, out=inc)[cut]
        n = seg_len[s]
        n_left = cut + 1 - (seg_end[s] - n)
        score -= table[n_left]
        score -= table[n - n_left]
    k = seg_node[s]
    new = _new_run(k)
    at = np.flatnonzero(new)
    top = np.maximum.reduceat(score, at)
    slack = _count_slack(n[at], C, criterion, p)
    return np.flatnonzero(score >= (top - 2 * slack)[np.cumsum(new) - 1])


def _xlog2x_table(n: int):
    """x log2 x at x = 0..n, rounded to integers in units of 2^-p, and p:
    the largest p that keeps every entry below 2^59 (x log2 x < n times
    n's bit length), so that no sum in ``_count_screen`` overflows."""
    p = 59 - (n * n.bit_length()).bit_length()
    x = np.arange(1, n + 1, dtype=np.float64)
    table = np.zeros(n + 1, dtype=np.int64)
    table[1:] = np.rint(np.ldexp(x * np.log2(x), p))
    return table, p


def _count_slack(n, C: int, criterion: str, p: int | None):
    """Bound on the rounding error of one ``_count_screen`` score plus that
    of the reference decrease, for nodes of n rows (an array) and C
    classes, in the scores' units: a node's rows times its child impurity,
    and for entropy whole units of 2^-p of that, rounded up.

    Let u = eps / 2, I the exact child impurity of a cut, T = n I, and I_max
    the largest impurity (1 for gini, log2 C for entropy). Every count is an
    integer, exact in float64, and the bound needs n < 2^31, as the int32
    rank table does.
      * The reference divides the class counts by a side's size, squares
        the proportions or takes x log2 x of them, sums over C classes and
        weighs the sides. For gini that is off by at most (C + 6) u n in
        units of T; for entropy, with NumPy's log2 within q <= 4 ulp, by
        ((2q + C + 4) log2 C + 1.5) u n. Two decreases can round to the
        same value only when their children are within 4 u I_max of each
        other, 4 u I_max n in units of T.
      * Gini's integer sums are exact (below n^2 < 2^62); converting them
        (exact below 2^53), the two divisions and the addition are off by
        at most 4 u n, and comparing with the node's best less the slack
        rounds once more, by u n.
      * Entropy's sums are exact integers, and so is its comparison. Each
        of the 2C + 2 table entries of a score is off by at most 2^-p-1
        from rounding and (2q + 1) u x log2 x from evaluating x log2 x, at
        most (C + 1) 2^-p + (4q + 2) u n log2 n in all; the node's
        constant cancels exactly.
    A cut whose score is below the node's best less twice the sum of both
    errors and half that gap therefore has a smaller reference decrease
    than the best-scoring cut. Up to second-order terms (a factor 1.01),
    that sum is (C + 13) u n for gini and (C + 1) 2^-p + ((C + 14) log2 C
    + 18 log2 n + 2) u n for entropy; the returned bounds are twice that.
    """
    n = np.asarray(n, dtype=np.float64)
    if criterion == "gini":
        return 2 * (C + 13) * _U * n
    bits = 2 * ((C + 1) * 2.0 ** -p
                + ((C + 14) * math.log2(max(C, 2)) + 18 * np.log2(n) + 2) * _U * n)
    return np.ceil(np.ldexp(bits, p)).astype(np.int64)


def _assemble(n_nodes, popped_log, split_log, C, T, params):
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
    for a, b in zip(roots.tolist(), (roots + counts).tolist()):
        one = DecisionTreeClassifier(**params)
        one.n_classes = C
        one.feature, one.threshold = feature[a:b], threshold[a:b]
        one.left, one.right, one.value = left[a:b], right[a:b], node_value[a:b]
        trees.append(one)
    return trees
