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
# A weighted block of fewer cuts x classes than this scores every cut
# exactly; a larger one screens its cuts first (``_screen``).
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
               sample_weight=None, deadline=None,
               ranks: _Ranks | None = None) -> list[DecisionTreeClassifier]:
    """Grow one tree per bag ``(rows, cols, rng)`` of ``X``, all together.

    Each tree equals ``DecisionTreeClassifier(...).fit(X[rows][:, cols],
    y[rows], n_classes, rng)`` with the same parameters, bit for bit: the same
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
    weighted node sorts each column stably and a weighted child keeps its
    rows in the sorted order of the winning column. A weighted block of at
    least ``SCREEN_MIN_CELLS`` cuts x classes, when every weight is finite
    and has no sign bit, orders its columns by unique (rank, position in
    the node) keys instead, the same order at a fraction of the cost, and
    screens its cuts: an O(rows x columns) surrogate of the decrease with a
    bounded rounding error (``_screen``, ``_screen_slack``) drops the cuts
    that cannot win, and only the survivors are scored exactly, from left
    class sums added in the lone fit's order (``_search_node``), so the
    winner is the one scoring every cut picks.
    After growth each tree's nodes are renumbered to the order a depth-first
    fit creates them in (see ``DecisionTreeClassifier``).

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
                                 X, y, w, C, ranks, screen, criterion, value, node_w, imp,
                                 node_root_w, best)
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
    of the cut and the number of rows left of it; for a weighted node also
    its rows in the stable sorted order of the winning column."""

    def __init__(self, m: int):
        self.dec = np.full(m, -np.inf)
        self.local = np.zeros(m, dtype=np.int64)
        self.thr = np.zeros(m)
        self.cut = np.zeros(m)
        self.n_left = np.zeros(m, dtype=np.int64)
        self.order = [None] * m


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


def _search_node(k, seg_local, seg_col, rows, at, size, X, y, w, C, ranks, screen, criterion,
                 value, node_w, imp, root_w, best: _Best) -> None:
    """Best split of node ``k`` over one block of its candidate columns;
    updates ``best`` where it is strictly larger than what earlier blocks
    found.

    A split falls between distinct values of a column sorted by value (a
    stable sort when weighted, as a lone fit sorts), and every cut is scored
    from the class sums of one cumulative sum of one-hot rows. A weighted
    block of at least ``SCREEN_MIN_CELLS`` cuts x classes, with screenable
    weights (``grow_trees``) and a finite node weight, does less: it orders
    each column by unique (rank, position in the node) keys
    (``_keyed_order``), the same order, and keeps only the cuts that
    ``_screen`` cannot rule out. Each cut it drops has a smaller decrease,
    as a lone fit computes it, than the winner, and it keeps every cut whose
    decrease could be NaN. The survivors' left class sums are those of the
    one-hot sum, bit for bit (``_survivor_sums``). Either way the first
    largest decrease in (column, position) order wins; a NaN decrease wins
    nothing (NaN is argmax's largest, and fails >).
    """
    node_rows = rows[at[k]:at[k] + size[k]]
    if (screen and seg_col.size * (node_rows.size - 1) * C >= SCREEN_MIN_CELLS
            and math.isfinite(node_w[k])):
        srows, rank = _keyed_order(node_rows, seg_col, ranks)
        cut = rank[:, 1:] > rank[:, :-1]
        if ranks.any_nan:                           # NaN compares false
            cut &= rank[:, 1:] < ranks.nan_rank
        cut &= _screen(srows, cut, y, w, C, criterion, node_w[k])
        col, pos = np.nonzero(cut)
        if col.size == 0:
            return
        left = _survivor_sums(srows, col, pos, y, w, C)
    else:
        order = np.argsort(X[node_rows[None, :], seg_col[:, None]], axis=1,
                           kind=None if w is None else "stable")
        srows = node_rows[order]                    # (column, position)
        vals = X[srows, seg_col[:, None]]
        col, pos = np.nonzero(vals[:, 1:] > vals[:, :-1])  # a split after (col, pos)
        if col.size == 0:
            return
        left = _onehot_sums(srows, y, w, C)[col, pos]
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
    j = np.argmax(dec)
    if not dec[j] > best.dec[k]:
        return
    c, i = col[j], pos[j]
    lo, hi = X[srows[c, i], seg_col[c]], X[srows[c, i + 1], seg_col[c]]
    best.dec[k] = dec[j]
    best.local[k] = seg_local[c]
    best.thr[k] = 0.5 * (lo + hi)
    best.cut[k] = lo
    best.n_left[k] = i + 1
    if w is not None:
        best.order[k] = srows[c].copy()


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
    weights (unit weights when ``w`` is None)."""
    labels = y[srows]
    if w is None:
        onehot = np.eye(C)[labels]
    else:
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
