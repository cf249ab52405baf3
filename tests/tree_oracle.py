"""Reference split search for the tree exactness tests.

``fit_reference`` is the per-node, per-candidate-feature CART loop that
``imbaml.tree.grow_trees`` replaced: one stable argsort, one one-hot
cumulative sum and two impurity evaluations per candidate feature.
``grow_trees`` must return the same ``feature``, ``threshold``, ``left``,
``right`` and ``value`` arrays, bit for bit.

A node that samples ``max_features`` of the columns draws them by the keyed
rule documented in ``imbaml.rng.Rng``, computed here node by node, depth
first, with the scalar ``splitmix64`` (``grow_trees`` computes it with the
vectorised ``splitmix64_array``, for a whole level of nodes at once).
"""

from __future__ import annotations

import math

import numpy as np

from imbaml.rng import LEFT_KEY, RIGHT_KEY, splitmix64
from imbaml.tree import _impurity


def fit_reference(X, y, n_classes, rng=None, sample_weight=None, *, criterion="gini",
                  max_depth=None, max_features=None, min_impurity_decrease=0.0):
    """Grow one tree; returns (feature, threshold, left, right, value)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    w = (np.ones(len(y)) if sample_weight is None
         else np.asarray(sample_weight, dtype=np.float64))
    n, d = X.shape
    if max_features is None:
        n_feat = d
    else:
        frac = min(max(float(max_features), 0.0), 1.0)
        n_feat = max(1, math.ceil(frac * d)) if d else 0

    feature, threshold, left, right, value = [], [], [], [], []
    root_w = w.sum()

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(np.zeros(n_classes))
        return len(feature) - 1

    col_keys = [splitmix64(c + 1) for c in range(d)] if n_feat < d else []
    stack = [(np.arange(n), 0, new_node(), rng.seed if rng is not None else 0)]
    while stack:
        idx, depth, slot, key = stack.pop()
        counts = np.zeros(n_classes)
        np.add.at(counts, y[idx], w[idx])
        value[slot] = counts
        node_w = counts.sum()
        imp = float(_impurity(counts, criterion))
        if (node_w <= 0.0 or imp <= 0.0 or idx.size < 2
                or (max_depth is not None and depth >= max_depth)):
            continue
        if n_feat < d:
            score = [splitmix64(key ^ ck) for ck in col_keys]
            cols = sorted(sorted(range(d), key=lambda c: (score[c], c))[:n_feat])
        else:
            cols = np.arange(d)
        best = None  # (decrease, feature, threshold, sorted order, split pos)
        for f in cols:
            order = idx[np.argsort(X[idx, f], kind="stable")]
            vals = X[order, f]
            distinct = np.flatnonzero(vals[1:] > vals[:-1])  # split after these
            if distinct.size == 0:
                continue
            onehot = np.zeros((order.size, n_classes))
            onehot[np.arange(order.size), y[order]] = w[order]
            cum = onehot.cumsum(axis=0)
            left_counts = cum[distinct]
            right_counts = counts - left_counts
            wl = left_counts.sum(axis=1)
            wr = right_counts.sum(axis=1)
            child = (wl * _impurity(left_counts, criterion)
                     + wr * _impurity(right_counts, criterion)) / node_w
            decrease = (node_w / root_w) * (imp - child)
            pos = int(decrease.argmax())
            dec = float(decrease[pos])
            # ties keep the earlier feature and lower threshold
            if best is None or dec > best[0]:
                cut = distinct[pos]
                thr = 0.5 * (vals[cut] + vals[cut + 1])
                best = (dec, int(f), float(thr), order, int(cut))
        if best is None:
            continue
        dec, f, thr, order, cut = best
        if dec <= 0.0 or dec < min_impurity_decrease:
            continue
        li, ri = new_node(), new_node()
        feature[slot], threshold[slot] = f, thr
        left[slot], right[slot] = li, ri
        stack.append((order[cut + 1:], depth + 1, ri, splitmix64(key ^ RIGHT_KEY)))
        stack.append((order[:cut + 1], depth + 1, li, splitmix64(key ^ LEFT_KEY)))

    return (np.array(feature, dtype=np.int64), np.array(threshold),
            np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
            np.array(value))
