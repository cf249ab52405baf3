"""CART-style decision tree with weighted impurity and per-node feature
subsampling. All ensemble estimators reuse this class."""

from __future__ import annotations

import math

import numpy as np

from .rng import Rng


def _impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of class-weight rows (last axis = classes)."""
    total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(total > 0, counts / np.maximum(total, 1e-300), 0.0)
    if criterion == "gini":
        return 1.0 - (p ** 2).sum(axis=-1)
    if criterion == "entropy":
        logp = np.where(p > 0, np.log2(np.maximum(p, 1e-300)), 0.0)
        return -(p * logp).sum(axis=-1)
    raise ValueError(f"unknown criterion '{criterion}'")


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
        """Grow the tree; ``rng``, when given, replaces the constructor's Rng
        for per-node feature sampling."""
        if rng is not None:
            self.rng = rng
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1
        self.n_classes = n_classes
        w = (np.ones(len(y)) if sample_weight is None
             else np.asarray(sample_weight, dtype=np.float64))
        n, d = X.shape
        if self.max_features is None:
            n_feat = d
        else:
            frac = min(max(float(self.max_features), 0.0), 1.0)
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

        stack = [(np.arange(n), 0, new_node())]
        while stack:
            if deadline is not None:
                deadline.check()
            idx, depth, slot = stack.pop()
            counts = np.zeros(n_classes)
            np.add.at(counts, y[idx], w[idx])
            value[slot] = counts
            node_w = counts.sum()
            imp = float(_impurity(counts, self.criterion))
            if (node_w <= 0.0 or imp <= 0.0 or idx.size < self.min_samples_split
                    or (self.max_depth is not None and depth >= self.max_depth)):
                continue
            if n_feat < d:
                cols = np.sort(self.rng.np.choice(d, size=n_feat, replace=False))
            else:
                cols = np.arange(d)
            best = None  # (decrease, feature, threshold, sorted order, split pos)
            for f in cols:
                if deadline is not None:
                    deadline.check()
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
                child = (wl * _impurity(left_counts, self.criterion)
                         + wr * _impurity(right_counts, self.criterion)) / node_w
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
            if dec <= 0.0 or dec < self.min_impurity_decrease:
                continue
            li, ri = new_node(), new_node()
            feature[slot], threshold[slot] = f, thr
            left[slot], right[slot] = li, ri
            stack.append((order[cut + 1:], depth + 1, ri))
            stack.append((order[:cut + 1], depth + 1, li))

        self.feature = np.array(feature, dtype=np.int64)
        self.threshold = np.array(threshold)
        self.left = np.array(left, dtype=np.int64)
        self.right = np.array(right, dtype=np.int64)
        self.value = np.array(value)
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

    def predict(self, X) -> np.ndarray:
        return self.predict_score(X).argmax(axis=1)

    def node_count(self) -> int:
        return len(self.feature)
