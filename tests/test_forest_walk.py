"""The level-by-level prediction walk against the per-node walk it replaced.

``per_node_leaf_of`` is the old ``DecisionTreeClassifier._leaf_of``, kept as
it was: a stack of (rows, node) pairs, one NumPy comparison per visited node.
A single tree's leaves, a ``Forest``'s per-(row, tree) classes and every
ensemble's scores must equal what that walk gives, byte for byte, on queries
with NaN and +-inf, for single-leaf, empty-bag and weighted boosted trees.
"""

from __future__ import annotations

import numpy as np
import pytest

from imbaml import Rng
from imbaml import tree as tree_mod
from imbaml.estimators import (BalancedBaggingClassifier, BalancedRandomForestClassifier,
                               RUSBoostClassifier, RandomForestClassifier)
from imbaml.neighbors import _vote_counts
from imbaml.tree import DecisionTreeClassifier, Forest, grow_trees

from helpers import make_dataset


def per_node_leaf_of(tree, X):
    X = np.asarray(X, dtype=np.float64)
    node = np.zeros(len(X), dtype=np.int64)
    pending = [(np.arange(len(X)), 0)]
    while pending:
        rows, nd = pending.pop()
        if tree.feature[nd] < 0:
            node[rows] = nd
            continue
        go_left = X[rows, tree.feature[nd]] <= tree.threshold[nd]
        pending.append((rows[go_left], tree.left[nd]))
        pending.append((rows[~go_left], tree.right[nd]))
    return node


def per_node_predict(tree, X):
    leaves = tree.value[per_node_leaf_of(tree, X)]
    totals = leaves.sum(axis=1, keepdims=True)
    return (leaves / np.maximum(totals, 1e-300)).argmax(axis=1)


def dataset():
    d = make_dataset({0: 70, 1: 30, 2: 12}, seed=21, d=4, spread=1.2)
    X = d.features.copy()
    X[:, 2] = np.round(X[:, 2])
    return X, d.labels


def queries(X):
    rng = Rng(22)
    Q = np.vstack([X, X + rng.np.normal(scale=0.3, size=X.shape),
                   rng.np.normal(scale=4.0, size=(60, X.shape[1]))])
    mask = rng.np.random(Q.shape)
    Q[mask < 0.05] = np.nan
    Q[(mask >= 0.05) & (mask < 0.09)] = np.inf
    Q[(mask >= 0.09) & (mask < 0.13)] = -np.inf
    Q[0] = np.nan
    Q[1] = np.inf
    Q[2] = -np.inf
    return Q


def assert_walks_agree(trees, Q):
    for t in trees:
        assert t._leaf_of(Q).tobytes() == per_node_leaf_of(t, Q).tobytes()
        assert t.predict(Q).tobytes() == per_node_predict(t, Q).tobytes()
    old = np.stack([per_node_predict(t, Q) for t in trees], axis=1)
    assert Forest(trees).predict(Q).tobytes() == old.tobytes()
    return old


@pytest.mark.parametrize("block_cells", [tree_mod.MAX_BLOCK_CELLS, 7])
def test_forest_walk_matches_per_node_walk(block_cells, monkeypatch):
    monkeypatch.setattr(tree_mod, "MAX_BLOCK_CELLS", block_cells)  # 7: chunked walks
    X, y = dataset()
    Q = queries(X)
    rng = Rng(23)
    pure = np.flatnonzero(y == 1)
    bags = [(rng.np.integers(0, len(y), size=len(y)), np.arange(4), rng.child(t))
            for t in range(8)]
    bags += [(pure, np.arange(4), rng.child(8)),               # single leaf: pure
             (np.arange(0), np.arange(4), rng.child(9)),       # single leaf: empty bag
             (np.arange(len(y)), np.arange(0), rng.child(10))]  # single leaf: no columns
    trees = grow_trees(X, y, 3, bags, max_features=0.7)
    assert [t.node_count() for t in trees[-3:]] == [1, 1, 1]
    assert min(t.node_count() for t in trees[:8]) > 9
    assert_walks_agree(trees, Q)


@pytest.mark.parametrize("model", [
    RandomForestClassifier(n_estimators=12, max_features=0.5),
    BalancedRandomForestClassifier(n_estimators=12, criterion="entropy", max_features=0.3),
    BalancedBaggingClassifier(n_estimators=12, max_features=0.5, max_samples=0.8),
], ids=lambda m: type(m).__name__)
def test_bagged_scores_match_per_node_votes(model):
    X, y = dataset()
    Q = queries(X)
    model.fit(X, y, 3, rng=Rng(24))
    old = assert_walks_agree(model.trees, Q)
    want = _vote_counts(old, 3) / len(model.trees)
    assert model.predict_score(Q).tobytes() == want.tobytes()


def test_rusboost_weighted_trees_match_per_node_walk():
    X, y = dataset()
    Q = queries(X)
    model = RUSBoostClassifier(n_estimators=15, max_depth=3, learning_rate=0.5)
    model.fit(X, y, 3, rng=Rng(25))
    assert len(model.trees) > 1 and max(t.node_count() for t in model.trees) > 3
    old = assert_walks_agree(model.trees, Q)
    acc = np.zeros((len(Q), 3))
    for t, alpha in enumerate(model.alphas):
        onehot = np.zeros_like(acc)
        onehot[np.arange(len(Q)), old[:, t]] = 1.0
        acc = acc + alpha * onehot
    assert model._decision(Q).tobytes() == acc.tobytes()


def test_single_tree_walk_on_empty_query():
    X, y = dataset()
    tree = DecisionTreeClassifier(max_depth=3).fit(X, y, 3)
    assert tree._leaf_of(np.zeros((0, 4))).shape == (0,)
    assert Forest([tree, tree]).predict(np.zeros((0, 4))).shape == (0, 2)
