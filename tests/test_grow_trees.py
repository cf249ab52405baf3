"""``grow_trees`` against the per-feature reference loop in ``tree_oracle``.

Every tree must match the reference array for array, bit for bit, over a
sweep of weights, criteria, class counts, value patterns (ties, constant
columns, +-inf, NaN), stopping rules, bag counts and block sizes. Trees that
sample columns per node are checked against the oracle's scalar form of the
keyed draw rule, and the vectorised draw against that rule node by node.
"""

from __future__ import annotations

import numpy as np
import pytest

from imbaml import Rng
from imbaml import tree as tree_mod
from imbaml.estimators import _balanced_bootstrap
from imbaml.rng import splitmix64
from imbaml.tree import DecisionTreeClassifier, _draw_columns, grow_trees

from tree_oracle import fit_reference

ARRAYS = ("feature", "threshold", "left", "right", "value")


def data(n, d, n_classes, seed, special=()):
    """Class-shifted Gaussians; column 0 has many ties, column 1 is constant."""
    rng = Rng(seed)
    y = rng.np.integers(0, n_classes, size=n)
    y[:n_classes] = np.arange(n_classes)
    X = rng.np.normal(size=(n, d)) + 0.7 * y[:, None] * (rng.np.random(d) > 0.3)
    X[:, 0] = np.round(X[:, 0] * 2)
    if d > 1:
        X[:, 1] = 3.0
    if "inf" in special:
        X[rng.np.random((n, d)) < 0.05] = np.inf
        X[rng.np.random((n, d)) < 0.05] = -np.inf
    if "nan" in special:
        X[rng.np.random((n, d)) < 0.05] = np.nan
    return X, y


def assert_same(grown, reference):
    for name, want in zip(ARRAYS, reference):
        got = getattr(grown, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want, equal_nan=True), name
        assert got.tobytes() == want.tobytes(), name


def check(X, y, n_classes, bags, seed, weights=None, **params):
    """Grow the bags in one call and each one alone through the reference."""
    grown = grow_trees(X, y, n_classes,
                       [(rows, cols, Rng(seed).child(t)) for t, (rows, cols) in enumerate(bags)],
                       sample_weight=weights, **params)
    assert len(grown) == len(bags)
    for t, ((rows, cols), tree) in enumerate(zip(bags, grown)):
        sw = None if weights is None else weights[rows]
        assert_same(tree, fit_reference(X[rows][:, cols], y[rows], n_classes,
                                        Rng(seed).child(t), sw, **params))


CASES = [
    # (n, d, classes, special, params)
    (120, 6, 2, (), {}),
    (150, 7, 3, ("inf",), {"criterion": "entropy"}),
    (200, 9, 10, (), {"max_features": 0.3}),
    (90, 5, 3, ("nan",), {"max_features": 0.6, "criterion": "entropy"}),
    (160, 8, 2, ("inf", "nan"), {"max_depth": 3, "min_samples_split": 7}),
    (140, 6, 10, ("inf",), {"min_impurity_decrease": 0.01, "criterion": "entropy"}),
    (110, 1, 2, (), {}),
]


@pytest.mark.parametrize("n, d, n_classes, special, params", CASES)
@pytest.mark.parametrize("block_cells", [tree_mod.MAX_BLOCK_CELLS, 60])
def test_single_bag_unit_weights(n, d, n_classes, special, params, block_cells, monkeypatch):
    monkeypatch.setattr(tree_mod, "MAX_BLOCK_CELLS", block_cells)
    X, y = data(n, d, n_classes, seed=n + d, special=special)
    check(X, y, n_classes, [(np.arange(n), np.arange(d))], seed=1, **params)


@pytest.mark.parametrize("n, d, n_classes, special, params", CASES)
@pytest.mark.parametrize("block_cells", [tree_mod.MAX_BLOCK_CELLS, 60])
def test_single_bag_float_weights(n, d, n_classes, special, params, block_cells, monkeypatch):
    monkeypatch.setattr(tree_mod, "MAX_BLOCK_CELLS", block_cells)
    X, y = data(n, d, n_classes, seed=n + d + 1, special=special)
    w = Rng(n).np.random(n) * 3.0
    w /= w.sum()
    w[::17] = 0.0
    check(X, y, n_classes, [(np.arange(n), np.arange(d))], seed=2, weights=w, **params)


@pytest.mark.parametrize("n, d, n_classes, special, params", CASES)
@pytest.mark.parametrize("block_cells", [tree_mod.MAX_BLOCK_CELLS, 500])
def test_many_bags(n, d, n_classes, special, params, block_cells, monkeypatch):
    monkeypatch.setattr(tree_mod, "MAX_BLOCK_CELLS", block_cells)
    X, y = data(n, d, n_classes, seed=n * d, special=special)
    rng = Rng(n * 7)
    bags = []
    for t in range(100 if n_classes == 2 else 12):
        if t % 3 == 0:
            rows = rng.np.integers(0, n, size=n)
        else:
            rows = _balanced_bootstrap(y, rng)
        cols = (np.arange(d) if t % 2 else
                np.sort(rng.np.choice(d, size=max(1, d // 2), replace=False)))
        bags.append((rows, cols))
    check(X, y, n_classes, bags, seed=3, **params)


def test_node_wider_than_one_block():
    # the root needs 2,600 rows x 30 columns x 2 classes, about 2.4 blocks
    X, y = data(2600, 30, 2, seed=5, special=("inf",))
    check(X, y, 2, [(np.arange(2600), np.arange(30))], seed=4, max_depth=4)
    w = Rng(6).np.random(2600)
    check(X, y, 2, [(np.arange(2600), np.arange(30))], seed=4, weights=w, max_depth=2)


def test_weighted_fit_takes_one_bag_and_codes_in_range():
    X, y = data(20, 3, 2, seed=0)
    bag = (np.arange(20), np.arange(3), Rng(0))
    with pytest.raises(ValueError):
        grow_trees(X, y, 2, [bag, bag], sample_weight=np.ones(20))
    with pytest.raises(ValueError):
        grow_trees(X, y + 1, 2, [bag])


def test_no_columns():
    X, y = np.zeros((12, 0)), np.arange(12) % 3
    check(X, y, 3, [(np.arange(12), np.arange(0))] * 3, seed=6)


def test_empty_and_pure_bags():
    X, y = data(30, 3, 3, seed=7)
    pure = np.flatnonzero(y == 1)
    check(X, y, 3, [(pure, np.arange(3)), (np.arange(30), np.arange(3)),
                    (np.arange(0), np.arange(3))], seed=5)


def scalar_draw(key, d, m):
    """The keyed rule node by node: the m of d columns with the smallest
    scores, ties to the lower column, ascending."""
    score = [splitmix64(key ^ splitmix64(c + 1)) for c in range(d)]
    return sorted(sorted(range(d), key=lambda c: (score[c], c))[:m])


def test_keyed_draw_of_a_node_does_not_depend_on_its_batch():
    keys = Rng(12).np.integers(0, 2**64 - 1, size=100, dtype=np.uint64, endpoint=True)
    keys[:3] = [0, 1, 2**64 - 1]
    n_cols = np.where(np.arange(100) % 3, 9, 40)    # two node shapes in one batch
    n_feat = np.where(np.arange(100) % 3, 1, 17)
    n_feat[5] = 9                                     # every column
    batch = _draw_columns(keys, n_cols, n_feat)
    at = np.r_[0, np.cumsum(n_feat)]
    for i in range(100):
        want = scalar_draw(int(keys[i]), int(n_cols[i]), int(n_feat[i]))
        alone = _draw_columns(keys[i:i + 1], n_cols[i:i + 1], n_feat[i:i + 1])
        assert batch[at[i]:at[i + 1]].tolist() == alone.tolist() == want


def test_lone_fit_equals_its_tree_in_a_hundred_tree_step():
    X, y = data(120, 8, 2, seed=13, special=("nan",))
    rng = Rng(14)
    rows = [rng.np.integers(0, 120, size=120) for _ in range(100)]
    grown = grow_trees(X, y, 2, [(r, np.arange(8), Rng(15).child(t)) for t, r in enumerate(rows)],
                       max_features=0.3)
    assert len({t.node_count() for t in grown}) > 1
    for t in (0, 1, 37, 99):
        lone = DecisionTreeClassifier(max_features=0.3, rng=Rng(15).child(t))
        lone.fit(X[rows[t]], y[rows[t]], 2)
        assert_same(grown[t], [getattr(lone, name) for name in ARRAYS])


@pytest.mark.parametrize("block_cells", [tree_mod.MAX_BLOCK_CELLS, 30000])
def test_per_node_draw_at_14706_columns_matches_the_oracle(block_cells, monkeypatch):
    # PolynomialFeatures twice on 17 columns makes 14,705; no fixed-size
    # table of column keys may limit the column count. At 30,000 cells a
    # step draws for at most three nodes at a time.
    monkeypatch.setattr(tree_mod, "MAX_BLOCK_CELLS", block_cells)
    X, y = data(40, 14706, 2, seed=16)
    check(X, y, 2, [(np.arange(40), np.arange(14706)),
                    (Rng(17).np.integers(0, 40, size=40), np.arange(14706))],
          seed=7, max_features=0.01, max_depth=3)
