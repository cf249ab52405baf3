import math
import time
import tracemalloc

import numpy as np
import pytest

from imbaml import DEFAULT_SPACE, Dataset, Rng, balanced_accuracy, confusion
from imbaml.estimators import (BalancedBaggingClassifier,
                               BalancedRandomForestClassifier, EstimatorError,
                               GaussianNB, KNeighborsClassifier,
                               LogisticRegression, RandomForestClassifier,
                               RUSBoostClassifier, _balanced_bootstrap, _class_rows, fit)
from imbaml.preprocessing import (PCA, Binarizer, Normalizer, PolynomialFeatures,
                                  VarianceThreshold, fit_preprocessor)
from imbaml.evaluate import PROJECTION_FACTOR, Deadline, EvalTimeout
from imbaml import estimators as estimators_mod
from imbaml.tree import DecisionTreeClassifier, grow_trees

from helpers import CountingDeadline, make_dataset, overlapping_binary
from tree_oracle import fit_reference


def separable():
    return make_dataset({0: 30, 1: 15}, seed=1, spread=10.0)


# ------------------------------------------------------------- decision tree

def test_tree_separable_training_score_perfect():
    d = separable()
    tree = DecisionTreeClassifier().fit(d.features, d.labels, 2)
    cm = confusion(d.labels, tree.predict(d.features))
    assert balanced_accuracy(cm) == 1.0


def test_tree_min_impurity_decrease_blocks_splits():
    d = separable()
    stub = DecisionTreeClassifier(min_impurity_decrease=1.01)
    stub.fit(d.features, d.labels, 2)
    assert stub.node_count() == 1
    assert set(stub.predict(d.features).tolist()) == {0}  # majority everywhere


def test_tree_deterministic_with_feature_sampling():
    d = overlapping_binary(60, 30, seed=2, d=6)
    a = DecisionTreeClassifier(max_features=0.5).fit(d.features, d.labels, 2, rng=Rng(5))
    b = DecisionTreeClassifier(max_features=0.5).fit(d.features, d.labels, 2, rng=Rng(5))
    assert np.array_equal(a.predict(d.features), b.predict(d.features))


def test_tree_checks_deadline_per_block(monkeypatch):
    import imbaml.tree as tree_mod

    d = overlapping_binary(40, 20, seed=3, d=6)

    def checks(cells):
        monkeypatch.setattr(tree_mod, "MAX_BLOCK_CELLS", cells)
        deadline = CountingDeadline()
        stump = DecisionTreeClassifier(max_depth=1).fit(d.features, d.labels, 2,
                                                        deadline=deadline)
        assert stump.node_count() == 3
        return deadline.calls

    # 60 rows = 60 entries per column: the root's 6 columns fill one block
    # at the default bound and three blocks at 120 entries
    one_block = checks(tree_mod.MAX_BLOCK_CELLS)
    assert one_block == 2 + 1  # a step per level (root, two leaves), one block
    assert checks(120) >= one_block + 2


def test_deadline_mid_forest_aborts_grow_trees():
    d = overlapping_binary(60, 30, seed=4, d=4)
    bags = [(Rng(t).np.integers(0, d.n, size=d.n), np.arange(4), Rng(t)) for t in range(20)]
    counted = CountingDeadline()
    grow_trees(d.features, d.labels, 2, bags, max_features=0.5, deadline=counted)
    assert counted.calls > 10
    with pytest.raises(EvalTimeout):
        grow_trees(d.features, d.labels, 2, bags, max_features=0.5,
                   deadline=CountingDeadline(fire_at=counted.calls // 2))


class RecordingDeadline(Deadline):
    """``Deadline(None)`` that records the arguments of every check."""

    def __init__(self):
        super().__init__(None)
        self.calls = []

    def check(self, started=None, done=0, left=0):
        self.calls.append((started, done, left))


def test_grow_trees_reports_the_cells_of_a_step(monkeypatch):
    import imbaml.tree as tree_mod

    # 60 rows = 60 entries per column; 120-entry blocks hold two of the
    # root's 6 columns, so its search runs in three blocks
    monkeypatch.setattr(tree_mod, "MAX_BLOCK_CELLS", 120)
    d = overlapping_binary(40, 20, seed=3, d=6)
    deadline = RecordingDeadline()
    DecisionTreeClassifier(max_depth=1).fit(d.features, d.labels, 2, deadline=deadline)
    step, *root = deadline.calls[:4]
    assert step == (None, 0, 0)
    # no rate before the first block ends; then the entries since it, and left
    assert root[0] == (None, 0, 360)
    assert root[1][1:] == (0, 240) and root[2][1:] == (120, 120)
    assert root[1][0] == root[2][0] is not None


def steps_of(calls):
    """``grow_trees`` steps among recorded checks: a step's check takes no
    projection arguments, a block's always has cells left."""
    return sum(call == (None, 0, 0) for call in calls)


def max_depth_of(tree):
    """Depth of the deepest node; children are numbered after their parent."""
    depth = np.zeros(tree.node_count(), dtype=np.int64)
    for v in np.flatnonzero(tree.feature >= 0):
        depth[tree.left[v]] = depth[tree.right[v]] = depth[v] + 1
    return int(depth.max())


def test_level_wise_fit_takes_max_depth_plus_one_steps():
    d = overlapping_binary(60, 30, seed=14, d=5)
    weights = Rng(15).np.random(d.n)
    fits = [
        (BalancedBaggingClassifier(n_estimators=20, max_features=0.6),
         dict(n_classes=2, rng=Rng(16))),
        (RandomForestClassifier(n_estimators=20, max_features=1.0), dict(n_classes=2, rng=Rng(17))),
        # per-node column draws (3 of 5 columns), keyed by node
        (RandomForestClassifier(n_estimators=20, max_features=0.5), dict(n_classes=2, rng=Rng(18))),
        (DecisionTreeClassifier(), dict(n_classes=2)),
        (DecisionTreeClassifier(max_depth=3), dict(n_classes=2, sample_weight=weights)),
    ]
    for model, kwargs in fits:
        deadline = RecordingDeadline()
        model.fit(d.features, d.labels, deadline=deadline, **kwargs)
        trees = getattr(model, "trees", [model])
        assert max(t.node_count() for t in trees) > 7
        assert steps_of(deadline.calls) == max(max_depth_of(t) for t in trees) + 1


def test_deadline_mid_level_wise_forest_aborts_grow_trees():
    d = overlapping_binary(60, 30, seed=4, d=4)
    bags = [(Rng(t).np.integers(0, d.n, size=d.n), np.arange(4), Rng(t)) for t in range(20)]
    counted = CountingDeadline()
    grow_trees(d.features, d.labels, 2, bags, deadline=counted)
    assert counted.calls > 4
    with pytest.raises(EvalTimeout):
        grow_trees(d.features, d.labels, 2, bags,
                   deadline=CountingDeadline(fire_at=counted.calls // 2))


def test_deadline_mid_level_of_a_per_node_draw_forest_aborts_grow_trees(monkeypatch):
    import imbaml.tree as tree_mod

    # 100-entry blocks: a level of 20 trees searches in many blocks
    monkeypatch.setattr(tree_mod, "MAX_BLOCK_CELLS", 100)
    d = overlapping_binary(60, 30, seed=4, d=6)
    bags = [(Rng(t).np.integers(0, d.n, size=d.n), np.arange(6), Rng(t)) for t in range(20)]
    recorded = RecordingDeadline()
    plain = grow_trees(d.features, d.labels, 2, bags, max_features=0.5, deadline=recorded)
    steps = [i for i, call in enumerate(recorded.calls) if call == (None, 0, 0)]
    assert len(steps) == max(max_depth_of(t) for t in plain) + 1
    # the third block check of the middle level
    mid = len(steps) // 2
    assert steps[mid + 1] - steps[mid] > 4
    fire = steps[mid] + 4
    counted = CountingDeadline(fire_at=fire)
    with pytest.raises(EvalTimeout):
        grow_trees(d.features, d.labels, 2, bags, max_features=0.5, deadline=counted)
    assert counted.calls == fire


def test_per_node_draws_need_an_rng():
    d = overlapping_binary(40, 20, seed=3, d=6)
    with pytest.raises(ValueError, match="rng"):
        DecisionTreeClassifier(max_features=0.5).fit(d.features, d.labels, 2)
    # a tree that searches every column needs none
    DecisionTreeClassifier(max_features=1.0).fit(d.features, d.labels, 2)


@pytest.mark.parametrize("model", [
    RandomForestClassifier(n_estimators=3),
    BalancedRandomForestClassifier(n_estimators=3),
    BalancedBaggingClassifier(n_estimators=3),
    RUSBoostClassifier(n_estimators=3),
], ids=lambda m: type(m).__name__)
def test_ensembles_need_an_rng(model, monkeypatch):
    d = overlapping_binary(40, 20, seed=3, d=3)
    # the error comes before any work: no tree is grown
    monkeypatch.setattr(estimators_mod, "grow_trees", None)
    with pytest.raises(ValueError, match=f"{type(model).__name__} .*rng; none was given"):
        model.fit(d.features, d.labels, 2)


@pytest.mark.parametrize("model", [
    RandomForestClassifier(n_estimators=30, max_features=0.5),
    BalancedBaggingClassifier(n_estimators=10, max_features=0.5),
    RUSBoostClassifier(n_estimators=10, max_depth=2),
], ids=lambda m: type(m).__name__)
def test_tree_ensemble_predict_checks_the_deadline(model, monkeypatch):
    import imbaml.tree as tree_mod

    d = overlapping_binary(60, 30, seed=21, d=4)
    model.fit(d.features, d.labels, 2, rng=Rng(22))
    X = Rng(23).np.normal(size=(500, 4))
    plain = model.predict(X)
    assert model.predict(X, Deadline(3600.0)).tobytes() == plain.tobytes()
    with pytest.raises(EvalTimeout):
        model.predict(X, Deadline(-1.0))
    # one check per walked chunk of at most MAX_BLOCK_CELLS (row, tree) pairs
    monkeypatch.setattr(tree_mod, "MAX_BLOCK_CELLS", 100 * len(model.trees))
    counted = CountingDeadline()
    assert model.predict(X, counted).tobytes() == plain.tobytes()
    assert counted.calls == 5


def test_wide_node_is_ended_by_projection():
    # 3,000 rows x 50,000 columns x 2 classes: 3e8 cells, tens of seconds of
    # split search at the root. Column j of this read-only view is
    # base[j:j + 3000], so the matrix costs 53,000 floats of memory.
    rng = Rng(8)
    base = rng.np.normal(size=3000 + 50000 - 1)
    X = np.lib.stride_tricks.sliding_window_view(base, 3000).T
    y = (rng.np.random(3000) < 0.4).astype(np.int64)
    start = time.monotonic()
    with pytest.raises(EvalTimeout) as info:
        grow_trees(X, y, 2, [(np.arange(3000), np.arange(X.shape[1]), Rng(0))],
                   deadline=Deadline(3.0))
    assert time.monotonic() - start < 1.5
    assert info.value.projected > PROJECTION_FACTOR * 1.5


def test_ample_deadline_leaves_trees_bit_equal(monkeypatch):
    import imbaml.tree as tree_mod

    # small blocks, so most checks project
    monkeypatch.setattr(tree_mod, "MAX_BLOCK_CELLS", 500)
    d = overlapping_binary(60, 30, seed=9, d=5)

    def grow(deadline):
        bags = [(Rng(t).np.integers(0, d.n, size=d.n), np.arange(5), Rng(t)) for t in range(12)]
        return grow_trees(d.features, d.labels, 2, bags, max_features=0.6, deadline=deadline)

    plain, timed = grow(None), grow(Deadline(3600.0))
    for a, b in zip(plain, timed):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_stump_depth_one():
    d = overlapping_binary(40, 20, seed=3)
    stump = DecisionTreeClassifier(max_depth=1).fit(d.features, d.labels, 2)
    assert stump.node_count() <= 3


# ------------------------------------------------------------------ kNN, GNB

def test_knn1_training_predictions_equal_labels():
    d = overlapping_binary(30, 15, seed=4)
    knn = KNeighborsClassifier(1).fit(d.features, d.labels, 2)
    assert np.array_equal(knn.predict(d.features), d.labels)


def test_gnb_scores_sum_to_one():
    d = overlapping_binary(25, 10, seed=5)
    gnb = GaussianNB().fit(d.features, d.labels, 2)
    s = gnb.predict_score(d.features)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-9)


# -------------------------------------------------------- logistic regression

def test_logreg_gradient_matches_finite_differences():
    rng = Rng(6)
    X = rng.np.normal(size=(20, 3))
    y = rng.np.integers(0, 3, size=20)
    model = LogisticRegression(regularization=0.5)
    model.fit(X, y, 3)
    n = X.shape[0]
    Xb = np.hstack([X, np.ones((n, 1))])
    onehot = np.zeros((n, len(model.classes_seen)))
    local = {int(c): i for i, c in enumerate(model.classes_seen)}
    onehot[np.arange(n), [local[int(c)] for c in y]] = 1.0
    W = rng.np.normal(scale=0.3, size=model.W.shape)
    analytic = model._objective(Xb, onehot, W, n)[1]

    def loss_at(Wv):
        m = LogisticRegression(regularization=0.5)
        m.n_classes = 3
        m.classes_seen = model.classes_seen
        m.W = Wv
        return m.loss(X, y)

    eps = 1e-6
    for idx in [(0, 0), (1, 2), (3, 1), (2, 0)]:
        Wp, Wm = W.copy(), W.copy()
        Wp[idx] += eps
        Wm[idx] -= eps
        fd = (loss_at(Wp) - loss_at(Wm)) / (2 * eps)
        assert analytic[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_logreg_gradient_small_at_optimum():
    rng = Rng(7)
    X = rng.np.normal(size=(40, 2))
    w_true = np.array([2.0, -1.5])
    y = (X @ w_true > 0).astype(np.int64)
    model = LogisticRegression(regularization=1.0)
    model.fit(X, y, 2)
    assert model.grad_norm < 1e-6


def _logreg_problem(kind):
    """(X, y, n_classes) of one oracle case."""
    r = Rng(31).np
    if kind in ("binary", "three", "ten"):
        C = {"binary": 2, "three": 3, "ten": 10}[kind]
        X = r.normal(size=(200, 5))
        y = (X[:, :2] @ r.normal(size=(2, C)) + r.gumbel(size=(200, C))).argmax(axis=1)
        return X, y, C
    if kind == "near_separable_ten":
        y = np.repeat(np.arange(10), 3)
        return r.normal(scale=4.0, size=(10, 4))[y] + r.normal(scale=0.5, size=(30, 4)), y, 10
    if kind == "scaled":
        X = r.normal(size=(200, 6))
        y = (X[:, 0] + 0.5 * r.normal(size=200) > 0).astype(np.int64) + (X[:, 1] > 1)
        scale = np.array([1e3, 1.0, 1e-2, 50.0, 1e3, 3.0])
        offset = np.array([1e3, -5.0, 0.0, 200.0, -1e3, 7.0])
        return X * scale + offset, y, 3
    if kind == "polynomial":
        X = r.normal(size=(600, 19))
        y = (X[:, :3].sum(axis=1) + X[:, 3] * X[:, 4] + r.normal(size=600) > 0).astype(np.int64)
        return PolynomialFeatures(2).fit(X).transform(X), y, 2  # 19 + 190 columns
    X = r.normal(size=(60, 3))  # two of six classes seen
    return X, np.where(X[:, 0] + r.normal(size=60) > 0, 4, 1), 6


def _lbfgs_minimum(X, y, regularization):
    """Minimum of the LogisticRegression objective by scipy's L-BFGS-B, with
    the objective written out independently of the estimator."""
    optimize = pytest.importorskip("scipy.optimize")
    special = pytest.importorskip("scipy.special")
    classes = np.unique(y)
    n = X.shape[0]
    Xb = np.hstack([X, np.ones((n, 1))])
    onehot = (y[:, None] == classes[None, :]).astype(np.float64)
    shape = (Xb.shape[1], classes.size)
    lam = regularization / n

    def objective(w):
        W = w.reshape(shape)
        z = Xb @ W
        logp = z - special.logsumexp(z, axis=1, keepdims=True)
        penalised = W.copy()
        penalised[-1] = 0.0
        f = -(onehot * logp).sum() / n + 0.5 * lam * (penalised ** 2).sum()
        return f, (Xb.T @ (np.exp(logp) - onehot) / n + lam * penalised).ravel()

    res = optimize.minimize(objective, np.zeros(np.prod(shape)), jac=True,
                            method="L-BFGS-B",
                            options={"ftol": 0.0, "gtol": 1e-12, "maxcor": 50,
                                     "maxiter": 100_000, "maxfun": 1_000_000})
    return res.fun


@pytest.mark.parametrize("regularization", [1e-4, 10.0])
@pytest.mark.parametrize("kind", ["binary", "three", "ten", "near_separable_ten",
                                  "scaled", "polynomial", "unseen_classes"])
def test_logreg_reaches_the_lbfgs_minimum(kind, regularization):
    X, y, n_classes = _logreg_problem(kind)
    model = LogisticRegression(regularization=regularization).fit(X, y, n_classes)
    assert model.grad_norm < model.GRAD_TOL
    assert 0 < model.iterations < model.MAX_ITER
    reference = _lbfgs_minimum(X, y, regularization)
    assert model.loss(X, y) == pytest.approx(reference, rel=1e-9, abs=0)
    score = model.predict_score(X)
    assert score.shape == (X.shape[0], n_classes)
    unseen = np.setdiff1d(np.arange(n_classes), y)
    assert not score[:, unseen].any()


def test_logreg_checks_deadline_per_hessian_product_and_trial(monkeypatch):
    X, y, n_classes = _logreg_problem("three")
    products = []
    hessp = LogisticRegression._hessp

    def counting_hessp(self, *args):
        products.append(1)
        return hessp(self, *args)

    monkeypatch.setattr(LogisticRegression, "_hessp", counting_hessp)
    counted = CountingDeadline()
    model = LogisticRegression(regularization=1.0).fit(X, y, n_classes, deadline=counted)
    # at least one line-search trial per Newton step on top of the products
    assert counted.calls >= len(products) + model.iterations
    assert len(products) >= model.iterations > 1
    with pytest.raises(EvalTimeout):
        LogisticRegression(regularization=1.0).fit(
            X, y, n_classes, deadline=CountingDeadline(fire_at=counted.calls // 2))


# --------------------------------------------------------- balanced ensembles

def test_balanced_bootstrap_equal_class_counts():
    d = make_dataset({0: 50, 1: 7}, seed=8)
    for t in range(5):
        boot = _balanced_bootstrap(_class_rows(d.labels), Rng(3).child(t))
        counts = np.bincount(d.labels[boot])
        assert counts[0] == counts[1] == 7


def test_brf_single_tree_equals_replay():
    d = make_dataset({0: 40, 1: 10}, seed=9)
    rng_seed = 17
    forest = BalancedRandomForestClassifier(n_estimators=1, max_features=1.0)
    forest.fit(d.features, d.labels, 2, rng=Rng(rng_seed))

    # replay oracle: same child derivation, one balanced bootstrap, one tree
    tree_rng = Rng(rng_seed).child(0)
    boot = _balanced_bootstrap(_class_rows(d.labels), tree_rng)
    lone = DecisionTreeClassifier(max_features=1.0)
    lone.fit(d.features[boot], d.labels[boot], 2, rng=tree_rng)
    probe = Rng(100).np.normal(size=(50, 2)) * 3
    assert np.array_equal(forest.predict(probe), lone.predict(probe))


def test_brf_trains_on_pathological_minority():
    d = make_dataset({0: 99, 1: 2}, seed=10)
    forest = BalancedRandomForestClassifier(n_estimators=5)
    forest.fit(d.features, d.labels, 2, rng=Rng(1))
    assert len(forest.trees) == 5


def test_bagging_single_bag_equals_replay():
    d = make_dataset({0: 30, 1: 10}, seed=11)
    bag = BalancedBaggingClassifier(n_estimators=1, max_features=1.0, max_samples=1.0)
    bag.fit(d.features, d.labels, 2, rng=Rng(23))
    bag_rng = Rng(23).child(0)
    boot = _balanced_bootstrap(_class_rows(d.labels), bag_rng)
    cols = np.sort(bag_rng.np.choice(2, size=2, replace=False))
    lone = DecisionTreeClassifier()
    lone.fit(d.features[boot][:, cols], d.labels[boot], 2, rng=bag_rng)
    probe = Rng(101).np.normal(size=(40, 2)) * 3
    assert np.array_equal(bag.predict(probe), lone.predict(probe[:, cols]))


def test_bagging_column_subset_replay_maps_original_ids():
    d = overlapping_binary(40, 15, seed=13, d=6)
    bag = BalancedBaggingClassifier(n_estimators=1, max_features=0.5, max_samples=1.0)
    bag.fit(d.features, d.labels, 2, rng=Rng(29))
    bag_rng = Rng(29).child(0)
    boot = _balanced_bootstrap(_class_rows(d.labels), bag_rng)
    cols = np.sort(bag_rng.np.choice(6, size=3, replace=False))
    lone = DecisionTreeClassifier()
    lone.fit(d.features[boot][:, cols], d.labels[boot], 2, rng=bag_rng)
    split = lone.feature >= 0
    # the bag's columns are not 0..2, so only a correct map passes
    assert split.sum() > 1 and not np.array_equal(cols, np.arange(3))
    tree = bag.trees[0]
    assert np.array_equal(tree.feature, np.where(split, cols[lone.feature], -1))
    probe = Rng(102).np.normal(size=(40, 6)) * 3
    assert np.array_equal(bag.predict(probe), lone.predict(probe[:, cols]))


def test_vote_of_identical_trees_equals_single_tree():
    d = separable()
    cfg = DEFAULT_SPACE.make_config("BalancedBaggingClassifier",
                                    {"n_estimators": 10})
    model = fit(cfg, d, Rng(2)).model
    single = model.trees[0]
    # separable data: every tree is perfect, so the vote matches any member
    assert np.array_equal(model.predict(d.features), single.predict(d.features))


def test_forest_vote_is_mode_with_low_code_ties():
    d = overlapping_binary(50, 25, seed=12)
    forest = BalancedRandomForestClassifier(n_estimators=7)
    forest.fit(d.features, d.labels, 2, rng=Rng(3))
    preds = np.stack([t.predict(d.features) for t in forest.trees])
    expected = []
    for col in preds.T:
        counts = np.bincount(col, minlength=2)
        expected.append(int(counts.argmax()))
    assert np.array_equal(forest.predict(d.features), np.array(expected))


# ------------------------------------------------------------------- RUSBoost

def test_rusboost_separable_first_round_perfect():
    d = separable()
    model = RUSBoostClassifier(n_estimators=1, max_depth=1)
    model.fit(d.features, d.labels, 2, rng=Rng(4))
    assert np.array_equal(model.predict(d.features), d.labels)


def test_rusboost_staged_replay_two_rounds():
    d = overlapping_binary(40, 12, seed=13, separation=1.2)
    seed = 31
    model = RUSBoostClassifier(n_estimators=2, max_depth=1, learning_rate=0.7)
    model.fit(d.features, d.labels, 2, rng=Rng(seed))

    # hand-rolled boosting oracle sharing the rng child derivation
    n = d.n
    w = np.full(n, 1.0 / n)
    alphas, trees = [], []
    for t in range(2):
        round_rng = Rng(seed).child(t)
        boot = _balanced_bootstrap(_class_rows(d.labels), round_rng)
        tree = DecisionTreeClassifier(max_depth=1)
        tree.fit(d.features[boot], d.labels[boot], 2, rng=round_rng,
                 sample_weight=w[boot] / w[boot].sum())
        pred = tree.predict(d.features)
        miss = pred != d.labels
        eps = float(w[miss].sum())
        assert eps < 0.5  # fixture chosen so no retries trigger
        eps = min(max(eps, 1e-10), 1 - 1e-10)
        alpha = 0.7 * (np.log((1 - eps) / eps) + np.log(1))
        w = w * np.exp(alpha * miss)
        w /= w.sum()
        alphas.append(alpha)
        trees.append(tree)
    assert model.alphas == pytest.approx(alphas)
    acc = np.zeros((n, 2))
    for tree, alpha in zip(trees, model.alphas):
        onehot = np.zeros((n, 2))
        onehot[np.arange(n), tree.predict(d.features)] = 1.0
        acc += alpha * onehot
    assert np.array_equal(model._decision(d.features), acc)


def rusboost_replay(X, y, n_classes, seed, n_estimators, max_depth, learning_rate):
    """RUSBoost through the per-round route: each round's tree is fitted on a
    copy of its draw, weighted by the round's weights over their sum on the
    draw. Returns the accepted trees, their alphas and the retried draws."""
    n = len(y)
    C = len(set(y.tolist()))
    w = np.full(n, 1.0 / n)
    trees, alphas, retries = [], [], 0
    for t in range(n_estimators):
        round_rng = Rng(seed).child(t)
        for _ in range(RUSBoostClassifier.MAX_RETRIES):
            boot = _balanced_bootstrap(_class_rows(y), round_rng)
            w_boot = w[boot]
            tree = DecisionTreeClassifier(max_depth=max_depth).fit(
                X[boot], y[boot], n_classes, rng=round_rng,
                sample_weight=w_boot / max(w_boot.sum(), 1e-300))
            # the per-round fit is itself the reference loop's tree
            want = fit_reference(X[boot], y[boot], n_classes, round_rng,
                                 w_boot / max(w_boot.sum(), 1e-300), max_depth=max_depth)
            for name, arr in zip(("feature", "threshold", "left", "right", "value"), want):
                assert getattr(tree, name).tobytes() == arr.tobytes(), name
            miss = tree.predict(X) != y
            eps = float(w[miss].sum())
            if eps < 1.0 - 1.0 / C:
                break
            retries += 1
        else:
            continue
        eps = min(max(eps, 1e-10), 1 - 1e-10)
        alpha = learning_rate * (math.log((1 - eps) / eps) + math.log(C - 1))
        w = w * np.exp(alpha * miss)
        w /= w.sum()
        trees.append(tree)
        alphas.append(alpha)
    return trees, alphas, retries


@pytest.mark.parametrize("max_depth", [1, 2, 3])
def test_rusboost_replay_is_byte_exact(max_depth):
    # 10 overlapping classes and a steep learning rate: some draws miss more
    # than 1 - 1/C of the weight and are drawn again, at every depth. The
    # draws of 300 rows x 4 columns x 10 classes are screened.
    d = make_dataset({c: 30 + 7 * c for c in range(10)}, seed=3, d=4, spread=0.3)
    model = RUSBoostClassifier(learning_rate=6.0, n_estimators=20, max_depth=max_depth)
    model.fit(d.features, d.labels, 10, rng=Rng(43))
    trees, alphas, retries = rusboost_replay(d.features, d.labels, 10, 43, 20, max_depth, 6.0)
    assert retries > 0
    assert len(model.trees) == len(trees) == 20
    assert np.array(model.alphas).tobytes() == np.array(alphas).tobytes()
    for got, want in zip(model.trees, trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_rusboost_weights_invariant():
    # reweighting keeps the sample-weight vector normalised each round
    d = overlapping_binary(30, 10, seed=14, separation=1.0)
    model = RUSBoostClassifier(n_estimators=5, max_depth=1)
    model.fit(d.features, d.labels, 2, rng=Rng(5))
    assert len(model.trees) >= 1


def test_rusboost_training_score_nondecreasing_in_rounds():
    d = make_dataset({0: 40, 1: 12}, seed=15, spread=8.0)
    scores = []
    for n_est in (1, 5, 10):
        model = RUSBoostClassifier(n_estimators=n_est, max_depth=1)
        model.fit(d.features, d.labels, 2, rng=Rng(6))
        cm = confusion(d.labels, model.predict(d.features))
        scores.append(balanced_accuracy(cm))
    assert scores == sorted(scores)


def test_rusboost_single_class_rejected():
    d = make_dataset({0: 10})
    with pytest.raises(EstimatorError):
        RUSBoostClassifier().fit(d.features, d.labels, 1, rng=Rng(0))


# ------------------------------------------------------------- preprocessors

def test_normalizer_unit_rows_and_zero_passthrough():
    X = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 1.0]])
    out = Normalizer("l2").fit(X).transform(X)
    norms = np.sqrt((out ** 2).sum(axis=1))
    assert norms[0] == pytest.approx(1.0, abs=1e-12)
    assert norms[2] == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(out[1], [0.0, 0.0])


def test_binarizer_thresholds():
    X = np.array([[0.2, 0.8], [0.5, 0.4]])
    out = Binarizer(0.4).fit(X).transform(X)
    assert out.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_variance_threshold_drops_constant_column():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    proc = VarianceThreshold(0.0).fit(X)
    out = proc.transform(X)
    assert out.shape == (3, 1)
    assert np.array_equal(out[:, 0], X[:, 0])


def test_pca_full_rank_reconstruction():
    rng = Rng(16)
    X = rng.np.normal(size=(40, 4))
    proc = PCA(4).fit(X)
    Z = proc.transform(X)
    back = Z @ proc.components.T + proc.mean
    assert np.abs(back - X).max() < 1e-9

    # eigen-oracle: components match numpy's eigendecomposition (up to sign)
    cov = np.cov(X.T, ddof=1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vecs = vecs[:, order]
    for j in range(4):
        dot = abs(float(proc.components[:, j] @ vecs[:, j]))
        assert dot == pytest.approx(1.0, abs=1e-9)


def test_pca_truncates_beyond_rank():
    rng = Rng(17)
    base = rng.np.normal(size=(30, 2))
    X = np.hstack([base, base @ np.array([[1.0, 2.0], [3.0, 4.0]])])  # rank 2
    proc = PCA(4).fit(X)
    assert proc.components.shape[1] == 2


def test_polynomial_appends_degree2_products():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = PolynomialFeatures(2).fit(X).transform(X)
    assert out.shape == (2, 5)
    assert out[0].tolist() == [1.0, 2.0, 1.0, 2.0, 4.0]


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (1, 1), (40, 7)])
def test_polynomial_matches_columnwise_products(shape):
    n, d = shape
    X = Rng(21).np.normal(size=shape) * 10.0 ** Rng(22).np.integers(-3, 4, size=d)
    if X.size:
        X[0, 0], X[-1, -1] = np.nan, np.inf
    prods = [X[:, i] * X[:, j] for i in range(d) for j in range(i, d)]
    expected = np.column_stack([X, *prods]) if prods else X
    with np.errstate(invalid="ignore"):
        out = PolynomialFeatures(2).fit(X).transform(X)
    assert out.dtype == np.float64 and out.shape == (n, d + d * (d + 1) // 2)
    assert out.tobytes() == expected.tobytes()


def test_polynomial_allocates_only_its_output():
    # building the product columns apart and stacking them needs about 3x
    X = Rng(23).np.normal(size=(2000, 40))
    tracemalloc.start()
    try:
        out = PolynomialFeatures(2).fit(X).transform(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * out.nbytes


def test_preprocessor_state_is_training_only():
    X_train = Rng(18).np.normal(size=(30, 3))
    proc = fit_preprocessor(DEFAULT_SPACE.default_config("PCA"), X_train)
    probe = Rng(19).np.normal(size=(10, 3))
    a = proc.transform(probe)
    b = proc.transform(Rng(20).np.normal(size=(5, 3)))  # other rows: no effect
    assert np.array_equal(a, proc.transform(probe))


# -------------------------------------------------------- dispatch and state

def test_fit_dispatch_deterministic():
    d = overlapping_binary(40, 16, seed=21)
    cfg = DEFAULT_SPACE.make_config("RandomForestClassifier", {"max_features": 0.5})
    a = fit(cfg, d, Rng(9))
    b = fit(cfg, d, Rng(9))
    probe = Rng(22).np.normal(size=(30, 2))
    assert np.array_equal(a.predict(probe), b.predict(probe))


def test_fitted_model_scores_finite_and_normalised():
    d = overlapping_binary(30, 12, seed=23)
    for name in ("DecisionTreeClassifier", "GaussianNB", "KNeighborsClassifier",
                 "LogisticRegression", "BalancedRandomForestClassifier",
                 "RUSBoostClassifier"):
        cfg = DEFAULT_SPACE.default_config(name)
        model = fit(cfg, d, Rng(3))
        s = model.predict_score(d.features[:10])
        assert np.isfinite(s).all()
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-9)


def test_default_outside_search_range_is_legal():
    cfg = DEFAULT_SPACE.default_config("RUSBoostClassifier")
    assert cfg.get("n_estimators") == 10  # declared default below the range
    cfg2 = DEFAULT_SPACE.default_config("BalancedRandomForestClassifier")
    assert cfg2.get("min_impurity_decrease") == 0.0


def test_fraction_above_one_clamps():
    d = overlapping_binary(20, 10, seed=26)
    cfg = DEFAULT_SPACE.make_config("BalancedRandomForestClassifier",
                                    {"max_features": 1.01, "n_estimators": 100})
    model = fit(cfg, d, Rng(5))
    assert len(model.model.trees) == 100
