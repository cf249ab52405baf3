import numpy as np
import pytest

from imbaml import DEFAULT_SPACE, Dataset, Rng, balanced_accuracy, confusion
from imbaml.estimators import (BalancedBaggingClassifier,
                               BalancedRandomForestClassifier, EstimatorError,
                               GaussianNB, KNeighborsClassifier,
                               LogisticRegression, RUSBoostClassifier,
                               _balanced_bootstrap, fit)
from imbaml.preprocessing import (PCA, Binarizer, Normalizer, PolynomialFeatures,
                                  VarianceThreshold, fit_preprocessor)
from imbaml.tree import DecisionTreeClassifier

from helpers import make_dataset, overlapping_binary


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
    a = DecisionTreeClassifier(max_features=0.5, rng=Rng(5)).fit(d.features, d.labels, 2)
    b = DecisionTreeClassifier(max_features=0.5, rng=Rng(5)).fit(d.features, d.labels, 2)
    assert np.array_equal(a.predict(d.features), b.predict(d.features))


def test_tree_checks_deadline_per_candidate_feature():
    class Counting:
        calls = 0

        def check(self):
            self.calls += 1

    d = overlapping_binary(40, 20, seed=3, d=6)
    deadline = Counting()
    DecisionTreeClassifier(max_depth=1).fit(d.features, d.labels, 2, deadline=deadline)
    # root, its 6 candidate features, and the two leaves
    assert deadline.calls == 1 + 6 + 2


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
    analytic, _ = model._grad(Xb, onehot, W, n)

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


# --------------------------------------------------------- balanced ensembles

def test_balanced_bootstrap_equal_class_counts():
    d = make_dataset({0: 50, 1: 7}, seed=8)
    for t in range(5):
        boot = _balanced_bootstrap(d.labels, Rng(3).child(t))
        counts = np.bincount(d.labels[boot])
        assert counts[0] == counts[1] == 7


def test_brf_single_tree_equals_replay():
    d = make_dataset({0: 40, 1: 10}, seed=9)
    rng_seed = 17
    forest = BalancedRandomForestClassifier(n_estimators=1, max_features=1.0)
    forest.fit(d.features, d.labels, 2, rng=Rng(rng_seed))

    # replay oracle: same child derivation, one balanced bootstrap, one tree
    tree_rng = Rng(rng_seed).child(0)
    boot = _balanced_bootstrap(d.labels, tree_rng)
    lone = DecisionTreeClassifier(max_features=1.0, rng=tree_rng)
    lone.fit(d.features[boot], d.labels[boot], 2)
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
    boot = _balanced_bootstrap(d.labels, bag_rng)
    cols = np.sort(bag_rng.np.choice(2, size=2, replace=False))
    lone = DecisionTreeClassifier(rng=bag_rng)
    lone.fit(d.features[boot][:, cols], d.labels[boot], 2)
    probe = Rng(101).np.normal(size=(40, 2)) * 3
    assert np.array_equal(bag.predict(probe), lone.predict(probe[:, cols]))


def test_vote_of_identical_trees_equals_single_tree():
    d = separable()
    cfg = DEFAULT_SPACE.make_config("BalancedBaggingClassifier",
                                    {"n_estimators": 10})
    model = fit(cfg, d, Rng(2)).model
    single = model.trees[0]
    # separable data: every tree is perfect, so the vote matches any member
    assert np.array_equal(model.predict(d.features),
                          single.predict(d.features[:, model.bag_features[0]]))


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
        boot = _balanced_bootstrap(d.labels, round_rng)
        tree = DecisionTreeClassifier(max_depth=1, rng=round_rng)
        tree.fit(d.features[boot], d.labels[boot], 2,
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
    staged = list(model.staged_decision(d.features))
    acc = np.zeros((n, 2))
    for tree, alpha in zip(trees, alphas):
        onehot = np.zeros((n, 2))
        onehot[np.arange(n), tree.predict(d.features)] = 1.0
        acc += alpha * onehot
    assert np.allclose(staged[-1], acc)


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
