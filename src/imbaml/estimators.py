"""Native classifiers and the imbalance ensembles.

Every estimator exposes ``fit(X, y, n_classes, rng=None, deadline=None)``,
``predict`` and ``predict_score`` over a shared global class-code space;
codes absent from the training fold simply never win. The ensembles need the
Rng; the others accept and ignore it (a tree uses it for feature sampling).
Fits are deterministic given the Rng passed in, which makes the replay
oracles in the test suite possible.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset
from .neighbors import NeighborIndex
from .rng import Rng
from .space import ComponentConfig, DomainError, ESTIMATOR
from .tree import DecisionTreeClassifier


class EstimatorError(ValueError):
    pass


def _vote_counts(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-row class counts of an (n_rows, n_voters) matrix of class codes."""
    n = labels.shape[0]
    flat = (np.arange(n)[:, None] * n_classes + labels).ravel()
    return np.bincount(flat, minlength=n * n_classes).reshape(n, n_classes)


def _balanced_bootstrap(y: np.ndarray, rng: Rng) -> np.ndarray:
    """Per-class bootstrap with equal counts = the minority count."""
    classes = sorted(set(y.tolist()))
    low = min(int((y == c).sum()) for c in classes)
    picks = []
    for c in classes:
        idx = np.flatnonzero(y == c)
        picks.append(idx[rng.np.integers(0, idx.size, size=low)])
    return np.concatenate(picks)


class GaussianNB:
    VAR_EPS = 1e-9

    def fit(self, X, y, n_classes, rng=None, deadline=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        self.theta = np.zeros((n_classes, X.shape[1]))
        self.var = np.ones((n_classes, X.shape[1]))
        self.log_prior = np.full(n_classes, -np.inf)
        smoothing = self.VAR_EPS * max(X.var(axis=0).max(), 1e-12) if X.size else 1e-9
        for c in sorted(set(y.tolist())):
            rows = X[y == c]
            self.theta[c] = rows.mean(axis=0)
            self.var[c] = rows.var(axis=0) + smoothing
            self.log_prior[c] = math.log(rows.shape[0] / X.shape[0])
        return self

    def _joint_log(self, X):
        X = np.asarray(X, dtype=np.float64)
        out = np.full((X.shape[0], self.n_classes), -np.inf)
        for c in np.flatnonzero(np.isfinite(self.log_prior)):
            diff = X - self.theta[c]
            ll = -0.5 * (np.log(2 * np.pi * self.var[c]) + diff ** 2 / self.var[c]).sum(axis=1)
            out[:, c] = self.log_prior[c] + ll
        return out

    def predict_score(self, X):
        jl = self._joint_log(X)
        jl = jl - jl.max(axis=1, keepdims=True)
        p = np.exp(jl)
        p[~np.isfinite(p)] = 0.0
        return p / np.maximum(p.sum(axis=1, keepdims=True), 1e-300)

    def predict(self, X):
        return self.predict_score(X).argmax(axis=1)


class KNeighborsClassifier:
    def __init__(self, n_neighbors: int = 5):
        self.n_neighbors = n_neighbors

    def fit(self, X, y, n_classes, rng=None, deadline=None):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        self._index = NeighborIndex(self.X)
        return self

    def predict_score(self, X):
        k = min(self.n_neighbors, len(self.X))
        neigh = self._index.query_batch(np.asarray(X, dtype=np.float64), k)
        return _vote_counts(self.y[neigh], self.n_classes) / k

    def predict(self, X):
        return self.predict_score(X).argmax(axis=1)


class LogisticRegression:
    """Multinomial softmax regression trained by batch gradient descent.

    The step size is fixed for the whole fit at 1/L where L is the usual
    softmax smoothness bound from the training rows; training stops at the
    gradient tolerance or the iteration cap, both recorded on the model.
    """

    MAX_ITER = 10_000
    GRAD_TOL = 1e-8
    CHECK_EVERY = 25

    def __init__(self, regularization: float = 1.0):
        self.regularization = float(regularization)

    def _grad(self, Xb, y_onehot, W, n):
        z = Xb @ W
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = Xb.T @ (p - y_onehot) / n
        reg = self.regularization / n
        g += reg * np.vstack([W[:-1], np.zeros((1, W.shape[1]))])
        return g, p

    def fit(self, X, y, n_classes, rng=None, deadline=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n = X.shape[0]
        self.n_classes = n_classes
        self.classes_seen = np.array(sorted(set(y.tolist())), dtype=np.int64)
        local = {c: i for i, c in enumerate(self.classes_seen)}
        C = len(self.classes_seen)
        Xb = np.hstack([X, np.ones((n, 1))])
        onehot = np.zeros((n, C))
        onehot[np.arange(n), [local[int(c)] for c in y]] = 1.0
        W = np.zeros((Xb.shape[1], C))
        lipschitz = 0.25 * float((Xb ** 2).sum(axis=1).mean()) + self.regularization / n
        step = 1.0 / max(lipschitz, 1e-12)
        self.iterations = 0
        self.grad_norm = np.inf
        for it in range(self.MAX_ITER):
            g, _ = self._grad(Xb, onehot, W, n)
            W -= step * g
            self.iterations = it + 1
            if it % self.CHECK_EVERY == 0:
                if deadline is not None:
                    deadline.check()
                self.grad_norm = float(np.sqrt((g ** 2).sum()))
                if self.grad_norm < self.GRAD_TOL:
                    break
        g, _ = self._grad(Xb, onehot, W, n)
        self.grad_norm = float(np.sqrt((g ** 2).sum()))
        self.W = W
        return self

    def loss(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        Xb = np.hstack([X, np.ones((n, 1))])
        local = {int(c): i for i, c in enumerate(self.classes_seen)}
        z = Xb @ self.W
        z -= z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        nll = -logp[np.arange(n), [local[int(c)] for c in y]].mean()
        return nll + 0.5 * self.regularization / n * float((self.W[:-1] ** 2).sum())

    def predict_score(self, X):
        X = np.asarray(X, dtype=np.float64)
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        z = Xb @ self.W
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        out = np.zeros((X.shape[0], self.n_classes))
        out[:, self.classes_seen] = p
        return out

    def predict(self, X):
        return self.predict_score(X).argmax(axis=1)


class _Forest:
    """Shared vote/score machinery for tree ensembles."""

    trees: list
    n_classes: int

    def _member_preds(self, X):
        return np.stack([t.predict(X) for t in self.trees])

    def predict_score(self, X):
        return _vote_counts(self._member_preds(X).T, self.n_classes) / len(self.trees)

    def predict(self, X):
        # vote shares keep the order of the counts, so ties still go to the
        # lowest class code
        return self.predict_score(X).argmax(axis=1)


class RandomForestClassifier(_Forest):
    def __init__(self, n_estimators=100, criterion="gini", max_features=0.5):
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_features = max_features

    def fit(self, X, y, n_classes, rng: Rng | None = None, deadline=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        self.trees = []
        for t in range(self.n_estimators):
            if deadline is not None:
                deadline.check()
            tree_rng = rng.child(t)
            boot = tree_rng.np.integers(0, len(y), size=len(y))
            tree = DecisionTreeClassifier(criterion=self.criterion,
                                          max_features=self.max_features, rng=tree_rng)
            tree.fit(X[boot], y[boot], n_classes, deadline=deadline)
            self.trees.append(tree)
        return self


class BalancedRandomForestClassifier(_Forest):
    """Random forest over per-class balanced bootstraps (random undersampling
    inside every bootstrap), feature fraction sampled per node."""

    def __init__(self, n_estimators=100, criterion="gini", max_features=1.0,
                 min_impurity_decrease=0.0):
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease

    def fit(self, X, y, n_classes, rng: Rng | None = None, deadline=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        self.trees = []
        for t in range(self.n_estimators):
            if deadline is not None:
                deadline.check()
            tree_rng = rng.child(t)
            boot = _balanced_bootstrap(y, tree_rng)
            tree = DecisionTreeClassifier(
                criterion=self.criterion, max_features=self.max_features,
                min_impurity_decrease=self.min_impurity_decrease, rng=tree_rng)
            tree.fit(X[boot], y[boot], n_classes, deadline=deadline)
            self.trees.append(tree)
        return self


class BalancedBaggingClassifier(_Forest):
    """Bagging of full-depth trees on balanced bootstraps; ``max_samples``
    then subsamples each bag and ``max_features`` picks a per-bag column set."""

    def __init__(self, n_estimators=10, max_features=1.0, max_samples=1.0):
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.max_samples = max_samples

    def fit(self, X, y, n_classes, rng: Rng | None = None, deadline=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        d = X.shape[1]
        self.trees = []
        self.bag_features = []
        n_cols = max(1, math.ceil(min(max(self.max_features, 0.0), 1.0) * d))
        for t in range(self.n_estimators):
            if deadline is not None:
                deadline.check()
            bag_rng = rng.child(t)
            boot = _balanced_bootstrap(y, bag_rng)
            frac = min(max(self.max_samples, 0.0), 1.0)
            n_keep = max(1, math.ceil(frac * boot.size))
            if n_keep < boot.size:
                boot = boot[bag_rng.np.choice(boot.size, size=n_keep, replace=False)]
            cols = np.sort(bag_rng.np.choice(d, size=n_cols, replace=False))
            tree = DecisionTreeClassifier(rng=bag_rng)
            tree.fit(X[boot][:, cols], y[boot], n_classes, deadline=deadline)
            self.trees.append(tree)
            self.bag_features.append(cols)
        return self

    def _member_preds(self, X):
        X = np.asarray(X, dtype=np.float64)
        return np.stack([t.predict(X[:, cols])
                         for t, cols in zip(self.trees, self.bag_features)])


class RUSBoostClassifier:
    """SAMME boosting where each round fits a shallow tree on a randomly
    undersampled (class-balanced) draw of the current training set; the
    weighted error is measured on the full set."""

    MAX_RETRIES = 10

    def __init__(self, learning_rate=1.0, n_estimators=10, max_depth=1):
        self.learning_rate = learning_rate
        self.n_estimators = n_estimators
        self.max_depth = max_depth

    def fit(self, X, y, n_classes, rng: Rng | None = None, deadline=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        n = len(y)
        C = len(set(y.tolist()))
        if C < 2:
            raise EstimatorError("boosting needs at least 2 classes")
        w = np.full(n, 1.0 / n)
        self.trees = []
        self.alphas = []
        for t in range(self.n_estimators):
            round_rng = rng.child(t)
            accepted = False
            for _ in range(self.MAX_RETRIES):
                if deadline is not None:
                    deadline.check()
                boot = _balanced_bootstrap(y, round_rng)
                tree = DecisionTreeClassifier(max_depth=self.max_depth, rng=round_rng)
                tree.fit(X[boot], y[boot], n_classes,
                         sample_weight=w[boot] / max(w[boot].sum(), 1e-300),
                         deadline=deadline)
                pred = tree.predict(X)
                miss = pred != y
                eps = float(w[miss].sum())
                if eps < 1.0 - 1.0 / C:
                    accepted = True
                    break
            if not accepted:
                continue
            eps = min(max(eps, 1e-10), 1 - 1e-10)
            alpha = self.learning_rate * (math.log((1 - eps) / eps) + math.log(C - 1))
            w = w * np.exp(alpha * miss)
            w /= w.sum()
            self.trees.append(tree)
            self.alphas.append(alpha)
        if not self.trees:
            raise EstimatorError("boosting failed to find weak learner")
        return self

    def staged_decision(self, X):
        """Cumulative weighted-vote matrices after each accepted round."""
        X = np.asarray(X, dtype=np.float64)
        acc = np.zeros((X.shape[0], self.n_classes))
        for tree, alpha in zip(self.trees, self.alphas):
            onehot = np.zeros_like(acc)
            onehot[np.arange(X.shape[0]), tree.predict(X)] = 1.0
            acc = acc + alpha * onehot
            yield acc.copy()

    def _decision(self, X):
        acc = np.zeros((np.asarray(X).shape[0], self.n_classes))
        for acc in self.staged_decision(X):
            pass
        return acc

    def predict_score(self, X):
        acc = self._decision(X)
        return acc / np.maximum(acc.sum(axis=1, keepdims=True), 1e-300)

    def predict(self, X):
        return self._decision(X).argmax(axis=1)


class FittedModel:
    """A trained terminal estimator plus its training label dictionary."""

    def __init__(self, config: ComponentConfig, model, label_names: tuple[str, ...]):
        self.config = config
        self.model = model
        self.label_names = label_names

    def predict(self, X) -> np.ndarray:
        return self.model.predict(X)

    def predict_score(self, X) -> np.ndarray:
        return self.model.predict_score(X)


def fit(config: ComponentConfig, d: Dataset, rng: Rng, deadline=None) -> FittedModel:
    """Fit a terminal estimator on a dataset; deterministic given (config, data, seed)."""
    if config.category != ESTIMATOR:
        raise DomainError(f"{config.name} is not an estimator")
    if d.n < 2:
        raise EstimatorError("need at least 2 rows")
    if len(set(d.labels.tolist())) < 2:
        raise EstimatorError("need at least 2 classes")
    model = config.instantiate()
    model.fit(d.features, d.labels, len(d.label_names), rng=rng, deadline=deadline)
    return FittedModel(config, model, d.label_names)
