"""Native classifiers and the imbalance ensembles.

Every estimator exposes ``fit(X, y, n_classes, rng=None, deadline=None)``,
``predict(X, deadline=None)`` and ``predict_score`` over a shared global
class-code space; codes absent from the training fold simply never win. The
ensembles need the Rng; the others accept and ignore it (a tree that samples
columns per node keys its draws by it). kNN and the tree ensembles check the
deadline while predicting; every other ``predict`` accepts and ignores it.
Fits are deterministic given the Rng passed in, which makes the replay
oracles in the test suite possible.

One bagged-tree ensemble, ``BaggedTrees``, fits and scores the random
forest, the balanced random forest and balanced bagging; those three are
constructors that set only its defaults and how each bag draws its rows and
columns. RUSBoost is the one boosted ensemble.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset, _class_rows
from .neighbors import NeighborIndex, _vote_counts
from .rng import Rng
from .space import ComponentConfig, DomainError, ESTIMATOR
from .tree import Forest, _n_candidates, _Ranks, grow_trees, node_labels


class EstimatorError(ValueError):
    pass


def _balanced_bootstrap(by_class: dict[int, np.ndarray], rng: Rng) -> np.ndarray:
    """Per-class bootstrap with equal counts = the minority count, in class
    order, from ``by_class = _class_rows(y)``, built once per fit."""
    low = min(idx.size for idx in by_class.values())
    return np.concatenate([idx[rng.np.integers(0, idx.size, size=low)]
                           for idx in by_class.values()])


def _need_rng(model, rng) -> None:
    """Raise before any work when an ensemble, which draws from ``rng``, has none."""
    if rng is None:
        raise ValueError(f"{type(model).__name__} draws its bags or rounds from an rng; "
                         "none was given")


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

    def predict(self, X, deadline=None):
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

    def predict_score(self, X, deadline=None):
        k = min(self.n_neighbors, len(self.X))
        neigh = self._index.query_batch(np.asarray(X, dtype=np.float64), k, deadline=deadline)
        return _vote_counts(self.y[neigh], self.n_classes) / k

    def predict(self, X, deadline=None):
        return self.predict_score(X, deadline).argmax(axis=1)


class LogisticRegression:
    """Multinomial softmax regression with an L2 penalty on the weights.

    ``fit`` minimises the mean softmax negative log-likelihood plus
    ``0.5 * regularization / n * ||W[:-1]||²`` (the bias row is not
    penalised) by truncated Newton (Newton-CG; Lin, Weng & Keerthi, JMLR
    2008). Each Newton step solves ``H d = -g`` by conjugate gradients,
    preconditioned by the diagonal of ``H`` so that columns of very different
    scales converge alike, on matrix-free Hessian-vector products (no dense
    Hessian, so thousands of columns fit) until the residual is at most
    ``min(0.5, sqrt(|g|)) * |g|`` or ``W.size`` products were made, then
    halves the step from 1 until the Armijo condition holds on the objective
    (or, once the objective no longer changes beyond rounding, until the
    gradient norm falls). The fit stops when the gradient norm is below
    ``GRAD_TOL``, after ``MAX_ITER`` Newton steps, or when no trial step of
    the line search is accepted. ``iterations`` counts the Newton steps taken
    and ``grad_norm`` is the gradient norm at the returned weights, so
    ``grad_norm >= GRAD_TOL`` means the fit did not converge. The deadline is
    checked once per Hessian-vector product and once per line-search trial.
    """

    MAX_ITER = 200
    GRAD_TOL = 1e-8
    ARMIJO = 1e-4
    MAX_HALVINGS = 40

    def __init__(self, regularization: float = 1.0):
        self.regularization = float(regularization)

    def _penalty_grad(self, W, n):
        g = W * (self.regularization / n)
        g[-1] = 0.0
        return g

    def _objective(self, Xb, y_onehot, W, n):
        """Objective, gradient and class probabilities at ``W``."""
        z = Xb @ W
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        total = p.sum(axis=1, keepdims=True)
        p /= total
        nll = -float((y_onehot * (z - np.log(total))).sum()) / n
        f = nll + 0.5 * self.regularization / n * float((W[:-1] ** 2).sum())
        g = Xb.T @ (p - y_onehot) / n + self._penalty_grad(W, n)
        return f, g, p

    def _hessp(self, Xb, p, V, n):
        """Hessian of the objective (at probabilities ``p``) times ``V``."""
        pz = p * (Xb @ V)
        return Xb.T @ (pz - p * pz.sum(axis=1, keepdims=True)) / n + self._penalty_grad(V, n)

    def _design(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        local = {int(c): i for i, c in enumerate(self.classes_seen)}
        onehot = np.zeros((n, len(self.classes_seen)))
        onehot[np.arange(n), [local[int(c)] for c in y]] = 1.0
        return np.hstack([X, np.ones((n, 1))]), onehot, n

    def fit(self, X, y, n_classes, rng=None, deadline=None):
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        self.classes_seen = np.array(sorted(set(y.tolist())), dtype=np.int64)
        Xb, onehot, n = self._design(X, y)
        Xb2 = Xb ** 2
        W = np.zeros((Xb.shape[1], onehot.shape[1]))
        f, g, p = self._objective(Xb, onehot, W, n)
        g_norm = float(np.sqrt((g ** 2).sum()))
        self.iterations = 0
        while g_norm >= self.GRAD_TOL and self.iterations < self.MAX_ITER:
            # inexact Newton direction: CG on H d = -g with a Jacobi
            # preconditioner, residual r = H d + g
            tol = min(0.5, math.sqrt(g_norm)) * g_norm
            diag = Xb2.T @ (p * (1.0 - p)) / n + self._penalty_grad(np.ones_like(W), n)
            diag = np.maximum(diag, 1e-12 * diag.max())
            d = np.zeros_like(W)
            r = g.copy()
            z = r / diag
            s = -z
            rz = float((r * z).sum())
            for _ in range(W.size):
                if deadline is not None:
                    deadline.check()
                Hs = self._hessp(Xb, p, s, n)
                curvature = float((s * Hs).sum())
                if curvature <= 0.0:
                    break
                alpha = rz / curvature
                d += alpha * s
                r += alpha * Hs
                if math.sqrt(float((r ** 2).sum())) <= tol:
                    break
                z = r / diag
                rz_next = float((r * z).sum())
                s = -z + (rz_next / rz) * s
                rz = rz_next
            if not d.any():
                d = -g
            # backtracking line search on the exact objective
            slope = float((g * d).sum())
            step = 1.0
            for _ in range(self.MAX_HALVINGS):
                if deadline is not None:
                    deadline.check()
                trial = self._objective(Xb, onehot, W + step * d, n)
                trial_norm = float(np.sqrt((trial[1] ** 2).sum()))
                if (trial[0] <= f + self.ARMIJO * step * slope
                        or (abs(trial[0] - f) <= 16 * np.finfo(float).eps * abs(f)
                            and trial_norm < g_norm)):
                    break
                step *= 0.5
            else:
                break  # no trial accepted: report the current weights
            W = W + step * d
            f, g, p = trial
            g_norm = trial_norm
            self.iterations += 1
        self.grad_norm = g_norm
        self.W = W
        return self

    def loss(self, X, y):
        Xb, onehot, n = self._design(X, y)
        return self._objective(Xb, onehot, self.W, n)[0]

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

    def predict(self, X, deadline=None):
        return self.predict_score(X).argmax(axis=1)


class BaggedTrees:
    """Bagged CART trees that vote: every tree grows in one ``grow_trees``
    call and ``predict_score`` is each class's share of the votes.

    Bag ``t`` draws from ``rng.child(t)``: its rows are a plain bootstrap, or
    a per-class balanced one when ``balanced`` (from per-class row lists
    built once per fit), of which ``max_samples`` (a fraction clamped to
    [0, 1]) are kept without replacement when that is fewer. With
    ``bag_columns`` the bag then draws a sorted ``max_features`` fraction of
    the columns and its tree searches all of them; otherwise every column is
    in the bag and each node samples ``max_features`` of them, drawn by the
    node's key (the rule in ``Rng``; the root's key is the seed of
    ``rng.child(t)``). Either way ``grow_trees`` grows every tree a level per
    step. Trees hold original column ids, so each predicts on the full
    matrix; after the fit they are stacked into one ``Forest``, which votes
    for every (row, tree) pair in one walk.
    """

    def __init__(self, n_estimators, criterion, max_features, min_impurity_decrease=0.0,
                 max_samples=1.0, *, balanced=False, bag_columns=False):
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.max_samples = max_samples
        self.balanced = balanced
        self.bag_columns = bag_columns

    def fit(self, X, y, n_classes, rng: Rng | None = None, deadline=None):
        _need_rng(self, rng)
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        n, d = X.shape
        frac = min(max(self.max_samples, 0.0), 1.0)
        n_cols = _n_candidates(self.max_features, d)
        by_class = _class_rows(y) if self.balanced else None
        bags = []
        for t in range(self.n_estimators):
            bag_rng = rng.child(t)
            rows = (_balanced_bootstrap(by_class, bag_rng) if self.balanced
                    else bag_rng.np.integers(0, n, size=n))
            n_keep = max(1, math.ceil(frac * rows.size))
            if n_keep < rows.size:
                rows = rows[bag_rng.np.choice(rows.size, size=n_keep, replace=False)]
            cols = (np.sort(bag_rng.np.choice(d, size=n_cols, replace=False))
                    if self.bag_columns else np.arange(d))
            bags.append((rows, cols, bag_rng))
        self.trees = grow_trees(X, y, n_classes, bags, criterion=self.criterion,
                                max_features=None if self.bag_columns else self.max_features,
                                min_impurity_decrease=self.min_impurity_decrease,
                                deadline=deadline)
        for tree, (_, cols, _) in zip(self.trees, bags):
            split = tree.feature >= 0
            tree.feature[split] = cols[tree.feature[split]]
        self.forest = Forest(self.trees)
        return self

    def predict_score(self, X, deadline=None):
        votes = self.forest.predict(X, deadline)
        return _vote_counts(votes, self.n_classes) / len(self.trees)

    def predict(self, X, deadline=None):
        # vote shares keep the order of the counts, so ties still go to the
        # lowest class code
        return self.predict_score(X, deadline).argmax(axis=1)


class RandomForestClassifier(BaggedTrees):
    """Trees on plain bootstraps, ``max_features`` sampled per node by the
    node's key (see ``BaggedTrees``)."""

    def __init__(self, n_estimators=100, criterion="gini", max_features=0.5):
        super().__init__(n_estimators, criterion, max_features)


class BalancedRandomForestClassifier(BaggedTrees):
    """Trees on per-class balanced bootstraps (random undersampling inside
    every bootstrap), ``max_features`` sampled per node by the node's key
    (see ``BaggedTrees``)."""

    def __init__(self, n_estimators=100, criterion="gini", max_features=1.0,
                 min_impurity_decrease=0.0):
        super().__init__(n_estimators, criterion, max_features, min_impurity_decrease,
                         balanced=True)


class BalancedBaggingClassifier(BaggedTrees):
    """Full-depth gini trees on balanced bootstraps subsampled to
    ``max_samples``, each on its own ``max_features`` column set."""

    def __init__(self, n_estimators=10, max_features=1.0, max_samples=1.0):
        super().__init__(n_estimators, "gini", max_features, max_samples=max_samples,
                         balanced=True, bag_columns=True)


class RUSBoostClassifier:
    """SAMME boosting where each round fits a shallow gini tree on a randomly
    undersampled (class-balanced) draw of the current training set; the
    weighted error is measured on the full set. The accepted trees are
    stacked into one ``Forest`` for prediction.

    A fit ranks the columns of its matrix once, in one ``tree._Ranks``
    table. Each round grows its tree with ``grow_trees`` as one bag of the
    drawn rows over that shared matrix, weighted per row by the round's
    weights over their sum on the draw, instead of copying and sorting the
    drawn rows: the tree is bit for bit that of
    ``DecisionTreeClassifier(max_depth=max_depth).fit(X[boot], y[boot],
    n_classes, sample_weight=w[boot] / w[boot].sum())``. A round's
    predictions on the full set are its leaves' ``tree.node_labels``, the
    classes the tree's ``predict`` gives.
    """

    MAX_RETRIES = 10

    def __init__(self, learning_rate=1.0, n_estimators=10, max_depth=1):
        self.learning_rate = learning_rate
        self.n_estimators = n_estimators
        self.max_depth = max_depth

    def fit(self, X, y, n_classes, rng: Rng | None = None, deadline=None):
        _need_rng(self, rng)
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        n = len(y)
        C = len(set(y.tolist()))
        if C < 2:
            raise EstimatorError("boosting needs at least 2 classes")
        w = np.full(n, 1.0 / n)
        by_class = _class_rows(y)
        ranks = _Ranks(X)
        cols = np.arange(X.shape[1])
        self.trees = []
        self.alphas = []
        for t in range(self.n_estimators):
            round_rng = rng.child(t)
            accepted = False
            for _ in range(self.MAX_RETRIES):
                if deadline is not None:
                    deadline.check()
                boot = _balanced_bootstrap(by_class, round_rng)
                tree, = grow_trees(X, y, n_classes, [(boot, cols, round_rng)],
                                   max_depth=self.max_depth,
                                   sample_weight=w / max(w[boot].sum(), 1e-300),
                                   deadline=deadline, ranks=ranks)
                miss = node_labels(tree.value)[tree._leaf_of(X)] != y
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
        self.forest = Forest(self.trees)
        return self

    def _decision(self, X, deadline=None):
        """Weighted votes: each round's alpha added to its (row, vote)
        cells, in round order."""
        X = np.asarray(X, dtype=np.float64)
        acc = np.zeros((X.shape[0], self.n_classes))
        votes = self.forest.predict(X, deadline)
        rows = np.arange(X.shape[0])
        for t, alpha in enumerate(self.alphas):
            acc[rows, votes[:, t]] += alpha
        return acc

    def predict_score(self, X):
        acc = self._decision(X)
        return acc / np.maximum(acc.sum(axis=1, keepdims=True), 1e-300)

    def predict(self, X, deadline=None):
        return self._decision(X, deadline).argmax(axis=1)


class FittedModel:
    """A trained terminal estimator."""

    def __init__(self, model):
        self.model = model

    def predict(self, X, deadline=None) -> np.ndarray:
        return self.model.predict(X, deadline=deadline)

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
    return FittedModel(model)
