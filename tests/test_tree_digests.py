"""Byte-level regression pins for every tree estimator.

Each digest is a sha256 over the ``predict_score`` and ``predict`` bytes of
one estimator over a parameter sweep, fitted on one fixture (three classes,
tied feature values, a constant column) and scored on its rows plus probes
outside the training range. Any change in split choice, tie-breaking,
threshold or rng consumption shows as a changed digest. The pinned values
were recorded on the per-candidate-feature split search that
``grow_trees`` replaced. The random forest and the balanced random forest
sample columns per node, by the keyed draw rule of ``imbaml.rng.Rng``; their
pins are recorded from a replay of their bags through ``tree_oracle``'s
``fit_reference``, which ``test_sampling_forest_pins_come_from_the_oracle``
recomputes.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from imbaml import DEFAULT_SPACE, Rng
from imbaml.estimators import _balanced_bootstrap, _class_rows, fit

from helpers import make_dataset
from test_forest_walk import per_node_predict
from tree_oracle import fit_reference

PINNED = {
    "RandomForestClassifier": "c7016c9009eb06c1d27b6c39862e383844faa30f8cd304bebfb56fd21f114c6e",
    "BalancedRandomForestClassifier": "43af126091ea0ee102d0e6d07c61ac8a1c86c48fa0ea06e3d8430356691867eb",
    "BalancedBaggingClassifier": "25e46a93141869b387dbdef63bb6d31a2dbc38dc1c1c4321aa7fbf79fa0d2b54",
    "RUSBoostClassifier": "92b8e670602de806d50da7c46d876e3f8d6759e48b6ad363569e0d2558865d09",
    "DecisionTreeClassifier": "2a346b23da640f398f6f6f1fab225f2babf92f0eede134702ec30e0a1eda89ff",
    "DecisionStumpClassifier": "15970d6fab6bdb5c809c5f6e4a2ce064c0a31e87cdf0d2e8af9bc97426ca2ea5",
}

SWEEP = {
    "RandomForestClassifier": [{"max_features": 0.3},
                               {"criterion": "entropy", "max_features": 1.0}],
    "BalancedRandomForestClassifier": [{"max_features": 0.5},
                                       {"criterion": "entropy", "max_features": 0.2,
                                        "min_impurity_decrease": 0.05}],
    "BalancedBaggingClassifier": [{"n_estimators": 10},
                                  {"n_estimators": 100, "max_features": 0.5,
                                   "max_samples": 0.7}],
    "RUSBoostClassifier": [{"n_estimators": 50, "max_depth": 1},
                           {"n_estimators": 50, "max_depth": 3, "learning_rate": 0.5}],
    "DecisionTreeClassifier": [{"max_depth": 20}, {"criterion": "entropy", "max_depth": 4}],
    "DecisionStumpClassifier": [{"criterion": "gini"}, {"criterion": "entropy"}],
}


def fixture():
    d = make_dataset({0: 90, 1: 35, 2: 14}, seed=11, d=5, spread=1.5)
    X = d.features.copy()
    X[:, 1] = np.round(X[:, 1])      # many tied values
    X[:, 3] = 2.0                    # constant column
    return d.with_data(X, d.labels)


def queries(d):
    probe = np.vstack([d.features.min(axis=0) - 1.0, d.features.max(axis=0) + 1.0,
                       np.full(d.n_features, np.inf), np.full(d.n_features, -np.inf)])
    return np.vstack([d.features, d.features[::4] + 0.25, probe])


def tree_digest(name: str) -> str:
    d = fixture()
    h = hashlib.sha256()
    for i, params in enumerate(SWEEP[name]):
        model = fit(DEFAULT_SPACE.make_config(name, params), d, Rng(500 + i))
        h.update(np.ascontiguousarray(model.predict_score(queries(d)), dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(model.predict(queries(d)), dtype=np.int64).tobytes())
    return h.hexdigest()


def oracle_forest_digest(name: str) -> str:
    """``tree_digest`` of a forest whose bags, drawn as ``BaggedTrees`` draws
    them (a plain or balanced bootstrap from ``rng.child(t)``, every column),
    are each grown by ``fit_reference``, walked by the per-node walk and
    vote."""
    d = fixture()
    h = hashlib.sha256()
    for i, params in enumerate(SWEEP[name]):
        spec = DEFAULT_SPACE.make_config(name, params).instantiate()
        C = len(d.label_names)
        votes = []
        for t in range(spec.n_estimators):
            bag_rng = Rng(500 + i).child(t)
            rows = (_balanced_bootstrap(_class_rows(d.labels), bag_rng) if spec.balanced
                    else bag_rng.np.integers(0, d.n, size=d.n))
            tree = fit_reference(d.features[rows], d.labels[rows], C, bag_rng,
                                 criterion=spec.criterion, max_features=spec.max_features,
                                 min_impurity_decrease=spec.min_impurity_decrease)
            arrays = dict(zip(("feature", "threshold", "left", "right", "value"), tree))
            votes.append(per_node_predict(SimpleNamespace(**arrays), queries(d)))
        counts = np.stack([np.bincount(v, minlength=C) for v in np.array(votes).T])
        score = counts / spec.n_estimators
        h.update(np.ascontiguousarray(score, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(score.argmax(axis=1), dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_tree_estimator_scores_pinned(name):
    assert tree_digest(name) == PINNED[name]


@pytest.mark.parametrize("name", ["BalancedRandomForestClassifier", "RandomForestClassifier"])
def test_sampling_forest_pins_come_from_the_oracle(name):
    assert oracle_forest_digest(name) == PINNED[name]
