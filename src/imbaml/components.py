"""The default component inventory: hyperparameter domains and builders.

Each entry is one ``ComponentSpec``; its ``build`` is the only place that
maps the component's name and hyperparameters to code, so adding a
component is adding an entry here (or to a user ``SearchSpace``).

The resampler and imbalance-ensemble rows mirror the published search table
verbatim (including its [0.05-1.01] fraction ranges, clamped to 1.0 at use).
Domains for the native components are a frozen snapshot documented here
rather than resolved from any external configuration at runtime. Two rows
declare defaults outside their search range (RUSBoost n_estimators,
balanced-forest min_impurity_decrease); validation admits the declared
default as well as any in-range value, so default pipelines stay legal while
search draws stay inside the range.
"""

from __future__ import annotations

from .estimators import (BalancedBaggingClassifier, BalancedRandomForestClassifier,
                         GaussianNB, KNeighborsClassifier, LogisticRegression,
                         RandomForestClassifier, RUSBoostClassifier)
from .preprocessing import PCA, Binarizer, Normalizer, PolynomialFeatures, VarianceThreshold
from .samplers import (adasyn, all_knn, borderline_smote, cluster_centroids, cnn, enn,
                       smote, smote_enn, smote_tomek, tomek_links)
from .space import (ESTIMATOR, PREPROCESSOR, SAMPLER, Categorical, ComponentSpec,
                    IntRange, RealRange, SearchSpace)
from .tree import DecisionTreeClassifier


def _k(default=5):
    return IntRange(1, 25, default)


_FRAC = RealRange(0.05, 1.01, 1.0)

DEFAULT_SPACE = SearchSpace([
    # resamplers
    ComponentSpec("SMOTE", SAMPLER, (("k_neighbours", _k()),),
                  build=lambda k_neighbours: lambda d, rng, deadline:
                  smote(d, k_neighbours, rng, deadline)),
    ComponentSpec("BorderlineSMOTE", SAMPLER, (
        ("k_neighbours", _k()),
        ("kind", Categorical(("borderline-1", "borderline-2"), "borderline-1")),
        ("m_neighbours", _k(10)),
    ), build=lambda k_neighbours, kind, m_neighbours: lambda d, rng, deadline:
        borderline_smote(d, k_neighbours, m_neighbours, kind, rng, deadline)),
    ComponentSpec("ADASYN", SAMPLER, (("k_neighbours", _k()),),
                  build=lambda k_neighbours: lambda d, rng, deadline:
                  adasyn(d, k_neighbours, rng, deadline)),
    ComponentSpec("EditedNearestNeighbours", SAMPLER, (("k_neighbours", _k()),),
                  build=lambda k_neighbours: lambda d, rng, deadline:
                  enn(d, k_neighbours, deadline)),
    ComponentSpec("CondensedNearestNeighbour", SAMPLER, (("k_neighbours", _k()),),
                  build=lambda k_neighbours: lambda d, rng, deadline:
                  cnn(d, k_neighbours, rng, deadline)),
    ComponentSpec("AllKNN", SAMPLER, (("k_neighbours", _k()),),
                  build=lambda k_neighbours: lambda d, rng, deadline:
                  all_knn(d, k_neighbours, deadline)),
    ComponentSpec("ClusterCentroids", SAMPLER, (
        ("voting", Categorical(("auto", "hard", "soft"), "auto")),
    ), build=lambda voting: lambda d, rng, deadline:
        cluster_centroids(d, voting, rng, deadline)),
    ComponentSpec("TomekLinks", SAMPLER, (),
                  build=lambda: lambda d, rng, deadline: tomek_links(d, deadline)),
    # SMOTE k and ENN k are fixed at 5 and 5, imbalanced-learn's defaults.
    # They stay out of the domains: one more draw per SMOTEENN config would
    # shift the rng stream of every seeded search after it.
    ComponentSpec("SMOTEENN", SAMPLER, (
        ("sampling_strategy", Categorical(("auto", "minority", "all"), "auto")),
    ), build=lambda sampling_strategy: lambda d, rng, deadline:
        smote_enn(d, sampling_strategy, 5, 5, rng, deadline)),
    # the published table's strategy row carries a [1-25] range, which only
    # fits a neighbour count; exposed here as the SMOTE side's k
    ComponentSpec("SMOTETomek", SAMPLER, (("k_smote", _k()),),
                  build=lambda k_smote: lambda d, rng, deadline:
                  smote_tomek(d, k_smote, rng, deadline)),
    # preprocessors
    ComponentSpec("Normalizer", PREPROCESSOR, (
        ("norm", Categorical(("l2", "l1", "max"), "l2")),
    ), build=Normalizer),
    ComponentSpec("Binarizer", PREPROCESSOR, (
        ("threshold", RealRange(0.0, 1.0, 0.0)),
    ), build=Binarizer),
    ComponentSpec("VarianceThreshold", PREPROCESSOR, (
        ("threshold", RealRange(0.0, 0.05, 0.0)),
    ), build=VarianceThreshold),
    ComponentSpec("PCA", PREPROCESSOR, (
        ("n_components", IntRange(1, 20, 5)),
    ), build=PCA),
    ComponentSpec("PolynomialFeatures", PREPROCESSOR, (
        ("degree", Categorical((2,), 2)),
    ), build=PolynomialFeatures),
    # imbalance ensembles
    ComponentSpec("BalancedRandomForestClassifier", ESTIMATOR, (
        ("n_estimators", Categorical((100,), 100)),
        ("criterion", Categorical(("gini", "entropy"), "gini")),
        ("max_features", _FRAC),
        ("min_impurity_decrease", RealRange(0.05, 1.01, 0.0)),
    ), build=BalancedRandomForestClassifier),
    ComponentSpec("BalancedBaggingClassifier", ESTIMATOR, (
        ("n_estimators", Categorical((10, 100), 10)),
        ("max_features", _FRAC),
        ("max_samples", _FRAC),
    ), build=BalancedBaggingClassifier),
    ComponentSpec("RUSBoostClassifier", ESTIMATOR, (
        ("learning_rate", RealRange(0.05, 1.01, 1.0)),
        ("n_estimators", Categorical((50, 100), 10)),
        ("max_depth", IntRange(1, 3, 1)),
    ), build=RUSBoostClassifier),
    # native estimators (frozen snapshot of searched domains)
    ComponentSpec("DecisionTreeClassifier", ESTIMATOR, (
        ("criterion", Categorical(("gini", "entropy"), "gini")),
        ("max_depth", IntRange(1, 20, 20)),
    ), build=DecisionTreeClassifier),
    ComponentSpec("DecisionStumpClassifier", ESTIMATOR, (
        ("criterion", Categorical(("gini", "entropy"), "gini")),
    ), build=lambda criterion: DecisionTreeClassifier(criterion=criterion, max_depth=1)),
    ComponentSpec("RandomForestClassifier", ESTIMATOR, (
        ("n_estimators", Categorical((100,), 100)),
        ("criterion", Categorical(("gini", "entropy"), "gini")),
        ("max_features", RealRange(0.05, 1.01, 0.5)),
    ), build=RandomForestClassifier),
    ComponentSpec("KNeighborsClassifier", ESTIMATOR, (
        ("n_neighbors", _k()),
    ), build=KNeighborsClassifier),
    ComponentSpec("LogisticRegression", ESTIMATOR, (
        ("regularization", RealRange(1e-4, 10.0, 1.0)),
    ), build=LogisticRegression),
    ComponentSpec("GaussianNB", ESTIMATOR, (), build=GaussianNB),
])
