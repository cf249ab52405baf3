"""The benchmark's workloads: one fixed-work search each.

Each workload is a closed loop: one process runs one search, and a new
evaluation starts only when one of ``workers`` is free. The work is fixed by
the search seed, ``max_evals`` and the budget. The per-evaluation cap
(budget / 10) is placed between the run times of the workload's pipelines
as measured on several seeds, so that cheap pipelines complete and runaway
ones time out; on multiclass_2w no gap is wide enough, and one pipeline
sometimes completes. The budget itself is several times the length of a
search, so ``max_evals``, not the clock, ends every search.
"""

from __future__ import annotations

from dataclasses import dataclass

SEARCH_SEED = 0
GEOMETRY_SEED = 7
TEST_FRACTION = 0.25
METRIC = "balanced_accuracy"

RESAMPLE_KNN_COMPONENTS = (
    "SMOTE", "BorderlineSMOTE", "ADASYN", "EditedNearestNeighbours",
    "CondensedNearestNeighbour", "AllKNN", "ClusterCentroids", "TomekLinks",
    "SMOTEENN", "SMOTETomek",
    "Normalizer", "VarianceThreshold", "PCA",
    "GaussianNB", "DecisionStumpClassifier",
)


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str
    entry: str
    separation: float
    components: tuple[str, ...] | None  # None: DEFAULT_SPACE
    algorithm: str
    workers: int
    max_evals: int
    budget: float
    population_size: int = 50

    def space(self):
        from imbaml import DEFAULT_SPACE, SearchSpace
        if self.components is None:
            return DEFAULT_SPACE
        return SearchSpace([DEFAULT_SPACE.spec(n) for n in self.components])

    def search_config(self):
        from imbaml import SearchConfig
        return SearchConfig(algorithm=self.algorithm, metric=METRIC,
                            budget=self.budget, worker_count=self.workers,
                            seed=SEARCH_SEED, max_evals=self.max_evals,
                            population_size=self.population_size)


WORKLOADS = {w.name: w for w in (
    # Resamplers and NeighborIndex do almost all the work; the estimators
    # (naive Bayes, stumps) do almost none.
    Workload("resample_knn", "imbalanced_binary", "page-blocks", 3.5,
             RESAMPLE_KNN_COMPONENTS, "random", 1, max_evals=8, budget=200.0),
    # The `imbaml fit` path: default space, asynchronous evolution with a
    # population smaller than the evaluation count, so mutation and
    # crossover run. Estimators and trees dominate.
    Workload("fit_default", "imbalanced_binary", "analcatdata_halloffame", 3.5,
             None, "asyncea", 1, max_evals=12, budget=150.0, population_size=8),
    # The only workload with concurrent evaluations and the only multiclass
    # one. Random search, so the set of evaluations does not depend on the
    # order in which they complete.
    Workload("multiclass_2w", "extremely_imbalanced_multiclass", "yeast", 6.5,
             None, "random", 2, max_evals=13, budget=60.0),
)}
