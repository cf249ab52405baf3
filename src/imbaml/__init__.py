"""AutoML for imbalanced classification.

Searches resampler + preprocessor + estimator pipelines under a wall-clock
budget, warm-started from a persisted metadata store, with a benchmark
subsystem for imbalance-regime suites and win/draw/lose comparisons.
"""

from .benchmark import (ComparisonOutcome, SuiteManifest, builtin_suite,
                        classify_regime, compare, run_suite, verify_manifest)
from .components import DEFAULT_SPACE
from .dataset import (ClassDistribution, ColumnMeta, DataError, Dataset, FoldPlan,
                      class_distribution, stratified_folds, train_test_split)
from .evaluate import (BudgetClock, EvaluationResult, evaluate, fit_pipeline,
                       holdout_final)
from .io import fetch_openml, load_arff, load_csv, load_source
from .metafeatures import FEATURE_NAMES, MetaFeatureVector, extract_metafeatures
from .metastore import (MetadataStore, MetaRecord, StoredPipeline, similarity,
                        warm_start_candidates)
from .metrics import (ConfusionMatrix, METRIC_IDS, balanced_accuracy, confusion,
                      f1_macro, g_mean, score, sensitivity)
from .pipeline import (Pipeline, crossover, mutate, parse, random_pipeline,
                       serialize)
from .rng import Rng
from .search import (AshaState, SearchConfig, SearchReport, audit_asha_events,
                     run_asha, run_asyncea, run_random, run_search)
from .space import ComponentConfig, ComponentSpec, DomainError, SearchSpace

__version__ = "0.1.0"
