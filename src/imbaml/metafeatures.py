"""Meta-feature extraction: simple counts, discretized information-theoretic
measures, and three cheap landmarkers (decision stump, Gaussian naive Bayes,
1-NN) scored by 2-fold CV.

The schema is fixed and versioned; entries that cannot be computed (for
example a division by zero) carry an explicit not-available marker (None).
Entropies are in bits; numeric columns are discretized into 10 equal-width
bins, coded categorical columns use their categories directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, DataError, Dataset, stratified_folds
from .estimators import GaussianNB, KNeighborsClassifier
from .rng import Rng
from .tree import DecisionTreeClassifier

SCHEMA_VERSION = "mf-36-1"

FEATURE_NAMES: tuple[str, ...] = (
    "NumberOfInstances", "NumberOfFeatures", "NumberOfClasses", "Dimensionality",
    "MajorityClassSize", "MinorityClassSize",
    "MajorityClassPercentage", "MinorityClassPercentage",
    "NumberOfNumericFeatures", "NumberOfSymbolicFeatures", "NumberOfBinaryFeatures",
    "PercentageOfMissingValues",
    "ClassEntropy",
    "MeanAttributeEntropy", "MinAttributeEntropy", "MaxAttributeEntropy",
    "Quartile1AttributeEntropy", "Quartile2AttributeEntropy", "Quartile3AttributeEntropy",
    "MeanMutualInformation", "MinMutualInformation", "MaxMutualInformation",
    "Quartile1MutualInformation", "Quartile2MutualInformation", "Quartile3MutualInformation",
    "EquivalentNumberOfAtts", "MeanNoiseToSignalRatio",
    "DecisionStumpAUC", "DecisionStumpErrRate", "DecisionStumpKappa",
    "NaiveBayesAUC", "NaiveBayesErrRate", "NaiveBayesKappa",
    "kNN1NAUC", "kNN1NErrRate", "kNN1NKappa",
)

N_BINS = 10


@dataclass(frozen=True)
class MetaFeatureVector:
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(FEATURE_NAMES):
            raise ValueError("meta-feature vector does not match the schema")

    def get(self, name: str):
        return self.values[FEATURE_NAMES.index(name)]

    def to_dict(self) -> dict:
        return dict(zip(FEATURE_NAMES, self.values))

    @classmethod
    def from_dict(cls, doc: dict) -> "MetaFeatureVector":
        return cls(tuple(doc.get(n) for n in FEATURE_NAMES))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(values with NaN for unavailable, availability mask)."""
        vals = np.array([np.nan if v is None else float(v) for v in self.values])
        return vals, ~np.isnan(vals)


def _entropy_bits(counts: np.ndarray) -> float:
    counts = counts[counts > 0].astype(np.float64)
    if counts.size == 0:
        return 0.0
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _discretize(col: np.ndarray, kind: str) -> np.ndarray:
    if kind == CATEGORICAL:
        return col.astype(np.int64)
    lo, hi = col.min(), col.max()
    if hi <= lo:
        return np.zeros(col.size, dtype=np.int64)
    bins = np.clip(((col - lo) / (hi - lo) * N_BINS).astype(np.int64), 0, N_BINS - 1)
    return bins


def _mutual_information(a: np.ndarray, b: np.ndarray) -> float:
    a, b = a - a.min(), b - b.min()
    # joint counts of the (a, b) pairs in order of first appearance, the
    # order in which ``_entropy_bits`` sums them
    _, first, joint = np.unique(a * (b.max() + 1) + b, return_index=True, return_counts=True)
    h_joint = _entropy_bits(joint[np.argsort(first)])
    return max(0.0, _entropy_bits(np.bincount(a)) + _entropy_bits(np.bincount(b)) - h_joint)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, each run of equal values taking its average rank."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    start = np.flatnonzero(np.concatenate([[True], xs[1:] != xs[:-1]]))
    end = np.append(start[1:], x.size) - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat((start + end) / 2 + 1, end - start + 1)
    return ranks


def _rank_auc(scores: np.ndarray, pos_mask: np.ndarray):
    n_pos = int(pos_mask.sum())
    n_neg = int(pos_mask.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(scores)
    u = ranks[pos_mask].sum() - n_pos * (n_pos + 1) / 2
    return float(u / (n_pos * n_neg))


def _macro_auc(y_true: np.ndarray, score_matrix: np.ndarray):
    parts = []
    for c in range(score_matrix.shape[1]):
        auc = _rank_auc(score_matrix[:, c], y_true == c)
        if auc is not None:
            parts.append(auc)
    return float(np.mean(parts)) if parts else None


def _kappa(y_true: np.ndarray, y_pred: np.ndarray):
    n = y_true.size
    po = float((y_true == y_pred).mean())
    classes = set(y_true.tolist()) | set(y_pred.tolist())
    pe = sum(float((y_true == c).sum()) * float((y_pred == c).sum()) for c in classes) / n ** 2
    if 1.0 - pe < 1e-12:
        return None
    return float((po - pe) / (1.0 - pe))


def _landmark(d: Dataset, model_factory, rng: Rng):
    """Pooled 2-fold CV predictions of one cheap reference model."""
    folds = stratified_folds(d, 2, rng)
    n_classes = len(d.label_names)
    y_true, y_pred = [], []
    scores = []
    for i in range(2):
        tr, va = folds.train_indices(i), folds.val_indices(i)
        if tr.size == 0 or va.size == 0:
            continue
        model = model_factory()
        model.fit(d.features[tr], d.labels[tr], n_classes)
        y_true.append(d.labels[va])
        y_pred.append(model.predict(d.features[va]))
        scores.append(model.predict_score(d.features[va]))
    y_true = np.concatenate(y_true)
    y_pred = np.concatenate(y_pred)
    scores = np.vstack(scores)
    err = float((y_true != y_pred).mean())
    return _macro_auc(y_true, scores), err, _kappa(y_true, y_pred)


def extract_metafeatures(d: Dataset, rng: Rng) -> MetaFeatureVector:
    """Compute the full schema for a dataset; requires at least 4 rows so the
    landmarker CV has a 2-fold split to work with."""
    if d.n < 4:
        raise DataError("meta-feature extraction needs at least 4 rows")
    n, dim = d.n, d.n_features
    counts = np.bincount(d.labels, minlength=len(d.label_names))
    counts = counts[counts > 0]
    majority, minority = int(counts.max()), int(counts.min())

    kinds = [c.kind for c in d.columns]
    n_numeric = sum(1 for k in kinds if k != CATEGORICAL)
    n_symbolic = dim - n_numeric
    n_binary = sum(1 for j in range(dim)
                   if np.unique(d.features[:, j]).size == 2)
    pct_missing = 100.0 * d.n_missing_cells / (n * dim) if dim else 0.0

    class_entropy = _entropy_bits(counts)
    discretized = [_discretize(d.features[:, j], kinds[j]) for j in range(dim)]
    attr_entropy = np.array([_entropy_bits(np.bincount(col)) for col in discretized])
    mutual = np.array([_mutual_information(col, d.labels) for col in discretized])

    def stats(vec: np.ndarray):
        if vec.size == 0:
            return [None] * 6
        q1, q2, q3 = np.percentile(vec, [25, 50, 75])
        return [float(vec.mean()), float(vec.min()), float(vec.max()),
                float(q1), float(q2), float(q3)]

    mean_mi = float(mutual.mean()) if mutual.size else 0.0
    eq_atts = None if mean_mi <= 0 else class_entropy / mean_mi
    noise = (None if mean_mi <= 0
             else (float(attr_entropy.mean()) - mean_mi) / mean_mi)

    landmarkers = []
    factories = (
        lambda: DecisionTreeClassifier(max_depth=1),
        GaussianNB,
        lambda: KNeighborsClassifier(1),
    )
    for child, factory in enumerate(factories):
        auc, err, kappa = _landmark(d, factory, rng.child(child + 1))
        landmarkers.extend([auc, err, kappa])

    values = [
        float(n), float(dim), float(counts.size), dim / n,
        float(majority), float(minority),
        100.0 * majority / n, 100.0 * minority / n,
        float(n_numeric), float(n_symbolic), float(n_binary),
        pct_missing,
        class_entropy,
        *stats(attr_entropy),
        *stats(mutual),
        eq_atts, noise,
        *landmarkers,
    ]
    return MetaFeatureVector(tuple(values))
