"""Confusion-matrix accounting and imbalance-appropriate scores.

Balanced accuracy is pinned to the macro-recall definition (unweighted mean
of per-class recall); reports carry that definition in their header. The
zero-division convention throughout is "empty denominator contributes 0".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC_IDS = ("balanced_accuracy", "g_mean", "f1_macro", "sensitivity")

BALANCED_ACCURACY_DEFINITION = "unweighted mean of per-class recall (macro recall)"


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts[i, j] = samples of true class ``classes[i]`` predicted as ``classes[j]``."""

    classes: tuple[int, ...]
    counts: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.counts, dtype=np.int64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(self.classes):
            raise MetricError("confusion matrix shape does not match class list")
        if (m < 0).any():
            raise MetricError("negative confusion count")
        m.setflags(write=False)
        object.__setattr__(self, "counts", m)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise MetricError("label vectors must be equal-length 1-d arrays")
    if y_true.size == 0:
        raise MetricError("empty label vectors")
    classes = np.union1d(y_true, y_pred)
    k = classes.size
    codes = np.searchsorted(classes, y_true) * k + np.searchsorted(classes, y_pred)
    m = np.bincount(codes, minlength=k * k).reshape(k, k)
    return ConfusionMatrix(tuple(classes.tolist()), m)


def _recalls(cm: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-class recall plus the mask of classes that have true samples."""
    if cm.total == 0:
        raise MetricError("empty confusion matrix")
    row = cm.counts.sum(axis=1).astype(np.float64)
    present = row > 0
    rec = np.zeros(len(cm.classes))
    rec[present] = np.diag(cm.counts)[present] / row[present]
    return rec, present


def balanced_accuracy(cm: ConfusionMatrix) -> float:
    """Mean recall over classes that appear in the true labels."""
    rec, present = _recalls(cm)
    if not present.any():
        raise MetricError("no class with true samples")
    return float(rec[present].mean())


def g_mean(cm: ConfusionMatrix) -> float:
    """Geometric mean of per-class recalls; zero if any class is fully missed."""
    rec, present = _recalls(cm)
    if not present.any():
        raise MetricError("no class with true samples")
    vals = rec[present]
    if (vals == 0).any():
        return 0.0
    return float(np.exp(np.log(vals).mean()))


def f1_macro(cm: ConfusionMatrix) -> float:
    """Unweighted mean of per-class F1 over all classes in the matrix."""
    if cm.total == 0:
        raise MetricError("empty confusion matrix")
    diag = np.diag(cm.counts).astype(np.float64)
    row = cm.counts.sum(axis=1).astype(np.float64)
    col = cm.counts.sum(axis=0).astype(np.float64)
    rec = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    prec = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    pr = prec + rec
    f1 = np.divide(2 * prec * rec, pr, out=np.zeros_like(diag), where=pr > 0)
    return float(f1.mean())


def sensitivity(cm: ConfusionMatrix, positive: int | None = None) -> float:
    """Recall of the positive class; defaults to the minority by true count."""
    rec, present = _recalls(cm)
    if positive is None:
        row = cm.counts.sum(axis=1)
        candidates = [(row[i], cm.classes[i]) for i in range(len(cm.classes)) if present[i]]
        if not candidates:
            raise MetricError("no class with true samples")
        positive = min(candidates)[1]
    if positive not in cm.classes:
        raise MetricError(f"positive class {positive} absent from the matrix")
    i = cm.classes.index(positive)
    if not present[i]:
        raise MetricError(f"positive class {positive} has no true samples")
    return float(rec[i])


_SCORERS = {
    "balanced_accuracy": balanced_accuracy,
    "g_mean": g_mean,
    "f1_macro": f1_macro,
    "sensitivity": sensitivity,
}


def score(cm: ConfusionMatrix, metric: str, positive: int | None = None) -> float:
    if metric not in METRIC_IDS:
        raise MetricError(f"unknown metric '{metric}'")
    if metric == "sensitivity":
        return sensitivity(cm, positive)
    return _SCORERS[metric](cm)
