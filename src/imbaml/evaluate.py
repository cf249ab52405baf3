"""Pipeline evaluation: stratified-CV fitness with per-evaluation time caps.

Resampling and preprocessor fitting happen strictly inside each training
partition; validation rows are passed through untouched, so every scored
validation row is bit-identical to an original dataset row. Timeouts are
cooperative: one ``Deadline`` per evaluation is checked between pipeline
steps, after each fold, and inside the sampler, neighbour-query and estimator
fit loops. There is no watchdog: preprocessor fitting and prediction run
unchecked, and an evaluation overruns its cap by up to the longest stretch
between two checks.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Dataset, FoldPlan, class_distribution
from .estimators import fit as fit_estimator
from .metrics import confusion, score
from .pipeline import Pipeline, serialize
from .preprocessing import fit_preprocessor
from .rng import Rng
from .space import ESTIMATOR, PREPROCESSOR, SAMPLER
from .samplers import apply_sampler

WORST_SCORE = float("-inf")

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"

# rng child offsets inside one evaluation (documented so replay oracles can
# reproduce a fit exactly)
_FIT_CHILD_BASE = 100
_SUBSAMPLE_CHILD_BASE = 200


class EvalTimeout(Exception):
    pass


class Deadline:
    """Monotonic-clock deadline checked cooperatively inside fit loops."""

    __slots__ = ("expires_at",)

    def __init__(self, seconds: float | None):
        self.expires_at = None if seconds is None else time.monotonic() + seconds

    def check(self):
        if self.expires_at is not None and time.monotonic() > self.expires_at:
            raise EvalTimeout()

    def remaining(self) -> float:
        if self.expires_at is None:
            return math.inf
        return max(0.0, self.expires_at - time.monotonic())


@dataclass(frozen=True)
class BudgetClock:
    """Global search budget; the per-evaluation cap is exactly a tenth of it."""

    total_budget: float
    started_at: float
    per_eval_cap: float

    @classmethod
    def start(cls, total_budget: float) -> "BudgetClock":
        if total_budget <= 0:
            raise ValueError("budget must be positive")
        return cls(float(total_budget), time.monotonic(), float(total_budget) / 10.0)

    def elapsed(self) -> float:
        return time.monotonic() - self.started_at

    def remaining(self) -> float:
        return max(0.0, self.total_budget - self.elapsed())


@dataclass(frozen=True)
class EvaluationResult:
    pipeline_id: str
    pipeline_text: str
    metric: str
    fold_scores: tuple[float, ...]
    mean_score: float
    wall_clock: float
    status: str = STATUS_OK
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def sort_key(self):
        """Total order: ok results by mean score, everything else strictly below."""
        return (1 if self.ok else 0, self.mean_score if self.ok else WORST_SCORE)

    def to_dict(self, include_timings: bool = True) -> dict:
        doc = {
            "pipeline_id": self.pipeline_id,
            "pipeline": self.pipeline_text,
            "metric": self.metric,
            "fold_scores": list(self.fold_scores),
            "mean_score": None if not self.ok else self.mean_score,
            "status": self.status,
            "detail": self.detail,
        }
        if include_timings:
            doc["wall_clock"] = self.wall_clock
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "EvaluationResult":
        status = doc["status"]
        mean = doc.get("mean_score")
        return cls(doc["pipeline_id"], doc["pipeline"], doc["metric"],
                   tuple(doc.get("fold_scores") or ()),
                   WORST_SCORE if mean is None else float(mean),
                   float(doc.get("wall_clock", 0.0)), status, doc.get("detail", ""))


class FittedPipeline:
    def __init__(self, transforms, model):
        self.transforms = transforms
        self.model = model

    def _apply(self, X):
        for t in self.transforms:
            X = t.transform(X)
        return X

    def predict(self, X):
        return self.model.predict(self._apply(X))

    def predict_score(self, X):
        return self.model.predict_score(self._apply(X))


def fit_pipeline(p: Pipeline, train: Dataset, rng: Rng, deadline: Deadline | None = None
                 ) -> FittedPipeline:
    """Fit all steps on (and only on) the given training data.

    Resamplers rebuild the working dataset; preprocessors fit on whatever
    feature matrix reaches them. Step i draws from ``rng.child(i)``.
    """
    working = train
    transforms = []
    for i, cfg in enumerate(p.steps):
        if deadline is not None:
            deadline.check()
        if cfg.category == SAMPLER:
            working = apply_sampler(cfg, working, rng.child(i), deadline)
        elif cfg.category == PREPROCESSOR:
            t = fit_preprocessor(cfg, working.features)
            transforms.append(t)
            working = working.with_data(t.transform(working.features), working.labels)
        elif cfg.category == ESTIMATOR:
            model = fit_estimator(cfg, working, rng.child(i), deadline=deadline)
            return FittedPipeline(transforms, model)
    raise AssertionError("pipeline without terminal estimator")


def _stratified_subsample(y: np.ndarray, indices: np.ndarray, fraction: float,
                          rng: Rng) -> np.ndarray:
    """Per-class subsample of the index set; keeps >= 1 row per class."""
    if fraction >= 1.0:
        return indices
    keep = []
    for c in sorted(set(y[indices].tolist())):
        rows = indices[y[indices] == c]
        n_keep = max(1, int(round(fraction * rows.size)))
        rows = rows[rng.np.permutation(rows.size)][:n_keep]
        keep.append(rows)
    out = np.concatenate(keep)
    out.sort()
    return out


def evaluate(p: Pipeline, d: Dataset, folds: FoldPlan, metric: str,
             cap: float | None, rng: Rng, positive: int | None = None,
             train_fraction: float = 1.0, probe=None) -> EvaluationResult:
    """Mean validation score of a pipeline over the fold plan.

    ``cap`` bounds the whole evaluation; expiry yields a ``timeout`` result.
    Estimator failures yield ``error`` so the surrounding search continues.
    ``probe``, when given, receives (fold, X_val, y_val) before scoring —
    an audit hook for the leakage guard.
    """
    start = time.monotonic()
    deadline = Deadline(cap)
    if positive is None:
        dist = class_distribution(d)
        positive = dist.minority_classes()[0]
    fold_scores = []
    try:
        for i in range(folds.k):
            tr_idx = folds.train_indices(i)
            va_idx = folds.val_indices(i)
            if va_idx.size == 0:
                continue
            if train_fraction < 1.0:
                tr_idx = _stratified_subsample(
                    d.labels, tr_idx, train_fraction,
                    rng.child(_SUBSAMPLE_CHILD_BASE + i))
            X_val, y_val = d.features[va_idx], d.labels[va_idx]
            if probe is not None:
                probe(i, X_val, y_val)
            fitted = fit_pipeline(p, d.subset(tr_idx),
                                  rng.child(_FIT_CHILD_BASE + i), deadline)
            deadline.check()
            y_pred = fitted.predict(X_val)
            cm = confusion(y_val, y_pred)
            pos = positive if metric == "sensitivity" and positive in cm.classes else None
            fold_scores.append(score(cm, metric, positive=pos))
        wall = time.monotonic() - start
        return EvaluationResult(p.id, serialize(p), metric, tuple(fold_scores),
                                float(np.mean(fold_scores)), wall)
    except EvalTimeout:
        return EvaluationResult(p.id, serialize(p), metric, (), WORST_SCORE,
                                time.monotonic() - start, STATUS_TIMEOUT)
    except Exception as exc:  # estimator/sampler failure: search must continue
        return EvaluationResult(p.id, serialize(p), metric, (), WORST_SCORE,
                                time.monotonic() - start, STATUS_ERROR, repr(exc))


def holdout_final(p: Pipeline, train: Dataset, test: Dataset, metric: str,
                  rng: Rng) -> float:
    """Fit once on the full training set and score the held-out set once.

    Classes present only in the holdout contribute zero recall, by the
    shared confusion-matrix conventions.
    """
    if train.label_names != test.label_names:
        raise ValueError("train/test label dictionaries are incompatible")
    fitted = fit_pipeline(p, train, rng.child(0), Deadline(None))
    y_pred = fitted.predict(test.features)
    cm = confusion(test.labels, y_pred)
    positive = None
    if metric == "sensitivity":
        dist = class_distribution(train)
        cand = dist.minority_classes()[0]
        positive = cand if cand in cm.classes else None
    return score(cm, metric, positive=positive)


class EvalLog:
    """Append-only JSON-lines log, flushed per record so crashes stay inspectable."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, record: dict):
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
