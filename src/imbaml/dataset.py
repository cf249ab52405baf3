"""Dataset container, class-distribution accounting and stratified folding."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .rng import Rng

if TYPE_CHECKING:
    from .neighbors import NeighborGraphs

NUMERIC = "numeric"
CATEGORICAL = "categorical"


class DataError(ValueError):
    """Raised for malformed or unusable input data."""


@dataclass(frozen=True)
class ColumnMeta:
    """Per-column bookkeeping: original name, kind, nominal domain if coded."""

    name: str
    kind: str = NUMERIC
    categories: tuple[str, ...] | None = None


@functools.lru_cache(maxsize=32)
def _generated_columns(width: int) -> tuple[ColumnMeta, ...]:
    """``x0 .. x{width-1}``, numeric; one shared tuple per width (ColumnMeta
    is frozen), as a pipeline rebuilds a width on every fold."""
    return tuple(ColumnMeta(f"x{j}") for j in range(width))


@dataclass(frozen=True)
class Dataset:
    """An in-memory classification dataset.

    ``features`` is a dense float64 matrix of finite values, with no NaN or
    +-inf (imputation happens at ingestion), ``labels`` holds small integer
    codes indexing ``label_names``.
    Features, labels and metadata are immutable after construction.

    ``neighbours``, when set, is the view of a dataset's neighbour graphs
    that covers these rows (``neighbors.NeighborGraphs``). ``subset``
    passes on the view's own ``subset``; ``with_data`` drops it.
    """

    name: str
    features: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...]
    columns: tuple[ColumnMeta, ...]
    n_missing_cells: int = 0
    provenance: tuple[str, ...] = field(default=())
    neighbours: NeighborGraphs | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        X = np.ascontiguousarray(self.features, dtype=np.float64)
        y = np.ascontiguousarray(self.labels, dtype=np.int64)
        if X.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        if y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DataError("row count of features must equal length of labels")
        if X.shape[0] == 0:
            raise DataError("zero rows")
        if not np.all(np.isfinite(X)):
            raise DataError("features contain non-finite values after ingestion")
        if y.size and (y.min() < 0 or y.max() >= len(self.label_names)):
            raise DataError("label code outside the label dictionary")
        if len(self.columns) != X.shape[1]:
            raise DataError("column metadata does not match feature width")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @staticmethod
    def from_arrays(name, X, y, label_names=None, columns=None) -> "Dataset":
        """Build a dataset from bare arrays with generated column metadata."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if label_names is None:
            label_names = tuple(f"c{i}" for i in range(int(y.max()) + 1 if y.size else 0))
        if columns is None:
            columns = _generated_columns(X.shape[1])
        return Dataset(name, X, y, tuple(label_names), tuple(columns))

    def with_data(self, features, labels, note: str | None = None) -> "Dataset":
        """A copy holding new rows and no ``neighbours``; column metadata
        survives only if the width matches."""
        features = np.asarray(features, dtype=np.float64)
        cols = self.columns
        if features.shape[1] != len(cols):
            cols = _generated_columns(features.shape[1])
        prov = self.provenance + ((note,) if note else ())
        return Dataset(self.name, features, labels, self.label_names, cols,
                       self.n_missing_cells, prov)

    def subset(self, indices) -> "Dataset":
        """The rows at integer ``indices``, in that order."""
        indices = np.asarray(indices)
        if indices.size and indices.dtype.kind not in "iu":
            raise DataError(f"row indices must be integers, not {indices.dtype}")
        indices = indices.astype(np.int64, copy=False)
        graph = self.neighbours and self.neighbours.subset(indices)
        return Dataset(self.name, self.features[indices], self.labels[indices],
                       self.label_names, self.columns, self.n_missing_cells,
                       self.provenance, graph)


@dataclass(frozen=True)
class ClassDistribution:
    """Per-class counts plus the majority/minority summary."""

    counts: dict[int, int]
    majority_size: int
    minority_size: int
    imbalance_ratio: float

    @property
    def n_classes(self) -> int:
        return len(self.counts)

    def minority_classes(self) -> tuple[int, ...]:
        return tuple(c for c, k in sorted(self.counts.items()) if k == self.minority_size)

    @staticmethod
    def from_counts(counts: dict[int, int]) -> "ClassDistribution":
        if not counts:
            raise DataError("empty class distribution")
        sizes = list(counts.values())
        majority, minority = max(sizes), min(sizes)
        if minority < 1:
            raise DataError("class with zero samples")
        return ClassDistribution(dict(counts), majority, minority, majority / minority)


def _class_rows(labels: np.ndarray) -> dict[int, np.ndarray]:
    """The rows of each class present in ``labels``, ascending, keyed by
    class code in ascending order."""
    order = np.argsort(labels, kind="stable")
    parts = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return {int(labels[part[0]]): part for part in parts if part.size}


def class_distribution(d: Dataset) -> ClassDistribution:
    present = np.bincount(d.labels, minlength=len(d.label_names))
    counts = {int(c): int(k) for c, k in enumerate(present) if k > 0}
    return ClassDistribution.from_counts(counts)


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment: ``assignments[i]`` is row i's fold in [0, k)."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.assignments, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)

    def val_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def stratified_folds(d: Dataset, k: int, rng: Rng) -> FoldPlan:
    """Deal each class round-robin into folds so per-class counts differ by <= 1.

    The dealing pointer carries over between classes, which guarantees every
    fold is used whenever n >= k; classes with fewer than k samples land in
    distinct folds (downstream evaluation must tolerate folds missing them).
    """
    if k < 2:
        raise DataError("fold count must be at least 2")
    if k > d.n:
        raise DataError(f"fold count {k} exceeds row count {d.n}")
    assignments = np.full(d.n, -1, dtype=np.int64)
    cursor = 0
    for c in sorted(set(d.labels.tolist())):
        idx = np.flatnonzero(d.labels == c)
        idx = idx[rng.np.permutation(idx.size)]
        for j, i in enumerate(idx):
            assignments[i] = (cursor + j) % k
        cursor = (cursor + idx.size) % k
    return FoldPlan(k, assignments)


def train_test_split(d: Dataset, test_fraction: float, rng: Rng) -> tuple[Dataset, Dataset]:
    """Stratified holdout split; singleton classes stay on the training side."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    test_mask = np.zeros(d.n, dtype=bool)
    for c in sorted(set(d.labels.tolist())):
        idx = np.flatnonzero(d.labels == c)
        if idx.size < 2:
            continue
        idx = idx[rng.np.permutation(idx.size)]
        n_test = min(idx.size - 1, max(1, int(round(test_fraction * idx.size))))
        test_mask[idx[:n_test]] = True
    train = d.subset(np.flatnonzero(~test_mask))
    test = d.subset(np.flatnonzero(test_mask))
    return train, test
