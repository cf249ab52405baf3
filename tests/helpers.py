"""Shared dataset builders, the distance expression of the brute-force oracles
and a counting deadline for the test suite."""

from __future__ import annotations

import numpy as np

from imbaml import Dataset, Rng
from imbaml.evaluate import EvalTimeout
from imbaml.neighbors import _squared_sums


def make_dataset(counts: dict[int, int], seed: int = 0, d: int = 2,
                 spread: float = 4.0, noise: float = 1.0,
                 name: str = "synthetic") -> Dataset:
    """Gaussian blob per class, class c centred at (c*spread, ..)."""
    rng = Rng(seed)
    X_parts, y_parts = [], []
    for c, n in sorted(counts.items()):
        centre = np.full(d, c * spread, dtype=np.float64)
        X_parts.append(rng.np.normal(0.0, noise, size=(n, d)) + centre)
        y_parts.append(np.full(n, c, dtype=np.int64))
    return Dataset.from_arrays(name, np.vstack(X_parts), np.concatenate(y_parts))


def overlapping_binary(n_maj: int, n_min: int, seed: int = 0, d: int = 2,
                       separation: float = 1.5, name: str = "overlap") -> Dataset:
    rng = Rng(seed)
    Xmaj = rng.np.normal(0.0, 1.0, size=(n_maj, d))
    Xmin = rng.np.normal(separation, 1.0, size=(n_min, d))
    y = np.array([0] * n_maj + [1] * n_min, dtype=np.int64)
    return Dataset.from_arrays(name, np.vstack([Xmaj, Xmin]), y)


def grid_dataset(rows) -> Dataset:
    """Explicit (features..., label) tuples for hand-crafted fixtures."""
    rows = list(rows)
    X = np.array([r[:-1] for r in rows], dtype=np.float64)
    y = np.array([r[-1] for r in rows], dtype=np.int64)
    return Dataset.from_arrays("fixture", X, y)


def grid_classes(seed: int, counts: tuple[int, ...]) -> Dataset:
    """Points on a 4 x 4 integer grid (exact duplicates and tied distances),
    ``counts[c]`` of class c in shuffled order."""
    rng = Rng(seed)
    n = sum(counts)
    X = rng.np.integers(0, 4, size=(n, 2)).astype(np.float64)
    y = np.repeat(np.arange(len(counts)), counts)[rng.np.permutation(n)]
    return Dataset.from_arrays("grid", X, y)


def squared_distances(X: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distance from each row of ``X`` to ``x``, by the one expression
    every neighbour query of the program uses, so that an oracle breaks
    last-bit ties as the program does."""
    return _squared_sums(X - x)


def row_bytes(X: np.ndarray) -> set[bytes]:
    return {np.ascontiguousarray(row).tobytes() for row in np.asarray(X, dtype=np.float64)}


class CountingDeadline:
    """Counts checks; raises EvalTimeout on check number ``fire_at``. Like
    ``Deadline(None)`` it takes and ignores the projection arguments."""

    def __init__(self, fire_at=None):
        self.calls = 0
        self.fire_at = fire_at

    def check(self, started=None, done=0, left=0):
        self.calls += 1
        if self.calls == self.fire_at:
            raise EvalTimeout()
