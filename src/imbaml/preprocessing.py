"""Feature preprocessors. State is fitted on training rows only; transform
never looks back at the fitted data, which is what the leakage guard checks."""

from __future__ import annotations

import numpy as np

from .space import ComponentConfig, DomainError, PREPROCESSOR


class Normalizer:
    def __init__(self, norm: str = "l2"):
        if norm not in ("l1", "l2", "max"):
            raise DomainError(f"unknown norm '{norm}'")
        self.norm = norm

    def fit(self, X):
        return self

    def transform(self, X):
        X = np.asarray(X, dtype=np.float64)
        if self.norm == "l2":
            scale = np.sqrt((X ** 2).sum(axis=1))
        elif self.norm == "l1":
            scale = np.abs(X).sum(axis=1)
        else:
            scale = np.abs(X).max(axis=1) if X.shape[1] else np.zeros(X.shape[0])
        scale = np.where(scale == 0, 1.0, scale)  # zero rows pass through
        return X / scale[:, None]


class Binarizer:
    def __init__(self, threshold: float = 0.0):
        self.threshold = float(threshold)

    def fit(self, X):
        return self

    def transform(self, X):
        return (np.asarray(X, dtype=np.float64) > self.threshold).astype(np.float64)


class VarianceThreshold:
    """Drops columns whose training variance is <= the threshold."""

    def __init__(self, threshold: float = 0.0):
        self.threshold = float(threshold)
        self.keep = None

    def fit(self, X):
        X = np.asarray(X, dtype=np.float64)
        self.keep = np.flatnonzero(X.var(axis=0) > self.threshold)
        return self

    def transform(self, X):
        return np.asarray(X, dtype=np.float64)[:, self.keep]


class PCA:
    """Projection onto the top eigenvectors of the training covariance.

    The requested component count truncates to the effective rank; component
    signs are fixed so the largest-magnitude coordinate is positive.
    """

    def __init__(self, n_components: int = 5):
        self.n_components = int(n_components)
        self.mean = None
        self.components = None

    def fit(self, X):
        X = np.asarray(X, dtype=np.float64)
        self.mean = X.mean(axis=0)
        centered = X - self.mean
        cov = centered.T @ centered / max(X.shape[0] - 1, 1)
        vals, vecs = np.linalg.eigh(cov)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        tol = max(vals[0], 0.0) * 1e-12 if vals.size else 0.0
        rank = int((vals > tol).sum())
        k = max(1, min(self.n_components, rank if rank else 1, X.shape[1]))
        comps = vecs[:, :k]
        for j in range(k):
            pivot = np.argmax(np.abs(comps[:, j]))
            if comps[pivot, j] < 0:
                comps[:, j] = -comps[:, j]
        self.components = comps
        return self

    def transform(self, X):
        return (np.asarray(X, dtype=np.float64) - self.mean) @ self.components


class PolynomialFeatures:
    """Appends all degree-2 products x_i * x_j (i <= j) to the raw columns."""

    def __init__(self, degree: int = 2):
        if degree != 2:
            raise DomainError("only degree 2 is supported")
        self.degree = degree

    def fit(self, X):
        return self

    def transform(self, X):
        X = np.asarray(X, dtype=np.float64)
        d = X.shape[1]
        prods = [X[:, i] * X[:, j] for i in range(d) for j in range(i, d)]
        if not prods:
            return X
        return np.hstack([X, np.stack(prods, axis=1)])


def fit_preprocessor(config: ComponentConfig, X: np.ndarray):
    """Build a preprocessor through its spec's builder and fit it on training
    data; returns the fitted state."""
    if config.category != PREPROCESSOR:
        raise DomainError(f"{config.name} is not a preprocessor")
    return config.instantiate().fit(X)
