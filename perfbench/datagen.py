"""Shape-matched synthetic datasets for the benchmark workloads.

Every builtin manifest entry has ``"source": null``, so no real copy of the
datasets exists offline. Each workload instead draws a dataset with the
recorded row count, feature count and class counts of one manifest entry.

The class geometry (cluster centres, feature scales, which features carry
signal) is fixed per workload, so the difficulty of the task does not change
with the seed; the rows themselves are drawn from the workload seed. Classes
overlap on purpose: with well-separated blobs every pipeline scores 1.0 and
the benchmark could no longer show a loss of quality.
"""

from __future__ import annotations

import numpy as np

from imbaml import builtin_suite

# Class counts of the yeast entry in extremely_imbalanced_multiclass. The
# manifest records only its majority (463) and minority (5); the other eight
# classes come from the published dataset.
YEAST_COUNTS = (463, 429, 244, 163, 51, 44, 35, 30, 20, 5)


def manifest_shape(suite: str, name: str) -> tuple[tuple[int, ...], int]:
    """(class counts, feature count) of a builtin manifest entry."""
    entry = next(e for e in builtin_suite(suite).entries if e.name == name)
    if entry.task == "binary":
        counts = (entry.majority_size, entry.minority_size)
    elif name == "yeast":
        counts = YEAST_COUNTS
    else:
        raise ValueError(f"no class counts known for multiclass entry '{name}'")
    if (max(counts) != entry.majority_size or min(counts) != entry.minority_size
            or sum(counts) != entry.n_instances):
        raise ValueError(f"class counts {counts} contradict manifest entry '{name}'")
    return counts, entry.n_features


def generate(counts, n_features: int, geometry_seed: int, seed: int,
             separation: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows and integer labels, shuffled.

    Each class is an equal mixture of two Gaussian sub-clusters whose centres
    differ only on the informative half of the features; the remaining
    features are pure noise. Every feature gets its own scale, so scaling
    preprocessors change what the estimators see.
    """
    geo = np.random.default_rng(geometry_seed)
    n_informative = max(2, n_features // 2)
    k = len(counts)
    centres = geo.normal(0.0, 1.0, size=(k, 2, n_informative))
    centres *= separation / np.sqrt(n_informative)
    scales = np.exp(geo.uniform(-1.0, 2.0, size=n_features))
    shift = geo.normal(0.0, 3.0, size=n_features)

    rng = np.random.default_rng(seed)
    X_parts, y_parts = [], []
    for c, n in enumerate(counts):
        Z = rng.normal(0.0, 1.0, size=(n, n_features))
        Z[:, :n_informative] += centres[c, rng.integers(0, 2, size=n)]
        X_parts.append(Z * scales + shift)
        y_parts.append(np.full(n, c, dtype=np.int64))
    X, y = np.vstack(X_parts), np.concatenate(y_parts)
    order = rng.permutation(len(y))
    return X[order], y[order]


def write_csv(path, X: np.ndarray, y: np.ndarray) -> None:
    """Header row, features as round-trip decimals, label last as ``c<code>``."""
    header = ",".join([f"x{j}" for j in range(X.shape[1])] + ["label"])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row, label in zip(X.tolist(), y.tolist()):
            fh.write(",".join(repr(v) for v in row) + f",c{label}\n")
