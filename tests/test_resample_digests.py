"""Byte-level regression pins for every resampler and for kNN prediction.

Each digest is a sha256 over ``features.tobytes() + labels.tobytes()`` of
every output in a fixture sweep (binary and multiclass, ties and duplicate
points, squared distances that overflow to inf, several k), so any change in
neighbour order, tie-breaking or rng consumption shows as a changed digest.
The pinned values were recorded on the per-row ``lexsort`` neighbour code
that the blocked kernel replaced; those of SMOTE, BorderlineSMOTE, ADASYN,
SMOTEENN and SMOTETomek were recorded again, and only their ``overflow``
fixture moved, when a row stopped being listed among its own neighbours
where squared distances overflow.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from imbaml import DEFAULT_SPACE, Rng
from imbaml.estimators import KNeighborsClassifier
from imbaml.samplers import _kmeans, apply_sampler, cnn

from helpers import grid_classes, make_dataset, overlapping_binary

PINNED = {
    "SMOTE": "9bf753dc90f572148f22988c77c163afaf5faa521e5ec29c65d2672fc1069213",
    "BorderlineSMOTE": "b7e0083eb230e29d5f8eb017cd702f5b72553c7243ca1cbd21bd5bb030584dca",
    "ADASYN": "81c50aeac12409144f29a261df4a3e69df7e4e811ac1f0f70935153da07823c3",
    "EditedNearestNeighbours": "72c19d3ff7b77437fcb352ceb1a4db67afeb246b798b7843c4ccbae36a260738",
    "CondensedNearestNeighbour": "b1ec7a5284b803da24fed1acb5bf20fb03b74cf6d864f74f4c61cc3810f62feb",
    "AllKNN": "e21b19e322e5113d30551031c9904484506056b10f04ef3d906c02a31ea7ccac",
    "ClusterCentroids": "ee11066ec82954112e95d564376bbe2a0672578964f7a2964a54b63a7a3ba5f8",
    "TomekLinks": "934917275de9bb8bdddd201fa1af0442a3a3480027f8f4b4f715c6b926b7ddcd",
    "SMOTEENN": "5b20a4fceb88f4878c58409fba4e03b544654c2f01c3120d187f77bf3165d3ab",
    "SMOTETomek": "911629caaf70153083e27b51e7b12193fa3a402ec371fd187a31fd870721b1f4",
    "KNeighborsClassifier": "63b2fa3f760d7cf4a906ebf351b4c38d4c03ac4d08e6f9bf97c43a7fed1ccf48",
}

_K = (1, 3, 7)

SWEEP = {
    "SMOTE": [{"k_neighbours": k} for k in _K],
    "BorderlineSMOTE": [{"k_neighbours": k, "kind": kind, "m_neighbours": m}
                        for kind in ("borderline-1", "borderline-2")
                        for k, m in ((1, 1), (3, 5), (7, 10))],
    "ADASYN": [{"k_neighbours": k} for k in _K],
    "EditedNearestNeighbours": [{"k_neighbours": k} for k in _K],
    "CondensedNearestNeighbour": [{"k_neighbours": k} for k in _K],
    "AllKNN": [{"k_neighbours": k} for k in _K],
    "ClusterCentroids": [{"voting": v} for v in ("auto", "hard", "soft")],
    "TomekLinks": [{}],
    "SMOTEENN": [{"sampling_strategy": s} for s in ("auto", "minority", "all")],
    "SMOTETomek": [{"k_smote": k} for k in _K],
}


def fixtures():
    """Small datasets covering the cases the neighbour order depends on."""
    huge = overlapping_binary(30, 8, seed=8, d=2)
    return {
        "binary": overlapping_binary(60, 14, seed=3, d=3, separation=1.0),
        "multiclass": make_dataset({0: 40, 1: 15, 2: 8}, seed=4, d=3, spread=2.0),
        "grid_binary": grid_classes(5, (54, 16)),
        "grid_multiclass": grid_classes(6, (50, 20, 10)),
        # squared distances overflow to inf between the two halves
        "overflow": huge.with_data(
            huge.features * np.where(huge.labels == 1, 1e160, 1.0)[:, None], huge.labels),
        # more rows than one block of reference points, in a partial last block
        "blocked": overlapping_binary(1150, 150, seed=10, d=4, separation=1.0),
    }


def _digest_update(h, X, y):
    h.update(np.ascontiguousarray(X, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(y, dtype=np.int64).tobytes())


def sampler_digest(name: str) -> str:
    h = hashlib.sha256()
    for fname, d in fixtures().items():
        for i, params in enumerate(SWEEP[name]):
            cfg = DEFAULT_SPACE.make_config(name, params)
            try:
                with np.errstate(over="ignore"):
                    out = apply_sampler(cfg, d, Rng(1000 + i))
            except Exception as exc:  # the failure kind is part of the pin
                h.update(f"{fname}:{i}:{type(exc).__name__}".encode())
                continue
            _digest_update(h, out.features, out.labels)
    return h.hexdigest()


def knn_digest() -> str:
    h = hashlib.sha256()
    for d in fixtures().values():
        # non-finite queries, as a PolynomialFeatures overflow produces
        probe = np.zeros((4, d.n_features))
        probe[1] = 1.5
        probe[2, 0], probe[2, -1] = np.inf, -np.inf
        probe[3, 0] = np.nan
        queries = np.vstack([d.features, d.features[::3] + 0.5, probe])
        for k in (1, 3, 5, 24, d.n + 3):
            model = KNeighborsClassifier(k).fit(d.features, d.labels, len(d.label_names))
            scores = model.predict_score(queries)
            _digest_update(h, scores, model.predict(queries))
    return h.hexdigest()


def all_digests() -> dict[str, str]:
    out = {name: sampler_digest(name) for name in SWEEP}
    out["KNeighborsClassifier"] = knn_digest()
    return out


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_sampler_output_bytes_pinned(name):
    assert sampler_digest(name) == PINNED[name]


def test_smote_copies_no_row_when_distances_overflow():
    # a row that lists itself among its neighbours interpolates toward itself
    d = fixtures()["overflow"]
    for i, params in enumerate(SWEEP["SMOTE"]):
        cfg = DEFAULT_SPACE.make_config("SMOTE", params)
        with np.errstate(over="ignore"):
            out = apply_sampler(cfg, d, Rng(1000 + i))
        synthetic = out.features[d.n:]
        assert synthetic.size
        assert not (synthetic[:, None, :] == d.features[None]).all(axis=2).any()


def test_knn_predict_score_bytes_pinned():
    assert knn_digest() == PINNED["KNeighborsClassifier"]


def test_cnn_memory_is_not_quadratic():
    # an n x n float64 distance cache would need n * n * 8 bytes (288 MB here)
    d = overlapping_binary(5400, 600, seed=9, d=4, separation=2.5)
    tracemalloc.start()
    try:
        out = cnn(d, 3, Rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out.labels == 1).sum() == 600
    assert peak < 0.1 * d.n * d.n * 8


def test_kmeans_memory_is_not_rows_by_clusters():
    # a rows x clusters float64 distance matrix would need 80 MB here
    X = Rng(4).np.normal(size=(20_000, 2))
    k = 500
    tracemalloc.start()
    try:
        centroids, assign = _kmeans(X, k, Rng(0), max_iter=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert centroids.shape == (k, 2) and assign.shape == (20_000,)
    assert peak < 0.1 * X.shape[0] * k * 8
