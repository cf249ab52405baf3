"""Metadata store persistence, warm-start retrieval and meta-feature
extraction."""

from __future__ import annotations

import json

import numpy as np
import pytest

from imbaml import (DataError, MetadataStore, MetaRecord, Rng, StoredPipeline,
                    extract_metafeatures, serialize, warm_start_candidates)
from imbaml.metafeatures import (FEATURE_NAMES, MetaFeatureVector, _average_ranks,
                                 _entropy_bits, _mutual_information)
from imbaml.metastore import MetaStoreError, rank_records, similarity

from helpers import make_dataset

NB, KNN = "GaussianNB()", "KNeighborsClassifier(n_neighbors=5)"
SMOTE_NB, TOMEK_NB = "SMOTE(k_neighbours=5) >> GaussianNB()", "TomekLinks() >> GaussianNB()"


def _vectors():
    rng = np.random.default_rng(0)
    a, b, c = (rng.normal(size=len(FEATURE_NAMES)) for _ in range(3))
    return [MetaFeatureVector(tuple(map(float, v))) for v in (a, b, c, 0.7 * a + 0.3 * b)]


@pytest.fixture
def store() -> MetadataStore:
    """Records a, b, c, ranked in that order against ``query``; b's best
    pipeline repeats a's best."""
    a, b, c, _ = _vectors()
    s = MetadataStore()
    s.insert(MetaRecord("a", a, (StoredPipeline(KNN, "balanced_accuracy", 0.8),
                                 StoredPipeline(NB, "balanced_accuracy", 0.9))))
    s.insert(MetaRecord("b", b, (StoredPipeline(NB, "balanced_accuracy", 0.85),
                                 StoredPipeline(SMOTE_NB, "balanced_accuracy", 0.7))))
    s.insert(MetaRecord("c", c, (StoredPipeline(TOMEK_NB, "balanced_accuracy", 0.6),)))
    return s


@pytest.fixture
def query() -> MetaFeatureVector:
    return _vectors()[3]


def test_store_round_trips(tmp_path, store):
    path = tmp_path / "store.json"
    store.save(path)
    loaded = MetadataStore.load(path)
    assert loaded.to_json() == store.to_json()
    assert [r.pipelines[0].text for r in loaded.records] == [NB, NB, TOMEK_NB]


def test_feature_missing_from_every_record_stays_nan(tmp_path):
    a, b, _, _ = _vectors()
    absent = FEATURE_NAMES.index("EquivalentNumberOfAtts")
    s = MetadataStore()
    for name, vec in (("a", a), ("b", b)):
        values = list(vec.values)
        values[absent] = None
        # under the suite's error::RuntimeWarning filter a warning would raise
        s.insert(MetaRecord(name, MetaFeatureVector(tuple(values)),
                            (StoredPipeline(NB, "balanced_accuracy", 0.8),)))
    assert np.isnan(s.mean[absent]) and np.isnan(s.std[absent])
    assert not np.isnan(np.delete(s.mean, absent)).any()
    path = tmp_path / "store.json"
    s.save(path)
    loaded = MetadataStore.load(path)
    assert loaded.to_json() == s.to_json()
    assert loaded.to_json()["normalization"]["mean"][absent] is None


@pytest.mark.parametrize("field", ["normalization_mean", "format_version"])
def test_tampered_store_is_rejected(tmp_path, store, field):
    doc = store.to_json()
    if field == "format_version":
        doc["format_version"] = "0"
    else:
        doc["normalization"]["mean"][0] += 1e-3
    path = tmp_path / "store.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MetaStoreError):
        MetadataStore.load(path)


def test_warm_start_orders_per_dataset_and_pooled(store, query):
    assert [i for i, _ in rank_records(store, query)] == [0, 1, 2]

    def texts(**kw):
        return [serialize(p) for p in warm_start_candidates(store, query, **kw)]

    assert texts(m=3) == [NB, TOMEK_NB, KNN]
    assert texts(m=3, per_dataset=False) == [NB, KNN, SMOTE_NB]
    # duplicates of NB are skipped, so only four distinct texts exist
    assert texts(m=10) == [NB, TOMEK_NB, KNN, SMOTE_NB]
    assert texts(m=10, per_dataset=False) == [NB, KNN, SMOTE_NB, TOMEK_NB]


def _sparse(**coords) -> MetaFeatureVector:
    """A vector holding ``coords`` (feature j as ``fj``), every other feature
    unavailable."""
    values = [None] * len(FEATURE_NAMES)
    for name, v in coords.items():
        values[int(name[1:])] = v
    return MetaFeatureVector(tuple(values))


@pytest.fixture
def small_store() -> MetadataStore:
    """Features 0-3 have store mean 1, 2, 5, 2 and std 1, 1, 0, 2."""
    s = MetadataStore()
    for name, vec in (("r1", _sparse(f0=0, f1=1, f2=5, f3=0)),
                      ("r2", _sparse(f0=2, f1=3, f2=5, f3=4))):
        s.insert(MetaRecord(name, vec, (StoredPipeline(NB, "balanced_accuracy", 0.8),)))
    return s


def test_similarity_by_hand_in_both_modes(small_store):
    a = _sparse(f0=3, f2=4, f3=6)  # feature 1 unavailable
    b = _sparse(f0=0, f1=2, f2=3, f3=6)
    # raw: features 0, 2, 3, so (3, 4, 6).(0, 3, 6) / (sqrt 61 sqrt 45)
    assert similarity(a, b, small_store, "raw") == pytest.approx(48 / np.sqrt(61 * 45))
    # standardized: feature 2 has zero spread, so features 0 and 3 remain,
    # (2, 2).(-1, 2) / (sqrt 8 sqrt 5)
    assert similarity(a, b, small_store) == pytest.approx(2 / np.sqrt(40))
    # r1 (0, 5, 0) against a: 20 / (5 sqrt 61); r2 (2, 5, 4): 50 / sqrt(45 * 61)
    ranked = rank_records(small_store, a, mode="raw")
    assert [i for i, _ in ranked] == [1, 0]
    assert [s for _, s in ranked] == pytest.approx([50 / np.sqrt(45 * 61), 4 / np.sqrt(61)])


def test_similarity_errors(small_store):
    a = _sparse(f0=3, f2=4)
    with pytest.raises(MetaStoreError, match="no shared available coordinates"):
        similarity(a, _sparse(f1=2), small_store, "raw")
    # feature 2 is shared, but its zero spread leaves nothing to standardize
    with pytest.raises(MetaStoreError, match="no shared available coordinates"):
        similarity(_sparse(f2=4), _sparse(f2=3), small_store)
    with pytest.raises(MetaStoreError, match="unknown similarity mode 'cosine'"):
        similarity(a, a, small_store, "cosine")


def test_extract_metafeatures_is_deterministic():
    d = make_dataset({0: 40, 1: 10}, seed=3, d=3)
    first = extract_metafeatures(d, Rng(5))
    again = extract_metafeatures(d, Rng(5))
    assert len(first.values) == len(FEATURE_NAMES) == 36
    assert np.array_equal(first.as_arrays()[0], again.as_arrays()[0], equal_nan=True)
    assert first.get("MajorityClassSize") == 40.0
    with pytest.raises(DataError):
        extract_metafeatures(make_dataset({0: 2, 1: 1}), Rng(5))


def loop_average_ranks(x):
    """Average ranks one run of equal values at a time: the oracle."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    xs = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and xs[j + 1] == xs[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def loop_mutual_information(a, b):
    """Joint counts from a dict of pairs, in first-appearance order: the oracle."""
    joint = {}
    for pair in zip(a.tolist(), b.tolist()):
        joint[pair] = joint.get(pair, 0) + 1
    h_joint = _entropy_bits(np.array(list(joint.values())))
    h_a = _entropy_bits(np.bincount(a - a.min()))
    h_b = _entropy_bits(np.bincount(b - b.min()))
    return max(0.0, h_a + h_b - h_joint)


@pytest.mark.parametrize("seed", range(12))
def test_ranks_and_mutual_information_match_the_loop_versions(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 3000))
    x = rng.integers(-3, int(rng.integers(1, 40)), size=n).astype(np.float64)
    if seed % 3 == 0:
        x = x / 7.0
        x[rng.random(n) < 0.05] = -0.0
    if seed % 4 == 1:
        x[rng.random(n) < 0.05] = np.nan
    assert _average_ranks(x).tobytes() == loop_average_ranks(x).tobytes()
    a = rng.integers(-2, int(rng.integers(1, 12)), size=n)
    b = rng.integers(0, int(rng.integers(1, 10)), size=n)
    got = _mutual_information(a, b)
    assert np.float64(got).tobytes() == np.float64(loop_mutual_information(a, b)).tobytes()
