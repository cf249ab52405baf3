"""Persisted metadata store and similarity-based warm-start retrieval.

Stored pipelines are texts over ``DEFAULT_SPACE``. Meta-feature vectors are
standardized by the store's per-feature statistics (over the records that
have the feature; NaN where none has it) before the cosine is taken (raw
magnitudes differ by orders of magnitude); ``mode="raw"`` preserves plain
cosine for comparison. Retrieval ranks records by similarity (ties by
insertion order) and takes the best pipeline of each of the top-m records,
falling back round-robin to next-best pipelines when the store holds fewer
records than requested.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .components import DEFAULT_SPACE
from .io import atomic_write_bytes
from .metafeatures import FEATURE_NAMES, SCHEMA_VERSION, MetaFeatureVector
from .pipeline import Pipeline, parse

STORE_FORMAT_VERSION = "1"


class MetaStoreError(ValueError):
    pass


@dataclass(frozen=True)
class StoredPipeline:
    text: str
    metric: str
    score: float


@dataclass(frozen=True)
class MetaRecord:
    dataset_name: str
    features: MetaFeatureVector
    pipelines: tuple[StoredPipeline, ...]


class MetadataStore:
    def __init__(self):
        self.records: list[MetaRecord] = []
        self._recompute()

    def __len__(self) -> int:
        return len(self.records)

    def insert(self, record: MetaRecord) -> None:
        """Validate (pipelines parse, scores in [0, 1]) and renormalize."""
        for sp in record.pipelines:
            if not 0.0 <= sp.score <= 1.0:
                raise MetaStoreError(
                    f"score {sp.score} outside [0, 1] for {record.dataset_name}")
            parse(sp.text, DEFAULT_SPACE)
        ordered = tuple(sorted(record.pipelines, key=lambda sp: -sp.score))
        self.records.append(MetaRecord(record.dataset_name, record.features, ordered))
        self._recompute()

    def _recompute(self) -> None:
        matrix = np.full((len(self.records), len(FEATURE_NAMES)), np.nan)
        for i, rec in enumerate(self.records):
            vals, mask = rec.features.as_arrays()
            matrix[i, mask] = vals[mask]
        # only columns some record has: an all-NaN column would make
        # nanmean and nanstd warn
        has = ~np.isnan(matrix).all(axis=0)
        self.mean = np.full(len(FEATURE_NAMES), np.nan)
        self.std = np.full(len(FEATURE_NAMES), np.nan)
        self.mean[has] = np.nanmean(matrix[:, has], axis=0)
        self.std[has] = np.nanstd(matrix[:, has], axis=0)

    def to_json(self) -> dict:
        return {
            "format_version": STORE_FORMAT_VERSION,
            "schema_version": SCHEMA_VERSION,
            "feature_names": list(FEATURE_NAMES),
            "normalization": {
                "mean": [None if np.isnan(v) else float(v) for v in self.mean],
                "std": [None if np.isnan(v) else float(v) for v in self.std],
            },
            "records": [
                {
                    "dataset": rec.dataset_name,
                    "metafeatures": rec.features.to_dict(),
                    "pipelines": [
                        {"pipeline": sp.text, "metric": sp.metric, "score": sp.score}
                        for sp in rec.pipelines
                    ],
                }
                for rec in self.records
            ],
        }

    def save(self, path) -> None:
        atomic_write_bytes(path, json.dumps(self.to_json(), indent=1).encode("utf-8"))

    @classmethod
    def load(cls, path) -> "MetadataStore":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format_version") != STORE_FORMAT_VERSION:
            raise MetaStoreError(
                f"store format version {doc.get('format_version')!r} needs migration")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise MetaStoreError(
                f"meta-feature schema {doc.get('schema_version')!r} does not match "
                f"{SCHEMA_VERSION}; rebuild or migrate the store")
        store = cls()
        for rec in doc.get("records", []):
            store.insert(MetaRecord(
                rec["dataset"],
                MetaFeatureVector.from_dict(rec["metafeatures"]),
                tuple(StoredPipeline(p["pipeline"], p["metric"], float(p["score"]))
                      for p in rec["pipelines"])))
        stored_mean = doc.get("normalization", {}).get("mean")
        if stored_mean is not None and len(store):
            recomputed = [None if np.isnan(v) else float(v) for v in store.mean]
            for a, b in zip(stored_mean, recomputed):
                if (a is None) != (b is None) or (a is not None and abs(a - b) > 1e-9):
                    raise MetaStoreError("store normalization statistics inconsistent "
                                         "with records")
        return store


def _standardized(vec: MetaFeatureVector, store: MetadataStore):
    vals, mask = vec.as_arrays()
    usable = mask & ~np.isnan(store.mean) & ~np.isnan(store.std) & (store.std > 0)
    out = np.zeros_like(vals)
    out[usable] = (vals[usable] - store.mean[usable]) / store.std[usable]
    return out, usable


def similarity(a: MetaFeatureVector, b: MetaFeatureVector, store: MetadataStore,
               mode: str = "standardized") -> float:
    """Cosine similarity over the coordinates available in both vectors."""
    if mode not in ("standardized", "raw"):
        raise MetaStoreError(f"unknown similarity mode '{mode}'")
    if mode == "standardized":
        va, ma = _standardized(a, store)
        vb, mb = _standardized(b, store)
    else:
        va, ma = a.as_arrays()
        vb, mb = b.as_arrays()
    shared = ma & mb
    if not shared.any():
        raise MetaStoreError("no shared available coordinates")
    xa, xb = va[shared], vb[shared]
    na, nb = np.sqrt((xa ** 2).sum()), np.sqrt((xb ** 2).sum())
    if na == 0 or nb == 0:
        return 0.0
    return float(np.clip((xa * xb).sum() / (na * nb), -1.0, 1.0))


def rank_records(store: MetadataStore, query: MetaFeatureVector,
                 mode: str = "standardized") -> list[tuple[int, float]]:
    """Record indices sorted by similarity descending, ties by insertion order."""
    sims = []
    for i, rec in enumerate(store.records):
        try:
            s = similarity(query, rec.features, store, mode)
        except MetaStoreError:
            s = 0.0
        sims.append((i, s))
    return sorted(sims, key=lambda t: (-t[1], t[0]))


def warm_start_candidates(store: MetadataStore, query: MetaFeatureVector,
                          m: int = 10, per_dataset: bool = True,
                          mode: str = "standardized") -> list[Pipeline]:
    """Up to m pipelines, parsed over ``DEFAULT_SPACE``, to seed a search with.

    ``per_dataset=True`` (default) takes the single best pipeline from each
    of the top-m most similar records, then next-best round-robin if the
    store is smaller than m. ``per_dataset=False`` drains the most similar
    records in order instead. Duplicate pipeline texts are skipped.
    """
    if m < 1:
        raise MetaStoreError("m must be >= 1")
    if not store.records:
        raise MetaStoreError("empty metadata store")
    ranked = rank_records(store, query, mode)
    picks: list[str] = []
    seen: set[str] = set()

    def take(text: str) -> bool:
        if text in seen:
            return False
        seen.add(text)
        picks.append(text)
        return len(picks) >= m

    if per_dataset:
        top = ranked[:m]
        depth = 0
        while len(picks) < m:
            advanced = False
            for idx, _ in top:
                plist = store.records[idx].pipelines
                if depth < len(plist):
                    advanced = True
                    if take(plist[depth].text):
                        break
            if not advanced:
                break
            depth += 1
    else:
        for idx, _ in ranked:
            for sp in store.records[idx].pipelines:
                if take(sp.text):
                    break
            if len(picks) >= m:
                break
    return [parse(t, DEFAULT_SPACE) for t in picks]
