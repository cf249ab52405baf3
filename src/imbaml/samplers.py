"""Resampling algorithms: SMOTE family oversampling, neighbourhood-based
undersampling, and their combinations.

Conventions shared by every sampler:

* distances are Euclidean on the coded feature space, no extra scaling
  (scaling belongs to pipeline preprocessors);
* neighbour ties break on (distance, lower row index);
* multiclass policy: oversamplers raise every non-majority class to the
  majority count; undersamplers edit only classes above the minimum count;
* surviving original rows are bit-identical to the input and keep their
  relative order; synthetic rows are appended grouped by class code.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, class_distribution
from .neighbors import NeighborIndex
from .rng import Rng
from .space import ComponentConfig, SAMPLER, DomainError


class SamplerError(ValueError):
    pass


def _class_rows(labels: np.ndarray) -> dict[int, np.ndarray]:
    return {int(c): np.flatnonzero(labels == c) for c in sorted(set(labels.tolist()))}


def _require_resampleable(d: Dataset, need_pairs: bool) -> dict[int, np.ndarray]:
    rows = _class_rows(d.labels)
    if len(rows) < 2:
        raise SamplerError("resampling needs at least 2 classes")
    if need_pairs and min(len(v) for v in rows.values()) < 2:
        raise SamplerError("minority class needs at least 2 samples")
    return rows


def _editable_classes(labels: np.ndarray) -> set[int]:
    """Classes an undersampler may shrink: those above the minimum count."""
    rows = _class_rows(labels)
    low = min(len(v) for v in rows.values())
    return {c for c, v in rows.items() if len(v) > low}


def _append_synthetic(d: Dataset, synth_X, synth_y, note=None) -> Dataset:
    if not synth_X:
        return d
    X = np.vstack([d.features] + synth_X)
    y = np.concatenate([d.labels] + synth_y)
    return d.with_data(X, y, note)


def _interpolate(base_pts, target_pts, u) -> np.ndarray:
    return base_pts + u[:, None] * (target_pts - base_pts)


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer quotas proportional to weights, summing exactly to total."""
    raw = weights * total
    quota = np.floor(raw).astype(np.int64)
    short = total - int(quota.sum())
    if short > 0:
        frac = raw - quota
        # ties go to the lower index
        order = np.lexsort((np.arange(len(frac)), -frac))
        quota[order[:short]] += 1
    return quota


def _smote_class(Xc: np.ndarray, k: int, count: int, rng: Rng,
                 base_choice=None, deadline=None) -> np.ndarray:
    """``count`` synthetics for one class: x + u * (z - x), z among the k
    nearest same-class neighbours of x, u uniform in [0, 1)."""
    if len(Xc) < 2:
        raise SamplerError("minority class needs at least 2 samples")
    kc = min(k, len(Xc) - 1)
    neigh = NeighborIndex(Xc).query_batch(Xc, kc, exclude_self=True, deadline=deadline)
    if base_choice is None:
        base = rng.np.integers(0, len(Xc), size=count)
    else:
        base = base_choice
    pick = rng.np.integers(0, kc, size=count)
    u = rng.np.random(count)
    return _interpolate(Xc[base], Xc[neigh[base, pick]], u)


def _other_class_neighbours(d: Dataset, idx: np.ndarray, c: int, m: int,
                            index: NeighborIndex, deadline=None):
    """Neighbour rows of class-``c`` rows ``idx`` among all of ``d``, the mask
    of those in another class, and per row how many of its first m neighbours
    other than itself are in another class.

    Each query row sits in the reference set, so m + 1 neighbours are fetched
    (the row itself may be absent when lower-index duplicates crowd it out).
    """
    neigh = index.query_batch(d.features[idx], min(m + 1, d.n), deadline=deadline)
    not_self = neigh != idx[:, None]
    other = d.labels[neigh] != c
    counts = (other & (np.cumsum(not_self, axis=1) <= m)).sum(axis=1)
    return neigh, other, counts


def smote(d: Dataset, k: int, rng: Rng, deadline=None) -> Dataset:
    """Oversample every deficient class up to the majority count."""
    if k < 1:
        raise SamplerError("k must be >= 1")
    rows = _require_resampleable(d, need_pairs=True)
    majority = max(len(v) for v in rows.values())
    synth_X, synth_y = [], []
    for c, idx in rows.items():
        deficit = majority - len(idx)
        if deficit == 0:
            continue
        synth_X.append(_smote_class(d.features[idx], k, deficit, rng, deadline=deadline))
        synth_y.append(np.full(deficit, c, dtype=np.int64))
    return _append_synthetic(d, synth_X, synth_y)


def borderline_smote(d: Dataset, k: int, m: int, kind: str, rng: Rng,
                     deadline=None) -> Dataset:
    """SMOTE restricted to borderline minority points.

    A point of a deficient class is in the DANGER set when at least half but
    not all of its m nearest all-class neighbours belong to other classes.
    borderline-1 interpolates toward same-class neighbours (u in [0,1));
    borderline-2 may instead step toward an other-class neighbour with
    u in [0,0.5). A class with an empty DANGER set falls back to plain SMOTE,
    recorded in the output provenance.
    """
    if k < 1 or m < 1:
        raise SamplerError("k and m must be >= 1")
    if kind not in ("borderline-1", "borderline-2"):
        raise SamplerError(f"unknown kind {kind!r}")
    rows = _require_resampleable(d, need_pairs=True)
    majority = max(len(v) for v in rows.values())
    index_all = NeighborIndex(d.features)
    m_eff = min(m, d.n - 1)
    synth_X, synth_y, notes = [], [], []
    for c, idx in rows.items():
        deficit = majority - len(idx)
        if deficit == 0:
            continue
        Xc = d.features[idx]
        neigh_all, other_mask, other = _other_class_neighbours(
            d, idx, c, m_eff, index_all, deadline)
        danger = np.flatnonzero((other * 2 >= m_eff) & (other < m_eff))
        if danger.size == 0:
            synth_X.append(_smote_class(Xc, k, deficit, rng, deadline=deadline))
            notes.append(f"borderline_fallback_smote:{c}")
        else:
            kc = min(k, len(Xc) - 1)
            neigh_same = NeighborIndex(Xc).query_batch(Xc, kc, exclude_self=True,
                                                       deadline=deadline)
            base_local = danger[rng.np.integers(0, danger.size, size=deficit)]
            if kind == "borderline-1":
                pick = rng.np.integers(0, kc, size=deficit)
                u = rng.np.random(deficit)
                target = Xc[neigh_same[base_local, pick]]
            else:
                toward_other = rng.np.random(deficit) < 0.5
                pick = rng.np.integers(0, kc, size=deficit)
                target = Xc[neigh_same[base_local, pick]]
                u = rng.np.random(deficit)
                # other-class rows among all m + 1 fetched neighbours
                for t in np.flatnonzero(toward_other):
                    nb = neigh_all[base_local[t]][other_mask[base_local[t]]]
                    if nb.size:
                        choice = nb[int(rng.np.integers(nb.size))]
                        target[t] = d.features[choice]
                        u[t] = u[t] * 0.5
            synth_X.append(_interpolate(Xc[base_local], target, u))
        synth_y.append(np.full(deficit, c, dtype=np.int64))
    note = ";".join(notes) if notes else None
    return _append_synthetic(d, synth_X, synth_y, note)


def adasyn(d: Dataset, k: int, rng: Rng, deadline=None) -> Dataset:
    """Density-adaptive SMOTE: per-point quotas follow the share of other-class
    neighbours, apportioned by largest remainder so they sum exactly to the
    deficit."""
    if k < 1:
        raise SamplerError("k must be >= 1")
    rows = _require_resampleable(d, need_pairs=True)
    majority = max(len(v) for v in rows.values())
    index_all = NeighborIndex(d.features)
    k_all = min(k, d.n - 1)
    synth_X, synth_y, notes = [], [], []
    for c, idx in rows.items():
        deficit = majority - len(idx)
        if deficit == 0:
            continue
        Xc = d.features[idx]
        _, _, other = _other_class_neighbours(d, idx, c, k_all, index_all, deadline)
        r = other / k_all
        if r.sum() == 0:
            synth_X.append(_smote_class(Xc, k, deficit, rng, deadline=deadline))
            notes.append(f"adasyn_fallback_smote:{c}")
        else:
            quota = _largest_remainder(r / r.sum(), deficit)
            base = np.repeat(np.arange(len(idx)), quota)
            synth_X.append(_smote_class(Xc, k, deficit, rng, base_choice=base,
                                        deadline=deadline))
        synth_y.append(np.full(deficit, c, dtype=np.int64))
    note = ";".join(notes) if notes else None
    return _append_synthetic(d, synth_X, synth_y, note)


def _knn_vote(labels: np.ndarray, neigh: np.ndarray, n_classes: int) -> np.ndarray:
    """Modal label among each row's neighbours; ties go to the lower class code."""
    votes = np.zeros((neigh.shape[0], n_classes), dtype=np.int64)
    for col in range(neigh.shape[1]):
        np.add.at(votes, (np.arange(neigh.shape[0]), labels[neigh[:, col]]), 1)
    return votes.argmax(axis=1)


def _enn_removals(d: Dataset, k: int, editable: set[int], deadline=None) -> np.ndarray:
    """Single-pass ENN rule: editable-class rows whose k-neighbour vote disagrees."""
    k_eff = min(k, d.n - 1)
    neigh = NeighborIndex(d.features).query_batch(d.features, k_eff, exclude_self=True,
                                                  deadline=deadline)
    votes = _knn_vote(d.labels, neigh, len(d.label_names))
    mask = np.zeros(d.n, dtype=bool)
    for c in editable:
        mask |= (d.labels == c) & (votes != d.labels)
    return np.flatnonzero(mask)


def enn(d: Dataset, k: int, deadline=None) -> Dataset:
    """Edited nearest neighbours: drop majority-side points whose neighbourhood
    vote disagrees with their label; minimum-count classes are never edited."""
    if k < 1:
        raise SamplerError("k must be >= 1")
    _require_resampleable(d, need_pairs=False)
    removals = _enn_removals(d, k, _editable_classes(d.labels), deadline)
    if removals.size == 0:
        return d
    keep = np.setdiff1d(np.arange(d.n), removals)
    return d.subset(keep)


def all_knn(d: Dataset, k_max: int, deadline=None) -> Dataset:
    """Apply ENN for k = 1..k_max on the progressively edited set, stopping
    before any class would be emptied."""
    if k_max < 1:
        raise SamplerError("k_max must be >= 1")
    _require_resampleable(d, need_pairs=False)
    current = d
    for k in range(1, k_max + 1):
        removals = _enn_removals(current, k, _editable_classes(current.labels), deadline)
        if removals.size == 0:
            continue
        keep = np.setdiff1d(np.arange(current.n), removals)
        kept_classes = set(current.labels[keep].tolist())
        if kept_classes != set(current.labels.tolist()):
            break
        current = current.subset(keep)
    return current


def _merge_members(near_d: np.ndarray, near_r: np.ndarray, cand_d: np.ndarray,
                   cand_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge candidate members into every row's nearest-member table.

    ``near_d``/``near_r`` hold each row's k nearest (squared distance, member
    row) pairs in (distance, row) order; ``cand_d``/``cand_r`` hold the
    candidates' pairs, one column per candidate. Returns the merged tables.
    """
    all_d = np.hstack([near_d, cand_d])
    all_r = np.hstack([near_r, cand_r])
    keep = np.lexsort((all_r, all_d), axis=1)[:, :near_d.shape[1]]
    return np.take_along_axis(all_d, keep, axis=1), np.take_along_axis(all_r, keep, axis=1)


def _insert_member(near_d: np.ndarray, near_r: np.ndarray, col: np.ndarray, j: int):
    """Insert one member ``j``, at squared distances ``col``, into the tables.

    Only rows whose k-th entry ``j`` beats change: their entries from ``j``'s
    place on shift one slot right. Cheaper than ``_merge_members`` for a
    single candidate, which matters while the store is smaller than k and
    every row changes.
    """
    last_d, last_r = near_d[:, -1], near_r[:, -1]
    rows = np.flatnonzero((col < last_d) | ((col == last_d) & (j < last_r)))
    sub_d, sub_r, c = near_d[rows], near_r[rows], col[rows, None]
    before = (sub_d < c) | ((sub_d == c) & (sub_r < j))  # a prefix of each row
    at = np.arange(near_d.shape[1]) == before.sum(axis=1, keepdims=True)
    for table, sub, new in ((near_d, sub_d, c), (near_r, sub_r, j)):
        shifted = np.concatenate([sub[:, :1], sub[:, :-1]], axis=1)
        table[rows] = np.where(before, sub, np.where(at, new, shifted))


def cnn(d: Dataset, k: int, rng: Rng, deadline=None) -> Dataset:
    """Condensed nearest neighbours.

    The store starts with every minimum-count-class sample plus one random
    seed per editable class; remaining editable samples are visited in rng
    order and added when the store's k-NN vote misclassifies them, repeating
    passes until a full pass adds nothing. The vote uses the k nearest store
    members in (squared distance, row) order.
    """
    if k < 1:
        raise SamplerError("k must be >= 1")
    rows = _require_resampleable(d, need_pairs=False)
    editable = _editable_classes(d.labels)
    store = [int(i) for c, idx in rows.items() if c not in editable for i in idx]
    pool = []
    for c in sorted(editable):
        idx = rows[c]
        seed_pos = int(rng.np.integers(idx.size))
        store.append(int(idx[seed_pos]))
        pool.extend(int(i) for p, i in enumerate(idx) if p != seed_pos)
    order = [pool[int(i)] for i in rng.np.permutation(len(pool))]

    # per row, its k nearest store members; every member beats an empty
    # (inf, d.n) slot, since features are finite and no distance is NaN
    X = d.features
    near_d = np.full((d.n, min(k, d.n)), np.inf)
    near_r = np.full(near_d.shape, d.n, dtype=np.int64)
    for s in range(0, len(store), 64):  # 64 members at a time bounds the working set
        js = np.array(store[s:s + 64])
        block = np.stack([((X - X[j]) ** 2).sum(axis=1) for j in js], axis=1)
        near_d, near_r = _merge_members(near_d, near_r, block,
                                        np.broadcast_to(js, block.shape))
    n_store = len(store)
    in_store = set(store)
    changed = True
    while changed:
        changed = False
        for i in order:
            if i in in_store:
                continue
            counts = np.bincount(d.labels[near_r[i, :min(k, n_store)]],
                                 minlength=len(d.label_names))
            if counts.argmax() != d.labels[i]:
                if deadline is not None:
                    deadline.check()
                _insert_member(near_d, near_r, ((X - X[i]) ** 2).sum(axis=1), i)
                n_store += 1
                in_store.add(i)
                changed = True
    keep = np.fromiter(in_store, dtype=np.int64)
    keep.sort()
    return d.subset(keep)


def _kmeans(X: np.ndarray, k: int, rng: Rng, max_iter: int = 300, deadline=None):
    """Lloyd's algorithm seeded with k distinct rows (padded with duplicates
    when there are fewer distinct points than clusters)."""
    uniq = np.unique(X, axis=0)
    if len(uniq) >= k:
        pick = rng.np.choice(len(uniq), size=k, replace=False)
        centroids = uniq[np.sort(pick)].copy()
    else:
        reps = [uniq[i % len(uniq)] for i in range(k)]
        centroids = np.array(reps)
    assign = None
    for _ in range(max_iter):
        if deadline is not None:
            deadline.check()
        d2 = NeighborIndex(centroids).distances(X)
        new_assign = d2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = X[assign == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return centroids, assign


def cluster_centroids(d: Dataset, voting: str, rng: Rng, deadline=None) -> Dataset:
    """Shrink each over-represented class to the minimum count via k-means;
    soft/auto emit the centroids, hard the nearest real sample to each."""
    if voting not in ("auto", "hard", "soft"):
        raise SamplerError(f"unknown voting {voting!r}")
    rows = _require_resampleable(d, need_pairs=False)
    editable = _editable_classes(d.labels)
    low = min(len(v) for v in rows.values())
    keep_idx = [i for c, idx in rows.items() if c not in editable for i in idx]
    keep_idx.sort()
    parts_X = [d.features[keep_idx]]
    parts_y = [d.labels[keep_idx]]
    for c in sorted(editable):
        Xc = d.features[rows[c]]
        centroids, _ = _kmeans(Xc, low, rng.child(c), deadline=deadline)
        if voting == "hard":
            nearest = NeighborIndex(Xc).query_batch(centroids, 1)[:, 0]
            out = Xc[nearest]
        else:
            out = centroids
        parts_X.append(out)
        parts_y.append(np.full(low, c, dtype=np.int64))
    return d.with_data(np.vstack(parts_X), np.concatenate(parts_y))


def _tomek_removals(d: Dataset, editable: set[int], deadline=None) -> np.ndarray:
    nn1 = NeighborIndex(d.features).query_batch(d.features, 1, exclude_self=True,
                                                deadline=deadline)[:, 0]
    a = np.arange(d.n)
    linked = (nn1[nn1] == a) & (d.labels != d.labels[nn1])
    mask = linked & np.isin(d.labels, sorted(editable))
    return np.flatnonzero(mask)


def tomek_links(d: Dataset, deadline=None) -> Dataset:
    """Remove the editable-class member of every mutual-1-NN opposite-class pair."""
    _require_resampleable(d, need_pairs=False)
    removals = _tomek_removals(d, _editable_classes(d.labels), deadline)
    if removals.size == 0:
        return d
    return d.subset(np.setdiff1d(np.arange(d.n), removals))


def _original_minority(d: Dataset) -> set[int]:
    dist = class_distribution(d)
    return set(dist.minority_classes())


def smote_enn(d: Dataset, strategy: str, k_smote: int, k_enn: int, rng: Rng,
              deadline=None) -> Dataset:
    """SMOTE then ENN editing; the strategy picks which classes ENN may touch
    relative to the *original* distribution: auto edits all non-minority
    classes, minority only the minority side, all every class.

    The registry's SMOTEENN entry fixes ``k_smote`` and ``k_enn`` at 5 and 5,
    imbalanced-learn's defaults; neither is a searched hyperparameter."""
    if strategy not in ("auto", "minority", "all"):
        raise SamplerError(f"unknown sampling_strategy {strategy!r}")
    minority = _original_minority(d)
    over = smote(d, k_smote, rng, deadline)
    all_classes = set(over.labels.tolist())
    if strategy == "auto":
        editable = all_classes - minority
    elif strategy == "minority":
        editable = minority
    else:
        editable = all_classes
    removals = _enn_removals(over, k_enn, editable, deadline)
    if removals.size == 0:
        return over
    return over.subset(np.setdiff1d(np.arange(over.n), removals))


def smote_tomek(d: Dataset, k_smote: int, rng: Rng, deadline=None) -> Dataset:
    """SMOTE then Tomek-link cleaning of the originally non-minority classes."""
    minority = _original_minority(d)
    over = smote(d, k_smote, rng, deadline)
    editable = set(over.labels.tolist()) - minority
    removals = _tomek_removals(over, editable, deadline)
    if removals.size == 0:
        return over
    return over.subset(np.setdiff1d(np.arange(over.n), removals))


def apply_sampler(config: ComponentConfig, d: Dataset, rng: Rng, deadline=None) -> Dataset:
    """Run a validated sampler configuration through its spec's builder.

    Requires >= 2 classes and a minority of >= 2 samples; the output keeps
    the input's column metadata and label dictionary. ``deadline``, when
    given, is checked inside the sampler's neighbour queries and loops.
    """
    if config.category != SAMPLER:
        raise DomainError(f"{config.name} is not a sampler")
    _require_resampleable(d, need_pairs=True)
    return config.instantiate()(d, rng, deadline)
