"""Resampling algorithms: SMOTE family oversampling, neighbourhood-based
undersampling, and their combinations.

Conventions shared by every sampler:

* distances are Euclidean on the coded feature space, no extra scaling
  (scaling belongs to pipeline preprocessors);
* neighbour ties break on (distance, lower row index);
* a row is never its own neighbour, also when squared distances overflow
  to inf and tie with it;
* the exact k-NN queries of ENN, AllKNN, Tomek links, the DANGER and
  density counts of Borderline-SMOTE and ADASYN, and the same-class
  neighbours of every SMOTE step go through ``_nearest``, which queries
  the dataset's ``neighbours`` view, or a new view for that one call. CNN
  (whose store depends on the rng) and ClusterCentroids' k-means query a
  ``NeighborIndex`` of their own;
* multiclass policy: oversamplers raise every non-majority class to the
  majority count; undersamplers edit only classes above the minimum count;
* surviving original rows are bit-identical to the input and keep their
  relative order; synthetic rows are appended grouped by class code.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, _class_rows, class_distribution
from .neighbors import NeighborGraphs, NeighborIndex, _squared_sums, _vote_counts, _without_self
from .rng import Rng
from .space import ComponentConfig, SAMPLER, DomainError


class SamplerError(ValueError):
    pass


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


def _nearest(d: Dataset, k: int, members=None, c: int | None = None,
             include_self: bool = False, deadline=None) -> np.ndarray:
    """``NeighborGraphs.query`` of ``d``'s view, or of a new view of its
    rows when it carries none."""
    return (d.neighbours or NeighborGraphs(d.features, d.labels)).query(
        k, c, members, include_self, deadline)


def _smote_class(d: Dataset, c: int, k: int, count: int, rng: Rng,
                 base_choice=None, deadline=None) -> np.ndarray:
    """``count`` synthetics for class ``c``: x + u * (z - x), z among the k
    nearest same-class neighbours of x, u uniform in [0, 1)."""
    Xc = d.features[d.labels == c]
    if len(Xc) < 2:
        raise SamplerError("minority class needs at least 2 samples")
    kc = min(k, len(Xc) - 1)
    neigh = _nearest(d, kc, c=c, deadline=deadline)
    if base_choice is None:
        base = rng.np.integers(0, len(Xc), size=count)
    else:
        base = base_choice
    pick = rng.np.integers(0, kc, size=count)
    u = rng.np.random(count)
    return _interpolate(Xc[base], Xc[neigh[base, pick]], u)


def _other_class_neighbours(d: Dataset, idx: np.ndarray, c: int, m: int, deadline=None):
    """Neighbour rows of class-``c`` rows ``idx`` among all of ``d``, the mask
    of those in another class, and per row how many of its first m neighbours
    other than itself are in another class.

    Each query row sits in the reference set, so m + 1 neighbours are fetched
    with the row itself among them (it may be absent when lower-index
    duplicates crowd it out), and the counts are over ``_without_self`` of
    them.
    """
    neigh = _nearest(d, m + 1, members=idx, include_self=True, deadline=deadline)
    counts = (d.labels[_without_self(neigh, idx)] != c).sum(axis=1)
    return neigh, d.labels[neigh] != c, counts


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
        synth_X.append(_smote_class(d, c, k, deficit, rng, deadline=deadline))
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
    m_eff = min(m, d.n - 1)
    synth_X, synth_y, notes = [], [], []
    for c, idx in rows.items():
        deficit = majority - len(idx)
        if deficit == 0:
            continue
        Xc = d.features[idx]
        neigh_all, other_mask, other = _other_class_neighbours(d, idx, c, m_eff, deadline)
        danger = np.flatnonzero((other * 2 >= m_eff) & (other < m_eff))
        if danger.size == 0:
            synth_X.append(_smote_class(d, c, k, deficit, rng, deadline=deadline))
            notes.append(f"borderline_fallback_smote:{c}")
        else:
            kc = min(k, len(Xc) - 1)
            neigh_same = _nearest(d, kc, c=c, deadline=deadline)
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
    k_all = min(k, d.n - 1)
    synth_X, synth_y, notes = [], [], []
    for c, idx in rows.items():
        deficit = majority - len(idx)
        if deficit == 0:
            continue
        _, _, other = _other_class_neighbours(d, idx, c, k_all, deadline)
        r = other / k_all
        if r.sum() == 0:
            synth_X.append(_smote_class(d, c, k, deficit, rng, deadline=deadline))
            notes.append(f"adasyn_fallback_smote:{c}")
        else:
            quota = _largest_remainder(r / r.sum(), deficit)
            base = np.repeat(np.arange(len(idx)), quota)
            synth_X.append(_smote_class(d, c, k, deficit, rng, base_choice=base,
                                        deadline=deadline))
        synth_y.append(np.full(deficit, c, dtype=np.int64))
    note = ";".join(notes) if notes else None
    return _append_synthetic(d, synth_X, synth_y, note)


def _drop_rows(d: Dataset, removals: np.ndarray) -> Dataset:
    """``d`` without the rows ``removals``; ``d`` itself when there are none."""
    if removals.size == 0:
        return d
    return d.subset(np.setdiff1d(np.arange(d.n), removals))


def _enn_removals(d: Dataset, neigh: np.ndarray, editable: set[int]) -> np.ndarray:
    """Single-pass ENN rule: editable-class rows whose vote over ``neigh`` disagrees."""
    votes = _vote_counts(d.labels[neigh], len(d.label_names)).argmax(axis=1)
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
    return _drop_rows(d, _enn_removals(d, _nearest(d, k, deadline=deadline),
                                       _editable_classes(d.labels)))


def all_knn(d: Dataset, k_max: int, deadline=None) -> Dataset:
    """Apply ENN for k = 1..k_max on the progressively edited set, stopping
    before any class would be emptied.

    Each edited set is queried once, for k_max neighbours: the first k
    columns of that (distance, index)-ordered table are its k-neighbour
    table, so a k that removes nothing needs no new query.
    """
    if k_max < 1:
        raise SamplerError("k_max must be >= 1")
    _require_resampleable(d, need_pairs=False)
    current = d
    neigh = _nearest(current, k_max, deadline=deadline)
    for k in range(1, k_max + 1):
        removals = _enn_removals(current, neigh[:, :k], _editable_classes(current.labels))
        if removals.size == 0:
            continue
        keep = np.setdiff1d(np.arange(current.n), removals)
        kept_classes = set(current.labels[keep].tolist())
        if kept_classes != set(current.labels.tolist()):
            break
        current = current.subset(keep)
        if k < k_max:
            neigh = _nearest(current, k_max, deadline=deadline)
    return current


def _farthest(near_d: np.ndarray, near_r: np.ndarray) -> np.ndarray:
    """Slot of each row's farthest member: its largest (squared distance, row)."""
    far = near_d.max(axis=1, keepdims=True)
    return np.where(near_d == far, near_r, -1).argmax(axis=1)


def cnn(d: Dataset, k: int, rng: Rng, deadline=None) -> Dataset:
    """Condensed nearest neighbours (Hart 1968).

    The store starts with every minimum-count-class sample plus one random
    seed per editable class; remaining editable samples are visited in rng
    order and added when the store's k-NN vote misclassifies them, repeating
    passes until a full pass adds nothing. The vote uses the k nearest store
    members in (squared distance, row) order, with the squared distances of
    every neighbour query (``neighbors._squared_sums``), and gives ties to
    the lowest class code.

    That protocol is replayed without a step per visited row. Every pool
    row, in visit order, keeps its k nearest store members (in no order),
    their class votes, its farthest member and a flag saying whether the
    vote misclassifies it now. The initial store, sorted by row so that
    index order is row order, ranks the pool by the screened
    ``query_batch``. Each added member is screened against the pool by
    ``NeighborIndex.within``, with each row's farthest distance as its
    radius; in the rows it beats, it replaces the farthest member, and only
    their votes and flags are updated. The next row to add is the first
    flagged row after the last one added or, when there is none, the first
    flagged row of the next pass. ``deadline`` is checked once per block of
    the initial ranking and once per insertion.
    """
    if k < 1:
        raise SamplerError("k must be >= 1")
    rows = _require_resampleable(d, need_pairs=False)
    editable = _editable_classes(d.labels)
    store = [idx for c, idx in rows.items() if c not in editable]
    pool = [np.empty(0, dtype=np.int64)]  # stays empty when no class is editable
    for c in sorted(editable):
        idx = rows[c]
        seed_pos = int(rng.np.integers(idx.size))
        store.append(idx[seed_pos:seed_pos + 1])
        pool.append(np.delete(idx, seed_pos))
    store = np.sort(np.concatenate(store))
    order = np.concatenate(pool)
    order = order[rng.np.permutation(order.size)]

    # per pool row in visit order, its k nearest store members; every member
    # beats an empty (inf, d.n) slot, since features are finite
    X, y = d.features, d.labels
    X_pool, y_pool = X[order], y[order]
    near_d = np.full((order.size, min(k, d.n)), np.inf)
    near_r = np.full(near_d.shape, d.n, dtype=np.int64)
    k0 = min(k, store.size)
    near_r[:, :k0] = store[NeighborIndex(X[store]).query_batch(X_pool, k0, deadline=deadline)]
    for c in range(k0):  # a slot at a time: pool x d differences, not pool x k x d
        near_d[:, c] = _squared_sums(X_pool - X[near_r[:, c]])

    n_classes = len(d.label_names)
    codes = np.append(y, n_classes)  # an empty slot votes for no class
    votes = _vote_counts(codes[near_r], n_classes + 1)
    flag = votes[:, :n_classes].argmax(axis=1) != y_pool
    slot = _farthest(near_d, near_r)
    radius = near_d[np.arange(order.size), slot]
    index = NeighborIndex(X_pool)
    added = []
    pos = -1
    while flag.any():
        later = flag[pos + 1:]
        pos = pos + 1 + int(later.argmax()) if later.any() else int(flag.argmax())
        if deadline is not None:
            deadline.check()
        j = int(order[pos])
        added.append(j)
        flag[pos], radius[pos] = False, -np.inf
        hit, dist = index.within(X[j], radius)
        # within keeps dist <= radius; on a tie the lower row is nearer
        beat = (dist < radius[hit]) | (j < near_r[hit, slot[hit]])
        hit, dist = hit[beat], dist[beat]
        if hit.size:  # j takes the farthest member's slot and vote
            s = slot[hit]
            votes[hit, codes[near_r[hit, s]]] -= 1
            votes[hit, y[j]] += 1
            near_d[hit, s], near_r[hit, s] = dist, j
            slot[hit] = s = _farthest(near_d[hit], near_r[hit])
            radius[hit] = near_d[hit, s]
            flag[hit] = votes[hit, :n_classes].argmax(axis=1) != y_pool[hit]
    return d.subset(np.sort(np.concatenate([store, np.array(added, dtype=np.int64)])))


def _kmeans(X: np.ndarray, k: int, rng: Rng, max_iter: int = 300, deadline=None):
    """Lloyd's algorithm seeded with k distinct rows (padded with duplicates
    when there are fewer distinct points than clusters). Each row joins its
    nearest centroid (lowest index on ties) by a blocked ``query_batch``, so
    no rows × clusters matrix is built; ``deadline`` is checked per block."""
    uniq = np.unique(X, axis=0)
    if len(uniq) >= k:
        pick = rng.np.choice(len(uniq), size=k, replace=False)
        centroids = uniq[np.sort(pick)].copy()
    else:
        reps = [uniq[i % len(uniq)] for i in range(k)]
        centroids = np.array(reps)
    assign = None
    for _ in range(max_iter):
        new_assign = NeighborIndex(centroids).query_batch(X, 1, deadline=deadline)[:, 0]
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
            nearest = NeighborIndex(Xc).query_batch(centroids, 1, deadline=deadline)[:, 0]
            out = Xc[nearest]
        else:
            out = centroids
        parts_X.append(out)
        parts_y.append(np.full(low, c, dtype=np.int64))
    return d.with_data(np.vstack(parts_X), np.concatenate(parts_y))


def _tomek_removals(d: Dataset, editable: set[int], deadline=None) -> np.ndarray:
    nn1 = _nearest(d, 1, deadline=deadline)[:, 0]
    a = np.arange(d.n)
    linked = (nn1[nn1] == a) & (d.labels != d.labels[nn1])
    mask = linked & np.isin(d.labels, sorted(editable))
    return np.flatnonzero(mask)


def tomek_links(d: Dataset, deadline=None) -> Dataset:
    """Remove the editable-class member of every mutual-1-NN opposite-class pair."""
    _require_resampleable(d, need_pairs=False)
    return _drop_rows(d, _tomek_removals(d, _editable_classes(d.labels), deadline))


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
    neigh = _nearest(over, k_enn, deadline=deadline)
    return _drop_rows(over, _enn_removals(over, neigh, editable))


def smote_tomek(d: Dataset, k_smote: int, rng: Rng, deadline=None) -> Dataset:
    """SMOTE then Tomek-link cleaning of the originally non-minority classes."""
    minority = _original_minority(d)
    over = smote(d, k_smote, rng, deadline)
    editable = set(over.labels.tolist()) - minority
    return _drop_rows(over, _tomek_removals(over, editable, deadline))


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
