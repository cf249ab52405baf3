import collections
from dataclasses import replace

import numpy as np
import pytest

from imbaml import DEFAULT_SPACE, Dataset, Rng, class_distribution
from imbaml.evaluate import Deadline, EvalTimeout
from imbaml.neighbors import _QUERY_BLOCK, NeighborGraphs, NeighborIndex
from imbaml.samplers import (SamplerError, adasyn, all_knn, apply_sampler,
                             borderline_smote, cluster_centroids, cnn, enn,
                             smote, smote_enn, smote_tomek, tomek_links)
from imbaml.space import DomainError

from helpers import (CountingDeadline, grid_classes, grid_dataset, make_dataset,
                     overlapping_binary, row_bytes, squared_distances)


# ------------------------------------------------------------------- oracles

def segment_membership(synth, pool_base, pool_target, k, lo=0.0, hi=1.0):
    """True iff synth = x + u (z - x) for some base x, some z among x's k
    nearest pool_target neighbours, with u in [lo, hi); least-squares residual
    must vanish."""
    index = NeighborIndex(pool_target)
    for bi, x in enumerate(pool_base):
        neigh = index.query_batch(x[None], min(k + 1, len(pool_target)))[0]
        for zi in neigh:
            z = pool_target[zi]
            if np.array_equal(z, x):
                continue
            direction = z - x
            denom = float(direction @ direction)
            if denom == 0:
                continue
            u = float((synth - x) @ direction) / denom
            residual = np.linalg.norm(synth - x - u * direction)
            if residual < 1e-9 and lo - 1e-12 <= u < hi + 1e-12:
                return True
    return False


def _near_duplicates(seed: int) -> Dataset:
    """Rows 1-2 ulp apart in 11 features, so that orders hang on the last bit
    of the distance expression."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(20, 11))[rng.integers(0, 20, 120)]
    X = base + rng.integers(-2, 3, size=base.shape) * np.spacing(base)
    return Dataset.from_arrays("ulp", X, (rng.random(120) < 0.3).astype(np.int64))


def enn_oracle_removals(d, k):
    """Brute-force ENN: recompute each point's neighbour vote independently."""
    counts = collections.Counter(d.labels.tolist())
    low = min(counts.values())
    editable = {c for c, n in counts.items() if n > low}
    removed = []
    for i in range(d.n):
        if d.labels[i] not in editable:
            continue
        d2 = squared_distances(d.features, d.features[i])
        d2[i] = np.inf
        order = np.lexsort((np.arange(d.n), d2))[:min(k, d.n - 1)]
        votes = collections.Counter(d.labels[order].tolist())
        top = max(votes.values())
        winner = min(c for c, v in votes.items() if v == top)
        if winner != d.labels[i]:
            removed.append(i)
    return removed


def tomek_oracle_links(d):
    """O(n^2) scan for mutual 1-NN opposite-class pairs."""
    nn = []
    for i in range(d.n):
        d2 = squared_distances(d.features, d.features[i])
        d2[i] = np.inf
        nn.append(int(np.lexsort((np.arange(d.n), d2))[0]))
    return {(min(a, nn[a]), max(a, nn[a])) for a in range(d.n)
            if nn[nn[a]] == a and d.labels[a] != d.labels[nn[a]]}


def tomek_oracle_kept(d):
    """Rows Tomek links keep: all but the editable-class members of a link."""
    links = tomek_oracle_links(d)
    counts = collections.Counter(d.labels.tolist())
    low = min(counts.values())
    editable = {c for c, n in counts.items() if n > low}
    removed = {m for pair in links for m in pair if d.labels[m] in editable}
    return np.delete(np.arange(d.n), sorted(removed))


# --------------------------------------------------------------------- SMOTE

def test_smote_balances_to_majority():
    d = make_dataset({0: 10, 1: 5})
    out = smote(d, 5, Rng(0))
    assert class_distribution(out).counts == {0: 10, 1: 10}


def test_smote_balanced_input_is_identity():
    d = make_dataset({0: 8, 1: 8})
    assert smote(d, 5, Rng(0)) is d


def test_smote_two_point_minority_stays_on_segment():
    d = grid_dataset([(0, 0, 0)] * 6 + [(10, 10, 1), (12, 14, 1)])
    out = smote(d, 5, Rng(1))
    a, b = np.array([10.0, 10.0]), np.array([12.0, 14.0])
    for row in out.features[d.n:]:
        assert segment_membership(row, np.vstack([a, b]), np.vstack([a, b]), 1)


def test_smote_synthetics_verified_by_oracle():
    d = make_dataset({0: 10, 1: 5}, seed=4)
    out = smote(d, 3, Rng(7))
    minority = d.features[d.labels == 1]
    synth = out.features[d.n:]
    assert len(synth) == 5
    for row in synth:
        assert segment_membership(row, minority, minority, 3)


def test_smote_originals_bit_identical():
    d = make_dataset({0: 12, 1: 4}, seed=2)
    out = smote(d, 5, Rng(3))
    assert out.features[:d.n].tobytes() == d.features.tobytes()


def test_smote_minority_singleton_rejected():
    d = make_dataset({0: 5, 1: 1})
    with pytest.raises(SamplerError):
        smote(d, 5, Rng(0))


# ----------------------------------------------------------- BorderlineSMOTE

def borderline_fixture():
    # majority wall at x=0; minority chain at y=3.5 whose first point sits next
    # to the wall (borderline) while the rest are interior
    rows = ([(0.0, float(i), 0) for i in range(8)]
            + [(1.0, 3.5, 1), (2.0, 3.5, 1), (2.5, 3.5, 1), (3.0, 3.5, 1)])
    return grid_dataset(rows)


def test_borderline_danger_classification():
    d = borderline_fixture()
    m = 4
    # brute-force DANGER classification for each minority point
    danger = []
    for i in np.flatnonzero(d.labels == 1):
        d2 = squared_distances(d.features, d.features[i])
        d2[i] = np.inf
        neigh = np.lexsort((np.arange(d.n), d2))[:m]
        n_other = int((d.labels[neigh] != 1).sum())
        if m / 2 <= n_other < m:
            danger.append(i)
    assert danger == [8]  # only the point at x=1 borders the majority wall

    out = borderline_smote(d, 2, m, "borderline-1", Rng(5))
    synth = out.features[d.n:]
    assert len(synth) == 4
    minority = d.features[d.labels == 1]
    base = d.features[[8]]
    for row in synth:
        assert segment_membership(row, base, minority, 2)


def test_borderline_noise_point_generates_nothing():
    # minority point fully surrounded by majority (m of m) is noise; the other
    # minority points are safe: DANGER empty -> plain-SMOTE fallback, recorded
    rows = ([(0.0, 0.0, 1)] + [(0.1 * np.cos(a), 0.1 * np.sin(a), 0)
                               for a in np.linspace(0, 5.5, 8)]
            + [(50.0 + dx, 50.0 + dy, 1) for dx, dy in
               [(0, 0), (1, 0), (0, 1), (1, 1)]])
    d = grid_dataset(rows)
    out = borderline_smote(d, 2, 4, "borderline-1", Rng(2))
    assert any("fallback" in note for note in out.provenance)
    assert class_distribution(out).counts[1] == class_distribution(out).counts[0]


def test_borderline_2_uses_half_range_toward_majority():
    d = borderline_fixture()
    out = borderline_smote(d, 2, 4, "borderline-2", Rng(11))
    synth = out.features[d.n:]
    minority = d.features[d.labels == 1]
    everything = d.features
    for row in synth:
        ok_min = segment_membership(row, d.features[[8]], minority, 2)
        ok_maj = segment_membership(row, d.features[[8]], everything, 4, hi=0.5)
        assert ok_min or ok_maj


def test_borderline_deterministic():
    d = borderline_fixture()
    a = borderline_smote(d, 3, 5, "borderline-1", Rng(9))
    b = borderline_smote(d, 3, 5, "borderline-1", Rng(9))
    assert a.features.tobytes() == b.features.tobytes()


# -------------------------------------------------------------------- ADASYN

def test_adasyn_uniform_quotas_under_symmetry():
    d = make_dataset({0: 12, 1: 4}, seed=3, spread=50.0)
    out = adasyn(d, 3, Rng(1))
    assert class_distribution(out).counts == {0: 12, 1: 12}


def test_adasyn_harder_point_gets_larger_quota():
    # minority pair embedded in the majority wall vs an isolated minority triple
    from imbaml.samplers import _largest_remainder
    rows = ([(float(i), 0.0, 0) for i in range(10)]
            + [(4.5, 0.05, 1), (4.6, 0.05, 1)]
            + [(100.0, 100.0, 1), (100.1, 100.0, 1), (100.2, 100.0, 1)])
    d = grid_dataset(rows)
    k = 2
    # brute-force r_i: share of other-class points among the k all-class neighbours
    r = []
    for i in np.flatnonzero(d.labels == 1):
        d2 = squared_distances(d.features, d.features[i])
        d2[i] = np.inf
        neigh = np.lexsort((np.arange(d.n), d2))[:k]
        r.append(int((d.labels[neigh] != 1).sum()) / k)
    r = np.array(r)
    assert r[0] > r[2] and r[1] > r[3]  # embedded pair sees majority, triple does not
    deficit = 10 - 5
    quotas = _largest_remainder(r / r.sum(), deficit)
    assert quotas.sum() == deficit
    assert quotas[:2].sum() == deficit and quotas[2:].sum() == 0
    out = adasyn(d, k, Rng(4))
    assert class_distribution(out).counts == {0: 10, 1: 10}


def test_largest_remainder_hand_values():
    from imbaml.samplers import _largest_remainder
    q = _largest_remainder(np.array([5 / 9, 4 / 9]), 6)
    # raw (3.333, 2.667) -> floors (3, 2), leftover goes to the larger remainder
    assert q.tolist() == [3, 3]
    q = _largest_remainder(np.array([0.5, 0.5]), 5)
    assert q.tolist() == [3, 2]  # remainder tie resolves to the lower index


def test_adasyn_zero_deficit_is_identity():
    d = make_dataset({0: 6, 1: 6})
    assert adasyn(d, 3, Rng(0)) is d


def test_adasyn_isolated_minority_falls_back_to_smote():
    d = make_dataset({0: 9, 1: 4}, spread=100.0)  # no minority point sees majority
    out = adasyn(d, 3, Rng(2))
    assert any("fallback" in p for p in out.provenance)
    assert class_distribution(out).counts == {0: 9, 1: 9}


# ----------------------------------------------------------------------- ENN

def test_enn_separated_clusters_identity():
    d = make_dataset({0: 10, 1: 5}, spread=50.0)
    assert enn(d, 3).n == d.n


def test_enn_lone_majority_point_removed():
    rows = ([(0.0, 0.0, 0)] + [(0.2, 0.2, 1), (-0.2, 0.2, 1), (0.0, -0.3, 1)]
            + [(50.0 + i, 50.0, 0) for i in range(6)])
    d = grid_dataset(rows)
    out = enn(d, 3)
    assert out.n == d.n - 1
    assert not any(np.array_equal(r, [0.0, 0.0]) for r in out.features)


def test_enn_matches_brute_force_oracle():
    d = overlapping_binary(30, 12, seed=5, separation=1.0)
    out = enn(d, 3)
    removed = enn_oracle_removals(d, 3)
    expected = np.delete(np.arange(d.n), removed)
    assert np.array_equal(out.features, d.features[expected])


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("seed", range(6))
def test_enn_matches_brute_force_oracle_on_near_duplicates(seed, k):
    d = _near_duplicates(seed)
    removed = enn_oracle_removals(d, k)
    assert np.array_equal(enn(d, k).features, d.features[np.delete(np.arange(d.n), removed)])


def test_enn_never_removes_minority():
    d = overlapping_binary(20, 8, seed=6, separation=0.5)
    out = enn(d, 5)
    assert (out.labels == 1).sum() == 8


# -------------------------------------------------------------------- AllKNN

def test_all_knn_k1_equals_enn_k1():
    d = overlapping_binary(25, 10, seed=7, separation=1.0)
    assert np.array_equal(all_knn(d, 1).features, enn(d, 1).features)


def test_all_knn_monotone_vs_enn():
    d = overlapping_binary(40, 15, seed=8, separation=0.8)
    assert all_knn(d, 4).n <= enn(d, 1).n


def test_all_knn_matches_sequential_oracle():
    d = overlapping_binary(35, 14, seed=9, separation=0.7)
    out = all_knn(d, 4)
    cur = d
    for k in range(1, 5):
        removed = enn_oracle_removals(cur, k)
        if not removed:
            continue
        keep = np.delete(np.arange(cur.n), removed)
        kept_classes = set(cur.labels[keep].tolist())
        if kept_classes != set(cur.labels.tolist()):
            break
        cur = cur.subset(keep)
    assert np.array_equal(out.features, cur.features)



@pytest.mark.parametrize("separation, k_max", [(0.7, 8), (8.0, 6)])
def test_all_knn_queries_once_per_edited_set(monkeypatch, separation, k_max):
    d = overlapping_binary(60, 20, seed=10, separation=separation)
    edits = 0  # sets edited by some k < k_max, each of which needs a new query
    cur = d
    for k in range(1, k_max + 1):
        removed = enn_oracle_removals(cur, k)
        if not removed:
            continue
        keep = np.delete(np.arange(cur.n), removed)
        if set(cur.labels[keep].tolist()) != set(cur.labels.tolist()):
            break
        cur = cur.subset(keep)
        edits += k < k_max
    calls = []
    query_batch = NeighborIndex.query_batch

    def counting(self, queries, k, deadline=None):
        calls.append(k)
        return query_batch(self, queries, k, deadline)

    monkeypatch.setattr(NeighborIndex, "query_batch", counting)
    out = all_knn(d, k_max)
    assert np.array_equal(out.features, cur.features)
    assert len(calls) == 1 + edits
    assert len(calls) < k_max

# ----------------------------------------------------------------------- CNN

def test_cnn_pure_clusters_keep_minority_plus_seed():
    d = make_dataset({0: 12, 1: 5}, spread=100.0, seed=10)
    out = cnn(d, 1, Rng(3))
    assert (out.labels == 1).sum() == 5
    assert (out.labels == 0).sum() == 1


def test_cnn_all_minority_retained():
    for seed in range(5):
        d = overlapping_binary(25, 9, seed=seed, separation=1.0)
        out = cnn(d, 3, Rng(seed))
        assert (out.labels == 1).sum() == 9


def cnn_replay(d: Dataset, k: int, seed: int) -> np.ndarray:
    """The documented store-growth protocol, one visited row at a time, with
    full distance columns over the store and the same rng draws."""
    rng = Rng(seed)
    counts = collections.Counter(d.labels.tolist())
    low = min(counts.values())
    editable = {c for c, n in counts.items() if n > low}
    rows = {c: np.flatnonzero(d.labels == c) for c in sorted(counts)}
    store = [int(i) for c in sorted(counts) if c not in editable for i in rows[c]]
    pool = []
    for c in sorted(editable):
        idx = rows[c]
        seed_pos = int(rng.np.integers(idx.size))
        store.append(int(idx[seed_pos]))
        pool.extend(int(i) for p, i in enumerate(idx) if p != seed_pos)
    order = [pool[int(i)] for i in rng.np.permutation(len(pool))]
    in_store = set(store)
    changed = True
    while changed:
        changed = False
        for i in order:
            if i in in_store:
                continue
            members = sorted(in_store)
            with np.errstate(over="ignore"):
                d2 = squared_distances(d.features[members], d.features[i])
            nearest = np.lexsort((np.array(members), d2))[:k]
            votes = collections.Counter(int(d.labels[members[j]]) for j in nearest)
            top = max(votes.values())
            winner = min(c for c, v in votes.items() if v == top)
            if winner != d.labels[i]:
                in_store.add(i)
                changed = True
    return np.array(sorted(in_store))


def test_cnn_matches_replay_oracle():
    d = grid_dataset([(float(i), 0.0, i % 2) for i in range(20)]
                     + [(float(i) + 0.4, 0.0, 0) for i in range(8)])
    out = cnn(d, 1, Rng(13))
    want = d.subset(cnn_replay(d, 1, 13))
    assert out.features.tobytes() == want.features.tobytes()
    assert out.labels.tobytes() == want.labels.tobytes()


def _overflowing(seed: int) -> Dataset:
    """The editable class scaled by 1e160: its squared norms and distances
    overflow, so both screens must fall back to exact distances."""
    d = overlapping_binary(40, 7, seed=seed, d=2)
    return d.with_data(d.features * np.where(d.labels == 0, 1e160, 1.0)[:, None], d.labels)


CNN_REPLAY_CASES = {
    # one block of the initial ranking, then several (pool > 128 rows)
    "binary": lambda s: overlapping_binary(60, 8, seed=s, d=3, separation=1.0),
    "binary_blocks": lambda s: overlapping_binary(300, 40, seed=s, d=4, separation=1.0),
    # three editable classes, each with its own seed
    "multiclass": lambda s: make_dataset({0: 40, 1: 25, 2: 12, 3: 5}, seed=s, d=3,
                                         spread=1.5),
    "grid": lambda s: grid_classes(s, (45, 20, 9)),
    "grid_tiny": lambda s: grid_classes(s, (10, 4)),  # k = 24 exceeds every row count
    "overflow": _overflowing,
    "near_duplicates": _near_duplicates,
    "balanced": lambda s: make_dataset({0: 9, 1: 9}, seed=s),  # nothing is editable
}


@pytest.mark.parametrize("k", [1, 3, 7, 24])
@pytest.mark.parametrize("case", sorted(CNN_REPLAY_CASES))
def test_cnn_matches_replay_oracle_randomised(case, k):
    for seed in range(3):
        d = CNN_REPLAY_CASES[case](seed)
        with np.errstate(over="ignore"):  # the overflow case overflows by design
            out = cnn(d, k, Rng(100 + seed))
        want = d.subset(cnn_replay(d, k, 100 + seed))
        assert out.features.tobytes() == want.features.tobytes()
        assert out.labels.tobytes() == want.labels.tobytes()


def test_cnn_checks_deadline_per_ranking_block_and_per_insertion(monkeypatch):
    d = overlapping_binary(2 * _QUERY_BLOCK + 40, 30, seed=5, d=3, separation=1.0)
    counted = CountingDeadline()
    out = cnn(d, 3, Rng(2), deadline=counted)
    blocks = -(-(d.n - 31) // _QUERY_BLOCK)  # pool rows: all but the store of 31
    assert counted.calls == blocks + out.n - 31 and out.n > 31

    within = []
    monkeypatch.setattr(NeighborIndex, "within", lambda *args: within.append(args))
    for deadline in (CountingDeadline(fire_at=blocks), Deadline(-1.0)):
        with pytest.raises(EvalTimeout):
            cnn(d, 3, Rng(2), deadline=deadline)
    assert within == []  # both fired before the first insertion


# --------------------------------------------------------- cluster centroids

def test_cluster_centroids_hard_rows_are_input_rows():
    d = overlapping_binary(30, 6, seed=11)
    out = cluster_centroids(d, "hard", Rng(2))
    majority_rows = row_bytes(d.features[d.labels == 0])
    for row in out.features[out.labels == 0]:
        assert row.tobytes() in majority_rows
    assert collections.Counter(out.labels.tolist()) == {0: 6, 1: 6}


def test_cluster_centroids_majority_already_small_is_unchanged_under_hard():
    d = make_dataset({0: 5, 1: 5})
    out = cluster_centroids(d, "hard", Rng(0))
    assert row_bytes(out.features) == row_bytes(d.features)


def test_cluster_centroids_soft_finds_blob_means():
    rng = Rng(21)
    blob1 = rng.np.normal(0, 0.05, size=(20, 2))
    blob2 = rng.np.normal(0, 0.05, size=(20, 2)) + 30.0
    minority = np.array([[100.0, 100.0], [101.0, 100.0]])
    X = np.vstack([blob1, blob2, minority])
    y = np.array([0] * 40 + [1] * 2)
    d = Dataset.from_arrays("blobs", X, y)
    out = cluster_centroids(d, "soft", Rng(5))
    cents = out.features[out.labels == 0]
    means = np.array([blob1.mean(axis=0), blob2.mean(axis=0)])
    for m in means:
        assert min(np.linalg.norm(cents - m, axis=1)) < 1e-6


def test_cluster_centroids_auto_equals_soft():
    d = overlapping_binary(18, 5, seed=12)
    a = cluster_centroids(d, "auto", Rng(7))
    b = cluster_centroids(d, "soft", Rng(7))
    assert a.features.tobytes() == b.features.tobytes()


def test_cluster_centroids_duplicate_points_padded():
    X = np.array([[0.0, 0.0]] * 10 + [[5.0, 5.0], [6.0, 6.0], [7.0, 7.0]])
    y = np.array([0] * 10 + [1] * 3)
    d = Dataset.from_arrays("dup", X, y)
    out = cluster_centroids(d, "soft", Rng(1))
    assert collections.Counter(out.labels.tolist()) == {0: 3, 1: 3}


# --------------------------------------------------------------- Tomek links

def test_tomek_separated_identity():
    d = make_dataset({0: 10, 1: 4}, spread=50.0)
    assert tomek_links(d).n == d.n


def test_tomek_adjacent_pair_removes_majority_member():
    rows = ([(0.0, 0.0, 0), (0.1, 0.0, 1)]
            + [(10.0 + i, 0.0, 0) for i in range(5)]
            + [(30.0 + i, 0.0, 1) for i in range(2)])
    d = grid_dataset(rows)
    out = tomek_links(d)
    assert out.n == d.n - 1
    assert not any(np.array_equal(r, [0.0, 0.0]) for r in out.features)
    assert any(np.array_equal(r, [0.1, 0.0]) for r in out.features)


def test_tomek_matches_brute_force_scan():
    d = overlapping_binary(25, 10, seed=13, separation=0.6)
    assert np.array_equal(tomek_links(d).features, d.features[tomek_oracle_kept(d)])


@pytest.mark.parametrize("seed", range(6))
def test_tomek_matches_brute_force_scan_on_near_duplicates(seed):
    d = _near_duplicates(seed)
    assert np.array_equal(tomek_links(d).features, d.features[tomek_oracle_kept(d)])


# ------------------------------------------------------------- compositions

def test_smote_enn_clean_data_equals_smote_alone():
    d = make_dataset({0: 12, 1: 5}, spread=60.0, seed=14)
    combined = smote_enn(d, "auto", 5, 3, Rng(8))
    plain = smote(d, 5, Rng(8))
    assert combined.features.tobytes() == plain.features.tobytes()


def test_smote_enn_matches_sequential_oracle():
    d = overlapping_binary(25, 10, seed=15, separation=1.0)
    out = smote_enn(d, "auto", 5, 3, Rng(9))
    over = smote(d, 5, Rng(9))
    removed = []
    minority = {1}
    for i in range(over.n):
        if over.labels[i] in minority:
            continue
        d2 = squared_distances(over.features, over.features[i])
        d2[i] = np.inf
        neigh = np.lexsort((np.arange(over.n), d2))[:3]
        votes = collections.Counter(over.labels[neigh].tolist())
        top = max(votes.values())
        if min(c for c, v in votes.items() if v == top) != over.labels[i]:
            removed.append(i)
    expected = np.delete(np.arange(over.n), removed)
    assert np.array_equal(out.features, over.features[expected])


def test_smote_enn_strategy_scopes():
    d = overlapping_binary(20, 8, seed=16, separation=0.5)
    majority_rows = row_bytes(d.features[d.labels == 0])
    out_min = smote_enn(d, "minority", 5, 3, Rng(10))
    # minority strategy never touches original majority rows
    kept_majority = {r.tobytes() for r in out_min.features[out_min.labels == 0]}
    assert kept_majority == majority_rows
    out_all = smote_enn(d, "all", 5, 3, Rng(10))
    assert {r.tobytes() for r in out_all.features} <= (
        row_bytes(d.features) | {r.tobytes() for r in smote(d, 5, Rng(10)).features})


def test_smote_tomek_separable_equals_smote():
    d = make_dataset({0: 10, 1: 4}, spread=80.0, seed=17)
    assert (smote_tomek(d, 5, Rng(11)).features.tobytes()
            == smote(d, 5, Rng(11)).features.tobytes())


def test_smote_tomek_matches_sequential_oracle():
    d = overlapping_binary(22, 9, seed=18, separation=0.8)
    out = smote_tomek(d, 5, Rng(12))
    over = smote(d, 5, Rng(12))
    links = tomek_oracle_links(over)
    removed = {m for pair in links for m in pair if over.labels[m] == 0}
    expected = np.delete(np.arange(over.n), sorted(removed))
    assert np.array_equal(out.features, over.features[expected])


def test_smote_tomek_balanced_no_links_identity():
    d = make_dataset({0: 6, 1: 6}, spread=50.0)
    assert smote_tomek(d, 5, Rng(0)) is d


# ------------------------------------------------------------------ dispatch

def test_apply_sampler_balances():
    cfg = DEFAULT_SPACE.make_config("SMOTE", {"k_neighbours": 5})
    d = make_dataset({0: 10, 1: 5})
    out = apply_sampler(cfg, d, Rng(0))
    assert class_distribution(out).counts == {0: 10, 1: 10}
    assert out.label_names == d.label_names
    assert out.columns == d.columns


def test_apply_sampler_rejects_out_of_domain_k():
    with pytest.raises(DomainError, match="k_neighbours"):
        DEFAULT_SPACE.make_config("SMOTE", {"k_neighbours": 30})
    with pytest.raises(DomainError, match="k_neighbours"):
        DEFAULT_SPACE.make_config("SMOTE", {"k_neighbours": True})


def test_apply_sampler_rejects_unknown_hyperparameter():
    with pytest.raises(DomainError, match="unknown hyperparameter"):
        DEFAULT_SPACE.make_config("SMOTE", {"k_neighbors": 5})


def test_apply_sampler_needs_two_classes():
    cfg = DEFAULT_SPACE.default_config("SMOTE")
    with pytest.raises(SamplerError):
        apply_sampler(cfg, make_dataset({0: 10}), Rng(0))


def test_apply_sampler_minority_pair_required():
    cfg = DEFAULT_SPACE.default_config("TomekLinks")
    with pytest.raises(SamplerError):
        apply_sampler(cfg, make_dataset({0: 9, 1: 1}), Rng(0))


# ------------------------------------------------------- shared properties

ALL_SAMPLERS = [
    ("SMOTE", {}), ("BorderlineSMOTE", {}), ("ADASYN", {}),
    ("EditedNearestNeighbours", {}), ("CondensedNearestNeighbour", {}),
    ("AllKNN", {}), ("ClusterCentroids", {}), ("TomekLinks", {}),
    ("SMOTEENN", {}), ("SMOTETomek", {}),
]

OVERSAMPLERS = {"SMOTE", "BorderlineSMOTE", "ADASYN"}
UNDERSAMPLERS = {"EditedNearestNeighbours", "CondensedNearestNeighbour",
                 "AllKNN", "TomekLinks"}


@pytest.mark.parametrize("name,params", ALL_SAMPLERS)
def test_sampler_determinism_bytes(name, params):
    d = overlapping_binary(30, 9, seed=19, separation=1.2)
    cfg = DEFAULT_SPACE.make_config(name, params)
    a = apply_sampler(cfg, d, Rng(77))
    b = apply_sampler(cfg, d, Rng(77))
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


class _Expired(Exception):
    pass


class _ExpiredDeadline:
    def check(self):
        raise _Expired()


@pytest.mark.parametrize("name,params", ALL_SAMPLERS)
def test_sampler_checks_deadline(name, params):
    d = overlapping_binary(30, 9, seed=19, separation=1.2)
    cfg = DEFAULT_SPACE.make_config(name, params)
    with pytest.raises(_Expired):
        apply_sampler(cfg, d, Rng(77), deadline=_ExpiredDeadline())


@pytest.mark.parametrize("name,params", ALL_SAMPLERS)
def test_sampler_multiclass_policy(name, params):
    d = make_dataset({0: 20, 1: 8, 2: 5}, seed=20, spread=3.0)
    cfg = DEFAULT_SPACE.make_config(name, params)
    out = apply_sampler(cfg, d, Rng(5))
    counts = collections.Counter(out.labels.tolist())
    if name in OVERSAMPLERS:
        assert counts[1] == counts[2] == counts[0] == 20
    if name in UNDERSAMPLERS:
        assert counts[2] == 5  # minority untouched
        assert row_bytes(out.features) <= row_bytes(d.features)


def test_smote_idempotent_on_balance():
    d = make_dataset({0: 9, 1: 4}, seed=21)
    once = smote(d, 5, Rng(1))
    assert smote(once, 5, Rng(2)) is once


# ------------------------------------------- graph-served sampler queries

def served(d):
    """``d`` carrying its own neighbour graphs, as a search's dataset does."""
    return replace(d, neighbours=NeighborGraphs(d.features, d.labels))


SERVED_SAMPLERS = [
    ("SMOTE", {"k_neighbours": 5}), ("BorderlineSMOTE", {"kind": "borderline-1"}),
    ("BorderlineSMOTE", {"kind": "borderline-2", "m_neighbours": 12}),
    ("ADASYN", {"k_neighbours": 7}), ("EditedNearestNeighbours", {"k_neighbours": 4}),
    ("AllKNN", {"k_neighbours": 6}), ("TomekLinks", {}), ("SMOTEENN", {}),
    ("SMOTETomek", {"k_smote": 3}),
]


@pytest.mark.parametrize("counts", [(70, 30), (50, 30, 20), (40, 25, 20, 15, 12, 10, 9,
                                                             8, 6, 5)])
@pytest.mark.parametrize("name,params", SERVED_SAMPLERS)
def test_samplers_on_graph_served_rows_match_plain_rows(name, params, counts):
    # grid rows: exact duplicates, so rows get crowded out of their own
    # neighbourhoods; fold-like, ASHA-rung-like and nested subsets
    d = grid_classes(31, counts)
    search_d = served(d)
    cfg = DEFAULT_SPACE.make_config(name, params)
    rng = np.random.default_rng(len(counts))
    subsets = [np.flatnonzero(np.arange(d.n) % 5 != fold) for fold in range(5)]
    subsets += [np.sort(rng.choice(d.n, size=d.n // f, replace=False)) for f in (9, 3)]
    subsets.append(subsets[0][np.sort(rng.choice(subsets[0].size, size=d.n // 2,
                                                 replace=False))])
    for i, rows in enumerate(subsets):
        plain, graph = d.subset(rows), search_d.subset(rows)
        assert graph.neighbours is not None
        present = collections.Counter(plain.labels.tolist())
        if len(present) < 2 or min(present.values()) < 2:
            continue  # apply_sampler refuses it either way
        a = apply_sampler(cfg, plain, Rng(i))
        b = apply_sampler(cfg, graph, Rng(i))
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.provenance == b.provenance


def test_subset_keeps_graph_rows_only_in_ascending_order():
    d = served(make_dataset({0: 10, 1: 6}, seed=32))
    assert d.subset([1, 4, 9]).neighbours.rows.tolist() == [1, 4, 9]
    assert d.subset([1, 4, 9]).subset([0, 2]).neighbours.rows.tolist() == [1, 9]
    assert d.subset([4, 1]).neighbours is None
    assert d.subset([1, 1]).neighbours is None
    assert d.subset([-1, 0]).neighbours is None
    assert d.subset([-2, -1]).neighbours.rows.tolist() == [14, 15]
    assert d.with_data(d.features, d.labels).neighbours is None
