import numpy as np
import pytest

from imbaml import (ConfusionMatrix, Rng, balanced_accuracy, confusion, f1_macro,
                    g_mean, sensitivity)
from imbaml.metrics import MetricError


# ------------------------------------------------------- brute-force oracles

def oracle_scores(y_true, y_pred):
    """Independent per-class recall/precision bookkeeping from raw pairs."""
    classes = sorted(set(y_true) | set(y_pred))
    recall, precision, f1 = {}, {}, {}
    for c in classes:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        recall[c] = tp / (tp + fn) if tp + fn else 0.0
        precision[c] = tp / (tp + fp) if tp + fp else 0.0
        pr = precision[c] + recall[c]
        f1[c] = 2 * precision[c] * recall[c] / pr if pr else 0.0
    present = [c for c in classes if any(t == c for t in y_true)]
    ba = sum(recall[c] for c in present) / len(present)
    recs = [recall[c] for c in present]
    gm = 0.0 if any(r == 0 for r in recs) else float(np.prod(recs) ** (1 / len(recs)))
    macro_f1 = sum(f1.values()) / len(classes)
    minority = min(present, key=lambda c: (sum(1 for t in y_true if t == c), c))
    return ba, gm, macro_f1, recall[minority]


def random_pairs(rng, n_classes, n):
    y_true = rng.np.integers(0, n_classes, size=n).tolist()
    y_pred = rng.np.integers(0, n_classes, size=n).tolist()
    return y_true, y_pred


# --------------------------------------------------------------- basic cases

def test_confusion_identity_is_diagonal():
    cm = confusion([0, 1, 2, 1], [0, 1, 2, 1])
    assert np.array_equal(np.diag(np.diag(cm.counts)), cm.counts)


def test_confusion_hand_count():
    cm = confusion([0, 0, 1, 1], [0, 1, 1, 1])
    assert cm.counts.tolist() == [[1, 1], [0, 2]]


def test_confusion_disjoint_label_sets():
    cm = confusion([0, 0], [1, 1])
    assert np.trace(cm.counts) == 0


def test_confusion_matches_pairwise_count():
    rng = Rng(3)
    for n, labels in ((1, (4,)), (50, (0, 1)), (300, (0, 2, 5, 9, 11))):
        y_true = rng.np.choice(labels, size=n)
        y_pred = rng.np.choice(labels[::2], size=n)
        classes = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
        want = np.zeros((len(classes), len(classes)), dtype=np.int64)
        for t, p in zip(y_true.tolist(), y_pred.tolist()):
            want[classes.index(t), classes.index(p)] += 1
        cm = confusion(y_true, y_pred)
        assert cm.classes == tuple(classes)
        assert all(type(c) is int for c in cm.classes)
        assert cm.counts.tobytes() == want.tobytes()


def test_confusion_length_mismatch():
    with pytest.raises(MetricError):
        confusion([0, 1], [0])


def test_balanced_accuracy_arithmetic():
    # class A recall 0.8 (4/5), class B recall 0.6 (3/5)
    y_true = [0] * 5 + [1] * 5
    y_pred = [0, 0, 0, 0, 1] + [1, 1, 1, 0, 0]
    assert balanced_accuracy(confusion(y_true, y_pred)) == pytest.approx(0.7)


def test_balanced_accuracy_constant_majority_is_half():
    y_true = [0] * 90 + [1] * 10
    y_pred = [0] * 100
    assert balanced_accuracy(confusion(y_true, y_pred)) == 0.5


def test_g_mean_arithmetic():
    # recalls 0.9 and 0.4 -> sqrt(0.36) = 0.6
    y_true = [0] * 10 + [1] * 10
    y_pred = [0] * 9 + [1] + [1] * 4 + [0] * 6
    assert g_mean(confusion(y_true, y_pred)) == pytest.approx(0.6)


def test_g_mean_zero_when_class_missed():
    cm = confusion([0, 0, 1, 1], [0, 0, 0, 0])
    assert g_mean(cm) == 0.0


def test_f1_macro_derived_value():
    cm = confusion([0, 0, 1, 1], [0, 1, 1, 1])
    assert f1_macro(cm) == pytest.approx(11 / 15, abs=1e-12)
    y_true, y_pred = [0, 0, 1, 1], [0, 1, 1, 1]
    assert f1_macro(cm) == pytest.approx(oracle_scores(y_true, y_pred)[2], abs=1e-12)


def test_f1_macro_never_predicted_class_contributes_zero():
    # class 1 never predicted -> F1_1 = 0; class 0: P=0.5, R=1 -> F1_0 = 2/3
    cm = confusion([0, 0, 1, 1], [0, 0, 0, 0])
    assert f1_macro(cm) == pytest.approx((2 / 3 + 0.0) / 2, abs=1e-12)


def test_sensitivity_minority_recall():
    y_true = [0] * 10 + [1] * 5
    y_pred = [0] * 10 + [1, 1, 1, 0, 0]
    assert sensitivity(confusion(y_true, y_pred)) == pytest.approx(0.6)


def test_sensitivity_positive_absent():
    cm = confusion([0, 0], [0, 1])
    with pytest.raises(MetricError):
        sensitivity(cm, positive=1)


def test_perfect_predictor_scores_one():
    cm = confusion([0, 1, 2] * 4, [0, 1, 2] * 4)
    assert balanced_accuracy(cm) == g_mean(cm) == f1_macro(cm) == 1.0
    assert sensitivity(cm) == 1.0


def test_empty_matrix_rejected():
    cm = ConfusionMatrix((0,), np.zeros((1, 1), dtype=int))
    for fn in (balanced_accuracy, g_mean, f1_macro):
        with pytest.raises(MetricError):
            fn(cm)


# ----------------------------------------------------------------- properties

def test_permutation_invariance():
    rng = Rng(5)
    for _ in range(50):
        y_true, y_pred = random_pairs(rng, 4, 40)
        perm = {0: 2, 1: 3, 2: 0, 3: 1}
        a = confusion(y_true, y_pred)
        b = confusion([perm[t] for t in y_true], [perm[p] for p in y_pred])
        assert balanced_accuracy(a) == pytest.approx(balanced_accuracy(b), abs=1e-12)
        assert g_mean(a) == pytest.approx(g_mean(b), abs=1e-12)
        assert f1_macro(a) == pytest.approx(f1_macro(b), abs=1e-12)


def test_balanced_accuracy_equals_accuracy_on_uniform_classes():
    rng = Rng(6)
    for _ in range(30):
        n_classes = int(rng.np.integers(2, 5))
        per = int(rng.np.integers(3, 10))
        y_true = [c for c in range(n_classes) for _ in range(per)]
        y_pred = rng.np.integers(0, n_classes, size=len(y_true)).tolist()
        acc = sum(t == p for t, p in zip(y_true, y_pred)) / len(y_true)
        ba = balanced_accuracy(confusion(y_true, y_pred))
        # equal when every class is predicted equally often per true class;
        # with exactly uniform true classes BA is the mean of per-class accuracies
        per_class = [sum(1 for t, p in zip(y_true, y_pred) if t == c and t == p) / per
                     for c in range(n_classes)]
        assert ba == pytest.approx(sum(per_class) / n_classes, abs=1e-12)
        assert ba == pytest.approx(acc, abs=1e-12)


def test_g_mean_bounded_by_balanced_accuracy():
    rng = Rng(7)
    for _ in range(200):
        y_true, y_pred = random_pairs(rng, 3, 30)
        cm = confusion(y_true, y_pred)
        assert g_mean(cm) <= balanced_accuracy(cm) + 1e-12


def test_oracle_equivalence_small_matrices():
    rng = Rng(8)
    for _ in range(300):
        n_classes = int(rng.np.integers(2, 7))
        n = int(rng.np.integers(n_classes, 51))
        y_true, y_pred = random_pairs(rng, n_classes, n)
        if len(set(y_true)) < 1:
            continue
        cm = confusion(y_true, y_pred)
        ba, gm, mf1, sens = oracle_scores(y_true, y_pred)
        assert balanced_accuracy(cm) == pytest.approx(ba, abs=1e-12)
        assert g_mean(cm) == pytest.approx(gm, abs=1e-12)
        assert f1_macro(cm) == pytest.approx(mf1, abs=1e-12)
        assert sensitivity(cm) == pytest.approx(sens, abs=1e-12)
