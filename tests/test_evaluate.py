import json
import time

import numpy as np
import pytest

from imbaml import DEFAULT_SPACE, Dataset, Pipeline, Rng, parse, random_pipeline
from imbaml.dataset import stratified_folds
from imbaml.evaluate import (PROJECTION_FACTOR, STATUS_ERROR, STATUS_OK, STATUS_TIMEOUT,
                             BudgetClock, Deadline, EvalLog, EvalTimeout, EvaluationResult,
                             WORST_SCORE, evaluate, holdout_final)

from helpers import make_dataset, overlapping_binary, row_bytes


def majority_stub_pipeline():
    # a stump on constant features cannot split: it predicts the majority class
    return Pipeline((DEFAULT_SPACE.default_config("DecisionStumpClassifier"),))


def constant_features_dataset(n_maj=90, n_min=10):
    X = np.zeros((n_maj + n_min, 2))
    y = np.array([0] * n_maj + [1] * n_min)
    return Dataset.from_arrays("const", X, y)


def test_budget_clock_cap_is_tenth():
    clock = BudgetClock.start(50.0)
    assert clock.per_eval_cap == 5.0
    assert clock.remaining() <= 50.0


def test_majority_stub_scores_half():
    d = constant_features_dataset()
    folds = stratified_folds(d, 5, Rng(1))
    r = evaluate(majority_stub_pipeline(), d, folds, "balanced_accuracy", 10.0, Rng(2))
    assert r.status == STATUS_OK
    assert len(r.fold_scores) == 5
    # per-class recall {1.0, 0.0} on every stratified fold
    assert all(s == 0.5 for s in r.fold_scores)
    assert r.mean_score == 0.5


def test_fold_scores_mean():
    d = make_dataset({0: 30, 1: 15}, seed=1, spread=10.0)
    folds = stratified_folds(d, 5, Rng(1))
    p = Pipeline((DEFAULT_SPACE.default_config("DecisionTreeClassifier"),))
    r = evaluate(p, d, folds, "balanced_accuracy", 10.0, Rng(3))
    assert r.status == STATUS_OK
    assert r.mean_score == pytest.approx(float(np.mean(r.fold_scores)))
    assert r.fold_scores == (1.0,) * 5  # separable fixture


def test_timeout_yields_timeout_status():
    rng = Rng(4)
    X = rng.np.normal(size=(3000, 20))
    y = (rng.np.random(3000) < 0.3).astype(np.int64)
    d = Dataset.from_arrays("slow", X, y)
    folds = stratified_folds(d, 5, Rng(1))
    p = parse("PolynomialFeatures(degree=2) >> LogisticRegression(regularization=0.0001)",
              DEFAULT_SPACE)
    start = time.monotonic()
    r = evaluate(p, d, folds, "balanced_accuracy", 0.1, Rng(5))
    wall = time.monotonic() - start
    assert r.status == STATUS_TIMEOUT
    assert r.mean_score == WORST_SCORE
    assert wall < 2.0  # cancelled cooperatively well before a full fit


def test_deadline_check_projects():
    deadline = Deadline(10.0)
    now = time.monotonic()
    deadline.check(now - 1.0, 1, 5)  # 5 s more at 1 s a unit fits in 10 s
    with pytest.raises(EvalTimeout) as info:
        deadline.check(now - 1.0, 1, 100)
    assert 100.0 <= info.value.projected < 110.0
    deadline.check(None, 1, 100)  # no start: no rate, no projection
    Deadline(None).check(now - 1.0, 1, 1e9)


def test_runaway_forest_ends_by_projection():
    # 100 roots x ~270 rows x 3,320 columns x 2 classes after the expansion:
    # seconds of split search in the first step, on a 1 s cap
    rng = Rng(6)
    X = rng.np.normal(size=(400, 80))
    y = (rng.np.random(400) < 0.3).astype(np.int64)
    d = Dataset.from_arrays("wide", X, y)
    p = parse("PolynomialFeatures(degree=2) >> RandomForestClassifier(max_features=1.0)",
              DEFAULT_SPACE)
    r = evaluate(p, d, stratified_folds(d, 3, Rng(1)), "balanced_accuracy", 1.0, Rng(2))
    assert r.status == STATUS_TIMEOUT and r.fold_scores == () and r.detail == ""
    assert r.wall_clock < 0.5
    assert r.projected > PROJECTION_FACTOR * 0.5
    assert "projected" not in r.to_dict(include_timings=False)
    doc = json.loads(json.dumps(r.to_dict()))
    assert doc["projected"] == r.projected
    assert EvaluationResult.from_dict(doc) == r


def test_evaluate_hands_its_deadline_to_knn_prediction(monkeypatch):
    from imbaml.neighbors import NeighborIndex

    seen = []
    query_batch = NeighborIndex.query_batch

    def recording(self, queries, k, deadline=None):
        seen.append(deadline)
        return query_batch(self, queries, k, deadline)

    monkeypatch.setattr(NeighborIndex, "query_batch", recording)
    d = overlapping_binary(40, 16, seed=17)
    p = parse("KNeighborsClassifier(n_neighbors=3)", DEFAULT_SPACE)
    r = evaluate(p, d, stratified_folds(d, 3, Rng(1)), "balanced_accuracy", 60.0, Rng(2))
    assert r.status == STATUS_OK
    assert len(seen) == 3 and all(isinstance(x, Deadline) for x in seen)


def test_error_status_on_estimator_failure():
    # a single-class training fold breaks boosting; evaluation must not raise
    X = np.zeros((6, 1))
    X[:, 0] = np.arange(6)
    y = np.array([0, 0, 0, 0, 0, 1])
    d = Dataset.from_arrays("degenerate", X, y)
    folds = stratified_folds(d, 3, Rng(1))
    p = Pipeline((DEFAULT_SPACE.default_config("RUSBoostClassifier"),))
    r = evaluate(p, d, folds, "balanced_accuracy", 10.0, Rng(6))
    assert r.status == STATUS_ERROR
    assert r.detail


def test_result_ordering_is_total():
    ok = EvaluationResult("a", "A()", "balanced_accuracy", (0.5,), 0.5, 0.1)
    better = EvaluationResult("b", "B()", "balanced_accuracy", (0.9,), 0.9, 0.1)
    failed = EvaluationResult("c", "C()", "balanced_accuracy", (), WORST_SCORE,
                              0.1, STATUS_ERROR, "boom")
    timed = EvaluationResult("d", "D()", "balanced_accuracy", (), WORST_SCORE,
                             0.1, STATUS_TIMEOUT)
    ranked = sorted([failed, better, timed, ok], key=lambda r: r.sort_key())
    assert ranked[-1] is better and ranked[-2] is ok
    assert {ranked[0].status, ranked[1].status} == {STATUS_ERROR, STATUS_TIMEOUT}


def test_no_leakage_validation_rows_are_original():
    d = overlapping_binary(60, 20, seed=7)
    folds = stratified_folds(d, 5, Rng(2))
    original = row_bytes(d.features)
    seen_folds = []

    def probe(fold, X_val, y_val):
        seen_folds.append(fold)
        assert row_bytes(X_val) <= original

    p = parse("SMOTE(k_neighbours=5) >> DecisionTreeClassifier(criterion=gini, "
              "max_depth=20)", DEFAULT_SPACE)
    r = evaluate(p, d, folds, "balanced_accuracy", 10.0, Rng(8), probe=probe)
    assert r.status == STATUS_OK
    assert seen_folds == [0, 1, 2, 3, 4]


def test_train_fraction_subsamples_training_only():
    d = overlapping_binary(60, 20, seed=9)
    folds = stratified_folds(d, 4, Rng(3))
    p = Pipeline((DEFAULT_SPACE.default_config("GaussianNB"),))
    full = evaluate(p, d, folds, "balanced_accuracy", 10.0, Rng(10),
                    train_fraction=1.0)
    frac = evaluate(p, d, folds, "balanced_accuracy", 10.0, Rng(10),
                    train_fraction=0.34)
    assert full.status == frac.status == STATUS_OK
    # resource 1.0 reuses the untouched fold plan: exact same result
    again = evaluate(p, d, folds, "balanced_accuracy", 10.0, Rng(10))
    assert full.fold_scores == again.fold_scores


def test_holdout_final_train_equals_test():
    d = make_dataset({0: 20, 1: 10}, seed=11, spread=10.0)
    p = Pipeline((DEFAULT_SPACE.default_config("DecisionTreeClassifier"),))
    assert holdout_final(p, d, d, "balanced_accuracy", Rng(12)) == 1.0


def test_holdout_final_class_absent_at_train():
    train = make_dataset({0: 12, 1: 6}, seed=13, spread=8.0)
    rng = Rng(14)
    X = np.vstack([train.features, rng.np.normal(size=(4, 2)) + 40.0])
    y = np.concatenate([train.labels, np.full(4, 2)])
    test = Dataset.from_arrays(train.name, X, y,
                               label_names=("c0", "c1", "c2"))
    train3 = Dataset.from_arrays(train.name, train.features, train.labels,
                                 label_names=("c0", "c1", "c2"))
    p = Pipeline((DEFAULT_SPACE.default_config("DecisionTreeClassifier"),))
    score = holdout_final(p, train3, test, "balanced_accuracy", Rng(15))
    assert score <= (1.0 + 1.0 + 0.0) / 3  # unseen class recalls zero


@pytest.mark.parametrize("spread", [2.0, 0.5])
def test_sensitivity_without_the_positive_class_scores_zero(spread):
    # 60/30/3 rows in 5 folds: folds 3 and 4 hold no class-2 row. Such a
    # fold, or a holdout without class 2, scores 0.0, not class 1's recall;
    # at spread 0.5 the classes overlap and class 2 is predicted there too
    d = make_dataset({0: 60, 1: 30, 2: 3}, seed=3, spread=spread)
    folds = stratified_folds(d, 5, Rng(1))
    missing = [i for i in range(5) if not (d.labels[folds.val_indices(i)] == 2).any()]
    assert missing == [3, 4]
    p = Pipeline((DEFAULT_SPACE.default_config("GaussianNB"),))
    r = evaluate(p, d, folds, "sensitivity", None, Rng(2))
    assert r.status == STATUS_OK
    assert [r.fold_scores[i] for i in missing] == [0.0, 0.0]
    test = d.subset(np.flatnonzero(d.labels != 2))
    assert holdout_final(p, d, test, "sensitivity", Rng(0)) == 0.0


def test_holdout_final_matches_manual_replay():
    from imbaml.evaluate import fit_pipeline, Deadline
    from imbaml.metrics import confusion, score
    train = overlapping_binary(40, 16, seed=16)
    test = overlapping_binary(20, 8, seed=17)
    p = parse("SMOTE(k_neighbours=3) >> GaussianNB()", DEFAULT_SPACE)
    got = holdout_final(p, train, test, "balanced_accuracy", Rng(18))
    fitted = fit_pipeline(p, train, Rng(18).child(0), Deadline(None))
    expected = score(confusion(test.labels, fitted.predict(test.features)),
                     "balanced_accuracy")
    assert got == expected


def test_fit_pipeline_deadline_reaches_sampler_queries():
    from imbaml.evaluate import Deadline, EvalTimeout, fit_pipeline

    class ExpiresAfterFirstCheck(Deadline):
        def __init__(self):
            super().__init__(None)
            self.calls = 0

        def check(self):
            self.calls += 1
            if self.calls > 1:
                raise EvalTimeout()

    p = parse("TomekLinks() >> GaussianNB()", DEFAULT_SPACE)
    with pytest.raises(EvalTimeout) as info:
        fit_pipeline(p, overlapping_binary(40, 16, seed=16), Rng(1), ExpiresAfterFirstCheck())
    assert any(entry.name == "query_batch" for entry in info.traceback)


def test_eval_log_jsonl(tmp_path):
    path = tmp_path / "log.jsonl"
    with EvalLog(path) as log:
        log.append({"a": 1})
        log.append({"b": 2})
    lines = path.read_text().strip().splitlines()
    assert [json.loads(l) for l in lines] == [{"a": 1}, {"b": 2}]
