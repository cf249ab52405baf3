import multiprocessing
import os
import time

import numpy as np
import pytest

from imbaml import (DEFAULT_SPACE, ComponentSpec, Pipeline, Rng, SearchConfig,
                    SearchSpace, parse, random_pipeline, serialize)
from imbaml.dataset import stratified_folds
from imbaml.evaluate import STATUS_ERROR, STATUS_OK, STATUS_TIMEOUT, evaluate
from imbaml.search import (_FOLDS_CHILD, CROSSOVER_RATE, KILL_GRACE_S,
                           TOURNAMENT_SIZE, AshaState, SearchError, asha_rungs,
                           audit_asha_events, run_asha, run_asyncea, run_random,
                           run_search)
from imbaml.space import ESTIMATOR

from helpers import make_dataset, overlapping_binary


def quick_dataset():
    return make_dataset({0: 40, 1: 16}, seed=1, spread=6.0)


def quick_cfg(**kw):
    base = dict(budget=4.0, seed=3, folds_k=3)
    base.update(kw)
    return SearchConfig(**base)


def tree_pipeline():
    return Pipeline((DEFAULT_SPACE.default_config("DecisionTreeClassifier"),))


# ------------------------------------------------------------- random search

def test_random_history_counting_with_max_evals():
    rep = run_random(DEFAULT_SPACE, quick_dataset(), quick_cfg(max_evals=3))
    assert rep.evaluations_completed == 3
    assert len(rep.history) == 3


def test_random_single_worker_deterministic_trajectory():
    d = quick_dataset()
    reps = [run_random(DEFAULT_SPACE, d, quick_cfg(max_evals=6)) for _ in range(2)]
    a, b = ([(r.pipeline_text, r.status, r.fold_scores) for r in rep.history]
            for rep in reps)
    assert a == b


def test_random_finds_perfect_pipeline_on_separable_data():
    d = make_dataset({0: 30, 1: 12}, seed=2, spread=12.0)
    rep = run_random(DEFAULT_SPACE, d, SearchConfig(budget=10.0, seed=1, folds_k=3))
    assert rep.best is not None
    assert rep.best.mean_score == 1.0


def test_best_is_max_over_ok_history():
    rep = run_random(DEFAULT_SPACE, quick_dataset(), quick_cfg(max_evals=8))
    ok_scores = [r.mean_score for r in rep.history if r.ok]
    assert rep.best.mean_score == max(ok_scores)


def test_incumbent_nondecreasing_all_algorithms():
    d = quick_dataset()
    for runner in (run_random, run_asyncea, run_asha):
        rep = runner(DEFAULT_SPACE, d, quick_cfg(max_evals=12))
        best = -np.inf
        for r in rep.history:
            if r.ok:
                best = max(best, r.mean_score)
            assert rep.best.mean_score >= best or not rep.history
        assert rep.best.mean_score == best


# ------------------------------------------------------------------- AsyncEA

def test_asyncea_warm_start_dominance():
    d = quick_dataset()
    folds = stratified_folds(d, 3, Rng(5).child(_FOLDS_CHILD))  # the search's plan
    p = tree_pipeline()
    direct = evaluate(p, d, folds, "balanced_accuracy", 1.0, Rng(0))
    # budget only admits roughly one evaluation
    cfg = SearchConfig(budget=0.5, seed=5, folds_k=3, warm_start=(p,),
                       max_evals=1)
    rep = run_asyncea(DEFAULT_SPACE, d, cfg)
    assert rep.best is not None
    assert rep.best.pipeline_text == serialize(p)
    assert rep.best.mean_score >= direct.mean_score - 1e-12


def test_asyncea_population_never_exceeds_cap():
    d = quick_dataset()
    cfg = quick_cfg(population_size=4, max_evals=15)
    rep = run_asyncea(DEFAULT_SPACE, d, cfg)
    assert rep.evaluations_completed == 15  # ran: population stayed bounded


def test_asyncea_single_worker_trace_matches_replay_oracle():
    """Replays the documented steady-state protocol with the same rng stream."""
    from imbaml.pipeline import crossover, mutate
    from imbaml.search import _COORD_CHILD, _EVAL_CHILD_BASE

    d = quick_dataset()
    seed, pop_size, n_evals = 9, 3, 10
    folds = stratified_folds(d, 3, Rng(seed).child(_FOLDS_CHILD))
    cfg = SearchConfig(budget=60.0, seed=seed, folds_k=3,
                       population_size=pop_size, max_evals=n_evals)
    rep = run_asyncea(DEFAULT_SPACE, d, cfg)

    root = Rng(seed)
    coord = root.child(_COORD_CHILD)
    population = []
    trace = []
    for idx in range(n_evals):
        if idx < pop_size:
            pipeline = random_pipeline(DEFAULT_SPACE, coord)
        elif not population:
            pipeline = random_pipeline(DEFAULT_SPACE, coord)
        else:
            def tournament():
                k = min(TOURNAMENT_SIZE, len(population))
                contenders = coord.np.choice(len(population), size=k, replace=False)
                win = min(contenders, key=lambda i: (-population[i][1], i))
                return population[win][0]
            if len(population) >= 2 and coord.np.random() < CROSSOVER_RATE:
                pipeline = crossover(tournament(), tournament(), coord)
            else:
                pipeline = mutate(tournament(), DEFAULT_SPACE, coord).pipeline
        result = evaluate(pipeline, d, folds, "balanced_accuracy", 6.0,
                          root.child(_EVAL_CHILD_BASE + idx))
        trace.append((serialize(pipeline), result.status, result.fold_scores))
        if result.ok:
            if len(population) < pop_size:
                population.append((pipeline, result.mean_score))
            else:
                worst = min(range(len(population)),
                            key=lambda i: (population[i][1], -i))
                if result.mean_score > population[worst][1]:
                    population[worst] = (pipeline, result.mean_score)
    got = [(r.pipeline_text, r.status, r.fold_scores) for r in rep.history]
    assert got == trace


# ---------------------------------------------------------------------- ASHA

def test_asha_rung_schedule():
    rungs = asha_rungs()
    assert len(rungs) == 3
    assert rungs[0] == pytest.approx(1 / 9)
    assert rungs[1] == pytest.approx(1 / 3)
    assert rungs[2] == 1.0


def first_configs_job(state, n_configs):
    """``state.next_job()``, or None where it would start a configuration
    after the first ``n_configs``."""
    job = state.next_job()
    return None if job[1] == 0 and state.n_configs > n_configs else job


def test_asha_sequential_promotions_exact_counts():
    # 9 configs with strictly decreasing rung-0 quality, executed sequentially
    state = AshaState()
    quality = {}
    while True:
        job = first_configs_job(state, 9)
        if job is None:
            break
        key, rung = job
        if key not in quality:
            quality[key] = 1.0 - 0.05 * len(quality)  # arrival order = quality order
        state.record(key, rung, True, quality[key] - 0.001 * rung)
    assert state.promotions_to(1) == 3
    assert state.promotions_to(2) == 1
    # with descending arrival quality the synchronous-limit trace promotes the top 3
    promoted1 = [ev["config"] for ev in state.events
                 if ev["event"] == "promotion" and ev["to_rung"] == 1]
    assert promoted1 == ["cfg1", "cfg2", "cfg3"]
    audit_asha_events(state.events, 3)


def test_asha_audit_rejects_bogus_promotion():
    state = AshaState()
    for i in range(3):
        key, rung = state.next_job()
        state.record(key, rung, True, 0.5 + 0.1 * i)
    events = list(state.events)
    events.append({"event": "promotion", "config": "cfg1", "from_rung": 0,
                   "to_rung": 1, "order": 99, "n_completed": 3, "cutoff": 1})
    with pytest.raises(SearchError):
        audit_asha_events(events, 3)  # cfg3 is the top-1, not cfg1


def test_asha_audit_on_random_async_schedules():
    rng = Rng(31)
    for trial in range(100):
        state = AshaState()
        pending = []
        for _ in range(60):
            if pending and (rng.np.random() < 0.5 or len(pending) >= 4):
                i = int(rng.np.integers(len(pending)))
                key, rung = pending.pop(i)
                ok = rng.np.random() > 0.1
                state.record(key, rung, ok, float(rng.np.random()) if ok else None)
            else:
                job = first_configs_job(state, 12)
                if job is None:
                    continue
                pending.append(job)
        audit_asha_events(state.events, 3)


def test_asha_full_resource_uses_untouched_folds():
    d = quick_dataset()
    folds = stratified_folds(d, 3, Rng(2))
    probes = []

    def probe(fold, X_val, y_val):
        probes.append((fold, X_val.shape[0]))

    p = tree_pipeline()
    evaluate(p, d, folds, "balanced_accuracy", 5.0, Rng(1),
             train_fraction=1.0, probe=probe)
    sizes = [folds.val_indices(i).size for i in range(3)]
    assert [s for _, s in probes] == sizes


def test_asha_selected_prefers_full_resource():
    d = quick_dataset()
    rep = run_asha(DEFAULT_SPACE, d, quick_cfg(budget=8.0, max_evals=30))
    assert rep.selected is not None
    full = [ev for ev in rep.events if ev["event"] == "eval_completed"
            and ev["rung"] == 2 and ev["ok"]]
    if full:
        assert rep.selected.mean_score == max(ev["score"] for ev in full)
    audit_asha_events(rep.events, 3)


# ------------------------------------------------------------- default pins

# sha256 of each algorithm's ``to_json(include_timings=False)`` report for the
# run in ``test_default_trajectories_are_pinned``: a change that moves any
# search default (fold plan, tournament, crossover rate, ASHA rungs, an
# estimator or tree default) changes the hash
DEFAULT_TRAJECTORY_SHA256 = {
    "random": "c80cba284aea2bcdbc9a0ad78f7173ec4e4575322f64d1fb0385d27e835912f2",
    "asyncea": "a0f0975bc2fcf0a3601d58defce96adf4988052f5b78bc262f956c32456fa99f",
    "asha": "e161b61acba41437aee54e779061a2fa0c9e53b19544451391cbae1c1c6213b1",
}


@pytest.mark.parametrize("algorithm", sorted(DEFAULT_TRAJECTORY_SHA256))
def test_default_trajectories_are_pinned(algorithm):
    import hashlib
    import json

    d = overlapping_binary(60, 20, seed=4, d=3)
    # a 60 s per-evaluation cap: no evaluation comes near it or its projection
    cfg = SearchConfig(algorithm=algorithm, budget=600.0, seed=7,
                       population_size=3, max_evals=8)
    doc = run_search(DEFAULT_SPACE, d, cfg).to_json(include_timings=False)
    assert [r["status"] for r in doc["history"]] == [STATUS_OK] * 8
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == DEFAULT_TRAJECTORY_SHA256[algorithm]


# ---------------------------------------------------------- budget compliance

def test_budget_compliance_quick():
    d = quick_dataset()
    for runner in (run_random, run_asyncea, run_asha):
        rep = runner(DEFAULT_SPACE, d, SearchConfig(budget=2.0, seed=1, folds_k=3))
        assert rep.wall_clock <= 2.0 + 0.2 + 0.05


def test_late_dispatch_cap_is_what_remains(monkeypatch, tmp_path):
    import json
    import time

    from imbaml import search
    from imbaml.evaluate import BudgetClock
    from imbaml.search import SearchReport

    # a clock that has already spent 95% of a 10 s budget: a tenth of the
    # budget (1 s) is more than the 0.5 s that remains
    monkeypatch.setattr(BudgetClock, "start", classmethod(
        lambda cls, budget: cls(float(budget), time.monotonic() - 9.5, budget / 10.0)))
    caps = []
    real_evaluate = search.evaluate

    def spy_evaluate(p, d, folds, metric, cap, rng, **kw):
        caps.append(cap)
        return real_evaluate(p, d, folds, metric, cap, rng, **kw)

    monkeypatch.setattr(search, "evaluate", spy_evaluate)
    log = tmp_path / "evals.jsonl"
    rep = run_random(DEFAULT_SPACE, quick_dataset(),
                     quick_cfg(budget=10.0, max_evals=1, log_path=str(log)))
    assert rep.header["per_eval_cap"] == 1.0
    assert len(caps) == 1 and 0.0 < caps[0] <= 0.5
    # the record says which cap the evaluation ran under, not the header's
    record = json.loads(log.read_text().splitlines()[0])
    assert record["cap"] == caps[0]
    assert rep.history[0].cap == caps[0]
    assert SearchReport.from_json(rep.to_json()).history[0].cap == caps[0]
    assert "cap" not in rep.to_json(include_timings=False)["history"][0]


def test_no_result_flag_on_empty_run():
    d = quick_dataset()
    rep = run_random(DEFAULT_SPACE, d, SearchConfig(budget=1.0, seed=1,
                                                    folds_k=3, max_evals=0))
    assert rep.no_result and rep.best is None


def test_run_search_dispatch_and_report_json():
    d = quick_dataset()
    rep = run_search(DEFAULT_SPACE, d, quick_cfg(algorithm="asha", max_evals=6))
    doc = rep.to_json()
    assert doc["algorithm"] == "asha"
    assert "asha_resource_axis" in doc["header"]
    assert doc["header"]["balanced_accuracy_definition"].startswith("unweighted mean")
    from imbaml.search import SearchReport
    back = SearchReport.from_json(doc)
    assert back.best.mean_score == rep.best.mean_score
    assert len(back.history) == len(rep.history)


def test_eval_log_written(tmp_path):
    d = quick_dataset()
    log_path = tmp_path / "evals.jsonl"
    rep = run_asha(DEFAULT_SPACE, d, quick_cfg(max_evals=8, log_path=str(log_path)))
    import json
    lines = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert sum(1 for l in lines if l["type"] == "evaluation") == len(rep.history)
    promos = [l for l in lines if l["type"] == "promotion"]
    assert len(promos) == sum(1 for ev in rep.events if ev["event"] == "promotion")


def test_multi_worker_run_completes():
    d = quick_dataset()
    rep = run_random(DEFAULT_SPACE, d, quick_cfg(worker_count=3, budget=3.0))
    assert rep.evaluations_completed >= 1
    assert rep.wall_clock <= 3.0 + 0.3 + 0.1


# ------------------------------------------------------ forked worker processes

class _Sleeper:
    """An estimator whose fit ignores the deadline."""

    def fit(self, X, y, n_classes, rng=None, deadline=None):
        time.sleep(20.0)


class _Crasher:
    """An estimator whose fit ends the whole process: only ever run it in a
    forked worker."""

    def fit(self, X, y, n_classes, rng=None, deadline=None):
        os._exit(3)


def space_with(*extra):
    specs = [ComponentSpec(name, ESTIMATOR, (), build=cls) for name, cls in extra]
    return SearchSpace(list(DEFAULT_SPACE.components.values()) + specs)


def test_worker_past_its_cap_is_killed():
    space = space_with(("Sleeper", _Sleeper))
    warm = tuple(parse(t, space) for t in
                 ("Sleeper()", "DecisionTreeClassifier()", "GaussianNB()"))
    rep = run_random(space, quick_dataset(), quick_cfg(
        budget=10.0, worker_count=2, warm_start=warm, max_evals=3))
    by_text = {r.pipeline_text: r for r in rep.history}
    slept = by_text["Sleeper()"]
    assert slept.status == STATUS_TIMEOUT and slept.cap == 1.0
    assert slept.wall_clock <= slept.cap + KILL_GRACE_S + 0.3
    others = [r for r in rep.history if r is not slept]
    assert len(others) == 2 and all(r.status == STATUS_OK for r in others)


def test_worker_crash_is_an_error_and_the_search_goes_on():
    space = space_with(("Crasher", _Crasher))
    warm = tuple(parse(t, space) for t in ("Crasher()", "DecisionTreeClassifier()"))
    rep = run_random(space, quick_dataset(), quick_cfg(
        worker_count=2, warm_start=warm, max_evals=4))
    assert rep.evaluations_completed == 4
    crashed = [r for r in rep.history if r.pipeline_text == "Crasher()"]
    assert len(crashed) == 1 and crashed[0].status == STATUS_ERROR
    assert "exited with code 3" in crashed[0].detail
    assert rep.best is not None


def test_coordinator_failure_kills_workers_in_flight(monkeypatch):
    from imbaml import search

    def failing_proposal(space, rng):
        raise RuntimeError("proposal failed")

    monkeypatch.setattr(search, "random_pipeline", failing_proposal)
    space = space_with(("Sleeper", _Sleeper))
    warm = (parse("Sleeper()", space),) * 2
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="proposal failed"):
        run_random(space, quick_dataset(), quick_cfg(
            budget=60.0, worker_count=3, warm_start=warm))
    assert time.monotonic() - started < 5.0
    assert multiprocessing.active_children() == []


def test_two_workers_give_the_single_worker_results():
    d = quick_dataset()
    runs = [run_random(DEFAULT_SPACE, d, quick_cfg(budget=100.0, max_evals=8,
                                                  worker_count=w))
            for w in (1, 2)]
    one, two = (sorted((r.pipeline_text, r.status, r.fold_scores) for r in rep.history)
                for rep in runs)
    assert all(status != STATUS_TIMEOUT for _, status, _ in one)
    assert one == two


def test_several_workers_need_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with pytest.raises(SearchError, match="'fork' start method"):
        SearchConfig(worker_count=2)
    assert SearchConfig(worker_count=1).worker_count == 1


# ------------------------------------------------------ search-owned graphs

def test_search_computes_each_neighbour_list_once_and_keeps_none(monkeypatch):
    from imbaml.neighbors import NeighborIndex

    d = overlapping_binary(60, 25, seed=5)
    graph_rows = []  # rows whose lists are computed: queries of the whole set
    query_batch = NeighborIndex.query_batch

    def spy(self, queries, k, deadline=None):
        if len(self) == d.n:
            graph_rows.append(len(queries))
        return query_batch(self, queries, k, deadline)

    monkeypatch.setattr(NeighborIndex, "query_batch", spy)
    warm = tuple(parse(t, DEFAULT_SPACE) for t in
                 ("TomekLinks() >> GaussianNB()", "TomekLinks() >> DecisionStumpClassifier()",
                  "TomekLinks() >> GaussianNB()"))
    cfg = quick_cfg(budget=60.0, folds_k=5, warm_start=warm, max_evals=3)
    for _ in range(2):  # a second search on the same dataset starts cold
        graph_rows.clear()
        rep = run_random(DEFAULT_SPACE, d, cfg)
        assert [r.status for r in rep.history] == [STATUS_OK] * 3
        assert len(graph_rows) >= 2 and sum(graph_rows) == d.n
    assert d.neighbours is None
