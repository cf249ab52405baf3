"""Budgeted pipeline search: random search, steady-state asynchronous
evolution, and asynchronous successive halving (rungs over training-subsample
fractions).

One coordinator owns all algorithm state. With a single worker it runs each
evaluation itself and the whole trajectory is deterministic given the seed.
With ``worker_count`` > 1 it forks one child process per evaluation, keeps up
to ``worker_count`` of them running, and takes their results in completion
order; a child still running ``KILL_GRACE_S`` after its cap is killed.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection, wait

from .dataset import Dataset, FoldPlan, stratified_folds
from .evaluate import (STATUS_ERROR, STATUS_TIMEOUT, BudgetClock, EvalLog,
                       EvaluationResult, WORST_SCORE, evaluate)
from .metrics import BALANCED_ACCURACY_DEFINITION, METRIC_IDS
from .pipeline import Pipeline, crossover, mutate, random_pipeline, serialize
from .rng import Rng
from .space import SearchSpace

_FOLDS_CHILD = 11
_COORD_CHILD = 13
_EVAL_CHILD_BASE = 1_000_000

ASHA_RESOURCE_AXIS = ("training rows per fold: rung resource r keeps a "
                      "stratified fraction r of each training partition")

# Seconds past its cap after which a worker process still evaluating is
# killed; cooperative deadline checks normally end an evaluation well before.
KILL_GRACE_S = 0.5


class SearchError(ValueError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    algorithm: str = "asyncea"
    metric: str = "balanced_accuracy"
    budget: float = 3600.0
    worker_count: int = 1
    seed: int = 0
    warm_start: tuple[Pipeline, ...] = ()
    folds_k: int = 5
    folds: FoldPlan | None = None
    population_size: int = 50
    tournament_size: int = 3
    crossover_rate: float = 0.3
    reduction_factor: int = 3
    min_resource: float = 1.0 / 9.0
    max_evals: int | None = None
    log_path: str | None = None

    def __post_init__(self):
        if self.algorithm not in ("random", "asyncea", "asha"):
            raise SearchError(f"unknown search algorithm '{self.algorithm}'")
        if self.metric not in METRIC_IDS:
            raise SearchError(f"unknown metric '{self.metric}'")
        if self.budget <= 0:
            raise SearchError("budget must be positive")
        if self.worker_count < 1:
            raise SearchError("worker_count must be >= 1")
        if self.worker_count > 1 and "fork" not in multiprocessing.get_all_start_methods():
            raise SearchError(
                "worker_count > 1 needs the 'fork' start method, which this platform "
                "lacks: each evaluation runs in a forked child that inherits the "
                "dataset and the search space, whose builders cannot be pickled")
        if (self.population_size < 1 or self.tournament_size < 1
                or self.reduction_factor < 2 or not 0 < self.min_resource <= 1):
            raise SearchError("invalid algorithm knob")


@dataclass
class SearchReport:
    algorithm: str
    metric: str
    seed: int
    budget: float
    best: EvaluationResult | None
    selected: EvaluationResult | None
    history: list[EvaluationResult]
    evaluations_completed: int
    evaluations_timed_out: int
    wall_clock: float
    no_result: bool
    events: list[dict] = field(default_factory=list)
    header: dict = field(default_factory=dict)

    def to_json(self, include_timings: bool = True) -> dict:
        return {
            "algorithm": self.algorithm,
            "metric": self.metric,
            "seed": self.seed,
            "budget": self.budget,
            "header": self.header,
            "no_result": self.no_result,
            "best": self.best.to_dict(include_timings) if self.best else None,
            "selected": self.selected.to_dict(include_timings) if self.selected else None,
            "evaluations_completed": self.evaluations_completed,
            "evaluations_timed_out": self.evaluations_timed_out,
            "wall_clock": self.wall_clock if include_timings else None,
            "events": self.events,
            "history": [r.to_dict(include_timings) for r in self.history],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SearchReport":
        best = doc.get("best")
        selected = doc.get("selected")
        return cls(
            doc["algorithm"], doc["metric"], doc.get("seed", 0), doc.get("budget", 0.0),
            EvaluationResult.from_dict(best) if best else None,
            EvaluationResult.from_dict(selected) if selected else None,
            [EvaluationResult.from_dict(r) for r in doc.get("history", [])],
            doc.get("evaluations_completed", 0), doc.get("evaluations_timed_out", 0),
            doc.get("wall_clock") or 0.0, doc.get("no_result", False),
            doc.get("events", []), doc.get("header", {}))


@dataclass(frozen=True)
class _Job:
    pipeline: Pipeline
    index: int
    train_fraction: float = 1.0
    tag: object = None


@dataclass
class _Child:
    """One evaluation running in a forked worker process."""

    job: _Job
    cap: float
    metric: str
    started: float
    process: multiprocessing.process.BaseProcess
    reader: Connection

    @property
    def kill_at(self) -> float:
        return self.started + self.cap + KILL_GRACE_S

    def result(self) -> EvaluationResult:
        """The result the child sent, once its pipe is ready; ``error`` naming
        the exit code when it died without sending one."""
        try:
            doc = self.reader.recv()
        except (EOFError, OSError):  # closed, or closed mid-message
            doc = None
        self.process.join()
        self.reader.close()
        if doc is not None:
            return EvaluationResult.from_dict(doc)
        return self._failed(STATUS_ERROR, f"worker process exited with code "
                                          f"{self.process.exitcode} without a result")

    def kill(self) -> EvaluationResult:
        """Kill and reap the child; its evaluation counts as a timeout."""
        self.process.kill()
        self.process.join()
        self.reader.close()
        return self._failed(STATUS_TIMEOUT, "")

    def _failed(self, status: str, detail: str) -> EvaluationResult:
        p = self.job.pipeline
        return EvaluationResult(p.id, serialize(p), self.metric, (), WORST_SCORE,
                                time.monotonic() - self.started, status, detail, self.cap)


class _Driver:
    """Owns the clock, worker processes, history and incumbent for one search run."""

    def __init__(self, space: SearchSpace, d: Dataset, cfg: SearchConfig, probe=None):
        self.space = space
        self.d = d
        self.cfg = cfg
        self.probe = probe
        self.clock = BudgetClock.start(cfg.budget)
        root = Rng(cfg.seed)
        self.coord = root.child(_COORD_CHILD)
        self._root = root
        self.folds = cfg.folds or stratified_folds(d, cfg.folds_k, root.child(_FOLDS_CHILD))
        self.history: list[EvaluationResult] = []
        self.best: EvaluationResult | None = None
        self.submitted = 0
        self.log = EvalLog(cfg.log_path) if cfg.log_path else None

    def can_dispatch(self) -> bool:
        if self.cfg.max_evals is not None and self.submitted >= self.cfg.max_evals:
            return False
        return self.clock.remaining() > 0

    def make_job(self, pipeline: Pipeline, train_fraction: float = 1.0, tag=None) -> _Job:
        job = _Job(pipeline, self.submitted, train_fraction, tag)
        self.submitted += 1
        return job

    def cap(self) -> float:
        # a late dispatch gets only what is left of the budget
        return min(self.clock.per_eval_cap, self.clock.remaining())

    def execute(self, job: _Job, cap: float) -> EvaluationResult:
        return evaluate(job.pipeline, self.d, self.folds, self.cfg.metric, cap,
                        self._root.child(_EVAL_CHILD_BASE + job.index),
                        train_fraction=job.train_fraction, probe=self.probe)

    def fork(self, job: _Job) -> _Child:
        """Start ``job`` in a forked child, which inherits the dataset, folds
        and search space and sends back only ``EvaluationResult.to_dict()``."""
        # fork, not spawn: user search spaces hold lambda builders, which do
        # not pickle, and the coordinator starts no threads of its own
        ctx = multiprocessing.get_context("fork")
        cap = self.cap()
        reader, writer = ctx.Pipe(duplex=False)
        started = time.monotonic()
        process = ctx.Process(target=self._evaluate_in_child, args=(job, cap, writer))
        process.start()
        writer.close()  # the child holds the only writer: its exit ends the pipe
        return _Child(job, cap, self.cfg.metric, started, process, reader)

    def _evaluate_in_child(self, job: _Job, cap: float, writer: Connection):
        writer.send(self.execute(job, cap).to_dict())

    def record(self, job: _Job, result: EvaluationResult):
        self.history.append(result)
        if result.ok and (self.best is None or result.sort_key() > self.best.sort_key()):
            self.best = result
        if self.log:
            rec = result.to_dict()
            rec["type"] = "evaluation"
            rec["submission_index"] = job.index
            if job.tag is not None:
                rec["tag"] = str(job.tag)
            self.log.append(rec)

    def log_event(self, event: dict):
        if self.log:
            self.log.append(dict(event, type=event.get("event", "event")))

    def close(self):
        if self.log:
            self.log.close()

    def run(self, propose, on_result):
        """Dispatch pump: keeps up to worker_count evaluations in flight.

        One worker evaluates in this process. More workers each run one
        evaluation in a forked child. The coordinator sleeps until a result
        arrives or the earliest kill time; a child still running
        ``KILL_GRACE_S`` past its cap is killed (``timeout``), and one that
        dies without a result gets ``error``. Evaluations that finish in the
        same wake-up reach ``on_result`` in job-index order. If ``propose``
        or ``on_result`` raises, every child still in flight is killed.
        """
        if self.cfg.worker_count == 1:
            while self.can_dispatch():
                job = propose()
                if job is None:
                    break
                on_result(job, self.execute(job, self.cap()))
            return
        in_flight: dict[Connection, _Child] = {}
        try:
            while True:
                stalled = False
                while self.can_dispatch() and len(in_flight) < self.cfg.worker_count:
                    job = propose()
                    if job is None:
                        stalled = True
                        break
                    child = self.fork(job)
                    in_flight[child.reader] = child
                if not in_flight:
                    if stalled or not self.can_dispatch():
                        break
                    continue
                kill_at = min(child.kill_at for child in in_flight.values())
                ready = wait(list(in_flight), max(0.0, kill_at - time.monotonic()))
                now = time.monotonic()
                done = []
                for reader, child in list(in_flight.items()):
                    if reader in ready:
                        done.append((child.job, child.result()))
                    elif child.kill_at <= now:
                        done.append((child.job, child.kill()))
                    else:
                        continue
                    del in_flight[reader]
                for job, result in sorted(done, key=lambda jr: jr[0].index):
                    on_result(job, result)
        finally:
            for child in in_flight.values():
                child.kill()

    def report(self, algorithm: str, selected: EvaluationResult | None = None,
               events: list[dict] | None = None) -> SearchReport:
        header = {
            "balanced_accuracy_definition": BALANCED_ACCURACY_DEFINITION,
            "folds": self.folds.k,
            "per_eval_cap": self.clock.per_eval_cap,
        }
        if algorithm == "asha":
            header["asha_resource_axis"] = ASHA_RESOURCE_AXIS
        return SearchReport(
            algorithm=algorithm, metric=self.cfg.metric, seed=self.cfg.seed,
            budget=self.cfg.budget, best=self.best,
            selected=selected if selected is not None else self.best,
            history=self.history,
            evaluations_completed=len(self.history),
            evaluations_timed_out=sum(1 for r in self.history
                                      if r.status == STATUS_TIMEOUT),
            wall_clock=self.clock.elapsed(),
            no_result=self.best is None,
            events=events or [], header=header)


def run_random(space: SearchSpace, d: Dataset, cfg: SearchConfig, probe=None) -> SearchReport:
    """Fresh random pipelines until the budget runs out; warm-start pipelines,
    if any, are dispatched first."""
    cfg = replace(cfg, algorithm="random")
    driver = _Driver(space, d, cfg, probe)
    pending = list(cfg.warm_start)

    def propose():
        p = pending.pop(0) if pending else random_pipeline(space, driver.coord)
        return driver.make_job(p)

    try:
        driver.run(propose, driver.record)
        return driver.report("random")
    finally:
        driver.close()


def run_asyncea(space: SearchSpace, d: Dataset, cfg: SearchConfig, probe=None) -> SearchReport:
    """Steady-state asynchronous evolution.

    The initial population is the warm-start list padded with random
    pipelines up to ``population_size`` and evaluated first. After that each
    free worker receives a child bred by tournament selection plus crossover
    (with probability ``crossover_rate``) or mutation; a completed child
    replaces the current worst member when strictly better. Failed
    evaluations stay in the history but never enter the population.
    """
    cfg = replace(cfg, algorithm="asyncea")
    driver = _Driver(space, d, cfg, probe)
    coord = driver.coord
    warm = list(cfg.warm_start)
    init_target = max(cfg.population_size, len(warm))
    init_sent = 0
    population: list[tuple[Pipeline, EvaluationResult]] = []

    def tournament() -> Pipeline:
        k = min(cfg.tournament_size, len(population))
        contenders = coord.np.choice(len(population), size=k, replace=False)
        winner = min(contenders, key=lambda i: (-population[i][1].mean_score, i))
        return population[winner][0]

    def propose():
        nonlocal init_sent
        if init_sent < init_target:
            p = warm[init_sent] if init_sent < len(warm) else random_pipeline(space, coord)
            init_sent += 1
            return driver.make_job(p, tag="init")
        if not population:
            return driver.make_job(random_pipeline(space, coord), tag="reseed")
        if len(population) >= 2 and coord.np.random() < cfg.crossover_rate:
            child = crossover(tournament(), tournament(), coord)
        else:
            child = mutate(tournament(), space, coord).pipeline
        return driver.make_job(child, tag="child")

    def on_result(job: _Job, result: EvaluationResult):
        driver.record(job, result)
        if not result.ok:
            return
        if len(population) < cfg.population_size:
            population.append((job.pipeline, result))
            return
        worst = min(range(len(population)),
                    key=lambda i: (population[i][1].mean_score, -i))
        if result.mean_score > population[worst][1].mean_score:
            population[worst] = (job.pipeline, result)

    try:
        driver.run(propose, on_result)
        return driver.report("asyncea")
    finally:
        driver.close()


def asha_rungs(reduction_factor: int, min_resource: float) -> tuple[float, ...]:
    """Geometric resource schedule min_resource * eta^i, capped at 1.0."""
    rungs = []
    r = float(min_resource)
    while r < 1.0 - 1e-12:
        rungs.append(r)
        r *= reduction_factor
    rungs.append(1.0)
    return tuple(rungs)


def _score_key(ok: bool, mean):
    return (1 if ok else 0, mean if ok else WORST_SCORE)


class AshaState:
    """Bookkeeping for asynchronous successive halving.

    A configuration is promoted from rung i when its completed rung-i score
    ranks in the top 1/eta of all completed rung-i entries at decision time;
    each (config, rung) promotes at most once. ``events`` is the audit trail.
    """

    def __init__(self, reduction_factor: int, min_resource: float,
                 max_configs: int | None = None):
        self.eta = int(reduction_factor)
        self.resources = asha_rungs(reduction_factor, min_resource)
        self.completed: list[list[tuple]] = [[] for _ in self.resources]
        self.promoted: set[tuple] = set()
        self.n_configs = 0
        self.max_configs = max_configs
        self.events: list[dict] = []
        self._order = 0

    @property
    def top_rung(self) -> int:
        return len(self.resources) - 1

    def record(self, key: str, rung: int, ok: bool, mean_score) -> None:
        self._order += 1
        self.completed[rung].append((key, _score_key(ok, mean_score), self._order))
        self.events.append({"event": "eval_completed", "config": key, "rung": rung,
                            "ok": ok, "score": mean_score if ok else None,
                            "order": self._order})

    def _promotable(self, rung: int):
        entries = self.completed[rung]
        cutoff = len(entries) // self.eta
        if cutoff == 0:
            return None
        ranked = sorted(entries, key=lambda e: (-e[1][0], -e[1][1], e[2]))
        for key, _, _ in ranked[:cutoff]:
            if (key, rung) not in self.promoted:
                return key
        return None

    def next_job(self):
        """(key, rung) to run next: highest promotable rung wins, else a new
        rung-0 configuration, else None."""
        for rung in range(self.top_rung - 1, -1, -1):
            key = self._promotable(rung)
            if key is not None:
                self.promoted.add((key, rung))
                self._order += 1
                self.events.append({
                    "event": "promotion", "config": key, "from_rung": rung,
                    "to_rung": rung + 1, "order": self._order,
                    "n_completed": len(self.completed[rung]),
                    "cutoff": len(self.completed[rung]) // self.eta})
                return key, rung + 1
        if self.max_configs is None or self.n_configs < self.max_configs:
            self.n_configs += 1
            return f"cfg{self.n_configs}", 0
        return None

    def promotions_to(self, rung: int) -> int:
        return sum(1 for ev in self.events
                   if ev["event"] == "promotion" and ev["to_rung"] == rung)


def audit_asha_events(events: list[dict], eta: int) -> None:
    """Replays an event log and verifies promotion soundness: every promotion
    names a config with a completed entry ranked in the top 1/eta of its rung
    at that instant. Raises SearchError on the first violation."""
    completed: dict[int, list[tuple]] = {}
    for ev in sorted(events, key=lambda e: e["order"]):
        if ev["event"] == "eval_completed":
            completed.setdefault(ev["rung"], []).append(
                (ev["config"], _score_key(ev["ok"], ev["score"] if ev["ok"] else None),
                 ev["order"]))
        elif ev["event"] == "promotion":
            entries = completed.get(ev["from_rung"], [])
            cutoff = len(entries) // eta
            if cutoff == 0:
                raise SearchError(
                    f"promotion of {ev['config']} with no promotable slot "
                    f"(n={len(entries)})")
            ranked = sorted(entries, key=lambda e: (-e[1][0], -e[1][1], e[2]))
            top = {key for key, _, _ in ranked[:cutoff]}
            if ev["config"] not in top:
                raise SearchError(
                    f"promotion of {ev['config']} from rung {ev['from_rung']} "
                    f"outside the top 1/{eta}")


def run_asha(space: SearchSpace, d: Dataset, cfg: SearchConfig, probe=None) -> SearchReport:
    """Asynchronous successive halving over training-subsample fractions.

    The returned report's ``selected`` entry is the best full-resource result
    (falling back to the best of any rung); ``best`` is the best result over
    the whole history regardless of rung.
    """
    cfg = replace(cfg, algorithm="asha")
    driver = _Driver(space, d, cfg, probe)
    state = AshaState(cfg.reduction_factor, cfg.min_resource)
    pipelines: dict[str, Pipeline] = {}
    warm = list(cfg.warm_start)
    best_full: EvaluationResult | None = None
    logged_events = 0

    def propose():
        job = state.next_job()
        if job is None:
            return None
        key, rung = job
        if key not in pipelines:
            pipelines[key] = (warm.pop(0) if warm
                              else random_pipeline(space, driver.coord))
        return driver.make_job(pipelines[key], state.resources[rung], tag=(key, rung))

    def on_result(job: _Job, result: EvaluationResult):
        nonlocal best_full, logged_events
        key, rung = job.tag
        driver.record(job, result)
        state.record(key, rung, result.ok, result.mean_score if result.ok else None)
        if (rung == state.top_rung and result.ok
                and (best_full is None or result.sort_key() > best_full.sort_key())):
            best_full = result
        for ev in state.events[logged_events:]:
            driver.log_event(ev)
        logged_events = len(state.events)

    try:
        driver.run(propose, on_result)
        return driver.report("asha", selected=best_full or driver.best,
                             events=list(state.events))
    finally:
        driver.close()


_RUNNERS = {"random": run_random, "asyncea": run_asyncea, "asha": run_asha}


def run_search(space: SearchSpace, d: Dataset, cfg: SearchConfig, probe=None) -> SearchReport:
    return _RUNNERS[cfg.algorithm](space, d, cfg, probe=probe)
