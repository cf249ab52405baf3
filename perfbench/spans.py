"""Span tracing for the traced run, installed from outside the program.

``Tracer.install`` replaces public functions and methods of the imbaml
modules with wrappers that record one span per call: name, layer, start,
end, parent span and the evaluation the span belongs to. Each thread keeps
its own span stack, so with several search workers every span is charged to
the evaluation that caused it. Spans stay in memory until ``write``.
Nothing here is imported by the untraced run.
"""

from __future__ import annotations

import functools
import json
import threading
import time

ROOT = "search.evaluate"

SAMPLER_NAMES = (
    "SMOTE", "BorderlineSMOTE", "ADASYN", "EditedNearestNeighbours",
    "CondensedNearestNeighbour", "AllKNN", "ClusterCentroids", "TomekLinks",
    "SMOTEENN", "SMOTETomek",
)
PREPROCESSOR_NAMES = ("Normalizer", "Binarizer", "VarianceThreshold", "PCA",
                      "PolynomialFeatures")
ESTIMATOR_NAMES = (
    "BalancedRandomForestClassifier", "BalancedBaggingClassifier",
    "RUSBoostClassifier", "DecisionTreeClassifier", "DecisionStumpClassifier",
    "RandomForestClassifier", "KNeighborsClassifier", "LogisticRegression",
    "GaussianNB",
)


class Span:
    __slots__ = ("id", "parent", "root", "name", "layer", "phase", "start",
                 "end", "attrs")

    def __init__(self, id, parent, root, name, layer, phase, start):
        self.id, self.parent, self.root = id, parent, root
        self.name, self.layer, self.phase, self.start = name, layer, phase, start
        self.end = start
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "root": self.root,
                "name": self.name, "layer": self.layer, "phase": self.phase,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if name == ROOT:
            root = span_id
        else:
            root = parent.root if parent is not None else None
        span = Span(span_id, parent.id if parent else None, root, name, layer,
                    self.phase, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, layer: str, on_return=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_return(span, args, kwargs, result)`` may add attributes; it is
        not called when the wrapped function raises.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the layer boundaries of imbaml."""
        import importlib

        import imbaml
        from imbaml import dataset, estimators, neighbors, preprocessing, search, tree
        # the package re-exports the function `evaluate` under the module's name
        evaluate = importlib.import_module("imbaml.evaluate")

        def eval_attrs(span, args, kwargs, result):
            span.attrs.update(pipeline=result.pipeline_text, status=result.status,
                              wall_clock=result.wall_clock)

        def sampler_attrs(span, args, kwargs, result):
            config, d = args[0], args[1]
            notes = result.provenance[len(d.provenance):]
            span.attrs.update(component=config.name, rows_in=d.n, rows_out=result.n,
                              fallbacks=sum("fallback" in n for n in notes))

        def preprocessor_attrs(span, args, kwargs, result):
            span.attrs["component"] = args[0].name

        def transform_attrs(span, args, kwargs, result):
            span.attrs.update(component=type(args[0]).__name__,
                              cols_out=int(result.shape[1]))

        def estimator_attrs(span, args, kwargs, result):
            span.attrs["component"] = args[0].name
            model = result.model
            if isinstance(model, estimators.LogisticRegression):
                span.attrs.update(lr_iterations=model.iterations,
                                  lr_unconverged=model.grad_norm >= model.GRAD_TOL)

        def distance_attrs(span, args, kwargs, result):
            span.attrs["pairs"] = int(result.shape[0]) * int(result.shape[1])

        def tree_attrs(span, args, kwargs, result):
            span.attrs["nodes"] = result.node_count()

        self.wrap(search, "evaluate", ROOT, "evaluate", eval_attrs)
        for fn in ("random_pipeline", "mutate", "crossover"):
            self.wrap(search, fn, f"search.{fn}", "search")
        self.wrap(evaluate, "fit_pipeline", "evaluate.fit_pipeline", "evaluate")
        self.wrap(evaluate.FittedPipeline, "predict", "evaluate.predict", "evaluate")
        self.wrap(evaluate, "apply_sampler", "samplers.apply_sampler", "samplers",
                  sampler_attrs)
        self.wrap(evaluate, "fit_preprocessor", "preprocessing.fit", "preprocessing",
                  preprocessor_attrs)
        for cls in PREPROCESSOR_NAMES:
            self.wrap(getattr(preprocessing, cls), "transform",
                      "preprocessing.transform", "preprocessing", transform_attrs)
        self.wrap(evaluate, "fit_estimator", "estimators.fit", "estimators",
                  estimator_attrs)
        self.wrap(evaluate, "confusion", "metrics.confusion", "metrics")
        self.wrap(neighbors.NeighborIndex, "query_batch", "neighbors.query_batch",
                  "neighbors")
        self.wrap(neighbors.NeighborIndex, "distances", "neighbors.distances",
                  "neighbors", distance_attrs)
        self.wrap(tree.DecisionTreeClassifier, "fit", "tree.fit", "tree", tree_attrs)
        self.wrap(tree.DecisionTreeClassifier, "predict_score", "tree.predict", "tree")
        self.wrap(dataset.Dataset, "subset", "dataset.subset", "dataset")
        self.wrap(imbaml, "train_test_split", "dataset.train_test_split", "dataset")
        self.wrap(imbaml, "load_csv", "io.load_csv", "io")
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(span.to_dict()) + "\n")


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover.

    Children of one span run on the parent's thread, one after another, so
    their durations add up without overlap.
    """
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[Span], search_s: float, per_eval_cap: float) -> dict:
    """Per-layer metrics of one traced search round, as {name: (value, unit)}.

    Layer ``*_s`` / ``.s`` totals are self times, so the layers add up to the
    evaluation busy time; the per-component ``<Name>`` times are inclusive.
    ``io`` and ``dataset.train_test_split_s`` come from the set-up phase,
    everything else from the search phase.
    """
    setup = [s for s in spans if s.phase == "setup"]
    spans = [s for s in spans if s.phase == "search"]
    own = _self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(layer):
        return sum(own[s.id] for s in spans if s.layer == layer and s.name != ROOT)

    m: dict[str, tuple[float, str]] = {}
    evals = sorted(named(ROOT), key=lambda s: s.start)
    seen, duplicates = set(), 0
    for s in evals:
        text = s.attrs.get("pipeline")
        duplicates += text in seen
        seen.add(text)
    busy = sum(s.duration for s in evals)
    timeouts = [s for s in evals if s.attrs.get("status") == "timeout"]
    m["search.evals"] = (len(evals), "count")
    m["search.duplicate_evals"] = (duplicates, "count")
    m["search.propose_s"] = (sum(total(f"search.{fn}") for fn in
                                 ("random_pipeline", "mutate", "crossover")), "s")
    m["search.coord_s"] = (max(0.0, search_s - _union_length(
        (s.start, s.end) for s in evals)), "s")
    m["search.concurrency"] = (busy / search_s if search_s > 0 else 0.0, "ratio")

    m["evaluate.busy_s"] = (busy, "s")
    m["evaluate.self_s"] = (sum(own[s.id] for s in spans if s.layer == "evaluate"), "s")
    m["evaluate.timeouts"] = (len(timeouts), "count")
    m["evaluate.errors"] = (sum(s.attrs.get("status") == "error" for s in evals), "count")
    m["evaluate.overrun_max_s"] = (max((s.attrs["wall_clock"] - per_eval_cap
                                        for s in timeouts), default=0.0), "s")
    m["evaluate.fit_pipeline_s"] = (total("evaluate.fit_pipeline"), "s")
    m["evaluate.predict_s"] = (total("evaluate.predict"), "s")

    samplers = named("samplers.apply_sampler")
    m["samplers.calls"] = (len(samplers), "count")
    m["samplers.s"] = (self_total("samplers"), "s")
    m["samplers.rows_in"] = (sum(s.attrs.get("rows_in", 0) for s in samplers), "rows")
    m["samplers.rows_out"] = (sum(s.attrs.get("rows_out", 0) for s in samplers), "rows")
    m["samplers.fallbacks"] = (sum(s.attrs.get("fallbacks", 0) for s in samplers), "count")
    for name in SAMPLER_NAMES:
        m[f"samplers.{name}.s"] = (sum(s.duration for s in samplers
                                       if s.attrs.get("component") == name), "s")

    queries = named("neighbors.query_batch")
    distances = named("neighbors.distances")
    m["neighbors.query_batch.calls"] = (len(queries), "count")
    m["neighbors.query_batch.s"] = (total("neighbors.query_batch"), "s")
    m["neighbors.distances.s"] = (total("neighbors.distances"), "s")
    m["neighbors.s"] = (self_total("neighbors"), "s")
    m["neighbors.pairs"] = (sum(s.attrs.get("pairs", 0) for s in distances), "count")
    m["neighbors.max_matrix_mb"] = (max((s.attrs.get("pairs", 0) * 8 / 2**20
                                         for s in distances), default=0.0), "MiB")

    prep_fit = named("preprocessing.fit")
    transforms = named("preprocessing.transform")
    m["preprocessing.fit.calls"] = (len(prep_fit), "count")
    m["preprocessing.s"] = (self_total("preprocessing"), "s")
    m["preprocessing.max_cols_out"] = (max((s.attrs.get("cols_out", 0) for s in transforms),
                                           default=0), "count")
    for name in PREPROCESSOR_NAMES:
        m[f"preprocessing.{name}.s"] = (sum(s.duration for s in prep_fit + transforms
                                            if s.attrs.get("component") == name), "s")

    fits = named("estimators.fit")
    m["estimators.fit.calls"] = (len(fits), "count")
    m["estimators.fit_s"] = (self_total("estimators"), "s")
    for name in ESTIMATOR_NAMES:
        m[f"estimators.{name}.fit_s"] = (sum(s.duration for s in fits
                                             if s.attrs.get("component") == name), "s")
    m["estimators.lr_iterations"] = (sum(s.attrs.get("lr_iterations", 0) for s in fits),
                                     "count")
    m["estimators.lr_unconverged"] = (sum(bool(s.attrs.get("lr_unconverged")) for s in fits),
                                      "count")

    trees = named("tree.fit")
    m["tree.fit.calls"] = (len(trees), "count")
    m["tree.fit_s"] = (sum(own[s.id] for s in trees), "s")
    m["tree.nodes"] = (sum(s.attrs.get("nodes", 0) for s in trees), "count")
    m["tree.predict_s"] = (sum(own[s.id] for s in named("tree.predict")), "s")
    m["tree.s"] = (self_total("tree"), "s")

    m["metrics.confusion.calls"] = (len(named("metrics.confusion")), "count")
    m["metrics.confusion_s"] = (total("metrics.confusion"), "s")

    m["dataset.subset.calls"] = (len(named("dataset.subset")), "count")
    m["dataset.subset_s"] = (total("dataset.subset"), "s")
    m["dataset.train_test_split_s"] = (sum(s.duration for s in setup
                                           if s.name == "dataset.train_test_split"), "s")
    m["io.load_csv_s"] = (sum(s.duration for s in setup if s.name == "io.load_csv"), "s")
    return m
