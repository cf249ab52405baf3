"""One benchmark process. ``run.py`` starts it; it is not meant to be run by hand.

    worker.py setup <csv>
        Times the set-up only: import imbaml, load_csv, train_test_split.
    worker.py search <workload> <csv> <seconds> <trace 0|1> <as_limit_bytes> <spans_path>
        Sets the address-space limit, does the set-up, then repeats the
        workload's fixed-work search (a "round") for about <seconds>, checking
        every round's outputs. With trace 1 the first half of the time runs
        untraced rounds and the second half traced ones.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

STATUSES = ("ok", "timeout", "error")


def setup(csv_path: str):
    """(imbaml module, train, test, setup seconds)."""
    from workloads import SEARCH_SEED, TEST_FRACTION
    t0 = time.perf_counter()
    import imbaml
    d = imbaml.load_csv(csv_path)
    train, test = imbaml.train_test_split(d, TEST_FRACTION, imbaml.Rng(SEARCH_SEED))
    setup_s = time.perf_counter() - t0
    if Path(imbaml.__file__).resolve().parent != SRC / "imbaml":
        raise SystemExit(f"imbaml was imported from {imbaml.__file__}, not from {SRC}")
    return imbaml, train, test, setup_s


def digest(report) -> str:
    """Digest of the multiset of pipeline texts the search submitted."""
    texts = sorted(r.pipeline_text for r in report.history)
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def check_round(report, planned: int) -> list[str]:
    """Output checks on one search report; returns the problems found."""
    problems = []
    k = report.header["folds"]
    for r in report.history:
        if r.status not in STATUSES:
            problems.append(f"unknown status {r.status!r}")
        if r.ok:
            scores = r.fold_scores
            if len(scores) != k or not all(0.0 <= s <= 1.0 for s in scores):
                problems.append(f"bad fold scores {scores} for {r.pipeline_text}")
            elif not math.isclose(sum(scores) / k, r.mean_score, rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"mean_score {r.mean_score} is not the fold mean")
    if report.evaluations_completed != planned or len(report.history) != planned:
        problems.append(f"evals_done {report.evaluations_completed} != planned {planned}")
    if report.best is None or report.selected is None:
        problems.append("search produced no result")
    return problems


def run_rounds(one_round, seconds: float, at_least: int = 1):
    """Repeat ``one_round`` while another round is expected to fit in ``seconds``."""
    start = time.perf_counter()
    results, lengths = [], []
    while True:
        t = time.perf_counter()
        results.append(one_round())
        lengths.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(results) >= at_least and elapsed + statistics.median(lengths) > seconds:
            return results


def search(workload_name, csv_path, seconds, traced, as_limit, spans_path):
    resource.setrlimit(resource.RLIMIT_AS, (as_limit, as_limit))
    from workloads import METRIC, SEARCH_SEED, WORKLOADS
    workload = WORKLOADS[workload_name]
    tracer = None
    if traced:
        from spans import Tracer, layer_metrics
        tracer = Tracer().install()
    imbaml, train, test, setup_s = setup(csv_path)
    if tracer:
        tracer.uninstall()
    space = workload.space()
    cfg = workload.search_config()
    problems: list[str] = []

    def one_round(trace_this=False):
        if trace_this:
            tracer.install()
            tracer.phase = "search"
            mark = len(tracer.spans)
        t = time.perf_counter()
        report = imbaml.run_search(space, train, cfg)
        search_s = time.perf_counter() - t
        round_spans = None
        if trace_this:
            tracer.uninstall()
            tracer.phase = "idle"
            round_spans = tracer.spans[mark:]
        return report, search_s, round_spans

    half = seconds / 2 if traced else seconds
    rounds = run_rounds(one_round, half)
    if traced:
        rounds += run_rounds(lambda: one_round(True), seconds - half)

    first = rounds[0][0]
    holdout = 0.0
    if first.selected is not None:
        selected = imbaml.parse(first.selected.pipeline_text, space)
        if imbaml.serialize(selected) != first.selected.pipeline_text:
            problems.append("selected pipeline text does not round-trip through parse")
        holdout = imbaml.holdout_final(selected, train, test, METRIC, imbaml.Rng(SEARCH_SEED))
        if not 0.0 <= holdout <= 1.0:
            problems.append(f"holdout score {holdout} outside [0, 1]")
    digests = sorted({digest(r) for r, _, _ in rounds})
    if len(digests) != 1:
        problems.append(f"not fixed-work: rounds submitted different pipelines {digests}")

    out = {
        "setup_s": setup_s,
        "per_eval_cap": first.header["per_eval_cap"],
        "holdout_score": holdout,
        "selected": first.selected.pipeline_text if first.selected else None,
        "digest": digests[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": problems,
        "rounds": [{
            "traced": round_spans is not None,
            "problems": check_round(report, workload.max_evals),
            "search_s": search_s,
            "evals_done": report.evaluations_completed,
            "statuses": dict(Counter(r.status for r in report.history)),
            "evaluations": [(r.wall_clock, r.status, r.pipeline_text) for r in report.history],
            "best_cv_score": report.best.mean_score if report.best else None,
        } for report, search_s, round_spans in rounds],
    }
    if traced:
        untraced = statistics.median(s for _, s, sp in rounds if sp is None)
        traced_rounds = [(s, sp) for _, s, sp in rounds if sp is not None]
        setup_spans = [sp for sp in tracer.spans if sp.phase == "setup"]
        per_round = [layer_metrics(sp + setup_spans, s, out["per_eval_cap"])
                     for s, sp in traced_rounds]
        layers = {name: (statistics.fmean(m[name][0] for m in per_round), unit)
                  for name, (_, unit) in per_round[0].items()}
        layers["trace.overhead_ratio"] = (
            statistics.median(s for s, _ in traced_rounds) / untraced, "ratio")
        out["per_layer"] = layers
        tracer.write(spans_path)
    return out


def main(argv):
    if argv[1] == "setup":
        *_, setup_s = setup(argv[2])
        print(json.dumps({"setup_s": setup_s}))
    elif argv[1] == "search":
        name, csv_path, seconds, traced, as_limit, spans_path = argv[2:8]
        print(json.dumps(search(name, csv_path, float(seconds), traced == "1",
                                int(as_limit), spans_path)))
    else:
        raise SystemExit(f"unknown mode {argv[1]!r}")


if __name__ == "__main__":
    main(sys.argv)
