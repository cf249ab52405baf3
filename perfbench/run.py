"""Search benchmark for imbaml.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. For one workload it:

1. draws the workload's shape-matched dataset from ``--seed`` and writes it
   as CSV under ``.bench_build/perfbench/``;
2. runs the workload in a fresh process under an address-space limit, so a
   pipeline that would exhaust memory fails as an evaluation instead of
   getting the process killed. That process repeats the fixed-work search
   for about ``--seconds`` and checks every round's outputs;
3. times the set-up (import imbaml, load_csv, train_test_split) in
   ``SETUP_PROBES`` fresh processes, half before and half after the search
   so that a drift in machine speed during the run is averaged, and keeps
   the median;
4. prints each metric by name with its unit, then, as the last line, one
   JSON object with ``correct``, ``attempted`` (search rounds), ``failed``
   (rounds whose outputs failed a check) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a traced run, including the tracing overhead. A
workload's search submits the same pipelines every time it runs on the same
code and seed; the digest of those pipelines is kept in
``.bench_build/perfbench/digests.json`` and a run that disagrees with an
earlier run of the same seed is reported as not fixed-work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_PROBES = 9
AS_LIMIT_BYTES = 3 << 30
TIME_LIMIT_S = 170.0

sys.path[:0] = [str(SRC), str(HERE)]
from workloads import GEOMETRY_SEED, WORKLOADS  # noqa: E402  (imports no imbaml)

END_TO_END_UNITS = {
    "search_s": "s", "eval_mean_s": "s", "ok_evals_frac": "ratio",
    "best_cv_score": "bal_acc", "holdout_score": "bal_acc",
    "peak_rss_mb": "MiB", "setup_s": "s", "evals_done": "count",
}


def source_digest() -> str:
    """Digest of the program's and the benchmark's own sources."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "imbaml").rglob("*"), *HERE.glob("*.py")]):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_fixed_work(workload: str, seed: int, digest: str) -> str | None:
    """Compare with the digest of an earlier run of the same code and seed."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}/seed{seed}/src{source_digest()}"
    if known.setdefault(key, digest) != digest:
        return f"not fixed-work: digest {digest} differs from earlier run's {known[key]}"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} failed with exit code {proc.returncode}")
    return last_json(proc.stdout)


def make_dataset(workload, seed: int) -> Path:
    import datagen
    counts, n_features = datagen.manifest_shape(workload.suite, workload.entry)
    X, y = datagen.generate(counts, n_features, GEOMETRY_SEED, seed, workload.separation)
    path = WORK / f"{workload.name}-seed{seed}.csv"
    datagen.write_csv(path, X, y)
    return path


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    started = time.perf_counter()

    def time_left() -> float:
        return TIME_LIMIT_S - (time.perf_counter() - started)

    workload = WORKLOADS[name]
    csv_path = make_dataset(workload, seed)

    def setup_probes(n: int) -> list[float]:
        return [run_worker(["setup", str(csv_path)], time_left())["setup_s"] for _ in range(n)]

    setup_times = setup_probes(SETUP_PROBES // 2)
    spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
    res = run_worker(["search", name, str(csv_path), str(seconds), "1" if traced else "0",
                      str(AS_LIMIT_BYTES), str(spans_path)], time_left())
    setup_times += setup_probes(SETUP_PROBES - len(setup_times))

    (WORK / f"worker-{name}-seed{seed}.json").write_text(json.dumps(res, indent=1))
    problems = res["problems"] + [p for r in res["rounds"] for p in r["problems"]]
    fixed = check_fixed_work(name, seed, res["digest"])
    if fixed:
        problems.append(fixed)
    rounds = res["rounds"]
    untraced = [r for r in rounds if not r["traced"]]
    walls = [e[0] for r in untraced for e in r["evaluations"]]
    n_evals = sum(r["evals_done"] for r in untraced)
    n_ok = sum(r["statuses"].get("ok", 0) for r in untraced)
    e2e = {
        "search_s": statistics.median(r["search_s"] for r in untraced),
        "eval_mean_s": statistics.fmean(walls),
        "ok_evals_frac": n_ok / n_evals,
        "best_cv_score": statistics.median(r["best_cv_score"] or 0.0 for r in untraced),
        "holdout_score": res["holdout_score"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setup_times),
        "evals_done": min(r["evals_done"] for r in rounds),
    }
    print(f"workload {name}: seed {seed}, {len(untraced)} untraced and "
          f"{len(rounds) - len(untraced)} traced rounds of {workload.max_evals} evaluations "
          f"({workload.algorithm}, {workload.workers} worker(s), per-evaluation cap "
          f"{res['per_eval_cap']:g} s), address-space limit {AS_LIMIT_BYTES >> 20} MiB")
    print(f"  pipelines digest {res['digest']}; selected: {res['selected']}")
    for metric, value in e2e.items():
        print(f"  {metric:<20} {value:>12.6g} {END_TO_END_UNITS[metric]}")
    print(f"  {'eval_p50_s':<20} {statistics.median(walls):>12.6g} s "
          f"(median evaluation wall clock; not gated, see README)")
    print(f"  {'failed_evals_frac':<20} {1 - e2e['ok_evals_frac']:>12.6g} ratio "
          f"(timeout + error; = 1 - ok_evals_frac)")
    if traced:
        for metric, (value, unit) in res["per_layer"].items():
            print(f"  {metric:<36} {value:>14.6g} {unit}")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    metrics = ({m: {"value": v, "unit": u} for m, (v, u) in res["per_layer"].items()}
               if traced else
               {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in e2e.items()})
    failed = sum(bool(r["problems"]) for r in rounds)
    if problems and not failed:
        failed = 1
    return {"correct": not problems, "attempted": len(rounds),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "imbaml" / "__init__.py").is_file():
        print(f"no imbaml sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
