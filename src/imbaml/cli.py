"""Command-line surface: fit, resample, meta build/query, benchmark
classify/run, report compare.

Exit codes: 0 success, 1 usage error (validated before any computation),
2 runtime failure. Report files are written atomically; an interrupted run
leaves at most a ``.partial`` file, never a truncated JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .benchmark import (BUILTIN_SUITES, BenchmarkError, builtin_suite, compare,
                        classify_regime, load_scores, render_comparison,
                        run_suite, SuiteManifest, verify_manifest)
from .components import DEFAULT_SPACE
from .dataset import ClassDistribution, DataError, Dataset, class_distribution
from .io import atomic_write_bytes, fetch_openml, load_arff, load_csv
from .metafeatures import extract_metafeatures
from .metastore import (MetadataStore, MetaRecord, MetaStoreError, StoredPipeline,
                        rank_records, warm_start_candidates)
from .metrics import METRIC_IDS
from .pipeline import serialize
from .rng import Rng
from .search import KILL_GRACE_S, SearchConfig, run_search
from .space import DomainError

CACHE_ENV = "IMBAML_OPENML_CACHE"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _default_cache() -> str:
    return os.environ.get(CACHE_ENV, str(Path.home() / ".cache" / "imbaml" / "openml"))


def _load_dataset(source: str, label=None, cache_dir=None) -> Dataset:
    if source.startswith("openml:"):
        return fetch_openml(int(source.split(":", 1)[1]), cache_dir or _default_cache())
    path = Path(source)
    if path.suffix.lower() == ".arff":
        return load_arff(path, label_attribute=label)
    if label is not None and isinstance(label, str) and label.isdigit():
        label = int(label)
    return load_csv(path, label_column=label)


def _check_source(source: str):
    if source.startswith("openml:"):
        tail = source.split(":", 1)[1]
        if not tail.isdigit():
            raise UsageError(f"bad OpenML source '{source}', expected openml:<id>")
    elif not Path(source).exists():
        raise UsageError(f"dataset file '{source}' does not exist")


def _search_flags(p: _Parser, budget_default: float = 3600.0):
    p.add_argument("--budget", type=float, default=budget_default,
                   help="time budget in seconds (default %(default)s)")
    p.add_argument("--metric", default="balanced_accuracy", choices=METRIC_IDS)
    p.add_argument("--search", default="asyncea", choices=("asyncea", "random", "asha"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="evaluations run at once (default 1: in this process, "
                        "seed-deterministic; more: one forked process per "
                        f"evaluation, killed {KILL_GRACE_S:g} s after its cap)")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--max-evals", type=int, default=None,
                   help="stop after N evaluations (deterministic stopping)")


def build_parser() -> _Parser:
    root = _Parser(prog="imbaml", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", parents=[], help="search pipelines for a dataset")
    fit.add_argument("data", help="CSV/ARFF path or openml:<id>")
    fit.add_argument("--label", default=None, help="label column (CSV name/index "
                                                   "or ARFF attribute)")
    _search_flags(fit)
    fit.add_argument("--warm-start", default=None, help="metadata store path")
    fit.add_argument("--warm-candidates", type=int, default=10)
    fit.add_argument("--out", default=None, help="report JSON path")
    fit.add_argument("--log", default=None, help="evaluation JSONL log path")
    fit.add_argument("--no-timings", action="store_true",
                     help="omit wall-clock fields from the report (reproducible diffs)")

    res = sub.add_parser("resample", help="apply one resampler and write a CSV")
    res.add_argument("data")
    res.add_argument("--label", default=None)
    res.add_argument("--sampler", required=True,
                     help="e.g. 'SMOTE(k_neighbours=5)'")
    res.add_argument("--seed", type=int, default=0)
    res.add_argument("--out", required=True)

    meta = sub.add_parser("meta", help="metadata store operations")
    meta_sub = meta.add_subparsers(dest="meta_command", required=True)
    mb = meta_sub.add_parser("build", help="build a store from a dataset directory")
    mb.add_argument("dataset_dir")
    mb.add_argument("--store", required=True)
    mb.add_argument("--budget-per-dataset", type=float, default=60.0)
    mb.add_argument("--exclude", action="append", default=[],
                    help="dataset name to skip (repeatable)")
    mb.add_argument("--metric", default="balanced_accuracy", choices=METRIC_IDS)
    mb.add_argument("--search", default="asyncea", choices=("asyncea", "random", "asha"))
    mb.add_argument("--seed", type=int, default=0)
    mb.add_argument("--top", type=int, default=5, help="pipelines kept per dataset")
    mq = meta_sub.add_parser("query", help="rank stored records against a dataset")
    mq.add_argument("data")
    mq.add_argument("--label", default=None)
    mq.add_argument("--store", required=True)
    mq.add_argument("-m", type=int, default=10)
    mq.add_argument("--similarity", default="standardized",
                    choices=("standardized", "raw-cosine"))
    mq.add_argument("--seed", type=int, default=0)
    mq.add_argument("--per-dataset", dest="per_dataset", action="store_true",
                    default=True)
    mq.add_argument("--pooled", dest="per_dataset", action="store_false",
                    help="take m pipelines from the most similar records")

    bench = sub.add_parser("benchmark", help="benchmark suite operations")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bc = bench_sub.add_parser("classify", help="imbalance regime of a dataset")
    group = bc.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", default=None)
    group.add_argument("--counts", default=None,
                       help="majority,minority (classify published counts)")
    bc.add_argument("--label", default=None)
    br = bench_sub.add_parser("run", help="run a suite manifest")
    br.add_argument("manifest", help=f"manifest path or one of {BUILTIN_SUITES}")
    br.add_argument("--out", required=True, help="output directory")
    _search_flags(br, budget_default=3600.0)

    rep = sub.add_parser("report", help="report operations")
    rep_sub = rep.add_subparsers(dest="report_command", required=True)
    rc = rep_sub.add_parser("compare", help="win/draw/lose table of two score files")
    rc.add_argument("a")
    rc.add_argument("b")

    return root


def _cmd_fit(args) -> int:
    _check_source(args.data)
    if args.budget <= 0:
        raise UsageError("--budget must be positive")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    d = _load_dataset(args.data, args.label)
    warm = ()
    if args.warm_start:
        store = MetadataStore.load(args.warm_start)
        query = extract_metafeatures(d, Rng(args.seed).child(3))
        warm = tuple(warm_start_candidates(store, query, m=args.warm_candidates))
    cfg = SearchConfig(algorithm=args.search, metric=args.metric, budget=args.budget,
                       worker_count=args.workers, seed=args.seed, warm_start=warm,
                       folds_k=args.folds, max_evals=args.max_evals,
                       log_path=args.log)
    report = run_search(DEFAULT_SPACE, d, cfg)
    if report.selected is None:
        print("no evaluation completed within the budget", file=sys.stderr)
    else:
        print(report.selected.pipeline_text)
        print(f"{args.metric} = {report.selected.mean_score:.6f}")
    if args.out:
        doc = report.to_json(include_timings=not args.no_timings)
        atomic_write_bytes(args.out, json.dumps(doc, indent=1).encode("utf-8"))
    return 0


def _cmd_resample(args) -> int:
    _check_source(args.data)
    from .pipeline import parse_component
    config = parse_component(args.sampler, DEFAULT_SPACE)
    if config.category != "sampler":
        raise UsageError(f"{config.name} is not a resampler")
    d = _load_dataset(args.data, args.label)
    from .samplers import apply_sampler
    out = apply_sampler(config, d, Rng(args.seed))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in out.columns] + ["label"])
        for i in range(out.n):
            row = [repr(v) for v in out.features[i].tolist()]
            writer.writerow(row + [out.label_names[out.labels[i]]])
    print(f"wrote {out.n} rows to {args.out}")
    return 0


def _cmd_meta_build(args) -> int:
    root = Path(args.dataset_dir)
    if not root.is_dir():
        raise UsageError(f"'{root}' is not a directory")
    files = sorted(p for p in root.iterdir()
                   if p.suffix.lower() in (".csv", ".arff"))
    if not files:
        raise UsageError(f"no CSV/ARFF datasets in '{root}'")
    if args.budget_per_dataset <= 0:
        raise UsageError("--budget-per-dataset must be positive")
    store = MetadataStore()
    built = failures = 0
    for pos, path in enumerate(files):
        if path.stem in args.exclude:
            print(f"skipping excluded dataset {path.stem}", file=sys.stderr)
            continue
        try:
            d = _load_dataset(str(path))
            seed = Rng(args.seed).child(pos).seed
            feats = extract_metafeatures(d, Rng(seed).child(3))
            cfg = SearchConfig(algorithm=args.search, metric=args.metric,
                               budget=args.budget_per_dataset, seed=seed)
            report = run_search(DEFAULT_SPACE, d, cfg)
            pipelines = []
            seen = set()
            for r in sorted((r for r in report.history if r.ok),
                            key=lambda r: -r.mean_score):
                if r.pipeline_text in seen:
                    continue
                seen.add(r.pipeline_text)
                pipelines.append(StoredPipeline(
                    r.pipeline_text, args.metric,
                    float(min(1.0, max(0.0, r.mean_score)))))
                if len(pipelines) >= args.top:
                    break
            if not pipelines:
                raise RuntimeError("no successful evaluation")
            store.insert(MetaRecord(d.name, feats, tuple(pipelines)))
            built += 1
        except Exception as exc:
            failures += 1
            print(f"failed on {path.name}: {exc}", file=sys.stderr)
    store.save(args.store)
    print(f"store written to {args.store}: {built} records, {failures} failures")
    return 0


def _cmd_meta_query(args) -> int:
    _check_source(args.data)
    store = MetadataStore.load(args.store)
    d = _load_dataset(args.data, args.label)
    query = extract_metafeatures(d, Rng(args.seed).child(3))
    mode = "raw" if args.similarity == "raw-cosine" else "standardized"
    ranked = rank_records(store, query, mode)
    print("most similar records:")
    for idx, sim in ranked[:args.m]:
        print(f"  {store.records[idx].dataset_name}: similarity {sim:.4f}")
    cands = warm_start_candidates(store, query, m=args.m,
                                  per_dataset=args.per_dataset, mode=mode)
    print("warm-start candidates:")
    for p in cands:
        print(f"  {serialize(p)}")
    return 0


def _cmd_bench_classify(args) -> int:
    if args.counts:
        try:
            majority, minority = (int(x) for x in args.counts.split(","))
        except ValueError:
            raise UsageError("--counts expects 'majority,minority'")
        dist = ClassDistribution.from_counts({0: majority, 1: minority})
    else:
        _check_source(args.data)
        dist = class_distribution(_load_dataset(args.data, args.label))
    regime = classify_regime(dist)
    print(f"ratio {dist.imbalance_ratio:.2f} -> {regime}")
    return 0


def _cmd_bench_run(args) -> int:
    if args.manifest in BUILTIN_SUITES:
        manifest = builtin_suite(args.manifest)
    else:
        if not Path(args.manifest).exists():
            raise UsageError(f"manifest '{args.manifest}' does not exist")
        manifest = SuiteManifest.load(args.manifest)
    flags = verify_manifest(manifest)
    for f in flags:
        print(f"manifest warning: {f['name']} classifies as {f['actual']} "
              f"(declared {f['expected']})", file=sys.stderr)
    cfg = SearchConfig(algorithm=args.search, metric=args.metric, budget=args.budget,
                       worker_count=args.workers, seed=args.seed,
                       folds_k=args.folds, max_evals=args.max_evals)
    summary = run_suite(manifest, cfg, args.out, cache_dir=_default_cache())
    print(f"suite '{manifest.name}': {summary['completed']} completed, "
          f"{summary['resumed']} resumed, {summary['skipped']} skipped")
    return 0


def _cmd_report_compare(args) -> int:
    for path in (args.a, args.b):
        if not Path(path).exists():
            raise UsageError(f"score file '{path}' does not exist")
    outcome = compare(load_scores(args.a), load_scores(args.b))
    print(render_comparison(outcome, Path(args.a).stem, Path(args.b).stem))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "resample":
            return _cmd_resample(args)
        if args.command == "meta":
            return _cmd_meta_build(args) if args.meta_command == "build" \
                else _cmd_meta_query(args)
        if args.command == "benchmark":
            return _cmd_bench_classify(args) if args.bench_command == "classify" \
                else _cmd_bench_run(args)
        if args.command == "report":
            return _cmd_report_compare(args)
        raise UsageError(f"unknown command {args.command}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DomainError, BenchmarkError, MetaStoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything unexpected is a runtime failure
        print(f"error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
