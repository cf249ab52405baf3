"""Imbalance-regime taxonomy, benchmark suite manifests, the batch runner and
the win/draw/lose comparison report.

Regime thresholds: majority:minority of at least 20:1 is extremely
imbalanced, at least 3:1 (but below 20:1) is imbalanced, anything smaller is
balanced; a minority below 2 samples disqualifies a dataset. Multiclass
ratios use the majority and minority over all classes. Manifest rows whose
recorded counts contradict their declared suite are flagged, never silently
reclassified.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .components import DEFAULT_SPACE
from .dataset import ClassDistribution, Dataset, class_distribution, train_test_split
from .evaluate import holdout_final
from .io import atomic_write_bytes, fetch_openml, load_arff, load_csv
from .rng import Rng
from .search import SearchConfig, SearchReport, run_search
from .space import SearchSpace

REGIME_BALANCED = "balanced"
REGIME_IMBALANCED = "imbalanced"
REGIME_EXTREME = "extremely_imbalanced"
REGIME_INVALID = "invalid"

EXTREME_RATIO = 20.0
IMBALANCED_RATIO = 3.0
MIN_MINORITY = 2

WIN_MARGIN = 0.01  # absolute balanced-accuracy difference

BUILTIN_SUITES = (
    "imbalanced_binary",
    "extremely_imbalanced_binary",
    "imbalanced_multiclass",
    "extremely_imbalanced_multiclass",
)


class BenchmarkError(ValueError):
    pass


def classify_regime(dist: ClassDistribution, task: str = "binary") -> str:
    """Place a class distribution in the taxonomy; ``task`` is carried for
    manifest bookkeeping and does not change the thresholds."""
    if dist.minority_size < MIN_MINORITY:
        return REGIME_INVALID
    if dist.imbalance_ratio >= EXTREME_RATIO:
        return REGIME_EXTREME
    if dist.imbalance_ratio >= IMBALANCED_RATIO:
        return REGIME_IMBALANCED
    return REGIME_BALANCED


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    expected_regime: str
    task: str  # binary | multiclass
    source: str | None = None  # file path or "openml:<id>"
    majority_size: int | None = None
    minority_size: int | None = None
    n_features: int | None = None
    n_instances: int | None = None

    def recorded_distribution(self) -> ClassDistribution | None:
        if self.majority_size is None or self.minority_size is None:
            return None
        return ClassDistribution.from_counts(
            {0: int(self.majority_size), 1: int(self.minority_size)})


@dataclass(frozen=True)
class SuiteManifest:
    name: str
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        sources = [e.source for e in self.entries if e.source]
        if len(sources) != len(set(sources)):
            raise BenchmarkError("duplicate dataset sources in manifest")
        names = [e.name for e in self.entries]
        if len(names) != len(set(names)):
            raise BenchmarkError("duplicate dataset names in manifest")

    def to_json(self) -> dict:
        return {"suite": self.name, "entries": [
            {"name": e.name, "expected_regime": e.expected_regime, "task": e.task,
             "source": e.source, "majority_size": e.majority_size,
             "minority_size": e.minority_size, "n_features": e.n_features,
             "n_instances": e.n_instances} for e in self.entries]}

    @classmethod
    def from_json(cls, doc: dict) -> "SuiteManifest":
        return cls(doc["suite"], tuple(
            ManifestEntry(e["name"], e["expected_regime"], e["task"],
                          e.get("source"), e.get("majority_size"),
                          e.get("minority_size"), e.get("n_features"),
                          e.get("n_instances"))
            for e in doc["entries"]))

    @classmethod
    def load(cls, path) -> "SuiteManifest":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def save(self, path) -> None:
        atomic_write_bytes(path, json.dumps(self.to_json(), indent=1).encode("utf-8"))


def builtin_suite(name: str) -> SuiteManifest:
    if name not in BUILTIN_SUITES:
        raise BenchmarkError(f"unknown builtin suite '{name}'")
    payload = resources.files("imbaml").joinpath(f"suites/{name}.json").read_text("utf-8")
    return SuiteManifest.from_json(json.loads(payload))


def verify_manifest(manifest: SuiteManifest) -> list[dict]:
    """Classify every entry from its recorded counts; returns one flag per
    entry whose computed regime contradicts the declared suite."""
    flags = []
    for e in manifest.entries:
        dist = e.recorded_distribution()
        if dist is None:
            continue
        actual = classify_regime(dist, e.task)
        if actual != e.expected_regime:
            flags.append({"name": e.name, "expected": e.expected_regime,
                          "actual": actual, "ratio": dist.imbalance_ratio})
    return flags


def _resolve(entry: ManifestEntry, cache_dir) -> Dataset:
    if not entry.source:
        raise BenchmarkError(f"{entry.name}: no resolvable source")
    src = entry.source
    if src.startswith("openml:"):
        return fetch_openml(int(src.split(":", 1)[1]), cache_dir)
    path = Path(src)
    if not path.exists():
        raise BenchmarkError(f"{entry.name}: source {src} does not exist")
    if path.suffix.lower() == ".arff":
        return load_arff(path)
    return load_csv(path)


def _entry_report_path(output_dir: Path, name: str) -> Path:
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)
    return output_dir / f"{safe}.report.json"


def run_suite(manifest: SuiteManifest, search_cfg: SearchConfig, output_dir,
              space: SearchSpace | None = None, cache_dir=None,
              test_fraction: float = 0.25, loader=None) -> dict:
    """Run the configured search over every manifest entry.

    Per entry: verify the expected regime (a mismatch is recorded as a
    warning and the run proceeds), split off a stratified holdout, search on
    the training part, persist the report plus the final holdout score.
    Entries with an existing completed report are skipped (resume), and
    unresolvable entries are skipped with a recorded reason. Entries run
    sequentially.
    """
    space = space or DEFAULT_SPACE
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    summary = {"suite": manifest.name, "entries": [], "completed": 0,
               "skipped": 0, "resumed": 0}
    for pos, entry in enumerate(manifest.entries):
        report_path = _entry_report_path(output_dir, entry.name)
        row: dict = {"name": entry.name, "report": str(report_path)}
        if report_path.exists():
            try:
                doc = json.loads(report_path.read_text(encoding="utf-8"))
                row.update(status="resumed", holdout_score=doc.get("holdout_score"))
                summary["resumed"] += 1
                summary["entries"].append(row)
                continue
            except ValueError:
                pass  # broken file: redo the entry
        try:
            d = loader(entry) if loader else _resolve(entry, cache_dir)
        except Exception as exc:
            row.update(status="skipped", reason=str(exc))
            summary["skipped"] += 1
            summary["entries"].append(row)
            continue
        dist = class_distribution(d)
        actual = classify_regime(dist, entry.task)
        if actual != entry.expected_regime:
            row["regime_warning"] = {"expected": entry.expected_regime,
                                     "actual": actual,
                                     "ratio": dist.imbalance_ratio}
        entry_seed = Rng(search_cfg.seed).child(pos).seed
        cfg = dataclasses.replace(search_cfg, seed=entry_seed, folds=None)
        train, test = train_test_split(d, test_fraction, Rng(entry_seed).child(1))
        report = run_search(space, train, cfg)
        holdout = None
        if report.selected is not None:
            from .pipeline import parse
            best_pipeline = parse(report.selected.pipeline_text, space)
            holdout = holdout_final(best_pipeline, train, test, cfg.metric,
                                    Rng(entry_seed).child(2))
        doc = report.to_json()
        doc["holdout_score"] = holdout
        doc["dataset"] = entry.name
        atomic_write_bytes(report_path, json.dumps(doc, indent=1).encode("utf-8"))
        row.update(status="completed", holdout_score=holdout)
        summary["completed"] += 1
        summary["entries"].append(row)
    atomic_write_bytes(output_dir / "suite_summary.json",
                       json.dumps(summary, indent=1).encode("utf-8"))
    return summary


@dataclass(frozen=True)
class ComparisonOutcome:
    rows: tuple[tuple[str, float, float, str], ...]  # name, a, b, verdict
    wins: int
    draws: int
    losses: int


def compare(scores_a: dict, scores_b: dict) -> ComparisonOutcome:
    """Win iff a beats b by more than the margin, lose iff the reverse, draw
    otherwise; both reports must cover the same datasets."""
    if set(scores_a) != set(scores_b):
        missing = set(scores_a) ^ set(scores_b)
        raise BenchmarkError(f"reports cover different datasets: {sorted(missing)[:5]}")
    rows = []
    wins = draws = losses = 0
    for name in scores_a:
        a, b = float(scores_a[name]), float(scores_b[name])
        if a - b > WIN_MARGIN:
            verdict = "win"
            wins += 1
        elif b - a > WIN_MARGIN:
            verdict = "lose"
            losses += 1
        else:
            verdict = "draw"
            draws += 1
        rows.append((name, a, b, verdict))
    rows.sort(key=lambda r: r[0])
    return ComparisonOutcome(tuple(rows), wins, draws, losses)


def render_comparison(outcome: ComparisonOutcome, label_a: str = "A",
                      label_b: str = "B") -> str:
    width = max([len(r[0]) for r in outcome.rows] + [len("dataset")])
    lines = [f"{'dataset':<{width}}  {label_a:>10}  {label_b:>10}  verdict"]
    for name, a, b, verdict in outcome.rows:
        marker = "*" if verdict == "win" else " "
        lines.append(f"{name:<{width}}  {a:>10.6f}  {b:>10.6f}  {marker}{verdict}")
    lines.append(f"wins={outcome.wins} draws={outcome.draws} losses={outcome.losses}")
    return "\n".join(lines)


def load_scores(path) -> dict:
    """Accepts a plain name->score map, {"scores": {...}}, or a suite output
    directory's summary file with per-entry holdout scores."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "scores" in doc:
        return {str(k): float(v) for k, v in doc["scores"].items()}
    if isinstance(doc, dict) and "entries" in doc:
        out = {}
        for e in doc["entries"]:
            if e.get("holdout_score") is not None:
                out[e["name"]] = float(e["holdout_score"])
        return out
    if isinstance(doc, dict):
        return {str(k): float(v) for k, v in doc.items()}
    raise BenchmarkError(f"unrecognised score file layout in {path}")
