"""The ``imbaml`` command line, driven through ``main([...])`` on small
synthetic CSVs: each command's output, the exit-code contract (every flag
error exits 1 before any dataset is read) and the module entry point."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imbaml import DEFAULT_SPACE, Rng, load_csv, parse
from imbaml import benchmark, cli
from imbaml.cli import main
from imbaml.pipeline import parse_component
from imbaml.samplers import apply_sampler

ROOT = Path(__file__).resolve().parents[1]


def write_csv(path: Path, n_maj: int, n_min: int, d: int = 3, seed: int = 0) -> Path:
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 1.0, (n_maj, d)), rng.normal(1.2, 1.0, (n_min, d))])
    labels = ["neg"] * n_maj + ["pos"] * n_min
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(d)] + ["cls"])
        for row, label in zip(X, labels):
            writer.writerow([repr(round(float(v), 6)) for v in row] + [label])
    return path


def write_manifest(path: Path, *sources: Path) -> Path:
    path.write_text(json.dumps({"suite": "mini", "entries": [
        {"name": src.stem, "expected_regime": "imbalanced", "task": "binary",
         "source": str(src)} for src in sources]}), encoding="utf-8")
    return path


@pytest.fixture
def data_csv(tmp_path) -> Path:
    return write_csv(tmp_path / "gamma.csv", 80, 12, seed=3)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory) -> Path:
    """A metadata store written by ``meta build`` over two datasets."""
    root = tmp_path_factory.mktemp("meta")
    write_csv(root / "alpha.csv", 60, 15, seed=1)
    write_csv(root / "beta.csv", 70, 10, d=4, seed=2)
    store = root / "store.json"
    assert main(["meta", "build", str(root), "--store", str(store),
                 "--budget-per-dataset", "1", "--search", "random"]) == 0
    return store


def test_fit_reports_are_reproducible_and_logged(tmp_path, data_csv, capsys):
    for run in ("a", "b"):
        assert main(["fit", str(data_csv), "--budget", "5", "--max-evals", "3",
                     "--seed", "4", "--no-timings", "--out", str(tmp_path / f"{run}.json"),
                     "--log", str(tmp_path / f"{run}.jsonl")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    report = json.loads((tmp_path / "a.json").read_text())
    records = [json.loads(line) for line in (tmp_path / "a.jsonl").read_text().splitlines()]
    evaluations = [r for r in records if r["type"] == "evaluation"]
    assert len(report["history"]) == 3
    assert [r["pipeline_id"] for r in evaluations] == \
        [h["pipeline_id"] for h in report["history"]]
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[1] == f"balanced_accuracy = {report['selected']['mean_score']:.6f}"


def test_resample_writes_the_rows_apply_sampler_returns(tmp_path, data_csv, capsys):
    out = tmp_path / "resampled.csv"
    sampler = "SMOTE(k_neighbours=3)"
    assert main(["resample", str(data_csv), "--sampler", sampler, "--seed", "2",
                 "--out", str(out)]) == 0
    expected = apply_sampler(parse_component(sampler, DEFAULT_SPACE),
                             load_csv(data_csv), Rng(2))
    with open(out, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == [c.name for c in expected.columns] + ["label"]
    assert np.array_equal(np.array([[float(v) for v in r[:-1]] for r in rows]),
                          expected.features)
    assert [r[-1] for r in rows] == [expected.label_names[y] for y in expected.labels]
    assert capsys.readouterr().out == f"wrote {expected.n} rows to {out}\n"


def test_resample_rejects_a_non_sampler(tmp_path, data_csv, capsys):
    out = tmp_path / "resampled.csv"
    assert main(["resample", str(data_csv), "--sampler", "GaussianNB()",
                 "--out", str(out)]) == 1
    assert "GaussianNB is not a resampler" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", [[], ["--pooled"], ["--similarity", "raw-cosine"]])
def test_meta_query_prints_candidates_that_parse(store_path, data_csv, mode, capsys):
    capsys.readouterr()
    assert main(["meta", "query", str(data_csv), "--store", str(store_path),
                 "-m", "3", *mode]) == 0
    lines = capsys.readouterr().out.splitlines()
    split = lines.index("warm-start candidates:")
    assert lines[0] == "most similar records:"
    assert sorted(line.split(":")[0].strip() for line in lines[1:split]) == \
        ["alpha", "beta"]
    candidates = [line.strip() for line in lines[split + 1:]]
    assert 1 <= len(candidates) <= 3
    for text in candidates:
        parse(text, DEFAULT_SPACE)


def test_benchmark_classify_counts(capsys):
    assert main(["benchmark", "classify", "--counts", "300,40"]) == 0
    assert capsys.readouterr().out == "ratio 7.50 -> imbalanced\n"


def test_benchmark_run_skips_missing_sources_and_resumes(tmp_path, data_csv, capsys):
    ghost = tmp_path / "ghost.csv"
    manifest = write_manifest(tmp_path / "suite.json", data_csv, ghost)
    out = tmp_path / "suite_out"
    argv = ["benchmark", "run", str(manifest), "--out", str(out), "--budget", "5",
            "--max-evals", "2", "--search", "random"]

    def run() -> dict:
        assert main(argv) == 0
        return json.loads((out / "suite_summary.json").read_text())

    first = run()
    assert capsys.readouterr().out == "suite 'mini': 1 completed, 0 resumed, 1 skipped\n"
    done, skipped = first["entries"]
    assert done["status"] == "completed"
    assert skipped == {"name": "ghost", "report": str(out / "ghost.report.json"),
                       "status": "skipped",
                       "reason": f"ghost: source {ghost} does not exist"}
    report = Path(done["report"]).read_bytes()

    second = run()
    assert capsys.readouterr().out == "suite 'mini': 0 completed, 1 resumed, 1 skipped\n"
    assert [e["status"] for e in second["entries"]] == ["resumed", "skipped"]
    assert second["entries"][0]["holdout_score"] == done["holdout_score"]
    assert Path(done["report"]).read_bytes() == report

    write_csv(ghost, 50, 10, seed=5)
    run()
    assert capsys.readouterr().out == "suite 'mini': 1 completed, 1 resumed, 0 skipped\n"
    assert [e["status"] for e in run()["entries"]] == ["resumed", "resumed"]


def test_report_compare_prints_the_tally(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"x": 0.8, "y": 0.5, "z": 0.7}))
    b.write_text(json.dumps({"scores": {"x": 0.7, "y": 0.5, "z": 0.75}}))
    assert main(["report", "compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "wins=1 draws=1 losses=1"


@pytest.fixture
def load_calls(monkeypatch) -> list:
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("load_source called")

    monkeypatch.setattr(cli, "load_source", spy)
    monkeypatch.setattr(benchmark, "load_source", spy)
    return calls


# {data}, {dir}, {store} and {manifest} are filled in per test
BAD_FLAGS = [
    ["fit", "{data}", "--budget", "0"],
    ["fit", "{data}", "--workers", "0"],
    ["fit", "{data}", "--folds", "1"],
    ["fit", "{data}", "--max-evals", "-1", "--budget", "5"],
    ["fit", "{data}", "--warm-start", "{store}", "--warm-candidates", "0"],
    ["fit", "{dir}/missing.csv"],
    ["fit", "{data}", "--warm-start", "{dir}/nostore.json"],
    ["fit", "openml:abc"],
    ["resample", "{dir}/missing.csv", "--sampler", "SMOTE(k_neighbours=3)",
     "--out", "{dir}/out.csv"],
    ["resample", "{data}", "--sampler", "GaussianNB", "--out", "{dir}/out.csv"],
    ["resample", "{data}", "--sampler", "SMOTE(k_neighbours=0)", "--out", "{dir}/out.csv"],
    ["meta", "query", "{data}", "--store", "{store}", "-m", "0"],
    ["meta", "query", "openml:abc", "--store", "{store}"],
    ["meta", "query", "{data}", "--store", "{dir}/nostore.json"],
    ["meta", "build", "{dir}", "--store", "{dir}/s.json", "--top", "0",
     "--budget-per-dataset", "0.5"],
    ["meta", "build", "{dir}", "--store", "{dir}/s.json", "--budget-per-dataset", "0"],
    ["benchmark", "run", "{manifest}", "--out", "{dir}/o", "--budget", "-1"],
    ["benchmark", "run", "{manifest}", "--out", "{dir}/o", "--workers", "0"],
    ["benchmark", "run", "{manifest}", "--out", "{dir}/o", "--folds", "1"],
    ["benchmark", "classify", "--data", "{dir}/missing.csv"],
]


@pytest.mark.parametrize("argv", BAD_FLAGS, ids=lambda argv: " ".join(argv))
def test_flag_errors_exit_1_before_reading_data(argv, tmp_path, data_csv, store_path,
                                                load_calls, capsys):
    fill = {"data": str(data_csv), "dir": str(tmp_path), "store": str(store_path),
            "manifest": str(write_manifest(tmp_path / "suite.json", data_csv))}
    assert main([a.format(**fill) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert load_calls == []


@pytest.mark.parametrize("argv", [["fit", "{data}", "--warm-start", "{store}"],
                                  ["meta", "query", "{data}", "--store", "{store}"]],
                         ids=["fit", "meta query"])
def test_missing_store_names_its_path(argv, tmp_path, data_csv, load_calls, capsys):
    store = tmp_path / "nostore.json"
    assert main([a.format(data=data_csv, store=store) for a in argv]) == 1
    assert capsys.readouterr().err == f"usage error: metadata store '{store}' does not exist\n"
    assert load_calls == []


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "imbaml.cli", "benchmark", "classify",
                           "--counts", "300,40"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "ratio 7.50 -> imbalanced\n")
