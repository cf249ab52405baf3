"""Regime taxonomy, suite manifests, score files and the win/draw/lose
comparison."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import pytest

from imbaml import ClassDistribution, SuiteManifest, classify_regime, compare
from imbaml.benchmark import (BUILTIN_SUITES, REGIME_BALANCED, REGIME_EXTREME,
                              REGIME_IMBALANCED, REGIME_INVALID, BenchmarkError,
                              builtin_suite, load_scores, verify_manifest)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.mark.parametrize("name, tally", [
    ("binary", (16, 11, 5)),
    ("extreme_binary", (10, 0, 1)),
    ("extreme_multiclass", (15, 0, 7)),
])
def test_compare_fixture_tallies(name, tally):
    doc = json.loads((FIXTURES / f"comparison_{name}.json").read_text())
    outcome = compare(doc["a"], doc["b"])
    assert (outcome.wins, outcome.draws, outcome.losses) == tally
    assert len(outcome.rows) == sum(tally)
    swapped = compare(doc["b"], doc["a"])
    assert (swapped.wins, swapped.draws, swapped.losses) == tally[::-1]


def test_compare_needs_the_same_datasets():
    with pytest.raises(BenchmarkError):
        compare({"x": 0.5, "y": 0.5}, {"x": 0.5, "z": 0.5})


def test_load_scores_layouts(tmp_path):
    layouts = {
        "plain": {"x": 0.8, "y": 1},
        "wrapped": {"scores": {"x": 0.8, "y": 1}},
        "summary": {"suite": "s", "entries": [
            {"name": "x", "holdout_score": 0.8}, {"name": "y", "holdout_score": 1},
            {"name": "z", "status": "skipped", "reason": "no source"},
            {"name": "w", "holdout_score": None}]},
    }
    for name, doc in layouts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert load_scores(path) == {"x": 0.8, "y": 1.0}
    listing = tmp_path / "list.json"
    listing.write_text("[0.5]")
    with pytest.raises(BenchmarkError):
        load_scores(listing)


@pytest.mark.parametrize("majority, minority, regime", [
    (30, 10, REGIME_IMBALANCED),  # exactly 3:1
    (29, 10, REGIME_BALANCED),
    (200, 10, REGIME_EXTREME),  # exactly 20:1
    (199, 10, REGIME_IMBALANCED),
    (5, 1, REGIME_INVALID),
    (100, 1, REGIME_INVALID),
])
def test_classify_regime_thresholds(majority, minority, regime):
    assert classify_regime(ClassDistribution.from_counts({0: majority, 1: minority})) \
        == regime


@pytest.mark.parametrize("name", BUILTIN_SUITES)
def test_builtin_manifest_round_trips_and_verifies(name):
    packaged = json.loads(resources.files("imbaml").joinpath(f"suites/{name}.json")
                          .read_text("utf-8"))
    manifest = builtin_suite(name)
    assert manifest.to_json() == packaged
    assert SuiteManifest.from_json(manifest.to_json()) == manifest
    assert verify_manifest(manifest) == []


def test_manifest_entry_without_a_required_key_is_named():
    doc = {"suite": "s", "entries": [
        {"name": "ok", "expected_regime": "imbalanced", "task": "binary"},
        {"name": "broken", "expected_regime": "imbalanced", "source": "x.csv"}]}
    with pytest.raises(BenchmarkError, match="'broken'.*task"):
        SuiteManifest.from_json(doc)
    entry = SuiteManifest.from_json({"suite": "s", "entries": doc["entries"][:1]}).entries[0]
    assert entry.source is None and entry.n_instances is None
