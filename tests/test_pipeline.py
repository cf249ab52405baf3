import collections

import numpy as np
import pytest
from scipy import stats

from imbaml import (DEFAULT_SPACE, DomainError, Pipeline, Rng, crossover, mutate,
                    parse, random_pipeline, serialize)
from imbaml.evaluate import evaluate
from imbaml.dataset import stratified_folds
from imbaml.pipeline import MAX_PREPROCESSORS, MAX_SAMPLERS, ParseError
from imbaml.space import ESTIMATOR, PREPROCESSOR, SAMPLER

from helpers import make_dataset


def counts_by_category(p):
    return collections.Counter(s.category for s in p.steps)


def assert_valid(p):
    cats = counts_by_category(p)
    assert cats[ESTIMATOR] == 1 and p.steps[-1].category == ESTIMATOR
    assert cats[SAMPLER] <= MAX_SAMPLERS
    assert cats[PREPROCESSOR] <= MAX_PREPROCESSORS
    # construction re-validates every hyperparameter domain
    for step in p.steps:
        DEFAULT_SPACE.make_config(step.name, step.as_dict())


# ------------------------------------------------------------------ sampling

def test_random_pipelines_always_valid():
    rng = Rng(1)
    for _ in range(500):
        assert_valid(random_pipeline(DEFAULT_SPACE, rng))


def test_random_pipeline_estimators_uniform_chi_square():
    rng = Rng(2)
    tally = collections.Counter(
        random_pipeline(DEFAULT_SPACE, rng).estimator.name for _ in range(10_000))
    names = [c.name for c in DEFAULT_SPACE.estimators()]
    assert set(tally) == set(names)
    observed = np.array([tally[n] for n in names])
    _, p_value = stats.chisquare(observed)
    assert p_value > 0.001


def test_random_pipeline_deterministic():
    a = serialize(random_pipeline(DEFAULT_SPACE, Rng(42)))
    b = serialize(random_pipeline(DEFAULT_SPACE, Rng(42)))
    assert a == b


# ------------------------------------------------------------------ mutation

def test_mutate_changes_hash_unless_flagged():
    rng = Rng(3)
    for seed in range(200):
        p = random_pipeline(DEFAULT_SPACE, Rng(seed))
        child, changed = mutate(p, DEFAULT_SPACE, rng)
        if changed:
            assert child.id != p.id
        else:
            assert child.id == p.id


def test_mutate_children_valid_sweep():
    p = random_pipeline(DEFAULT_SPACE, Rng(11))
    rng = Rng(4)
    current = p
    for _ in range(1000):
        current, _ = mutate(current, DEFAULT_SPACE, rng)
        assert_valid(current)


def test_mutate_estimator_only_pipeline_moves():
    from imbaml.pipeline import _applicable_moves
    p = Pipeline((DEFAULT_SPACE.default_config("KNeighborsClassifier"),))
    moves = _applicable_moves(p)
    assert "delete" not in moves
    assert set(moves) == {"perturb", "swap", "insert"}


# ----------------------------------------------------------------- crossover

def test_crossover_identical_parents_is_identity():
    for seed in range(20):
        p = random_pipeline(DEFAULT_SPACE, Rng(seed))
        assert serialize(crossover(p, p, Rng(seed + 100))) == serialize(p)


def test_crossover_estimator_from_a_parent():
    rng = Rng(5)
    for seed in range(100):
        a = random_pipeline(DEFAULT_SPACE, Rng(seed))
        b = random_pipeline(DEFAULT_SPACE, Rng(seed + 1000))
        child = crossover(a, b, rng)
        assert child.estimator in (a.estimator, b.estimator)


def test_crossover_children_valid_sweep():
    rng = Rng(6)
    for seed in range(1000):
        a = random_pipeline(DEFAULT_SPACE, Rng(2 * seed))
        b = random_pipeline(DEFAULT_SPACE, Rng(2 * seed + 1))
        assert_valid(crossover(a, b, rng))


# ------------------------------------------------------------- serialization

def test_round_trip_identity_sweep():
    for seed in range(1000):
        p = random_pipeline(DEFAULT_SPACE, Rng(seed))
        text = serialize(p)
        assert serialize(parse(text, DEFAULT_SPACE)) == text


def test_canonical_form_example():
    text = ("SMOTE(k_neighbours=5) >> Normalizer(norm=l2) >> "
            "BalancedBaggingClassifier(n_estimators=10, max_features=1.0, "
            "max_samples=1.0)")
    p = parse(text, DEFAULT_SPACE)
    assert serialize(p) == text


def test_parse_domain_violation_names_hyperparameter():
    with pytest.raises(DomainError, match="k_neighbours"):
        parse("SMOTE(k_neighbours=30)", DEFAULT_SPACE)


def test_parse_empty_string_is_syntax_error():
    with pytest.raises(ParseError):
        parse("", DEFAULT_SPACE)


def test_parse_unknown_component():
    with pytest.raises(DomainError, match="unknown component"):
        parse("MagicClassifier()", DEFAULT_SPACE)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("SMOTE(k_neighbours=5) >> ???", DEFAULT_SPACE)
    assert err.value.position > 0


def test_hash_equals_hash_of_serialized_text():
    import hashlib
    for seed in range(50):
        p = random_pipeline(DEFAULT_SPACE, Rng(seed))
        assert p.id == hashlib.sha256(serialize(p).encode()).hexdigest()


def test_structure_invariants_enforced():
    est = DEFAULT_SPACE.default_config("GaussianNB")
    smote_cfg = DEFAULT_SPACE.default_config("SMOTE")
    with pytest.raises(Exception):
        Pipeline((est, smote_cfg))  # estimator not terminal
    with pytest.raises(Exception):
        Pipeline((smote_cfg,) * 3 + (est,))  # sampler cap


# ------------------------------------------------------------ smoke property

def test_grammar_soundness_smoke():
    d = make_dataset({0: 14, 1: 6}, seed=7)
    folds = stratified_folds(d, 2, Rng(1))
    for seed in range(40):
        p = random_pipeline(DEFAULT_SPACE, Rng(seed))
        r = evaluate(p, d, folds, "balanced_accuracy", 30.0, Rng(seed))
        assert r.status in ("ok", "error")  # never a crash, never a hang
        if r.status == "error":
            # degenerate small-data failures must carry a reason
            assert r.detail
