import numpy as np
import pytest

from imbaml import (DEFAULT_SPACE, ComponentSpec, Dataset, Rng, SearchSpace, parse,
                    serialize)
from imbaml.dataset import stratified_folds
from imbaml.estimators import fit
from imbaml.evaluate import STATUS_OK, evaluate
from imbaml.preprocessing import fit_preprocessor
from imbaml.samplers import apply_sampler
from imbaml.space import ESTIMATOR, PREPROCESSOR, SAMPLER, DomainError, IntRange, RealRange
from imbaml.tree import DecisionTreeClassifier

from helpers import overlapping_binary


@pytest.mark.parametrize("name", sorted(DEFAULT_SPACE.components))
def test_default_config_runs_through_its_entry_point(name):
    spec = DEFAULT_SPACE.spec(name)
    assert spec.build is not None
    cfg = DEFAULT_SPACE.default_config(name)
    assert cfg.build is spec.build
    d = overlapping_binary(30, 12, seed=31, d=3)
    if spec.category == SAMPLER:
        out = apply_sampler(cfg, d, Rng(1))
        assert isinstance(out, Dataset)
        assert out.columns == d.columns and out.label_names == d.label_names
    elif spec.category == PREPROCESSOR:
        X = fit_preprocessor(cfg, d.features).transform(d.features)
        assert X.shape[0] == d.n
    else:
        assert spec.category == ESTIMATOR
        model = fit(cfg, d, Rng(1))
        assert set(model.predict(d.features).tolist()) <= {0, 1}


def test_custom_component_needs_only_its_spec():
    tree3 = ComponentSpec("Tree3", ESTIMATOR, (),
                          build=lambda: DecisionTreeClassifier(max_depth=3))
    space = SearchSpace(list(DEFAULT_SPACE.components.values()) + [tree3])
    p = parse("SMOTE(k_neighbours=3) >> Tree3()", space)
    assert serialize(p) == "SMOTE(k_neighbours=3) >> Tree3()"
    d = overlapping_binary(40, 16, seed=32)
    res = evaluate(p, d, stratified_folds(d, 3, Rng(2)), "balanced_accuracy",
                   None, Rng(3))
    assert res.status == STATUS_OK
    assert len(res.fold_scores) == 3


def test_builder_stays_out_of_identity():
    a = ComponentSpec("K", ESTIMATOR, (("k", IntRange(1, 3, 1)),), build=lambda k: None)
    b = ComponentSpec("K", ESTIMATOR, (("k", IntRange(1, 3, 1)),))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    cfg = SearchSpace([a]).default_config("K")
    assert cfg == SearchSpace([b]).default_config("K")
    assert "build" not in repr(cfg)


def test_numeric_domains_exclude_bools():
    # True == 1 == 1.0, so a bool used to pass as a range's default of 1
    assert not IntRange(1, 3, 1).contains(True)
    assert not RealRange(0.05, 1.01, 1.0).contains(True)
    with pytest.raises(DomainError, match="learning_rate"):
        DEFAULT_SPACE.make_config("RUSBoostClassifier", {"learning_rate": True})


def test_config_without_builder_is_a_domain_error():
    spec = ComponentSpec("Bare", ESTIMATOR, ())
    cfg = SearchSpace([spec]).default_config("Bare")
    with pytest.raises(DomainError, match="no builder"):
        fit(cfg, overlapping_binary(10, 5), Rng(0))


def test_mutation_keeps_the_builder():
    from imbaml import mutate, random_pipeline
    rng = Rng(33)
    for seed in range(30):
        child = mutate(random_pipeline(DEFAULT_SPACE, Rng(seed)), DEFAULT_SPACE, rng).pipeline
        for step in child.steps:
            assert step.build is DEFAULT_SPACE.spec(step.name).build


def test_vote_counts_match_a_pairwise_count():
    from imbaml.estimators import _vote_counts
    labels = Rng(34).np.integers(0, 4, size=(50, 7))
    expected = np.array([[int((row == c).sum()) for c in range(5)] for row in labels])
    assert np.array_equal(_vote_counts(labels, 5), expected)
