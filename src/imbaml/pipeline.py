"""Pipeline genotype: random generation, mutation, crossover and the
canonical text form used on disk and in reports.

A pipeline is an ordered chain of resampler/preprocessor steps closed by
exactly one estimator, capped at 2 resamplers and 3 preprocessors so the
search cannot grow unboundedly expensive chains.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from typing import NamedTuple

from .rng import Rng
from .space import ComponentConfig, ESTIMATOR, PREPROCESSOR, SAMPLER, SearchSpace

MAX_SAMPLERS = 2
MAX_PREPROCESSORS = 3
MUTATE_RETRIES = 10

STEP_SEPARATOR = " >> "


class PipelineError(ValueError):
    pass


class ParseError(PipelineError):
    """Syntax error with the character position where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Pipeline:
    steps: tuple[ComponentConfig, ...]

    def __post_init__(self):
        if not self.steps:
            raise PipelineError("pipeline has no steps")
        if self.steps[-1].category != ESTIMATOR:
            raise PipelineError("final step must be an estimator")
        cats = [s.category for s in self.steps[:-1]]
        if ESTIMATOR in cats:
            raise PipelineError("estimator must be terminal and unique")
        if cats.count(SAMPLER) > MAX_SAMPLERS:
            raise PipelineError(f"more than {MAX_SAMPLERS} resampler steps")
        if cats.count(PREPROCESSOR) > MAX_PREPROCESSORS:
            raise PipelineError(f"more than {MAX_PREPROCESSORS} preprocessor steps")

    @property
    def pre_steps(self) -> tuple[ComponentConfig, ...]:
        return self.steps[:-1]

    @property
    def estimator(self) -> ComponentConfig:
        return self.steps[-1]

    @property
    def id(self) -> str:
        return hashlib.sha256(serialize(self).encode()).hexdigest()

    def __str__(self) -> str:
        return serialize(self)


def _format_value(v) -> str:
    if isinstance(v, bool):
        raise PipelineError("boolean hyperparameters are not part of the grammar")
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_component(c: ComponentConfig) -> str:
    args = ", ".join(f"{n}={_format_value(v)}" for n, v in c.params)
    return f"{c.name}({args})"


def serialize(p: Pipeline) -> str:
    return STEP_SEPARATOR.join(serialize_component(s) for s in p.steps)


_COMPONENT_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$", re.DOTALL)
_TOKEN_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")


def _parse_value(token: str, position: int):
    token = token.strip()
    if not _TOKEN_RE.match(token):
        raise ParseError(f"bad value token {token!r}", position)
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_component(text: str, space: SearchSpace, offset: int = 0) -> ComponentConfig:
    m = _COMPONENT_RE.match(text)
    if not m:
        raise ParseError(f"expected Component(arg=value, ...), got {text!r}", offset)
    name, body = m.group(1), m.group(2).strip()
    params = {}
    if body:
        for chunk in body.split(","):
            if "=" not in chunk:
                raise ParseError(f"expected name=value, got {chunk!r}",
                                 offset + text.index(chunk))
            key, val = chunk.split("=", 1)
            params[key.strip()] = _parse_value(val, offset + text.index(chunk))
    return space.make_config(name, params)


def parse(text: str, space: SearchSpace) -> Pipeline:
    """Inverse of :func:`serialize`; raises ParseError for syntax problems and
    DomainError (naming the hyperparameter) for out-of-domain values."""
    if not text or not text.strip():
        raise ParseError("empty pipeline text", 0)
    steps = []
    offset = 0
    for part in text.split(">>"):
        if not part.strip():
            raise ParseError("empty pipeline step", offset)
        steps.append(parse_component(part, space, offset))
        offset += len(part) + 2
    return Pipeline(tuple(steps))


def _counts(steps) -> tuple[int, int]:
    cats = [s.category for s in steps]
    return cats.count(SAMPLER), cats.count(PREPROCESSOR)


def random_pipeline(space: SearchSpace, rng: Rng) -> Pipeline:
    """Draw a pipeline: estimator uniform, one resampler with probability 0.5,
    0-2 preprocessors uniform, hyperparameters uniform over their domains
    (log-uniform for wide positive real ranges)."""
    estimators = space.estimators()
    est = estimators[int(rng.np.integers(len(estimators)))]
    steps: list[ComponentConfig] = []
    if rng.np.random() < 0.5:
        samplers = space.samplers()
        steps.append(space.random_config(
            samplers[int(rng.np.integers(len(samplers)))].name, rng))
    n_prep = int(rng.np.integers(0, 3))
    preprocessors = space.preprocessors()
    for _ in range(n_prep):
        steps.append(space.random_config(
            preprocessors[int(rng.np.integers(len(preprocessors)))].name, rng))
    steps.append(space.random_config(est.name, rng))
    return Pipeline(tuple(steps))


class MutationResult(NamedTuple):
    pipeline: Pipeline
    changed: bool


def _perturb_targets(p: Pipeline):
    return [(i, pname) for i, s in enumerate(p.steps) for pname, _ in s.params]


def _applicable_moves(p: Pipeline):
    moves = []
    if _perturb_targets(p):
        moves.append("perturb")
    moves.append("swap")  # every category has at least two alternatives
    n_samp, n_prep = _counts(p.pre_steps)
    if n_samp < MAX_SAMPLERS or n_prep < MAX_PREPROCESSORS:
        moves.append("insert")
    if p.pre_steps:
        moves.append("delete")
    return moves


def _mutate_once(p: Pipeline, space: SearchSpace, rng: Rng) -> Pipeline:
    moves = _applicable_moves(p)
    move = moves[int(rng.np.integers(len(moves)))]
    steps = list(p.steps)
    if move == "perturb":
        targets = _perturb_targets(p)
        i, pname = targets[int(rng.np.integers(len(targets)))]
        spec = space.spec(steps[i].name)
        dom = spec.domain(pname)
        value = dom.draw(rng)
        params = tuple((n, value if n == pname else v) for n, v in steps[i].params)
        steps[i] = replace(steps[i], params=params)
    elif move == "swap":
        i = int(rng.np.integers(len(steps)))
        pool = [c for c in space.by_category(steps[i].category) if c.name != steps[i].name]
        if not pool:
            return p
        steps[i] = space.random_config(pool[int(rng.np.integers(len(pool)))].name, rng)
    elif move == "insert":
        n_samp, n_prep = _counts(p.pre_steps)
        cats = ([SAMPLER] if n_samp < MAX_SAMPLERS else []) + \
               ([PREPROCESSOR] if n_prep < MAX_PREPROCESSORS else [])
        cat = cats[int(rng.np.integers(len(cats)))]
        pool = space.by_category(cat)
        new = space.random_config(pool[int(rng.np.integers(len(pool)))].name, rng)
        pos = int(rng.np.integers(len(p.pre_steps) + 1))
        steps.insert(pos, new)
    else:  # delete
        pos = int(rng.np.integers(len(p.pre_steps)))
        del steps[pos]
    return Pipeline(tuple(steps))


def mutate(p: Pipeline, space: SearchSpace, rng: Rng) -> MutationResult:
    """One structural or hyperparameter move; retries, ``MUTATE_RETRIES``
    tries in all, until the child differs from the parent, else returns the
    parent with ``changed=False``."""
    original = serialize(p)
    for _ in range(MUTATE_RETRIES):
        child = _mutate_once(p, space, rng)
        if serialize(child) != original:
            return MutationResult(child, True)
    return MutationResult(p, False)


def _trim_to_caps(steps: list[ComponentConfig]) -> list[ComponentConfig]:
    out, n_samp, n_prep = [], 0, 0
    for s in steps:
        if s.category == SAMPLER:
            if n_samp >= MAX_SAMPLERS:
                continue
            n_samp += 1
        elif s.category == PREPROCESSOR:
            if n_prep >= MAX_PREPROCESSORS:
                continue
            n_prep += 1
        out.append(s)
    return out


def crossover(a: Pipeline, b: Pipeline, rng: Rng) -> Pipeline:
    """Single shared-cut splice of the pre-estimator chains; the estimator is
    inherited from the second donor. Identical parents map to themselves."""
    first, second = (a, b) if rng.np.random() < 0.5 else (b, a)
    cut = int(rng.np.integers(0, max(len(first.pre_steps), len(second.pre_steps)) + 1))
    pre = list(first.pre_steps[:cut]) + list(second.pre_steps[cut:])
    steps = _trim_to_caps(pre) + [second.estimator]
    return Pipeline(tuple(steps))
