"""Search-space machinery: hyperparameter domains, component specs and the
configs bound from them.

A ``ComponentSpec`` carries the builder of its component, and every config
made from the spec carries the same builder, so a space is the only table a
component needs. The default inventory lives in ``imbaml.components``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .rng import Rng

SAMPLER = "sampler"
PREPROCESSOR = "preprocessor"
ESTIMATOR = "estimator"


class DomainError(ValueError):
    """A hyperparameter value outside its declared domain; names the offender."""


@dataclass(frozen=True)
class Categorical:
    values: tuple
    default: object

    def contains(self, v) -> bool:
        return v in self.values or v == self.default

    def draw(self, rng: Rng):
        return self.values[int(rng.np.integers(len(self.values)))]


@dataclass(frozen=True)
class IntRange:
    lo: int
    hi: int
    default: int

    def contains(self, v) -> bool:
        return not isinstance(v, bool) and (
            (isinstance(v, int) and self.lo <= v <= self.hi) or v == self.default)

    def draw(self, rng: Rng) -> int:
        return int(rng.np.integers(self.lo, self.hi + 1))


@dataclass(frozen=True)
class RealRange:
    lo: float
    hi: float
    default: float

    @property
    def log_scale(self) -> bool:
        # log-uniform sampling once the range spans more than one order of magnitude
        return self.lo > 0 and self.hi / self.lo > 10.0

    def contains(self, v) -> bool:
        return not isinstance(v, bool) and (
            (isinstance(v, (int, float)) and self.lo <= float(v) <= self.hi)
            or v == self.default)

    def draw(self, rng: Rng) -> float:
        if self.log_scale:
            return float(math.exp(rng.np.uniform(math.log(self.lo), math.log(self.hi))))
        return float(rng.np.uniform(self.lo, self.hi))


def _builder_field():
    # a builder is not part of a component's identity: equality, hashing and
    # repr see only the name, category and parameters
    return field(default=None, compare=False, hash=False, repr=False)


@dataclass(frozen=True)
class ComponentSpec:
    """One component: its name, category, hyperparameter domains and builder.

    ``build(**params)`` returns what the category's entry point needs: a
    ``(d, rng, deadline) -> Dataset`` callable for a sampler, an unfitted
    preprocessor, or an unfitted estimator.
    """

    name: str
    category: str
    params: tuple[tuple[str, object], ...] = ()  # (name, domain) in canonical order
    build: Callable | None = _builder_field()

    def domain(self, name: str):
        for pname, dom in self.params:
            if pname == name:
                return dom
        raise DomainError(f"unknown hyperparameter '{name}' for {self.name}")


@dataclass(frozen=True)
class ComponentConfig:
    """A component with bound hyperparameter values, validated on creation."""

    name: str
    category: str
    params: tuple[tuple[str, object], ...] = ()
    build: Callable | None = _builder_field()

    def get(self, name: str):
        for pname, v in self.params:
            if pname == name:
                return v
        raise KeyError(name)

    def as_dict(self) -> dict:
        return dict(self.params)

    def instantiate(self):
        """The builder's product for these hyperparameter values."""
        if self.build is None:
            raise DomainError(f"{self.name} has no builder")
        return self.build(**self.as_dict())


class SearchSpace:
    def __init__(self, components: list[ComponentSpec]):
        self.components = {c.name: c for c in components}
        if len(self.components) != len(components):
            raise ValueError("duplicate component names")

    def spec(self, name: str) -> ComponentSpec:
        if name not in self.components:
            raise DomainError(f"unknown component '{name}'")
        return self.components[name]

    def by_category(self, category: str) -> tuple[ComponentSpec, ...]:
        return tuple(c for c in self.components.values() if c.category == category)

    def samplers(self):
        return self.by_category(SAMPLER)

    def preprocessors(self):
        return self.by_category(PREPROCESSOR)

    def estimators(self):
        return self.by_category(ESTIMATOR)

    def make_config(self, name: str, params: dict | None = None) -> ComponentConfig:
        """Bind values (missing ones fall back to defaults) and validate domains."""
        spec = self.spec(name)
        params = dict(params or {})
        bound = []
        for pname, dom in spec.params:
            v = params.pop(pname, dom.default)
            if isinstance(dom, IntRange) and isinstance(v, float) and v.is_integer():
                v = int(v)
            if isinstance(dom, RealRange) and isinstance(v, int) and not isinstance(v, bool):
                v = float(v)
            if not dom.contains(v):
                raise DomainError(
                    f"{name}: value {v!r} for hyperparameter '{pname}' is outside its domain")
            bound.append((pname, v))
        if params:
            raise DomainError(
                f"{name}: unknown hyperparameter '{sorted(params)[0]}'")
        return ComponentConfig(spec.name, spec.category, tuple(bound), spec.build)

    def default_config(self, name: str) -> ComponentConfig:
        return self.make_config(name, {})

    def random_config(self, name: str, rng: Rng) -> ComponentConfig:
        spec = self.spec(name)
        return ComponentConfig(
            spec.name, spec.category,
            tuple((pname, dom.draw(rng)) for pname, dom in spec.params), spec.build)
