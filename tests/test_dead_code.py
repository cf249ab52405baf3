"""Every function, method and class defined in ``src/imbaml`` is named
somewhere else, and every function reads every parameter it takes.

A stdlib-only stand-in for a linter's dead-code rules. First, the name of
each function, method or class defined in the package, dunders aside, must
appear in ``src/``, ``tests/`` or ``perfbench/`` outside its own definition
(a class's body is part of its definition). A name counts when it is
written as a name, as an attribute (``obj.name``), in an import, or as a
whole string constant, since perfbench wraps methods by name. Names are
matched by spelling alone, so one use covers every definition of that
name. A private (leading-underscore) function or class must be named in
``src/`` or ``perfbench/``: one that only tests name is code only tests
need.

Second, the body of each such function must read each of its parameters,
nested functions included. The shared interfaces are exempt: a method's
receiver (``self``, ``cls``), parameters named ``rng`` or ``deadline``
(every estimator and sampler takes them, and some ignore them), the ``X``
of a preprocessor's ``fit(self, X)``, and dunder methods.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "imbaml"
SCANNED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_NAMED_DEFS = (*_DEFS, ast.ClassDef)


def defined_functions(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of each function, method and class, dunders aside."""
    return [(node.name, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, _NAMED_DEFS)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def named(source: str) -> set[str]:
    """Names a module writes, except those inside a definition of that name."""
    found = set()

    def visit(node, enclosing):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in enclosing:
            found.add(name)
        if isinstance(node, _NAMED_DEFS):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def unnamed_functions(package: dict[str, str], others: list[str]) -> list[str]:
    """``path:line name`` of each function or class in ``package`` (path ->
    source) that no module of ``package`` or ``others`` names."""
    used = set()
    for source in [*package.values(), *others]:
        used |= named(source)
    return sorted(f"{path}:{line} {name}" for path, source in package.items()
                  for name, line in defined_functions(source) if name not in used)


_SHARED_PARAMETERS = {"rng", "deadline"}


def unread_parameters(source: str) -> list[tuple[str, str, int]]:
    """``(function, parameter, line)`` for each parameter that its function's
    body never reads, the shared interfaces aside (see the module docstring)."""
    found = []

    def check(fn, in_class: bool):
        if fn.name.startswith("__") and fn.name.endswith("__"):
            return
        args = fn.args
        names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if a is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exempt = set(_SHARED_PARAMETERS)
        if in_class and names:
            exempt.add(names[0])
            if fn.name == "fit" and names[1:] == ["X"]:
                exempt.add("X")
        found.extend((fn.name, name, fn.lineno) for name in names
                     if name not in read and name not in exempt)

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                check(child, isinstance(node, ast.ClassDef))
            visit(child)

    visit(ast.parse(source))
    return found


def package_sources(scanned=SCANNED) -> tuple[dict[str, str], list[str]]:
    """(path -> source of each package module, sources of the other files
    under ``scanned``)."""
    files = sorted({p for root in scanned for p in root.rglob("*.py")})
    package = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in files if PACKAGE in p.parents}
    others = [p.read_text(encoding="utf-8") for p in files if PACKAGE not in p.parents]
    return package, others


def test_every_package_function_is_named():
    package, others = package_sources()
    assert unnamed_functions(package, others) == []


def test_every_private_package_function_is_named_outside_tests():
    package, others = package_sources([ROOT / "src", ROOT / "perfbench"])
    assert [f for f in unnamed_functions(package, others)
            if f.split()[-1].startswith("_")] == []


def test_every_package_parameter_is_read():
    package, _ = package_sources()
    assert [f"{path}:{line} {fn}({name})" for path, source in package.items()
            for fn, name, line in unread_parameters(source)] == []


def test_scan_flags_an_unnamed_function():
    lib = ("def used():\n    pass\n\n\n"
           "def dead():\n    return dead()\n\n\n"
           "class A:\n    def __init__(self):\n        pass\n\n"
           "    def by_attr(self):\n        pass\n\n"
           "    def by_string(self):\n        pass\n\n\n"
           "class Unused:\n    def make(self):\n        return Unused()\n")
    user = "used()\nA().by_attr()\nwrap(A, 'by_string')\nUnused().make()\n"
    # a call inside its own definition does not count; dunders are exempt
    assert unnamed_functions({"lib.py": lib}, [user]) == ["lib.py:5 dead"]
    # a docstring that mentions a name does not name it
    assert unnamed_functions({"lib.py": lib}, ['"""Calls dead()."""\n' + user]) \
        == ["lib.py:5 dead"]
    # a class named only in its own body is unnamed
    assert unnamed_functions({"lib.py": lib}, [user.replace("Unused()", "x")]) \
        == ["lib.py:20 Unused", "lib.py:5 dead"]


def test_scan_flags_an_unread_parameter():
    lib = ("def f(a, b, *rest, c=1, **kw):\n    return a + c\n\n\n"
           "def outer(x, y):\n    def inner():\n        return y\n    return inner\n\n\n"
           "def shared(X, rng=None, deadline=None):\n    return X\n\n\n"
           "class P:\n    def fit(self, X):\n        return 1\n\n"
           "    def transform(self, X, scale):\n        return X\n\n"
           "    def __eq__(self, other):\n        return True\n")
    # a nested function's read counts for the enclosing one; a method's
    # receiver, rng, deadline, a preprocessor fit's X and dunders are exempt
    assert unread_parameters(lib) == [("f", "b", 1), ("f", "rest", 1), ("f", "kw", 1),
                                      ("outer", "x", 5), ("transform", "scale", 19)]
