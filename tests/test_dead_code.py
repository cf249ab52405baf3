"""Every function and method defined in ``src/imbaml`` is named somewhere else.

A stdlib-only stand-in for a linter's dead-code rule: the name of each
function or method defined in the package, dunders aside, must appear in
``src/``, ``tests/`` or ``perfbench/`` outside its own definition. A name
counts when it is written as a name, as an attribute (``obj.name``), in an
import, or as a whole string constant, since perfbench wraps methods by
name. Names are matched by spelling alone, so one use covers every
definition of that name.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "imbaml"
SCANNED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defined_functions(source: str) -> list[tuple[str, int]]:
    return [(node.name, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, _DEFS)
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
        if isinstance(node, _DEFS):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def unnamed_functions(package: dict[str, str], others: list[str]) -> list[str]:
    """``path:line name`` of each function in ``package`` (path -> source)
    that no module of ``package`` or ``others`` names."""
    used = set()
    for source in [*package.values(), *others]:
        used |= named(source)
    return sorted(f"{path}:{line} {name}" for path, source in package.items()
                  for name, line in defined_functions(source) if name not in used)


def test_every_package_function_is_named():
    files = sorted({p for root in SCANNED for p in root.rglob("*.py")})
    package = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in files if PACKAGE in p.parents}
    others = [p.read_text(encoding="utf-8") for p in files if PACKAGE not in p.parents]
    assert unnamed_functions(package, others) == []


def test_scan_flags_an_unnamed_function():
    lib = ("def used():\n    pass\n\n\n"
           "def dead():\n    return dead()\n\n\n"
           "class A:\n    def __init__(self):\n        pass\n\n"
           "    def by_attr(self):\n        pass\n\n"
           "    def by_string(self):\n        pass\n")
    user = "used()\nA().by_attr()\nwrap(A, 'by_string')\n"
    # a call inside its own definition does not count; dunders are exempt
    assert unnamed_functions({"lib.py": lib}, [user]) == ["lib.py:5 dead"]
    # a docstring that mentions a name does not name it
    assert unnamed_functions({"lib.py": lib}, ['"""Calls dead()."""\n' + user]) \
        == ["lib.py:5 dead"]
