"""Every module-level import in ``src/imbaml`` is used by its module.

A stdlib-only stand-in for a linter's unused-import rule: a name bound by a
module-level ``import`` or ``from ... import`` must appear as a name (or the
root of an attribute chain) somewhere else in the module, or in its
``__all__``. Package ``__init__.py`` files re-export names and are skipped.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "imbaml"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # quoted annotations ("Rng | None") name what they use
        for ann in _annotations(node):
            for part in ast.walk(ann):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                                if isinstance(n, ast.Name))
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "__all__"):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def _annotations(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
            if arg is not None and arg.annotation is not None:
                yield arg.annotation
        if node.returns is not None:
            yield node.returns
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nx: 'c | None' = None\n") == []
    # a docstring that names an import does not use it
    assert unused_imports('"""Raises E."""\nfrom a import E\n') == ["E (line 2)"]


def test_import_loads_no_network_or_process_pool_modules():
    # OpenML downloads import urllib, multi-worker searches multiprocessing;
    # a one-worker fit on a local file pays for neither
    code = ("import sys, imbaml; print(sorted(m for m in ('urllib.request', "
            "'multiprocessing') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
