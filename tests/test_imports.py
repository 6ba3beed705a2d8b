"""Every module reads what it imports; no linter is configured to check it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/qmpc/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__all__`` counts as a read,
    and ``from __future__`` imports are compiler directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_detector_flags_an_unused_import_only():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import pi, tau\n"
        "from typing import Sequence\n"
        "__all__ = ['tau']\n"
        "def f(x: Sequence) -> float:\n    return os.path.sep + pi\n"
    )
    assert unused_imports(source) == ["j (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
