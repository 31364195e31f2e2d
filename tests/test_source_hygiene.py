"""Static checks on the package source, made with the standard library's ast.

A deletion that leaves an import behind, or an ``__all__`` entry naming a
function that is gone, fails here rather than in a later reader's editor.
"""

import ast
from pathlib import Path

import pytest

import virpoly

SRC = Path(virpoly.__file__).resolve().parent


def unused_imports(source: str) -> list:
    """Names a module imports but never reads (``__future__`` imports aside)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = "from math import gcd, lcm\nimport json\n\ndef f(a):\n    return gcd(a, 2)\n"
    assert unused_imports(source) == ["json", "lcm"]


def test_every_exported_name_resolves():
    missing = [name for name in virpoly.__all__ if not hasattr(virpoly, name)]
    assert missing == []
    assert len(set(virpoly.__all__)) == len(virpoly.__all__)
