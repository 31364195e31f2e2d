"""Static checks on the package source, made with the standard library's ast.

A deletion that leaves an import behind, an ``__all__`` entry naming a
function that is gone, or a function or class that nothing names any more
fails here rather than in a later reader's editor.
"""

import ast
import re
from pathlib import Path

import pytest

import virpoly

SRC = Path(virpoly.__file__).resolve().parent
ROOT = SRC.parent.parent
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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


def named(source: str) -> set:
    """Names a module reads: identifiers, attributes, and dotted-name strings
    such as the traced ``"Class.method"`` entries (prose is not a name)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                out.update(node.value.split("."))
    return out


def unnamed_definitions(modules: dict, readers: list) -> list:
    """Top-level functions and classes of ``modules`` (name -> source) that no
    source in ``readers`` names; a definition does not name itself."""
    seen = set().union(*map(named, readers))
    return sorted(
        f"{module}.{node.name}"
        for module, source in modules.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in seen
    )


def test_every_definition_is_named_somewhere():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py") if p.name != "__init__.py"}
    others = [p for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")]
    readers = list(modules.values()) + [p.read_text(encoding="utf-8") for p in others]
    assert unnamed_definitions(modules, readers) == []


def test_unnamed_definition_is_caught():
    module = "def used():\n    return 1\n\ndef dead():\n    return used()\n\nclass Gone:\n    pass\n"
    reader = 'SPANS = ("mod.used",)\n"""dead is mentioned only in prose."""\n'
    assert unnamed_definitions({"mod": module}, [module, reader]) == ["mod.Gone", "mod.dead"]


# The integer triples (a, b, d) of a Scalar are read only by the exact kernel:
# the Scalar type itself, the sparse loops, and the Virasoro bracket.
TRIPLE_READERS = {"scalars", "sparse", "virasoro"}


def triple_reads(source: str) -> list:
    """Line numbers where a source reads ``._a``, ``._b`` or ``._d``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr in ("_a", "_b", "_d")
        and isinstance(node.ctx, ast.Load)
    )


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.stem not in TRIPLE_READERS),
    ids=lambda p: p.stem,
)
def test_only_the_kernel_reads_scalar_triples(path):
    assert triple_reads(path.read_text(encoding="utf-8")) == []


def test_triple_read_is_caught():
    source = "def f(c, x):\n    x._a = 1\n    if c._b:\n        return c._d\n    return c.a\n"
    assert triple_reads(source) == [3, 4]
    assert {p.stem for p in SRC.glob("*.py")} >= TRIPLE_READERS
