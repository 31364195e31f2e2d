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
# the Scalar type itself and the sparse loops.
TRIPLE_READERS = {"scalars", "sparse"}


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


def kernel_constructor_importers(modules: dict) -> list:
    """Modules of ``modules`` (name -> source) that import ``_make`` or ``_reduced``."""
    return sorted(
        module
        for module, source in modules.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and {a.name for a in node.names} & {"_make", "_reduced"}
    )


def test_only_the_kernel_builds_scalars_from_triples():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert kernel_constructor_importers(modules) == ["sparse"]  # scalars defines them
    assert kernel_constructor_importers({"m": "from .scalars import ONE, _reduced\n"}) == ["m"]


def call_sites(readers: list) -> dict:
    """Call name -> (positional count, keyword names) of every call in ``readers``
    that uses no * or ** argument."""
    out = {}
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name is None or any(isinstance(a, ast.Starred) for a in node.args):
                continue
            if any(k.arg is None for k in node.keywords):
                continue
            out.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}))
    return out


def functions(source: str):
    """(qualified name, call name, def, bound) of each top-level function and
    method; a class call is a call of its ``__init__``, and a method that is
    not static is bound, so its first parameter is never passed."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top.name, top, False
        elif isinstance(top, ast.ClassDef):
            for f in top.body:
                if isinstance(f, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
                    call = top.name if f.name == "__init__" else f.name
                    yield f"{top.name}.{f.name}", call, f, not static


def unset_defaults(modules: dict, readers: list) -> list:
    """Defaulted parameters of the functions in ``modules`` (name -> source)
    that no call in ``readers`` passes, by position or by keyword.  Calls
    are matched by name; a function with no call site is skipped."""
    sites = call_sites(readers)
    out = []
    for module, source in modules.items():
        for qual, call, f, bound in functions(source):
            if call not in sites:
                continue
            a = f.args
            pos = [x.arg for x in a.posonlyargs + a.args][bound:]
            defaulted = pos[len(pos) - len(a.defaults) :] if a.defaults else []
            defaulted += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for name in defaulted:
                i = pos.index(name) if name in pos else len(pos)
                if not any(name in kws or i < n for n, kws in sites[call]):
                    out.append(f"{module}.{qual}({name})")
    return sorted(out)


def test_every_default_is_set_somewhere():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py") if p.name != "__init__.py"}
    others = [p for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")]
    readers = list(modules.values()) + [p.read_text(encoding="utf-8") for p in others]
    assert unset_defaults(modules, readers) == []


def test_unset_default_is_caught():
    module = (
        "def f(a, b=1, *, c=2):\n    return a\n\n"
        "def lonely(x=0):\n    return x\n\n"
        "class K:\n    def __init__(self, a=1, b=2):\n        self.a = a\n\n"
        "    def m(self, u=0, v=0):\n        return u\n\n"
        "    @staticmethod\n    def s(j, w=1):\n        return j\n"
    )
    reader = "f(1, c=3)\nf(*xs)\nf(**kw)\nK(5)\nk.m(1)\nK.s(2)\n"
    assert unset_defaults({"mod": module}, [module, reader]) == [
        "mod.K.__init__(b)",
        "mod.K.m(v)",
        "mod.K.s(w)",
        "mod.f(b)",
    ]
