"""Pieces every workload shares: the op record, loading virpoly fresh, the
cache reset, and the percentile rule."""

from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("scalars", "laurent", "densepoly", "faulhaber", "virasoro", "characters",
           "induced", "tailmod", "tensor", "verify", "cli")


class Op:
    """One timed call: ``run()`` is timed, ``check(out, exc)`` gives the verdict.

    ``check`` returns None when the outcome equals the known answer, else a
    short failure class such as ``"exit 1"`` or ``"rank 47 != 48"``.
    ``malformed`` marks a request built to be invalid input.
    """

    __slots__ = ("label", "run", "check", "malformed")

    def __init__(self, label, run, check, malformed=False):
        self.label = label
        self.run = run
        self.check = check
        self.malformed = malformed


def load_virpoly() -> SimpleNamespace:
    """Import virpoly from ``src/`` afresh and return its modules by short name.

    Earlier copies are dropped from ``sys.modules`` first, so each call pays
    the whole import again; callers reach functions through these module
    objects at call time, which is what lets the traced run patch them.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "virpoly" or m.startswith("virpoly.")]:
        del sys.modules[name]
    pkg = importlib.import_module("virpoly")
    mods = {name: importlib.import_module(f"virpoly.{name}") for name in MODULES}
    return SimpleNamespace(package=pkg, **mods)


def cache_sizes(vp) -> dict:
    """Entries held by the engine registries and every engine's memo dicts."""
    engines = list(vp.induced._engines.values())
    tails = list(vp.tailmod._tail_engines.values())
    return {
        "induced.engines": len(engines),
        "induced.act_cache_entries": sum(len(e._act_cache) for e in engines),
        "induced.lmul_cache_entries": sum(len(e._lmul_cache) for e in engines),
        "characters.power_cache_entries": sum(len(e.mu._power_cache) for e in engines),
        "tailmod.engines": len(tails),
        "tailmod.cache_entries": sum(len(e._cache) for e in tails),
    }


def _memoized(vp):
    """Every ``functools`` cache in virpoly (the Faulhaber tables)."""
    for mod in vars(vp).values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                yield obj


def reset_caches(vp) -> None:
    """Drop both engine registries and the memoized tables; check nothing survived.

    Characters are rebuilt from plain data for every pass, so each
    ``_power_cache`` starts empty too.
    """
    vp.induced._engines.clear()
    vp.tailmod._tail_engines.clear()
    for fn in _memoized(vp):
        fn.cache_clear()
    left = {k: v for k, v in cache_sizes(vp).items() if v}
    left.update({fn.__qualname__: fn.cache_info().currsize for fn in _memoized(vp)
                 if fn.cache_info().currsize})
    if left:
        raise RuntimeError(f"caches not empty after reset: {left}")


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than ten samples beyond it."""


def percentile(samples, pct: int) -> dict:
    """Nearest-rank percentile with its sample count.

    The median is always given.  Any other percentile needs at least ten
    samples beyond it (n * (100 - pct) / 100 >= 10), else TooFewSamples.
    """
    n = len(samples)
    if n == 0:
        raise TooFewSamples("no samples")
    if pct != 50 and n * (100 - pct) < 1000:
        raise TooFewSamples(f"p{pct} needs {math.ceil(1000 / (100 - pct))} samples, have {n}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct * n / 100))
    return {"value": ordered[rank - 1], "n": n}
