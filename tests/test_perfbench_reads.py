"""The benchmark reads engine internals by name; every read must still work.

``perfbench/common.py`` counts cache entries through ``induced._engines``,
``_act_cache``, ``_lmul_cache``, ``ExpPolyCharacter._power_cache``,
``tailmod._tail_engines`` and ``TailModule._cache``, and empties them, with
the ``functools`` tables, between passes.  A refactor of those internals
fails here instead of only in the untiered perfbench tests.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

import virpoly
from virpoly.characters import single_root_character
from virpoly.faulhaber import faulhaber
from virpoly.induced import get_engine
from virpoly.laurent import LaurentPoly
from virpoly.scalars import sc
from virpoly.tailmod import TailModuleSpec, b_act
from virpoly.virasoro import VirElement

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def common():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("common")


def test_cache_reads_and_reset(common):
    # the modules this process already imported, not a fresh copy of the package
    vp = SimpleNamespace(
        package=virpoly, **{name: importlib.import_module(f"virpoly.{name}") for name in common.MODULES}
    )
    mu = single_root_character(sc(3), 2, [1, 2])
    eng = get_engine(mu)
    eng.act(LaurentPoly({1: 1, -2: 3}), eng.basis((1, 1)))
    b_act(TailModuleSpec.verma(sc(2), sc(1)), VirElement.e(1), {(-2, -1): sc(1)})
    faulhaber(3)
    sizes = common.cache_sizes(vp)
    for name in (
        "induced.engines",
        "induced.act_cache_entries",
        "induced.lmul_cache_entries",
        "characters.power_cache_entries",
        "tailmod.engines",
        "tailmod.cache_entries",
    ):
        assert sizes[name] > 0, name
    assert faulhaber.cache_info().currsize > 0
    common.reset_caches(vp)
    assert not any(common.cache_sizes(vp).values())
    assert faulhaber.cache_info().currsize == 0
