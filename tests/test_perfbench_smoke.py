"""The benchmark's workloads call virpoly by name and position; every call must still pass.

One untraced group of each workload in ``perfbench/`` runs from a fresh
plan against the modules this process already imported, and every op's
``check`` must return None: a ``slice-depth`` cycle, one ``oracle-grid``
block per family in each field (``reduce`` passes ``J_WINDOW`` to
``reduce_to_generator`` by position) and one ``cli-session`` round.  A
change to a signature, an option or a result the benchmark reads fails
here instead of only in a benchmark run.  One ``slice-depth`` cycle also
runs traced, and every per-layer metric the benchmark's own tests name for
that workload must move, so a faster path that skips a traced function
fails here too.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

import virpoly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


@pytest.fixture
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield SimpleNamespace(
            **{name: importlib.import_module(name)
               for name in ("common", "slice_depth", "oracle_grid", "cli_session", "run",
                            "test_perfbench")}
        )


@pytest.fixture
def vp(bench):
    # the modules this process already imported, not a fresh copy of the package
    vp = SimpleNamespace(
        package=virpoly, **{name: importlib.import_module(f"virpoly.{name}") for name in bench.common.MODULES}
    )
    bench.common.reset_caches(vp)
    return vp


def failures(ops):
    """The ``label: why`` of every op whose check does not pass."""
    out = []
    for op in ops:
        try:
            result, exc = op.run(), None
        except Exception as err:  # the op's outcome; its check judges it
            result, exc = None, err
        why = op.check(result, exc)
        if why is not None:
            out.append(f"{op.label}: {why}")
    return out


def test_slice_depth_cycle(bench, vp, tmp_path):
    module = bench.slice_depth
    plan = module.generate(SEED)
    (group,) = module.unit(vp, plan, module.prepare(vp, plan, tmp_path))
    ops = group()
    assert len(ops) == len(module.KNOWN_RANK)
    assert failures(ops) == []


def test_traced_slice_depth_cycle_moves_every_named_metric(bench, vp, tmp_path):
    # theta, TailModule.act_vir and tensor._rank among them: the traced
    # layers of the tensor path must stay on it
    module, run = bench.slice_depth, bench.run
    plan = module.generate(SEED)
    state = module.prepare(vp, plan, tmp_path)
    plain, res, tracer, checks = run.trace_unit(module, vp, plan, state, tmp_path, 1)
    assert res["attempted"] == len(module.KNOWN_RANK) and res["failed"] == 0
    assert all(ok for _, ok, _ in checks)
    metrics = tracer.metrics(bench.common.cache_sizes(vp), run._ops_per_s(plain) / run._ops_per_s(res))
    named = bench.test_perfbench.MUST_MOVE["slice-depth"]
    assert {"virasoro.theta.calls", "tailmod.act_vir.calls", "tensor.rank.rows"} <= set(named)
    assert [m for m in named if not metrics[m]["value"] > 0] == []
    # _quotient_reducer calls theta too: tensor_act itself must call both
    name = {sid: span for sid, _, _, span, *_ in tracer.spans}
    called = {(name.get(parent), span) for _, parent, _, span, *_ in tracer.spans}
    assert {("tensor.tensor_act", "virasoro.theta"),
            ("tensor.tensor_act", "tailmod.TailModule.act_vir")} <= called


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_oracle_grid_block_per_family(bench, vp, tmp_path, field):
    module = bench.oracle_grid
    plan = module.generate(SEED, field)
    state = module.prepare(vp, plan, tmp_path)
    groups = module.unit(vp, plan, state)
    first = {}
    for k, block in enumerate(plan["rounds"][0]):
        first.setdefault(block["family"], k)
    assert sorted(first) == ["brack", "comp1", "comp3", "reduce"]
    for fam, k in first.items():
        ops = groups[k]()
        assert ops, fam
        assert failures(ops) == [], fam


def test_cli_session_round(bench, vp, tmp_path):
    module = bench.cli_session
    plan = module.generate(SEED)
    groups = module.unit(vp, plan, module.prepare(vp, plan, tmp_path / "work"))
    ops = groups[0]()
    assert {op.label.split("/")[0] for op in ops} >= {*module.COMMANDS, "verify", "malformed"}
    assert failures(ops) == []
