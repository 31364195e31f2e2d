"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cli_session
import common
import oracle_grid
import run
from tracing import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent


# -- seeded inputs -----------------------------------------------------------

GENERATORS = {name: gen for name, (_, gen, _) in run.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_bytes(name):
    gen = GENERATORS[name]
    a = json.dumps(gen(7), sort_keys=True).encode()
    b = json.dumps(gen(7), sort_keys=True).encode()
    assert a == b
    assert a != json.dumps(gen(8), sort_keys=True).encode()


def test_fields_share_the_draw():
    q, qi = oracle_grid.generate(3, "Q"), oracle_grid.generate(3, "Qi")
    shape = [[(b["family"], b["n"], b["r"], b["cases"]) for b in r] for r in q["rounds"]]
    assert shape == [[(b["family"], b["n"], b["r"], b["cases"]) for b in r]
                     for r in qi["rounds"]]


def test_cli_session_covers_every_class():
    plan = cli_session.generate(0)
    kinds = {(r["kind"], r["malformed"]) for r in plan["requests"].values()}
    assert {(c, False) for c in cli_session.COMMANDS} <= kinds
    assert {(c, True) for c in cli_session.MALFORMED} <= kinds
    assert ("verify", False) in kinds
    fields = {r["argv"][r["argv"].index("--field") + 1]
              for r in plan["requests"].values() if r["kind"] in cli_session.SPECS}
    assert fields == {"Q", "Qi"}


# -- percentiles ---------------------------------------------------------------


def test_percentile_reports_sample_count():
    got = common.percentile(list(range(1, 101)), 90)
    assert got == {"value": 90, "n": 100}
    assert common.percentile([3, 1, 2], 50) == {"value": 2, "n": 3}


def test_percentile_refuses_thin_tail():
    with pytest.raises(common.TooFewSamples):
        common.percentile(list(range(99)), 90)
    with pytest.raises(common.TooFewSamples):
        common.percentile(list(range(999)), 99)
    assert common.percentile(list(range(1000)), 99)["n"] == 1000


# -- cache state -----------------------------------------------------------------


def test_reset_empties_every_cache():
    vp = common.load_virpoly()
    Scalar = vp.scalars.Scalar
    mu = vp.characters.single_root_character(Scalar(2), 2, [Scalar(1), Scalar(1)])
    eng = vp.induced.get_engine(mu)
    eng.act(vp.laurent.LaurentPoly({3: 1}), eng.basis((1, 1)))
    tail = vp.tailmod.TailModuleSpec.verma(Scalar(1), Scalar(2))
    vp.tailmod.b_act(tail, vp.virasoro.VirElement.e(1), {(-1,): Scalar(1)})
    vp.faulhaber.faulhaber(3)
    assert all(common.cache_sizes(vp)[k] for k in
               ("induced.engines", "induced.act_cache_entries", "tailmod.cache_entries"))
    common.reset_caches(vp)
    assert not any(common.cache_sizes(vp).values())
    assert vp.faulhaber.faulhaber.cache_info().currsize == 0
    fresh = vp.characters.single_root_character(Scalar(2), 2, [Scalar(1), Scalar(1)])
    assert fresh._power_cache == {}


def test_reset_raises_when_a_cache_survives(monkeypatch):
    vp = common.load_virpoly()
    monkeypatch.setattr(common, "cache_sizes", lambda vp: {"induced.engines": 1})
    with pytest.raises(RuntimeError):
        common.reset_caches(vp)


# -- the traced run ----------------------------------------------------------------


def _small_plan(name):
    """A cheap slice of the workload's plan that reaches the same layers, and
    how many groups of it to run."""
    plan = GENERATORS[name](1)
    if name.startswith("oracle-grid"):
        plan["rounds"] = [[dict(b, cases=b["cases"][:2]) for b in plan["rounds"][0]]]
        return plan, len(oracle_grid.shapes())
    if name == "slice-depth":
        keep = {("polynomial", 2), ("restricted", 3)}
        plan["items"] = [i for i in plan["items"] if (i["kind"], i["depth"]) in keep]
        return plan, 1
    return plan, 2  # the second round has the Verma scan and a tail


# Per workload, the per-layer metrics the benchmark's table says must move.
MUST_MOVE = {
    "oracle-grid": (
        "scalars.ops", "laurent.f_adic_decompose.calls", "laurent.f_adic_decompose.self_s",
        "laurent.poly_divmod.calls", "laurent.divide_exact.calls",
        "laurent.t_inverse_mod.calls", "laurent.self_s", "characters.value_power.calls",
        "characters.power_cache_entries", "characters.self_s", "induced.act.calls",
        "induced.closed_form.calls", "induced.oracle.calls", "induced.reduce_step.calls",
        "induced.self_s", "induced.engines", "induced.act_cache_entries",
        "induced.lmul_cache_entries", "trace.overhead_ratio"),
    "oracle-grid-qi": (
        "scalars.ops", "scalars.gaussian_share", "laurent.f_adic_decompose.calls",
        "laurent.poly_divmod.calls", "laurent.self_s", "induced.act.calls",
        "trace.overhead_ratio"),
    "slice-depth": (
        "virasoro.vir_bracket.calls", "virasoro.theta.calls", "virasoro.self_s",
        "tailmod.act_vir.calls", "tailmod.cache_entries", "tailmod.self_s",
        "tensor.tensor_act.calls", "tensor.rank.rows", "tensor.rank.yield",
        "tensor.rank.self_s", "tensor.word_vectors.self_s", "tensor.slice_dim.self_s",
        "tensor.self_s", "trace.overhead_ratio"),
    "cli-session": (
        "characters.value_power.calls", "characters.self_s", "induced.act.calls",
        "induced.self_s", "induced.engines", "induced.act_cache_entries",
        "tailmod.act_vir.calls", "tailmod.cache_entries", "tailmod.kac_phi.calls",
        "tailmod.self_s", "verify.cases", "verify.self_s", "cli.requests", "cli.exit.0",
        "cli.exit.2", "cli.uncaught", "cli.self_s", "trace.overhead_ratio"),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = {}
    for name in MUST_MOVE:
        module = run.WORKLOADS[name][0]
        plan, n_groups = _small_plan(name)
        vp = common.load_virpoly()
        workdir = tmp_path_factory.mktemp(name)
        state = module.prepare(vp, plan, workdir)
        common.reset_caches(vp)
        plain, res, tracer, checks = run.trace_unit(module, vp, plan, state, workdir, n_groups)
        ratio = run._ops_per_s(plain) / run._ops_per_s(res)
        out[name] = (vp, res, tracer, checks, tracer.metrics(common.cache_sizes(vp), ratio))
    return out


@pytest.mark.parametrize("name", sorted(MUST_MOVE))
def test_per_layer_counts_move_where_named(traced, name):
    _vp, res, _tracer, checks, metrics = traced[name]
    assert set(metrics) == {m for m, _ in PER_LAYER}
    assert res["failed_valid"] == 0 and all(ok for _, ok, _ in checks)
    idle = [m for m in MUST_MOVE[name] if not metrics[m]["value"] > 0]
    assert not idle


@pytest.mark.parametrize("name", ["oracle-grid", "oracle-grid-qi"])
def test_tensor_layer_idle_on_oracle_grids(traced, name):
    metrics = traced[name][4]
    assert all(v["value"] == 0 for k, v in metrics.items() if k.startswith("tensor."))
    assert all(v["value"] == 0 for k, v in metrics.items() if k.startswith("cli."))


def test_gaussian_share_tells_the_fields_apart(traced):
    assert traced["oracle-grid"][4]["scalars.gaussian_share"]["value"] == 0
    assert traced["oracle-grid-qi"][4]["scalars.gaussian_share"]["value"] > 0.2


def test_cli_session_counts_malformed_failures(traced):
    _vp, res, _tracer, _checks, metrics = traced["cli-session"]
    assert res["malformed"] == 2 * len(cli_session.MALFORMED)
    assert metrics["cli.requests"]["value"] == res["attempted"]
    assert res["failures"] == {} or all(k.startswith("malformed/") for k in res["failures"])


def test_spans_link_to_parents_and_ops(traced):
    tracer = traced["oracle-grid"][2]
    ids = {sid for sid, *_ in tracer.spans}
    assert tracer.spans and all(p is None or p in ids for _, p, *_ in tracer.spans)
    assert all(op is not None for _, _, op, *_ in tracer.spans)
    roots = [s for s in tracer.spans if s[1] is None]
    assert {s[3] for s in roots} == {"bench.op"}


def test_uninstall_restores_every_name(traced):
    vp = traced["slice-depth"][0]
    assert not hasattr(vp.tensor.poly_divmod, "__wrapped__")
    assert not hasattr(vp.verify.closed_form_bracket, "__wrapped__")
    assert vp.tensor.poly_divmod is vp.laurent.poly_divmod
    assert not hasattr(vp.induced.InducedModule.act, "__wrapped__")


def test_install_reaches_names_bound_by_import():
    vp = common.load_virpoly()
    tracer = Tracer()
    tracer.install(vp)
    try:
        for mod, name in ((vp.tensor, "poly_divmod"), (vp.tensor, "bezout"),
                          (vp.verify, "closed_form_bracket"), (vp.cli, "general_tensor_map"),
                          (vp.package, "f_adic_decompose")):
            assert hasattr(getattr(mod, name), "__wrapped__"), (mod.__name__, name)
    finally:
        tracer.uninstall()


# -- the command -------------------------------------------------------------------


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""



def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


class _FakeWorkload:
    """A unit of two groups of cheap ops, to test the loop itself."""

    @staticmethod
    def unit(vp, plan, state):
        def group(n):
            return lambda: [common.Op("fake", lambda: sum(range(2000)), lambda out, exc: None)
                            for _ in range(n)]
        return [group(2), group(3)]


def test_fixed_pass_cycles_the_unit():
    res = run.run_pass(_FakeWorkload, None, None, None, n_groups=5)
    assert res["attempted"] == 2 + 3 + 2 + 3 + 2 and res["groups"] == 5
    assert len(res["latencies"]) == res["attempted"] and res["wall_s"] > 0


def test_timed_pass_finishes_its_first_group():
    res = run.run_pass(_FakeWorkload, None, None, None, seconds=1e-9)
    assert res["attempted"] == 2 and res["groups"] == 1


def test_timed_pass_probes_the_machine():
    res = run.run_pass(_FakeWorkload, None, None, None, seconds=0.05)
    durations = [d for _, d, _ in res["probes"]]
    assert len(durations) >= 2 and all(0 < d <= e for _, d, e in res["probes"])
    assert min(durations) <= run.reference_s(res["probes"]) <= max(durations)


def test_reference_weights_probes_by_time():
    probes = [(0.0, 1.0, 3.0), (1.0, 1.0, 3.0), (3.0, 3.0, 9.0)]
    assert run.reference_s(probes) == (1 * 1 + 2 * 2) / 3
