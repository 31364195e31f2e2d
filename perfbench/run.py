"""Run one workload of the virpoly benchmark and print its result.

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; virpoly is imported from ``src/``.  The
workload runs single-threaded in this process as a closed loop: one op is
sent only after the previous one returned and was checked.  The last line
of stdout is the result object; the line before it carries every
end-to-end metric with its unit and sample count, the failure classes and
the environment.  ``--trace 1`` runs a fixed unit of the workload twice,
untraced and then traced, and reports the per-layer metrics instead.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

import cli_session
import common
import oracle_grid
import slice_depth
from tracing import OP_SPAN, Tracer

SETUP_REPS = 7
OUT = common.ROOT / "perfbench" / "_out"
WORK = common.ROOT / "perfbench" / "_work"

WORKLOADS = {
    "oracle-grid": (oracle_grid, lambda seed: oracle_grid.generate(seed, "Q"), "cold"),
    "oracle-grid-qi": (oracle_grid, lambda seed: oracle_grid.generate(seed, "Qi"), "cold"),
    "slice-depth": (slice_depth, slice_depth.generate, "cold"),
    "cli-session": (cli_session, cli_session.generate, "cold at start, warm across requests"),
}


def setup(name: str, seed: int, workdir):
    """Import virpoly, generate the seeded inputs, prepare them, reset the caches."""
    module, generate, _ = WORKLOADS[name]
    t0 = perf_counter()
    vp = common.load_virpoly()
    plan = generate(seed)
    state = module.prepare(vp, plan, workdir)
    common.reset_caches(vp)
    return perf_counter() - t0, vp, plan, state


def run_pass(module, vp, plan, state, seconds=None, n_groups=None, tracer=None) -> dict:
    """Closed loop over the workload's groups, its unit repeated without end.

    A timed pass stops at the first group boundary after ``seconds``; a
    fixed pass runs exactly ``n_groups`` groups.  Latency is the time of
    ``op.run()``; the pass's wall time runs from the first op's start to the
    last verdict.
    """
    unit = module.unit(vp, plan, state)
    latencies, failures, first_error = [], Counter(), {}
    attempted = failed = failed_valid = malformed = malformed_failed = 0
    t_first = t_last = None
    probes = []  # reference probes, timed passes only
    for k in itertools.count():
        if n_groups is not None:
            if k >= n_groups:
                break
        elif t_first is not None and perf_counter() - t_first >= seconds:
            break
        for op in unit[k % len(unit)]():
            if seconds is not None and (not probes or perf_counter() - probes[-1][0] >= PROBE_EVERY_S):
                probes.append(reference_probe())
            if tracer is not None:
                tracer.begin_op(attempted)
            t0 = perf_counter()
            if t_first is None:
                t_first = t0
            try:
                out, exc = op.run(), None
            except Exception as err:  # the op's outcome; the check judges it
                out, exc = None, err
            t1 = perf_counter()
            if tracer is not None:
                tracer.end_op()
            try:
                why = op.check(out, exc)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
                why = f"unreadable outcome {type(err).__name__}"
            t_last = perf_counter()
            latencies.append(t1 - t0)
            attempted += 1
            malformed += op.malformed
            if why is not None:
                key = f"{op.label}: {why}"
                failures[key] += 1
                failed += 1
                if exc is not None:
                    first_error.setdefault(key, repr(exc)[:200])
                if op.malformed:
                    malformed_failed += 1
                else:
                    failed_valid += 1
    if seconds is not None:
        probes.append(reference_probe())
    return {
        "attempted": attempted, "failed": failed, "failed_valid": failed_valid,
        "malformed": malformed, "malformed_failed": malformed_failed, "groups": k,
        "wall_s": t_last - t_first - sum(e for t, _, e in probes if t_first <= t <= t_last),
        "latencies": latencies, "probes": probes,
        "failures": dict(sorted(failures.items())), "first_error": first_error,
    }


PROBE_EVERY_S = 0.5


def reference_probe():
    """(start, best duration, elapsed) of a fixed pure-Python ``Fraction`` loop.

    Its duration is the machine's speed at that moment; other tenants of a
    shared host can change it by 2x within a run.  The best of three runs back
    to back drops a one-off hiccup.  The collector is off while it runs, so the
    program's heap cannot slow the probe down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start, best = perf_counter(), float("inf")
        for _ in range(3):
            t0 = perf_counter()
            a, b, acc = Fraction(1, 3), Fraction(2, 7), Fraction(0)
            for _ in range(300):
                acc = acc + a * b
                a = a + 1
            best = min(best, perf_counter() - t0)
        return start, best, perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_s(probes) -> float:
    """Time-weighted mean probe duration over the pass (trapezoids between probes)."""
    if len(probes) < 2:
        return probes[0][1]
    area = sum((d0 + d1) / 2 * (t1 - t0)
               for (t0, d0, _), (t1, d1, _) in zip(probes, probes[1:]))
    return area / (probes[-1][0] - probes[0][0])


def end_to_end(res: dict, setup_times) -> dict:
    """Every end-to-end metric of the workload with unit and sample count."""
    lat_ms = [x * 1000 for x in res["latencies"]]
    ref = reference_s(res["probes"])
    out = {
        "ops_per_s": {"value": _ops_per_s(res), "unit": "1/s", "n": res["attempted"]},
        "ref_s": {"value": ref, "unit": "s", "n": len(res["probes"])},
        "ops_per_kref": {"value": _ops_per_s(res) * ref * 1000, "unit": "1/kref",
                         "n": res["attempted"]},
        "op_p50_ms": dict(common.percentile(lat_ms, 50), unit="ms"),
    }
    try:
        out["op_p90_ms"] = dict(common.percentile(lat_ms, 90), unit="ms")
    except common.TooFewSamples as why:
        out["op_p90_ms"] = {"value": None, "unit": "ms", "n": len(lat_ms), "omitted": str(why)}
    out["fail_ratio"] = {"value": res["failed"] / res["attempted"], "unit": "ratio",
                         "n": res["attempted"]}
    out["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                          "unit": "MB", "n": 1}
    out["setup_s"] = {"value": statistics.median(setup_times), "unit": "s",
                      "n": len(setup_times)}
    return out


# The metrics BENCHMARK.json gates on; every workload reports each of them.
GATED = ("ops_per_kref", "peak_rss_mb", "setup_s")


def environment() -> dict:
    src = common.SRC / "virpoly"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": _git_sha(), "src_sha256": digest.hexdigest()}


def _git_sha():
    """HEAD's commit from .git, or None when the checkout is not a repository."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (common.SRC / "virpoly" / "__init__.py").is_file():
        print(f"perfbench: no virpoly sources under {common.SRC}; "
              "run from the root of a virpoly checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    module, _, cache_state = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            dt, vp, plan, state = setup(args.workload, args.seed, workdir)
            setup_times.append(dt)
        if args.trace:
            plain, traced, tracer, checks = trace_unit(module, vp, plan, state, workdir,
                                                       module.TRACE_GROUPS)
            res = traced
            ratio = _ops_per_s(plain) / _ops_per_s(traced)
            metrics = tracer.metrics(common.cache_sizes(vp), ratio)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write_spans(spans_path)
            correct = plain["failed_valid"] == 0
            extra = {"untraced_ops_per_s": _ops_per_s(plain), "traced_ops_per_s":
                     _ops_per_s(traced), "bench_self_s": tracer.self_s[OP_SPAN],
                     "spans": len(tracer.spans),
                     "spans_file": str(spans_path.relative_to(common.ROOT))}
        else:
            res = run_pass(module, vp, plan, state, seconds=args.seconds)
            checks = module.finish(state)
            e2e = end_to_end(res, setup_times)
            metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in GATED}
            correct = True
            extra = {"end_to_end": e2e, "setup_samples": setup_times}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = correct and res["failed_valid"] == 0 and all(ok for _, ok, _ in checks)
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    detail = _detail(args, res, checks, cache_state, **extra)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1, sort_keys=True))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def _ops_per_s(res: dict) -> float:
    return res["attempted"] / res["wall_s"]


def trace_unit(module, vp, plan, state, workdir, n_groups):
    """Run the first ``n_groups`` groups untraced, then traced, each from cold caches.

    Returns (untraced pass, traced pass, tracer, run-level checks of both).
    The tracer is uninstalled again; the engine caches of the traced pass
    are left in place for ``common.cache_sizes``.
    """
    plain = run_pass(module, vp, plan, state, n_groups=n_groups)
    checks = module.finish(state)
    common.reset_caches(vp)
    state = module.prepare(vp, plan, workdir)
    tracer = Tracer()
    tracer.install(vp)
    try:
        traced = run_pass(module, vp, plan, state, n_groups=n_groups, tracer=tracer)
    finally:
        tracer.uninstall()
    return plain, traced, tracer, checks + module.finish(state)


def _detail(args, res, checks, cache_state, **extra) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cache_state": cache_state, "groups": res["groups"],
        "attempted": res["attempted"],
        "failed": res["failed"], "malformed": {"attempted": res["malformed"],
                                                "failed": res["malformed_failed"]},
        "failures": res["failures"], "first_error": res["first_error"],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "env": environment(), **extra,
    }


if __name__ == "__main__":
    sys.exit(main())
