"""Alternating pairs of benchmark runs on two trees, summarised per gated metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload slice-depth \\
        --seeds 1-10 --seconds 20 --out BENCH_N.json

PARENT and CHANGE are two checkouts of the repository, for example made with
``git archive <commit> | tar -x -C DIR``; each needs ``src/``,
``perfbench/`` and ``BENCHMARK.json``.  Both trees' bytecode caches are
cleared and then pre-built with ``compileall`` before the first run, so
``setup_s`` reads the same current ``__pycache__`` on both sides.  For each
workload and seed, one pair runs ``perfbench/run.py`` once in each tree, one
after the other, the first side alternating from pair to pair.  Per gated
metric of CHANGE's ``BENCHMARK.json`` the summary gives each side's median
and quartiles over its runs, the ratio of the medians, how many pairs the
change won (ties count for neither side), and a verdict against the metric's
``bound``: "gain", "worse than bound", "unresolved" or "within bound" (see
``verdict``).  Per workload it also gives each side's failed share, the
failed ops over the attempted ops of all its runs.  The runs are
sequential, one process at a time.  Standard library only; nothing under
``perfbench/`` is changed.

``--work UNITS`` counts work instead of (or beside) timing it:

    python3 tools/bench_pairs.py PARENT CHANGE --workload oracle-grid \\
        --seeds 1 --work 12 --out WORK.json

For each tree, workload and seed, a child process with ``PYTHONHASHSEED=0``
loads virpoly through the tree's ``perfbench/common.load_virpoly``, builds
the seeded plan, and runs UNITS times the workload's traced unit
(``TRACE_GROUPS`` groups: a round of ``oracle-grid``, a cycle of
``slice-depth``) under ``sys.setprofile``, counting the calls into each
function under the tree's ``src/virpoly``, generator resumptions included,
and the terms handed to ``sparse.accumulate``.
The counts do not depend on the machine's speed, so two runs of one tree
agree exactly; each count is taken twice and the second must match the
first.  The summary gives the calls per op on each side, their ratio, and
the functions whose calls per op moved most.  ``--seconds`` may then be left
out, and no pairs are timed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SIDES = ("parent", "change")


def seed_list(text: str) -> list:
    """Seeds from "1-10", "3" or "1,4,7"."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(parent: list, change: list, better: str) -> dict:
    """Medians, inclusive quartiles, median ratio and pairs won by the change.

    ``parent[i]`` and ``change[i]`` form pair i; ``better`` is "higher" or
    "lower", as ``BENCHMARK.json`` states for the metric.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
        out[side] = {"median": med, "q1": q1, "q3": q3, "runs": list(runs)}
    out["median_ratio"] = out["change"]["median"] / out["parent"]["median"]
    out["change_better_pairs"] = f"{wins}/{len(parent)}"
    return out


def verdict(s: dict, better: str, bound: float) -> str:
    """The verdict on one ``summarize`` result for a metric with this ``bound``.

    "gain": the change wins at least nine in ten pairs and its median is
    better than the parent's by more than the parent's interquartile range.
    "worse than bound": the change's median is worse than the parent's by
    more than ``bound`` times the parent's median.  "unresolved": the
    parent's interquartile range is wider than that bound, so its runs
    cannot tell a change within the bound from one past it, unless every
    run of the change is better than every run of the parent.  Else
    "within bound".
    """
    sign = 1 if better == "higher" else -1
    parent, change = s["parent"], s["change"]
    gap = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    wins, pairs = map(int, s["change_better_pairs"].split("/"))
    if 10 * wins >= 9 * pairs and gap > iqr:
        return "gain"
    if -gap > bound * parent["median"]:
        return "worse than bound"
    if iqr > bound * parent["median"]:
        worst_change = min(sign * x for x in change["runs"])
        if not worst_change > max(sign * x for x in parent["runs"]):
            return "unresolved"
    return "within bound"


def failed_share(runs: list) -> float:
    """Failed ops over attempted ops, each summed over runs, a list of ``perfbench/run.py`` results."""
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def prebuild(tree: Path) -> None:
    """Delete every ``__pycache__`` under src/ and perfbench/, then compile both afresh."""
    for top in ("src", "perfbench"):
        for cache in (tree / top).rglob("__pycache__"):
            shutil.rmtree(cache)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object, the last stdout line, of one ``perfbench/run.py`` run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def count_here(tree: Path, workload: str, seed: int, units: int) -> dict:
    """Calls into each ``src/virpoly`` function of tree over ``units`` traced units, in this process.

    Returns the ops run, the failed ops, the total calls, the calls per
    function, keyed "module.qualname", and the terms handed to
    ``sparse.accumulate``, counted by a wrapper bound in place of it in every
    virpoly module that holds it (a call of the wrapper is not counted).
    Nothing under ``perfbench/`` is written: the workload's working files go
    to a temporary directory.
    """
    sys.path.insert(0, str(tree / "perfbench"))
    import common
    import run

    module, generate, _ = run.WORKLOADS[workload]
    vp = common.load_virpoly()
    plan = generate(seed)
    src = str(common.SRC / "virpoly") + os.sep
    calls = Counter()
    terms = [0]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "virpoly"]
    accumulate = sys.modules["virpoly.sparse"].accumulate

    def counted(target, added, *coeff):
        terms[0] += len(added)
        return accumulate(target, added, *coeff)

    for mod in modules:
        if getattr(mod, "accumulate", None) is accumulate:
            mod.accumulate = counted

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            calls[frame.f_code] += 1

    with tempfile.TemporaryDirectory() as work:
        state = module.prepare(vp, plan, Path(work))
        common.reset_caches(vp)
        sys.setprofile(profile)
        try:
            res = run.run_pass(module, vp, plan, state, n_groups=units * module.TRACE_GROUPS)
        finally:
            sys.setprofile(None)
    functions = Counter()
    for code, k in calls.items():
        # co_qualname is Python 3.11's; 3.10 gives the bare name
        functions[f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"] += k
    return {"ops": res["attempted"], "failed": res["failed"], "calls": sum(functions.values()),
            "accumulate_terms": terms[0], "functions": dict(sorted(functions.items()))}


def count_calls(tree: Path, workload: str, seed: int, units: int) -> dict:
    """``count_here`` in a child process with ``PYTHONHASHSEED=0``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--count-here", str(tree), workload,
           str(seed), str(units)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


TOP_MOVED = 12  # functions listed by ``compare_work``


def compare_work(parent: dict, change: dict) -> dict:
    """Calls and ``accumulate`` terms per op on each side, the ratio of the
    calls, and the ``TOP_MOVED`` functions whose calls per op moved most."""
    if parent["ops"] != change["ops"]:
        raise ValueError("the two sides ran different numbers of ops")
    ops = parent["ops"]
    names = set(parent["functions"]) | set(change["functions"])
    delta = {name: (change["functions"].get(name, 0) - parent["functions"].get(name, 0)) / ops
             for name in names}
    moved = sorted((name for name in names if delta[name]), key=lambda name: (-abs(delta[name]), name))
    sides = dict(zip(SIDES, (parent, change)))
    return {"ops": ops,
            "calls_per_op": {side: w["calls"] / ops for side, w in sides.items()},
            "accumulate_terms_per_op": {side: w["accumulate_terms"] / ops for side, w in sides.items()},
            "ratio": change["calls"] / parent["calls"],
            "moved_per_op": {name: delta[name] for name in moved[:TOP_MOVED]}}


def work_rows(trees: dict, workload: str, seeds: list, units: int) -> dict:
    """Per seed, both sides' call counts (each taken twice) and their ``compare_work``."""
    rows = {}
    for seed in seeds:
        counts = {}
        for side in SIDES:
            first, second = (count_calls(trees[side], workload, seed, units) for _ in range(2))
            if first != second:
                raise RuntimeError(f"{side} {workload} seed {seed}: a second count differs")
            counts[side] = first
        rows[str(seed)] = row = compare_work(counts["parent"], counts["change"])
        row.update(counts)
        per_op, added = row["calls_per_op"], row["accumulate_terms_per_op"]
        print(f"{workload:15s} seed {seed}: {row['ops']} ops, calls per op parent "
              f"{per_op['parent']:.1f}  change {per_op['change']:.1f}  ratio {row['ratio']:.4f}; "
              f"accumulate terms per op parent {added['parent']:.1f}  change {added['change']:.1f}",
              flush=True)
        for name, d in row["moved_per_op"].items():
            print(f"{'':15s}   {d:+10.2f}  {name}", flush=True)
    return rows


def pair_row(trees: dict, gated: list, workload: str, seeds: list, seconds: float, before: int) -> dict:
    """Timed pairs of one workload, one per seed, summarised per gated metric.

    The first side alternates from pair to pair, counting the ``before``
    pairs of earlier workloads.
    """
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds, before):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed, seconds))
    row = {"seeds": seeds}
    for side in SIDES:
        row[side] = {"correct": all(r["correct"] for r in runs[side]),
                     "failed": sum(r["failed"] for r in runs[side]),
                     "failed_share": failed_share(runs[side])}
    print(f"{workload:15s} failed share  parent {row['parent']['failed_share']:.4g}  "
          f"change {row['change']['failed_share']:.4g}", flush=True)
    for metric in gated:
        name = metric["name"]
        values = [[r["metrics"][name]["value"] for r in runs[side]] for side in SIDES]
        row[name] = s = summarize(*values, metric["better"])
        s["verdict"] = verdict(s, metric["better"], metric["bound"])
        print(f"{workload:15s} {name:13s} parent {s['parent']['median']:10.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}]  change "
              f"{s['change']['median']:10.4g} [{s['change']['q1']:.4g}, {s['change']['q3']:.4g}]  "
              f"ratio {s['median_ratio']:.4f}  change better in {s['change_better_pairs']}  {s['verdict']}",
              flush=True)
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--work", type=int, metavar="UNITS")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.seconds is None and args.work is None:
        ap.error("give --seconds, --work or both")
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    gated = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    for tree in trees.values():
        prebuild(tree)
    report = {"seconds": args.seconds, "work_units": args.work}
    if args.work is not None:
        report["work"] = {w: work_rows(trees, w, args.seeds, args.work) for w in args.workload}
    if args.seconds is not None:
        report["workloads"] = {w: pair_row(trees, gated, w, args.seeds, args.seconds, k * len(args.seeds))
                               for k, w in enumerate(args.workload)}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--count-here"]:
        tree, workload, seed, units = sys.argv[2:]
        print(json.dumps(count_here(Path(tree), workload, int(seed), int(units))))
        sys.exit(0)
    sys.exit(main())
