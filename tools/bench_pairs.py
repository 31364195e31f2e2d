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
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    gated = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    for tree in trees.values():
        prebuild(tree)
    report = {"seconds": args.seconds, "workloads": {}}
    k = 0
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        for seed in args.seeds:
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            k += 1
            for side in order:
                runs[side].append(run_once(trees[side], workload, seed, args.seconds))
        row = {"seeds": args.seeds}
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
        report["workloads"][workload] = row
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
