"""Run every workload once and print every end-to-end metric by name and unit.

    python3 perfbench/report.py --seed 1 --seconds 20

Each workload runs in its own process through ``run.py``, one after the
other.  The table gives each metric with its unit and sample count, then
each workload's failure classes.  Exits 1 when a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
METRICS = ("ops_per_s", "op_p50_ms", "op_p90_ms", "fail_ratio", "peak_rss_mb", "setup_s",
           "ref_s", "ops_per_kref")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    rows, all_correct = [], True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
        detail, result = json.loads(detail_line), json.loads(result_line)
        all_correct = all_correct and result["correct"]
        rows.append((name, detail, result))
    print(f"{'workload':16} {'metric':12} {'value':>14} {'unit':6} {'n':>6}")
    for name, detail, result in rows:
        for metric in METRICS:
            m = detail["end_to_end"][metric]
            value = "omitted" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{name:16} {metric:12} {value:>14} {m['unit']:6} {m['n']:>6}")
        print(f"{name:16} {'correct':12} {str(result['correct']):>14}")
    for name, detail, _ in rows:
        for cls, count in detail["failures"].items():
            print(f"{name}: {count} x {cls}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
