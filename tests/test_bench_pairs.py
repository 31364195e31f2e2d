"""The pair summary of ``tools/bench_pairs.py`` on fixed numbers, and its work counts."""

import importlib.util
import shutil
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_of_a_higher_is_better_metric():
    parent = [100, 104, 96, 110, 90, 102, 98, 106, 94, 100]
    change = [120, 104, 118, 125, 108, 121, 97, 126, 113, 119]
    s = bench_pairs.summarize(parent, change, "higher")
    # inclusive quartiles of the sorted parent runs 90 94 96 98 100 100 102 104 106 110
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) == (96.5, 100, 103.5)
    assert s["change"]["median"] == 118.5
    assert s["median_ratio"] == pytest.approx(1.185)
    # pair 2 is a tie, and pair 7 has the change worse
    assert s["change_better_pairs"] == "8/10"
    assert s["parent"]["runs"] == parent and s["change"]["runs"] == change


def test_summary_of_a_lower_is_better_metric():
    s = bench_pairs.summarize([3.0, 2.0, 4.0], [2.5, 2.5, 3.0], "lower")
    assert s["change_better_pairs"] == "2/3"
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) == (2.5, 3.0, 3.5)
    assert s["median_ratio"] == pytest.approx(2.5 / 3.0)


def test_one_pair_and_mismatched_sides():
    s = bench_pairs.summarize([5.0], [4.0], "lower")
    assert (s["change"]["q1"], s["change"]["median"], s["change"]["q3"]) == (4.0, 4.0, 4.0)
    assert s["change_better_pairs"] == "1/1"
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "higher")


def test_seed_lists():
    assert bench_pairs.seed_list("1-10") == list(range(1, 11))
    assert bench_pairs.seed_list("3") == [3]
    assert bench_pairs.seed_list("1,4-5,9") == [1, 4, 5, 9]


def test_verdict_of_a_gain():
    parent = [100, 104, 96, 110, 90, 102, 98, 106, 94, 100]
    change = [112, 116, 110, 121, 103, 115, 97, 119, 107, 113]
    s = bench_pairs.summarize(parent, change, "higher")
    # 9/10 pairs, and a median gap of 12.5 above the parent's IQR of 7
    assert s["change_better_pairs"] == "9/10"
    assert bench_pairs.verdict(s, "higher", 0.2) == "gain"
    # the same change, still better in 9/10 pairs, against a parent whose
    # IQR of 22 exceeds the gap (and stays below a bound of 0.25 times its
    # median, which leaves the verdict resolved)
    wide = [100, 114, 86, 120, 80, 102, 98, 116, 84, 100]
    assert bench_pairs.summarize(wide, change, "higher")["change_better_pairs"] == "9/10"
    assert bench_pairs.verdict(bench_pairs.summarize(wide, change, "higher"), "higher", 0.25) == "within bound"


def test_verdict_needs_nine_pairs_in_ten():
    parent = [100, 104, 96, 110, 90, 102, 98, 106, 94, 100]
    change = [120, 104, 118, 125, 108, 121, 97, 126, 113, 119]
    # a 1.185x median but only 8/10 pairs
    assert bench_pairs.verdict(bench_pairs.summarize(parent, change, "higher"), "higher", 0.2) == "within bound"


def test_verdict_flags_a_metric_past_its_bound():
    parent = [25.0, 24.8, 25.3, 25.1, 24.9]
    s = bench_pairs.summarize(parent, [x * 1.14 for x in parent], "lower")
    assert s["median_ratio"] == pytest.approx(1.14)
    assert bench_pairs.verdict(s, "lower", 0.1) == "worse than bound"
    s = bench_pairs.summarize(parent, [x * 1.08 for x in parent], "lower")
    assert bench_pairs.verdict(s, "lower", 0.1) == "within bound"
    # a higher-is-better metric past its bound
    s = bench_pairs.summarize([100.0, 101.0, 99.0], [75.0, 76.0, 74.0], "higher")
    assert bench_pairs.verdict(s, "higher", 0.2) == "worse than bound"


def test_verdict_on_a_parent_spread_wider_than_the_bound():
    # parent IQR 0.12 against 0.1 times its median 1.0: the runs cannot tell
    # 1.05x from 1.15x, so a change within the bound is unresolved
    parent = [1.0, 0.94, 1.06, 0.9, 1.1]
    s = bench_pairs.summarize(parent, [1.02, 0.97, 1.12, 0.95, 1.05], "lower")
    assert (s["parent"]["q3"] - s["parent"]["q1"]) == pytest.approx(0.12)
    assert bench_pairs.verdict(s, "lower", 0.1) == "unresolved"
    # unless every run of the change beats every run of the parent (here by
    # a median gap of 0.11, inside the IQR, so no gain either)
    s = bench_pairs.summarize(parent, [0.89, 0.88, 0.895, 0.885, 0.89], "lower")
    assert bench_pairs.verdict(s, "lower", 0.1) == "within bound"
    # a median past the bound is still called so
    s = bench_pairs.summarize(parent, [x * 1.2 for x in parent], "lower")
    assert bench_pairs.verdict(s, "lower", 0.1) == "worse than bound"
    # higher is better: the change's worst run must top the parent's best
    parent = [100, 70, 130, 80, 120]
    assert bench_pairs.verdict(bench_pairs.summarize(parent, [95, 90, 110, 99, 101], "higher"), "higher", 0.2) == "unresolved"
    # (a median gap of 33 inside the parent's IQR of 40)
    assert bench_pairs.verdict(bench_pairs.summarize(parent, [131, 140, 135, 132, 133], "higher"), "higher", 0.2) == "within bound"


def test_failed_share_sums_over_the_runs():
    runs = [{"attempted": 100, "failed": 0}, {"attempted": 300, "failed": 6}]
    # 6 / 400, not the mean 1% of the per-run shares 0 and 2%
    assert bench_pairs.failed_share(runs) == pytest.approx(0.015)
    assert bench_pairs.failed_share([{"attempted": 50, "failed": 0}]) == 0


def _tree(tmp_path):
    """A copy of this checkout's sources and benchmark, as a tree to count in."""
    root = PATH.parent.parent
    tree = tmp_path / "tree"
    skip = shutil.ignore_patterns("__pycache__", "_out", "_work")
    for part in ("src", "perfbench"):
        shutil.copytree(root / part, tree / part, ignore=skip)
    shutil.copy(root / "BENCHMARK.json", tree)
    return tree


def test_work_counts_repeat_and_see_a_planted_call(tmp_path):
    tree = _tree(tmp_path)
    first = bench_pairs.count_calls(tree, "oracle-grid", 1, 1)
    assert first == bench_pairs.count_calls(tree, "oracle-grid", 1, 1)
    oracle = first["functions"]["induced.bracket_action_oracle"]
    assert first["failed"] == 0 and first["ops"] > oracle > 0
    assert first["calls"] == sum(first["functions"].values())
    # wrap the oracle the benchmark calls in one that makes one more call
    with open(tree / "src" / "virpoly" / "induced.py", "a") as fh:
        fh.write("\n\ndef _planted():\n    pass\n\n\n_oracle = bracket_action_oracle\n\n\n"
                 "def bracket_action_oracle(mu, j, m, s):\n    _planted()\n    return _oracle(mu, j, m, s)\n")
    planted = bench_pairs.count_calls(tree, "oracle-grid", 1, 1)
    assert planted["functions"]["induced._planted"] == oracle
    assert planted["functions"]["induced.bracket_action_oracle"] == 2 * oracle
    assert planted["calls"] == first["calls"] + 2 * oracle
    # the wrapper adds no term; the oracle's act and the engine add them all
    assert planted["accumulate_terms"] == first["accumulate_terms"] > first["ops"]
    row = bench_pairs.compare_work(first, planted)
    assert row["ratio"] == planted["calls"] / first["calls"]
    assert row["moved_per_op"] == {"induced.bracket_action_oracle": oracle / first["ops"],
                                   "induced._planted": oracle / first["ops"]}
