"""The pair summary of ``tools/bench_pairs.py`` on fixed numbers."""

import importlib.util
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
    # IQR of 22 exceeds the gap
    wide = [100, 114, 86, 120, 80, 102, 98, 116, 84, 100]
    assert bench_pairs.summarize(wide, change, "higher")["change_better_pairs"] == "9/10"
    assert bench_pairs.verdict(bench_pairs.summarize(wide, change, "higher"), "higher", 0.2) == "within bound"


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
