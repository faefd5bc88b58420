"""Statistics of tools/ab.py on hand-made runs (no benchmark process is started)."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_quartiles_inclusive_and_single_value():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_metric_summary_counts_strict_wins_in_the_better_direction():
    ref, tree = [10.0, 12.0, 11.0, 13.0, 9.0], [12.0, 12.0, 14.0, 12.0, 11.0]
    up = ab.metric_summary(ref, tree, "higher")
    assert up["pairs"] == 5 and up["won"] == 3  # a tie (pair 1) is not won
    assert up["ref"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert up["tree"] == {"median": 12.0, "q1": 12.0, "q3": 12.0}
    assert up["ref_iqr"] == 2.0
    assert up["ratio"] == pytest.approx(12.0 / 11.0)
    assert not up["beyond_ref_iqr"]  # +1 against an IQR of 2
    down = ab.metric_summary(ref, tree, "lower")
    assert down["won"] == 1 and not down["beyond_ref_iqr"]


def test_metric_summary_gain_beyond_the_ref_iqr():
    ref, tree = [100.0, 101.0, 99.0, 100.0], [120.0, 118.0, 121.0, 119.0]
    assert ab.metric_summary(ref, tree, "higher")["beyond_ref_iqr"]
    assert not ab.metric_summary(ref, tree, "lower")["beyond_ref_iqr"]
    assert ab.metric_summary([0.0, 0.0], [1.0, 1.0], "higher")["ratio"] is None


def test_summarize_reports_the_two_run_orders_apart():
    runs = [
        {"first": "ref", "ref": {"ops_per_s": 100.0, "peak_rss_mb": 40.0},
         "tree": {"ops_per_s": 110.0, "peak_rss_mb": 41.0}},
        {"first": "tree", "ref": {"ops_per_s": 105.0, "peak_rss_mb": 40.0},
         "tree": {"ops_per_s": 104.0, "peak_rss_mb": 39.0}},
        {"first": "ref", "ref": {"ops_per_s": 98.0, "peak_rss_mb": 40.0},
         "tree": {"ops_per_s": 120.0, "peak_rss_mb": 40.0}},
    ]
    out = ab.summarize(runs, {"ops_per_s": "higher", "peak_rss_mb": "lower"})
    ops = out["ops_per_s"]
    assert ops["better"] == "higher"
    assert (ops["all"]["pairs"], ops["all"]["won"]) == (3, 2)
    assert (ops["ref_first"]["pairs"], ops["ref_first"]["won"]) == (2, 2)
    assert (ops["tree_first"]["pairs"], ops["tree_first"]["won"]) == (1, 0)
    assert ops["ref_first"]["ref"]["median"] == 99.0
    assert out["peak_rss_mb"]["all"]["won"] == 1


def test_src_digest_matches_the_benchmark_stamp(tmp_path):
    (tmp_path / "sqzstat").mkdir()
    (tmp_path / "sqzstat" / "a.py").write_bytes(b"x = 1\n")
    first = ab.src_sha256(tmp_path)
    (tmp_path / "sqzstat" / "a.py").write_bytes(b"x = 2\n")
    assert ab.src_sha256(tmp_path) != first
    assert len(first) == 64
