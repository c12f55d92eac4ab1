from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_side_that_runs_first_alternates(bench_pairs):
    assert [bench_pairs.run_order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]


def test_summary_of_synthetic_pairs(bench_pairs):
    walls = [(0.50, 0.40), (0.52, 0.45), (0.48, 0.48), (0.55, 0.60), (0.51, 0.41)]
    overlaps = [(0.7, 0.8), (0.7, 0.6), (0.7, 0.7), (0.7, 0.9), (0.7, 0.7)]
    pairs = [{"parent": {"wall_s": pw, "mean_overlap": po},
              "change": {"wall_s": cw, "mean_overlap": co}}
             for (pw, cw), (po, co) in zip(walls, overlaps)]
    summary = bench_pairs.summarize(pairs, {"wall_s": "lower", "mean_overlap": "higher"})

    wall = summary["wall_s"]
    assert wall["parent"]["median"] == 0.51 and wall["change"]["median"] == 0.45
    assert wall["parent"]["quartiles"] == pytest.approx((0.50, 0.52))
    assert wall["change"]["quartiles"] == pytest.approx((0.41, 0.48))
    assert wall["change_wins"] == 3 and wall["pairs"] == 5  # the tie counts for neither
    overlap = summary["mean_overlap"]
    assert overlap["change"]["median"] == 0.7
    assert overlap["change_wins"] == 2  # higher is better here
    lines = bench_pairs.format_summary(summary)
    assert lines[0].startswith("wall_s (lower is better): parent 0.51 [0.5, 0.52]  change 0.45")
    assert lines[0].endswith("change better in 3 of 5")


def test_one_pair_has_degenerate_quartiles(bench_pairs):
    pairs = [{"parent": {"wall_s": 0.5}, "change": {"wall_s": 0.4}}]
    wall = bench_pairs.summarize(pairs, {"wall_s": "lower"})["wall_s"]
    assert wall["parent"]["quartiles"] == (0.5, 0.5)
    assert wall["change_wins"] == 1


def test_bytecode_caches_are_cleared_under_src_only(bench_pairs, tmp_path):
    caches = [tmp_path / "src" / "pkg" / "__pycache__", tmp_path / "src" / "__pycache__"]
    kept = tmp_path / "tools" / "__pycache__"
    for directory in (*caches, kept):
        directory.mkdir(parents=True)
        (directory / "mod.cpython-311.pyc").write_bytes(b"")
    (tmp_path / "src" / "pkg" / "mod.py").write_text("")
    bench_pairs.clear_bytecode(tmp_path)
    assert not any(cache.exists() for cache in caches)
    assert kept.exists() and (tmp_path / "src" / "pkg" / "mod.py").exists()
