from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

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


def _traced(**values) -> dict:
    """A traced run's result with the given metric values, the unit read off each name."""
    units = {"expanded": "count", "hit_ratio": "ratio", "plan_s": "s", "key_us": "us",
             "trace.overhead_frac": "ratio"}
    return {"correct": True, "absent": [],
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}


def test_counter_comparison_of_synthetic_records(bench_pairs):
    base = dict(expanded=10, hit_ratio=0.5, plan_s=1.0, key_us=3.0, **{"trace.overhead_frac": 0.2})
    # Timings and the tracing overhead may differ between runs; counts and ratios may not.
    assert bench_pairs.compare_counters(
        _traced(**base), _traced(**dict(base, plan_s=2.0, key_us=9.0,
                                        **{"trace.overhead_frac": 0.4}))) == []
    assert bench_pairs.compare_counters(_traced(**base), _traced(**dict(base, expanded=11))) == [
        "expanded: parent 10 change 11"]
    assert bench_pairs.compare_counters(_traced(**base), _traced(**dict(base, hit_ratio=0.25))) \
        == ["hit_ratio: parent 0.5 change 0.25"]
    lacking = {k: v for k, v in base.items() if k != "hit_ratio"}
    assert bench_pairs.compare_counters(_traced(**base), _traced(**lacking)) == [
        "hit_ratio: absent in change"]
    absent, failed = _traced(**base), _traced(**base)
    absent["absent"] = ["geometry.unfold"]
    failed["correct"] = False
    assert bench_pairs.compare_counters(absent, failed) == [
        "parent: absent trace target geometry.unfold", "change: a correctness check failed"]


def _rows(bench_pairs, walls, better="lower"):
    pairs = [{"parent": {"m": p}, "change": {"m": c}} for p, c in walls]
    return bench_pairs.summarize(pairs, {"m": better})["m"]


def test_gain_rule_on_synthetic_pairs(bench_pairs):
    parent = [0.50, 0.51, 0.49, 0.52, 0.50, 0.48, 0.51, 0.50, 0.49, 0.50]  # quartiles 0.49, 0.51
    nine = [0.45] * 9 + [0.55]
    assert _rows(bench_pairs, list(zip(parent, nine)))["gain"]
    eight = [0.45] * 8 + [0.55, 0.55]
    assert not _rows(bench_pairs, list(zip(parent, eight)))["gain"]  # wins 8 of 10
    close = [p - 0.001 for p in parent]  # wins all 10, median gap 0.001 < 0.02
    row = _rows(bench_pairs, list(zip(parent, close)))
    assert row["change_wins"] == 10 and not row["gain"]
    higher = _rows(bench_pairs, [(p, 1.0 - c) for p, c in zip(parent, nine)], better="higher")
    assert higher["change_wins"] == 9 and higher["gain"]
    lines = bench_pairs.format_summary({"m": row})
    assert lines[1] == "  gain rule fails"


def _result(wall: float, cpu: str) -> dict:
    return {"correct": True, "absent": [],
            "metrics": {"wall_s": {"value": wall, "unit": "s"}},
            "machine_line": {"machine": {"cpu_model": cpu}, "seed": 3, "inputs": {"tasks": 12}}}


def test_out_records_the_machine_line_and_merges(bench_pairs, tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        root.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower"}]}), encoding="utf-8")
    walls = {parent: 0.5, change: 0.4}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda root, *args, **kwargs: _result(walls[root], root.name))
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"notes": ["kept"]}), encoding="utf-8")
    for workload in ("suite", "replay"):
        assert bench_pairs.main([str(parent), str(change), "--workload", workload,
                                 "--pairs", "2", "--seconds", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["notes"] == ["kept"]
    assert record["machine"] == {"cpu_model": "change"}
    assert sorted(record["workloads"]) == ["replay_seed3", "suite_seed3"]
    suite = record["workloads"]["suite_seed3"]
    assert suite["machine_lines"]["parent"]["machine"] == {"cpu_model": "parent"}
    assert suite["pairs"] == 2 and len(suite["runs"]) == 2
    assert suite["summary"]["wall_s"]["change_wins"] == 2
    assert "gain rule" in capsys.readouterr().out


def test_run_once_reads_the_machine_line(bench_pairs, tmp_path, monkeypatch):
    machine = {"machine": {"nproc": 2}, "seed": 3, "inputs": {"tasks": 12}}
    result = {"correct": True, "metrics": {}}
    stdout = json.dumps(machine) + "\n" + json.dumps(result) + "\n"
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: SimpleNamespace(
        returncode=0, stdout=stdout, stderr="absent trace targets: a.b, c.d\n"))
    (tmp_path / "src").mkdir()
    got = bench_pairs.run_once(tmp_path, "suite", 3, 1.0)
    assert got == {**result, "absent": ["a.b", "c.d"], "machine_line": machine}
