from __future__ import annotations

import json
import math

import pytest

import wihmplan as w
from wihmplan.bench import (
    BenchReport,
    NoiseModel,
    TaskResult,
    TaskSpec,
    emit_report,
    noise_robustness,
    report_records,
    run_benchmark,
    simulate,
)
from wihmplan.planner import CostConfig, plan
from wihmplan.transition import state_key

from conftest import load_task


@pytest.fixture(scope="module")
def solved_task(suite_entries):
    entry = next(e for e in suite_entries if e["name"] == "sq_t1_shift")
    obj, start, goals, resolution, cost = load_task(entry)
    plan_ = plan(obj, start, goals, resolution, cost)
    return obj, start, goals, resolution, cost, plan_


class TestSimulate:
    def test_empty_plan_returns_start(self, solved_task):
        obj, start, goals, resolution, cost, _ = solved_task
        empty = plan(obj, start,
                     [w.GoalRegion(start.left.face,
                                   obj.face(start.left.face).polygon),
                      w.GoalRegion(start.right.face,
                                   obj.face(start.right.face).polygon)],
                     resolution, cost)
        assert len(empty.actions) == 0
        result = simulate(empty, obj, start)
        assert state_key(result.final_state) == state_key(start)

    def test_noiseless_replay_is_exact(self, solved_task):
        obj, start, _, _, _, plan_ = solved_task
        result = simulate(plan_, obj, start)
        assert not result.failed
        assert result.executed == len(plan_.actions)
        assert state_key(result.final_state) == state_key(plan_.states[-1])

    def test_noiseless_divergence_detected(self, solved_task):
        obj, start, _, _, _, plan_ = solved_task
        tampered = w.Plan(
            actions=list(plan_.actions), states=list(plan_.states),
            step_costs=list(plan_.step_costs),
            total_action_cost=plan_.total_action_cost,
            terminal_outside_area=plan_.terminal_outside_area,
            objective=plan_.objective, status=plan_.status,
            tradeoff_weight=plan_.tradeoff_weight)
        bad = plan_.states[-1]
        tampered.states[1] = bad if state_key(bad) != state_key(plan_.states[1]) else plan_.states[0]
        with pytest.raises(w.CorruptedPlanError):
            simulate(tampered, obj, start)

    def test_noise_seed_reproducible(self, solved_task):
        obj, start, _, _, _, plan_ = solved_task
        a = simulate(plan_, obj, start, noise=NoiseModel(eta=0.002, seed=11))
        b = simulate(plan_, obj, start, noise=NoiseModel(eta=0.002, seed=11))
        assert a.failed == b.failed
        assert a.executed == b.executed
        assert state_key(a.final_state) == state_key(b.final_state)

    def test_zero_noise_matches_noiseless(self, solved_task):
        obj, start, _, _, _, plan_ = solved_task
        noisy = simulate(plan_, obj, start, noise=NoiseModel(eta=0.0, seed=3))
        clean = simulate(plan_, obj, start)
        assert state_key(noisy.final_state) == state_key(clean.final_state)


class TestNoiseRobustness:
    def test_failure_fraction_strictly_between_zero_and_one(self, solved_task):
        obj, start, _, _, _, plan_ = solved_task
        stats = noise_robustness(plan_, obj, start, eta=0.002, trials=100, seed=7)
        assert 0.0 < stats["failure_fraction"] < 1.0
        assert stats["failures"] == sum(t["failed"] for t in stats["per_trial"])

    def test_deterministic_per_seed(self, solved_task):
        obj, start, _, _, _, plan_ = solved_task
        a = noise_robustness(plan_, obj, start, eta=0.002, trials=40, seed=5)
        b = noise_robustness(plan_, obj, start, eta=0.002, trials=40, seed=5)
        assert a == b
        c = noise_robustness(plan_, obj, start, eta=0.002, trials=40, seed=6)
        assert a["per_trial"] != c["per_trial"]


class TestRunBenchmark:
    def test_trivial_task_row(self, solved_task):
        obj, start, goals, resolution, cost, _ = solved_task
        full = [w.GoalRegion(start.left.face, obj.face(start.left.face).polygon),
                w.GoalRegion(start.right.face, obj.face(start.right.face).polygon)]
        task = TaskSpec(name="trivial", obj=obj, start=start, goals=full,
                        resolution=resolution, cost=cost)
        report = run_benchmark([task])
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.plan_length == 0
        assert row.overlap_left == 1.0 and row.overlap_right == 1.0
        assert report.overall["mean_overlap"] == pytest.approx(1.0)

    def test_empty_suite_rejected(self):
        with pytest.raises(w.InvalidInputError):
            run_benchmark([])

    def test_aggregates_recomputable(self, solved_task):
        obj, start, goals, resolution, cost, _ = solved_task
        tasks = [TaskSpec(name=f"t{i}", obj=obj, start=start, goals=goals,
                          resolution=resolution, cost=cost) for i in range(3)]
        report = run_benchmark(tasks)
        stored_overall = dict(report.overall)
        stored_objects = {k: dict(v) for k, v in report.per_object.items()}
        report.recompute_aggregates()
        for key, value in stored_overall.items():
            assert report.overall[key] == pytest.approx(value, abs=1e-12)
        for name, agg in stored_objects.items():
            for key, value in agg.items():
                assert report.per_object[name][key] == pytest.approx(value, abs=1e-12)

    def test_failed_task_recorded_not_raised(self, solved_task):
        obj, start, goals, resolution, cost, _ = solved_task
        boom = TaskSpec(name="boom", obj=obj, start=start, goals=goals,
                        resolution=resolution,
                        cost=CostConfig(node_budget=1))
        report = run_benchmark([boom])
        assert len(report.rows) == 1
        assert report.rows[0].status in ("best-effort",) or report.rows[0].status.startswith("failed")


class TestEmitReport:
    def test_aggregate_rows_keep_per_finger_and_executed_columns(self):
        def row(name, obj, left, right, length, executed):
            return TaskResult(task=name, object_name=obj, status="exact-goal",
                              planning_time_s=0.1, plan_length=length,
                              execution_steps=executed, overlap_left=left,
                              overlap_right=right, outside_area=0.0, objective=1.0)

        report = BenchReport(rows=[row("a", "box", 1.0, 0.5, 6, 6),
                                   row("b", "box", 0.75, 0.25, 4, 1),
                                   row("c", "hex", 0.5, 0.0, 2, 2)])
        report.recompute_aggregates()
        records = {(r["kind"], r["object"]): r for r in report_records(report)}
        box = records[("object_mean", "box")]
        assert (box["overlap_left"], box["overlap_right"]) == (0.875, 0.375)
        assert (box["plan_length"], box["execution_steps"]) == (5.0, 3.5)
        overall = records[("overall_mean", "*")]
        assert (overall["overlap_left"], overall["overlap_right"]) == (0.75, 0.25)
        assert (overall["plan_length"], overall["execution_steps"]) == (4.0, 3.0)
        assert report.overall["mean_overlap"] == 0.5

    def test_csv_and_json_identical_content(self, tmp_path, solved_task):
        obj, start, goals, resolution, cost, _ = solved_task
        task = TaskSpec(name="t", obj=obj, start=start, goals=goals,
                        resolution=resolution, cost=cost)
        report = run_benchmark([task])
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        emit_report(report, csv_path)
        emit_report(report, json_path)
        records = report_records(report)
        with open(json_path) as fh:
            loaded = json.load(fh)
        assert len(loaded) == len(records)
        import csv as csv_mod

        with open(csv_path, newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        assert len(rows) == len(records)
        for rec, csv_row, json_row in zip(records, rows, loaded):
            for key, value in rec.items():
                if isinstance(value, float) and not math.isnan(value):
                    assert float(csv_row[key]) == pytest.approx(value, abs=1e-12)
                    assert float(json_row[key]) == pytest.approx(value, abs=1e-12)
                elif isinstance(value, (str, int)):
                    assert str(csv_row[key]) == str(value)
                    assert str(json_row[key]) == str(value)

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(w.InvalidInputError):
            emit_report(BenchReport(rows=[]), tmp_path / "x.csv")

    def test_unknown_format_rejected(self, tmp_path, solved_task):
        obj, start, goals, resolution, cost, _ = solved_task
        task = TaskSpec(name="t", obj=obj, start=start, goals=goals,
                        resolution=resolution, cost=cost)
        report = run_benchmark([task])
        with pytest.raises(w.InvalidInputError):
            emit_report(report, tmp_path / "report.xml")
