from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wihmplan as w
from wihmplan import transition as transition_mod
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
from wihmplan.planner import CostConfig, Plan, plan
from wihmplan.transition import ActionKind, ResolutionConfig, state_key, successors

from conftest import load_task
from oracles import noisy_replay
from test_transition import _containment_objects, _state_bits, _walks


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


def _breaking(limit: str, t) -> ResolutionConfig:
    """The default config with one grip limit moved just past rotation t's pair."""
    edits = {
        "min_grasp_width": dict(min_grasp_width=t.width + 1e-3,
                                max_grasp_width=max(0.15, t.width + 1e-3)),
        "max_grasp_width": dict(max_grasp_width=t.width - 1e-3),
        "max_length_width_ratio": dict(max_length_width_ratio=t.extent / t.width - 1e-3),
    }
    cfg = dataclasses.replace(ResolutionConfig(), **edits[limit])
    cfg.validate()
    return cfg


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_walks(), st.sampled_from(["min_grasp_width", "max_grasp_width",
                                  "max_length_width_ratio"]))
def test_rotation_past_a_grip_limit_is_rejected_given_the_config(walk, limit):
    # A walk of search's children whose first rotation breaks a grip limit of
    # the config given: simulate and noise_robustness reject it at
    # that step; without a config, or with the walk's own, it replays.
    index, plan_ = walk
    obj = _containment_objects()[index]
    rotations = [i for i, a in enumerate(plan_.actions)
                 if a.kind in (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW)]
    assume(rotations)
    step = rotations[0]
    state = plan_.states[step]
    t = transition_mod._mode(obj, state.support_face, state.left.face,
                             state.right.face).ops[plan_.actions[step].kind]
    cfg = _breaking(limit, t)
    s0 = plan_.states[0]
    for given_cfg in (None, ResolutionConfig()):
        assert simulate(plan_, obj, s0, resolution=given_cfg).executed == len(plan_.actions)
    with pytest.raises(w.InfeasibleActionError, match=plan_.actions[step].kind.name):
        simulate(plan_, obj, s0, resolution=cfg)
    noisy = noise_robustness(plan_, obj, s0, eta=0.0, trials=2, resolution=cfg)
    assert noisy["failures"] == 2
    assert all(trial["executed"] == step for trial in noisy["per_trial"])


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


def _random_walk(obj, start, resolution, rng, steps=20) -> Plan:
    """A walk of up to ``steps`` of search's children from start, as a plan."""
    states, actions = [start], []
    for _ in range(steps):
        children = successors(states[-1], obj, resolution)
        if not children:
            break
        action, child = children[int(rng.integers(len(children)))]
        actions.append(action)
        states.append(child)
    return Plan(actions, states, [0.0] * len(actions), 0.0, 0.0, 0.0, "best-effort", 0.0)


def test_noisy_replays_match_the_counted_draw_oracle(suite_entries):
    # The 12 fixture plans and a 20-step walk from each fixture start, each
    # replayed under several seeds: simulate's per-action draw and offsets give
    # the trace, executed count and failure step of one draw per translation
    # and a rebuilt Action per perturbed step.  At 6 mm a 5 mm step's
    # magnitude can reach zero or below.
    rng = np.random.default_rng(17)
    outcomes = set()
    for entry in suite_entries:
        obj, start, goals, resolution, cost = load_task(entry)
        for plan_ in (plan(obj, start, goals, resolution, cost),
                      _random_walk(obj, start, resolution, rng)):
            for eta, seed in itertools.product((0.002, 0.006), range(5)):
                got = simulate(plan_, obj, start, noise=NoiseModel(eta, seed),
                               resolution=resolution)
                trace, executed, failed, failure_step = noisy_replay(
                    plan_, obj, start, eta, seed, resolution)
                assert [_state_bits(s) for s in got.trace] == [_state_bits(s) for s in trace]
                assert (got.executed, got.failed, got.failure_step) == \
                    (executed, failed, failure_step), (entry["name"], eta, seed)
                outcomes.add(failed)
    assert outcomes == {True, False}


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

    def test_aggregates_follow_the_rows(self, solved_task):
        obj, start, goals, resolution, cost, _ = solved_task
        tasks = [TaskSpec(name=f"t{i}", obj=obj, start=start, goals=goals,
                          resolution=resolution, cost=cost) for i in range(2)]
        report = run_benchmark(tasks)
        assert report.overall["tasks"] == 2.0
        assert list(report.per_object) == [obj.name]
        solved = report.overall["solved_fraction"]
        report.rows.append(TaskResult("added", "other", "failed: InvalidInputError"))
        assert report.overall["tasks"] == 3.0
        assert report.overall["solved_fraction"] == pytest.approx(2.0 * solved / 3.0)
        assert list(report.per_object) == sorted([obj.name, "other"])
        assert report.per_object["other"]["solved_fraction"] == 0.0
        assert report.per_object[obj.name]["solved_fraction"] == solved

    def test_failed_task_recorded_not_raised(self, solved_task):
        obj, start, goals, resolution, cost, _ = solved_task
        boom = TaskSpec(name="boom", obj=obj, start=start, goals=goals,
                        resolution=resolution,
                        cost=CostConfig(node_budget=1))
        report = run_benchmark([boom])
        assert len(report.rows) == 1
        assert report.rows[0].status in ("best-effort",) or report.rows[0].status.startswith("failed")

    def test_package_error_recorded_as_failed(self, solved_task, monkeypatch):
        obj, start, goals, resolution, cost, _ = solved_task

        def stuck(*args):
            raise w.InfeasibleActionError("no feasible action")

        monkeypatch.setattr("wihmplan.bench.run_planner", stuck)
        task = TaskSpec(name="stuck", obj=obj, start=start, goals=goals,
                        resolution=resolution, cost=cost)
        report = run_benchmark([task])
        assert report.rows[0].status == "failed: InfeasibleActionError"

    def test_other_exceptions_propagate(self, solved_task, monkeypatch):
        obj, start, goals, resolution, cost, _ = solved_task

        def broken(*args):
            raise TypeError("a bug, not a bad task")

        monkeypatch.setattr("wihmplan.bench.run_planner", broken)
        task = TaskSpec(name="broken", obj=obj, start=start, goals=goals,
                        resolution=resolution, cost=cost)
        with pytest.raises(TypeError):
            run_benchmark([task])


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
