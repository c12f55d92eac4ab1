"""Tests of the benchmark itself: seeded inputs, traced counters, declarations.

    python3 -m pytest -q perfbench/bench_tests.py

Planning ``rc_t2_rotate`` makes this take about half a minute, so the file
is not named for default test collection.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import time

import numpy as np
import pytest

import run

assert run.use_source_tree()

import layers  # noqa: E402 - needs the source tree on the path
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _budget_key(tasks) -> list:
    return [(t.name, t.start.left.face, [(g.face, g.polygon.vertices.tolist()) for g in t.goals])
            for t in tasks]


def _replay_key(inputs) -> list:
    walks, _ = inputs
    return [(w.name, [(a.kind, a.magnitude) for a in w.plan.actions], w.noise_seeds)
            for w in walks]


def test_same_seed_gives_identical_inputs():
    assert _budget_key(workloads.BudgetWorkload(7).prepare()) == \
        _budget_key(workloads.BudgetWorkload(7).prepare())
    assert _replay_key(workloads.ReplayWorkload(7).prepare()) == \
        _replay_key(workloads.ReplayWorkload(7).prepare())


def test_different_seed_gives_different_inputs():
    assert _budget_key(workloads.BudgetWorkload(7).prepare()) != \
        _budget_key(workloads.BudgetWorkload(8).prepare())
    assert _replay_key(workloads.ReplayWorkload(7).prepare()) != \
        _replay_key(workloads.ReplayWorkload(8).prepare())


def test_budget_goals_fit_under_every_pad():
    for task in workloads.BudgetWorkload(3).prepare():
        assert task.cost.node_budget == workloads.NODE_BUDGET
        for goal in task.goals:
            span = goal.polygon.vertices.max(axis=0) - goal.polygon.vertices.min(axis=0)
            assert np.all(span < min(task.start.left.pad_width, task.start.left.pad_height))


def test_replay_walks_hold_every_primitive_kind():
    walks, _ = workloads.ReplayWorkload(0).prepare()
    kinds = {a.kind for w in walks for a in w.plan.actions}
    assert kinds == set(workloads.transition_mod.ActionKind)


def _deterministic(values: dict, units: dict) -> dict:
    """Counts and count-derived ratios; times and the overhead vary run to run."""
    return {name: v for name, v in values.items()
            if units[name] != "s" and name not in ("planner.us_per_expansion",
                                                   "trace.overhead_frac")}


def _traced_values(workload, inputs):
    with layers.LayerProbe() as probe:
        outcome = workload.run_unit(inputs, tracer=probe.tracer)
    assert outcome.failed == 0, outcome.errors
    values, _ = probe.metrics(outcome, workloads.suite_task_names(), 1.0, 1.0)
    return values


@pytest.mark.parametrize("name", ["budget", "replay"])
def test_traced_counters_repeat_exactly(name):
    workload = workloads.WORKLOADS[name](11)
    inputs = workload.prepare()
    if name == "budget":
        inputs = inputs[:2]
    else:
        walks, chain = inputs
        inputs = ([dataclasses.replace(w, noise_seeds=w.noise_seeds[:10]) for w in walks], chain)
    units = layers.layer_metric_units(workloads.suite_task_names())
    first = _deterministic(_traced_values(workload, inputs), units)
    second = _deterministic(_traced_values(workload, inputs), units)
    assert first == second
    if name == "budget":
        assert first["planner.expanded"] == 2 * workloads.NODE_BUDGET
        assert first["planner.duplicates_pruned"] >= 0
    else:
        assert first["bench.noise_trials"] == 10 * len(inputs[0])
        assert first["transition.transition.calls"] > 0
        assert first["planner.plan.calls"] == 0


def test_suite_counters_match_roadmap_baseline(tmp_path):
    suite = json.loads(workloads.SUITE_FILE.read_text(encoding="utf-8"))
    keep = {"rc_t2_rotate", "sq_t3_caps"}
    tasks = []
    for entry in suite["tasks"]:
        if entry["name"] in keep:
            tasks.append({k: v if k == "name" else str(workloads.FIXTURES / v)
                          for k, v in entry.items()})
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"tasks": tasks}), encoding="utf-8")
    with layers.LayerProbe() as probe:
        code = workloads.cli_mod.main(["benchmark", "--suite", str(path),
                                       "--out", str(tmp_path / "report.csv")])
    assert code == 0
    assert probe.expanded == {"rc_t2_rotate": 26_029, "sq_t3_caps": 4_079}
    assert probe.tracer.get("planner.plan").calls == 2


def test_missing_target_is_absent_and_originals_restored():
    original = workloads.planner_mod.successors
    with Tracer() as tracer:
        tracer.patch("gone", [("wihmplan.planner", "no_such_function")])
        tracer.patch("transition.successors", [("wihmplan.planner", "successors")])
        assert workloads.planner_mod.successors is not original
    assert tracer.absent == ["gone"]
    assert workloads.planner_mod.successors is original


def test_nested_calls_of_one_metric_count_time_once():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return inner_wrapped() + 1

    inner_wrapped = tracer._wrap("m", inner, None, None)
    outer_wrapped = tracer._wrap("m", outer, None, None)
    with tracer.span("parent"):
        assert outer_wrapped() == 2
    stats = tracer.get("m")
    assert stats.calls == 2
    assert stats.child_s == 0.0
    assert tracer.get("parent").child_s == pytest.approx(stats.total_s)


def test_benchmark_json_declares_every_metric():
    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = layers.layer_metric_units(workloads.suite_task_names())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == units
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END


def test_at_reference_speed_scales_by_the_mean_loop_speed():
    ref = speed.REFERENCE_LOOP_S
    assert speed.at_reference_speed(3.0, [ref] * 20) == pytest.approx(3.0)
    assert speed.at_reference_speed(3.0, [ref] * 10 + [2 * ref] * 10) == pytest.approx(2.25)
    assert speed.at_reference_speed(3.0, []) == 3.0


def test_speed_sampler_samples_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        t_end = time.perf_counter() + 0.35
        while time.perf_counter() < t_end:
            pass
    assert len(sampler.loop_s) >= 2
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
