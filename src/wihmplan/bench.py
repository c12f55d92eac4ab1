"""Deterministic plan simulation, goal-overlap metrics, and the suite runner.

The noiseless simulator replays a plan through the transition model and
must land on the planner's recorded states bit-for-bit.  Noise mode
perturbs every slide/shift magnitude by a seeded uniform offset and counts
a trial as failed as soon as any action becomes infeasible, as a stand-in
for execution slip on real hardware.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CorruptedPlanError, InfeasibleActionError, InvalidInputError, WihmplanError
from .geometry import ObjectModel
from .planner import CostConfig, Plan, check_replay, plan as run_planner
from .transition import (
    _TRANSLATIONS,
    Action,
    GoalRegion,
    GraspState,
    ResolutionConfig,
    overlap_ratio,
    region_outside_goal,
    state_key,
    transition,
)


@dataclass(frozen=True)
class NoiseModel:
    """Uniform +-eta perturbation of translational step sizes."""

    eta: float
    seed: int = 0

    def __post_init__(self) -> None:
        # The draws span [-eta, eta], so 2 * eta must be finite too.
        if not (self.eta >= 0.0 and math.isfinite(2.0 * self.eta)):
            raise InvalidInputError(f"noise amplitude must be non-negative and finite, "
                                    f"got {self.eta!r}")


@dataclass
class SimulationResult:
    final_state: GraspState
    trace: list[GraspState]
    executed: int
    failed: bool
    failure_step: int | None = None


def simulate(plan_: Plan, obj: ObjectModel, s0: GraspState,
             noise: NoiseModel | None = None) -> SimulationResult:
    """Replay a plan from s0; exact in noiseless mode, perturbed otherwise.

    A noisy replay draws all its step offsets, one per translational action,
    in one call: the same values, in the same order, as one draw per action.
    """
    deltas = None
    if noise is not None:
        count = sum(1 for action in plan_.actions if action.kind in _TRANSLATIONS)
        deltas = iter(np.random.default_rng(noise.seed).uniform(
            -noise.eta, noise.eta, size=count).tolist())
    state = s0
    trace = [state]
    for i, action in enumerate(plan_.actions):
        applied = action
        if deltas is not None and action.kind in _TRANSLATIONS:
            magnitude = action.magnitude + next(deltas)
            if magnitude <= 0.0:
                return SimulationResult(state, trace, i, failed=True, failure_step=i)
            applied = Action(action.kind, magnitude, action.arc_radius)
        try:
            state = transition(state, applied, obj)
        except InfeasibleActionError:
            if noise is None:
                raise
            return SimulationResult(state, trace, i, failed=True, failure_step=i)
        trace.append(state)
    if noise is None:
        check_replay(trace, plan_.states)
    return SimulationResult(state, trace, len(plan_.actions), failed=False)


@dataclass(frozen=True)
class TaskSpec:
    """One benchmark task: an object, a start grasp, and goal regions."""

    name: str
    obj: ObjectModel
    start: GraspState
    goals: list[GoalRegion]
    resolution: ResolutionConfig
    cost: CostConfig


@dataclass
class TaskResult:
    task: str
    object_name: str
    status: str
    planning_time_s: float
    plan_length: int
    execution_steps: int
    overlap_left: float
    overlap_right: float
    outside_area: float
    objective: float

    def mean_overlap(self) -> float:
        return (self.overlap_left + self.overlap_right) / 2.0


@dataclass
class BenchReport:
    rows: list[TaskResult]
    per_object: dict[str, dict[str, float]] = field(default_factory=dict)
    overall: dict[str, float] = field(default_factory=dict)

    def recompute_aggregates(self) -> None:
        if not self.rows:
            raise InvalidInputError("cannot aggregate an empty report")
        self.per_object = {}
        by_object: dict[str, list[TaskResult]] = {}
        for row in self.rows:
            by_object.setdefault(row.object_name, []).append(row)
        for name, rows in sorted(by_object.items()):
            self.per_object[name] = _aggregate(rows)
        self.overall = _aggregate(self.rows)


def _aggregate(rows: list[TaskResult]) -> dict[str, float]:
    n = len(rows)
    return {
        "tasks": float(n),
        "solved_fraction": sum(1.0 for r in rows if r.status == "exact-goal") / n,
        "mean_overlap": math.fsum(r.mean_overlap() for r in rows) / n,
        "mean_overlap_left": math.fsum(r.overlap_left for r in rows) / n,
        "mean_overlap_right": math.fsum(r.overlap_right for r in rows) / n,
        "mean_planning_time_s": math.fsum(r.planning_time_s for r in rows) / n,
        "mean_plan_length": math.fsum(float(r.plan_length) for r in rows) / n,
        "mean_execution_steps": math.fsum(float(r.execution_steps) for r in rows) / n,
        "mean_objective": math.fsum(r.objective for r in rows) / n,
    }


def run_task(task: TaskSpec) -> tuple[TaskResult, Plan]:
    t0 = time.perf_counter()
    plan_ = run_planner(task.obj, task.start, task.goals, task.resolution, task.cost)
    elapsed = time.perf_counter() - t0
    sim = simulate(plan_, task.obj, task.start)
    left, right = overlap_ratio(sim.final_state, task.goals)
    outside = region_outside_goal(sim.final_state, task.goals)
    row = TaskResult(
        task=task.name,
        object_name=task.obj.name,
        status=plan_.status,
        planning_time_s=elapsed,
        plan_length=len(plan_.actions),
        execution_steps=sim.executed,
        overlap_left=left,
        overlap_right=right,
        outside_area=outside,
        objective=plan_.objective,
    )
    return row, plan_


def run_benchmark(suite: list[TaskSpec]) -> BenchReport:
    """Plan + noiseless-simulate every task.  A task that raises a WihmplanError is
    recorded as failed; any other exception is a bug and propagates."""
    if not suite:
        raise InvalidInputError("benchmark suite must be non-empty")
    rows = []
    for task in suite:
        try:
            row, _ = run_task(task)
        except WihmplanError as exc:  # a bad task must not sink the suite
            row = TaskResult(task=task.name, object_name=task.obj.name,
                             status=f"failed: {type(exc).__name__}", planning_time_s=0.0,
                             plan_length=0, execution_steps=0, overlap_left=0.0,
                             overlap_right=0.0, outside_area=float("nan"),
                             objective=float("nan"))
        rows.append(row)
    report = BenchReport(rows=rows)
    report.recompute_aggregates()
    return report


def noise_robustness(plan_: Plan, obj: ObjectModel, s0: GraspState,
                     eta: float, trials: int, seed: int = 0) -> dict:
    """Failure statistics over seeded perturbed replays of one plan from s0,
    which must be the plan's first state (as the noiseless replay checks)."""
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if not plan_.states or state_key(s0) != state_key(plan_.states[0]):
        raise CorruptedPlanError("the start state is not the plan's first state")
    failures = 0
    per_trial = []
    for t in range(trials):
        result = simulate(plan_, obj, s0, noise=NoiseModel(eta=eta, seed=seed + t))
        failures += int(result.failed)
        per_trial.append({"trial": t, "failed": result.failed,
                          "executed": result.executed})
    return {
        "eta": eta,
        "seed": seed,
        "trials": trials,
        "failures": failures,
        "failure_fraction": failures / trials,
        "per_trial": per_trial,
    }


# ---------------------------------------------------------------------------
# Report rendering

_REPORT_FIELDS = ["kind", "task", "object", "status", "planning_time_s", "plan_length",
                  "execution_steps", "overlap_left", "overlap_right", "outside_area",
                  "objective"]


def report_records(report: BenchReport) -> list[dict]:
    """Flat row list renderable identically as CSV or JSON."""
    records = []
    for row in report.rows:
        records.append({
            "kind": "task",
            "task": row.task,
            "object": row.object_name,
            "status": row.status,
            "planning_time_s": row.planning_time_s,
            "plan_length": row.plan_length,
            "execution_steps": row.execution_steps,
            "overlap_left": row.overlap_left,
            "overlap_right": row.overlap_right,
            "outside_area": row.outside_area,
            "objective": row.objective,
        })
    for name, agg in report.per_object.items():
        records.append(_aggregate_record("object_mean", name, agg))
    records.append(_aggregate_record("overall_mean", "*", report.overall))
    return records


def _aggregate_record(kind: str, name: str, agg: dict[str, float]) -> dict:
    return {
        "kind": kind,
        "task": "*",
        "object": name,
        "status": f"solved={agg['solved_fraction']:.3f}",
        "planning_time_s": agg["mean_planning_time_s"],
        "plan_length": agg["mean_plan_length"],
        "execution_steps": agg["mean_execution_steps"],
        "overlap_left": agg["mean_overlap_left"],
        "overlap_right": agg["mean_overlap_right"],
        "outside_area": float("nan"),
        "objective": agg["mean_objective"],
    }


def emit_report(report: BenchReport, path: str | Path, fmt: str | None = None) -> None:
    """Write the report as CSV or JSON (by extension when fmt is omitted)."""
    if not report.rows:
        raise InvalidInputError("cannot emit an empty report")
    path = Path(path)
    fmt = fmt or path.suffix.lstrip(".").lower()
    records = report_records(report)
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, sort_keys=True, indent=2)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_REPORT_FIELDS)
            writer.writeheader()
            for record in records:
                writer.writerow(record)
    else:
        raise InvalidInputError(f"unknown report format {fmt!r}")
