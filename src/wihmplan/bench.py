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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptedPlanError, InfeasibleActionError, InvalidInputError, WihmplanError
from .geometry import ObjectModel
from .planner import CostConfig, Plan, plan as run_planner
from .transition import (
    _TRANSLATIONS,
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
        # numpy would reject a negative seed with a bare ValueError.
        if type(self.seed) is not int or self.seed < 0:
            raise InvalidInputError(f"noise seed must be a non-negative int, got {self.seed!r}")


@dataclass
class SimulationResult:
    final_state: GraspState
    trace: list[GraspState]
    executed: int
    failed: bool
    failure_step: int | None = None


def check_replay(replayed: list[GraspState], recorded: list[GraspState]) -> None:
    """Raise CorruptedPlanError unless a noiseless replay gave the recorded states."""
    if len(replayed) != len(recorded):
        raise CorruptedPlanError(
            f"replay produced {len(replayed)} states, the plan records {len(recorded)}")
    for got, want in zip(replayed, recorded):
        if state_key(got) != state_key(want):
            raise CorruptedPlanError("noiseless replay diverged from the recorded states")


def simulate(plan_: Plan, obj: ObjectModel, s0: GraspState,
             noise: NoiseModel | None = None,
             resolution: ResolutionConfig | None = None) -> SimulationResult:
    """Replay a plan from s0; exact in noiseless mode, perturbed otherwise.

    Given ``resolution``, a rotation outside its grip limits is infeasible, as
    in search (``transition``).  A noisy replay draws one offset per action
    in a single ``uniform`` call, and its translational steps take them in
    order: a numpy Generator fills the array sequentially, so these are the
    values, in the order, of a draw of one offset per translational action.
    Each step hands ``transition`` the plan's own action and its offset (0.0
    for a turn or a noiseless replay); a noisy step whose applied magnitude
    is not positive and finite fails the trial, as an infeasible one does.
    """
    offsets = None
    if noise is not None:
        offsets = iter(np.random.default_rng(noise.seed).uniform(
            -noise.eta, noise.eta, size=len(plan_.actions)).tolist())
    state = s0
    trace = [state]
    for i, action in enumerate(plan_.actions):
        offset = next(offsets) if offsets is not None and action.kind in _TRANSLATIONS else 0.0
        try:
            state = transition(state, action, obj, resolution, offset)
        except (InfeasibleActionError, InvalidInputError):
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
    """One task's report row.  The defaults are a failed task's: nothing
    planned or executed, and no objective."""

    task: str
    object_name: str
    status: str
    planning_time_s: float = 0.0
    plan_length: int = 0
    execution_steps: int = 0
    overlap_left: float = 0.0
    overlap_right: float = 0.0
    outside_area: float = math.nan
    objective: float = math.nan

    def mean_overlap(self) -> float:
        return (self.overlap_left + self.overlap_right) / 2.0


@dataclass
class BenchReport:
    """A benchmark's task rows.  Its aggregates are derived from them on each read."""

    rows: list[TaskResult]

    @property
    def per_object(self) -> dict[str, dict[str, float]]:
        """The aggregates of each object's rows, by object name in sorted order."""
        by_object: dict[str, list[TaskResult]] = {}
        for row in self.rows:
            by_object.setdefault(row.object_name, []).append(row)
        return {name: _aggregate(rows) for name, rows in sorted(by_object.items())}

    @property
    def overall(self) -> dict[str, float]:
        return _aggregate(self.rows)


# A report row's number columns, in report order.  An aggregate row reports the
# mean of each but outside_area, kept in its aggregates as "mean_<column>".
_NUMBERS = ("planning_time_s", "plan_length", "execution_steps", "overlap_left",
            "overlap_right", "outside_area", "objective")
_MEANS = tuple(column for column in _NUMBERS if column != "outside_area")


def _aggregate(rows: list[TaskResult]) -> dict[str, float]:
    if not rows:
        raise InvalidInputError("cannot aggregate an empty report")
    n = len(rows)
    agg = {
        "tasks": float(n),
        "solved_fraction": sum(1.0 for r in rows if r.status == "exact-goal") / n,
        "mean_overlap": math.fsum(r.mean_overlap() for r in rows) / n,
    }
    for column in _MEANS:
        agg[f"mean_{column}"] = math.fsum(getattr(r, column) for r in rows) / n
    return agg


def run_task(task: TaskSpec) -> tuple[TaskResult, Plan]:
    t0 = time.perf_counter()
    plan_ = run_planner(task.obj, task.start, task.goals, task.resolution, task.cost)
    elapsed = time.perf_counter() - t0
    sim = simulate(plan_, task.obj, task.start, resolution=task.resolution)
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
            row = TaskResult(task.name, task.obj.name, f"failed: {type(exc).__name__}")
        rows.append(row)
    return BenchReport(rows=rows)


def noise_robustness(plan_: Plan, obj: ObjectModel, s0: GraspState,
                     eta: float, trials: int, seed: int = 0,
                     resolution: ResolutionConfig | None = None) -> dict:
    """Failure statistics over seeded perturbed replays of one plan from s0,
    which must be the plan's first state (as the noiseless replay checks);
    ``resolution`` as in ``simulate``."""
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if not plan_.states or state_key(s0) != state_key(plan_.states[0]):
        raise CorruptedPlanError("the start state is not the plan's first state")
    failures = 0
    per_trial = []
    for t in range(trials):
        result = simulate(plan_, obj, s0, noise=NoiseModel(eta=eta, seed=seed + t),
                          resolution=resolution)
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

_REPORT_FIELDS = ["kind", "task", "object", "status", *_NUMBERS]


def report_records(report: BenchReport) -> list[dict]:
    """Flat row list renderable identically as CSV or JSON."""
    records = [{"kind": "task", "task": row.task, "object": row.object_name,
                "status": row.status, **{column: getattr(row, column) for column in _NUMBERS}}
               for row in report.rows]
    for name, agg in report.per_object.items():
        records.append(_aggregate_record("object_mean", name, agg))
    records.append(_aggregate_record("overall_mean", "*", report.overall))
    return records


def _aggregate_record(kind: str, name: str, agg: dict[str, float]) -> dict:
    record = {"kind": kind, "task": "*", "object": name,
              "status": f"solved={agg['solved_fraction']:.3f}", "outside_area": math.nan}
    for column in _MEANS:
        record[column] = agg[f"mean_{column}"]
    return record


def report_format(path: str | Path, fmt: str | None = None) -> str:
    """fmt, or else the path's extension; InvalidInputError unless CSV or JSON."""
    fmt = fmt or Path(path).suffix.lstrip(".").lower()
    if fmt not in ("csv", "json"):
        raise InvalidInputError(f"unknown report format {fmt!r}")
    return fmt


def emit_report(report: BenchReport, path: str | Path, fmt: str | None = None) -> None:
    """Write the report as CSV or JSON (``report_format``)."""
    fmt = report_format(path, fmt)
    if not report.rows:
        raise InvalidInputError("cannot emit an empty report")
    records = report_records(report)
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_REPORT_FIELDS)
            writer.writeheader()
            for record in records:
                writer.writerow(record)
