"""The benchmark's workloads: seeded inputs, one timed unit of work, its checks.

Each workload has ``prepare()``, which loads fixtures and generates the
seeded inputs (the set-up phase), and ``run_unit(inputs)``, which does one
fixed amount of work on fresh object models and checks its outputs.  A run
repeats units until its time is up and reports their median.

* ``suite``  - ``wihmplan benchmark`` on the 12 fixture tasks, in-process.
* ``budget`` - best-effort searches that stop after exactly ``node_budget``
  expansions, two per fixture prism sharing one loaded model.
* ``replay`` - random walks replayed noiselessly, then under seeded step
  noise, plus the pivot/shift waypoints of each walk.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wihmplan.geometry import ConvexPolygon2, convex_intersection

# By module, as the package re-exports a function named like its transition module.
bench_mod = importlib.import_module("wihmplan.bench")
cli_mod = importlib.import_module("wihmplan.cli")
io_mod = importlib.import_module("wihmplan.io")
kinematics_mod = importlib.import_module("wihmplan.kinematics")
planner_mod = importlib.import_module("wihmplan.planner")
transition_mod = importlib.import_module("wihmplan.transition")

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "wihmplan" / "fixtures"
SUITE_FILE = FIXTURES / "suite.json"
OUT_DIR = ROOT / ".perfbench"

# budget: expansions per search (12 searches, about 4 s in all on a 2-core
# Xeon at full speed; short units give a run more of them to take the median
# of), and the side of the goal squares, below every fixture pad's side.
NODE_BUDGET = 625
GOAL_SIDE = 0.012
# replay: primitives per walk, noisy trials per walk, noise amplitude
# (the seeded-noise acceptance criterion's), waypoints per pivot stage (the CLI default).
WALK_STEPS = 20
NOISE_TRIALS = 200
NOISE_ETA = 0.002
STEPS_PER_STAGE = 25
WALK_SEED = 1  # its walks hold all nine primitive kinds


@dataclass
class Outcome:
    """What one unit did and how much of it failed its checks."""

    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    plan_cost: float = 0.0      # sum of the plans' objective
    mean_overlap: float = 0.0   # noiseless mean goal overlap of the plans' final states
    counters: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def fingerprint(self) -> tuple:
        """The deterministic outputs, which every unit of a run must repeat."""
        return (self.attempted, self.failed, self.plan_cost, self.mean_overlap,
                tuple(sorted(self.counters.items())))


def expanded_count(plan) -> int:
    """Node expansions of a search, from its stats if the plan carries them."""
    stats = getattr(plan, "stats", None)
    if stats is not None and hasattr(stats, "expanded"):
        return int(stats.expanded)
    return int(plan.expansions)


@dataclass(frozen=True)
class FixtureTask:
    name: str
    object_path: Path
    start: object
    goals: list
    resolution: object
    cost: object


def suite_task_names() -> list[str]:
    return [entry["name"] for entry in io_mod.read_json(SUITE_FILE)["tasks"]]


def load_fixture_tasks() -> list[FixtureTask]:
    """Every suite task's start, goals and configs, loaded as the CLI loads them."""
    tasks = []
    for entry in io_mod.read_json(SUITE_FILE)["tasks"]:
        obj_path = FIXTURES / entry["object"]
        obj = io_mod.load_object(obj_path)
        config = FIXTURES / entry["config"] if "config" in entry else None
        resolution, cost = io_mod.load_configs(config)
        resolution = transition_mod.derive_resolutions(obj, resolution)
        tasks.append(FixtureTask(
            name=entry["name"], object_path=obj_path,
            start=io_mod.load_state(FIXTURES / entry["start"], obj, resolution),
            goals=io_mod.load_goals(FIXTURES / entry["goals"], obj),
            resolution=resolution, cost=cost))
    return tasks


def mean_overlap(state, goals) -> float:
    left, right = transition_mod.overlap_ratio(state, goals)
    return (left + right) / 2.0


def _fresh_objects(tasks) -> dict[Path, object]:
    """A newly loaded model per object file, so no unit sees another's memo tables."""
    return {path: io_mod.load_object(path) for path in dict.fromkeys(t.object_path for t in tasks)}


class SuiteWorkload:
    """``wihmplan benchmark --suite suite.json`` through ``cli.main``; the seed is unused."""

    name = "suite"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> list[str]:
        return suite_task_names()  # the CLI loads the fixtures inside the timed unit

    def sizes(self, inputs) -> dict:
        return {"tasks": len(inputs)}

    def run_unit(self, inputs: list[str], tracer=None) -> Outcome:
        OUT_DIR.mkdir(exist_ok=True)
        report = OUT_DIR / "suite_report.json"
        report.unlink(missing_ok=True)
        argv = ["benchmark", "--suite", str(SUITE_FILE),
                "--out", str(OUT_DIR / "suite_report.csv"), "--json-out", str(report)]
        if tracer is None:
            code = cli_mod.main(argv)
        else:
            with tracer.span("cli.benchmark"):
                code = cli_mod.main(argv)
        out = Outcome(attempted=len(inputs))
        # Aggregate rows repeat the mean overlap in both finger columns: read task rows only.
        rows = {r["task"]: r for r in json.loads(report.read_text(encoding="utf-8"))
                if r["kind"] == "task"} if report.exists() else {}
        for task in inputs:
            row = rows.get(task)
            if row is None:
                out.fail(f"{task}: no report row")
            elif row["status"] != "exact-goal":
                out.fail(f"{task}: status {row['status']}")
        if code != 0 and out.failed == 0:
            out.fail(f"wihmplan benchmark exited with code {code}")
        if rows:
            out.plan_cost = math.fsum(r["objective"] for r in rows.values())
            out.mean_overlap = math.fsum(
                (r["overlap_left"] + r["overlap_right"]) / 2.0 for r in rows.values()) / len(rows)
        return out


def _square(center, side: float) -> ConvexPolygon2:
    h = side / 2.0
    cx, cy = float(center[0]), float(center[1])
    return ConvexPolygon2([(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)])


def _square_on_face(rng: np.random.Generator, face_polygon: ConvexPolygon2,
                    avoid: list[ConvexPolygon2]) -> ConvexPolygon2:
    """A seeded goal square inside the face that overlaps none of ``avoid``."""
    lo, hi = face_polygon.vertices.min(axis=0), face_polygon.vertices.max(axis=0)
    for _ in range(10_000):
        square = _square(rng.uniform(lo, hi), GOAL_SIDE)
        if face_polygon.contains_points(square.vertices, tol=0.0).all() and all(
                convex_intersection(square, other) is None for other in avoid):
            return square
    raise RuntimeError("no goal square fits on the face")


class BudgetWorkload:
    """Searches whose goal can never be met exactly, so each spends its whole budget.

    Per task, one goal square lies inside the left pad at a seeded offset
    and one at a seeded place on a seeded face, clear of the start pads.
    Both are smaller than the pads, so h stays above 0 and every search
    stops after ``NODE_BUDGET`` expansions.  The start already covers the
    first square and no step can cover more goal area than it costs, so the
    best-effort plan is the start and its overlap does not depend on the
    seed.
    """

    name = "budget"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> list[FixtureTask]:
        rng = np.random.default_rng(self.seed)
        by_object: dict[Path, list[FixtureTask]] = {}
        for task in load_fixture_tasks():
            by_object.setdefault(task.object_path, []).append(task)
        tasks = []
        for path, fixtures in by_object.items():
            obj = io_mod.load_object(path)
            for k in range(2):
                fixture = fixtures[k % len(fixtures)]
                pad = fixture.start.left
                slack = (min(pad.pad_width, pad.pad_height) - GOAL_SIDE) / 2.0
                inside = _square(pad.center + rng.uniform(-slack, slack, size=2), GOAL_SIDE)
                if not pad.polygon().contains_points(inside.vertices).all():
                    raise RuntimeError(f"{fixture.name}: goal square leaves the start pad")
                face = int(rng.integers(len(obj.faces)))
                pads = [r.polygon() for r in (fixture.start.left, fixture.start.right)
                        if r.face == face]
                goals = [transition_mod.GoalRegion(pad.face, inside),
                         transition_mod.GoalRegion(face, _square_on_face(
                             rng, obj.face(face).polygon, pads))]
                tasks.append(FixtureTask(
                    name=f"{obj.name}_{k}", object_path=path, start=fixture.start, goals=goals,
                    resolution=fixture.resolution,
                    cost=dataclasses.replace(fixture.cost, node_budget=NODE_BUDGET)))
        return tasks

    def sizes(self, inputs) -> dict:
        return {"tasks": len(inputs), "node_budget": NODE_BUDGET, "goal_side_m": GOAL_SIDE}

    def run_unit(self, inputs: list[FixtureTask], tracer=None) -> Outcome:
        out = Outcome(attempted=len(inputs))
        objects = _fresh_objects(inputs)  # the tasks on one object share its model
        costs, overlaps = [], []
        for task in inputs:
            try:
                plan = planner_mod.plan(objects[task.object_path], task.start, task.goals,
                                        task.resolution, task.cost)
            except Exception as exc:  # noqa: BLE001 - counted and reported as a failure
                out.fail(f"{task.name}: {type(exc).__name__}: {exc}")
                continue
            expanded = expanded_count(plan)
            if expanded != NODE_BUDGET:
                out.fail(f"{task.name}: {expanded} expansions, budget {NODE_BUDGET}")
            costs.append(plan.objective)
            overlaps.append(mean_overlap(plan.states[-1], task.goals))
        out.plan_cost = math.fsum(costs)
        out.mean_overlap = math.fsum(overlaps) / len(inputs)
        return out


@dataclass(frozen=True)
class Walk:
    name: str
    object_path: Path
    start: object
    plan: object
    goals: list                # the walk's own final pads
    noise_seeds: tuple[int, ...]


def _same_state(a, b, tol: float = 1e-12) -> bool:
    if (a.grasp_pair, a.support_face) != (b.grasp_pair, b.support_face):
        return False
    for ra, rb in ((a.left, b.left), (a.right, b.right)):
        if ra.face != rb.face or np.max(np.abs(ra.center - rb.center)) > tol:
            return False
        turn = (ra.orientation - rb.orientation) % (2.0 * math.pi)
        if min(turn, 2.0 * math.pi - turn) > tol:
            return False
    return True


def plan_waypoints():
    """The waypoint generator, wherever the package keeps it."""
    return getattr(kinematics_mod, "plan_waypoints", None) or cli_mod.plan_waypoints


class ReplayWorkload:
    """Random walks from each fixture start, replayed without the planner.

    Each walk takes ``WALK_STEPS`` primitives, each picked uniformly from
    ``transition.successors``.  The walks come from the fixed ``WALK_SEED``
    and the workload seed drives only the step noise: walk sets drawn from
    different seeds differ by over 10% in cost and in replay work (more or
    fewer rotations and pivots), which would swamp the run-to-run spread.
    A walk's goals are its own final pads, so the noiseless replay must land
    on them exactly and the noisy trials measure how far step noise carries
    the contacts off.
    """

    name = "replay"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> tuple[list[Walk], object]:
        rng = np.random.default_rng(self.seed)
        walk_rng = np.random.default_rng(WALK_SEED)
        cost_cfg = planner_mod.CostConfig()
        walks = []
        objects = {}
        for fixture in load_fixture_tasks():
            if fixture.object_path not in objects:
                objects[fixture.object_path] = io_mod.load_object(fixture.object_path)
            obj = objects[fixture.object_path]
            state, actions, states = fixture.start, [], [fixture.start]
            for _ in range(WALK_STEPS):
                options = transition_mod.successors(state, obj, fixture.resolution)
                if not options:
                    break
                action, state = options[int(walk_rng.integers(len(options)))]
                actions.append(action)
                states.append(state)
            step_costs = [planner_mod.action_cost(a, cost_cfg, fixture.resolution.slide_step)
                          for a in actions]
            goals = [transition_mod.GoalRegion(r.face, r.polygon()) for r in (state.left, state.right)]
            outside = transition_mod.region_outside_goal(state, goals)
            total = math.fsum(step_costs)
            plan = planner_mod.Plan(
                actions=actions, states=states, step_costs=step_costs, total_action_cost=total,
                terminal_outside_area=outside, objective=outside + cost_cfg.tradeoff_weight * total,
                status="best-effort", tradeoff_weight=cost_cfg.tradeoff_weight)
            seeds = tuple(int(s) for s in rng.integers(0, 2**31, size=NOISE_TRIALS))
            walks.append(Walk(fixture.name, fixture.object_path, fixture.start, plan, goals, seeds))
        chain = io_mod.load_chain(FIXTURES / "chain.json")
        return walks, chain

    def sizes(self, inputs) -> dict:
        walks, _ = inputs
        kinds: dict[str, int] = {}
        for walk in walks:
            for action in walk.plan.actions:
                kinds[action.kind.name] = kinds.get(action.kind.name, 0) + 1
        return {"walks": len(walks), "walk_steps": WALK_STEPS, "noise_trials": NOISE_TRIALS,
                "noise_eta_m": NOISE_ETA, "steps_per_stage": STEPS_PER_STAGE,
                "actions": dict(sorted(kinds.items()))}

    def run_unit(self, inputs, tracer=None) -> Outcome:
        walks, chain = inputs
        out = Outcome(attempted=len(walks))
        objects = _fresh_objects(walks)
        costs, overlaps = [], []
        trials = failures = waypoints = 0
        noisy_overlap = 0.0
        for walk in walks:
            obj = objects[walk.object_path]
            try:
                result = bench_mod.simulate(walk.plan, obj, walk.start)
                if len(result.trace) != len(walk.plan.states) or not all(
                        _same_state(a, b) for a, b in zip(result.trace, walk.plan.states)):
                    out.fail(f"{walk.name}: noiseless replay left the recorded states")
                    continue
                costs.append(walk.plan.objective)
                overlaps.append(mean_overlap(result.final_state, walk.goals))
                for seed in walk.noise_seeds:
                    noisy = bench_mod.simulate(walk.plan, obj, walk.start,
                                               noise=bench_mod.NoiseModel(eta=NOISE_ETA, seed=seed))
                    trials += 1
                    failures += int(noisy.failed)
                    noisy_overlap += mean_overlap(noisy.final_state, walk.goals)
                waypoints += len(plan_waypoints()(walk.plan, obj, chain,
                                                  steps_per_stage=STEPS_PER_STAGE))
            except Exception as exc:  # noqa: BLE001 - counted and reported as a failure
                out.fail(f"{walk.name}: {type(exc).__name__}: {exc}")
        out.plan_cost = math.fsum(costs)
        out.mean_overlap = math.fsum(overlaps) / len(walks)
        out.counters = {"noise_trials": trials, "noise_failures": failures,
                        "noisy_mean_overlap": noisy_overlap / trials if trials else 0.0,
                        "waypoints": waypoints}
        return out


WORKLOADS = {w.name: w for w in (SuiteWorkload, BudgetWorkload, ReplayWorkload)}
