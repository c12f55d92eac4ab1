"""Which wihmplan calls the traced run times, and the per-layer metrics.

Each probe names a metric and the module attributes that carry calls into
that layer.  Where a function is due to move (``plan_waypoints`` from
``cli`` to ``kinematics``) both homes are listed; calls are counted
wherever it lives.
"""

from __future__ import annotations

from collections import Counter

from tracing import Tracer
from workloads import Outcome, expanded_count

# metric name -> module attributes whose calls it times
PROBES: dict[str, list[tuple[str, str]]] = {
    "planner.plan": [("wihmplan.bench", "run_planner"), ("wihmplan.planner", "plan")],
    "transition.successors": [("wihmplan.planner", "successors")],
    "transition.state_key": [("wihmplan.planner", "state_key"), ("wihmplan.bench", "state_key")],
    "transition.region_outside_goal": [("wihmplan.planner", "region_outside_goal"),
                                       ("wihmplan.bench", "region_outside_goal")],
    "transition.transition": [("wihmplan.bench", "transition"), ("wihmplan.planner", "transition")],
    "transition.overlap_ratio": [("wihmplan.bench", "overlap_ratio"),
                                 ("wihmplan.transition", "overlap_ratio")],
    "heuristic.total_heuristic": [("wihmplan.planner", "total_heuristic")],
    "geometry.unfold": [("wihmplan.heuristic", "unfold")],
    "geometry.points_to_polygon_distance": [("wihmplan.heuristic", "points_to_polygon_distance")],
    "geometry.convex_intersection": [("wihmplan.transition", "convex_intersection")],
    "bench.simulate": [("wihmplan.bench", "simulate")],
    "kinematics.waypoints": [("wihmplan.kinematics", "plan_waypoints"),
                             ("wihmplan.cli", "plan_waypoints")],
    "kinematics.full_pivot_trajectory": [("wihmplan.kinematics", "full_pivot_trajectory"),
                                         ("wihmplan.cli", "full_pivot_trajectory")],
    "io.load": [("wihmplan.io", name) for name in (
        "read_json", "load_object", "load_goals", "load_state", "load_configs",
        "load_chain", "load_plan")],
    "io.report": [("wihmplan.bench", "emit_report"), ("wihmplan.io", "emit_report")],
}

# Layer metrics with their units, in report order; per-suite-task metrics follow.
LAYER_METRICS: list[tuple[str, str]] = [
    ("planner.plan.calls", "count"),
    ("planner.plan.s", "s"),
    ("planner.expanded", "count"),
    ("planner.pushed", "count"),
    ("planner.duplicates_pruned", "count"),
    ("planner.us_per_expansion", "us"),
    ("planner.self_s", "s"),
    ("transition.successors.calls", "count"),
    ("transition.successors.s", "s"),
    ("transition.generated", "count"),
    ("transition.generated.slide", "count"),
    ("transition.generated.rotate", "count"),
    ("transition.generated.shift", "count"),
    ("transition.generated.pivot", "count"),
    ("transition.state_key.calls", "count"),
    ("transition.state_key.s", "s"),
    ("transition.region_outside_goal.calls", "count"),
    ("transition.region_outside_goal.s", "s"),
    ("transition.transition.calls", "count"),
    ("transition.transition.s", "s"),
    ("transition.overlap_ratio.calls", "count"),
    ("transition.overlap_ratio.s", "s"),
    ("heuristic.total_heuristic.calls", "count"),
    ("heuristic.total_heuristic.s", "s"),
    ("heuristic.finger_misses", "count"),
    ("heuristic.memo_hit_ratio", "ratio"),
    ("geometry.unfold.calls", "count"),
    ("geometry.unfold.s", "s"),
    ("geometry.points_to_polygon_distance.calls", "count"),
    ("geometry.points_to_polygon_distance.s", "s"),
    ("geometry.convex_intersection.calls", "count"),
    ("geometry.convex_intersection.s", "s"),
    ("geometry.scratch_entries", "count"),
    ("bench.simulate.calls", "count"),
    ("bench.simulate.s", "s"),
    ("bench.noise_trials", "count"),
    ("bench.noise_failures", "count"),
    ("bench.noisy_mean_overlap", "ratio"),
    ("kinematics.waypoints", "count"),
    ("kinematics.waypoints.s", "s"),
    ("kinematics.full_pivot_trajectory.calls", "count"),
    ("kinematics.full_pivot_trajectory.s", "s"),
    ("io.load.s", "s"),
    ("io.report.s", "s"),
    ("cli.benchmark.s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def layer_metric_units(suite_tasks: list[str]) -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = dict(LAYER_METRICS)
    for task in suite_tasks:
        units[f"planner.plan.s.{task}"] = "s"
        units[f"planner.expanded.{task}"] = "count"
    return units


_KIND_GROUPS = (("SLIDE", "slide"), ("ROTATE", "rotate"), ("MOVE_CONTACT", "shift"),
                ("PIVOT", "pivot"))


class LayerProbe:
    """A tracer with the hooks that turn wrapped calls into layer counters."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.task: str | None = None  # suite task being run, set by run_task
        self.plan_s: Counter = Counter()
        self.expanded: Counter = Counter()
        self.expanded_total = 0
        self.finger_misses = 0.0
        self.generated: Counter = Counter()
        self.objects: list = []
        self._distance_calls_at_plan_start = 0

    def __enter__(self) -> LayerProbe:
        t = self.tracer
        for name, targets in PROBES.items():
            hooks = {}
            if name == "planner.plan":
                hooks = {"before": self._plan_started, "after": self._plan_done}
            elif name == "transition.successors":
                hooks = {"after": self._successors_done}
            t.patch(name, targets, **hooks)
        # Attributes suite rows to tasks and collects the models the run loads.
        t.patch("bench.run_task", [("wihmplan.bench", "run_task")],
                before=lambda args, kwargs: setattr(self, "task", args[0].name),
                after=lambda *_: setattr(self, "task", None))
        t.patch("io.load_object", [("wihmplan.io", "load_object")],
                after=lambda args, kwargs, obj, dt: self.objects.append(obj))
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.restore()

    def _plan_started(self, args, kwargs) -> None:
        self._distance_calls_at_plan_start = \
            self.tracer.get("geometry.points_to_polygon_distance").calls

    def _plan_done(self, args, kwargs, plan, dt) -> None:
        goals = args[2] if len(args) > 2 else kwargs["goals"]
        calls = self.tracer.get("geometry.points_to_polygon_distance").calls
        self.finger_misses += (calls - self._distance_calls_at_plan_start) / len(goals)
        expanded = expanded_count(plan)
        self.expanded_total += expanded
        if self.task is not None:
            self.plan_s[self.task] += dt
            self.expanded[self.task] += expanded

    def _successors_done(self, args, kwargs, pairs, dt) -> None:
        for action, _ in pairs:
            name = action.kind.name
            for prefix, group in _KIND_GROUPS:
                if name.startswith(prefix):
                    self.generated[group] += 1
                    break

    def scratch_entries(self) -> int | None:
        """Entries left in the models' memo tables, or None if models have none."""
        unique = {id(obj): obj for obj in self.objects}.values()
        if not unique or not all(hasattr(obj, "scratch") for obj in unique):
            return None
        return sum(len(obj.scratch) for obj in unique)

    def metrics(self, outcome: Outcome, suite_tasks: list[str], untraced_s: float,
                traced_s: float) -> tuple[dict[str, float], list[str]]:
        """Per-layer values by name, and the metrics whose probes found no target."""
        t = self.tracer
        absent = list(t.absent)
        plan = t.get("planner.plan")
        heur = t.get("heuristic.total_heuristic")
        misses = self.finger_misses
        pushed = max(heur.calls - plan.calls, 0)
        generated = sum(self.generated.values())
        values = {
            "planner.plan.calls": plan.calls,
            "planner.plan.s": plan.total_s,
            "planner.expanded": self.expanded_total,
            "planner.pushed": pushed,
            "planner.duplicates_pruned": generated - pushed,
            "planner.us_per_expansion":
                plan.total_s / self.expanded_total * 1e6 if self.expanded_total else 0.0,
            "planner.self_s": plan.self_s,
            "transition.generated": generated,
            "heuristic.finger_misses": misses,
            "heuristic.memo_hit_ratio": 1.0 - misses / (2 * heur.calls) if heur.calls else 0.0,
            "bench.noise_trials": outcome.counters.get("noise_trials", 0),
            "bench.noise_failures": outcome.counters.get("noise_failures", 0),
            "bench.noisy_mean_overlap": outcome.counters.get("noisy_mean_overlap", 0.0),
            "kinematics.waypoints": outcome.counters.get("waypoints", 0),
            "kinematics.waypoints.s": t.get("kinematics.waypoints").total_s,
            "io.load.s": t.get("io.load").total_s,
            "io.report.s": t.get("io.report").total_s,
            "cli.benchmark.s": t.get("cli.benchmark").total_s,
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
        }
        for _, group in _KIND_GROUPS:
            values[f"transition.generated.{group}"] = self.generated[group]
        for name in ("transition.successors", "transition.state_key",
                     "transition.region_outside_goal", "transition.transition",
                     "transition.overlap_ratio", "heuristic.total_heuristic", "geometry.unfold",
                     "geometry.points_to_polygon_distance", "geometry.convex_intersection",
                     "bench.simulate", "kinematics.full_pivot_trajectory"):
            values[f"{name}.calls"] = t.get(name).calls
            values[f"{name}.s"] = t.get(name).total_s
        scratch = self.scratch_entries()
        if scratch is None:
            absent.append("geometry.scratch_entries")
        values["geometry.scratch_entries"] = scratch or 0
        for task in suite_tasks:
            values[f"planner.plan.s.{task}"] = self.plan_s[task]
            values[f"planner.expanded.{task}"] = self.expanded[task]
        return values, absent
