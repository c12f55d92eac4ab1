"""File formats: JSON objects/goals/states/plans/configs, CSV trajectories.

All writers emit sorted-key JSON so identical inputs produce byte-identical
files.  Loaders validate module invariants up front and name the offending
file and field in every error.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .bench import TaskSpec
from .errors import CorruptedPlanError, InvalidGeometryError, InvalidInputError, WihmplanError
from .geometry import ConvexPolygon2, ObjectModel, UnfoldedMap, build_prism
from .kinematics import PivotChain, Waypoint, rotation_to_quaternion
from .planner import CostConfig, Plan
from .transition import (
    Action,
    ActionKind,
    ContactRegion,
    GoalRegion,
    GraspState,
    ResolutionConfig,
)


def read_json(path: str | Path):
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: malformed JSON ({exc})")


_REQUIRED = object()  # a table default: the field must be present

_NOUNS = {bool: "true or false", str: "a string", list: "a list"}


def _noun(kind) -> str:
    if isinstance(kind, dict):
        return "a JSON object with fields " + ", ".join(f"'{field}'" for field in kind)
    return _NOUNS[kind]


def _where(path, context: str) -> str:
    return f"{path}: {context}" if context else str(path)


def _fields(data, table: dict, path, context: str = "") -> dict:
    """The fields of the JSON object ``data``, each read as ``table`` says.

    ``table`` maps each field to ``(kind, default)``.  The kind is bool, str,
    list, float or int (a number read by _number), or another table, which
    reads a nested object the same way; the default fills a missing field
    unless it is _REQUIRED, and a field whose default is None may be null.
    Anything but an object, a field the table lacks, a missing required field
    or a value of the wrong kind raises InvalidInputError naming ``path``,
    the ``context`` in the file (``task 3``, ``state 1 left``) and the field.
    """
    where = _where(path, context)
    if not isinstance(data, dict):
        raise InvalidInputError(f"{where}: expected {_noun(table)}, got {data!r}")
    for field in data:
        if field not in table:
            raise InvalidInputError(f"{where}: unknown field '{field}'")
    out = {}
    for field, (kind, default) in table.items():
        value = data.get(field, default)
        if value is _REQUIRED:
            raise InvalidInputError(f"{where}: missing required field '{field}'")
        if value is None and default is None:
            out[field] = None
        elif isinstance(kind, dict):
            out[field] = _fields(_value(value, kind, field, where), kind, path,
                                 f"{context} {field}".lstrip())
        else:
            out[field] = _value(value, kind, field, where)
    return out


def _value(value, kind, field: str, where):
    """value as kind: a number read by _number, else value itself once it is of
    the kind (a JSON object for a table), or InvalidInputError naming the field."""
    if kind is float or kind is int:
        return _number(value, field, where, kind)
    if not isinstance(value, dict if isinstance(kind, dict) else kind):
        raise InvalidInputError(f"{where}: field '{field}' must be {_noun(kind)}, got {value!r}")
    return value


def _number(value, field: str, where, kind: type = float):
    """A JSON number as a finite float, or as an int when kind is int.

    Anything else (a string, a bool, null, a fraction for an int, NaN or an
    infinity) raises InvalidInputError naming ``where`` and the field.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (kind is int and value != int(value))):
        noun = "an integer" if kind is int else "a finite number"
        raise InvalidInputError(f"{where}: field '{field}' must be {noun}, got {value!r}")
    return kind(value)


def _numbers(value, field: str, where, depth: int = 1) -> list:
    """A JSON list of numbers (depth 1) or of number lists (depth 2), each read by _number."""
    _value(value, list, field, where)
    if depth == 1:
        return [_number(v, field, where) for v in value]
    return [_numbers(v, field, where, depth - 1) for v in value]


# A pad as a plan state records it; a start file may omit its orientation and size.
_PAD = {"face": (int, _REQUIRED), "center": (list, _REQUIRED), "orientation": (float, _REQUIRED),
        "pad_width": (float, _REQUIRED), "pad_height": (float, _REQUIRED)}


def _pad(pad: dict, where) -> dict:
    """A pad's fields, once 'center' holds 2 numbers and both pad sizes are positive."""
    center = _numbers(pad["center"], "center", where)
    if len(center) != 2:
        raise InvalidInputError(f"{where}: field 'center' must hold 2 numbers, got {center!r}")
    for field in ("pad_width", "pad_height"):
        if pad[field] <= 0.0:
            raise InvalidInputError(
                f"{where}: field '{field}' must be positive, got {pad[field]!r}")
    return {**pad, "center": center}


def dump_json(payload, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


_OBJECT = {"name": (str, None), "units": (str, "m"), "cross_section": (list, _REQUIRED),
           "height": (float, _REQUIRED)}


def load_object(path: str | Path) -> ObjectModel:
    data = _fields(read_json(path), _OBJECT, path)
    if data["units"] != "m":
        raise InvalidInputError(f"{path}: field 'units' must be 'm', got {data['units']!r}")
    try:
        cross_section = ConvexPolygon2(
            _numbers(data["cross_section"], "cross_section", path, depth=2))
    except InvalidGeometryError as exc:
        raise InvalidInputError(f"{path}: field 'cross_section' invalid: {exc}")
    name = Path(path).stem if data["name"] is None else data["name"]
    try:
        return build_prism(cross_section, data["height"], name=name)
    except WihmplanError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


_GOAL = {"face": (int, _REQUIRED), "polygon": (list, _REQUIRED)}


def load_goals(path: str | Path, obj: ObjectModel) -> list[GoalRegion]:
    data = read_json(path)
    if not isinstance(data, list) or not data:
        raise InvalidInputError(f"{path}: expected a non-empty list of goal regions")
    goals = []
    for i, entry in enumerate(data):
        where = f"{path}: goal {i}"
        goal = _fields(entry, _GOAL, path, f"goal {i}")
        face = goal["face"]
        if face < 0 or face >= len(obj.faces):
            raise InvalidInputError(f"{where} field 'face' = {face} does not exist")
        try:
            poly = ConvexPolygon2(_numbers(goal["polygon"], "polygon", where, depth=2))
        except InvalidGeometryError as exc:
            raise InvalidInputError(f"{where} field 'polygon' invalid: {exc}")
        if not obj.face(face).polygon.contains_points(poly.vertices, tol=1e-6).all():
            raise InvalidInputError(f"{where} polygon leaves face {face}")
        goals.append(GoalRegion(face, poly))
    return goals


def load_state(path: str | Path, obj: ObjectModel, resolution: ResolutionConfig) -> GraspState:
    """The start state a file records.  A pad's orientation defaults to the
    canonical one, and its size to the resolution config's."""
    side = dict(_PAD, orientation=(float, None), pad_width=(float, resolution.pad_width),
                pad_height=(float, resolution.pad_height))
    data = _fields(read_json(path),
                   {"left": (side, _REQUIRED), "right": (side, _REQUIRED),
                    "support_face": (int, _REQUIRED)}, path)
    left, right = (_pad(data[s], _where(path, s)) for s in ("left", "right"))
    if (left["pad_width"], left["pad_height"]) != (right["pad_width"], right["pad_height"]):
        raise InvalidInputError(f"{path}: left/right pad dimensions must match")
    try:
        return GraspState.create(
            obj,
            left_face=left["face"],
            right_face=right["face"],
            support_face=data["support_face"],
            left_center=left["center"],
            right_center=right["center"],
            pad_width=left["pad_width"],
            pad_height=left["pad_height"],
            left_orientation=left["orientation"],
            right_orientation=right["orientation"],
        )
    except WihmplanError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _config_table(cls) -> dict:
    """cls's fields: one whose default is an int reads as an int, any other as a
    float; one whose default is None may be null."""
    return {f.name: (int if isinstance(f.default, int) else float, f.default)
            for f in dataclasses.fields(cls)}


def load_configs(path: str | Path | None) -> tuple[ResolutionConfig, CostConfig]:
    """The resolution and cost configs a file overrides, each validated."""
    if path is None:
        return ResolutionConfig(), CostConfig()
    data = _fields(read_json(path), {"resolution": (_config_table(ResolutionConfig), {}),
                                     "cost": (_config_table(CostConfig), {})}, path)
    configs = ResolutionConfig(**data["resolution"]), CostConfig(**data["cost"])
    for cfg in configs:
        try:
            cfg.validate()
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}: {exc}") from exc
    return configs


_CHAIN = {"d1": (float, _REQUIRED), "theta_finger": (float, _REQUIRED), "d2": (float, _REQUIRED),
          "d3": (float, _REQUIRED), "theta_contact": (float, 0.0)}


def load_chain(path: str | Path) -> PivotChain:
    data = _fields(read_json(path), _CHAIN, path)
    try:
        # plan_waypoints sets d4 (contact to edge) and theta_pivot per pivot
        return PivotChain(**data, d4=0.0)
    except WihmplanError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


_TASK = {"name": (str, _REQUIRED), "object": (str, _REQUIRED), "start": (str, _REQUIRED),
         "goals": (str, _REQUIRED), "config": (str, None)}
_THRESHOLDS = {"min_mean_overlap": (float, None), "max_task_planning_time_s": (float, None),
               "require_all_solved": (bool, False)}


def load_suite(path: str | Path) -> tuple[list[TaskSpec], dict]:
    """The suite's tasks, loaded from the files each entry names (relative to
    the suite file), and its thresholds, one entry per ``_THRESHOLDS`` field.
    Every file name must be non-empty; only an absent or null ``config``
    means the default configs."""
    data = _fields(read_json(path), {"tasks": (list, []), "thresholds": (_THRESHOLDS, {})}, path)
    base = Path(path).parent
    tasks = []
    for i, entry in enumerate(data["tasks"]):
        task = _fields(entry, _TASK, path, f"task {i}")
        for field in ("object", "start", "goals", "config"):
            if task[field] == "":
                raise InvalidInputError(
                    f"{_where(path, f'task {i}')}: field '{field}' must name a file, got ''")
        obj = load_object(base / task["object"])
        resolution, cost = load_configs(None if task["config"] is None else base / task["config"])
        tasks.append(TaskSpec(name=task["name"], obj=obj,
                              start=load_state(base / task["start"], obj, resolution),
                              goals=load_goals(base / task["goals"], obj),
                              resolution=resolution, cost=cost))
    return tasks, data["thresholds"]


# ---------------------------------------------------------------------------
# State / plan serialization

def region_to_dict(region: ContactRegion) -> dict:
    return {
        "face": region.face,
        "center": [float(region.x), float(region.y)],
        "orientation": float(region.orientation),
        "pad_width": float(region.pad_width),
        "pad_height": float(region.pad_height),
    }


def state_to_dict(state: GraspState) -> dict:
    return {
        "left": region_to_dict(state.left),
        "right": region_to_dict(state.right),
        "grasp_pair": state.grasp_pair,
        "support_face": state.support_face,
    }


# Plan files written before states stopped storing horizontal_axis still carry it.
_STATE = {"left": (_PAD, _REQUIRED), "right": (_PAD, _REQUIRED), "grasp_pair": (int, _REQUIRED),
          "support_face": (int, _REQUIRED), "horizontal_axis": (list, None)}


def state_from_dict(data: dict, path: str = "state", context: str = "") -> GraspState:
    """The state a dict records; ``path`` and ``context`` prefix errors.  A
    legacy ``horizontal_axis`` is accepted and dropped."""
    data = _fields(data, _STATE, path, context)
    left, right = (_pad(data[s], _where(path, f"{context} {s}".lstrip()))
                   for s in ("left", "right"))
    return GraspState(
        left=ContactRegion(left["face"], *left["center"], left["orientation"],
                           left["pad_width"], left["pad_height"]),
        right=ContactRegion(right["face"], *right["center"], right["orientation"],
                            right["pad_width"], right["pad_height"]),
        grasp_pair=data["grasp_pair"],
        support_face=data["support_face"],
    )


def action_to_dict(action: Action) -> dict:
    return {
        "kind": action.kind.name,
        "magnitude": float(action.magnitude),
        "arc_radius": float(action.arc_radius),
    }


_ACTION = {"kind": (str, _REQUIRED), "magnitude": (float, _REQUIRED), "arc_radius": (float, 0.0)}


def action_from_dict(data: dict, path: str = "action", context: str = "") -> Action:
    data = _fields(data, _ACTION, path, context)
    where = _where(path, context)
    if data["kind"] not in ActionKind.__members__:
        raise InvalidInputError(f"{where}: field 'kind' = {data['kind']!r} is not an action kind")
    try:
        return Action(ActionKind[data["kind"]], data["magnitude"], data["arc_radius"])
    except InvalidInputError as exc:  # a magnitude or arc radius out of range
        raise InvalidInputError(f"{where}: {exc}") from exc


def plan_to_dict(plan_: Plan) -> dict:
    return {
        "status": plan_.status,
        "actions": [action_to_dict(a) for a in plan_.actions],
        "states": [state_to_dict(s) for s in plan_.states],
        "step_costs": [float(c) for c in plan_.step_costs],
        "total_action_cost": float(plan_.total_action_cost),
        "terminal_outside_area": float(plan_.terminal_outside_area),
        "objective": float(plan_.objective),
        "tradeoff_weight": float(plan_.tradeoff_weight),
        "expansions": plan_.expansions,
    }


_PLAN_STATUSES = ("exact-goal", "best-effort")  # the statuses planner.plan returns
_PLAN = {"status": (str, _REQUIRED), "actions": (list, _REQUIRED), "states": (list, _REQUIRED),
         "step_costs": (list, _REQUIRED), "total_action_cost": (float, _REQUIRED),
         "terminal_outside_area": (float, _REQUIRED), "objective": (float, _REQUIRED),
         "tradeoff_weight": (float, _REQUIRED), "expansions": (int, 0)}


def plan_from_dict(data: dict, where: str = "plan") -> Plan:
    """The plan a dict records; ``where`` prefixes errors.

    A plan must agree with itself, or CorruptedPlanError names the field: a
    status ``plan()`` returns, one more state than actions, one non-negative
    step cost per action, a non-negative expansion count, outside area and
    tradeoff weight (``plan()`` writes no negative one), ``total_action_cost``
    the ``math.fsum`` of the step costs, and ``objective`` equal to
    ``terminal_outside_area + tradeoff_weight * total_action_cost``.  Floats
    round-trip exactly through JSON, so both equalities are exact.
    """
    data = _fields(data, _PLAN, where)  # one field per Plan field
    plan_ = Plan(**dict(
        data,
        actions=[action_from_dict(a, where, f"action {i}") for i, a in enumerate(data["actions"])],
        states=[state_from_dict(s, where, f"state {i}") for i, s in enumerate(data["states"])],
        step_costs=_numbers(data["step_costs"], "step_costs", where),
    ))
    n = len(plan_.actions)
    for field, count, expected in (("states", len(plan_.states), n + 1),
                                   ("step_costs", len(plan_.step_costs), n)):
        if count != expected:
            raise CorruptedPlanError(
                f"{where}: field '{field}' holds {count} entries for {n} actions, not {expected}")
    if plan_.status not in _PLAN_STATUSES:
        raise CorruptedPlanError(
            f"{where}: field 'status' = {plan_.status!r} is not one of {_PLAN_STATUSES}")
    for field in ("expansions", "terminal_outside_area", "tradeoff_weight"):
        if getattr(plan_, field) < 0:
            raise CorruptedPlanError(
                f"{where}: field '{field}' = {getattr(plan_, field)!r} is negative")
    if any(c < 0.0 for c in plan_.step_costs):
        raise CorruptedPlanError(f"{where}: field 'step_costs' holds a negative cost")
    total = math.fsum(plan_.step_costs)
    if plan_.total_action_cost != total:
        raise CorruptedPlanError(
            f"{where}: field 'total_action_cost' = {plan_.total_action_cost!r} is not the sum "
            f"of the step costs, {total!r}")
    objective = plan_.terminal_outside_area + plan_.tradeoff_weight * plan_.total_action_cost
    if plan_.objective != objective:
        raise CorruptedPlanError(
            f"{where}: field 'objective' = {plan_.objective!r} is not terminal_outside_area + "
            f"tradeoff_weight * total_action_cost = {objective!r}")
    return plan_


def save_plan(plan_: Plan, path: str | Path) -> None:
    dump_json(plan_to_dict(plan_), path)


def load_plan(path: str | Path) -> Plan:
    return plan_from_dict(read_json(path), str(path))


# ---------------------------------------------------------------------------
# Trajectories and debug rendering

def write_trajectory_csv(waypoints: list[Waypoint], path: str | Path) -> None:
    lines = ["step,x,y,z,qw,qx,qy,qz"]
    for wp in waypoints:
        x, y, z = (float(v) for v in wp.pose.translation)
        qw, qx, qy, qz = rotation_to_quaternion(wp.pose.rotation)
        lines.append(f"{wp.index},{x!r},{y!r},{z!r},{qw!r},{qx!r},{qy!r},{qz!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def render_unfold_svg(obj: ObjectModel, umap: UnfoldedMap,
                      goals: list[GoalRegion] | None, path: str | Path) -> None:
    """Write the unfolded face layout (plus goal images) as a simple SVG."""
    polys = [(fid, umap.to_plane(fid, obj.face(fid).polygon.vertices))
             for fid in sorted(umap.placements)]
    all_pts = np.concatenate([pts for _, pts in polys])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = float(max(hi - lo)) or 1.0
    scale = 720.0 / span
    margin = 24.0

    def svg_pts(pts: np.ndarray) -> str:
        mapped = (pts - lo) * scale + margin
        # SVG y grows downward; flip to keep the layout upright.
        height = (hi - lo)[1] * scale + 2 * margin
        return " ".join(f"{p[0]:.2f},{height - p[1]:.2f}" for p in mapped)

    width = (hi - lo)[0] * scale + 2 * margin
    height = (hi - lo)[1] * scale + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">'
    ]
    for fid, pts in polys:
        style = "fill:#dfe8f5;stroke:#44506b;stroke-width:1.5"
        if fid == umap.base_face:
            style = "fill:#f5e6c8;stroke:#8a6d1f;stroke-width:2"
        parts.append(f'<polygon points="{svg_pts(pts)}" style="{style}" />')
        center = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
        mapped = (center - lo) * scale + margin
        parts.append(
            f'<text x="{mapped[0]:.1f}" y="{height - mapped[1]:.1f}" '
            f'font-size="14" text-anchor="middle">{fid}</text>')
    for goal in goals or []:
        pts = umap.to_plane(goal.face, goal.polygon.vertices)
        parts.append(
            f'<polygon points="{svg_pts(pts)}" '
            'style="fill:#9fd0a0;fill-opacity:0.7;stroke:#22662a;stroke-width:1.5" />')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
