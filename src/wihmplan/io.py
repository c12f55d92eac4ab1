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


_REQUIRED = object()


def json_field(data, field: str, where, default=_REQUIRED):
    """``data[field]``, or ``default`` when the field is missing and has one.

    Anything but a JSON object as ``data``, or a missing field without a
    default, raises InvalidInputError naming ``where`` and the field.
    """
    if not isinstance(data, dict):
        raise InvalidInputError(
            f"{where}: expected a JSON object with field '{field}', got {data!r}")
    if field in data:
        return data[field]
    if default is _REQUIRED:
        raise InvalidInputError(f"{where}: missing required field '{field}'")
    return default


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


def json_list(value, field: str, where) -> list:
    """value if it is a JSON list, else InvalidInputError naming where and the field."""
    if not isinstance(value, list):
        raise InvalidInputError(f"{where}: field '{field}' must be a list, got {value!r}")
    return value


def _numbers(value, field: str, where, depth: int = 1) -> list:
    """A JSON list of numbers (depth 1) or of number lists (depth 2), each read by _number."""
    json_list(value, field, where)
    if depth == 1:
        return [_number(v, field, where) for v in value]
    return [_numbers(v, field, where, depth - 1) for v in value]


def _center(data, where) -> list[float]:
    """The entry's field 'center': exactly 2 numbers."""
    xy = _numbers(json_field(data, "center", where), "center", where)
    if len(xy) != 2:
        raise InvalidInputError(f"{where}: field 'center' must hold 2 numbers, got {xy!r}")
    return xy


def _pad_size(value, field: str, where) -> float:
    size = _number(value, field, where)
    if size <= 0.0:
        raise InvalidInputError(f"{where}: field '{field}' must be positive, got {size!r}")
    return size


def dump_json(payload, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_object(path: str | Path) -> ObjectModel:
    data = read_json(path)
    name = str(json_field(data, "name", path, Path(path).stem))
    units = json_field(data, "units", path, "m")
    if units != "m":
        raise InvalidInputError(f"{path}: field 'units' must be 'm', got {units!r}")
    try:
        cross_section = ConvexPolygon2(
            _numbers(json_field(data, "cross_section", path), "cross_section", path, depth=2))
    except InvalidGeometryError as exc:
        raise InvalidInputError(f"{path}: field 'cross_section' invalid: {exc}")
    height = _number(json_field(data, "height", path), "height", path)
    try:
        return build_prism(cross_section, height, name=name)
    except WihmplanError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_goals(path: str | Path, obj: ObjectModel) -> list[GoalRegion]:
    data = read_json(path)
    if not isinstance(data, list) or not data:
        raise InvalidInputError(f"{path}: expected a non-empty list of goal regions")
    goals = []
    for i, entry in enumerate(data):
        where = f"{path}: goal {i}"
        face = _number(json_field(entry, "face", where), "face", where, int)
        if face < 0 or face >= len(obj.faces):
            raise InvalidInputError(f"{path}: goal {i} field 'face' = {face} does not exist")
        try:
            poly = ConvexPolygon2(_numbers(json_field(entry, "polygon", where), "polygon", where,
                                           depth=2))
        except InvalidGeometryError as exc:
            raise InvalidInputError(f"{path}: goal {i} field 'polygon' invalid: {exc}")
        for v in poly.vertices:
            if not obj.face(face).polygon.contains_point(v, tol=1e-6):
                raise InvalidInputError(
                    f"{path}: goal {i} polygon leaves face {face}")
        goals.append(GoalRegion(face, poly))
    return goals


def load_state(path: str | Path, obj: ObjectModel, resolution: ResolutionConfig) -> GraspState:
    data = read_json(path)
    sides = {}
    for side in ("left", "right"):
        entry = json_field(data, side, path)
        where = f"{path}: {side}"
        face = _number(json_field(entry, "face", where), "face", where, int)
        orientation = json_field(entry, "orientation", where, None)
        sides[side] = {
            "face": face,
            "center": _center(entry, where),
            "orientation": None if orientation is None else _number(orientation, "orientation",
                                                                    where),
            "pad_width": _pad_size(json_field(entry, "pad_width", where, resolution.pad_width),
                                   "pad_width", where),
            "pad_height": _pad_size(json_field(entry, "pad_height", where, resolution.pad_height),
                                    "pad_height", where),
        }
    support = _number(json_field(data, "support_face", path), "support_face", path, int)
    if sides["left"]["pad_width"] != sides["right"]["pad_width"] or \
            sides["left"]["pad_height"] != sides["right"]["pad_height"]:
        raise InvalidInputError(f"{path}: left/right pad dimensions must match")
    try:
        return GraspState.create(
            obj,
            left_face=sides["left"]["face"],
            right_face=sides["right"]["face"],
            support_face=support,
            left_center=sides["left"]["center"],
            right_center=sides["right"]["center"],
            pad_width=sides["left"]["pad_width"],
            pad_height=sides["left"]["pad_height"],
            left_orientation=sides["left"]["orientation"],
            right_orientation=sides["right"]["orientation"],
        )
    except WihmplanError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _config(cls, data: dict, section: str, path):
    """The file's config section as a validated cls.  A field whose default is an
    int is read as an int, any other as a float; one whose default is None may be null."""
    fields = json_field(data, section, path, {})
    if not isinstance(fields, dict):
        raise InvalidInputError(f"{path}: field '{section}' must be a JSON object, got {fields!r}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    values = {}
    for key, value in fields.items():
        if key not in defaults:
            raise InvalidInputError(f"{path}: unknown {section} field '{key}'")
        if not (value is None and defaults[key] is None):
            kind = int if isinstance(defaults[key], int) else float
            value = _number(value, key, f"{path}: {section}", kind)
        values[key] = value
    cfg = cls(**values)
    try:
        cfg.validate()
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
    return cfg


def load_configs(path: str | Path | None) -> tuple[ResolutionConfig, CostConfig]:
    """The resolution and cost configs a file overrides, each validated."""
    if path is None:
        return ResolutionConfig(), CostConfig()
    data = read_json(path)
    return (_config(ResolutionConfig, data, "resolution", path),
            _config(CostConfig, data, "cost", path))


def load_chain(path: str | Path) -> PivotChain:
    data = read_json(path)
    kwargs = {}
    for name in ("d1", "theta_finger", "d2", "d3"):
        kwargs[name] = _number(json_field(data, name, path), name, path)
    # d4 (contact-to-edge distance) is normally derived from the plan state
    for name in ("d4", "theta_contact", "theta_pivot"):
        kwargs[name] = _number(json_field(data, name, path, 0.0), name, path)
    try:
        return PivotChain(**kwargs)
    except WihmplanError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


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


def region_from_dict(data: dict, where: str = "region") -> ContactRegion:
    x, y = _center(data, where)
    return ContactRegion(
        face=_number(json_field(data, "face", where), "face", where, int),
        x=x,
        y=y,
        orientation=_number(json_field(data, "orientation", where), "orientation", where),
        pad_width=_pad_size(json_field(data, "pad_width", where), "pad_width", where),
        pad_height=_pad_size(json_field(data, "pad_height", where), "pad_height", where),
    )


def state_from_dict(data: dict, where: str = "state") -> GraspState:
    """The state a dict records; ``where`` prefixes errors.  Plan files written
    before states stopped storing ``horizontal_axis`` still carry it; it is ignored."""
    return GraspState(
        left=region_from_dict(json_field(data, "left", where), f"{where} left"),
        right=region_from_dict(json_field(data, "right", where), f"{where} right"),
        grasp_pair=_number(json_field(data, "grasp_pair", where), "grasp_pair", where, int),
        support_face=_number(json_field(data, "support_face", where), "support_face", where, int),
    )


def action_to_dict(action: Action) -> dict:
    return {
        "kind": action.kind.name,
        "magnitude": float(action.magnitude),
        "arc_radius": float(action.arc_radius),
    }


def action_from_dict(data: dict, where: str = "action") -> Action:
    kind = str(json_field(data, "kind", where))
    if kind not in ActionKind.__members__:
        raise InvalidInputError(f"{where}: field 'kind' = {kind!r} is not an action kind")
    magnitude = _number(json_field(data, "magnitude", where), "magnitude", where)
    arc_radius = _number(json_field(data, "arc_radius", where, 0.0), "arc_radius", where)
    try:
        return Action(ActionKind[kind], magnitude, arc_radius)
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


def plan_from_dict(data: dict, where: str = "plan") -> Plan:
    """The plan a dict records; ``where`` prefixes errors.

    A plan must agree with itself, or CorruptedPlanError names the field: a
    status ``plan()`` returns, one more state than actions, one non-negative
    step cost per action, a non-negative expansion count, ``total_action_cost``
    the ``math.fsum`` of the step costs, and ``objective`` equal to
    ``terminal_outside_area + tradeoff_weight * total_action_cost``.  Floats
    round-trip exactly through JSON, so both equalities are exact.
    """
    actions, states = (json_list(json_field(data, field, where), field, where)
                       for field in ("actions", "states"))
    plan_ = Plan(
        actions=[action_from_dict(a, f"{where}: action {i}") for i, a in enumerate(actions)],
        states=[state_from_dict(s, f"{where}: state {i}") for i, s in enumerate(states)],
        step_costs=_numbers(json_field(data, "step_costs", where), "step_costs", where),
        total_action_cost=_number(json_field(data, "total_action_cost", where),
                                  "total_action_cost", where),
        terminal_outside_area=_number(json_field(data, "terminal_outside_area", where),
                                      "terminal_outside_area", where),
        objective=_number(json_field(data, "objective", where), "objective", where),
        status=str(json_field(data, "status", where)),
        tradeoff_weight=_number(json_field(data, "tradeoff_weight", where), "tradeoff_weight",
                                where),
        expansions=_number(json_field(data, "expansions", where, 0), "expansions", where, int),
    )
    n = len(plan_.actions)
    for field, count, expected in (("states", len(plan_.states), n + 1),
                                   ("step_costs", len(plan_.step_costs), n)):
        if count != expected:
            raise CorruptedPlanError(
                f"{where}: field '{field}' holds {count} entries for {n} actions, not {expected}")
    if plan_.status not in _PLAN_STATUSES:
        raise CorruptedPlanError(
            f"{where}: field 'status' = {plan_.status!r} is not one of {_PLAN_STATUSES}")
    if plan_.expansions < 0:
        raise CorruptedPlanError(
            f"{where}: field 'expansions' = {plan_.expansions} is negative")
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
