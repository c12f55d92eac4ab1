"""Forward kinematics of the arm-gripper-object chain, pivot trajectories, and
the end-effector waypoints of a whole plan.

The chain models the grip and the table contact as virtual revolute joints:
end-effector -> palm (fixed mount offset) -> finger -> finger/object contact
-> support-edge pivot -> object.  Classic (distal) Denavit-Hartenberg
convention: T = RotZ(theta) * TransZ(d) * TransX(a) * RotX(alpha).

During a pivot the finger parameters (theta_finger, d2..d4) stay constant;
only the two virtual joint angles vary.  Stage 1 transports the gripped
object rigidly around the support edge; stage 2 keeps the edge planted and
arcs the end-effector about the finger contact while the object settles
flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, WihmplanError
from .geometry import RigidTransform3
from .transition import ActionKind, find_pivot_edge, world_context

_MOUNT_ANGLE = 3.0 * math.pi / 4.0  # fixed palm yaw relative to the arm flange


@dataclass(frozen=True)
class DHRow:
    """One Denavit-Hartenberg step: rotation theta/twist alpha, offsets d/a."""

    theta: float
    d: float
    a: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("theta", "d", "a", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"DH parameter {name} must be finite")


@dataclass(frozen=True)
class PivotChain:
    """Joint values and link lengths for one pivot execution.

    d1 is the fixed arm-to-palm offset; d2..d4 and theta_finger come from
    the grasp geometry (finger reach, contact location, and contact-to-edge
    distance); theta_contact and theta_pivot are the virtual joint angles.
    """

    d1: float
    theta_finger: float
    d2: float
    d3: float
    d4: float
    theta_contact: float = 0.0
    theta_pivot: float = 0.0

    def __post_init__(self) -> None:
        for name in ("d1", "theta_finger", "d2", "d3", "d4", "theta_contact", "theta_pivot"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidInputError(f"chain parameter {name} must be finite")
        for name in ("d1", "d2", "d3", "d4"):
            if getattr(self, name) < 0.0:
                raise InvalidInputError(f"chain length {name} must be non-negative")


@dataclass(frozen=True)
class Waypoint:
    """One time-indexed end-effector pose in the world frame."""

    index: int
    pose: RigidTransform3


def dh_transform(row: DHRow) -> RigidTransform3:
    """RotZ(theta) * TransZ(d) * TransX(a) * RotX(alpha) as a rigid transform."""
    ct, st = math.cos(row.theta), math.sin(row.theta)
    ca, sa = math.cos(row.alpha), math.sin(row.alpha)
    rot = np.array([
        [ct, -st * ca, st * sa],
        [st, ct * ca, -ct * sa],
        [0.0, sa, ca],
    ])
    trans = np.array([row.a * ct, row.a * st, row.d])
    return RigidTransform3(rot, trans)


def chain_rows(chain: PivotChain) -> list[DHRow]:
    """The five DH rows for the end-effector-to-object chain."""
    return [
        DHRow(_MOUNT_ANGLE, chain.d1, 0.0, math.pi / 2.0),
        DHRow(chain.theta_finger, 0.0, chain.d2, math.pi / 2.0),
        DHRow(chain.theta_contact - math.pi / 2.0, 0.0, chain.d3, 0.0),
        DHRow(-math.pi / 2.0, 0.0, chain.d4, math.pi),
        DHRow(chain.theta_pivot, 0.0, 0.0, 0.0),
    ]


def chain_forward(chain: PivotChain) -> RigidTransform3:
    """End-effector to object-frame transform (product of all five DH steps)."""
    out = RigidTransform3.identity()
    for row in chain_rows(chain):
        out = out @ dh_transform(row)
    return out


def ee_to_pivot(chain: PivotChain) -> RigidTransform3:
    """End-effector to support-edge frame (the chain without the last spin)."""
    out = RigidTransform3.identity()
    for row in chain_rows(chain)[:4]:
        out = out @ dh_transform(row)
    return out


def pivot_trajectory(chain: PivotChain, stage: int, sweep: float, steps: int,
                     world_pivot: RigidTransform3 | None = None) -> list[Waypoint]:
    """End-effector waypoints for one pivot stage about a fixed support edge.

    The support-edge frame's position and axis stay fixed in the world for
    every waypoint.  Stage 1 holds theta_contact and rigidly arcs the whole
    gripper+object assembly, draining the tilt by `sweep`.  Stage 2 holds
    the edge frame entirely fixed while theta_pivot interpolates from
    `sweep` down to 0 (object flat) and theta_contact advances by `sweep`,
    producing the end-effector arch about the finger contact.
    """
    if stage not in (1, 2):
        raise InvalidInputError("stage must be 1 or 2")
    if steps < 1:
        raise InvalidInputError("steps must be >= 1")
    if not math.isfinite(sweep):
        raise InvalidInputError("sweep must be finite")
    anchor = world_pivot if world_pivot is not None else RigidTransform3.identity()
    waypoints: list[Waypoint] = []
    if stage == 1:
        base = ee_to_pivot(chain).inverse()
        for k in range(steps + 1):
            phi = -sweep * k / steps
            pose = anchor @ RigidTransform3.rot_z(phi) @ base
            waypoints.append(Waypoint(k, pose))
    else:
        for k in range(steps + 1):
            t = k / steps
            theta_contact = chain.theta_contact + sweep * t
            theta_pivot = sweep * (1.0 - t)
            stepped = replace(chain, theta_contact=theta_contact, theta_pivot=theta_pivot)
            pose = anchor @ ee_to_pivot(stepped).inverse()
            waypoints.append(Waypoint(k, pose))
    return waypoints


def full_pivot_trajectory(chain: PivotChain, total_angle: float, steps_per_stage: int,
                          world_pivot: RigidTransform3 | None = None) -> list[Waypoint]:
    """Both stages stitched continuously: half the tip rigid, half as the arch."""
    anchor = world_pivot if world_pivot is not None else RigidTransform3.identity()
    half = total_angle / 2.0
    stage1 = pivot_trajectory(chain, 1, half, steps_per_stage, anchor)
    anchor2 = anchor @ RigidTransform3.rot_z(-half)
    stage2 = pivot_trajectory(replace(chain, theta_pivot=half), 2, half,
                              steps_per_stage, anchor2)
    out = list(stage1)
    for wp in stage2[1:]:  # first stage-2 pose equals the stage-1 terminal pose
        out.append(Waypoint(len(out), wp.pose))
    return [Waypoint(i, wp.pose) for i, wp in enumerate(out)]


def contact_shift_displacement(direction: str, dz: float) -> np.ndarray:
    """World-frame end-effector translation for a contact up/down shift."""
    if dz <= 0.0:
        raise InvalidInputError("shift distance must be positive")
    if direction == "up":
        return np.array([0.0, 0.0, dz])
    if direction == "down":
        return np.array([0.0, 0.0, -dz])
    raise InvalidInputError(f"direction must be 'up' or 'down', got {direction!r}")


def plan_waypoints(plan_, obj, chain: PivotChain, steps_per_stage: int = 25) -> list[Waypoint]:
    """Concatenated end-effector waypoints for every pivot/shift in a plan.

    Slides and in-hand rotations are finger-internal and emit no arm motion.
    The pose chain starts at the identity and stays continuous across
    actions.
    """
    current = RigidTransform3.identity()
    out: list[Waypoint] = [Waypoint(0, current)]
    for action, state in zip(plan_.actions, plan_.states[:-1]):
        if action.kind in (ActionKind.MOVE_CONTACT_UP, ActionKind.MOVE_CONTACT_DOWN):
            direction = "up" if action.kind == ActionKind.MOVE_CONTACT_UP else "down"
            delta = contact_shift_displacement(direction, action.magnitude)
            current = RigidTransform3(current.rotation, current.translation + delta)
            out.append(Waypoint(len(out), current))
        elif action.kind == ActionKind.PIVOT:
            info = find_pivot_edge(state, obj)
            if info is None:
                raise WihmplanError("plan contains a pivot that is infeasible in its state")
            ctx = world_context(state, obj)
            d4 = math.hypot(ctx.left_center_world[1] - info.edge_point_world[1],
                            ctx.left_center_world[2] - info.edge_point_world[2])
            pivot_chain = PivotChain(
                d1=chain.d1, theta_finger=chain.theta_finger, d2=chain.d2,
                d3=chain.d3, d4=d4, theta_contact=chain.theta_contact,
                theta_pivot=action.magnitude)
            anchor = current @ ee_to_pivot(pivot_chain)
            for wp in full_pivot_trajectory(pivot_chain, action.magnitude,
                                            steps_per_stage, world_pivot=anchor)[1:]:
                out.append(Waypoint(len(out), wp.pose))
            current = out[-1].pose
    return out


def rotation_to_quaternion(rot: np.ndarray) -> tuple[float, float, float, float]:
    """Unit quaternion (w, x, y, z) with w >= 0 for a rotation matrix."""
    m = np.asarray(rot, dtype=float)
    tr = float(np.trace(m))
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    quat = (w / norm, x / norm, y / norm, z / norm)
    if quat[0] < 0.0:
        quat = tuple(-q for q in quat)
    return quat
