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
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, WihmplanError
from .geometry import RigidTransform3
from .transition import ActionKind, pivot_lever

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


# Float kernel: a rigid transform as a 3x4 affine matrix, 12 Python floats in
# row-major order: the rotation rows r00..r22, then the translation t0..t2.
# Every pose here is composed on it; only returned poses become
# RigidTransform3s (``_pose``).
_IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def _mul(p: tuple, q: tuple) -> tuple:
    """The affine product p * q."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, ax, ay, az = p
    b0, b1, b2, b3, b4, b5, b6, b7, b8, bx, by, bz = q
    return (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
            a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
            a0 * bx + a1 * by + a2 * bz + ax, a3 * bx + a4 * by + a5 * bz + ay,
            a6 * bx + a7 * by + a8 * bz + az)


def _inv(p: tuple) -> tuple:
    """The inverse of a rigid p: the transposed rotation, -R^T t."""
    r0, r1, r2, r3, r4, r5, r6, r7, r8, x, y, z = p
    return (r0, r3, r6, r1, r4, r7, r2, r5, r8,
            -(r0 * x + r3 * y + r6 * z), -(r1 * x + r4 * y + r7 * z), -(r2 * x + r5 * y + r8 * z))


def _dh(theta: float, d: float, a: float, alpha: float) -> tuple:
    """RotZ(theta) * TransZ(d) * TransX(a) * RotX(alpha)."""
    ct, st = math.cos(theta), math.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return (ct, -st * ca, st * sa, st, ct * ca, -ct * sa, 0.0, sa, ca, a * ct, a * st, d)


def _rz(phi: float) -> tuple:
    """A rotation by phi about z."""
    c, s = math.cos(phi), math.sin(phi)
    return (c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def _product(rows) -> tuple:
    out = _IDENTITY
    for row in rows:
        out = _mul(out, _dh(row.theta, row.d, row.a, row.alpha))
    return out


def _ee_to_pivot(chain: PivotChain) -> tuple:
    return _product(chain_rows(chain)[:4])


def _floats(pose: RigidTransform3) -> tuple:
    return tuple(pose.rotation.ravel().tolist() + pose.translation.tolist())


def _pose(m: tuple) -> RigidTransform3:
    """A kernel transform as a RigidTransform3; the kernel only composes
    rigid transforms, so the constructor's orthonormality check is skipped."""
    arr = np.array(m)
    return RigidTransform3._unchecked(arr[:9].reshape(3, 3), arr[9:])


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise InvalidInputError("steps must be >= 1")


def _check_stage(sweep: float, steps: int) -> None:
    _check_steps(steps)
    if not math.isfinite(sweep):
        raise InvalidInputError("sweep must be finite")


def _stage_poses(chain: PivotChain, stage: int, sweep: float, steps: int,
                 anchor: tuple) -> list[tuple]:
    """The kernel poses of ``pivot_trajectory``."""
    if stage == 1:
        base = _inv(_ee_to_pivot(chain))
        return [_mul(_mul(anchor, _rz(-sweep * k / steps)), base) for k in range(steps + 1)]
    # ee_to_pivot^-1 = A3^-1 * A2(theta_contact)^-1 * (A0 * A1)^-1, and only A2 moves.
    rows = chain_rows(chain)
    tail = _mul(anchor, _inv(_product(rows[3:4])))
    head = _inv(_product(rows[:2]))
    contact = rows[2]
    return [_mul(_mul(tail, _inv(_dh(contact.theta + sweep * (k / steps), contact.d,
                                     contact.a, contact.alpha))), head)
            for k in range(steps + 1)]


def _waypoints(poses: list[tuple]) -> list[Waypoint]:
    return [Waypoint(k, _pose(m)) for k, m in enumerate(poses)]


def dh_transform(row: DHRow) -> RigidTransform3:
    """RotZ(theta) * TransZ(d) * TransX(a) * RotX(alpha) as a rigid transform."""
    return _pose(_dh(row.theta, row.d, row.a, row.alpha))


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
    return _pose(_product(chain_rows(chain)))


def ee_to_pivot(chain: PivotChain) -> RigidTransform3:
    """End-effector to support-edge frame (the chain without the last spin)."""
    return _pose(_ee_to_pivot(chain))


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
    _check_stage(sweep, steps)
    anchor = _IDENTITY if world_pivot is None else _floats(world_pivot)
    return _waypoints(_stage_poses(chain, stage, sweep, steps, anchor))


def full_pivot_trajectory(chain: PivotChain, total_angle: float, steps_per_stage: int,
                          world_pivot: RigidTransform3 | None = None) -> list[Waypoint]:
    """Both stages stitched continuously: half the tip rigid, half as the arch."""
    half = total_angle / 2.0
    _check_stage(half, steps_per_stage)
    anchor = _IDENTITY if world_pivot is None else _floats(world_pivot)
    stage1 = _stage_poses(chain, 1, half, steps_per_stage, anchor)
    stage2 = _stage_poses(chain, 2, half, steps_per_stage, _mul(anchor, _rz(-half)))
    # The first stage-2 pose equals the stage-1 terminal pose.
    return _waypoints(stage1 + stage2[1:])


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
    _check_steps(steps_per_stage)
    current = _IDENTITY
    out: list[Waypoint] = [Waypoint(0, _pose(current))]
    for action, state in zip(plan_.actions, plan_.states[:-1]):
        if action.kind in (ActionKind.MOVE_CONTACT_UP, ActionKind.MOVE_CONTACT_DOWN):
            direction = "up" if action.kind == ActionKind.MOVE_CONTACT_UP else "down"
            delta = contact_shift_displacement(direction, action.magnitude).tolist()
            current = current[:9] + tuple(t + d for t, d in zip(current[9:], delta))
            out.append(Waypoint(len(out), _pose(current)))
        elif action.kind == ActionKind.PIVOT:
            d4 = pivot_lever(state, obj)
            if d4 is None:
                raise WihmplanError("plan contains a pivot that is infeasible in its state")
            pivot_chain = PivotChain(
                d1=chain.d1, theta_finger=chain.theta_finger, d2=chain.d2,
                d3=chain.d3, d4=d4, theta_contact=chain.theta_contact,
                theta_pivot=action.magnitude)
            anchor = _mul(current, _ee_to_pivot(pivot_chain))
            for wp in full_pivot_trajectory(pivot_chain, action.magnitude,
                                            steps_per_stage, world_pivot=_pose(anchor))[1:]:
                out.append(Waypoint(len(out), wp.pose))
            current = _floats(out[-1].pose)
    return out


def rotation_to_quaternion(rot: np.ndarray) -> tuple[float, float, float, float]:
    """Unit quaternion (w, x, y, z) with w >= 0 for a rotation matrix, as
    Python floats."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.asarray(rot, dtype=float).tolist()
    tr = m00 + m11 + m22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        w = 0.25 * s
        x = (m21 - m12) / s
        y = (m02 - m20) / s
        z = (m10 - m01) / s
    elif m00 > m11 and m00 > m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        w = (m21 - m12) / s
        x = 0.25 * s
        y = (m01 + m10) / s
        z = (m02 + m20) / s
    elif m11 > m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        w = (m02 - m20) / s
        x = (m01 + m10) / s
        y = 0.25 * s
        z = (m12 + m21) / s
    else:
        s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
        w = (m10 - m01) / s
        x = (m02 + m20) / s
        y = (m12 + m21) / s
        z = 0.25 * s
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    quat = (w / norm, x / norm, y / norm, z / norm)
    if quat[0] < 0.0:
        quat = tuple(-q for q in quat)
    return quat
