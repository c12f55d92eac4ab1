"""Grasp-contact states, the 9-action space, feasibility, and transitions.

State convention
----------------
The object pose is tracked relative to the hand and table, not as a full
world pose.  A state pins down the world orientation implicitly:

* the support face's outward normal points straight down (world -z),
* the left contact face's outward normal points toward the left finger
  (world -x), so the grasp squeeze axis is world x,
* world y is then the in-grasp-plane horizontal direction.

Slides translate one finger's contact along the face direction that is
currently horizontal (one finger grips while the other lets the object
slip).  Contact up/down shifts move both contacts along the gravity-aligned
face direction: up rides gravity while the support holds the object, down
is a push against the support surface.  In-hand rotation spins the object
about the vertical axis through the grasp centroid onto the next parallel
face pair, with the world-fixed finger pads re-expressed in the new faces'
frames.  A pivot tips the object over a support-face edge parallel to the
squeeze axis: contact centers stay put on their faces while the pad
orientation rotates in-face by the tipping angle.

A grasp mode is the triple (support face, left face, right face).  The
object pose, the slide and shift axes, the grasp width, and where a rotation
or pivot takes the gripped faces depend on the mode alone.  The mode table
(``_Mode``, one entry per mode in ``ObjectModel.scratch``, built on first use)
holds them, so each primitive is a few float operations on the pad centres
and orientations.  Search (``successors``) and replay (``transition``) run the
same per-mode kernels; only search applies the ResolutionConfig limits.

A pad fits on its face when its centre lies inside the face shrunk by the
rotated pad, with half-planes computed once per face, orientation and pad
size.  These round differently from testing the pad's corners, by a few ulps
of the face coordinates, so a centre margin within ``_GUARD`` of the
``-FEAS_TOL`` threshold is decided by the corner test: the verdicts agree.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    InfeasibleActionError,
    InvalidInputError,
    InvalidModelError,
    InvalidStateError,
)
from .geometry import (
    _GUARD,
    FEAS_TOL,
    GEOM_TOL,
    ConvexPolygon2,
    ObjectModel,
    convex_intersection,
    polygon_area,
)

_WORLD_DOWN = np.array([0.0, 0.0, -1.0])
_WORLD_UP = np.array([0.0, 0.0, 1.0])
_LEFT_NORMAL = np.array([-1.0, 0.0, 0.0])  # world direction of the left face's outward normal


class ActionKind(enum.IntEnum):
    """The 9 manipulation primitives, in canonical (deterministic) order.

    The rotation labels follow the convention that ROTATE_CCW advances the
    grasp onto the next parallel pair in ascending face order (for the
    counterclockwise-ordered cross-sections built by build_prism).
    """

    SLIDE_LEFT_UP = 0
    SLIDE_LEFT_DOWN = 1
    SLIDE_RIGHT_UP = 2
    SLIDE_RIGHT_DOWN = 3
    ROTATE_CW = 4
    ROTATE_CCW = 5
    MOVE_CONTACT_UP = 6
    MOVE_CONTACT_DOWN = 7
    PIVOT = 8


@dataclass(frozen=True)
class Action:
    """One primitive with its step size (m for slides/moves, rad otherwise).

    arc_radius is the effective lever arm (half the grasp width) used to
    convert rotation/pivot angles into arc-length costs; it is 0 for
    translational primitives.
    """

    kind: ActionKind
    magnitude: float
    arc_radius: float = 0.0

    def __post_init__(self) -> None:
        if not (self.magnitude > 0.0 and math.isfinite(self.magnitude)):
            raise InvalidInputError("action magnitude must be positive and finite")


@dataclass(frozen=True)
class ContactRegion:
    """A finger pad's rectangular footprint on one face, in face-local coords."""

    face: int
    center: np.ndarray
    orientation: float
    pad_width: float
    pad_height: float

    def __post_init__(self) -> None:
        c = self.center
        if not (isinstance(c, np.ndarray) and c.shape == (2,)):
            c = np.asarray(c, dtype=float)
            if c.shape != (2,):
                raise InvalidStateError("contact center must be a 2-vector")
            object.__setattr__(self, "center", c)
        if not (math.isfinite(c[0]) and math.isfinite(c[1])):
            raise InvalidStateError("contact center must be finite")
        if self.pad_width <= 0.0 or self.pad_height <= 0.0:
            raise InvalidStateError("pad dimensions must be positive")

    def corners(self) -> np.ndarray:
        """The rectangle's 4 vertices, counterclockwise in the face frame."""
        cached = getattr(self, "_corners", None)
        if cached is None:
            hw, hh = self.pad_width / 2.0, self.pad_height / 2.0
            local = np.array([[-hw, -hh], [hw, -hh], [hw, hh], [-hw, hh]])
            c, s = math.cos(self.orientation), math.sin(self.orientation)
            rot = np.array([[c, s], [-s, c]])  # transposed, for the right-multiply below
            cached = local @ rot + self.center
            cached.setflags(write=False)
            object.__setattr__(self, "_corners", cached)
        return cached

    def polygon(self) -> ConvexPolygon2:
        return ConvexPolygon2(self.corners())

    def area(self) -> float:
        return self.pad_width * self.pad_height


@dataclass(frozen=True)
class GraspState:
    """Both finger contacts plus which faces are gripped and rested on."""

    left: ContactRegion
    right: ContactRegion
    grasp_pair: int
    support_face: int
    horizontal_axis: np.ndarray  # world-horizontal direction in the left face frame

    def __post_init__(self) -> None:
        h = self.horizontal_axis
        if not (isinstance(h, np.ndarray) and h.shape == (2,)):
            h = np.asarray(h, dtype=float)
            if h.shape != (2,):
                raise InvalidStateError("horizontal_axis must be a 2-vector")
            object.__setattr__(self, "horizontal_axis", h)
        if abs(math.sqrt(float(h[0]) ** 2 + float(h[1]) ** 2) - 1.0) > FEAS_TOL:
            raise InvalidStateError("horizontal_axis must be unit length")

    def validate(self, obj: ObjectModel) -> None:
        pair = obj.parallel_pairs[self.grasp_pair]
        if {self.left.face, self.right.face} != set(pair):
            raise InvalidStateError(
                f"contact faces {self.left.face}/{self.right.face} do not form pair {pair}")
        if self.support_face in pair:
            raise InvalidStateError("support face cannot be a gripped face")
        horiz = _face_axes(_object_rotation(obj, self.support_face, self.left.face), obj,
                           self.left.face)[0]
        if np.max(np.abs(horiz - self.horizontal_axis)) > FEAS_TOL:
            raise InvalidStateError("horizontal_axis is inconsistent with the support face")
        for region in (self.left, self.right):
            if not _corners_inside(obj, region):
                raise InvalidStateError(
                    f"contact rectangle leaves face {region.face}")

    @classmethod
    def create(cls, obj: ObjectModel, left_face: int, right_face: int, support_face: int,
               left_center, right_center, pad_width: float, pad_height: float,
               left_orientation: float | None = None,
               right_orientation: float | None = None) -> GraspState:
        """Build a state, deriving pad orientations/horizontal axis when omitted.

        The canonical pad orientation aligns the pad u-axis with the world
        horizontal direction.
        """
        try:
            pair_idx = obj.pair_of_faces(left_face, right_face)
        except InvalidModelError as exc:
            raise InvalidStateError(str(exc)) from exc
        rot = _object_rotation(obj, support_face, left_face)
        h_l, h_r = (_face_axes(rot, obj, face)[0] for face in (left_face, right_face))
        if left_orientation is None:
            left_orientation = math.atan2(h_l[1], h_l[0])
        if right_orientation is None:
            right_orientation = math.atan2(h_r[1], h_r[0])
        state = cls(
            left=ContactRegion(left_face, np.asarray(left_center, float),
                               float(left_orientation), pad_width, pad_height),
            right=ContactRegion(right_face, np.asarray(right_center, float),
                                float(right_orientation), pad_width, pad_height),
            grasp_pair=pair_idx,
            support_face=support_face,
            horizontal_axis=h_l,
        )
        state.validate(obj)
        return state


@dataclass(frozen=True)
class GoalRegion:
    """A convex target patch on one face."""

    face: int
    polygon: ConvexPolygon2


@dataclass(frozen=True)
class ResolutionConfig:
    """Step sizes and parametric feasibility limits for the action space."""

    slide_step: float = 0.005
    z_step: float = 0.005
    rotation_step: float = 0.0  # filled by derive_resolutions
    pivot_step: float = 0.0     # filled by derive_resolutions
    min_grasp_width: float = 0.005
    max_grasp_width: float = 0.15
    max_length_width_ratio: float = 3.0
    pad_width: float = 0.02
    pad_height: float = 0.02
    table_clearance: float = 0.0

    def validate(self) -> None:
        for name in ("slide_step", "z_step", "rotation_step", "pivot_step",
                     "min_grasp_width", "max_grasp_width", "max_length_width_ratio",
                     "pad_width", "pad_height"):
            if getattr(self, name) <= 0.0:
                raise InvalidInputError(f"resolution parameter {name} must be positive")
        if self.table_clearance < 0.0:
            raise InvalidInputError("table_clearance must be non-negative")


def derive_resolutions(obj: ObjectModel, base: ResolutionConfig) -> ResolutionConfig:
    """Fill the geometry-derived angular steps for an object.

    The in-hand rotation step is the angular spacing between consecutive
    parallel lateral pairs of the cross-section; the pivot step is the
    exterior angle at a lateral/end-cap edge (pi/2 for right prisms).
    """
    angles = []
    for i, j in obj.parallel_pairs:
        if i >= obj.lateral_count or j >= obj.lateral_count:
            continue  # cap pair has no cross-section direction
        n = obj.face(i).outward_normal
        ang = math.atan2(n[1], n[0]) % math.pi
        angles.append(ang)
    angles.sort()
    if len(angles) <= 1:
        rotation_step = math.pi
    else:
        gaps = [angles[k + 1] - angles[k] for k in range(len(angles) - 1)]
        gaps.append(math.pi - angles[-1] + angles[0])
        rotation_step = min(g for g in gaps if g > GEOM_TOL)
    n_lat = obj.face(0).outward_normal
    n_cap = obj.face(obj.lateral_count).outward_normal
    pivot_step = math.acos(max(-1.0, min(1.0, float(n_lat @ n_cap))))
    cfg = replace(base, rotation_step=rotation_step, pivot_step=pivot_step)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# World-frame derivation

class WorldContext(NamedTuple):
    """World-frame quantities implied by a state's support/grasp alignment."""

    rotation: np.ndarray      # object -> world rotation
    z_offset: float           # world z translation putting the support plane at z=0
    left_axes: tuple[np.ndarray, np.ndarray]   # (horizontal, up) in left face frame
    right_axes: tuple[np.ndarray, np.ndarray]
    left_center_world: np.ndarray
    right_center_world: np.ndarray
    grasp_width: float


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _rot_z3(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x3(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


# Columns: left-face normal, horizontal in-plane direction, support normal.
_BASIS_WORLD = np.column_stack([_LEFT_NORMAL, _cross3(_WORLD_DOWN, _LEFT_NORMAL), _WORLD_DOWN])


def _object_rotation(obj: ObjectModel, support_face: int, left_face: int) -> np.ndarray:
    n_s = obj.face(support_face).outward_normal
    n_l = obj.face(left_face).outward_normal
    if abs(float(n_s @ n_l)) > FEAS_TOL:
        raise InvalidStateError("support face is not perpendicular to the gripped faces")
    basis_obj = np.column_stack([n_l, _cross3(n_s, n_l), n_s])
    return _BASIS_WORLD @ basis_obj.T


def _face_axes(rot: np.ndarray, obj: ObjectModel, face_id: int) -> tuple[np.ndarray, np.ndarray]:
    rw = rot @ obj.face(face_id).frame.rotation
    horiz = rw[1, :2]  # row y of rw == world-y expressed along the face u/v axes
    up = rw[2, :2]
    horiz = horiz / math.sqrt(horiz[0] ** 2 + horiz[1] ** 2)
    up = up / math.sqrt(up[0] ** 2 + up[1] ** 2)
    horiz.setflags(write=False)
    up.setflags(write=False)
    return horiz, up


class PivotEdgeInfo(NamedTuple):
    """The forward pivot available in a state: tipping angle, landing face,
    and a world point on the support edge being tipped over."""

    angle: float  # signed world rotation about +x that lays the new face flat
    new_support: int
    edge_point_world: np.ndarray


class _Rotation(NamedTuple):
    """One in-hand rotation of a mode by one angle, and where it takes each face."""

    action: Action
    pair: int
    rz: np.ndarray
    fingers: tuple  # per finger: (new face, rot_new @ R_new, rot @ t_new + z offset, rot @ R_old)
    horizontal: np.ndarray
    width: float   # grasp width of the target pair
    extent: float  # world-y extent of the new left face


class _Pivot(NamedTuple):
    """The mode's pivot and the world rotations of the gripped faces around it."""

    edge: PivotEdgeInfo
    action: Action
    rot_new: np.ndarray
    tz_new: float
    fingers: tuple  # per finger: (rot @ R_face, rot_new @ R_face)
    horizontal: np.ndarray


class _Mode:
    """Everything the primitives need that depends on the grasp mode alone: pose,
    per-finger (horizontal, up) face axes (``dirs``: as floats), grasp width, rotations,
    pivot, and containment half-planes by (face, pad orientation, pad width, pad height)."""

    __slots__ = ("faces", "rot", "tz", "axes", "dirs", "width", "rotations", "pivot", "shrunk")

    def __init__(self, obj: ObjectModel, support_face: int, left_face: int, right_face: int):
        try:
            pair = obj.pair_of_faces(left_face, right_face)
        except InvalidModelError as exc:
            raise InvalidStateError(str(exc)) from exc
        self.faces = (support_face, left_face, right_face)
        self.rot = rot = _object_rotation(obj, support_face, left_face)
        rot.setflags(write=False)
        self.tz = tz = -float(rot[2] @ obj.face(support_face).frame.translation)
        self.axes = (_face_axes(rot, obj, left_face), _face_axes(rot, obj, right_face))
        self.dirs = tuple((tuple(h.tolist()), tuple(u.tolist())) for h, u in self.axes)
        self.width = obj.pair_width(pair)
        self.rotations: dict[ActionKind, _Rotation | None] = {}
        for kind in (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW):
            angle = _rotation_angle(obj, rot, left_face, ccw=(kind == ActionKind.ROTATE_CCW))
            self.rotations[kind] = None if angle is None else _rotation(obj, self, kind, angle)
        self.pivot = None
        edge = _pivot_edge(obj, rot, tz, support_face)
        if edge is not None:
            rot_new = _rot_x3(edge.angle) @ rot
            support_pt = rot_new @ obj.face(edge.new_support).frame.translation
            fingers = tuple((rot @ obj.face(f).frame.rotation, rot_new @ obj.face(f).frame.rotation)
                            for f in (left_face, right_face))
            self.pivot = _Pivot(edge, Action(ActionKind.PIVOT, abs(edge.angle),
                                             arc_radius=self.width / 2.0),
                                rot_new, -float(support_pt @ _WORLD_UP), fingers,
                                _face_axes(rot_new, obj, left_face)[0])
        self.shrunk: dict[tuple, tuple[tuple[float, float, float], ...]] = {}


def _mode(obj: ObjectModel, support_face: int, left_face: int, right_face: int) -> _Mode:
    """The mode's table entry, built on first use."""
    key = (support_face, left_face, right_face)
    m = obj.scratch.get(key)
    if m is None:
        m = obj.scratch[key] = _Mode(obj, *key)
    return m


def _rotation_angle(obj: ObjectModel, rot: np.ndarray, left_face: int, ccw: bool) -> float | None:
    """Smallest spin about vertical that lands the pads on another pair."""
    best: float | None = None
    for pair in obj.parallel_pairs:
        for candidate_left in pair:
            if candidate_left == left_face:
                continue
            n_w = rot @ obj.face(candidate_left).outward_normal
            if abs(float(n_w @ _WORLD_UP)) > FEAS_TOL:
                continue  # spinning about vertical keeps normals' z; must already be horizontal
            phi = math.atan2(
                n_w[0] * _LEFT_NORMAL[1] - n_w[1] * _LEFT_NORMAL[0],
                float(n_w[:2] @ _LEFT_NORMAL[:2]),
            )
            # ccw selects the negative world spin (see ActionKind docstring)
            if not ccw and phi <= FEAS_TOL:
                phi += 2.0 * math.pi
            if ccw and phi >= -FEAS_TOL:
                phi -= 2.0 * math.pi
            if ccw:
                phi = -phi  # compare magnitudes
            if phi <= FEAS_TOL or phi > math.pi + FEAS_TOL:
                continue
            if best is None or phi < best - GEOM_TOL:
                best = phi
    return best


def _rotation(obj: ObjectModel, m: _Mode, kind: ActionKind, magnitude: float) -> _Rotation | None:
    """The rotation of mode m by magnitude, or None if it lands on no grippable pair."""
    support_face, left_face, right_face = m.faces
    sigma = -1.0 if kind == ActionKind.ROTATE_CCW else 1.0
    rz = _rot_z3(sigma * magnitude)
    rot_new = rz @ m.rot
    target = None
    for pair_idx, pair in enumerate(obj.parallel_pairs):
        for candidate_left in pair:
            n_w = rot_new @ obj.face(candidate_left).outward_normal
            if np.max(np.abs(n_w - _LEFT_NORMAL)) <= FEAS_TOL:
                other = pair[0] if pair[1] == candidate_left else pair[1]
                target = (pair_idx, candidate_left, other)
    if target is None:
        return None
    pair_idx, new_left_face, new_right_face = target
    if support_face in (new_left_face, new_right_face):
        return None
    offset = np.array([0.0, 0.0, m.tz])
    fingers = []
    for old, new in ((left_face, new_left_face), (right_face, new_right_face)):
        frame_new = obj.face(new).frame
        fingers.append((new, rot_new @ frame_new.rotation, m.rot @ frame_new.translation + offset,
                        m.rot @ obj.face(old).frame.rotation))
    face = obj.face(new_left_face)
    verts_y = (rot_new @ face.to_object(face.polygon.vertices).T)[1]
    return _Rotation(Action(kind, magnitude, arc_radius=m.width / 2.0), pair_idx, rz,
                     tuple(fingers), _face_axes(rot_new, obj, new_left_face)[0],
                     obj.pair_width(pair_idx), float(verts_y.max() - verts_y.min()))


def _pivot_edge(obj: ObjectModel, rot: np.ndarray, tz: float,
                support_face: int) -> PivotEdgeInfo | None:
    support = obj.face(support_face)
    rot_support = rot @ support.frame.rotation
    t_support = rot @ support.frame.translation + np.array([0.0, 0.0, tz])
    centroid_w = rot_support[:, :2] @ support.polygon.centroid + t_support
    for neighbor in obj.neighbors(support_face):
        edge = obj.shared_edge(support_face, neighbor)
        pts = edge.endpoints_in(support_face)
        d_w = rot_support[:, :2] @ (pts[1] - pts[0])
        d_w /= math.sqrt(float(d_w @ d_w))
        if abs(d_w[1]) > FEAS_TOL or abs(d_w[2]) > FEAS_TOL:
            continue  # pivot axis must lie along the squeeze axis
        mid_w = rot_support[:, :2] @ ((pts[0] + pts[1]) / 2.0) + t_support
        if mid_w[1] <= centroid_w[1]:
            continue  # only tip toward +y
        n_new_w = rot @ obj.face(neighbor).outward_normal
        chi = math.atan2(
            n_new_w[1] * _WORLD_DOWN[2] - n_new_w[2] * _WORLD_DOWN[1],
            float(n_new_w[1:] @ _WORLD_DOWN[1:]),
        )
        return PivotEdgeInfo(chi, neighbor, mid_w)
    return None


def find_pivot_edge(s: GraspState, obj: ObjectModel) -> PivotEdgeInfo | None:
    """Locate the support edge parallel to the squeeze axis on the +y side.

    Tipping is only defined over such an edge: the grasp axis must coincide
    with the rotation axis so the gripped faces stay vertical.
    """
    pivot = _mode(obj, s.support_face, s.left.face, s.right.face).pivot
    return None if pivot is None else pivot.edge


def _world_center(obj: ObjectModel, m: _Mode, region: ContactRegion) -> np.ndarray:
    frame = obj.face(region.face).frame
    p = m.rot @ (frame.rotation[:, 0] * region.center[0] + frame.rotation[:, 1] * region.center[1]
                 + frame.translation)
    p[2] += m.tz
    return p


def world_context(s: GraspState, obj: ObjectModel) -> WorldContext:
    m = _mode(obj, s.support_face, s.left.face, s.right.face)
    return WorldContext(
        rotation=m.rot,
        z_offset=m.tz,
        left_axes=m.axes[0],
        right_axes=m.axes[1],
        left_center_world=_world_center(obj, m, s.left),
        right_center_world=_world_center(obj, m, s.right),
        grasp_width=m.width,
    )


def _corners_inside(obj: ObjectModel, region: ContactRegion) -> bool:
    normals, offsets = obj.face(region.face).polygon.halfplanes()
    margins = region.corners() @ normals.T - offsets
    return bool(np.all(margins >= -FEAS_TOL))


def _shrunk_face(obj: ObjectModel, face_id: int, theta: float, pad_width: float,
                 pad_height: float) -> tuple[tuple[float, float, float], ...]:
    """Half-planes (n_u, n_v, b) holding the centres of pads that fit within FEAS_TOL."""
    normals, offsets = obj.face(face_id).polygon.halfplanes()
    reach = (ContactRegion(face_id, np.zeros(2), theta, pad_width, pad_height).corners()
             @ normals.T).min(axis=0)
    return tuple((n_u, n_v, b - r - FEAS_TOL) for (n_u, n_v), b, r in
                 zip(normals.tolist(), offsets.tolist(), reach.tolist()))


def _place(obj: ObjectModel, m: _Mode, face_id: int, x: float, y: float, theta: float,
           pad: ContactRegion) -> ContactRegion | None:
    """The pad moved to centre (x, y), orientation theta on a face; None if it leaves it."""
    key = (face_id, theta, pad.pad_width, pad.pad_height)
    planes = m.shrunk.get(key)
    if planes is None:
        planes = m.shrunk[key] = _shrunk_face(obj, *key)
    close = False
    for n_u, n_v, b in planes:
        margin = n_u * x + n_v * y - b
        if margin < -_GUARD:
            return None
        close = close or margin <= _GUARD
    region = ContactRegion(face_id, np.array([x, y]), theta, pad.pad_width, pad.pad_height)
    return None if close and not _corners_inside(obj, region) else region


def _clearance_ok(obj: ObjectModel, rot: np.ndarray, tz: float, region: ContactRegion,
                  clearance: float) -> bool:
    if clearance <= 0.0:
        return True  # a convex body on its support plane has no point below z = 0
    face = obj.face(region.face)
    corners3 = face.to_object(region.corners())
    z = (corners3 @ rot.T)[:, 2] + tz
    return bool(np.all(z >= clearance - FEAS_TOL))


# ---------------------------------------------------------------------------
# Action generation and transitions

# kind -> (fingers that move, face axis: 0 horizontal / 1 up, sign)
_TRANSLATIONS = {
    ActionKind.SLIDE_LEFT_UP: ((0,), 0, 1.0), ActionKind.SLIDE_LEFT_DOWN: ((0,), 0, -1.0),
    ActionKind.SLIDE_RIGHT_UP: ((1,), 0, 1.0), ActionKind.SLIDE_RIGHT_DOWN: ((1,), 0, -1.0),
    ActionKind.MOVE_CONTACT_UP: ((0, 1), 1, 1.0), ActionKind.MOVE_CONTACT_DOWN: ((0, 1), 1, -1.0),
}
_SLIDES = tuple(_TRANSLATIONS)[:4]
_MOVES = tuple(_TRANSLATIONS)[4:]


def successors(s: GraspState, obj: ObjectModel,
               cfg: ResolutionConfig) -> list[tuple[Action, GraspState]]:
    """All feasible (action, resulting state) pairs, in canonical kind order.

    The search relies on this order for deterministic tie-breaking.
    """
    out: list[tuple[Action, GraspState]] = []
    m = _mode(obj, s.support_face, s.left.face, s.right.face)
    for kind in _SLIDES:  # a slide keeps the pad's height: no clearance test
        nxt = _translate(obj, s, m, kind, cfg.slide_step, 0.0)
        if nxt is not None:
            out.append((Action(kind, cfg.slide_step), nxt))
    for rt in m.rotations.values():
        nxt = None if rt is None else _rotate(obj, s, m, rt, cfg)
        if nxt is not None:
            out.append((rt.action, nxt))
    for kind in _MOVES:
        nxt = _translate(obj, s, m, kind, cfg.z_step, cfg.table_clearance)
        if nxt is not None:
            out.append((Action(kind, cfg.z_step), nxt))
    if m.pivot is not None:
        nxt = _pivot(obj, s, m, m.pivot.action.magnitude, cfg.table_clearance)
        if nxt is not None:
            out.append((m.pivot.action, nxt))
    return out


def valid_actions(s: GraspState, obj: ObjectModel, cfg: ResolutionConfig) -> list[Action]:
    """All primitives whose feasibility predicates pass in state s."""
    return [action for action, _ in successors(s, obj, cfg)]


def transition(s: GraspState, a: Action, obj: ObjectModel) -> GraspState:
    """Apply one primitive (no ResolutionConfig limits); raises InfeasibleActionError."""
    m = _mode(obj, s.support_face, s.left.face, s.right.face)
    kind = a.kind
    if kind in _TRANSLATIONS:
        nxt = _translate(obj, s, m, kind, a.magnitude, 0.0)
    elif kind in (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW):
        rt = m.rotations[kind]
        if rt is None or rt.action.magnitude != a.magnitude:
            rt = _rotation(obj, m, kind, a.magnitude)
        nxt = None if rt is None else _rotate(obj, s, m, rt, None)
    else:
        nxt = _pivot(obj, s, m, a.magnitude, 0.0)
    if nxt is None:
        raise InfeasibleActionError(f"{kind.name} (magnitude {a.magnitude:g}) is infeasible here")
    return nxt


def _translate(obj: ObjectModel, s: GraspState, m: _Mode, kind: ActionKind, magnitude: float,
               clearance: float) -> GraspState | None:
    fingers, axis, sign = _TRANSLATIONS[kind]
    step = sign * magnitude
    pads = [s.left, s.right]
    for i in fingers:
        pad = pads[i]
        (d_u, d_v), (x, y) = m.dirs[i][axis], pad.center.tolist()
        pads[i] = _place(obj, m, pad.face, x + step * d_u, y + step * d_v, pad.orientation, pad)
        if pads[i] is None or not _clearance_ok(obj, m.rot, m.tz, pads[i], clearance):
            return None
    return GraspState(pads[0], pads[1], s.grasp_pair, s.support_face, s.horizontal_axis)


def _turn(rot_face_old: np.ndarray, rot_face_new: np.ndarray, theta: float) -> float:
    """A pad's orientation on its face after the face's world rotation changes."""
    pad_dir_world = rot_face_old @ np.array([math.cos(theta), math.sin(theta), 0.0])
    e = rot_face_new.T @ pad_dir_world
    return math.atan2(e[1], e[0])


def _rotate(obj: ObjectModel, s: GraspState, m: _Mode, rt: _Rotation,
            cfg: ResolutionConfig | None) -> GraspState | None:
    if cfg is not None:
        if not (cfg.min_grasp_width - FEAS_TOL <= rt.width <= cfg.max_grasp_width + FEAS_TOL):
            return None
        # Length-to-width limit: too-elongated grips cannot generate the spin moment.
        if rt.extent / rt.width > cfg.max_length_width_ratio + FEAS_TOL:
            return None
    pads_world = (_world_center(obj, m, s.left), _world_center(obj, m, s.right))
    centroid = (pads_world[0] + pads_world[1]) / 2.0
    pads = []
    for region, pad_world, (face_id, rot_face_new, t_face, rot_face_old) in zip(
            (s.left, s.right), pads_world, rt.fingers):
        t_new = rt.rz @ (t_face - centroid) + centroid
        # The pad keeps its world (y, z); the face u/v axes have no world-x
        # component, so the face-plane coordinates ignore the pad's x.
        x, y, _ = (rot_face_new.T @ (pad_world - t_new)).tolist()
        pads.append(_place(obj, m, face_id, x, y,
                           _turn(rot_face_old, rot_face_new, region.orientation), region))
        if pads[-1] is None:
            return None
    return GraspState(pads[0], pads[1], rt.pair, s.support_face, rt.horizontal)


def _pivot(obj: ObjectModel, s: GraspState, m: _Mode, magnitude: float,
           clearance: float) -> GraspState | None:
    pv = m.pivot
    if pv is None or abs(abs(pv.edge.angle) - magnitude) > FEAS_TOL:
        return None
    pads = [_place(obj, m, region.face, *region.center.tolist(),
                   _turn(rot_face_old, rot_face_new, region.orientation), region)
            for region, (rot_face_old, rot_face_new) in zip((s.left, s.right), pv.fingers)]
    if not all(pad is not None and _clearance_ok(obj, pv.rot_new, pv.tz_new, pad, clearance)
               for pad in pads):
        return None
    return GraspState(pads[0], pads[1], s.grasp_pair, pv.edge.new_support, pv.horizontal)


# ---------------------------------------------------------------------------
# Goal-overlap metrics

def _covered_area(region: ContactRegion, goals: list[GoalRegion]) -> float:
    """Area of the pad covered by the union of same-face goals.

    Inclusion-exclusion over goal subsets; intersections of convex polygons
    stay convex, and goal counts per face are small.
    """
    pad = region.polygon()
    same_face = [g.polygon for g in goals if g.face == region.face]
    if not same_face:
        return 0.0
    total = 0.0
    n = len(same_face)
    for mask in range(1, 1 << n):
        inter: ConvexPolygon2 | None = pad
        bits = 0
        for i in range(n):
            if mask >> i & 1:
                bits += 1
                inter = convex_intersection(inter, same_face[i])
                if inter is None:
                    break
        if inter is not None:
            total += (1.0 if bits % 2 == 1 else -1.0) * polygon_area(inter)
    return total


def region_outside_goal(s: GraspState, goals: list[GoalRegion]) -> float:
    """Total pad area (both fingers) left outside the goal regions, in m^2."""
    total = 0.0
    for region in (s.left, s.right):
        total += region.area() - _covered_area(region, goals)
    return max(0.0, total)


def overlap_ratio(s: GraspState, goals: list[GoalRegion]) -> tuple[float, float]:
    """Per-finger fraction of pad area inside the goals on its face."""
    out = []
    for region in (s.left, s.right):
        area = region.area()
        if area <= 0.0:
            raise InvalidStateError("contact region has zero area")
        ratio = min(1.0, max(0.0, _covered_area(region, goals) / area))
        if ratio > 1.0 - 1e-9:
            ratio = 1.0  # swallow clipping round-off for fully covered pads
        out.append(ratio)
    return out[0], out[1]


def state_key(s: GraspState, quantum: float = 1e-7) -> tuple:
    """Hashable lattice key for duplicate detection in search.

    Action steps are orders of magnitude larger than the quantum, so equal
    states collide and distinct lattice points never do.
    """
    twopi = 2.0 * math.pi
    key = [s.grasp_pair, s.support_face, s.left.face]
    for region in (s.left, s.right):
        x, y = region.center.tolist()
        r = region.orientation % twopi
        if twopi - r < 5e-8:
            r = 0.0
        key += (round(x / quantum), round(y / quantum), round(r / quantum))
    return tuple(key)
