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
holds what the primitives read of them, as floats (the pose only serves its
construction), so each primitive is a few float operations in one of two
kernels.  A turn (rotation or pivot) is rigid: each pad's new centre is an
affine map of the two old centres and its orientation shifts by a constant,
stored per mode as a ``_Turn`` and applied by ``_turn``.  A translation
(slide or contact shift) moves the pad centres in ``_shift``, given the
mode's signed unit rows ``(finger, sign * h_u, sign * h_v)`` (``_Mode.ops``)
and a step: each moved centre gains ``step * u`` and ``step * v``, exact
scalings of the face axes since the sign is +-1.

Each mode entry also holds its move table for the last ResolutionConfig it
served: every primitive as (op, action) in canonical kind order, op a
``_Turn`` or a translation's unit rows, with the ``Action`` objects built
once.  Search (``successors``) walks the table and replay (``transition``)
reads the mode's ops; both hand ``_shift`` the unit rows and a step (the
table action's magnitude, or the replayed action's plus its offset), so both
run the same kernels on the same floats.  A rotation or pivot turns by the
angle its mode's geometry fixes: replay rejects a magnitude more than
``FEAS_TOL`` away from it.  The table holds only the rotations onto a pair
within the ResolutionConfig grip-width and length/width limits (``_grips``);
replay given the config rejects the others too, so search, replay and the
planner's lower bound share one definition of feasible.

A state (``GraspState``) is a named tuple: two pads, grasp pair, support
face.  A pad (``ContactRegion``) is a flat record of plain numbers: face,
centre x and y, orientation and size.  Search, replay, the heuristic memo
and plan files all use it, and its corners are computed only when asked
for: they are its corner offsets (``corner_offsets``, the rotated
half-extents as float rows, fixed by orientation and size alone) plus its
centre.  Building a pad checks nothing; ``GraspState.validate`` checks a
state's pads (finite centres and orientations, positive finite sizes,
rectangles on their faces), and ``create``, ``plan()`` and the CLI's plan
loader call it.

Float contract: the primitives, the centre containment test and goal
overlap run on Python floats.  numpy builds the mode table, which keeps only
floats, and serves the corner test (``_corners_inside``), which defines
whether a pad fits: all 4 corners within ``FEAS_TOL`` of the face's
half-planes.  Search tests the centre instead, against the face shrunk by
the rotated pad (by its corner offsets), with half-planes computed once per
orientation entry (see below).  The two round differently, by a few ulps
of the face coordinates, so a centre margin within ``_GUARD`` of the
threshold is decided by the corner test: the verdicts agree.

One expansion reads each parent fact once.  The pads' orientations and
sizes, with the mode, fix every half-plane an expansion tests: each mode
keeps one orientation table (``_Mode.orientations``, read through
``_entry``) keyed by those six values, and an entry holds both pads' shrunk
half-planes and, per turn kind taken from them, the landing pads' faces,
centre maps, orientations and half-planes (``_landing``, built the first
time the turn is taken).  Every such half-plane set comes from the model's
fit-plane table (``face_planes``), which the planner's bound reads too, so
a model shrinks each face for an orientation and pad size once.  ``turns``
reads the same entry for the planner's bound: each turn's landing and
whether some pair of pad centres can take it.
No turn shifts an orientation by -0.0, so an orientation of 0.0 and one of
-0.0 share an entry.  ``successors`` and ``transition`` each look the entry
up once: a translation keeps each pad's face, orientation and size, so it
tests against the parent pads' planes (``_fit``), and a turn lands on the
entry's landing pads.  The table is
cleared when it reaches ``_ORIENTATION_CAP`` entries.  Given the parent
state and key, ``state_key`` keeps the cell of each pad the child shares
with its parent.  The kernels build pads and states with ``tuple.__new__``,
which skips the named tuples' Python ``__new__``; the results are ordinary
instances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InfeasibleActionError,
    InvalidInputError,
    InvalidModelError,
    InvalidStateError,
)
from .geometry import (
    FACE_COORD_LIMIT,
    FEAS_TOL,
    GEOM_TOL,
    ConvexPolygon2,
    ObjectModel,
    _signed_area,
    clip_rows,
    halfspaces_feasible,
    rotation_x,
    rotation_z,
)

_WORLD_DOWN = np.array([0.0, 0.0, -1.0])
_LEFT_NORMAL = np.array([-1.0, 0.0, 0.0])  # world direction of the left face's outward normal
_LEFT_XY = (-1.0, 0.0)  # its x and y, as floats
# Half-width of the band around the shrunk-face threshold within which the
# float centre test defers to the corner test: far wider than the few ulps by
# which their margins round apart on faces within FACE_COORD_LIMIT (1e3 m).
_GUARD = 1e-12
# _new(cls, fields) builds a pad or state without the named tuple's Python __new__.
_new = tuple.__new__


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


class _ActionFields(NamedTuple):
    kind: ActionKind
    magnitude: float
    arc_radius: float = 0.0


class Action(_ActionFields):
    """One primitive with its step size (m for slides/moves, rad otherwise).

    arc_radius is the effective lever arm (half the grasp width) used to
    convert rotation/pivot angles into arc-length costs; it is 0 for
    translational primitives.

    A named tuple, so the planner memoizes step costs by value at tuple speed.
    ``_replace`` and ``_make`` skip the constructor's checks: call it instead.
    """

    __slots__ = ()

    def __new__(cls, kind: ActionKind, magnitude: float, arc_radius: float = 0.0) -> Action:
        if not (magnitude > 0.0 and math.isfinite(magnitude)):
            raise InvalidInputError(
                f"field 'magnitude' must be positive and finite, got {magnitude!r}")
        if not (arc_radius >= 0.0 and math.isfinite(arc_radius)):
            raise InvalidInputError(
                f"field 'arc_radius' must be non-negative and finite, got {arc_radius!r}")
        return _new(cls, (kind, magnitude, arc_radius))


class ContactRegion(NamedTuple):
    """A finger pad's rectangular footprint on one face, in face-local coords:
    centre (x, y), orientation and size as plain numbers."""

    face: int
    x: float
    y: float
    orientation: float
    pad_width: float
    pad_height: float

    @property
    def center(self) -> np.ndarray:
        """The centre as a new array, for callers that do array arithmetic."""
        return np.array([self.x, self.y])

    def corners(self) -> np.ndarray:
        """The rectangle's 4 vertices, counterclockwise in the face frame."""
        return np.array(corner_offsets(self.orientation, self.pad_width, self.pad_height)) + \
            np.array([self.x, self.y])

    def polygon(self) -> ConvexPolygon2:
        return ConvexPolygon2(self.corners())

    def area(self) -> float:
        return self.pad_width * self.pad_height


def corner_offsets(orientation: float, pad_width: float,
                   pad_height: float) -> tuple[tuple[float, float], ...]:
    """A pad's 4 corners less its centre, counterclockwise: the half-extents
    (-+w/2, -+h/2) rotated by the orientation, as ``(u, v)`` float rows.

    A pad's corners are these offsets plus its centre, one IEEE add per
    coordinate (the heuristic caches the offsets per pad orientation and
    size; ``corners()`` adds the centre in numpy, bit for bit the same).
    """
    c, s = math.cos(orientation), math.sin(orientation)
    hw, hh = pad_width / 2.0, pad_height / 2.0
    wc, ws, hc, hs = hw * c, hw * s, hh * c, hh * s
    return ((hs - wc, -ws - hc), (wc + hs, ws - hc), (wc - hs, ws + hc), (-wc - hs, hc - ws))


class GraspState(NamedTuple):
    """Both finger contacts plus which faces are gripped and rested on.

    The grasp mode (support and gripped faces) fixes the world-horizontal
    direction on each face: ``finger_axes(obj, support, left, right)[0][0]``
    on the left one.
    """

    left: ContactRegion
    right: ContactRegion
    grasp_pair: int
    support_face: int

    def validate(self, obj: ObjectModel) -> None:
        if not 0 <= self.grasp_pair < len(obj.parallel_pairs):
            raise InvalidStateError(f"grasp pair {self.grasp_pair} does not exist")
        pair = obj.parallel_pairs[self.grasp_pair]
        if {self.left.face, self.right.face} != set(pair):
            raise InvalidStateError(
                f"contact faces {self.left.face}/{self.right.face} do not form pair {pair}")
        if self.support_face in pair:
            raise InvalidStateError("support face cannot be a gripped face")
        _object_rotation(obj, self.support_face, self.left.face)  # support range, perpendicular
        for region in (self.left, self.right):
            if not (math.isfinite(region.x) and math.isfinite(region.y)):
                raise InvalidStateError("contact center must be finite")
            if not math.isfinite(region.orientation):
                raise InvalidStateError("pad orientation must be finite")
            if not (0.0 < region.pad_width < math.inf and 0.0 < region.pad_height < math.inf):
                raise InvalidStateError("pad dimensions must be positive and finite")
            if not _corners_inside(obj, region):
                raise InvalidStateError(
                    f"contact rectangle leaves face {region.face}")

    @classmethod
    def create(cls, obj: ObjectModel, left_face: int, right_face: int, support_face: int,
               left_center, right_center, pad_width: float, pad_height: float,
               left_orientation: float | None = None,
               right_orientation: float | None = None) -> GraspState:
        """Build a state, deriving pad orientations when omitted.

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
        (x_l, y_l), (x_r, y_r) = map(float, left_center), map(float, right_center)
        state = cls(
            left=ContactRegion(left_face, x_l, y_l, float(left_orientation), pad_width,
                               pad_height),
            right=ContactRegion(right_face, x_r, y_r, float(right_orientation), pad_width,
                                pad_height),
            grasp_pair=pair_idx,
            support_face=support_face,
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
    """Translational step sizes, the search's grip limits, and the pad size.

    Rotation and pivot angles are not settings: the object's geometry fixes
    them, per grasp mode.
    """

    slide_step: float = 0.005
    z_step: float = 0.005
    min_grasp_width: float = 0.005
    max_grasp_width: float = 0.15
    max_length_width_ratio: float = 3.0
    pad_width: float = 0.02
    pad_height: float = 0.02

    def validate(self) -> None:
        for name, value in vars(self).items():
            if not (0.0 < value < math.inf):
                raise InvalidInputError(
                    f"resolution parameter {name} must be positive and finite, got {value!r}")
        if self.min_grasp_width > self.max_grasp_width:
            raise InvalidInputError(
                f"resolution parameter min_grasp_width ({self.min_grasp_width!r}) exceeds "
                f"max_grasp_width ({self.max_grasp_width!r})")


def derive_resolutions(obj: ObjectModel, base: ResolutionConfig) -> ResolutionConfig:
    """The config to plan on the object with: ``base``, once validated.

    Nothing in it depends on the object; the rotation and pivot angles come
    from the mode table.
    """
    base.validate()
    return base


# ---------------------------------------------------------------------------
# World-frame derivation

def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


# Columns: left-face normal, horizontal in-plane direction, support normal.
_BASIS_WORLD = np.column_stack([_LEFT_NORMAL, _cross3(_WORLD_DOWN, _LEFT_NORMAL), _WORLD_DOWN])


def _object_rotation(obj: ObjectModel, support_face: int, left_face: int) -> np.ndarray:
    if not 0 <= support_face < len(obj.faces):
        raise InvalidStateError(f"support face {support_face} does not exist")
    n_s = obj.face(support_face).outward_normal
    n_l = obj.face(left_face).outward_normal
    if abs(float(n_s @ n_l)) > FEAS_TOL:
        raise InvalidStateError("support face is not perpendicular to the gripped faces")
    basis_obj = np.column_stack([n_l, _cross3(n_s, n_l), n_s])
    return _BASIS_WORLD @ basis_obj.T


def _face_axes(rot: np.ndarray, obj: ObjectModel,
               face_id: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """The face's (horizontal, up) unit axes in its frame, ``((h_u, h_v), (z_u, z_v))``,
    under object rotation rot."""
    rw = rot @ obj.face(face_id).frame.rotation
    # Row y of rw is world-y along the face u/v axes, row z world-z.
    axes = []
    for u, v in rw[1:, :2].tolist():
        norm = math.sqrt(u ** 2 + v ** 2)
        axes.append((u / norm, v / norm))
    return axes[0], axes[1]


class _Turn(NamedTuple):
    """A rotation or pivot of one mode.  The object turns rigidly, so each pad's
    new centre is affine in the old centres and its orientation shifts by a constant."""

    action: Action
    pair: int      # grasp pair after the turn
    support: int   # support face after the turn
    fingers: tuple  # per finger: (new face, x map, y map, angle shift),
                    # each map a 5-tuple of coefficients over (x_l, y_l, x_r, y_r, 1)
    width: float   # grasp width after the turn
    extent: float  # world-y extent of the left face after the turn


def _turn_entry(obj: ObjectModel, m: _Mode, rot: np.ndarray, action: Action, pair: int,
                support: int, rot_new: np.ndarray, new_faces: tuple[int, int], frames: tuple,
                maps: tuple) -> _Turn:
    """Mode m's turn from object rotation rot onto rot_new.  Per finger, frames
    holds ``rot_new`` times the new face's frame rotation and maps the x and y
    maps of the pad centre, as 5-tuples of floats."""
    fingers = []
    for old, new, frame, (x_map, y_map) in zip(m.faces[1:], new_faces, frames, maps):
        cos, sin = (frame.T @ rot @ obj.face(old).frame.rotation)[:2, 0].tolist()
        # + 0.0 turns a -0.0 shift into 0.0, so a zero turn lands a +-0.0 pad on 0.0.
        fingers.append((new, x_map, y_map, math.atan2(sin, cos) + 0.0))
    verts_y = (rot_new @ obj.face(new_faces[0]).outline)[1].tolist()
    return _Turn(action, pair, support, tuple(fingers), obj.pair_width(pair),
                 max(verts_y) - min(verts_y))


# A pivot leaves each pad where it is on its face: the identity centre maps.
_STAY = (((1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0)),
         ((0.0, 0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0, 0.0)))


class _Mode:
    """Everything the primitives need that depends on the grasp mode alone, as
    floats: per-finger (horizontal, up) face axes, grasp width, ``lever``: the
    pivot lever rows (see ``pivot_lever``), or None for a mode with no pivot,
    ``ops``: per action kind, a translation's signed unit rows ``(finger,
    sign * h_u, sign * h_v)`` (``_shift`` scales them by the step), a turn's
    ``_Turn``, or None for a turn the mode lacks, ``orientations``: the
    orientation table (see ``_entry``), and ``moves``: the last ResolutionConfig
    served with its move table (see ``_moves``).  The object pose that fixes
    them (rotation and height) is built here and not kept."""

    __slots__ = ("faces", "axes", "width", "lever", "ops", "orientations", "moves")

    def __init__(self, obj: ObjectModel, support_face: int, left_face: int, right_face: int):
        try:
            pair = obj.pair_of_faces(left_face, right_face)
        except InvalidModelError as exc:
            raise InvalidStateError(str(exc)) from exc
        self.faces = (support_face, left_face, right_face)
        rot = _object_rotation(obj, support_face, left_face)
        tz = -float(rot[2] @ obj.face(support_face).frame.translation)
        self.axes = axes = (_face_axes(rot, obj, left_face), _face_axes(rot, obj, right_face))
        self.width = obj.pair_width(pair)
        self.ops: dict[ActionKind, tuple | _Turn | None] = {
            kind: tuple((i, sign * axes[i][axis][0], sign * axes[i][axis][1]) for i in fingers)
            for kind, (fingers, axis, sign) in _TRANSLATIONS.items()}
        self.ops.update(zip(_ROTATIONS, _rotations(obj, self, rot, tz)))
        edge = _pivot_edge(obj, rot, tz, support_face)
        self.ops[ActionKind.PIVOT] = self.lever = None
        if edge is not None:
            angle, new_support, (_, edge_y, edge_z) = edge
            rot_new = rotation_x(angle) @ rot
            self.ops[ActionKind.PIVOT] = _turn_entry(
                obj, self, rot, Action(ActionKind.PIVOT, abs(angle), arc_radius=self.width / 2.0),
                pair, new_support, rot_new, (left_face, right_face),
                tuple(rot_new @ obj.face(f).frame.rotation for f in (left_face, right_face)),
                _STAY)
            frame = obj.face(left_face).frame
            (a, b, _), (d, e, _) = (rot @ frame.rotation)[1:].tolist()
            _, t_y, t_z = (rot @ frame.translation).tolist()
            self.lever = ((a, b, t_y - edge_y), (d, e, t_z + tz - edge_z))
        self.orientations: dict[tuple, tuple] = {}
        self.moves: tuple[ResolutionConfig | None, tuple] = (None, ())


def _mode(obj: ObjectModel, support_face: int, left_face: int, right_face: int) -> _Mode:
    """The mode's table entry, built on first use."""
    key = (support_face, left_face, right_face)
    m = obj.scratch.get(key)
    if m is None:
        m = obj.scratch[key] = _Mode(obj, *key)
    return m


def _rotations(obj: ObjectModel, m: _Mode, rot: np.ndarray, tz: float) -> list[_Turn | None]:
    """Per rotation kind (CW, CCW), the smallest spin of mode m, with object
    rotation rot and height tz, about vertical that lands the pads on another
    pair, or None if none does.

    One pass over the candidate left faces serves both kinds: each candidate's
    spin angle is measured once, then taken the positive way round for CW and
    the negative way round for CCW."""
    support_face, left_face, right_face = m.faces
    best: list = [None, None]  # per kind: (angle, pair index, new left face, new right face)
    for pair_idx, pair in enumerate(obj.parallel_pairs):
        if support_face in pair:
            continue  # its normals are vertical: no spin about vertical makes them horizontal
        for k, candidate_left in enumerate(pair):
            if candidate_left == left_face:
                continue
            n_x, n_y, n_z = (rot @ obj.face(candidate_left).outward_normal).tolist()
            if abs(n_z) > FEAS_TOL:
                continue  # spinning about vertical keeps normals' z; must already be horizontal
            turn = math.atan2(n_x * _LEFT_XY[1] - n_y * _LEFT_XY[0],
                              n_x * _LEFT_XY[0] + n_y * _LEFT_XY[1])
            for ccw in (False, True):
                phi = turn
                # ccw selects the negative world spin (see ActionKind docstring)
                if not ccw and phi <= FEAS_TOL:
                    phi += 2.0 * math.pi
                if ccw and phi >= -FEAS_TOL:
                    phi -= 2.0 * math.pi
                if ccw:
                    phi = -phi  # compare magnitudes
                if phi <= FEAS_TOL or phi > math.pi + FEAS_TOL:
                    continue
                if best[ccw] is None or phi < best[ccw][0] - GEOM_TOL:
                    best[ccw] = (phi, pair_idx, candidate_left, pair[1 - k])
    if best == [None, None]:
        return best
    # The pads keep their world points while the object spins about their
    # centroid: each pad's world point as a 3x5 map over (x_l, y_l, x_r, y_r, 1).
    offset = np.array([0.0, 0.0, tz])
    origins = {}  # face -> its frame origin in world coordinates
    world = []
    for i, face_id in enumerate((left_face, right_face)):
        frame = obj.face(face_id).frame
        p = np.zeros((3, 5))
        p[:, 2 * i:2 * i + 2] = rot @ frame.rotation[:, :2]
        p[:, 4] = origins[face_id] = rot @ frame.translation + offset
        world.append(p)
    centroid = (world[0] + world[1]) / 2.0
    turns = []
    for kind, spin in zip(_ROTATIONS, best):
        if spin is None:
            turns.append(None)
            continue
        magnitude, pair_idx, *new_faces = spin
        rz = rotation_z(-magnitude if kind == ActionKind.ROTATE_CCW else magnitude)
        rot_new = rz @ rot
        spun = rz @ centroid
        frames, maps = [], []
        for p, new in zip(world, new_faces):
            frame = obj.face(new).frame
            rel = p + spun - centroid  # the pad less the spun face origin
            origin = origins.get(new)
            if origin is None:
                origin = origins[new] = rot @ frame.translation + offset
            rel[:, 4] -= rz @ origin
            frames.append(rot_new @ frame.rotation)
            # Row 2, along the face normal, is the pad's world-x offset: it drops out.
            x_map, y_map = (frames[-1].T @ rel)[:2].tolist()
            maps.append((tuple(x_map), tuple(y_map)))
        turns.append(_turn_entry(obj, m, rot, Action(kind, magnitude, arc_radius=m.width / 2.0),
                                 pair_idx, support_face, rot_new, tuple(new_faces), frames,
                                 maps))
    return turns


def _pivot_edge(obj: ObjectModel, rot: np.ndarray, tz: float,
                support_face: int) -> tuple[float, int, tuple[float, ...]] | None:
    """The forward pivot of the mode with object rotation rot and height tz:
    over the support edge parallel to the squeeze axis on the +y side, as
    ``(angle, landing face, edge point)``: the signed world rotation about +x
    that lays the landing face flat and the edge's world midpoint.  None if
    the mode has no such edge.

    Tipping is only defined over such an edge: the grasp axis must coincide
    with the rotation axis so the gripped faces stay vertical.
    """
    support = obj.face(support_face)
    rot_support = rot @ support.frame.rotation
    t_support = rot @ support.frame.translation + np.array([0.0, 0.0, tz])
    centroid_y = float((rot_support[:, :2] @ support.centre + t_support)[1])
    planar = rot_support[:, :2]
    for neighbor, direction, midpoint in obj.rims[support_face]:
        d_w = planar @ direction
        norm = math.sqrt(float(d_w @ d_w))
        _, d_y, d_z = d_w.tolist()
        if abs(d_y / norm) > FEAS_TOL or abs(d_z / norm) > FEAS_TOL:
            continue  # pivot axis must lie along the squeeze axis
        mid_w = planar @ midpoint + t_support
        if mid_w[1] <= centroid_y:
            continue  # only tip toward +y
        n_new_w = rot @ obj.face(neighbor).outward_normal
        chi = math.atan2(
            n_new_w[1] * _WORLD_DOWN[2] - n_new_w[2] * _WORLD_DOWN[1],
            float(n_new_w[1:] @ _WORLD_DOWN[1:]),
        )
        return chi, neighbor, tuple(mid_w.tolist())
    return None


def finger_axes(obj: ObjectModel, support_face: int, left_face: int,
                right_face: int) -> tuple[tuple[tuple[float, float], tuple[float, float]], ...]:
    """Per finger, the (horizontal, up) unit axes of its face frame in the grasp
    mode, ``((h_u, h_v), (z_u, z_v))`` as floats: the directions a slide and a
    contact shift move its pad."""
    return _mode(obj, support_face, left_face, right_face).axes


def pivot_lever(s: GraspState, obj: ObjectModel) -> float | None:
    """The world (y, z) distance from the left pad's centre to the point on the
    support edge a pivot tips the object over, or None when the state's mode
    has no pivot (see ``_pivot_edge``).

    The mode's lever rows ``((a, b, c), (d, e, f))`` give that offset's y and
    z over the pad centre (x, y, 1)."""
    lever = _mode(obj, s.support_face, s.left.face, s.right.face).lever
    if lever is None:
        return None
    (a, b, c), (d, e, f) = lever
    x, y = s.left.x, s.left.y
    return math.hypot(a * x + b * y + c, d * x + e * y + f)


def _corners_inside(obj: ObjectModel, region: ContactRegion) -> bool:
    normals, offsets = obj.face(region.face).polygon.halfplanes()
    margins = region.corners() @ normals.T - offsets
    return bool(np.all(margins >= -FEAS_TOL))


def shrunk_planes(polygon: ConvexPolygon2, theta: float, pad_width: float, pad_height: float,
                  slack: float) -> tuple[tuple[float, float, float], ...]:
    """Half-planes (n_u, n_v, b) holding the centres of the pads, at orientation
    theta and of the given size, that fit the polygon within ``slack``: each of
    its half-planes moved in by the pad's reach, its smallest corner offset
    along the normal.  A face's, at ``FEAS_TOL``, tests where search may place
    a pad; a goal image's, at the goal tolerance, where the bound may end one."""
    (u0, v0), (u1, v1), (u2, v2), (u3, v3) = corner_offsets(theta, pad_width, pad_height)
    return tuple((n_u, n_v, b - min(n_u * u0 + n_v * v0, n_u * u1 + n_v * v1,
                                    n_u * u2 + n_v * v2, n_u * u3 + n_v * v3) - slack)
                 for n_u, n_v, b in polygon.planes)


# Entries a model's fit-plane table (``ObjectModel.fit_planes``) holds before
# it is cleared.  A fixture search meets a few dozen (face, orientation, size)
# keys; noisy or hand-made orientations could otherwise grow it without bound.
_PLANE_CAP = 1024


def face_planes(obj: ObjectModel, face_id: int, theta: float, pad_width: float,
                pad_height: float) -> tuple[tuple[float, float, float], ...]:
    """``shrunk_planes`` of the face at ``FEAS_TOL``: the half-planes holding
    the centres of the pads, at orientation theta and of the given size, that
    fit the face.  Read from the model's fit-plane table, built on first use:
    the same floats as a fresh call.  0.0 and -0.0 key alike, and give the
    same planes."""
    table = obj.fit_planes
    key = (face_id, theta, pad_width, pad_height)
    planes = table.get(key)
    if planes is None:
        if len(table) >= _PLANE_CAP:
            table.clear()
        planes = table[key] = shrunk_planes(obj.face(face_id).polygon, theta, pad_width,
                                            pad_height, FEAS_TOL)
    return planes


def _fit(obj: ObjectModel, planes: tuple, face_id: int, x: float, y: float, theta: float,
         pad: ContactRegion) -> ContactRegion | None:
    """The pad moved to centre (x, y), orientation theta on a face; None if it
    leaves it.  planes are the face's shrunk half-planes for theta and the pad's size."""
    close = False
    for n_u, n_v, b in planes:
        margin = n_u * x + n_v * y - b
        if margin <= _GUARD:
            if margin < -_GUARD:
                return None
            close = True
    region = _new(ContactRegion, (face_id, x, y, theta, pad.pad_width, pad.pad_height))
    return None if close and not _corners_inside(obj, region) else region


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
_ROTATIONS = (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW)
_TWO_PI = 2.0 * math.pi


# Entries a mode's orientation table holds before it is cleared.  The fixture
# suite uses one or two per mode; a walk through noisy or hand-made
# orientations could otherwise grow it without bound.
_ORIENTATION_CAP = 64


def _entry(obj: ObjectModel, m: _Mode, left: ContactRegion, right: ContactRegion) -> tuple:
    """Mode m's entry for the two pads' orientations and sizes, built on first
    use: ``(planes, landings)``.

    planes holds each pad's shrunk half-planes (a translation keeps them), and
    landings maps each turn kind taken from these pads to its landing (see
    ``_landing``).  The key holds values only: 0.0 and -0.0 key alike, and both
    give the same planes and, since no turn shifts by -0.0, the same landings.
    """
    key = (left.orientation, right.orientation, left.pad_width, left.pad_height,
           right.pad_width, right.pad_height)
    e = m.orientations.get(key)
    if e is None:
        if len(m.orientations) >= _ORIENTATION_CAP:
            m.orientations.clear()
        e = m.orientations[key] = (
            tuple(face_planes(obj, pad.face, pad.orientation, pad.pad_width, pad.pad_height)
                  for pad in (left, right)), {})
    return e


def _landing(obj: ObjectModel, e: tuple, t: _Turn, left: ContactRegion,
             right: ContactRegion) -> tuple:
    """Turn t's landing from the pads of entry e, built the first time the turn
    is taken and kept in e: ``(pair, support, pads)``, each landing pad as
    ``(face, x map, y map, orientation, planes)``."""
    fingers = []
    for pad, (face, x_map, y_map, shift) in zip((left, right), t.fingers):
        theta = math.remainder(pad.orientation + shift, _TWO_PI)
        fingers.append((face, x_map, y_map, theta,
                        face_planes(obj, face, theta, pad.pad_width, pad.pad_height)))
    landing = e[1][t.action.kind] = (t.pair, t.support, tuple(fingers))
    return landing


# Slack, in metres per half-plane, of the turn test: far above the rounding of
# a centre map, so the test keeps every turn _fit can take.
TURN_SLACK = 1e-9


def turns(obj: ObjectModel, support: int, left: ContactRegion, right: ContactRegion,
          cfg: ResolutionConfig) -> list[tuple]:
    """Each rotation and pivot of the mode's move table for cfg, in canonical
    order, from pads of these faces, orientations and sizes (their centres
    are not read): ``(action, fits, support, left, right, maps)``: the
    landing support face and landing pads, each centred at its face's origin,
    and per finger the (x map, y map) that place its landing centre, each a
    5-tuple of coefficients over (x_l, y_l, x_r, y_r, 1).

    fits is whether some pair of pad centres fits both faces before the turn
    and both landing faces after it.  The constraints are linear in the
    centres (x_l, y_l, x_r, y_r): each pad's shrunk half-planes before the
    turn (the orientation entry's), and each landing pad's shrunk half-planes
    through its affine centre map (``_landing``), each within ``TURN_SLACK``
    (``_turn_rows``).  A pivot's maps are the identity, so its rows split by
    finger; a rotation couples the fingers through their centres' mean.  One
    witness is tried first (``_turn_witness``): a point that meets every row
    meets every combination of them, so it proves the verdict the elimination
    would give.  Only where it fails does ``halfspaces_feasible`` decide.
    Every state that takes the turn in ``successors`` is a witness, so the
    test never rejects a turn search takes.
    """
    m = _mode(obj, support, left.face, right.face)
    e = _entry(obj, m, left, right)
    planes, landings = e
    out = []
    for op, action in _moves(m, cfg):
        if type(op) is not _Turn:
            continue
        landing = landings.get(action.kind) or _landing(obj, e, op, left, right)
        fits = (_turn_witness(obj, planes, landing, left.face, right.face)
                or halfspaces_feasible(_turn_rows(planes, landing), TURN_SLACK))
        pads = [ContactRegion(face, 0.0, 0.0, theta, pad.pad_width, pad.pad_height)
                for pad, (face, _, _, theta, _) in zip((left, right), landing[2])]
        maps = tuple((x_map, y_map) for _, x_map, y_map, _, _ in landing[2])
        out.append((action, fits, landing[1], *pads, maps))
    return out


def _turn_witness(obj: ObjectModel, planes: tuple, landing: tuple, left_face: int,
                  right_face: int) -> bool:
    """Whether the pads centred on their faces' centroids meet the entry's
    shrunk half-planes ``planes`` and, through the centre maps, the landing's,
    each at a margin of at least 0."""
    xl, yl = obj.face(left_face).centre
    xr, yr = obj.face(right_face).centre
    for (x, y), finger in zip(((xl, yl), (xr, yr)), planes):
        for n_u, n_v, b in finger:
            if n_u * x + n_v * y - b < 0.0:
                return False
    for _, (a, b, c, d, e), (f, g, h, i, j), _, finger in landing[2]:
        x = a * xl + b * yl + c * xr + d * yr + e
        y = f * xl + g * yl + h * xr + i * yr + j
        for n_u, n_v, off in finger:
            if n_u * x + n_v * y - off < 0.0:
                return False
    return True


def _turn_rows(planes: tuple, landing: tuple) -> list:
    """A turn's constraints as rows ``(a_xl, a_yl, a_xr, a_yr, b)``: each pad's
    shrunk half-planes ``planes`` before it, and the landing pads' through
    their centre maps."""
    rows = []
    for i, finger in enumerate(planes):
        for n_u, n_v, b in finger:
            row = [0.0, 0.0, 0.0, 0.0, b]
            row[2 * i:2 * i + 2] = n_u, n_v
            rows.append(row)
    for _, x_map, y_map, _, finger in landing[2]:
        for n_u, n_v, b in finger:
            rows.append([n_u * x + n_v * y for x, y in zip(x_map[:4], y_map[:4])]
                        + [b - n_u * x_map[4] - n_v * y_map[4]])
    return rows


def _moves(m: _Mode, cfg: ResolutionConfig) -> tuple:
    """Mode m's move table for cfg: (op, action) pairs in canonical kind order,
    op a _Turn or a translation's unit rows (``_Mode.ops``), which ``_shift``
    scales by the action's magnitude.  Kept with the last config served
    (compared by identity), so a model holds one table per mode.  The two are
    read and replaced as one tuple, so a table is never paired with another
    config."""
    served, table = m.moves
    if served is not cfg:
        table = [(m.ops[kind], Action(kind, cfg.slide_step)) for kind in _SLIDES]
        for kind in _ROTATIONS:
            t = m.ops[kind]
            if t is not None and _grips(t, cfg):
                table.append((t, t.action))
        table += [(m.ops[kind], Action(kind, cfg.z_step)) for kind in _MOVES]
        t = m.ops[ActionKind.PIVOT]
        if t is not None:
            table.append((t, t.action))
        table = tuple(table)
        m.moves = (cfg, table)
    return table


def _grips(t: _Turn, cfg: ResolutionConfig) -> bool:
    """Whether rotation t lands on a pair within cfg's grip-width limits whose
    new left face is short enough for that width (a too-elongated grip cannot
    generate the spin moment)."""
    return (cfg.min_grasp_width - FEAS_TOL <= t.width <= cfg.max_grasp_width + FEAS_TOL
            and t.extent / t.width <= cfg.max_length_width_ratio + FEAS_TOL)


def successors(s: GraspState, obj: ObjectModel,
               cfg: ResolutionConfig) -> list[tuple[Action, GraspState]]:
    """All feasible (action, resulting state) pairs, in canonical kind order.

    The search relies on this order for deterministic tie-breaking.  The
    actions are the move table's own objects.  One orientation-table lookup
    serves every child: translations test against the parent pads' planes, and
    turns land on the entry's landing pads.
    """
    left, right = s.left, s.right
    m = _mode(obj, s.support_face, left.face, right.face)
    e = _entry(obj, m, left, right)
    planes, landings = e
    out: list[tuple[Action, GraspState]] = []
    for op, action in _moves(m, cfg):
        if type(op) is _Turn:
            nxt = _turn(obj, s, landings.get(action.kind) or _landing(obj, e, op, left, right))
        else:
            nxt = _shift(obj, s, op, action.magnitude, planes)
        if nxt is not None:
            out.append((action, nxt))
    return out


def transition(s: GraspState, a: Action, obj: ObjectModel,
               resolution: ResolutionConfig | None = None, offset: float = 0.0) -> GraspState:
    """Apply one primitive by the magnitude ``a.magnitude + offset``; raises
    InfeasibleActionError.

    The offset lets a noisy replay perturb the plan's own action without
    building a new one.  A translation's applied magnitude must be positive
    and finite, else InvalidInputError, as ``Action`` raises.  A rotation or
    pivot must turn by its mode's angle, within FEAS_TOL.  Given
    ``resolution``, a rotation must also meet its grip limits, as in search's
    move table (``_grips``); without it no ResolutionConfig limit applies.  It
    reads the same orientation entry as search, once.
    """
    left, right = s.left, s.right
    m = _mode(obj, s.support_face, left.face, right.face)
    e = _entry(obj, m, left, right)
    kind = a.kind
    op = m.ops[kind]
    magnitude = a.magnitude + offset
    if op is None:
        nxt = None
    elif type(op) is _Turn:
        fits = abs(op.action.magnitude - magnitude) <= FEAS_TOL and (
            resolution is None or kind == ActionKind.PIVOT or _grips(op, resolution))
        nxt = _turn(obj, s, e[1].get(kind) or _landing(obj, e, op, left, right)) if fits else None
    elif 0.0 < magnitude < math.inf:
        nxt = _shift(obj, s, op, magnitude, e[0])
    else:
        raise InvalidInputError(
            f"{kind.name} magnitude must be positive and finite, got {magnitude!r}")
    if nxt is None:
        raise InfeasibleActionError(f"{kind.name} (magnitude {magnitude:g}) is infeasible here")
    return nxt


def _shift(obj: ObjectModel, s: GraspState, rows: tuple, step: float,
           planes: tuple) -> GraspState | None:
    """The one translation kernel: each listed finger's pad moved by step
    along its unit row (finger, u, v), its centre gaining ``step * u`` and
    ``step * v``.

    planes holds each finger's shrunk half-planes: a move keeps them.
    """
    pads = [s.left, s.right]
    for i, u, v in rows:
        pad = pads[i]
        pads[i] = _fit(obj, planes[i], pad.face, pad.x + step * u, pad.y + step * v,
                       pad.orientation, pad)
        if pads[i] is None:
            return None
    return _new(GraspState, (pads[0], pads[1], s.grasp_pair, s.support_face))


def _turn(obj: ObjectModel, s: GraspState, landing: tuple) -> GraspState | None:
    """The one turn kernel: both pads placed by an orientation entry's landing
    ``(pair, support, pads)`` (see ``_landing``)."""
    xl, yl, xr, yr = s.left.x, s.left.y, s.right.x, s.right.y
    pads = []
    for region, (face_id, (a, b, c, d, e), (f, g, h, i, j), theta, planes) in zip(
            (s.left, s.right), landing[2]):
        pads.append(_fit(obj, planes, face_id, a * xl + b * yl + c * xr + d * yr + e,
                         f * xl + g * yl + h * xr + i * yr + j, theta, region))
        if pads[-1] is None:
            return None
    return _new(GraspState, (pads[0], pads[1], landing[0], landing[1]))


# ---------------------------------------------------------------------------
# Goal-overlap metrics
#
# A pad's covered area is measured on Python floats: its corners (offsets
# plus centre, bit for bit ``corners()``, and already canonical rows) are
# clipped by ``clip_rows`` to each same-face goal's half-planes, and the
# clipped rows' shoelace areas are summed by inclusion-exclusion.  No polygon
# object is built per call.

# The benchmark's per-layer probe (perfbench/layers.py) counts clips as calls
# made through this module's ``convex_intersection``, so the overlap metrics
# call the clip kernel under that name.
convex_intersection = clip_rows


def _covered_area(region: ContactRegion, goals: list[GoalRegion]) -> float:
    """Area of the pad covered by the union of same-face goals.

    Inclusion-exclusion over the goal subsets that meet the pad: intersections
    of convex polygons stay convex.  A subset's intersection is the pad
    clipped by its members in order, and it extends the intersection of the
    subset without its last member, so only subsets whose every prefix meets
    the pad are clipped at all, each once.  The subsets are summed in
    increasing mask order.  So the work is exponential in the number of
    same-face goals that overlap one another and the pad: with nested bands
    on one face a call takes milliseconds at 8 goals and half a second at 16.
    """
    same_face = [g.polygon.planes for g in goals if g.face == region.face]
    if not same_face:
        return 0.0
    x, y = region.x, region.y
    pad = [[u + x, v + y] for u, v in
           corner_offsets(region.orientation, region.pad_width, region.pad_height)]
    met = []  # (intersection, member count) of each subset that meets the pad, by mask
    for planes in same_face:
        grown = [(convex_intersection(pad, planes), 1)]
        grown += [(convex_intersection(inter, planes), bits + 1) for inter, bits in met]
        met += [(inter, bits) for inter, bits in grown if inter is not None]
    total = 0.0
    for inter, bits in met:
        total += (1.0 if bits % 2 == 1 else -1.0) * _signed_area(inter)
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


_KEY_QUANTUM = 1e-7  # lattice spacing of region_cell (m, rad)
# Digit widths of a cell code.  An orientation index is below 2*pi / 1e-7.  A
# centre coordinate on a model's face lies within FACE_COORD_LIMIT + FEAS_TOL
# of the face origin, so its lattice index is a signed digit of magnitude
# below 2**(_XY_BITS - 1) (about 1718 m).  Signed digits of that range keep
# the code one-to-one, and ordered as the (face, x, y, orientation) tuples.
_R_BITS = round(_TWO_PI / _KEY_QUANTUM).bit_length()
_XY_BITS = (int(FACE_COORD_LIMIT / _KEY_QUANTUM) + 1).bit_length() + 1
_X_SHIFT = _R_BITS + _XY_BITS
_FACE_SHIFT = _X_SHIFT + _XY_BITS
_R_MASK = (1 << _R_BITS) - 1


def region_cell(region: ContactRegion) -> int:
    """The pad's lattice cell as one int: face, x, y and orientation mod 2*pi,
    on _KEY_QUANTUM, as the digits of a mixed-radix code.

    Action steps are orders of magnitude larger than the quantum, so equal
    pads share a cell and distinct lattice points never do.  An orientation
    within half a quantum below 2*pi wraps to 0.  Two pads' codes are equal
    exactly when their (face, x, y, orientation) lattice indices are, for
    centres within about 1718 m of the face origin: every pad on a model's
    faces (``ObjectModel.validate`` holds faces to ``FACE_COORD_LIMIT``).
    """
    r = region.orientation % _TWO_PI
    if _TWO_PI - r < 5e-8:
        r = 0.0
    return ((region.face << _FACE_SHIFT) + (round(region.x / _KEY_QUANTUM) << _X_SHIFT)
            + (round(region.y / _KEY_QUANTUM) << _R_BITS) + round(r / _KEY_QUANTUM))


def cell_turn(code: int) -> int:
    """A ``region_cell`` code less its centre: the face and orientation digits,
    as ``face * 2**_R_BITS + orientation index``.

    The centre digits are signed and below ``2**(_XY_BITS - 1)`` in magnitude,
    so they sum to less than half the face digit's weight: rounding the code to
    that weight recovers the face.
    """
    face = (code + (1 << (_FACE_SHIFT - 1))) >> _FACE_SHIFT
    return (face << _R_BITS) + (code & _R_MASK)


def state_key(s: GraspState, parent: GraspState | None = None,
              parent_key: tuple | None = None) -> tuple[int, int, int]:
    """Hashable key for duplicate detection in search: the support face and
    both pads' cells, ``(support face, left cell, right cell)`` (the gripped
    faces fix the grasp pair).

    Given the parent state and its key, a pad the child shares with the parent
    (the same object: a slide moves one pad) keeps the parent's cell.
    """
    left, right = s.left, s.right
    if parent is None:
        return (s.support_face, region_cell(left), region_cell(right))
    return (s.support_face,
            parent_key[1] if left is parent.left else region_cell(left),
            parent_key[2] if right is parent.right else region_cell(right))
