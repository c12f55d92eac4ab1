"""Convex-polygon primitives, prismatic object models, and surface unfolding.

Every operation here is a pure function, and values are immutable after
construction apart from caches: ``ObjectModel.scratch``,
``ObjectModel.fit_planes`` and ``ObjectModel.unfolded`` (see there), each
``ConvexPolygon2``'s half-plane arrays, built from its float tables on first
use, and each ``Face``'s centre and outline, computed on first use.  Units
are meters and radians throughout.

Float contract: each ``ConvexPolygon2`` holds its half-planes and edges as
tuples of Python floats (``planes`` and ``edges``), built once at
construction.  The two queries search and replay make of a polygon, point
distances (``corner_distance_sum``) and clipping (``clip_rows``, over the raw
``clip_ring``), run on those tables.  numpy only builds and validates
polygons, transforms and object models, and serves array callers
(``contains_points``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidGeometryError, InvalidModelError, UngraspableObjectError

# Tolerance for internal invariant checks (double precision headroom at
# centimeter scale) vs. user-facing feasibility decisions.
GEOM_TOL = 1e-9
FEAS_TOL = 1e-6
# Largest face-local coordinate, in m, that any model face may reach.  The
# search's lattice cell codes (``transition.region_cell``) are exact within it.
FACE_COORD_LIMIT = 1e3

_DEDUPE_TOL = 1e-12
_COLLINEAR_TOL = 1e-12


def _rot2(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


class ConvexPolygon2:
    """Convex polygon stored counterclockwise with collinear vertices removed.

    Construction canonicalizes the vertex list (orientation, duplicate and
    collinear removal, on Python floats: ``_canonical``) and rejects
    non-convex or degenerate input.  It then builds the polygon's two float
    tables in one pass over the vertices, edge i running from vertex i to
    vertex i+1: ``planes``, the inward half-planes ``(n0, n1, off)``, inside
    iff ``n0 * x + n1 * y - off >= 0`` for all of them, and ``edges``, the
    rows ``(x, y, dx, dy, dx * dx + dy * dy)``.  The numpy form of the
    half-planes (``halfplanes``) is built from ``planes`` on first use.
    """

    __slots__ = ("vertices", "planes", "edges", "_arrays")

    def __init__(self, vertices) -> None:
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidGeometryError(f"expected an (n, 2) vertex array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InvalidGeometryError("polygon vertices must be finite")
        rows = _dedupe(pts.tolist())
        if len(rows) < 3:
            raise InvalidGeometryError("polygon needs at least 3 distinct vertices")
        rows = _canonical(rows, _signed_area(rows))
        pts = np.array(rows)
        pts.setflags(write=False)
        self.vertices = pts
        planes, edges = [], []
        for (x, y), (u, v) in zip(rows, rows[1:] + rows[:1]):
            dx = u - x
            dy = v - y
            norm = math.sqrt(dy * dy + dx * dx)
            n0, n1 = -dy / norm, dx / norm
            planes.append((n0, n1, n0 * x + n1 * y))
            edges.append((x, y, dx, dy, dx * dx + dy * dy))
        self.planes = tuple(planes)
        self.edges = tuple(edges)
        self._arrays = None

    def __repr__(self) -> str:
        return f"ConvexPolygon2({self.vertices.tolist()})"

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def contains_points(self, pts, tol: float = GEOM_TOL) -> np.ndarray:
        """Vectorized containment for an (m, 2) point array."""
        normals, offsets = self.halfplanes()
        margins = np.asarray(pts, dtype=float) @ normals.T - offsets
        return np.all(margins >= -tol, axis=1)

    def halfplanes(self) -> tuple[np.ndarray, np.ndarray]:
        """Inward unit normals and offsets: inside iff N @ p - b >= 0.

        Read-only C-contiguous arrays of ``planes``' floats, built on first use.
        """
        if self._arrays is None:
            normals = np.array([(n0, n1) for n0, n1, _ in self.planes])
            offsets = np.array([off for _, _, off in self.planes])
            normals.setflags(write=False)
            offsets.setflags(write=False)
            self._arrays = (normals, offsets)
        return self._arrays

    @property
    def centroid(self) -> np.ndarray:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        area = cross.sum() / 2.0
        return ((v + w) * cross[:, None]).sum(axis=0) / (6.0 * area)


def _canonical(pts: list, area: float) -> list:
    """The deduplicated ``[x, y]`` rows ``pts`` (3 or more, of signed area
    ``area``) of a convex polygon, counterclockwise and without collinear
    vertices; raises InvalidGeometryError when they are degenerate or not convex."""
    changed = area < 0.0
    if changed:
        pts.reverse()
    crosses = _edge_crosses(pts)
    # crosses[i] involves vertex i+1; drop one collinear vertex per pass.
    flat = next((i for i, c in enumerate(crosses) if abs(c) <= _COLLINEAR_TOL), None)
    while flat is not None and len(pts) > 3:
        del pts[(flat + 1) % len(pts)]
        changed = True
        crosses = _edge_crosses(pts)
        flat = next((i for i, c in enumerate(crosses) if abs(c) <= _COLLINEAR_TOL), None)
    if flat is not None:
        raise InvalidGeometryError("polygon is degenerate after collinear removal")
    if min(crosses) <= 0.0:
        raise InvalidGeometryError("polygon is not convex")
    if (_signed_area(pts) if changed else area) <= GEOM_TOL * GEOM_TOL:
        raise InvalidGeometryError("polygon area is not positive")
    return pts


def _dedupe(rows: list) -> list:
    """The rows less each one within ``_DEDUPE_TOL`` of the last kept, and less
    trailing rows within it of the first."""
    keep = rows[:1]
    for p in rows[1:]:
        if not _close(p, keep[-1]):
            keep.append(p)
    while len(keep) > 1 and _close(keep[0], keep[-1]):
        keep.pop()
    return keep


def _close(p, q) -> bool:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy) <= _DEDUPE_TOL


def _signed_area(rows: list) -> float:
    """Shoelace area, positive for counterclockwise rows: the sums of
    x[i] * y[i+1] and of x[i+1] * y[i], each first to last, then half their
    difference."""
    fwd = back = 0.0
    for (x, y), (u, v) in zip(rows, rows[1:] + rows[:1]):
        fwd += x * v
        back += u * y
    return (fwd - back) / 2.0


def _edge_crosses(rows: list) -> list:
    """Per vertex i, the cross product of edge i (to vertex i+1) and edge i+1."""
    edges = [(u - x, v - y) for (x, y), (u, v) in zip(rows, rows[1:] + rows[:1])]
    return [ex * fy - ey * fx for (ex, ey), (fx, fy) in zip(edges, edges[1:] + edges[:1])]


def polygon_area(p: ConvexPolygon2) -> float:
    """Shoelace area of a convex polygon, in m^2."""
    return _signed_area(p.vertices.tolist())


def point_to_polygon_distance(c, p: ConvexPolygon2) -> float:
    """Distance from a point to a convex polygon; 0 if inside or on the boundary."""
    x, y = c
    return corner_distance_sum([(float(x), float(y))], p)


def corner_distance_sum(rows: list, p: ConvexPolygon2, bound: float = math.inf) -> float:
    """The sum of the distances from the points ``rows`` to ``p``, stopping at ``bound``.

    ``rows`` are ``[x, y]`` pairs (a pad's corners).  A point is inside, at
    distance 0, when every half-plane margin ``n0 * x + n1 * y - off`` is at
    least ``-GEOM_TOL``; it is outside as soon as one is not, so a NaN
    margin (from a non-finite coordinate) counts as outside.  An outside
    point's distance is to its nearest edge (``_edge_distance``).  The sum
    runs first to last.  Each distance is non-negative and rounding is
    monotone, so the running total never decreases: once it reaches
    ``bound`` the full sum would too, and the running total is returned at
    once, and the points after it are never tested.  A result below
    ``bound`` is exact.
    """
    planes, edges = p.planes, p.edges
    total = 0.0
    for x, y in rows:
        for n0, n1, off in planes:
            if not n0 * x + n1 * y - off >= -GEOM_TOL:
                total += _edge_distance(x, y, edges)
                if total >= bound:
                    return total
                break
    return total


def _edge_distance(x: float, y: float, edges: list) -> float:
    """Distance from (x, y) to the nearest polygon edge."""
    best = math.inf
    for sx, sy, dx, dy, len2 in edges:
        rx = x - sx
        ry = y - sy
        t = (rx * dx + ry * dy) / len2
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        ex = rx - t * dx
        ey = ry - t * dy
        d2 = ex * ex + ey * ey
        if not d2 >= best:  # a NaN propagates, as in numpy's min
            best = d2
            if d2 != d2:
                break
    return math.sqrt(best)


def clip_ring(rows: list, planes) -> list:
    """The convex polygon ``rows`` clipped to the half-planes ``planes``, as
    raw Sutherland-Hodgman output: its vertices in ``rows``' order, with
    nothing merged or dropped, so some may repeat; empty when nothing is left.

    ``rows`` are a convex polygon's ``[x, y]`` vertices; ``planes`` are
    ``(n0, n1, off)`` half-planes.  Each half-plane keeps the vertices with
    ``n0 * x + n1 * y - off >= 0`` and adds the points where an edge crosses
    its line.
    """
    out = rows
    for n0, n1, off in planes:
        if not out:
            return out
        inp, out = out, []
        px, py = inp[-1]
        d_prev = n0 * px + n1 * py - off
        for cur in inp:
            cx, cy = cur
            d_cur = n0 * cx + n1 * cy - off
            if (d_cur >= 0.0) != (d_prev >= 0.0):
                t = d_prev / (d_prev - d_cur)
                out.append([px + t * (cx - px), py + t * (cy - py)])
            if d_cur >= 0.0:
                out.append(cur)
            px, py, d_prev = cx, cy, d_cur
    return out


def clip_rows(rows: list, planes: list) -> list | None:
    """The convex polygon ``rows`` clipped to the half-planes ``planes``, as rows.

    ``rows`` are a convex polygon's ``[x, y]`` vertices, counterclockwise;
    ``planes`` are another's ``(n0, n1, off)`` half-planes (its
    ``ConvexPolygon2.planes``).  Sutherland-Hodgman clipping on Python floats
    (``clip_ring``).  The result is canonical as a ``ConvexPolygon2``'s
    vertices, or None when fewer than 3 vertices stay 1e-12 apart, its area
    is at most 1e-16 m^2, or it is degenerate once collinear vertices are gone.
    """
    out = clip_ring(rows, planes)
    if len(out) < 3:
        return None
    pts = _dedupe(out)
    if len(pts) < 3:
        return None
    area = _signed_area(pts)
    if abs(area) <= 1e-16:
        return None
    try:
        return _canonical(pts, area)
    except InvalidGeometryError:
        return None


def convex_intersection(a: ConvexPolygon2, b: ConvexPolygon2) -> ConvexPolygon2 | None:
    """Clip a against b's half-planes (``clip_rows``); returns None when the
    overlap is empty or degenerate."""
    rows = clip_rows(a.vertices.tolist(), b.planes)
    return None if rows is None else ConvexPolygon2(rows)


# Fourier-Motzkin limits: a coefficient below _FM_ZERO times its row's largest
# is rounding left by a cancelled variable (a perturbation of at most 1e-11
# over FACE_COORD_LIMIT, far below any caller's slack), and a system that grows
# past _FM_ROWS rows is taken as feasible.
_FM_ZERO = 1e-14
_FM_ROWS = 512


def halfspaces_feasible(rows: list, slack: float) -> bool:
    """Whether some point x satisfies every row ``(a_1, ..., a_n, b)`` as
    ``a_1 * x_1 + ... + a_n * x_n >= b - slack``.

    Fourier-Motzkin elimination on Python floats: each step drops the variable
    with the fewest pairs of opposite-signed coefficients, replacing the rows
    that hold it by one positive combination per such pair, each scaled to a
    largest coefficient of 1; of rows with equal coefficients only the
    tightest is kept.  Every combination is implied by the rows, so an
    infeasible verdict is exact up to rounding, far below ``slack``; a system
    that grows past ``_FM_ROWS`` rows is reported feasible, which never
    rejects a feasible one.  Meant for the few variables and dozens of rows of
    a pad-fit test.
    """
    live: dict[tuple, float] = {}
    for row in rows:
        if not _keep_row(live, row[:-1], row[-1] - slack):
            return False
    while live:
        coeffs = list(live)
        best = j = -1
        for k in range(len(coeffs[0])):
            pos = neg = 0
            for a in coeffs:
                if a[k] > 0.0:
                    pos += 1
                elif a[k] < 0.0:
                    neg += 1
            if (pos or neg) and (best < 0 or pos * neg < best):
                best, j = pos * neg, k
        if best + len(coeffs) > _FM_ROWS:
            return True
        above, below, kept = [], [], {}
        for a, b in live.items():
            if a[j] > 0.0:
                above.append((a, b))
            elif a[j] < 0.0:
                below.append((a, b))
            else:
                kept[a] = b
        live = kept
        for a, b in above:
            ca = a[j]
            for c, d in below:
                cc = -c[j]
                row = [x / ca + y / cc for x, y in zip(a, c)]
                row[j] = 0.0
                if not _keep_row(live, row, b / ca + d / cc):
                    return False
    return True


def _keep_row(live: dict, coeffs, b: float) -> bool:
    """Add the row ``coeffs . x >= b`` to ``live`` (coefficient tuple -> bound),
    scaled to a largest coefficient of 1; False when it has no coefficient
    left and demands ``0 >= b`` with b positive."""
    scale = max(map(abs, coeffs))
    if scale == 0.0:
        return b <= 0.0
    tiny = _FM_ZERO * scale
    key = tuple([x / scale if x > tiny or x < -tiny else 0.0 for x in coeffs])
    bound = b / scale
    if bound > live.get(key, -math.inf):
        live[key] = bound
    return True


def polygon_l1_distance(verts: list, ph: float, pz: float, w_h: float, w_z: float) -> float:
    """The weighted L1 distance ``w_h * |dh| + w_z * |dz|`` from (ph, pz) to the
    boundary of the polygon with vertices ``verts`` (rows (h, z), in ring order).

    The distance is piecewise linear along each edge, with breaks only where
    the edge crosses the line h = ph or z = pz through the point; so its
    minimum lies at a vertex or at such a crossing, and one pass over the
    edges finds it.  For a point outside the polygon it is the distance to
    the polygon.
    """
    best = math.inf
    ah, az = verts[-1]
    for bh, bz in verts:
        d = w_h * abs(bh - ph) + w_z * abs(bz - pz)
        if d < best:
            best = d
        if (az < pz) != (bz < pz):
            d = w_h * abs(ah + (pz - az) / (bz - az) * (bh - ah) - ph)
            if d < best:
                best = d
        if (ah < ph) != (bh < ph):
            d = w_z * abs(az + (ph - ah) / (bh - ah) * (bz - az) - pz)
            if d < best:
                best = d
        ah, az = bh, bz
    return best


def rotation_x(angle: float) -> np.ndarray:
    """The 3x3 rotation by angle about x, built from its cosine and sine unchecked."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_z(angle: float) -> np.ndarray:
    """The 3x3 rotation by angle about z, built from its cosine and sine unchecked."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True, eq=False)
class RigidTransform3:
    """Proper rigid transform: x -> rotation @ x + translation.

    The constructor rejects non-finite entries and a rotation that is not
    orthonormal with determinant +1 (to ``GEOM_TOL``).  Transforms compare
    and hash by identity, as numpy arrays define no truth value.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.array(self.rotation, dtype=float)
        tr = np.array(self.translation, dtype=float)
        if rot.shape != (3, 3) or tr.shape != (3,):
            raise InvalidGeometryError("rigid transform needs a 3x3 rotation and 3-vector")
        if not (np.isfinite(rot).all() and np.isfinite(tr).all()):
            raise InvalidGeometryError("rigid transform entries must be finite")
        if np.max(np.abs(rot @ rot.T - np.eye(3))) > GEOM_TOL or abs(np.linalg.det(rot) - 1.0) > GEOM_TOL:
            raise InvalidGeometryError("rotation must be orthonormal with determinant +1")
        rot.setflags(write=False)
        tr.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)

    @classmethod
    def rot_x(cls, angle: float, translation=(0.0, 0.0, 0.0)) -> RigidTransform3:
        return cls(rotation_x(angle), translation)

    @classmethod
    def rot_z(cls, angle: float, translation=(0.0, 0.0, 0.0)) -> RigidTransform3:
        return cls(rotation_z(angle), translation)

    def apply(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return pts @ self.rotation.T + self.translation

    def compose(self, other: RigidTransform3) -> RigidTransform3:
        return RigidTransform3(self.rotation @ other.rotation,
                               self.rotation @ other.translation + self.translation)

    def __matmul__(self, other: RigidTransform3) -> RigidTransform3:
        return self.compose(other)

    def inverse(self) -> RigidTransform3:
        rt = self.rotation.T
        return RigidTransform3(rt, -(rt @ self.translation))


@dataclass(frozen=True, eq=False)
class Face:
    """One planar face: a convex polygon in a local (u, v) frame on the object."""

    id: int
    polygon: ConvexPolygon2
    frame: RigidTransform3  # maps face-local (u, v, 0) to object coordinates
    outward_normal: np.ndarray

    def __post_init__(self) -> None:
        n = np.asarray(self.outward_normal, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > GEOM_TOL:
            raise InvalidGeometryError(f"face {self.id}: outward normal must be unit length")
        if np.max(np.abs(n - self.frame.rotation[:, 2])) > GEOM_TOL:
            raise InvalidGeometryError(f"face {self.id}: normal must equal the frame z-axis")
        n.setflags(write=False)
        object.__setattr__(self, "outward_normal", n)

    @cached_property
    def centre(self) -> tuple[float, float]:
        """The polygon's centroid, face-local, as two floats computed once."""
        return tuple(self.polygon.centroid.tolist())

    @cached_property
    def outline(self) -> np.ndarray:
        """The polygon's vertices in object coordinates, one column each, computed once."""
        out = self.to_object(self.polygon.vertices).T
        out.setflags(write=False)
        return out

    def to_object(self, uv) -> np.ndarray:
        """Lift face-local 2D points into object coordinates."""
        arr = np.asarray(uv, dtype=float)
        single = arr.ndim == 1
        pts = np.atleast_2d(arr)
        pts3 = np.concatenate([pts, np.zeros((pts.shape[0], 1))], axis=1)
        out = self.frame.apply(pts3)
        return out[0] if single else out


@dataclass(frozen=True, eq=False)
class SharedEdge:
    """The edge two faces share, expressed in each face's local frame.

    Endpoint rows correspond across faces: row k in both arrays is the same
    3D point on the object.
    """

    faces: tuple[int, int]
    endpoints: dict[int, np.ndarray]

    def endpoints_in(self, face_id: int) -> np.ndarray:
        return self.endpoints[face_id]


@dataclass(frozen=True, eq=False)
class ObjectModel:
    """Convex right prism: faces, adjacency, and parallel (graspable) face pairs.

    The model itself is immutable.  `scratch` is the transition module's
    grasp-mode table: one entry per grasp mode (support, left and right face)
    reached, built on first use, so it never holds more than faces**2 entries;
    each entry keeps the move table of one resolution config, the last served,
    and a bounded table keyed by the two pads' orientations and sizes: their
    planes and the landings of the turns taken from them.
    `fit_planes` is the transition module's fit-plane table, kept beside
    `scratch` so that `scratch` keeps one entry per grasp mode: per face,
    pad orientation and pad size, the half-planes that hold the centre of a
    pad fitting that face (``transition.face_planes``).  Search, replay and
    the planner's bound all read it; it is cleared when it reaches
    ``transition._PLANE_CAP`` entries.
    `unfolded` holds the heuristic's unfolded map per base face, at most one
    per face.  All three are filled without a lock, as are the pair widths
    and the faces' rims (``rims``), computed on first use.  None of the
    three is a constructor argument, so a ``dataclasses.replace`` copy
    starts with empty tables of its own.
    """

    name: str
    faces: tuple[Face, ...]
    adjacency: dict[tuple[int, int], SharedEdge]
    parallel_pairs: tuple[tuple[int, int], ...]
    cross_section: ConvexPolygon2
    height: float
    lateral_count: int
    scratch: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    fit_planes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    unfolded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def face(self, face_id: int) -> Face:
        return self.faces[face_id]

    def shared_edge(self, a: int, b: int) -> SharedEdge:
        return self.adjacency[(min(a, b), max(a, b))]

    def neighbors(self, face_id: int) -> list[int]:
        out = []
        for (i, j) in self.adjacency:
            if i == face_id:
                out.append(j)
            elif j == face_id:
                out.append(i)
        return sorted(out)

    def pair_width(self, pair_index: int) -> float:
        return self._pair_widths[pair_index]

    @cached_property
    def rims(self) -> tuple:
        """Per face, its shared edges, neighbours ascending, each as (neighbour,
        direction, midpoint) in the face's frame: the endpoints' difference and
        mean, computed once."""
        out = []
        for face in self.faces:
            rims = []
            for neighbor in self.neighbors(face.id):
                pts = self.shared_edge(face.id, neighbor).endpoints_in(face.id)
                rims.append((neighbor, pts[1] - pts[0], (pts[0] + pts[1]) / 2.0))
            out.append(tuple(rims))
        return tuple(out)

    @cached_property
    def _pair_widths(self) -> tuple[float, ...]:
        """Each parallel pair's distance between its two faces' planes, computed once."""
        out = []
        for i, j in self.parallel_pairs:
            fi, fj = self.faces[i], self.faces[j]
            out.append(abs(float(fi.outward_normal @ (fj.frame.translation
                                                       - fi.frame.translation))))
        return tuple(out)

    def pair_of_faces(self, a: int, b: int) -> int:
        key = {a, b}
        for idx, pair in enumerate(self.parallel_pairs):
            if set(pair) == key:
                return idx
        raise InvalidModelError(f"faces {a} and {b} do not form a parallel pair")

    def validate(self) -> None:
        """Cross-check adjacency and parallel-pair invariants (1e-9 tolerances),
        and that every face lies within FACE_COORD_LIMIT of its frame origin.

        Each shared edge's endpoint rows are checked on Python floats: both
        faces must lift each to the same object point, and give the edge
        the same length."""
        for f in self.faces:
            reach = float(np.max(np.abs(f.polygon.vertices)))
            if not reach <= FACE_COORD_LIMIT:
                raise InvalidModelError(
                    f"{self.name}: face {f.id} reaches {reach:g} m from its origin, beyond "
                    f"the {FACE_COORD_LIMIT:g} m face coordinate limit")
        for (i, j), edge in self.adjacency.items():
            rows_i, rows_j = edge.endpoints_in(i).tolist(), edge.endpoints_in(j).tolist()
            pi, pj = _lift(self.faces[i].frame, rows_i), _lift(self.faces[j].frame, rows_j)
            if any(abs(a - b) > GEOM_TOL for p, q in zip(pi, pj) for a, b in zip(p, q)):
                raise InvalidModelError(f"shared edge ({i},{j}) does not coincide in 3D")
            (ai, bi), (ci, di) = rows_i
            (aj, bj), (cj, dj) = rows_j
            if abs(math.hypot(ci - ai, di - bi) - math.hypot(cj - aj, dj - bj)) > GEOM_TOL:
                raise InvalidModelError(f"shared edge ({i},{j}) length mismatch")
        for i, j in self.parallel_pairs:
            dot = float(self.faces[i].outward_normal @ self.faces[j].outward_normal)
            if abs(dot + 1.0) > GEOM_TOL:
                raise InvalidModelError(f"pair ({i},{j}) normals are not opposing")


def _lift(frame: RigidTransform3, rows: list) -> list:
    """Face-local points ``[u, v]`` in object coordinates, as float rows."""
    rot, origin = frame.rotation.tolist(), frame.translation.tolist()
    return [[a * u + b * v + t for (a, b, _), t in zip(rot, origin)] for u, v in rows]


def build_prism(cross_section: ConvexPolygon2, height: float, name: str = "prism") -> ObjectModel:
    """Extrude a convex cross-section along +z into a right prism model.

    Faces 0..k-1 are the lateral rectangles (one per cross-section edge, in
    order), face k is the bottom cap (outward -z), face k+1 the top cap.
    Raises UngraspableObjectError when the cross-section has no antiparallel
    edge pair, since a parallel-jaw grip then has nothing to hold.
    """
    if height <= 0.0:
        raise InvalidGeometryError("prism height must be positive")
    cs = cross_section.vertices
    k = cs.shape[0]
    faces: list[Face] = []
    for i in range(k):
        a, b = cs[i], cs[(i + 1) % k]
        edge = b - a
        length = float(np.linalg.norm(edge))
        d3 = np.array([edge[0], edge[1], 0.0]) / length
        n3 = np.array([edge[1], -edge[0], 0.0]) / length
        rot = np.column_stack([d3, [0.0, 0.0, 1.0], n3])
        frame = RigidTransform3(rot, np.array([a[0], a[1], 0.0]))
        poly = ConvexPolygon2([(0.0, 0.0), (length, 0.0), (length, height), (0.0, height)])
        faces.append(Face(i, poly, frame, n3))
    bottom_id, top_id = k, k + 1
    bottom_rot = np.diag([1.0, -1.0, -1.0])  # local (u, v) -> object (u, -v), normal -z
    bottom_poly = ConvexPolygon2(np.column_stack([cs[:, 0], -cs[:, 1]]))
    faces.append(Face(bottom_id, bottom_poly, RigidTransform3(bottom_rot, np.zeros(3)),
                      np.array([0.0, 0.0, -1.0])))
    top_poly = ConvexPolygon2(cs)
    faces.append(Face(top_id, top_poly, RigidTransform3(np.eye(3), np.array([0.0, 0.0, height])),
                      np.array([0.0, 0.0, 1.0])))

    adjacency: dict[tuple[int, int], SharedEdge] = {}

    def add_edge(i: int, j: int, pts_i: np.ndarray, pts_j: np.ndarray) -> None:
        key = (min(i, j), max(i, j))
        adjacency[key] = SharedEdge((i, j), {i: np.asarray(pts_i, float), j: np.asarray(pts_j, float)})

    for i in range(k):
        j = (i + 1) % k
        li = float(np.linalg.norm(cs[j] - cs[i]))
        add_edge(i, j, [(li, 0.0), (li, height)], [(0.0, 0.0), (0.0, height)])
        a, b = cs[i], cs[(i + 1) % k]
        add_edge(i, bottom_id, [(0.0, 0.0), (li, 0.0)], [(a[0], -a[1]), (b[0], -b[1])])
        add_edge(i, top_id, [(0.0, height), (li, height)], [(a[0], a[1]), (b[0], b[1])])

    pairs: list[tuple[int, int]] = []
    for i in range(k):
        for j in range(i + 1, k):
            dot = float(faces[i].outward_normal @ faces[j].outward_normal)
            if abs(dot + 1.0) <= GEOM_TOL:
                pairs.append((i, j))
    if not pairs:
        raise UngraspableObjectError(
            f"{name}: cross-section has no parallel edge pair, nothing to grip")
    pairs.append((bottom_id, top_id))

    model = ObjectModel(name=name, faces=tuple(faces), adjacency=adjacency,
                        parallel_pairs=tuple(pairs), cross_section=cross_section,
                        height=float(height), lateral_count=k)
    model.validate()
    return model


@dataclass(frozen=True)
class PlanarIsometry:
    """Orientation-preserving 2D rigid map: p -> rot @ p + trans."""

    rot: np.ndarray
    trans: np.ndarray

    def apply(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return pts @ self.rot.T + self.trans

    def compose(self, other: PlanarIsometry) -> PlanarIsometry:
        return PlanarIsometry(self.rot @ other.rot, self.rot @ other.trans + self.trans)

    @classmethod
    def identity(cls) -> PlanarIsometry:
        return cls(np.eye(2), np.zeros(2))


@dataclass(frozen=True, eq=False)
class UnfoldedMap:
    """All faces rotated flat into one plane, keeping the base face fixed.

    The map holds placements only: one planar isometry per face, which
    ``to_plane`` applies to face-local points (a face's image is
    ``to_plane(face, polygon.vertices)``).  Straight-line distances in this
    plane equal surface distances for paths crossing the single shared edge
    used to place each face; longer paths are approximated by the BFS tree
    layout.
    """

    base_face: int
    placements: dict[int, PlanarIsometry]

    def to_plane(self, face_id: int, uv) -> np.ndarray:
        return self.placements[face_id].apply(uv)


def unfold(obj: ObjectModel, base: int) -> UnfoldedMap:
    """Flatten every face into the base face's plane by BFS over shared edges.

    Each face is rotated about the edge shared with its BFS parent; the two
    planar images of that edge coincide exactly, so the map is an isometry
    on each face.
    """
    if base < 0 or base >= len(obj.faces):
        raise InvalidModelError(f"base face {base} does not exist")
    placements: dict[int, PlanarIsometry] = {base: PlanarIsometry.identity()}
    queue = deque([base])
    while queue:
        parent = queue.popleft()
        for child in obj.neighbors(parent):
            if child in placements:
                continue
            edge = obj.shared_edge(parent, child)
            ep = edge.endpoints_in(parent)
            ec = edge.endpoints_in(child)
            dp = ep[1] - ep[0]
            dc = ec[1] - ec[0]
            ang = math.atan2(dc[0] * dp[1] - dc[1] * dp[0], float(dc @ dp))
            rot = _rot2(ang)
            step = PlanarIsometry(rot, ep[0] - rot @ ec[0])
            placements[child] = placements[parent].compose(step)
            queue.append(child)
    if len(placements) != len(obj.faces):
        raise InvalidModelError("face adjacency graph is disconnected")
    return UnfoldedMap(base_face=base, placements=placements)
