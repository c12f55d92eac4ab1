"""Convex-polygon primitives, prismatic object models, and surface unfolding.

Every operation here is a pure function, and values are immutable after
construction apart from caches: ``ObjectModel.scratch`` and
``ObjectModel.unfolded`` (see there), and each ``ConvexPolygon2``'s
plain-float half-plane and edge tables, filled on its first distance query or
clip.  Units are meters and radians throughout.

Float contract: the two queries search and replay make of a polygon, point
distances (``corner_distance_sum``) and clipping (``clip_rows``), run on
Python floats over those tables.  numpy only builds and validates polygons,
transforms and object models, and serves array callers
(``contains_points``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGeometryError, InvalidModelError, UngraspableObjectError

# Tolerance for internal invariant checks (double precision headroom at
# centimeter scale) vs. user-facing feasibility decisions.
GEOM_TOL = 1e-9
FEAS_TOL = 1e-6

_DEDUPE_TOL = 1e-12
_COLLINEAR_TOL = 1e-12


def _rot2(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


class ConvexPolygon2:
    """Convex polygon stored counterclockwise with collinear vertices removed.

    Construction canonicalizes the vertex list (orientation, duplicate and
    collinear removal, on Python floats: ``_canonical``) and rejects
    non-convex or degenerate input.  The first distance query or clip
    against the polygon fills ``_tables``: the half-planes ``(n0, n1, off)``
    and the edges ``(sx, sy, dx, dy, len2)`` as Python floats, so polygons
    that are only tested for containment never build them.
    """

    __slots__ = ("vertices", "_normals", "_offsets", "_tables")

    def __init__(self, vertices) -> None:
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidGeometryError(f"expected an (n, 2) vertex array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InvalidGeometryError("polygon vertices must be finite")
        rows = _dedupe(pts.tolist())
        if len(rows) < 3:
            raise InvalidGeometryError("polygon needs at least 3 distinct vertices")
        pts = np.array(_canonical(rows, _signed_area(rows)))
        pts.setflags(write=False)
        self.vertices = pts
        # Inward half-plane form: inside iff normals @ p - offsets >= 0 for all edges.
        edges = np.roll(pts, -1, axis=0) - pts
        normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        self._normals = normals
        self._offsets = np.einsum("ij,ij->i", normals, pts)
        self._normals.setflags(write=False)
        self._offsets.setflags(write=False)
        self._tables = None

    def __repr__(self) -> str:
        return f"ConvexPolygon2({self.vertices.tolist()})"

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def contains_point(self, p, tol: float = GEOM_TOL) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(self._normals @ p - self._offsets >= -tol))

    def contains_points(self, pts, tol: float = GEOM_TOL) -> np.ndarray:
        """Vectorized containment for an (m, 2) point array."""
        pts = np.asarray(pts, dtype=float)
        margins = pts @ self._normals.T - self._offsets
        return np.all(margins >= -tol, axis=1)

    def halfplanes(self) -> tuple[np.ndarray, np.ndarray]:
        """Inward unit normals and offsets: inside iff N @ p - b >= 0."""
        return self._normals, self._offsets

    def _float_tables(self) -> tuple[list, list]:
        if self._tables is None:
            starts = self.vertices
            dirs = np.roll(starts, -1, axis=0) - starts
            len2 = np.einsum("ij,ij->i", dirs, dirs)
            planes = [(n0, n1, off) for (n0, n1), off in
                      zip(self._normals.tolist(), self._offsets.tolist())]
            edges = [(sx, sy, dx, dy, d2) for (sx, sy), (dx, dy), d2 in
                     zip(starts.tolist(), dirs.tolist(), len2.tolist())]
            self._tables = (planes, edges)
        return self._tables

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
    planes, edges = p._float_tables()
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


def clip_rows(rows: list, planes: list) -> list | None:
    """The convex polygon ``rows`` clipped to the half-planes ``planes``, as rows.

    ``rows`` are a convex polygon's ``[x, y]`` vertices, counterclockwise;
    ``planes`` are another's ``(n0, n1, off)`` half-planes (its
    ``_float_tables()[0]``).  Sutherland-Hodgman clipping on Python floats:
    each half-plane keeps the vertices with ``n0 * x + n1 * y - off >= 0``
    and adds the points where an edge crosses its line.  The result is
    canonical as a ``ConvexPolygon2``'s vertices, or None when fewer than 3
    vertices stay 1e-12 apart, its area is at most 1e-16 m^2, or it is
    degenerate once collinear vertices are gone.
    """
    out = rows
    for n0, n1, off in planes:
        if not out:
            return None
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
    """Clip a against b's half-planes (``clip_rows``, which builds b's float
    tables); returns None when the overlap is empty or degenerate."""
    rows = clip_rows(a.vertices.tolist(), b._float_tables()[0])
    return None if rows is None else ConvexPolygon2(rows)


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
    def _unchecked(cls, rotation: np.ndarray, translation: np.ndarray) -> RigidTransform3:
        """A transform from float arrays its caller composed from rigid
        transforms, without the orthonormality check; the arrays become
        read-only."""
        rotation.setflags(write=False)
        translation.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "rotation", rotation)
        object.__setattr__(out, "translation", translation)
        return out

    @classmethod
    def rot_x(cls, angle: float, translation=(0.0, 0.0, 0.0)) -> RigidTransform3:
        c, s = math.cos(angle), math.sin(angle)
        return cls(np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float), translation)

    @classmethod
    def rot_z(cls, angle: float, translation=(0.0, 0.0, 0.0)) -> RigidTransform3:
        c, s = math.cos(angle), math.sin(angle)
        return cls(np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float), translation)

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
    `unfolded` holds the heuristic's unfolded map per base face, at most one
    per face.  Both are filled without a lock.
    """

    name: str
    faces: tuple[Face, ...]
    adjacency: dict[tuple[int, int], SharedEdge]
    parallel_pairs: tuple[tuple[int, int], ...]
    cross_section: ConvexPolygon2
    height: float
    lateral_count: int
    scratch: dict = field(default_factory=dict, repr=False, compare=False)
    unfolded: dict = field(default_factory=dict, repr=False, compare=False)

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
        i, j = self.parallel_pairs[pair_index]
        fi, fj = self.faces[i], self.faces[j]
        return abs(float(fi.outward_normal @ (fj.frame.translation - fi.frame.translation)))

    def pair_of_faces(self, a: int, b: int) -> int:
        key = {a, b}
        for idx, pair in enumerate(self.parallel_pairs):
            if set(pair) == key:
                return idx
        raise InvalidModelError(f"faces {a} and {b} do not form a parallel pair")

    def validate(self) -> None:
        """Cross-check adjacency and parallel-pair invariants (1e-9 tolerances)."""
        for (i, j), edge in self.adjacency.items():
            pi = self.faces[i].to_object(edge.endpoints_in(i))
            pj = self.faces[j].to_object(edge.endpoints_in(j))
            if np.max(np.abs(pi - pj)) > GEOM_TOL:
                raise InvalidModelError(f"shared edge ({i},{j}) does not coincide in 3D")
            li = np.linalg.norm(np.diff(edge.endpoints_in(i), axis=0))
            lj = np.linalg.norm(np.diff(edge.endpoints_in(j), axis=0))
            if abs(li - lj) > GEOM_TOL:
                raise InvalidModelError(f"shared edge ({i},{j}) length mismatch")
        for i, j in self.parallel_pairs:
            dot = float(self.faces[i].outward_normal @ self.faces[j].outward_normal)
            if abs(dot + 1.0) > GEOM_TOL:
                raise InvalidModelError(f"pair ({i},{j}) normals are not opposing")


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
