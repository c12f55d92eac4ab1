"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different computational route from the
library code: fan triangulation instead of the shoelace, hull-based clipping
instead of half-plane clipping, homogeneous 4x4 motions instead of the
frame-algebra transport, and discretized shortest paths instead of unfolded
planar distances.  The exceptions say so: they keep an earlier array or
tuple form of a library function as the reference its current form is held
to, or write out the float arithmetic the library must reproduce.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.spatial import ConvexHull

from wihmplan.geometry import (
    FEAS_TOL,
    GEOM_TOL,
    ConvexPolygon2,
    ObjectModel,
    RigidTransform3,
    corner_distance_sum,
    halfspaces_feasible,
)
from wihmplan.heuristic import HeuristicCache, fit_polygon, total_heuristic
from wihmplan.transition import (
    TURN_SLACK,
    Action,
    ActionKind,
    ContactRegion,
    GraspState,
    PivotEdgeInfo,
    _object_rotation,
    _Turn,
    shrunk_planes,
    successors,
)

WORLD_DOWN = np.array([0.0, 0.0, -1.0])
LEFT_DIR = np.array([-1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Planar geometry

def fan_area(vertices: np.ndarray) -> float:
    """Polygon area as a fan of triangles anchored at vertex 0."""
    v = np.asarray(vertices, dtype=float)
    total = 0.0
    for i in range(1, len(v) - 1):
        a = v[i] - v[0]
        b = v[i + 1] - v[0]
        total += 0.5 * (a[0] * b[1] - a[1] * b[0])
    return abs(total)


def point_segment_distance(p, a, b) -> float:
    p, a, b = (np.asarray(x, dtype=float) for x in (p, a, b))
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else max(0.0, min(1.0, float((p - a) @ ab) / denom))
    return float(np.linalg.norm(p - (a + t * ab)))


def point_in_convex(p, vertices, tol=1e-12) -> bool:
    """Containment via per-edge cross products (counterclockwise input)."""
    v = np.asarray(vertices, dtype=float)
    p = np.asarray(p, dtype=float)
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol:
            return False
    return True


def point_polygon_distance(p, vertices) -> float:
    v = np.asarray(vertices, dtype=float)
    if point_in_convex(p, v):
        return 0.0
    return min(point_segment_distance(p, v[i], v[(i + 1) % len(v)]) for i in range(len(v)))


def array_points_to_polygon_distance(pts, poly: ConvexPolygon2) -> np.ndarray:
    """The library's point-to-polygon distance in its original array form.

    Like ``pad_corners_inside``, an exception to this module's rule of
    separate routes: the library now loops over Python floats, and this is
    the reference whose bytes it must reproduce for every point whose
    smallest margin lies clear of ``-GEOM_TOL``.  Its ``pts @ normals.T``
    inside test is a matrix product, which may round a margin differently
    by a few ulps, so within ulps of the threshold its verdict may differ.
    """
    pts = np.asarray(pts, dtype=float)
    normals, offsets = poly.halfplanes()
    margins = pts @ normals.T - offsets          # (m, k)
    inside = np.all(margins >= -GEOM_TOL, axis=1)
    starts = poly.vertices
    dirs = np.roll(starts, -1, axis=0) - starts
    len2 = np.einsum("ij,ij->i", dirs, dirs)
    rel = pts[:, None, :] - starts[None, :, :]  # (m, k, 2)
    t = np.einsum("mkj,kj->mk", rel, dirs) / len2
    np.clip(t, 0.0, 1.0, out=t)
    diff = rel - t[:, :, None] * dirs[None, :, :]
    d2 = np.einsum("mkj,mkj->mk", diff, diff)
    out = np.sqrt(d2.min(axis=1))
    out[inside] = 0.0
    return out


def float_points_to_polygon_distance(rows, poly: ConvexPolygon2) -> tuple[list, list]:
    """Per point, its distance to the polygon (0 when inside) and its smallest
    half-plane margin, on Python floats.

    Another exception to the separate routes: it is the arithmetic the
    library's kernel (``geometry.corner_distance_sum``) must reproduce byte
    for byte, written out once more from the polygon's arrays rather than
    its cached tables.  A point is inside when every margin
    ``n0 * x + n1 * y - off`` is at least ``-GEOM_TOL`` (a NaN margin is
    not); an outside point's distance is the smallest over edges of
    ``|r - t d|`` with ``t = clamp((r . d) / |d|^2, 0, 1)``.
    """
    normals, offsets = poly.halfplanes()
    planes = list(zip(normals.tolist(), offsets.tolist()))
    verts = poly.vertices.tolist()
    edges = [(sx, sy, ex - sx, ey - sy)
             for (sx, sy), (ex, ey) in zip(verts, verts[1:] + verts[:1])]
    dists, lows = [], []
    for x, y in rows:
        margins = [n0 * x + n1 * y - off for (n0, n1), off in planes]
        lows.append(min(margins))
        if all(m >= -GEOM_TOL for m in margins):
            dists.append(0.0)
            continue
        d2s = []
        for sx, sy, dx, dy in edges:
            rx, ry = x - sx, y - sy
            t = min(1.0, max(0.0, (rx * dx + ry * dy) / (dx * dx + dy * dy)))
            ex, ey = rx - t * dx, ry - t * dy
            d2s.append(ex * ex + ey * ey)
        dists.append(math.sqrt(min(d2s)))
    return dists, lows


def corner_sum(region: ContactRegion, goal_index: int, cache: HeuristicCache) -> float:
    """Sum of the 4 corner distances to one goal, measured in the unfolded plane.

    Another exception to the separate routes: it builds the corners with the
    pad's numpy ``corners()``, the reference whose bytes the heuristic's memo
    miss path, which adds the centre to cached corner offsets, must reproduce.
    """
    image = cache.goal_image(region.face, goal_index)
    return corner_distance_sum(region.corners().tolist(), image)


def array_convex_intersection(a_vertices, b: ConvexPolygon2) -> np.ndarray | None:
    """The library's clip in its original numpy form: the vertices of a clipped
    to b's half-planes, canonical as a ``ConvexPolygon2``'s, or None.

    An exception to the separate routes: the library now clips on Python
    floats (``geometry.clip_rows``), and this is the reference it is held to.
    Its signed distances come from numpy's 2-vector ``dot``, which may fuse
    multiply-adds, so the float form may differ from it by a few ulps.
    """
    out = list(np.asarray(a_vertices, dtype=float))
    normals, offsets = b.halfplanes()
    for n, off in zip(normals, offsets):
        if not out:
            return None
        inp = out
        out = []
        prev = inp[-1]
        d_prev = float(n @ prev) - off
        for cur in inp:
            d_cur = float(n @ cur) - off
            if d_cur >= 0.0:
                if d_prev < 0.0:
                    t = d_prev / (d_prev - d_cur)
                    out.append(prev + t * (cur - prev))
                out.append(cur)
            elif d_prev >= 0.0:
                t = d_prev / (d_prev - d_cur)
                out.append(prev + t * (cur - prev))
            prev, d_prev = cur, d_cur
    if len(out) < 3:
        return None
    pts = _array_dedupe(np.asarray(out))
    if pts.shape[0] < 3 or abs(array_signed_area(pts)) <= 1e-16:
        return None
    return _array_canonical(pts)


def _array_canonical(pts: np.ndarray) -> np.ndarray | None:
    """The original ``ConvexPolygon2`` canonicalization, None where it raised."""
    pts = _array_dedupe(pts)
    if pts.shape[0] < 3:
        return None
    if array_signed_area(pts) < 0.0:
        pts = pts[::-1].copy()
    pts = _array_strip_collinear(pts)
    if pts.shape[0] < 3 or np.any(_array_edge_crosses(pts) <= 0.0):
        return None
    if array_signed_area(pts) <= GEOM_TOL * GEOM_TOL:
        return None
    return pts


def _array_dedupe(pts: np.ndarray) -> np.ndarray:
    keep = []
    for i in range(pts.shape[0]):
        if not keep or np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-12:
            keep.append(i)
    if len(keep) > 1 and np.linalg.norm(pts[keep[0]] - pts[keep[-1]]) <= 1e-12:
        keep.pop()
    return pts[keep]


def array_signed_area(pts: np.ndarray) -> float:
    """The library's original shoelace area, with numpy dot products."""
    x, y = pts[:, 0], pts[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)) / 2.0


def _array_edge_crosses(pts: np.ndarray) -> np.ndarray:
    e = np.roll(pts, -1, axis=0) - pts
    e_next = np.roll(e, -1, axis=0)
    return e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]


def _array_strip_collinear(pts: np.ndarray) -> np.ndarray:
    changed = True
    while changed and pts.shape[0] > 3:
        cross = _array_edge_crosses(pts)
        idx = np.nonzero(np.abs(cross) <= 1e-12)[0]
        if idx.size == 0:
            changed = False
        else:
            pts = np.delete(pts, (idx[0] + 1) % pts.shape[0], axis=0)
    if pts.shape[0] == 3 and np.any(np.abs(_array_edge_crosses(pts)) <= 1e-12):
        return pts[:2]
    return pts


def _segment_intersections(a0, a1, b0, b1):
    d1 = a1 - a0
    d2 = b1 - b0
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) < 1e-15:
        return None
    t = ((b0[0] - a0[0]) * d2[1] - (b0[1] - a0[1]) * d2[0]) / denom
    u = ((b0[0] - a0[0]) * d1[1] - (b0[1] - a0[1]) * d1[0]) / denom
    if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
        return a0 + t * d1
    return None


def hull_clip(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Intersection of two convex polygons via point collection + hull: its
    vertices, counterclockwise, or an empty array when it has no area."""
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    pts = [p for p in pa if point_in_convex(p, pb)]
    pts += [p for p in pb if point_in_convex(p, pa)]
    for i in range(len(pa)):
        for j in range(len(pb)):
            hit = _segment_intersections(pa[i], pa[(i + 1) % len(pa)],
                                         pb[j], pb[(j + 1) % len(pb)])
            if hit is not None:
                pts.append(hit)
    if len(pts) < 3:
        return np.empty((0, 2))
    pts = np.asarray(pts)
    try:
        hull = ConvexHull(pts, qhull_options="QJ")
    except Exception:
        return np.empty((0, 2))
    return pts[hull.vertices]  # 2D hull vertices run counterclockwise


def hull_clip_area(pa: np.ndarray, pb: np.ndarray) -> float:
    """Intersection area of two convex polygons via point collection + hull."""
    return fan_area(hull_clip(pa, pb))


def hull_covered_area(pad: np.ndarray, goals: list) -> float:
    """Area of the pad covered by the union of the goal polygons: inclusion-exclusion
    over goal subsets, each subset's intersection taken by chained ``hull_clip``."""
    total = 0.0
    for mask in range(1, 1 << len(goals)):
        inter = np.asarray(pad, dtype=float)
        for i, goal in enumerate(goals):
            if mask >> i & 1 and len(inter):
                inter = hull_clip(inter, goal)
        total += (1.0 if bin(mask).count("1") % 2 else -1.0) * fan_area(inter)
    return total


def pad_corners_inside(obj: ObjectModel, region: ContactRegion, tol: float = 1e-6) -> bool:
    """Whether all 4 pad corners lie within tol of the face's half-planes.

    The exception to this module's rule of separate routes: it keeps the
    corner-by-half-plane arithmetic of the library's original containment
    test, so verdicts can be compared even for pads within ulps of tol.
    """
    normals, offsets = obj.face(region.face).polygon.halfplanes()
    margins = region.corners() @ normals.T - offsets
    return bool(np.all(margins >= -tol))


def reference_cell(region: ContactRegion) -> tuple[int, int, int, int]:
    """The earlier tuple form of ``transition.region_cell``: face, then x, y and
    orientation mod 2*pi as indices on the 1e-7 lattice, an orientation within
    half a quantum below 2*pi wrapped to 0.  Two pads' cell codes must be equal
    exactly when these tuples are."""
    r = region.orientation % (2.0 * math.pi)
    if 2.0 * math.pi - r < 5e-8:
        r = 0.0
    return (region.face, round(region.x / 1e-7), round(region.y / 1e-7), round(r / 1e-7))


# ---------------------------------------------------------------------------
# Surface distance

def geodesic_across_edge(obj: ObjectModel, face_a: int, pa, face_b: int, pb,
                         samples: int = 4001) -> float:
    """Shortest two-leg path across the shared edge, by dense discretization."""
    edge = obj.shared_edge(face_a, face_b)
    e_a = edge.endpoints_in(face_a)
    a3 = obj.face(face_a).to_object(np.asarray(pa, dtype=float))
    b3 = obj.face(face_b).to_object(np.asarray(pb, dtype=float))
    ts = np.linspace(0.0, 1.0, samples)
    pts_local = e_a[0][None, :] + ts[:, None] * (e_a[1] - e_a[0])[None, :]
    pts3 = obj.face(face_a).to_object(pts_local)
    total = np.linalg.norm(pts3 - a3, axis=1) + np.linalg.norm(pts3 - b3, axis=1)
    return float(total.min())


# ---------------------------------------------------------------------------
# Homogeneous-transform transition oracles

def hom(rot: np.ndarray, trans) -> np.ndarray:
    out = np.eye(4)
    out[:3, :3] = rot
    out[:3, 3] = np.asarray(trans, dtype=float)
    return out


def hom_rot_axis(axis: np.ndarray, angle: float, point: np.ndarray) -> np.ndarray:
    """Rotation about the line through `point` along `axis` (Rodrigues)."""
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    rot = np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * (kx @ kx)
    move = hom(rot, np.zeros(3))
    shift_in = hom(np.eye(3), -np.asarray(point))
    shift_out = hom(np.eye(3), np.asarray(point))
    return shift_out @ move @ shift_in


def object_placement(obj: ObjectModel, s: GraspState) -> np.ndarray:
    """Object-to-world homogeneous placement implied by the state convention.

    Solves the alignment constraints (support normal down, left normal along
    -x) as a linear system rather than composing a basis product.
    """
    n_s = obj.face(s.support_face).outward_normal
    n_l = obj.face(s.left.face).outward_normal
    third = np.cross(n_s, n_l)
    basis_obj = np.column_stack([n_l, third, n_s])
    basis_world = np.column_stack([LEFT_DIR, np.cross(WORLD_DOWN, LEFT_DIR), WORLD_DOWN])
    rot = np.linalg.solve(basis_obj.T, basis_world.T).T
    support_vertex = obj.face(s.support_face).to_object(
        obj.face(s.support_face).polygon.vertices[0])
    tz = -(rot @ support_vertex)[2]
    return hom(rot, [0.0, 0.0, tz])


def face_world_frame(obj: ObjectModel, face_id: int, placement: np.ndarray) -> np.ndarray:
    face = obj.face(face_id)
    local = hom(face.frame.rotation, face.frame.translation)
    return placement @ local


def region_world_corners(obj: ObjectModel, region: ContactRegion,
                         placement: np.ndarray) -> np.ndarray:
    frame = face_world_frame(obj, region.face, placement)
    corners = region.corners()
    corners3 = np.column_stack([corners, np.zeros(len(corners)), np.ones(len(corners))])
    return (frame @ corners3.T).T[:, :3]


def project_rect_to_face(corners_world: np.ndarray, face_frame_world: np.ndarray,
                         face_poly_vertices: np.ndarray):
    """Express a world rectangle in a face frame (dropping the normal coord),
    requiring full containment; returns (center, orientation) or None."""
    inv = np.linalg.inv(face_frame_world)
    uv = []
    for c in corners_world:
        local = inv @ np.append(c, 1.0)
        uv.append(local[:2])
    uv = np.asarray(uv)
    area = fan_area(uv)
    clipped = hull_clip_area(uv, face_poly_vertices)
    if abs(clipped - area) > 1e-9:
        return None
    center = uv.mean(axis=0)
    d = uv[1] - uv[0]
    return center, math.atan2(d[1], d[0])


def oracle_rotate(obj: ObjectModel, s: GraspState, ccw: bool, magnitude: float):
    """Transport both contacts through an explicit rigid in-hand rotation.

    Returns (new_left, new_right, new_pair_index) with regions as
    (face, center, orientation), or None when the motion is infeasible.
    """
    placement = object_placement(obj, s)
    left_corners = region_world_corners(obj, s.left, placement)
    right_corners = region_world_corners(obj, s.right, placement)
    centroid = (left_corners.mean(axis=0) + right_corners.mean(axis=0)) / 2.0
    sigma = -1.0 if ccw else 1.0  # ccw label = negative world spin
    motion = hom_rot_axis(np.array([0.0, 0.0, 1.0]), sigma * magnitude, centroid)
    placement_new = motion @ placement

    new_left_face = new_right_face = pair_idx = None
    for idx, pair in enumerate(obj.parallel_pairs):
        for f in pair:
            n_w = placement_new[:3, :3] @ obj.face(f).outward_normal
            if np.allclose(n_w, LEFT_DIR, atol=1e-6):
                new_left_face = f
                new_right_face = pair[0] if pair[1] == f else pair[1]
                pair_idx = idx
    if new_left_face is None or s.support_face in (new_left_face, new_right_face):
        return None

    out = []
    for corners, face_id in ((left_corners, new_left_face), (right_corners, new_right_face)):
        frame = face_world_frame(obj, face_id, placement_new)
        projected = project_rect_to_face(corners, frame, obj.face(face_id).polygon.vertices)
        if projected is None:
            return None
        out.append((face_id, projected[0], projected[1]))
    return out[0], out[1], pair_idx


def oracle_pivot(obj: ObjectModel, s: GraspState):
    """Tip the object over the +y support edge with an explicit rigid motion.

    Returns (new_left, new_right, new_support) with regions as
    (face, center, orientation), or None when no pivot edge exists.
    """
    placement = object_placement(obj, s)
    support = obj.face(s.support_face)
    sup_frame = face_world_frame(obj, s.support_face, placement)
    verts = support.polygon.vertices
    verts3 = np.column_stack([verts, np.zeros(len(verts)), np.ones(len(verts))])
    verts_w = (sup_frame @ verts3.T).T[:, :3]
    centroid_y = verts_w[:, 1].mean()

    edge_pts = None
    neighbor = None
    for i in range(len(verts_w)):
        a, b = verts_w[i], verts_w[(i + 1) % len(verts_w)]
        d = b - a
        d = d / np.linalg.norm(d)
        if abs(d[1]) > 1e-6 or abs(d[2]) > 1e-6:
            continue
        if (a[1] + b[1]) / 2.0 <= centroid_y:
            continue
        edge_pts = (a, b)
        la, lb = verts[i], verts[(i + 1) % len(verts)]
        a_obj = support.to_object(la)
        b_obj = support.to_object(lb)
        for cand in obj.neighbors(s.support_face):
            ep = obj.face(cand).to_object(obj.shared_edge(s.support_face, cand).endpoints_in(cand))
            if (min(np.linalg.norm(ep - a_obj, axis=1)) < 1e-9
                    and min(np.linalg.norm(ep - b_obj, axis=1)) < 1e-9):
                neighbor = cand
                break
        break
    if edge_pts is None or neighbor is None:
        return None

    n_new_w = placement[:3, :3] @ obj.face(neighbor).outward_normal
    chi = math.atan2(n_new_w[1] * WORLD_DOWN[2] - n_new_w[2] * WORLD_DOWN[1],
                     float(n_new_w[1:] @ WORLD_DOWN[1:]))
    motion = hom_rot_axis(np.array([1.0, 0.0, 0.0]), chi, edge_pts[0])
    placement_new = motion @ placement

    down_check = placement_new[:3, :3] @ obj.face(neighbor).outward_normal
    assert np.allclose(down_check, WORLD_DOWN, atol=1e-9)

    out = []
    for region in (s.left, s.right):
        corners_w = region_world_corners(obj, region, placement)
        center_w = corners_w.mean(axis=0)
        center_new = (motion @ np.append(center_w, 1.0))[:3]
        # hand orientation is restored at the end: keep the old world offsets
        corners_new = center_new + (corners_w - center_w)
        frame = face_world_frame(obj, region.face, placement_new)
        projected = project_rect_to_face(corners_new, frame,
                                         obj.face(region.face).polygon.vertices)
        if projected is None:
            return None
        out.append((region.face, projected[0], projected[1]))
    return out[0], out[1], neighbor


# ---------------------------------------------------------------------------
# Grasp-mode table oracle
#
# Another exception to the separate routes: the mode table's numpy
# construction as it stood before its turns were built in one candidate pass
# from per-face constants.  It scans the candidate faces once per rotation
# direction, builds each spin through the checked ``RigidTransform3``, and
# lifts the new left face's polygon for every turn.  The library's table must
# reproduce it bit for bit.

def _oracle_face_axes(rot: np.ndarray, obj: ObjectModel, face_id: int):
    rw = rot @ obj.face(face_id).frame.rotation
    horiz = rw[1, :2]
    up = rw[2, :2]
    return (tuple((horiz / math.sqrt(horiz[0] ** 2 + horiz[1] ** 2)).tolist()),
            tuple((up / math.sqrt(up[0] ** 2 + up[1] ** 2)).tolist()))


def _oracle_turn(obj, rot, faces, action, pair, support, rot_new, new_faces, centres):
    fingers = []
    for old, new, centre in zip(faces[1:], new_faces, centres):
        e = (rot_new @ obj.face(new).frame.rotation).T @ rot @ obj.face(old).frame.rotation
        fingers.append((new, tuple(centre[0].tolist()), tuple(centre[1].tolist()),
                        math.atan2(e[1, 0], e[0, 0]) + 0.0))
    face = obj.face(new_faces[0])
    verts_y = (rot_new @ face.to_object(face.polygon.vertices).T)[1]
    return _Turn(action, pair, support, tuple(fingers), obj.pair_width(pair),
                 float(verts_y.max() - verts_y.min()))


def _oracle_rotation(obj, rot, tz, faces, width, kind):
    support_face, left_face, right_face = faces
    ccw = kind == ActionKind.ROTATE_CCW
    best = None
    for pair_idx, pair in enumerate(obj.parallel_pairs):
        for k, candidate_left in enumerate(pair):
            if candidate_left == left_face:
                continue
            n_w = rot @ obj.face(candidate_left).outward_normal
            if abs(float(n_w @ np.array([0.0, 0.0, 1.0]))) > FEAS_TOL:
                continue
            phi = math.atan2(n_w[0] * LEFT_DIR[1] - n_w[1] * LEFT_DIR[0],
                             float(n_w[:2] @ LEFT_DIR[:2]))
            if not ccw and phi <= FEAS_TOL:
                phi += 2.0 * math.pi
            if ccw and phi >= -FEAS_TOL:
                phi -= 2.0 * math.pi
            if ccw:
                phi = -phi
            if phi <= FEAS_TOL or phi > math.pi + FEAS_TOL:
                continue
            if best is None or phi < best[0] - GEOM_TOL:
                best = (phi, pair_idx, candidate_left, pair[1 - k])
    if best is None:
        return None
    magnitude, pair_idx, *new_faces = best
    rz = RigidTransform3.rot_z(-magnitude if ccw else magnitude).rotation
    rot_new = rz @ rot
    offset = np.array([0.0, 0.0, tz])
    world = []
    for i, face_id in enumerate((left_face, right_face)):
        frame = obj.face(face_id).frame
        p = np.zeros((3, 5))
        p[:, 2 * i:2 * i + 2] = rot @ frame.rotation[:, :2]
        p[:, 4] = rot @ frame.translation + offset
        world.append(p)
    centroid = (world[0] + world[1]) / 2.0
    centres = []
    for p, new in zip(world, new_faces):
        frame = obj.face(new).frame
        rel = p + rz @ centroid - centroid
        rel[:, 4] -= rz @ (rot @ frame.translation + offset)
        centres.append(((rot_new @ frame.rotation).T @ rel)[:2])
    return _oracle_turn(obj, rot, faces, Action(kind, magnitude, arc_radius=width / 2.0),
                        pair_idx, support_face, rot_new, tuple(new_faces), centres)


def _oracle_pivot_edge(obj, rot, tz, support_face):
    support = obj.face(support_face)
    rot_support = rot @ support.frame.rotation
    t_support = rot @ support.frame.translation + np.array([0.0, 0.0, tz])
    centroid_w = rot_support[:, :2] @ support.polygon.centroid + t_support
    for neighbor in obj.neighbors(support_face):
        pts = obj.shared_edge(support_face, neighbor).endpoints_in(support_face)
        d_w = rot_support[:, :2] @ (pts[1] - pts[0])
        d_w /= math.sqrt(float(d_w @ d_w))
        if abs(d_w[1]) > FEAS_TOL or abs(d_w[2]) > FEAS_TOL:
            continue
        mid_w = rot_support[:, :2] @ ((pts[0] + pts[1]) / 2.0) + t_support
        if mid_w[1] <= centroid_w[1]:
            continue
        n_new_w = rot @ obj.face(neighbor).outward_normal
        chi = math.atan2(n_new_w[1] * WORLD_DOWN[2] - n_new_w[2] * WORLD_DOWN[1],
                         float(n_new_w[1:] @ WORLD_DOWN[1:]))
        return PivotEdgeInfo(chi, neighbor, mid_w)
    return None


def mode_table_oracle(obj: ObjectModel, support_face: int, left_face: int,
                      right_face: int) -> dict:
    """The grasp mode's width, face axes, pivot edge and turns (``_Turn`` per
    rotation kind and PIVOT, None where the mode lacks it), built the old way."""
    faces = (support_face, left_face, right_face)
    pair = obj.pair_of_faces(left_face, right_face)
    rot = _object_rotation(obj, support_face, left_face)
    tz = -float(rot[2] @ obj.face(support_face).frame.translation)
    width = obj.pair_width(pair)
    turns = {kind: _oracle_rotation(obj, rot, tz, faces, width, kind)
             for kind in (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW)}
    edge = _oracle_pivot_edge(obj, rot, tz, support_face)
    turns[ActionKind.PIVOT] = None if edge is None else _oracle_turn(
        obj, rot, faces, Action(ActionKind.PIVOT, abs(edge.angle), arc_radius=width / 2.0),
        pair, edge.new_support,
        RigidTransform3.rot_x(edge.angle).rotation @ rot, (left_face, right_face),
        (np.eye(4, 5)[:2], np.eye(4, 5)[2:]))
    return {"width": width, "axes": (_oracle_face_axes(rot, obj, left_face),
                                     _oracle_face_axes(rot, obj, right_face)),
            "pivot_edge": edge, "turns": turns}


# ---------------------------------------------------------------------------
# Kinematics oracle

def dh_oracle_matrix(theta: float, d: float, a: float, alpha: float) -> np.ndarray:
    """The same DH step as four explicit elementary homogeneous transforms."""
    ct, st = math.cos(theta), math.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    rot_z = np.array([[ct, -st, 0, 0], [st, ct, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    trans_z = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, d], [0, 0, 0, 1]])
    trans_x = np.array([[1, 0, 0, a], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    rot_x = np.array([[1, 0, 0, 0], [0, ca, -sa, 0], [0, sa, ca, 0], [0, 0, 0, 1]])
    return rot_z @ trans_z @ trans_x @ rot_x


def chain_oracle(rows) -> np.ndarray:
    out = np.eye(4)
    for row in rows:
        out = out @ dh_oracle_matrix(row.theta, row.d, row.a, row.alpha)
    return out


# ---------------------------------------------------------------------------
# Search oracles

# (object geometry, start, resolution, max_states) -> (states, actions): see state_graph.
_GRAPHS: dict = {}


def _geometry_key(obj) -> tuple:
    """The object's geometry by value: each face's polygon and frame, and the pairs."""
    return (obj.parallel_pairs,) + tuple(
        (f.polygon.vertices.tobytes(), f.frame.rotation.tobytes(), f.frame.translation.tobytes())
        for f in obj.faces)


def state_graph(obj, s0, resolution, max_states=100_000):
    """Full reachable graph: {key: state}, {key: [(child_key, action)]}.

    The graph holds no costs, so every cost config shares it: it is enumerated
    once per object geometry, start and resolution (compared by value) and kept
    for the session.  Callers must not modify it.
    """
    from wihmplan.transition import state_key, successors

    cache_key = (_geometry_key(obj), s0, resolution, max_states)
    if cache_key in _GRAPHS:
        return _GRAPHS[cache_key]
    k0 = state_key(s0)
    states = {k0: s0}
    edges: dict = {}
    frontier = [(k0, s0)]
    while frontier:
        nxt = []
        for k, st in frontier:
            if k in edges:
                continue
            outs = []
            for act, child in successors(st, obj, resolution):
                ck = state_key(child)
                if ck not in states:
                    states[ck] = child
                    nxt.append((ck, child))
                outs.append((ck, act))
            edges[k] = outs
            if len(states) > max_states:
                raise RuntimeError("state space larger than expected")
        frontier = nxt
    _GRAPHS[cache_key] = states, edges
    return states, edges


def enumerate_state_graph(obj, s0, resolution, cost_cfg, max_states=100_000):
    """Full reachable graph: {key: state}, {key: [(child_key, edge_cost)]}."""
    from wihmplan.planner import action_cost

    states, edges = state_graph(obj, s0, resolution, max_states)
    step = resolution.slide_step
    return states, {k: [(ck, action_cost(act, cost_cfg, step)) for ck, act in outs]
                    for k, outs in edges.items()}


def optimal_cost_to_goals(edges, goal_keys):
    """Dijkstra on the reversed graph from every goal state."""
    from collections import defaultdict

    reverse = defaultdict(list)
    for k, outs in edges.items():
        for ck, cost in outs:
            reverse[ck].append((k, cost))
    dist = {gk: 0.0 for gk in goal_keys}
    heap = [(0.0, i, gk) for i, gk in enumerate(sorted(goal_keys))]
    heapq.heapify(heap)
    counter = len(heap)
    while heap:
        d, _, k = heapq.heappop(heap)
        if d > dist.get(k, math.inf):
            continue
        for pk, cost in reverse[k]:
            nd = d + cost
            if nd < dist.get(pk, math.inf) - 1e-15:
                dist[pk] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, pk))
    return dist


def halfplane_bound(bound, s, key) -> float:
    """The abstract-graph bound at s in its earlier, looser form, on ``bound``'s
    own tables: min(h_stay, X), X the node's position-free exit (``bound.exits``)
    and h_stay per pad the least, over its goal images, of the largest fit
    half-plane violation over its dual norm (the distance to one half-plane)."""
    from wihmplan.transition import cell_turn

    node = (key[0], cell_turn(key[1]), cell_turn(key[2]))
    exit_cost = bound.exits.get(node)
    if exit_cost is None:
        return 0.0
    stay = 0.0
    for i, pad in enumerate((s.left, s.right)):
        images = bound._finger(i, node)[4]
        stay += min((max([0.0] + [(b - n0 * pad.x - n1 * pad.y) * scale
                                  for n0, n1, b, scale in rows]) for rows, _ in images),
                    default=math.inf)
    return min(stay, exit_cost)


def all_image_goal_fits(bound, pad: ContactRegion) -> list:
    """``bound._goal_fits(pad)`` in its earlier form: every goal, on any face,
    unfolded into the pad's face plane (``HeuristicCache.goal_image``) and
    tested on the face's shrunk half-planes plus the image's fit rows.

    An exception to the separate routes: it keeps the library's earlier
    all-image test as the reference its same-face test is held to."""
    cache = HeuristicCache(bound.obj, bound.goals)
    shape = (pad.orientation, pad.pad_width, pad.pad_height)
    face = shrunk_planes(bound.obj.face(pad.face).polygon, *shape, FEAS_TOL)
    fits = []
    for g in range(len(bound.goals)):
        image = cache.goal_image(pad.face, g)
        fit = shrunk_planes(image, *shape, bound.tau)
        if halfspaces_feasible(face + fit, TURN_SLACK):
            fits.append((fit, fit_polygon(image, fit, bound.tau)))
    return fits


# ---------------------------------------------------------------------------
# Search

def eager_plan(obj, s0, goals, resolution, cost):
    """``planner.plan`` as it was before delayed evaluation: each child's f
    (its bound, and h where the bound allows a goal, or lambda * h with the
    bound off) is computed when it is pushed, and the open list holds
    ``(f, -g, counter, state key, node)``.

    An exception to the separate routes: it keeps the library's earlier
    push-time loop as the reference its pop-time evaluation is held to, so
    it calls ``heapq``, ``successors`` and ``total_heuristic`` through this
    module, where a test can wrap them."""
    from wihmplan import planner as planner_mod
    from wihmplan.transition import region_outside_goal, state_key

    expanded_mark, slack = planner_mod._EXPANDED, planner_mod._GOAL_SLACK
    cost.validate()
    resolution.validate()
    cache = HeuristicCache(obj, goals)
    lam, w = cost.heuristic_scale, cost.tradeoff_weight
    costs: dict = {}
    root_key = state_key(s0)
    bound, b0 = planner_mod._abstract_bound(obj, s0, root_key, cache, resolution, cost, costs)
    if b0 == math.inf:
        bound, b0 = None, 0.0
    h0 = total_heuristic(s0, cache, root_key) if bound is None or b0 <= slack else None
    root = (s0, 0.0, h0, None, None)
    counter = 0
    open_heap = [(lam * h0 if bound is None else b0, -0.0, counter, root_key, root)]
    best_g = {root_key: 0.0}
    best_effort, best_effort_score = root, region_outside_goal(s0, goals)
    expansions = 0
    goal_node = None
    while open_heap:
        f, _, _, key, node = heapq.heappop(open_heap)
        if best_g[key] == expanded_mark:
            continue
        state, g, h = node[0], node[1], node[2]
        if h is not None and h <= cost.goal_tolerance:
            goal_node = node
            break
        best_g[key] = expanded_mark
        expansions += 1
        if w * g < best_effort_score:
            score = region_outside_goal(state, goals) + w * g
            if score < best_effort_score:
                best_effort_score, best_effort = score, node
        if expansions >= cost.node_budget:
            break
        for act, child_state in successors(state, obj, resolution):
            step = costs.get(act)
            if step is None:
                step = costs[act] = planner_mod.action_cost(act, cost, resolution.slide_step)
            child_g = g + step
            child_key = state_key(child_state, state, key)
            seen = best_g.get(child_key)
            if seen is not None and seen <= child_g:
                continue
            best_g[child_key] = child_g
            if bound is None:
                child_h = total_heuristic(child_state, cache, child_key)
                child_f = child_g + lam * child_h
            else:
                child_b = bound(child_state, child_key)
                child_h = total_heuristic(child_state, cache, child_key) \
                    if child_b <= slack else None
                child_f = child_g + child_b
            counter += 1
            heapq.heappush(open_heap, (child_f, -child_g, counter, child_key,
                                       (child_state, child_g, child_h, node, act)))
    chosen = goal_node if goal_node is not None else best_effort
    actions, states, node = [], [chosen[0]], chosen
    while node[3] is not None:
        actions.append(node[4])
        node = node[3]
        states.append(node[0])
    actions.reverse()
    states.reverse()
    step_costs = [costs[a] for a in actions]
    total = math.fsum(step_costs)
    outside = region_outside_goal(chosen[0], goals)
    return planner_mod.Plan(actions=actions, states=states, step_costs=step_costs,
                            total_action_cost=total, terminal_outside_area=outside,
                            objective=outside + w * total,
                            status="exact-goal" if goal_node is not None else "best-effort",
                            tradeoff_weight=w, expansions=expansions)
