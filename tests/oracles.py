"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different computational route from the
library code: fan triangulation instead of the shoelace, hull-based clipping
instead of half-plane clipping, homogeneous 4x4 motions instead of the
frame-algebra transport, and discretized shortest paths instead of unfolded
planar distances.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull

from wihmplan.geometry import GEOM_TOL, ConvexPolygon2, ObjectModel, corner_distance_sum
from wihmplan.heuristic import HeuristicCache
from wihmplan.transition import ContactRegion, GraspState

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
    the reference whose bytes it must reproduce, its ``pts @ normals.T``
    inside test included.
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


def corner_sum(region: ContactRegion, goal_index: int, cache: HeuristicCache) -> float:
    """Sum of the 4 corner distances to one goal, measured in the unfolded plane.

    Another exception to the separate routes: it builds the corners with the
    pad's numpy ``corners()``, the reference whose bytes the heuristic's memo
    miss path, which adds the centre to cached corner offsets, must reproduce.
    """
    image = cache.goal_image(region.face, goal_index)
    return corner_distance_sum(region.corners().tolist(), image)


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


def hull_clip_area(pa: np.ndarray, pb: np.ndarray) -> float:
    """Intersection area of two convex polygons via point collection + hull."""
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
        return 0.0
    pts = np.asarray(pts)
    try:
        hull = ConvexHull(pts, qhull_options="QJ")
    except Exception:
        return 0.0
    return float(hull.volume)  # 2D hull "volume" is area


def pad_corners_inside(obj: ObjectModel, region: ContactRegion, tol: float = 1e-6) -> bool:
    """Whether all 4 pad corners lie within tol of the face's half-planes.

    The exception to this module's rule of separate routes: it keeps the
    corner-by-half-plane arithmetic of the library's original containment
    test, so verdicts can be compared even for pads within ulps of tol.
    """
    normals, offsets = obj.face(region.face).polygon.halfplanes()
    margins = region.corners() @ normals.T - offsets
    return bool(np.all(margins >= -tol))


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

def enumerate_state_graph(obj, s0, resolution, cost_cfg, max_states=100_000):
    """Full reachable graph: {key: state}, {key: [(child_key, edge_cost)]}."""
    from wihmplan.planner import action_cost
    from wihmplan.transition import state_key, successors

    states = {state_key(s0): s0}
    edges: dict = {}
    frontier = [s0]
    while frontier:
        nxt = []
        for st in frontier:
            k = state_key(st)
            if k in edges:
                continue
            outs = []
            for act, child in successors(st, obj, resolution):
                ck = state_key(child)
                if ck not in states:
                    states[ck] = child
                    nxt.append(child)
                outs.append((ck, action_cost(act, cost_cfg, resolution.slide_step)))
            edges[k] = outs
            if len(states) > max_states:
                raise RuntimeError("state space larger than expected")
        frontier = nxt
    return states, edges


def optimal_cost_to_goals(edges, goal_keys):
    """Dijkstra on the reversed graph from every goal state."""
    import heapq
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
