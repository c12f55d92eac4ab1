from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wihmplan as w
from wihmplan import io as io_mod
from wihmplan.geometry import (
    GEOM_TOL,
    ConvexPolygon2,
    RigidTransform3,
    build_prism,
    convex_intersection,
    corner_distance_sum,
    point_to_polygon_distance,
    points_to_polygon_distance,
    polygon_area,
    unfold,
)
from wihmplan.heuristic import HeuristicCache

from conftest import FIXTURES, load_task, random_convex_polygon
from oracles import array_points_to_polygon_distance, fan_area, geodesic_across_edge, hull_clip_area

UNIT_SQUARE = ConvexPolygon2([(0, 0), (1, 0), (1, 1), (0, 1)])


class TestConvexPolygon:
    def test_canonical_ccw(self):
        cw = ConvexPolygon2([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert _cyclic_equal(cw.vertices, UNIT_SQUARE.vertices)
        e = np.roll(cw.vertices, -1, axis=0) - cw.vertices
        e_next = np.roll(e, -1, axis=0)
        cross = e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]
        assert np.all(cross > 0)

    def test_collinear_vertices_removed(self):
        poly = ConvexPolygon2([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        assert len(poly) == 4

    def test_rejects_degenerate(self):
        with pytest.raises(w.InvalidGeometryError):
            ConvexPolygon2([(0, 0), (1, 0)])
        with pytest.raises(w.InvalidGeometryError):
            ConvexPolygon2([(0, 0), (1, 0), (2, 0)])

    def test_rejects_nonconvex(self):
        with pytest.raises(w.InvalidGeometryError):
            ConvexPolygon2([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])


class TestArea:
    def test_unit_square(self):
        assert polygon_area(UNIT_SQUARE) == pytest.approx(1.0, abs=1e-12)

    def test_half_square_triangle(self):
        tri = ConvexPolygon2([(0, 0), (1, 0), (0, 1)])
        assert polygon_area(tri) == pytest.approx(0.5, abs=1e-12)

    def test_regular_hexagon(self):
        angles = np.arange(6) * math.pi / 3.0
        hexagon = ConvexPolygon2(np.column_stack([np.cos(angles), np.sin(angles)]))
        assert polygon_area(hexagon) == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, abs=1e-12)

    def test_matches_fan_triangulation(self, rng):
        for _ in range(50):
            poly = random_convex_polygon(rng)
            assert polygon_area(poly) == pytest.approx(fan_area(poly.vertices), abs=1e-12)


class TestPointDistance:
    def test_interior_point(self):
        assert point_to_polygon_distance((0.5, 0.5), UNIT_SQUARE) == 0.0

    def test_axis_aligned_offset(self):
        assert point_to_polygon_distance((2.0, 0.5), UNIT_SQUARE) == pytest.approx(1.0, abs=1e-12)

    def test_corner_diagonal(self):
        assert point_to_polygon_distance((2.0, 2.0), UNIT_SQUARE) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)

    def test_lipschitz_in_query(self, rng):
        for _ in range(200):
            poly = random_convex_polygon(rng)
            p = rng.uniform(-2, 2, size=2)
            q = rng.uniform(-2, 2, size=2)
            dp = point_to_polygon_distance(p, poly)
            dq = point_to_polygon_distance(q, poly)
            assert abs(dp - dq) <= np.linalg.norm(p - q) + 1e-9


@functools.cache
def _goal_images() -> tuple[ConvexPolygon2, ...]:
    """Every fixture goal unfolded onto every face of its object, as the heuristic sees it."""
    images = []
    for entry in io_mod.read_json(FIXTURES / "suite.json")["tasks"]:
        obj, _, goals, _, _ = load_task(entry)
        cache = HeuristicCache(obj, goals)
        images += [cache.goal_image(face.id, m) for face in obj.faces for m in range(len(goals))]
    return tuple(images)


@st.composite
def _polygon_and_pad(draw):
    """A fixture goal image or a random convex polygon, and the 4 corners of a
    pad anywhere from inside it to a polygon's span outside."""
    if draw(st.booleans()):
        poly = draw(st.sampled_from(_goal_images()))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        poly = random_convex_polygon(rng, scale=draw(st.sampled_from([0.01, 0.1, 1.0])))
    lo, hi = poly.vertices.min(axis=0), poly.vertices.max(axis=0)
    span = float((hi - lo).max())
    center = np.array([draw(st.floats(lo[i] - span, hi[i] + span)) for i in range(2)])
    pad = w.ContactRegion(0, *center, draw(st.floats(-math.pi, math.pi)),
                          draw(st.floats(0.01, 0.5)) * span, draw(st.floats(0.01, 0.5)) * span)
    return poly, pad.corners()


def _threshold_points(rng, poly: ConvexPolygon2, edge: int, count: int) -> np.ndarray:
    """Points GEOM_TOL outside one edge, each coordinate then moved a few ulps."""
    normals, _ = poly.halfplanes()
    start, end = poly.vertices[edge], poly.vertices[(edge + 1) % len(poly)]
    pts = []
    for along, nudges in zip(rng.random(count), rng.integers(-4, 5, size=(count, 2))):
        p = start + along * (end - start) - GEOM_TOL * normals[edge]
        for i, nudge in enumerate(nudges.tolist()):
            for _ in range(abs(nudge)):
                p[i] = np.nextafter(p[i], math.copysign(math.inf, nudge))
        pts.append(p)
    return np.array(pts)


class TestFloatKernel:
    """points_to_polygon_distance against its array form, byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(_polygon_and_pad())
    def test_pad_corners_match_reference(self, drawn):
        poly, corners = drawn
        assert points_to_polygon_distance(corners, poly).tobytes() == \
            array_points_to_polygon_distance(corners, poly).tobytes()

    def test_threshold_points_match_reference(self, monkeypatch):
        # Without the guard band, 20 of these 3,552 points get the other
        # verdict than the matrix product gives; the band must send every
        # array to contains_points.
        rng = np.random.default_rng(5)
        real = ConvexPolygon2.contains_points
        fallbacks = []
        monkeypatch.setattr(ConvexPolygon2, "contains_points",
                            lambda self, *args: fallbacks.append(self) or real(self, *args))
        polygons = list(_goal_images()) + [random_convex_polygon(rng, scale=scale)
                                           for scale in (0.01, 0.1, 1.0) for _ in range(20)]
        calls = inside = 0
        for poly in polygons:
            for edge in range(len(poly)):
                pts = _threshold_points(rng, poly, edge, 4)
                want = array_points_to_polygon_distance(pts, poly)
                assert points_to_polygon_distance(pts, poly).tobytes() == want.tobytes()
                calls += 1
                inside += int(np.count_nonzero(want == 0.0))
        assert len(fallbacks) == calls
        assert 0 < inside < 4 * calls

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_points_match_reference(self):
        nan, inf = math.nan, math.inf
        pts = np.array([[nan, 0.5], [0.5, nan], [inf, 0.5], [-inf, 0.5], [0.5, inf],
                        [inf, -inf], [inf, inf], [0.5, 0.5], [2.0, 0.5]])
        rng = np.random.default_rng(3)
        for poly in (UNIT_SQUARE, random_convex_polygon(rng), _goal_images()[0]):
            for rows in (pts, pts[[0, 7]], pts[[2, 8]], pts[[4]]):
                np.testing.assert_array_equal(points_to_polygon_distance(rows, poly),
                                              array_points_to_polygon_distance(rows, poly))


def _assert_sum_kernel(pts: np.ndarray, poly: ConvexPolygon2, scale: float = 0.5) -> None:
    """corner_distance_sum against points_to_polygon_distance(...).sum(), byte for byte,
    and its bound contract: >= bound when the full sum is, else the exact sum."""
    rows = pts.tolist()
    dists = points_to_polygon_distance(pts, poly)
    full = float(dists.sum())
    assert corner_distance_sum(rows, poly).hex() == full.hex()
    partials = np.cumsum(dists).tolist()
    for bound in partials + [scale * full, 0.0, math.nextafter(full, -math.inf),
                             math.nextafter(full, math.inf), math.inf]:
        got = corner_distance_sum(rows, poly, bound)
        if full >= bound:
            assert got >= bound
        else:
            assert got.hex() == full.hex()


class TestCornerDistanceSum:
    """The heuristic's fused kernel against the array sum it replaces."""

    @settings(max_examples=400, deadline=None)
    @given(_polygon_and_pad(), st.floats(0.0, 2.0))
    def test_pad_corners_match_array_sum(self, drawn, scale):
        poly, corners = drawn
        _assert_sum_kernel(corners, poly, scale)

    def test_threshold_points_match_array_sum(self):
        rng = np.random.default_rng(11)
        polygons = list(_goal_images()) + [random_convex_polygon(rng, scale=scale)
                                           for scale in (0.01, 0.1, 1.0) for _ in range(20)]
        for poly in polygons:
            for edge in range(len(poly)):
                _assert_sum_kernel(_threshold_points(rng, poly, edge, 4), poly)

    def test_early_exit_skips_remaining_corners(self):
        rows = [[2.0, 0.5], [3.0, 0.5], [0.5, 0.5], [4.0, 0.5]]
        assert corner_distance_sum(rows, UNIT_SQUARE) == 6.0
        assert corner_distance_sum(rows, UNIT_SQUARE, 2.5) == 3.0
        assert corner_distance_sum(rows, UNIT_SQUARE, 1.0) == 1.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_points_match_array_sum(self):
        nan, inf = math.nan, math.inf
        pts = np.array([[nan, 0.5], [inf, 0.5], [0.5, 0.5], [2.0, 0.5]])
        for rows in (pts, pts[[1, 2, 3]], pts[[2, 3]]):
            want = float(points_to_polygon_distance(rows, UNIT_SQUARE).sum())
            got = corner_distance_sum(rows.tolist(), UNIT_SQUARE)
            assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))


class TestClipping:
    def test_shifted_square_overlap(self):
        shifted = ConvexPolygon2([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)])
        inter = convex_intersection(UNIT_SQUARE, shifted)
        assert inter is not None
        assert polygon_area(inter) == pytest.approx(0.25, abs=1e-12)

    def test_self_intersection_identity(self):
        inter = convex_intersection(UNIT_SQUARE, UNIT_SQUARE)
        assert polygon_area(inter) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_is_empty(self):
        far = ConvexPolygon2([(5, 5), (6, 5), (6, 6), (5, 6)])
        assert convex_intersection(UNIT_SQUARE, far) is None

    def test_commutative_and_bounded(self, rng):
        for _ in range(100):
            a = random_convex_polygon(rng)
            b = random_convex_polygon(rng)
            ab = convex_intersection(a, b)
            ba = convex_intersection(b, a)
            area_ab = 0.0 if ab is None else polygon_area(ab)
            area_ba = 0.0 if ba is None else polygon_area(ba)
            assert area_ab == pytest.approx(area_ba, abs=1e-9)
            assert area_ab <= min(polygon_area(a), polygon_area(b)) + 1e-9

    def test_matches_hull_oracle(self, rng):
        for _ in range(60):
            a = random_convex_polygon(rng)
            b = random_convex_polygon(rng)
            inter = convex_intersection(a, b)
            area = 0.0 if inter is None else polygon_area(inter)
            assert area == pytest.approx(hull_clip_area(a.vertices, b.vertices), abs=1e-7)


class TestRigidTransform:
    def test_rejects_nonorthonormal(self):
        with pytest.raises(w.InvalidGeometryError):
            RigidTransform3(np.eye(3) * 1.001, np.zeros(3))

    def test_compose_inverse(self, rng):
        t = RigidTransform3.rot_z(0.7, (0.1, -0.2, 0.3)) @ RigidTransform3.rot_x(-0.4)
        pts = rng.uniform(-1, 1, size=(10, 3))
        back = t.inverse().apply(t.apply(pts))
        assert np.allclose(back, pts, atol=1e-12)


class TestBuildPrism:
    def test_box_structure(self):
        obj = build_prism(UNIT_SQUARE, 2.0)
        assert len(obj.faces) == 6
        assert len(obj.parallel_pairs) == 3  # 2 lateral pairs + the cap pair
        lateral = obj.faces[0].polygon.vertices
        assert lateral.max(axis=0)[0] == pytest.approx(1.0)
        assert lateral.max(axis=0)[1] == pytest.approx(2.0)

    def test_hexagonal_prism_structure(self):
        side = 0.03
        h = side * math.sqrt(3) / 2
        hexagon = ConvexPolygon2([(side, 0), (side / 2, h), (-side / 2, h),
                                  (-side, 0), (-side / 2, -h), (side / 2, -h)])
        obj = build_prism(hexagon, 0.1)
        assert len(obj.faces) == 8
        lateral_pairs = [p for p in obj.parallel_pairs
                         if p[0] < obj.lateral_count and p[1] < obj.lateral_count]
        assert len(lateral_pairs) == 3

    def test_scalene_triangle_rejected(self):
        tri = ConvexPolygon2([(0, 0), (0.05, 0), (0.01, 0.03)])
        with pytest.raises(w.UngraspableObjectError):
            build_prism(tri, 0.1)

    def test_outward_normals_and_adjacency(self, all_objects):
        for obj in all_objects:
            obj.validate()
            for face in obj.faces:
                # normals point away from the interior centroid
                centroid = np.mean([f.frame.translation for f in obj.faces], axis=0)
                on_face = face.to_object(face.polygon.centroid)
                assert float(face.outward_normal @ (on_face - centroid)) > 0.0

    def test_pair_widths(self, square_prism):
        assert square_prism.pair_width(0) == pytest.approx(0.04, abs=1e-12)
        assert square_prism.pair_width(2) == pytest.approx(0.10, abs=1e-12)


class TestUnfold:
    def test_cube_adjacent_face_center_distance(self, unit_cube):
        bottom = unit_cube.lateral_count  # bottom cap id
        umap = unfold(unit_cube, bottom)
        base_center = unit_cube.faces[bottom].polygon.centroid
        side_center = umap.to_plane(0, unit_cube.faces[0].polygon.centroid)
        assert np.linalg.norm(side_center - base_center) == pytest.approx(1.0, abs=1e-9)

    def test_cube_opposite_face_center_distance(self, unit_cube):
        bottom = unit_cube.lateral_count
        top = bottom + 1
        umap = unfold(unit_cube, bottom)
        base_center = unit_cube.faces[bottom].polygon.centroid
        top_center = umap.to_plane(top, unit_cube.faces[top].polygon.centroid)
        assert np.linalg.norm(top_center - base_center) == pytest.approx(2.0, abs=1e-9)

    def test_box_lateral_base_against_rotation_oracle(self):
        # 1x1x2 box unfolded around lateral face 0; neighbors checked against
        # an explicit 3D rotate-about-the-shared-edge computation.
        obj = build_prism(UNIT_SQUARE, 2.0)
        umap = unfold(obj, 0)
        for neighbor in obj.neighbors(0):
            edge = obj.shared_edge(0, neighbor)
            e0 = edge.endpoints_in(0)
            a3 = obj.faces[0].to_object(e0)
            axis = a3[1] - a3[0]
            axis = axis / np.linalg.norm(axis)
            n_base = obj.faces[0].outward_normal
            n_other = obj.faces[neighbor].outward_normal
            # rotate the neighbor about the shared edge until its normal
            # matches the base normal, then express in base-face coordinates
            angle = math.atan2(float(np.cross(n_other, n_base) @ axis),
                               float(n_other @ n_base))
            from oracles import hom_rot_axis
            motion = hom_rot_axis(axis, angle, a3[0])
            verts = obj.faces[neighbor].polygon.vertices
            verts3 = obj.faces[neighbor].to_object(verts)
            rotated = (motion @ np.column_stack([verts3, np.ones(len(verts3))]).T).T[:, :3]
            base_inv = obj.faces[0].frame.inverse()
            expected_uv = base_inv.apply(rotated)[:, :2]
            got = umap.to_plane(neighbor, verts)
            assert np.allclose(got, expected_uv, atol=1e-9)

    def test_isometry_per_face(self, all_objects, rng):
        for obj in all_objects:
            umap = unfold(obj, 0)
            for face in obj.faces:
                lo = face.polygon.vertices.min(axis=0)
                hi = face.polygon.vertices.max(axis=0)
                pts = rng.uniform(lo, hi, size=(8, 2))
                mapped = umap.to_plane(face.id, pts)
                d_orig = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
                d_mapped = np.linalg.norm(mapped[1:] - mapped[:-1], axis=1)
                assert np.allclose(d_orig, d_mapped, atol=1e-9)

    def test_shared_edge_coincidence_all_fixtures(self, all_objects):
        for obj in all_objects:
            for base in range(len(obj.faces)):
                umap = unfold(obj, base)
                parents = _bfs_parents(obj, base)
                for child, parent in parents.items():
                    edge = obj.shared_edge(parent, child)
                    img_p = umap.to_plane(parent, edge.endpoints_in(parent))
                    img_c = umap.to_plane(child, edge.endpoints_in(child))
                    assert np.allclose(img_p, img_c, atol=1e-9)

    def test_adjacent_geodesic_matches_unfolded_distance(self, square_prism, rng):
        obj = square_prism
        umap = unfold(obj, 0)
        neighbor = obj.neighbors(0)[0]
        edge = obj.shared_edge(0, neighbor)
        hits = 0
        while hits < 10:
            pa = rng.uniform(obj.faces[0].polygon.vertices.min(axis=0),
                             obj.faces[0].polygon.vertices.max(axis=0))
            pb = rng.uniform(obj.faces[neighbor].polygon.vertices.min(axis=0),
                             obj.faces[neighbor].polygon.vertices.max(axis=0))
            a_img = umap.to_plane(0, pa)
            b_img = umap.to_plane(neighbor, pb)
            straight = np.linalg.norm(b_img - a_img)
            brute = geodesic_across_edge(obj, 0, pa, neighbor, pb)
            # equality requires the planar segment to cross the shared edge
            e_img = umap.to_plane(0, edge.endpoints_in(0))
            if _segments_cross(a_img, b_img, e_img[0], e_img[1]):
                assert straight == pytest.approx(brute, abs=1e-6)
                hits += 1
            else:
                assert straight <= brute + 1e-9

    def test_face_images_keep_every_vertex(self, all_objects):
        # The unfold SVG draws to_plane images of the face polygons as they are,
        # with no ConvexPolygon2 canonicalisation: it would change no vertex.
        for obj in all_objects:
            for base in range(len(obj.faces)):
                umap = unfold(obj, base)
                for face in obj.faces:
                    image = umap.to_plane(face.id, face.polygon.vertices)
                    assert image.tobytes() == ConvexPolygon2(image).vertices.tobytes()

    def test_disconnected_base_rejected(self, unit_cube):
        with pytest.raises(w.InvalidModelError):
            unfold(unit_cube, 99)


def _cyclic_equal(a: np.ndarray, b: np.ndarray, tol=1e-12) -> bool:
    if a.shape != b.shape:
        return False
    n = a.shape[0]
    return any(np.allclose(np.roll(a, k, axis=0), b, atol=tol) for k in range(n))


def _bfs_parents(obj, base):
    from collections import deque

    parents = {}
    seen = {base}
    queue = deque([base])
    while queue:
        cur = queue.popleft()
        for nxt in obj.neighbors(cur):
            if nxt not in seen:
                seen.add(nxt)
                parents[nxt] = cur
                queue.append(nxt)
    return parents


def _segments_cross(a0, a1, b0, b1):
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    d1 = orient(b0, b1, a0)
    d2 = orient(b0, b1, a1)
    d3 = orient(a0, a1, b0)
    d4 = orient(a0, a1, b1)
    return d1 * d2 < 0 and d3 * d4 < 0
