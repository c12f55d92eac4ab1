from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wihmplan as w
from wihmplan import heuristic as heuristic_mod
from wihmplan import planner as planner_mod
from wihmplan.geometry import convex_intersection
from wihmplan.heuristic import HeuristicCache, finger_heuristic, total_heuristic
from wihmplan.transition import ContactRegion, GoalRegion, GraspState, corner_offsets, state_key

from conftest import OBJECT_FILES, load_task, random_feasible_state
from oracles import corner_sum, geodesic_across_edge, point_polygon_distance

UNIT_SQUARE_FACE_GOAL = w.ConvexPolygon2([(0.4, 0.8), (0.6, 0.8), (0.6, 1.0), (0.4, 1.0)])


def region_with_corners(face, lo, hi, obj=None):
    center = ((lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0)
    return ContactRegion(face, *center, 0.0, hi[0] - lo[0], hi[1] - lo[1])


class TestCornerSum:
    def test_contact_inside_goal_is_zero(self, unit_cube):
        goal = GoalRegion(0, w.ConvexPolygon2([(0.1, 0.1), (0.9, 0.1), (0.9, 0.9), (0.1, 0.9)]))
        cache = HeuristicCache(unit_cube, [goal])
        region = region_with_corners(0, (0.4, 0.4), (0.6, 0.6))
        assert corner_sum(region, 0, cache) == pytest.approx(0.0, abs=1e-12)

    def test_same_face_axis_aligned_sum(self, unit_cube):
        # corners (0.4,0.4) (0.6,0.4) (0.6,0.6) (0.4,0.6); goal band above them
        goal = GoalRegion(0, UNIT_SQUARE_FACE_GOAL)
        cache = HeuristicCache(unit_cube, [goal])
        region = region_with_corners(0, (0.4, 0.4), (0.6, 0.6))
        assert corner_sum(region, 0, cache) == pytest.approx(1.2, abs=1e-12)

    def test_adjacent_face_matches_geodesic_oracle(self, unit_cube):
        bottom = unit_cube.lateral_count
        goal_poly = w.ConvexPolygon2([(0.45, 0.45), (0.55, 0.45), (0.55, 0.55), (0.45, 0.55)])
        goal = GoalRegion(0, goal_poly)
        cache = HeuristicCache(unit_cube, [goal])
        region = ContactRegion(bottom, 0.5, -0.5, 0.0, 0.02, 0.02)
        got = corner_sum(region, 0, cache)
        goal_center = np.array([0.5, 0.5])
        expected = 0.0
        for corner in region.corners():
            # brute-force shortest two-leg path to the goal's nearest point:
            # sample goal boundary+interior via a grid, taking the min over
            # edge-crossing paths
            best = math.inf
            for gu in np.linspace(0.45, 0.55, 11):
                for gv in np.linspace(0.45, 0.55, 11):
                    best = min(best, geodesic_across_edge(
                        unit_cube, bottom, corner, 0, (gu, gv)))
            expected += best
        assert got == pytest.approx(expected, abs=1e-4)

    def test_matches_independent_pointwise_distances(self, all_objects, rng):
        for obj in all_objects[:3]:
            goals = [GoalRegion(1, _inset_poly(obj, 1)), GoalRegion(2, _inset_poly(obj, 2))]
            cache = HeuristicCache(obj, goals)
            for _ in range(20):
                s = random_feasible_state(obj, rng)
                for region in (s.left, s.right):
                    for m in range(len(goals)):
                        image = cache.goal_image(region.face, m)
                        expected = sum(point_polygon_distance(c, image.vertices)
                                       for c in region.corners())
                        assert corner_sum(region, m, cache) == pytest.approx(
                            expected, abs=1e-9)


class TestFingerHeuristic:
    def test_single_goal_equals_corner_sum(self, unit_cube):
        goal = GoalRegion(0, UNIT_SQUARE_FACE_GOAL)
        cache = HeuristicCache(unit_cube, [goal])
        region = region_with_corners(0, (0.4, 0.4), (0.6, 0.6))
        assert finger_heuristic(region, cache) == corner_sum(region, 0, cache)

    def test_containing_goal_wins(self, unit_cube):
        far = GoalRegion(0, w.ConvexPolygon2([(0.8, 0.8), (0.95, 0.8), (0.95, 0.95), (0.8, 0.95)]))
        around = GoalRegion(0, w.ConvexPolygon2([(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7)]))
        cache = HeuristicCache(unit_cube, [far, around])
        region = region_with_corners(0, (0.4, 0.4), (0.6, 0.6))
        assert finger_heuristic(region, cache) == pytest.approx(0.0, abs=1e-12)

    def test_minimum_over_goals(self, unit_cube):
        g1 = GoalRegion(0, w.ConvexPolygon2([(0.7, 0.4), (0.9, 0.4), (0.9, 0.6), (0.7, 0.6)]))
        g2 = GoalRegion(0, UNIT_SQUARE_FACE_GOAL)
        cache = HeuristicCache(unit_cube, [g1, g2])
        region = region_with_corners(0, (0.4, 0.4), (0.6, 0.6))
        expected = min(corner_sum(region, 0, cache), corner_sum(region, 1, cache))
        assert finger_heuristic(region, cache) == expected

    def test_empty_goal_set_rejected(self, unit_cube):
        with pytest.raises(w.InvalidInputError):
            HeuristicCache(unit_cube, [])


def _ulps(x: float, k: int) -> float:
    """x moved k representable doubles up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


_TWO_PI = 2.0 * math.pi
_ORIENTATIONS = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2.0, -math.pi / 2.0]),
    st.builds(_ulps, st.sampled_from([_TWO_PI, -_TWO_PI]), st.integers(-4, 4)),
    st.floats(-2.0 * _TWO_PI, 2.0 * _TWO_PI))
_CENTRES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
_SIZES = st.floats(1e-4, 0.5)


def _hex_rows(rows) -> list:
    return [[v.hex() for v in row] for row in rows]


class TestMissPath:
    """A memo miss builds corners from cached offsets and must give every value
    bit for bit as the numpy ``corners()`` route (``oracles.corner_sum``)."""

    @settings(max_examples=600, deadline=None)
    @given(_ORIENTATIONS, _SIZES, _SIZES, _CENTRES, _CENTRES, _CENTRES, _CENTRES)
    def test_cached_offsets_plus_centre_are_the_corners(self, square_prism, theta, width,
                                                        height, x, y, x2, y2):
        cache = HeuristicCache(square_prism, [GoalRegion(0, _inset_poly(square_prism, 0))])
        for cx, cy in ((x, y), (x2, y2)):  # a miss on the offsets, then a hit
            pad = ContactRegion(0, cx, cy, theta, width, height)
            assert _hex_rows(cache.corner_rows(pad)) == _hex_rows(pad.corners().tolist())
        assert list(cache._corner_offsets) == [(theta, width, height)]

    @pytest.mark.parametrize("index", range(len(OBJECT_FILES)), ids=OBJECT_FILES)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pad=st.sampled_from([0.004, 0.012, 0.02]))
    def test_finger_heuristic_is_the_oracle_minimum(self, all_objects, index, seed, pad):
        obj = all_objects[index]
        goals = [GoalRegion(f, _inset_poly(obj, f)) for f in (1, 2, len(obj.faces) - 1)]
        cache = HeuristicCache(obj, goals)
        s = random_feasible_state(obj, np.random.default_rng(seed), pad=pad)
        for region in (s.left, s.right):
            expected = min(corner_sum(region, m, cache) for m in range(len(goals)))
            assert finger_heuristic(region, cache).hex() == expected.hex()

    def test_offset_table_holds_the_missed_pads(self, suite_entries, monkeypatch):
        entry = next(e for e in suite_entries if e["name"] == "sq_t1_shift")
        obj, start, goals, resolution, cost = load_task(entry)
        caches, missed = set(), set()
        real = heuristic_mod.finger_heuristic

        def recording(region, cache, cell=None):
            before = len(cache._finger_memo)
            value = real(region, cache, cell)
            if len(cache._finger_memo) > before:
                missed.add((region.orientation, region.pad_width, region.pad_height))
            caches.add(cache)
            return value

        monkeypatch.setattr(heuristic_mod, "finger_heuristic", recording)
        planner_mod.plan(obj, start, goals, resolution, cost)
        [cache] = caches
        assert missed
        assert set(cache._corner_offsets) == missed
        for key, offsets in cache._corner_offsets.items():
            assert _hex_rows(offsets) == _hex_rows(corner_offsets(*key))


class TestLatticeCell:
    def test_orientations_pi_and_minus_pi_share_key_and_memo_entry(self, square_prism):
        cache = HeuristicCache(square_prism, [GoalRegion(0, _inset_poly(square_prism, 0))])
        a, b = (GraspState.create(square_prism, 0, 2, 4, (0.02, 0.02), (0.02, 0.02), 0.02, 0.02,
                                  left_orientation=theta) for theta in (math.pi, -math.pi))
        assert state_key(a) == state_key(b)
        h = finger_heuristic(a.left, cache)
        assert len(cache._finger_memo) == 1
        assert finger_heuristic(b.left, cache) == h
        assert len(cache._finger_memo) == 1


class TestStateKeyPath:
    def test_state_key_path_matches_region_cell_path(self, all_objects, rng):
        # The search passes state_key(s), and the memo keys take its pad codes.
        for obj in all_objects:
            goals = [GoalRegion(1, _inset_poly(obj, 1)), GoalRegion(2, _inset_poly(obj, 2))]
            by_key, by_cell = HeuristicCache(obj, goals), HeuristicCache(obj, goals)
            for _ in range(20):
                s = random_feasible_state(obj, rng)
                by_region_cell = finger_heuristic(s.left, by_cell) + finger_heuristic(s.right, by_cell)
                assert total_heuristic(s, by_key, state_key(s)).hex() == by_region_cell.hex()
            assert by_key._finger_memo == by_cell._finger_memo


class TestTotalHeuristic:
    def test_sum_of_fingers(self, square_prism, rng):
        goals = [GoalRegion(0, _inset_poly(square_prism, 0)),
                 GoalRegion(2, _inset_poly(square_prism, 2))]
        cache = HeuristicCache(square_prism, goals)
        for _ in range(30):
            s = random_feasible_state(square_prism, rng)
            assert total_heuristic(s, cache) == pytest.approx(
                finger_heuristic(s.left, cache) + finger_heuristic(s.right, cache),
                abs=1e-12)

    def test_zero_iff_full_containment(self, square_prism, rng):
        goals = [GoalRegion(0, _inset_poly(square_prism, 0)),
                 GoalRegion(2, _inset_poly(square_prism, 2))]
        cache = HeuristicCache(square_prism, goals)
        seen_zero = seen_nonzero = 0
        for _ in range(120):
            s = random_feasible_state(square_prism, rng)
            h = total_heuristic(s, cache)
            contained = all(
                any(g.face == region.face
                    and g.polygon.contains_points(region.corners(), tol=1e-9).all()
                    for g in goals)
                for region in (s.left, s.right))
            if contained:
                assert h <= 1e-9
                seen_zero += 1
            else:
                assert h > 1e-9
                seen_nonzero += 1
        assert seen_nonzero > 0

    def test_invariant_under_goal_relabeling(self, square_prism, rng):
        g0 = GoalRegion(0, _inset_poly(square_prism, 0))
        g2 = GoalRegion(2, _inset_poly(square_prism, 2))
        cache_a = HeuristicCache(square_prism, [g0, g2])
        cache_b = HeuristicCache(square_prism, [g2, g0])
        for _ in range(20):
            s = random_feasible_state(square_prism, rng)
            assert total_heuristic(s, cache_a) == pytest.approx(
                total_heuristic(s, cache_b), abs=1e-12)

    def test_slide_toward_goal_shrinks_at_most_4_delta(self, square_prism):
        from wihmplan.transition import (ActionKind, ResolutionConfig,
                                         derive_resolutions, successors)
        goals = [GoalRegion(0, w.ConvexPolygon2([(0.03, 0.08), (0.04, 0.08),
                                                 (0.04, 0.10), (0.03, 0.10)])),
                 GoalRegion(2, w.ConvexPolygon2([(0.0, 0.08), (0.01, 0.08),
                                                 (0.01, 0.10), (0.0, 0.10)]))]
        cache = HeuristicCache(square_prism, goals)
        cfg = derive_resolutions(square_prism, ResolutionConfig())
        s = GraspState.create(square_prism, 0, 2, 4, (0.02, 0.02), (0.02, 0.02),
                              0.02, 0.02)
        frontier = [s]
        for _ in range(3):
            nxt = []
            for cur in frontier:
                h_cur = total_heuristic(cur, cache)
                for act, child in successors(cur, square_prism, cfg):
                    if act.kind in (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW,
                                    ActionKind.PIVOT):
                        continue
                    h_child = total_heuristic(child, cache)
                    moved = 2 if act.kind in (ActionKind.MOVE_CONTACT_UP,
                                              ActionKind.MOVE_CONTACT_DOWN) else 1
                    assert h_cur - h_child <= 4 * act.magnitude * moved + 1e-9
                    nxt.append(child)
            frontier = nxt[:6]


def _goal_around(obj, pad: ContactRegion, margin: float) -> w.ConvexPolygon2:
    """The pad's bounding box grown by margin, clipped to its face: a goal that holds the pad."""
    lo = pad.corners().min(axis=0) - margin
    hi = pad.corners().max(axis=0) + margin
    box = w.ConvexPolygon2([lo, (hi[0], lo[1]), hi, (lo[0], hi[1])])
    return convex_intersection(box, obj.face(pad.face).polygon)


class TestGoalContainment:
    def test_pads_inside_goals_score_zero_and_moved_pads_do_not(self, all_objects):
        # Sampled pads inside goals reach the goal test; one moved a known
        # distance past a goal edge has a corner at least that far from it.
        rng = np.random.default_rng(17)
        tolerance = planner_mod.CostConfig().goal_tolerance
        past = 1e-3
        for obj in all_objects:
            for _ in range(15):
                s = random_feasible_state(obj, rng, pad=float(rng.choice([0.006, 0.012])))
                margins = rng.uniform(0.0, 2e-3, size=2).tolist()
                goals = [GoalRegion(pad.face, _goal_around(obj, pad, margin))
                         for pad, margin in zip((s.left, s.right), margins)]
                cache = HeuristicCache(obj, goals)
                assert total_heuristic(s, cache) <= tolerance
                finger = int(rng.integers(2))
                pad, goal = s[finger], goals[finger].polygon
                normals, offsets = goal.halfplanes()
                edge = int(rng.integers(len(offsets)))
                # Inward normals: the pad's nearest corner ends up past outside the edge.
                margin = float((pad.corners() @ normals[edge] - offsets[edge]).min())
                shift = -(margin + past) * normals[edge]
                moved = pad._replace(x=pad.x + float(shift[0]), y=pad.y + float(shift[1]))
                h = total_heuristic(s._replace(**{("left", "right")[finger]: moved}), cache)
                assert h >= past * (1.0 - 1e-9)


class TestCacheBehavior:
    def test_cached_maps_match_fresh(self, square_prism):
        goals = [GoalRegion(0, _inset_poly(square_prism, 0)),
                 GoalRegion(1, _inset_poly(square_prism, 1))]
        cache = HeuristicCache(square_prism, goals)
        cache.goal_image(2, 0)
        first = square_prism.unfolded[2]
        cache.goal_image(2, 1)
        assert square_prism.unfolded[2] is first
        fresh = w.unfold(square_prism, 2)
        for fid, placement in first.placements.items():
            assert np.allclose(placement.rot, fresh.placements[fid].rot, atol=1e-12)
            assert np.allclose(placement.trans, fresh.placements[fid].trans, atol=1e-12)
        for m, goal in enumerate(goals):
            assert np.array_equal(cache.goal_image(2, m).vertices, w.ConvexPolygon2(
                fresh.to_plane(goal.face, goal.polygon.vertices)).vertices)

    def test_unfolded_maps_live_on_the_model(self, monkeypatch):
        # goal_image unfolds through this module's ``unfold``, the name the
        # benchmark probe counts, once per base face and model.
        calls = []
        monkeypatch.setattr(heuristic_mod, "unfold",
                            lambda obj, base: calls.append(base) or w.unfold(obj, base))
        obj = w.build_prism(w.ConvexPolygon2([(0, 0), (0.04, 0), (0.04, 0.04), (0, 0.04)]),
                            0.1)
        first = HeuristicCache(obj, [GoalRegion(0, _inset_poly(obj, 0))])
        second = HeuristicCache(obj, [GoalRegion(1, _inset_poly(obj, 1))])
        first.goal_image(2, 0)
        umap = obj.unfolded[2]
        second.goal_image(2, 0)
        assert obj.unfolded[2] is umap
        for face in range(len(obj.faces)):
            second.goal_image(face, 0)
        assert sorted(obj.unfolded) == sorted(calls) == list(range(len(obj.faces)))
        assert obj.unfolded[2] is umap
        assert obj.scratch == {}

    def test_goal_images_are_memoized(self, square_prism):
        goals = [GoalRegion(0, _inset_poly(square_prism, 0))]
        cache = HeuristicCache(square_prism, goals)
        assert cache.goal_image(1, 0) is cache.goal_image(1, 0)


def _inset_poly(obj, face_id, frac=0.25):
    v = obj.faces[face_id].polygon.vertices
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    span = hi - lo
    return w.ConvexPolygon2([
        lo + frac * span,
        (hi[0] - frac * span[0], lo[1] + frac * span[1]),
        hi - frac * span,
        (lo[0] + frac * span[0], hi[1] - frac * span[1]),
    ])
