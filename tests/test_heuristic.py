from __future__ import annotations

import math

import numpy as np
import pytest

import wihmplan as w
from wihmplan.heuristic import HeuristicCache, corner_sum, finger_heuristic, total_heuristic
from wihmplan.transition import ContactRegion, GoalRegion, GraspState, state_key

from conftest import random_feasible_state
from oracles import geodesic_across_edge, point_polygon_distance

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


class TestCacheBehavior:
    def test_cached_maps_match_fresh(self, square_prism):
        goals = [GoalRegion(0, _inset_poly(square_prism, 0))]
        cache = HeuristicCache(square_prism, goals)
        first = cache.unfolded_map(2)
        again = cache.unfolded_map(2)
        assert first is again
        fresh = w.unfold(square_prism, 2)
        for fid, placement in first.placements.items():
            assert np.allclose(placement.rot, fresh.placements[fid].rot, atol=1e-12)
            assert np.allclose(placement.trans, fresh.placements[fid].trans, atol=1e-12)

    def test_unfolded_maps_live_on_the_model(self):
        obj = w.build_prism(w.ConvexPolygon2([(0, 0), (0.04, 0), (0.04, 0.04), (0, 0.04)]),
                            0.1)
        first = HeuristicCache(obj, [GoalRegion(0, _inset_poly(obj, 0))])
        second = HeuristicCache(obj, [GoalRegion(1, _inset_poly(obj, 1))])
        assert first.unfolded_map(2) is second.unfolded_map(2)
        for face in range(len(obj.faces)):
            second.goal_image(face, 0)
        assert sorted(obj.unfolded) == list(range(len(obj.faces)))
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
