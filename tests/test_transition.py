from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wihmplan as w
from wihmplan import io as io_mod
from wihmplan import transition as transition_mod
from wihmplan.bench import simulate
from wihmplan.geometry import FACE_COORD_LIMIT, FEAS_TOL
from wihmplan.planner import Plan, plan
from wihmplan.transition import (
    Action,
    ActionKind,
    ContactRegion,
    GoalRegion,
    GraspState,
    ResolutionConfig,
    derive_resolutions,
    finger_axes,
    overlap_ratio,
    region_cell,
    region_outside_goal,
    state_key,
    successors,
    transition,
)

from conftest import FIXTURES, OBJECT_FILES, load_task, random_feasible_state
from oracles import (
    mode_table_oracle,
    oracle_pivot,
    oracle_rotate,
    pad_corners_inside,
    reference_cell,
)


def centered_state(obj, pad=0.02):
    pair = obj.parallel_pairs[0]

    def bbox_center(face_id):
        v = obj.faces[face_id].polygon.vertices
        return (v.min(axis=0) + v.max(axis=0)) / 2.0

    return GraspState.create(obj, pair[0], pair[1], obj.lateral_count,
                             bbox_center(pair[0]), bbox_center(pair[1]), pad, pad)


def state_axes(s, obj):
    """Per finger of s, its face's (horizontal, up) axes as arrays."""
    return [np.array(finger) for finger in
            finger_axes(obj, s.support_face, s.left.face, s.right.face)]


def state_mode(s, obj):
    return transition_mod._mode(obj, s.support_face, s.left.face, s.right.face)


def mode_states(obj, pad=0.01):
    """One centred state per grasp mode of obj that has room for the pads."""
    states = []
    for pair in obj.parallel_pairs:
        for left, right in (pair, pair[::-1]):
            for support in range(len(obj.faces)):
                if support in pair:
                    continue
                centers = [(obj.faces[f].polygon.vertices.min(axis=0)
                            + obj.faces[f].polygon.vertices.max(axis=0)) / 2.0
                           for f in (left, right)]
                try:
                    states.append(GraspState.create(obj, left, right, support, *centers,
                                                    pad, pad))
                except w.InvalidStateError:
                    continue  # support not perpendicular to the pair, or pads do not fit
    return states


class TestDeriveResolutions:
    """Rotation and pivot angles come from the object's geometry, not the config."""

    @staticmethod
    def rotation_magnitudes(obj):
        cfg = derive_resolutions(obj, ResolutionConfig())
        assert cfg == ResolutionConfig()
        return {a.kind: a.magnitude for a, _ in successors(centered_state(obj), obj, cfg)
                if a.kind in (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW)}

    def test_square_rotation_step(self, square_prism):
        magnitudes = self.rotation_magnitudes(square_prism)
        assert set(magnitudes) == {ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW}
        for magnitude in magnitudes.values():
            assert magnitude == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_hexagon_rotation_step(self, hex_prism):
        magnitudes = self.rotation_magnitudes(hex_prism)
        assert set(magnitudes) == {ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW}
        for magnitude in magnitudes.values():
            assert magnitude == pytest.approx(math.pi / 3.0, abs=1e-12)

    def test_right_prism_pivot_step(self, all_objects):
        # A pivot tips the object by the angle between the support and landing
        # faces' normals: pi/2 over an edge of a cap, on every prism that can
        # pivot there; over a lateral edge, the cross-section's exterior angle.
        cfg = ResolutionConfig()
        for obj in all_objects:
            caps = {obj.lateral_count, obj.lateral_count + 1}
            tips = {}
            for s in mode_states(obj):
                info = state_mode(s, obj).pivot_edge
                if info is None:
                    continue
                angle = abs(info.angle)
                normals = (obj.face(s.support_face).outward_normal,
                           obj.face(info.new_support).outward_normal)
                assert angle == pytest.approx(math.acos(float(normals[0] @ normals[1])),
                                              abs=1e-12)
                over_cap = bool(caps & {s.support_face, info.new_support})
                tips.setdefault(over_cap, set()).add(round(angle, 9))
                pivots = [a for a, _ in successors(s, obj, cfg) if a.kind == ActionKind.PIVOT]
                assert all(a.magnitude == angle for a in pivots)
            if obj.lateral_count == 4:
                assert tips == {True: {round(math.pi / 2.0, 9)}, False: {round(math.pi / 2.0, 9)}}
            elif obj.name.startswith("hex"):
                # No lateral pair is perpendicular to a cap edge: the only pivots
                # tip from one lateral face to the next, gripping the caps.
                assert tips == {False: {round(math.pi / 3.0, 9)}}
            else:
                assert tips[True] == {round(math.pi / 2.0, 9)}


class TestValidActions:
    def test_centered_grasp_offers_all_nine(self, square_prism):
        cfg = derive_resolutions(square_prism, ResolutionConfig())
        s = centered_state(square_prism)
        kinds = {a.kind for a, _ in successors(s, square_prism, cfg)}
        assert kinds == set(ActionKind)

    def test_flush_contact_drops_slide_toward_edge(self, square_prism):
        cfg = derive_resolutions(square_prism, ResolutionConfig())
        s0 = centered_state(square_prism)
        # park the left pad flush against the face edge it slides toward
        poly = square_prism.faces[s0.left.face].polygon
        step = Action(ActionKind.SLIDE_LEFT_UP, cfg.slide_step)
        s = s0
        while True:
            nxt = None
            for act, child in successors(s, square_prism, cfg):
                if act.kind == ActionKind.SLIDE_LEFT_UP:
                    nxt = child
            if nxt is None:
                break
            s = nxt
        kinds = {a.kind for a, _ in successors(s, square_prism, cfg)}
        assert ActionKind.SLIDE_LEFT_UP not in kinds
        assert ActionKind.SLIDE_LEFT_DOWN in kinds

    def test_wide_pair_blocks_rotation(self):
        # next pair is wider than the configured maximum grip
        cs = w.ConvexPolygon2([(0, 0), (0.03, 0), (0.03, 0.12), (0, 0.12)])
        obj = w.build_prism(cs, 0.05, name="slab")
        cfg = derive_resolutions(obj, ResolutionConfig(max_grasp_width=0.10))
        s = centered_state(obj, pad=0.015)
        kinds = {a.kind for a, _ in successors(s, obj, cfg)}
        assert ActionKind.ROTATE_CW not in kinds
        assert ActionKind.ROTATE_CCW not in kinds
        wide = derive_resolutions(obj, ResolutionConfig(max_grasp_width=0.2,
                                                        max_length_width_ratio=10.0))
        kinds_wide = {a.kind for a, _ in successors(s, obj, wide)}
        assert ActionKind.ROTATE_CW in kinds_wide

    def test_ratio_constraint_blocks_rotation(self):
        cs = w.ConvexPolygon2([(0, 0), (0.012, 0), (0.012, 0.08), (0, 0.08)])
        obj = w.build_prism(cs, 0.05, name="thin_slab")
        s = centered_state(obj, pad=0.01)
        tight = derive_resolutions(obj, ResolutionConfig(
            pad_width=0.01, pad_height=0.01, max_length_width_ratio=3.0))
        kinds = {a.kind for a, _ in successors(s, obj, tight)}
        # gripping the 12 mm pair, the 80 mm faces are far too long to spin
        assert ActionKind.ROTATE_CW not in kinds
        loose = derive_resolutions(obj, ResolutionConfig(
            pad_width=0.01, pad_height=0.01, max_length_width_ratio=10.0))
        assert ActionKind.ROTATE_CW in {a.kind for a, _ in successors(s, obj, loose)}

    def test_grip_limits_hold_to_feas_tol_in_search_and_replay(self, all_objects):
        # Each grip limit set 0.5 * FEAS_TOL inside a rotation's value keeps the
        # rotation, and 1.5 * FEAS_TOL outside it drops it: in successors and in
        # transition given the config alike.  The other limits are loose.
        loose = ResolutionConfig(min_grasp_width=1e-9, max_grasp_width=1e3,
                                 max_length_width_ratio=1e6, pad_width=0.01, pad_height=0.01)
        verdicts = []
        for obj in all_objects:
            for s in mode_states(obj):
                for kind in (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW):
                    t = state_mode(s, obj).ops[kind]
                    if t is None:
                        continue
                    try:
                        transition(s, t.action, obj)
                    except w.InfeasibleActionError:
                        continue  # the landing does not fit
                    ratio = t.extent / t.width
                    for inside, margin in ((True, 0.5 * FEAS_TOL), (False, 1.5 * FEAS_TOL)):
                        for edit in (dict(max_grasp_width=t.width - margin),
                                     dict(min_grasp_width=t.width + margin),
                                     dict(max_length_width_ratio=ratio - margin)):
                            cfg = dataclasses.replace(loose, **edit)
                            kept = kind in {a.kind for a, _ in successors(s, obj, cfg)}
                            try:
                                transition(s, t.action, obj, cfg)
                                accepted = True
                            except w.InfeasibleActionError:
                                accepted = False
                            assert kept == accepted == inside, (obj.name, s, kind, edit)
                            verdicts.append(inside)
        assert verdicts.count(True) == verdicts.count(False) == 888

    def test_hexagon_has_no_standing_pivot(self, hex_prism):
        cfg = derive_resolutions(hex_prism, ResolutionConfig())
        s = centered_state(hex_prism)
        kinds = {a.kind for a, _ in successors(s, hex_prism, cfg)}
        assert ActionKind.PIVOT not in kinds


class TestSlides:
    def test_slide_shifts_one_contact_along_horizontal(self, square_prism):
        s = centered_state(square_prism)
        act = Action(ActionKind.SLIDE_LEFT_UP, 0.01)
        nxt = transition(s, act, square_prism)
        assert np.allclose(nxt.left.center,
                           s.left.center + 0.01 * state_axes(s, square_prism)[0][0],
                           atol=1e-15)
        assert np.allclose(nxt.right.center, s.right.center)
        assert nxt.support_face == s.support_face
        assert nxt.grasp_pair == s.grasp_pair

    def test_slide_right_moves_right_only(self, square_prism):
        s = centered_state(square_prism)
        axes = state_axes(s, square_prism)
        act = Action(ActionKind.SLIDE_RIGHT_DOWN, 0.005)
        nxt = transition(s, act, square_prism)
        assert np.allclose(nxt.right.center,
                           s.right.center - 0.005 * axes[1][0], atol=1e-15)
        assert np.allclose(nxt.left.center, s.left.center)

    def test_slide_inverse_restores_exactly(self, all_objects):
        for obj in all_objects:
            s = centered_state(obj, pad=0.012)
            for up, down in ((ActionKind.SLIDE_LEFT_UP, ActionKind.SLIDE_LEFT_DOWN),
                             (ActionKind.SLIDE_RIGHT_UP, ActionKind.SLIDE_RIGHT_DOWN),
                             (ActionKind.MOVE_CONTACT_UP, ActionKind.MOVE_CONTACT_DOWN)):
                there = transition(s, Action(up, 0.005), obj)
                back = transition(there, Action(down, 0.005), obj)
                assert state_key(back) == state_key(s)

    def test_containment_violation_raises(self, square_prism):
        s = centered_state(square_prism)
        with pytest.raises(w.InfeasibleActionError):
            transition(s, Action(ActionKind.SLIDE_LEFT_UP, 0.05), square_prism)


class TestMoves:
    def test_move_shifts_both_contacts_vertically(self, square_prism):
        s = centered_state(square_prism)
        axes = state_axes(s, square_prism)
        nxt = transition(s, Action(ActionKind.MOVE_CONTACT_UP, 0.01), square_prism)
        assert np.allclose(nxt.left.center, s.left.center + 0.01 * axes[0][1])
        assert np.allclose(nxt.right.center, s.right.center + 0.01 * axes[1][1])
        # the up axis points to world +z on both faces
        rot = state_mode(s, square_prism).rot
        for region, finger in zip((s.left, s.right), axes):
            frame = square_prism.face(region.face).frame.rotation
            world_dir = rot @ frame @ np.array([finger[1][0], finger[1][1], 0.0])
            assert np.allclose(world_dir, [0, 0, 1], rtol=0.0, atol=1e-12)


class TestRotation:
    def test_hexagon_pair_advance(self, hex_prism):
        # pairs: (0,3) (1,4) (2,5); from (1,4) one step lands on (2,5)
        cfg = derive_resolutions(hex_prism, ResolutionConfig())
        face = hex_prism.faces[1].polygon
        center = (face.vertices.min(axis=0) + face.vertices.max(axis=0)) / 2.0
        s = GraspState.create(hex_prism, 1, 4, hex_prism.lateral_count,
                              center, center, 0.02, 0.02)
        assert s.grasp_pair == 1
        results = dict()
        for act, child in successors(s, hex_prism, cfg):
            if act.kind in (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW):
                results[act.kind] = child
                assert act.magnitude == pytest.approx(math.pi / 3.0, abs=1e-9)
        assert {child.grasp_pair for child in results.values()} == {0, 2}
        ccw = results[ActionKind.ROTATE_CCW]
        assert (ccw.left.face, ccw.right.face) == (2, 5)

    def test_replay_rejects_a_magnitude_search_never_offers(self, suite_entries):
        entry = next(e for e in suite_entries if e["name"] == "ht_t2_rotate")
        obj, start, _, resolution, _ = load_task(entry)
        offered = next(a for a, _ in successors(start, obj, resolution)
                       if a.kind == ActionKind.ROTATE_CW)
        assert offered.magnitude == pytest.approx(math.pi / 3.0, abs=1e-12)
        transition(start, offered, obj)
        with pytest.raises(w.InfeasibleActionError):
            transition(start, Action(offered.kind, 2.0 * math.pi / 3.0, offered.arc_radius), obj)

    def test_rotation_cycle_restores_symmetric_state(self, square_prism, hex_prism):
        for obj in (square_prism, hex_prism):
            cfg = derive_resolutions(obj, ResolutionConfig())
            lateral_pairs = sum(1 for p in obj.parallel_pairs
                                if p[0] < obj.lateral_count)
            s = centered_state(obj)
            cur = s
            for _ in range(2 * lateral_pairs):
                act = [a for a, _ in successors(cur, obj, cfg)
                       if a.kind == ActionKind.ROTATE_CCW][0]
                cur = transition(cur, act, obj)
            assert cur.grasp_pair == s.grasp_pair
            assert state_key(cur) == state_key(s)
            assert np.allclose(cur.left.center, s.left.center, atol=1e-9)
            assert abs((cur.left.orientation - s.left.orientation) % (2 * math.pi)) < 1e-9

    def test_gravity_coordinate_preserved(self, square_prism, rng):
        cfg = derive_resolutions(square_prism, ResolutionConfig())
        for _ in range(20):
            s = random_feasible_state(square_prism, rng)
            for act, child in successors(s, square_prism, cfg):
                if act.kind not in (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW):
                    continue
                z_before = transition_mod._world_center(
                    square_prism, state_mode(s, square_prism), s.left)[2]
                z_after = transition_mod._world_center(
                    square_prism, state_mode(child, square_prism), child.left)[2]
                assert z_after == pytest.approx(z_before, abs=1e-9)


class TestPivot:
    def test_standing_box_pivot(self, square_prism):
        s = centered_state(square_prism)
        info = state_mode(s, square_prism).pivot_edge
        assert info is not None
        assert abs(info.angle) == pytest.approx(math.pi / 2.0, abs=1e-12)
        nxt = transition(s, Action(ActionKind.PIVOT, abs(info.angle)), square_prism)
        assert nxt.support_face == info.new_support
        assert nxt.support_face != s.support_face
        assert nxt.grasp_pair == s.grasp_pair
        assert np.allclose(nxt.left.center, s.left.center, rtol=0.0, atol=1e-12)
        assert np.allclose(nxt.right.center, s.right.center, rtol=0.0, atol=1e-12)

    def test_pivot_preserves_area_and_dims(self, square_prism):
        s = centered_state(square_prism)
        nxt = transition(s, Action(ActionKind.PIVOT, math.pi / 2.0), square_prism)
        for before, after in ((s.left, nxt.left), (s.right, nxt.right)):
            assert after.pad_width == before.pad_width
            assert after.pad_height == before.pad_height
            assert after.area() == before.area()

    def test_pivot_rotates_orientation_by_step(self, square_prism):
        s = centered_state(square_prism)
        nxt = transition(s, Action(ActionKind.PIVOT, math.pi / 2.0), square_prism)
        delta = (nxt.left.orientation - s.left.orientation) % (2 * math.pi)
        assert min(delta, 2 * math.pi - delta) == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_four_pivots_roll_back_to_start_support(self, square_prism):
        s = centered_state(square_prism)
        cur = s
        supports = [s.support_face]
        for _ in range(4):
            info = state_mode(cur, square_prism).pivot_edge
            cur = transition(cur, Action(ActionKind.PIVOT, abs(info.angle)), square_prism)
            supports.append(cur.support_face)
        assert supports[-1] == supports[0]
        assert len(set(supports[:4])) == 4


class TestOracleEquivalence:
    def test_rotation_matches_rigid_motion_oracle(self, all_objects, rng):
        checked = 0
        for obj in all_objects:
            cfg = derive_resolutions(obj, ResolutionConfig(
                max_grasp_width=0.2, pad_width=0.012, pad_height=0.012))
            for _ in range(30):
                s = random_feasible_state(obj, rng)
                for act, child in successors(s, obj, cfg):
                    if act.kind not in (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW):
                        continue
                    expected = oracle_rotate(obj, s, act.kind == ActionKind.ROTATE_CCW,
                                             act.magnitude)
                    assert expected is not None
                    (lf, lc, lo), (rf, rc, ro), pair_idx = expected
                    assert child.left.face == lf and child.right.face == rf
                    assert child.grasp_pair == pair_idx
                    assert np.allclose(child.left.center, lc, rtol=0.0, atol=1e-12)
                    assert np.allclose(child.right.center, rc, rtol=0.0, atol=1e-12)
                    assert _angle_close(child.left.orientation, lo, 1e-12)
                    assert _angle_close(child.right.orientation, ro, 1e-12)
                    checked += 1
        assert checked >= 100

    def test_pivot_matches_rigid_motion_oracle(self, all_objects, rng):
        checked = 0
        for obj in all_objects:
            cfg = derive_resolutions(obj, ResolutionConfig(
                pad_width=0.012, pad_height=0.012))
            for _ in range(40):
                s = random_feasible_state(obj, rng)
                for act, child in successors(s, obj, cfg):
                    if act.kind != ActionKind.PIVOT:
                        continue
                    expected = oracle_pivot(obj, s)
                    assert expected is not None
                    (lf, lc, lo), (rf, rc, ro), new_support = expected
                    assert child.support_face == new_support
                    assert np.allclose(child.left.center, lc, rtol=0.0, atol=1e-12)
                    assert np.allclose(child.right.center, rc, rtol=0.0, atol=1e-12)
                    assert _angle_close(child.left.orientation, lo, 1e-12)
                    assert _angle_close(child.right.orientation, ro, 1e-12)
                    checked += 1
        assert checked >= 50


class TestGoalMetrics:
    def test_contained_contact_has_zero_outside(self, square_prism):
        s = centered_state(square_prism)
        big = GoalRegion(s.left.face, w.ConvexPolygon2(
            [(0, 0), (0.04, 0), (0.04, 0.1), (0, 0.1)]))
        big2 = GoalRegion(s.right.face, w.ConvexPolygon2(
            [(0, 0), (0.04, 0), (0.04, 0.1), (0, 0.1)]))
        assert region_outside_goal(s, [big, big2]) == pytest.approx(0.0, abs=1e-12)
        left, right = overlap_ratio(s, [big, big2])
        assert left == pytest.approx(1.0, abs=1e-12)
        assert right == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_goal_counts_full_pads(self, square_prism):
        s = centered_state(square_prism)
        tiny = w.ConvexPolygon2([(0, 0.09), (0.005, 0.09), (0.005, 0.095), (0, 0.095)])
        goals = [GoalRegion(s.left.face, tiny), GoalRegion(s.right.face, tiny)]
        assert region_outside_goal(s, goals) == pytest.approx(2 * 0.02 * 0.02, abs=1e-12)
        assert overlap_ratio(s, goals) == (0.0, 0.0)

    def test_half_overlap(self, square_prism):
        s = centered_state(square_prism)
        cl = s.left.center
        half_left = w.ConvexPolygon2([(cl[0], cl[1] - 0.01), (cl[0] + 0.01, cl[1] - 0.01),
                                      (cl[0] + 0.01, cl[1] + 0.01), (cl[0], cl[1] + 0.01)])
        cr = s.right.center
        half_right = w.ConvexPolygon2([(cr[0], cr[1] - 0.01), (cr[0] + 0.01, cr[1] - 0.01),
                                       (cr[0] + 0.01, cr[1] + 0.01), (cr[0], cr[1] + 0.01)])
        goals = [GoalRegion(s.left.face, half_left), GoalRegion(s.right.face, half_right)]
        left, right = overlap_ratio(s, goals)
        assert left == pytest.approx(0.5, abs=1e-9)
        assert right == pytest.approx(0.5, abs=1e-9)
        pad_area = 0.02 * 0.02
        assert region_outside_goal(s, goals) == pytest.approx(
            2 * (pad_area - 0.0002), abs=1e-12)

    def test_abutting_goals_union(self, square_prism):
        # two goal halves that tile the pad exactly; union must cover it
        s = centered_state(square_prism)
        c = s.left.center
        lower = w.ConvexPolygon2([(c[0] - 0.01, c[1] - 0.01), (c[0] + 0.01, c[1] - 0.01),
                                  (c[0] + 0.01, c[1]), (c[0] - 0.01, c[1])])
        upper = w.ConvexPolygon2([(c[0] - 0.01, c[1]), (c[0] + 0.01, c[1]),
                                  (c[0] + 0.01, c[1] + 0.01), (c[0] - 0.01, c[1] + 0.01)])
        cr = s.right.center
        full = w.ConvexPolygon2([(cr[0] - 0.01, cr[1] - 0.01), (cr[0] + 0.01, cr[1] - 0.01),
                                 (cr[0] + 0.01, cr[1] + 0.01), (cr[0] - 0.01, cr[1] + 0.01)])
        goals = [GoalRegion(s.left.face, lower), GoalRegion(s.left.face, upper),
                 GoalRegion(s.right.face, full)]
        assert region_outside_goal(s, goals) == pytest.approx(0.0, abs=1e-12)

    def test_transition_states_stay_contained(self, all_objects, rng):
        for obj in all_objects:
            cfg = derive_resolutions(obj, ResolutionConfig(pad_width=0.012,
                                                           pad_height=0.012))
            s = random_feasible_state(obj, rng)
            for act, child in successors(s, obj, cfg):
                for region in (child.left, child.right):
                    poly = obj.face(region.face).polygon
                    assert poly.contains_points(region.corners(), tol=1e-6).all()


@pytest.mark.parametrize("radius", [-1.0, -3.0, -math.inf, math.inf, math.nan])
def test_action_rejects_a_bad_arc_radius(radius):
    with pytest.raises(w.InvalidInputError, match="arc_radius"):
        Action(ActionKind.ROTATE_CW, 1.0, arc_radius=radius)


@pytest.mark.parametrize("magnitude", [0.0, -1.0, -math.inf, math.inf, math.nan])
def test_action_rejects_a_bad_magnitude(magnitude):
    with pytest.raises(w.InvalidInputError, match="magnitude"):
        Action(ActionKind.ROTATE_CW, magnitude, arc_radius=0.02)


class TestStateValidation:
    def test_mismatched_pair_rejected(self, square_prism):
        with pytest.raises(w.InvalidStateError):
            GraspState.create(square_prism, 0, 1, 4, (0.02, 0.02), (0.02, 0.02),
                              0.02, 0.02)

    def test_support_must_be_perpendicular(self, hex_prism):
        # lying a hexagonal prism on an adjacent lateral face is inconsistent
        with pytest.raises(w.InvalidStateError):
            GraspState.create(hex_prism, 0, 3, 1, (0.015, 0.06), (0.015, 0.06),
                              0.02, 0.02)

    def test_contact_outside_face_rejected(self, square_prism):
        with pytest.raises(w.InvalidStateError):
            GraspState.create(square_prism, 0, 2, 4, (0.2, 0.02), (0.02, 0.02),
                              0.02, 0.02)

    @pytest.mark.parametrize("field, value", [("support_face", 99), ("support_face", -1),
                                              ("grasp_pair", 3), ("grasp_pair", -1)])
    def test_out_of_range_ids_rejected(self, square_prism, field, value):
        s = centered_state(square_prism)._replace(**{field: value})
        with pytest.raises(w.InvalidStateError, match="does not exist"):
            s.validate(square_prism)

    def test_create_rejects_a_missing_support_face(self, square_prism):
        with pytest.raises(w.InvalidStateError, match="support face 99 does not exist"):
            GraspState.create(square_prism, 0, 2, 99, (0.02, 0.02), (0.02, 0.02), 0.02, 0.02)

    @pytest.mark.parametrize("orientation", [math.inf, -math.inf, math.nan])
    def test_non_finite_orientation_rejected(self, square_prism, orientation):
        with pytest.raises(w.InvalidStateError, match="orientation must be finite"):
            GraspState.create(square_prism, 0, 2, 4, (0.02, 0.02), (0.02, 0.02), 0.02, 0.02,
                              left_orientation=orientation)
        s = centered_state(square_prism)
        bad = s._replace(right=s.right._replace(orientation=orientation))
        with pytest.raises(w.InvalidStateError, match="orientation must be finite"):
            bad.validate(square_prism)

    @pytest.mark.parametrize("width", [math.nan, math.inf, 0.0, -0.02])
    def test_bad_pad_width_rejected(self, square_prism, width):
        with pytest.raises(w.InvalidStateError, match="pad dimensions must be positive"):
            GraspState.create(square_prism, 0, 2, 4, (0.02, 0.02), (0.02, 0.02), width, 0.02)
        s = centered_state(square_prism)
        bad = s._replace(left=s.left._replace(pad_width=width))
        with pytest.raises(w.InvalidStateError, match="pad dimensions must be positive"):
            bad.validate(square_prism)


def test_package_exposes_the_transition_module():
    assert w.transition is transition_mod
    assert callable(transition_mod.transition)


@functools.cache
def _containment_objects() -> list[w.ObjectModel]:
    """Fresh models, so the drawn pads do not fill the shared fixtures' mode tables."""
    return [io_mod.load_object(FIXTURES / name) for name in OBJECT_FILES]


def _threshold_pad(face, theta, width, height, edge, along, nudges) -> ContactRegion:
    """A pad centred where one corner sits FEAS_TOL outside a face edge, then
    moved by a few ulps per coordinate (nudges: signed ulp counts)."""
    normals, _ = face.polygon.halfplanes()
    verts = face.polygon.vertices
    on_edge = verts[edge] + along * (verts[(edge + 1) % len(verts)] - verts[edge])
    reach = float((ContactRegion(face.id, 0.0, 0.0, theta, width, height).corners()
                   @ normals[edge]).min())
    center = on_edge + (-FEAS_TOL - reach) * normals[edge]
    for i, nudge in enumerate(nudges):
        for _ in range(abs(nudge)):
            center[i] = np.nextafter(center[i], math.copysign(1.0, nudge))
    return ContactRegion(face.id, *center, theta, width, height)


def shrunk_face(obj, face_id: int, theta: float, pad_width: float, pad_height: float) -> tuple:
    """The face's half-planes holding the centres of pads that fit it within FEAS_TOL."""
    return transition_mod.shrunk_planes(obj.face(face_id).polygon, theta, pad_width, pad_height,
                                        FEAS_TOL)


def _place_matches_oracle(obj, pad: ContactRegion) -> bool:
    x, y = pad.center.tolist()
    planes = shrunk_face(obj, pad.face, pad.orientation, pad.pad_width, pad.pad_height)
    placed = transition_mod._fit(obj, planes, pad.face, x, y, pad.orientation, pad)
    if placed is not None:
        assert placed.center.tolist() == [x, y]
    return (placed is not None) == pad_corners_inside(obj, pad)


@st.composite
def _pads(draw):
    """A pad on a fixture face, half of them centred within ulps of the
    -FEAS_TOL containment threshold of one face edge."""
    obj = draw(st.sampled_from(_containment_objects()))
    face = obj.faces[draw(st.integers(0, len(obj.faces) - 1))]
    theta = draw(st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2,
                                            math.pi / 3, -2 * math.pi / 3]),
                           st.floats(-math.pi, math.pi)))
    width = draw(st.floats(0.002, 0.03))
    height = draw(st.floats(0.002, 0.03))
    if draw(st.booleans()):
        verts = face.polygon.vertices
        lo, hi = verts.min(axis=0) - width, verts.max(axis=0) + width
        center = np.array([draw(st.floats(lo[i], hi[i])) for i in range(2)])
        return obj, ContactRegion(face.id, *center, theta, width, height)
    edge = draw(st.integers(0, len(face.polygon) - 1))
    nudges = (draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))
    return obj, _threshold_pad(face, theta, width, height, edge, draw(st.floats(0.0, 1.0)),
                               nudges)


class TestModeTable:
    @settings(max_examples=400, deadline=None)
    @given(_pads())
    def test_containment_matches_corner_oracle(self, drawn):
        assert _place_matches_oracle(*drawn)

    def test_threshold_pads_match_corner_oracle(self, monkeypatch):
        # Near the threshold the centre test alone disagrees with the corners
        # about 1% of the time; the guard band must send those to the corner test.
        rng = np.random.default_rng(11)
        real = transition_mod._corners_inside
        corner_calls = []
        monkeypatch.setattr(transition_mod, "_corners_inside",
                            lambda *args: corner_calls.append(args) or real(*args))
        verdicts = set()
        for _ in range(2000):
            obj = _containment_objects()[int(rng.integers(len(OBJECT_FILES)))]
            face = obj.faces[int(rng.integers(len(obj.faces)))]
            theta = float(rng.choice([0.0, math.pi / 2, math.pi / 3,
                                      rng.uniform(-math.pi, math.pi)]))
            width, height = rng.uniform(0.002, 0.03, size=2).tolist()
            pad = _threshold_pad(face, theta, width, height, int(rng.integers(len(face.polygon))),
                                 float(rng.random()), rng.integers(-4, 5, size=2).tolist())
            assert _place_matches_oracle(obj, pad)
            verdicts.add(pad_corners_inside(obj, pad))
        assert verdicts == {True, False}
        assert len(corner_calls) > 1000

    def test_mode_tables_match_the_old_construction_bit_for_bit(self):
        # Every valid grasp mode of the 6 fixture objects: each turn, the width,
        # the face axes and the pivot edge equal the old numpy construction's,
        # floats compared by their bits; the invalid triples fail in both.
        def bits(value):
            if isinstance(value, float):
                return value.hex()
            if isinstance(value, np.ndarray):
                return bits(value.tolist())
            if isinstance(value, tuple | list):
                return type(value).__name__, [bits(v) for v in value]
            return value

        modes = 0
        for name in OBJECT_FILES:
            obj = io_mod.load_object(FIXTURES / name)
            for triple in itertools.product(range(len(obj.faces)), repeat=3):
                try:
                    old = mode_table_oracle(obj, *triple)
                except (w.InvalidModelError, w.InvalidStateError):
                    with pytest.raises(w.InvalidStateError):
                        transition_mod._Mode(obj, *triple)
                    continue
                m = transition_mod._Mode(obj, *triple)
                modes += 1
                assert bits(m.width) == bits(old["width"]), (name, triple)
                assert bits(m.axes) == bits(old["axes"]), (name, triple)
                assert bits(m.pivot_edge) == bits(old["pivot_edge"]), (name, triple)
                for kind, turn in old["turns"].items():
                    assert bits(m.ops[kind]) == bits(turn), (name, triple, kind)
        assert modes == 148

    def test_replay_matches_search_bit_for_bit(self, suite_entries):
        rng = np.random.default_rng(7)
        for entry in suite_entries:
            obj, start, _, resolution, _ = load_task(entry)
            replay_obj = io_mod.load_object(FIXTURES / entry["object"])  # its own mode table
            state = start
            for _ in range(25):
                options = successors(state, obj, resolution)
                for action, child in options:
                    assert _state_bits(transition(state, action, replay_obj)) == \
                        _state_bits(child), (entry["name"], action)
                state = options[int(rng.integers(len(options)))][1]

    def test_mode_table_holds_one_entry_per_mode(self, suite_entries):
        entry = next(e for e in suite_entries if e["name"] == "sq_t3_caps")
        obj, start, _, resolution, _ = load_task(entry)
        frontier, seen, modes = [start], {state_key(start)}, set()
        while frontier and len(seen) < 3000:
            state = frontier.pop()
            modes.add((state.support_face, state.left.face, state.right.face))
            for _, child in successors(state, obj, resolution):
                if state_key(child) not in seen:
                    seen.add(state_key(child))
                    frontier.append(child)
        assert len(modes) > 1
        assert set(obj.scratch) == modes

    def test_successors_return_the_tables_actions(self, square_prism):
        cfg = ResolutionConfig()
        s = centered_state(square_prism)
        first = {a.kind: a for a, _ in successors(s, square_prism, cfg)}
        slid = next(child for a, child in successors(s, square_prism, cfg)
                    if a.kind == ActionKind.SLIDE_LEFT_UP)
        for state in (s, slid):  # same mode, other pads
            again = successors(state, square_prism, cfg)
            assert len(again) > 4
            assert all(a is first[a.kind] for a, _ in again)

    def test_a_new_config_replaces_the_table(self, suite_entries):
        # One model planned on alternating configs plans as fresh models do.
        entry = next(e for e in suite_entries if e["name"] == "rl_t1_shift")
        obj, start, goals, resolution, cost = load_task(entry)
        coarse = dataclasses.replace(resolution, slide_step=2.0 * resolution.slide_step)
        configs = (resolution, coarse, resolution)
        shared = [plan(obj, start, goals, cfg, cost) for cfg in configs]
        fresh = [plan(load_task(entry)[0], start, goals, cfg, cost) for cfg in configs]
        assert shared == fresh
        assert shared[0].expansions != shared[1].expansions

    def test_transition_replays_every_successor(self, suite_entries):
        # From each fixture start and plan state, replay gives search's child bit for bit.
        for entry in suite_entries:
            obj, start, goals, resolution, cost = load_task(entry)
            for state in plan(obj, start, goals, resolution, cost).states:
                for action, child in successors(state, obj, resolution):
                    assert _state_bits(transition(state, action, obj)) == \
                        _state_bits(child), (entry["name"], action)


def _outcomes(obj, state, cfg) -> tuple:
    """Search's children of state, and replay's child for each action of the
    mode's move table (None where infeasible), as bits."""
    m = transition_mod._mode(obj, state.support_face, state.left.face, state.right.face)
    children = [(action, _state_bits(child)) for action, child in successors(state, obj, cfg)]
    replays = []
    for _, action in transition_mod._moves(m, cfg):
        try:
            replays.append(_state_bits(transition(state, action, obj)))
        except w.InfeasibleActionError:
            replays.append(None)
    return children, replays


class TestOrientationTable:
    """One entry per value of a mode's two pad orientations and sizes: the pads'
    planes and the landings of the turns taken from them."""

    def test_pad_sizes_get_their_own_planes(self):
        cfg = ResolutionConfig()
        obj = io_mod.load_object(FIXTURES / "square_prism.json")
        # 2 mm from the face corner: a 5 mm step down fits a 10 mm pad, not a 20 mm one.
        big = GraspState.create(obj, 0, 2, 4, (0.012, 0.012), (0.012, 0.012), 0.02, 0.02)
        small = GraspState.create(obj, 0, 2, 4, (0.012, 0.012), (0.012, 0.012), 0.01, 0.01)
        mixed = big._replace(right=small.right)
        m = transition_mod._mode(obj, 4, 0, 2)
        outcomes = []
        for state in (big, small, mixed, big, small):
            got = _outcomes(obj, state, cfg)
            assert got == _outcomes(io_mod.load_object(FIXTURES / "square_prism.json"),
                                    state, cfg)
            outcomes.append(got)
            left, right = state.left, state.right
            planes_lr = m.orientations[(left.orientation, right.orientation, left.pad_width,
                                        left.pad_height, right.pad_width, right.pad_height)][0]
            for pad, planes in zip((left, right), planes_lr):
                assert planes == shrunk_face(obj, pad.face, pad.orientation, pad.pad_width,
                                             pad.pad_height)
        assert outcomes[0] != outcomes[1] != outcomes[2] != outcomes[0]

    def test_table_stays_within_its_cap(self):
        rng = np.random.default_rng(16)
        cfg = ResolutionConfig(pad_width=0.01, pad_height=0.01)
        obj, ref = (io_mod.load_object(FIXTURES / "square_prism.json") for _ in range(2))
        base = mode_states(obj)[0]
        m = transition_mod._mode(obj, base.support_face, base.left.face, base.right.face)
        pairs = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0)]
        pairs += rng.uniform(-math.pi, math.pi, size=(300, 2)).tolist()
        sizes = []
        for theta_l, theta_r in pairs:
            state = base._replace(left=base.left._replace(orientation=theta_l),
                                  right=base.right._replace(orientation=theta_r))
            for fresh in ref.scratch.values():
                fresh.orientations.clear()
            assert _outcomes(obj, state, cfg) == _outcomes(ref, state, cfg)
            sizes.append(len(m.orientations))
        assert max(sizes) == transition_mod._ORIENTATION_CAP < len(pairs)
        assert sizes[-1] < sizes[transition_mod._ORIENTATION_CAP - 1]  # cleared on the way

    def test_a_zero_turn_lands_both_zero_signs_on_zero(self, monkeypatch):
        # Rotations shift some pads' orientations by exactly 0.0.  Reading that
        # angle's sine as -0.0 makes the shift come out -0.0 before the mode
        # table normalises it, and -0.0 + -0.0 would keep a parent's -0.0.
        flipped = []

        class NegativeZeroSine:
            def __getattr__(self, name):
                return getattr(math, name)

            @staticmethod
            def atan2(y, x):
                if y == 0.0 and x > 0.0:
                    flipped.append(y)
                    y = -0.0
                return math.atan2(y, x)

        monkeypatch.setattr(transition_mod, "math", NegativeZeroSine())
        cfg = ResolutionConfig(pad_width=0.01, pad_height=0.01)
        landed = []
        for signs in ((0.0, -0.0), (-0.0, 0.0)):  # which sign builds each entry
            obj = io_mod.load_object(FIXTURES / "square_prism.json")
            bits, zero_landings, searched = {}, 0, 0
            for base in mode_states(obj):
                m = transition_mod._mode(obj, base.support_face, base.left.face, base.right.face)
                turns = [t for t in m.ops.values() if type(t) is transition_mod._Turn]
                assert all(shift.hex() != "-0x0.0p+0" for t in turns for *_, shift in t.fingers)
                for theta in signs:
                    state = base._replace(left=base.left._replace(orientation=theta),
                                          right=base.right._replace(orientation=-theta))
                    search = dict(successors(state, obj, cfg))
                    for t in turns:
                        try:
                            child = transition(state, t.action, obj)
                        except w.InfeasibleActionError:
                            continue
                        if t.action in search:
                            assert _state_bits(search[t.action]) == _state_bits(child)
                            searched += 1
                        for pad, (*_, shift) in zip(child[:2], t.fingers):
                            if shift == 0.0:
                                assert pad.orientation.hex() == "0x0.0p+0"
                                zero_landings += 1
                        bits.setdefault((base, t.action.kind), []).append(_state_bits(child))
            assert zero_landings > 10 and searched > 10
            # A +-0.0 parent lands on the same bits, whichever sign it has.
            assert all(first == second for first, second in bits.values())
            landed.append(bits)
        assert flipped
        assert landed[0] == landed[1]

    def test_filtered_rotations_build_no_landings(self, monkeypatch):
        # No pair is short enough for this length/width limit, so search offers
        # no rotation and builds planes for the parent pads and the pivot only.
        cfg = ResolutionConfig(pad_width=0.01, pad_height=0.01, max_length_width_ratio=0.01)
        obj = io_mod.load_object(FIXTURES / "square_prism.json")
        face_of = {id(f.polygon): f.id for f in obj.faces}
        real = transition_mod.shrunk_planes
        built = []

        def shrunk_planes(polygon, *shape):
            assert shape[-1] == FEAS_TOL
            built.append((face_of[id(polygon)], *shape[:-1]))
            return real(polygon, *shape)

        monkeypatch.setattr(transition_mod, "shrunk_planes", shrunk_planes)
        pivots = 0
        for state in mode_states(obj):
            m = transition_mod._mode(obj, state.support_face, state.left.face, state.right.face)
            pivot = m.ops[ActionKind.PIVOT]
            assert all(m.ops[kind] is not None for kind in transition_mod._ROTATIONS)
            built.clear()
            kinds = {a.kind for a, _ in successors(state, obj, cfg)}
            assert not kinds & set(transition_mod._ROTATIONS)
            pads = (state.left, state.right)
            expected = [(pad.face, pad.orientation, pad.pad_width, pad.pad_height) for pad in pads]
            if pivot is not None:
                expected += [(face, math.remainder(pad.orientation + shift, 2 * math.pi),
                              pad.pad_width, pad.pad_height)
                             for pad, (face, *_, shift) in zip(pads, pivot.fingers)]
                pivots += ActionKind.PIVOT in kinds
            assert built == expected
        assert pivots > 0


@functools.cache
def _walk_starts(index: int) -> list[GraspState]:
    return mode_states(_containment_objects()[index])


@st.composite
def _walks(draw):
    """A random feasible walk of search's children on a shared fixture model
    (``_containment_objects``), from pads of two sizes, some turned to +0.0
    or -0.0."""
    index = draw(st.integers(0, len(OBJECT_FILES) - 1))
    obj = _containment_objects()[index]
    starts = _walk_starts(index)
    base = starts[draw(st.integers(0, len(starts) - 1))]
    # A centred square pad no larger than the 10 mm one stays on its face.
    pads = []
    for pad in (base.left, base.right):
        size = draw(st.sampled_from([0.006, 0.01]))
        turn = draw(st.sampled_from([pad.orientation, 0.0, -0.0]))
        pads.append(pad._replace(pad_width=size, pad_height=size, orientation=turn))
    state = base._replace(left=pads[0], right=pads[1])
    try:
        state.validate(obj)
    except w.InvalidStateError:
        state = base  # a zero orientation that does not fit this face
    states, actions = [state], []
    for _ in range(draw(st.integers(1, 20))):
        children = successors(state, obj, ResolutionConfig())
        if not children:
            break
        action, state = children[draw(st.integers(0, len(children) - 1))]
        actions.append(action)
        states.append(state)
    return index, Plan(actions, states, [0.0] * len(actions), 0.0, 0.0, 0.0, "best-effort", 0.0)


def test_walks_replay_bit_for_bit_on_shared_and_fresh_tables():
    # Search and replay share each model's orientation tables: a walk replays
    # to the same bits on the model search built them on and on a fresh one.
    kinds = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_walks())
    def check(walk):
        index, plan_ = walk
        recorded = [_state_bits(s) for s in plan_.states]
        shared = _containment_objects()[index]
        for obj in (shared, io_mod.load_object(FIXTURES / OBJECT_FILES[index])):
            result = simulate(plan_, obj, plan_.states[0])
            assert [_state_bits(s) for s in result.trace] == recorded
        kinds.update(a.kind for a in plan_.actions)

    check()
    assert kinds == set(ActionKind)


def _is_shift(op) -> bool:
    """Whether a move-table op is a translation's deltas (not a turn)."""
    return not isinstance(op, transition_mod._Turn)


class TestExpansionKernels:
    """Search reads each parent fact once: translations test the parent pads'
    half-planes, child keys reuse the cells of shared pads, and the kernels
    build states and pads with tuple.__new__."""

    def test_guard_band_translations_match_the_corner_oracle(self, monkeypatch):
        # The moved pad lands within ulps of a face edge's FEAS_TOL threshold.
        real = transition_mod._corners_inside
        corner_calls = []
        monkeypatch.setattr(transition_mod, "_corners_inside",
                            lambda *args: corner_calls.append(args) or real(*args))
        rng = np.random.default_rng(5)
        cfg = ResolutionConfig()
        verdicts = set()
        for obj, name in zip(_containment_objects(), OBJECT_FILES):
            replay_obj = io_mod.load_object(FIXTURES / name)  # its own mode table
            states = mode_states(obj)
            for _ in range(12):
                base = states[int(rng.integers(len(states)))]
                m = transition_mod._mode(obj, base.support_face, base.left.face,
                                         base.right.face)
                table = transition_mod._moves(m, cfg)
                for finger in (0, 1):
                    pad = base[finger]
                    face = obj.face(pad.face)
                    edge = _threshold_pad(face, pad.orientation, pad.pad_width, pad.pad_height,
                                          int(rng.integers(len(face.polygon))),
                                          float(rng.random()), rng.integers(-4, 5, size=2).tolist())
                    # The edge pad itself, then each translation's parent that lands on it.
                    lands = [(0.0, 0.0)] + [(du, dv) for op, _ in table if _is_shift(op)
                                            for i, du, dv in op if i == finger]
                    for du, dv in lands:
                        moved = edge._replace(x=edge.x - du, y=edge.y - dv)
                        parent = base._replace(**{("left", "right")[finger]: moved})
                        verdicts |= self._check_expansion(obj, replay_obj, parent, table)
        assert verdicts == {True, False}
        assert corner_calls

    @staticmethod
    def _check_expansion(obj, replay_obj, parent, table) -> set:
        children = successors(parent, obj, ResolutionConfig())
        kinds = {a.kind for a, _ in children}
        verdicts = set()
        for op, action in table:
            if not _is_shift(op):
                continue
            moved = [parent[i]._replace(x=parent[i].x + du, y=parent[i].y + dv)
                     for i, du, dv in op]
            fits = all(pad_corners_inside(obj, pad) for pad in moved)
            assert (action.kind in kinds) == fits, action
            verdicts.add(fits)
            if not fits:
                with pytest.raises(w.InfeasibleActionError):
                    transition(parent, action, replay_obj)
        for action, child in children:
            assert _state_bits(transition(parent, action, replay_obj)) == _state_bits(child), \
                action
        return verdicts

    def test_child_keys_and_tuples_on_random_walks(self):
        rng = np.random.default_rng(9)
        cfg = ResolutionConfig()
        kinds, shared = set(), 0
        for obj in _containment_objects():
            states = mode_states(obj)
            state = states[0]
            for _ in range(60):
                children = successors(state, obj, cfg)
                if not children:
                    state = states[int(rng.integers(len(states)))]
                    continue
                key = state_key(state)
                for action, child in children:
                    kinds.add(action.kind)
                    assert state_key(child, state, key) == state_key(child)
                    shared += (child.left is state.left) + (child.right is state.right)
                    assert type(child) is GraspState
                    assert type(child.left) is ContactRegion
                    assert type(child.right) is ContactRegion
                    twin = GraspState(ContactRegion(*child.left), ContactRegion(*child.right),
                                      child.grasp_pair, child.support_face)
                    assert child == twin and hash(child) == hash(twin)
                    assert child._replace(support_face=child.support_face) == child
                    assert child.left._replace(x=child.left.x) == child.left
                    assert type(child.right._replace(y=0.0)) is ContactRegion
                state = children[int(rng.integers(len(children)))][1]
        assert kinds == set(ActionKind)
        assert shared > 0


@functools.cache
def _code_objects() -> list[w.ObjectModel]:
    """The fixture models and a cube at the face coordinate limit: its faces
    span 0 to FACE_COORD_LIMIT or -FACE_COORD_LIMIT to 0, so a pad near the far
    edge of one face and a pad near the near edge of the next differ by more
    than the limit along one axis."""
    side = FACE_COORD_LIMIT
    cube = w.build_prism(w.ConvexPolygon2([(-side, 0), (0, 0), (0, side), (-side, side)]), side)
    return _containment_objects() + [cube]


_QUANTUM = 1e-7
_NEAR_TWO_PI = [2 * math.pi + k * 1e-8 for k in range(-10, 11)]
_ORIENTATIONS = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2, 2 * math.pi, -2 * math.pi]
                    + _NEAR_TWO_PI + [-t for t in _NEAR_TWO_PI]),
    st.floats(-10.0, 10.0))
_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def _pad_sets(draw):
    """Pads on the faces of one fixture or limit model, each with a neighbour:
    every coordinate of the neighbour lies in the pad's lattice cell or an
    adjacent one (or both are +-0.0), its orientation is the pad's nudged by
    up to 1e-7 or a fresh draw, and its face is mostly the pad's.  The corners
    of every face's bounding box, where a digit is largest, join them."""
    obj = draw(st.sampled_from(_code_objects()))
    theta = draw(_ORIENTATIONS)
    pads = [ContactRegion(f.id, x, y, theta, 0.02, 0.02) for f in obj.faces
            for x, y in itertools.product(*zip(f.polygon.vertices.min(axis=0).tolist(),
                                               f.polygon.vertices.max(axis=0).tolist()))]
    for _ in range(draw(st.integers(1, 12))):
        face = obj.faces[draw(st.integers(0, len(obj.faces) - 1))]
        lo, hi = face.polygon.vertices.min(axis=0), face.polygon.vertices.max(axis=0)
        a, b = [face.id], [draw(st.sampled_from([face.id] * 3 + [f.id for f in obj.faces]))]
        for i in range(2):
            if draw(st.integers(0, 9)) == 0:
                a.append(draw(_ZEROS))
                b.append(draw(_ZEROS))
                continue
            n = draw(st.integers(round(lo[i] / _QUANTUM), round(hi[i] / _QUANTUM)))
            a.append((n + draw(st.floats(-0.5, 0.5))) * _QUANTUM)
            b.append((n + draw(st.integers(-1, 1)) + draw(st.floats(-0.5, 0.5))) * _QUANTUM)
        theta = draw(_ORIENTATIONS)
        other = draw(st.one_of(st.just(theta), _ORIENTATIONS,
                               st.integers(-10, 10).map(lambda k, t=theta: t + k * 1e-8)))
        pads += [ContactRegion(*a, theta, 0.02, 0.02), ContactRegion(*b, other, 0.02, 0.02)]
    return pads


class TestCellCode:
    """``region_cell`` packs the (face, x, y, orientation) lattice cell into one int."""

    @settings(max_examples=300, deadline=None)
    @given(_pad_sets())
    def test_code_equality_is_reference_cell_equality(self, pads):
        # Every digit stays within its radix, so the codes also sort as the
        # reference tuples do: a digit overflowing into the next breaks that
        # order for pads far apart, where an equal pair is unlikely to be drawn.
        cells = sorted((reference_cell(p), region_cell(p)) for p in pads)
        assert all(type(code) is int for _, code in cells)
        for (ref_a, code_a), (ref_b, code_b) in zip(cells, cells[1:]):
            assert (code_a == code_b) == (ref_a == ref_b)
            assert code_a <= code_b

    def test_state_key_is_support_face_and_two_codes(self, all_objects, rng):
        for obj in all_objects:
            s = random_feasible_state(obj, rng)
            assert state_key(s) == (s.support_face, region_cell(s.left), region_cell(s.right))

    def test_signed_zero_and_wrap_share_a_code(self):
        pad = ContactRegion(5, 0.0, -0.0, 0.0, 0.02, 0.02)
        for twin in (pad._replace(x=-0.0, y=0.0), pad._replace(orientation=-0.0),
                     pad._replace(orientation=2 * math.pi),
                     pad._replace(orientation=2 * math.pi - 4e-8),
                     pad._replace(x=4e-8, y=-4e-8, orientation=-4e-8)):
            assert region_cell(twin) == region_cell(pad)
        for apart in (pad._replace(x=6e-8), pad._replace(y=-6e-8), pad._replace(face=4),
                      pad._replace(orientation=2 * math.pi - 6e-8),
                      pad._replace(orientation=6e-8)):
            assert region_cell(apart) != region_cell(pad)


def _state_bits(s: GraspState) -> tuple:
    floats = []
    for r in (s.left, s.right):
        floats += [*r.center.tolist(), r.orientation, r.pad_width, r.pad_height]
    return (s.grasp_pair, s.support_face, s.left.face, s.right.face,
            [float(v).hex() for v in floats])


def _angle_close(a: float, b: float, tol: float) -> bool:
    d = (a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d) <= tol
