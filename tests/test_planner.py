from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import logging
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import wihmplan as w
from wihmplan import heuristic as heuristic_mod
from wihmplan import io as io_mod
from wihmplan import planner as planner_mod
from wihmplan.heuristic import HeuristicCache, total_heuristic
from wihmplan.bench import simulate
from wihmplan.planner import CostConfig, Plan, action_cost, plan
from wihmplan.transition import (
    Action,
    ActionKind,
    GoalRegion,
    GraspState,
    ResolutionConfig,
    derive_resolutions,
    finger_axes,
    region_outside_goal,
    state_key,
)

from conftest import load_task
from oracles import enumerate_state_graph, optimal_cost_to_goals, state_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402 - needs perfbench on the path

UP, CW, CCW = "MOVE_CONTACT_UP", "ROTATE_CW", "ROTATE_CCW"
# Fixture task -> (expansions, action kinds, total action cost) of its plan.
PINNED_PLANS = {
    "sq_t1_shift": (14, [UP] * 14, 0.14),
    "sq_t2_rotate": (9, [UP, CW, UP, UP], 0.1242477796076938),
    "sq_t3_caps": (2, ["PIVOT", CW], 0.25132741228718347),
    "rc_t2_rotate": (986, ["PIVOT", CW, "PIVOT", "SLIDE_LEFT_DOWN", "SLIDE_RIGHT_DOWN", "PIVOT",
                           CW] + ["SLIDE_LEFT_DOWN", "SLIDE_RIGHT_DOWN"] * 2, 0.7525663103256525),
    "rc_t1_shift": (8, [UP] * 8, 0.08),
    "rl_t1_shift": (134, ["SLIDE_LEFT_DOWN", "SLIDE_RIGHT_DOWN"] + [UP] * 13
                    + ["SLIDE_LEFT_DOWN", "SLIDE_RIGHT_DOWN", UP], 0.16),
    "rl_t2_rotate": (25, [UP] * 8 + [CW], 0.1742477796076938),
    "ht_t1_shift": (12, [UP] * 12, 0.12),
    "ht_t2_rotate": (17, [UP] * 8 + [CCW], 0.16162097139053988),
    "rs_t1_shift": (40, [UP] * 8, 0.08),
    "rs_t2_rotate": (77, [UP] * 2 + [CW] + [UP] * 5, 0.1171238898038469),
    "hs_t1_rotate": (8, [CW, UP, UP, UP, UP], 0.1216209713905397),
}


# (expansions, pushes, cheaper paths to expanded keys, digest of actions, step
# costs and final state) of test_expanded_key_reached_again_more_cheaply_is_pruned's search.
PRUNED_PLAN = (400, 663, 33, "58e8e882f9e1aadaef30")


def _plan_digest(p: Plan) -> str:
    """sha256 (first 20 hex digits) of a plan's actions, step costs and final
    state, floats as ``float.hex``."""
    final = p.states[-1]
    fields = [[a.kind.name, a.magnitude.hex(), a.arc_radius.hex()] for a in p.actions]
    fields += [c.hex() for c in p.step_costs]
    fields += [final.grasp_pair, final.support_face]
    fields += [[r.face] + [float(v).hex() for v in r[1:]] for r in (final.left, final.right)]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:20]


def small_instance(kind="slide"):
    """Tiny coarse-resolution planning instances with enumerable state spaces."""
    cs = w.ConvexPolygon2([(0, 0), (0.03, 0), (0.03, 0.03), (0, 0.03)])
    obj = w.build_prism(cs, 0.05, name="mini_box")
    res = derive_resolutions(obj, ResolutionConfig(
        slide_step=0.01, z_step=0.01, pad_width=0.015, pad_height=0.015))
    s0 = GraspState.create(obj, 0, 2, 4, (0.015, 0.015), (0.015, 0.015),
                           0.015, 0.015)
    if kind == "slide":
        goals = [GoalRegion(0, w.ConvexPolygon2([(0.0, 0.025), (0.03, 0.025),
                                                 (0.03, 0.05), (0.0, 0.05)])),
                 GoalRegion(2, w.ConvexPolygon2([(0.0, 0.025), (0.03, 0.025),
                                                 (0.03, 0.05), (0.0, 0.05)]))]
    elif kind == "rotate":
        goals = [GoalRegion(1, w.ConvexPolygon2([(0.0, 0.02), (0.03, 0.02),
                                                 (0.03, 0.05), (0.0, 0.05)])),
                 GoalRegion(3, w.ConvexPolygon2([(0.0, 0.02), (0.03, 0.02),
                                                 (0.03, 0.05), (0.0, 0.05)]))]
    else:  # caps: requires a pivot followed by a rotation
        goals = [GoalRegion(4, w.ConvexPolygon2([(0.0, -0.03), (0.03, -0.03),
                                                 (0.03, 0.0), (0.0, 0.0)])),
                 GoalRegion(5, w.ConvexPolygon2([(0.0, 0.0), (0.03, 0.0),
                                                 (0.03, 0.03), (0.0, 0.03)]))]
    return obj, s0, goals, res, CostConfig()


class TestActionCost:
    def test_slide_costs_its_resolution(self):
        cfg = CostConfig()
        assert action_cost(Action(ActionKind.SLIDE_LEFT_UP, 0.01), cfg, 0.005) == 0.01

    def test_identity_scaled_move(self):
        cfg = CostConfig(scale_z=1.0)
        act = Action(ActionKind.MOVE_CONTACT_UP, 0.01)
        assert action_cost(act, cfg, 0.005) == pytest.approx(0.01)

    def test_pivot_arc_length_scaling(self):
        cfg = CostConfig(scale_pivot=3.0)
        act = Action(ActionKind.PIVOT, math.pi / 2.0, arc_radius=0.02)
        assert action_cost(act, cfg, 0.005) == pytest.approx(3.0 * (math.pi / 2.0) * 0.02,
                                                             abs=1e-12)

    def test_rotation_uses_arc_radius(self):
        cfg = CostConfig(scale_rotate=3.0)
        act = Action(ActionKind.ROTATE_CW, math.pi / 3.0, arc_radius=0.026)
        assert action_cost(act, cfg, 0.005) == pytest.approx(3.0 * (math.pi / 3.0) * 0.026,
                                                             abs=1e-12)

    def test_slide_unit_cost_is_paid_per_slide_step(self):
        cfg = CostConfig(slide_unit_cost=0.5)
        act = Action(ActionKind.SLIDE_RIGHT_DOWN, 0.01)
        assert action_cost(act, cfg, 0.005) == pytest.approx(0.5 * 2.0, abs=1e-15)

    def test_slide_step_is_required(self):
        with pytest.raises(TypeError, match="slide_step"):
            action_cost(Action(ActionKind.SLIDE_LEFT_UP, 0.01), CostConfig(slide_unit_cost=0.5))

    def test_scales_below_one_rejected(self):
        with pytest.raises(w.InvalidInputError):
            CostConfig(scale_z=0.5).validate()


# Every float field of the two configs, with the config it belongs to.
_FLOAT_FIELDS = [(ResolutionConfig, f.name) for f in dataclasses.fields(ResolutionConfig)] + [
    (CostConfig, f.name) for f in dataclasses.fields(CostConfig) if f.name != "node_budget"]


class TestConfigValidation:
    def test_grip_limits_out_of_order_rejected(self):
        ResolutionConfig(min_grasp_width=0.1, max_grasp_width=0.1).validate()
        with pytest.raises(w.InvalidInputError, match="min_grasp_width .* exceeds max_grasp_width"):
            ResolutionConfig(min_grasp_width=0.1, max_grasp_width=0.09).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, field", _FLOAT_FIELDS)
    def test_non_finite_field_rejected_by_plan(self, cls, field, value):
        obj, s0, goals, res, cost = small_instance("slide")
        bad = dataclasses.replace(res if cls is ResolutionConfig else cost, **{field: value})
        res, cost = (bad, cost) if cls is ResolutionConfig else (res, bad)
        with pytest.raises(w.InvalidInputError, match=field):
            plan(obj, s0, goals, res, cost)
        assert all(m.moves[0] is not bad for m in obj.scratch.values())

    def test_each_distinct_action_is_costed_once(self, monkeypatch, suite_entries):
        obj, s0, goals, res, cost = load_task(
            next(e for e in suite_entries if e["name"] == "rl_t1_shift"))
        costed = []
        real = planner_mod.action_cost
        monkeypatch.setattr(planner_mod, "action_cost",
                            lambda a, *args: costed.append(a) or real(a, *args))
        p = plan(obj, s0, goals, res, cost)
        assert p.expansions > 10
        assert len(costed) == len(set(costed)) > 1
        assert p.step_costs == [real(a, cost, res.slide_step) for a in p.actions]


class TestPlanBasics:
    def test_already_satisfied_goal_gives_empty_plan(self):
        obj, s0, goals, res, cost = small_instance("slide")
        covering = [GoalRegion(0, w.ConvexPolygon2([(0, 0), (0.03, 0), (0.03, 0.05), (0, 0.05)])),
                    GoalRegion(2, w.ConvexPolygon2([(0, 0), (0.03, 0), (0.03, 0.05), (0, 0.05)]))]
        p = plan(obj, s0, covering, res, cost)
        assert p.status == "exact-goal"
        assert len(p.actions) == 0
        assert p.total_action_cost == 0.0
        assert p.objective == pytest.approx(0.0, abs=1e-12)

    def test_empty_goal_set_rejected(self):
        obj, s0, goals, res, cost = small_instance("slide")
        with pytest.raises(w.InvalidInputError):
            plan(obj, s0, [], res, cost)

    @pytest.mark.parametrize("face", [99, -1])
    def test_goal_on_a_face_the_object_lacks_rejected(self, face, monkeypatch):
        # Named by its index and face, before the search keys its first state.
        obj, s0, goals, res, cost = small_instance("slide")
        monkeypatch.setattr(planner_mod, "state_key", None)
        bad = goals + [GoalRegion(face, goals[0].polygon)]
        with pytest.raises(w.InvalidInputError, match=rf"goal {len(goals)} is on face {face},"):
            plan(obj, s0, bad, res, cost)

    def test_infeasible_start_rejected(self):
        obj, s0, goals, res, cost = small_instance("slide")
        bad = GraspState(
            left=s0.left, right=s0.right, grasp_pair=s0.grasp_pair,
            support_face=s0.left.face)  # support equals a gripped face
        with pytest.raises(w.InvalidStartError):
            plan(obj, bad, goals, res, cost)

    def test_two_step_translation_matches_ucs(self):
        obj, s0, goals, res, cost = small_instance("slide")
        p = plan(obj, s0, goals, res, cost)
        assert p.status == "exact-goal"
        assert all(a.kind == ActionKind.MOVE_CONTACT_UP for a in p.actions)
        assert len(p.actions) == 2
        ucs = plan(obj, s0, goals, res, CostConfig(heuristic_scale=0.0))
        assert p.total_action_cost == pytest.approx(ucs.total_action_cost, abs=1e-12)

    def test_one_finger_two_slides(self):
        # right finger starts inside its goal; the left one needs exactly two
        # slide steps, so the optimal plan is two identical slides
        cs = w.ConvexPolygon2([(0, 0), (0.03, 0), (0.03, 0.03), (0, 0.03)])
        obj = w.build_prism(cs, 0.05, name="mini_box")
        res = derive_resolutions(obj, ResolutionConfig(
            slide_step=0.005, z_step=0.005, pad_width=0.01, pad_height=0.01))
        s0 = GraspState.create(obj, 0, 2, 4, (0.02, 0.02), (0.015, 0.02), 0.01, 0.01)
        h = finger_axes(obj, 4, 0, 2)[0][0]
        target_u = 0.02 + 2 * 0.005 * h[0]
        lo, hi = sorted([target_u - 0.006, target_u + 0.006])
        left_goal = GoalRegion(0, w.ConvexPolygon2(
            [(lo, 0.01), (hi, 0.01), (hi, 0.03), (lo, 0.03)]))
        right_goal = GoalRegion(2, obj.faces[2].polygon)
        p = plan(obj, s0, [left_goal, right_goal], res, CostConfig())
        assert p.status == "exact-goal"
        assert [a.kind for a in p.actions] == [ActionKind.SLIDE_LEFT_UP] * 2
        assert p.total_action_cost == pytest.approx(2 * 0.005, abs=1e-15)
        ucs = plan(obj, s0, [left_goal, right_goal], res, CostConfig(heuristic_scale=0.0))
        assert p.total_action_cost == pytest.approx(ucs.total_action_cost, abs=1e-12)

    def test_every_reachable_state_satisfies_invariants(self):
        obj, s0, goals, res, cost = small_instance("caps")
        states, _ = enumerate_state_graph(obj, s0, res, cost, max_states=100_000)
        for st in states.values():
            st.validate(obj)

    def test_replay_invariant(self):
        obj, s0, goals, res, cost = small_instance("rotate")
        p = plan(obj, s0, goals, res, cost)
        state = p.states[0]
        from wihmplan.transition import transition

        for act, recorded in zip(p.actions, p.states[1:]):
            state = transition(state, act, obj)
            assert state_key(state) == state_key(recorded)

    def test_simulated_objective_matches_the_plan(self):
        # The objective recomputed from a noiseless replay's final state.
        obj, s0, goals, res, cost = small_instance("rotate")
        p = plan(obj, s0, goals, res, cost)
        final = simulate(p, obj, s0).final_state
        objective = region_outside_goal(final, goals) + p.tradeoff_weight * math.fsum(p.step_costs)
        assert objective == pytest.approx(p.objective, abs=1e-12)

    def test_simulate_rejects_tampered_plan(self):
        obj, s0, goals, res, cost = small_instance("slide")
        p = plan(obj, s0, goals, res, cost)
        assert len(p.actions) >= 2
        p.actions[-1] = Action(ActionKind.MOVE_CONTACT_DOWN, p.actions[-1].magnitude)
        with pytest.raises(w.CorruptedPlanError):
            simulate(p, obj, s0)

    def test_simulate_rejects_missing_state(self):
        obj, s0, goals, res, cost = small_instance("slide")
        p = plan(obj, s0, goals, res, cost)
        assert len(p.actions) >= 1
        del p.states[-1]
        with pytest.raises(w.CorruptedPlanError, match="states"):
            simulate(p, obj, s0)


class TestPivotRequired:
    def test_cap_goal_needs_exactly_one_pivot(self):
        obj, s0, goals, res, cost = small_instance("caps")
        p = plan(obj, s0, goals, res, cost)
        assert p.status == "exact-goal"
        pivots = [a for a in p.actions if a.kind == ActionKind.PIVOT]
        assert len(pivots) == 1
        # brute-force check on the full reachable graph: no pivot-free path
        # reaches the goal set
        states, edges = enumerate_state_graph(obj, s0, res, cost, max_states=100_000)
        cache = HeuristicCache(obj, goals)
        for key, st in states.items():
            if total_heuristic(st, cache) <= cost.goal_tolerance:
                assert st.support_face != s0.support_face  # must have tipped over

    def test_best_effort_on_unreachable_goal(self):
        obj, s0, goals, res, cost = small_instance("slide")
        # goal band thinner than the pad: exact containment is impossible
        sliver = [GoalRegion(0, w.ConvexPolygon2([(0.0, 0.044), (0.03, 0.044),
                                                  (0.03, 0.05), (0.0, 0.05)])),
                  GoalRegion(2, w.ConvexPolygon2([(0.0, 0.044), (0.03, 0.044),
                                                  (0.03, 0.05), (0.0, 0.05)]))]
        p = plan(obj, s0, sliver, res, cost)
        assert p.status == "best-effort"
        assert p.terminal_outside_area > 0.0
        # the best-effort state still minimizes E + w*g over everything expanded
        assert p.objective <= 2 * 0.015 * 0.015 + 1e-12

    def test_budget_exhaustion_returns_best_effort(self, caplog):
        obj, s0, goals, res, _ = small_instance("rotate")
        cost = CostConfig(node_budget=3)
        with caplog.at_level(logging.WARNING, logger="wihmplan.planner"):
            p = plan(obj, s0, goals, res, cost)
        assert p.status == "best-effort"
        assert p.expansions <= 3
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            "node budget 3 exhausted; returning best effort"]

    def test_budget_scores_its_last_expansion_for_best_effort(self):
        # The budget-th pop counts as expanded, so it competes for the best
        # effort: here the start's one-slide child beats the start.
        obj, s0, _, res, _ = small_instance("slide")
        band = [GoalRegion(f, w.ConvexPolygon2([(0.0, 0.02), (0.03, 0.02),
                                                 (0.03, 0.026), (0.0, 0.026)])) for f in (0, 2)]
        p = plan(obj, s0, band, res, CostConfig(tradeoff_weight=0.0, node_budget=2))
        assert p.status == "best-effort" and p.expansions == 2
        assert len(p) == 1 and p.objective == 0.00027000000000000017

    def test_exhausted_open_list_warns_with_its_expansions(self, caplog):
        # A goal band thinner than the pads and a budget above the reachable
        # states: the open list empties first, with every state expanded once.
        obj, s0, _, res, _ = small_instance("slide")
        sliver = [GoalRegion(f, w.ConvexPolygon2([(0.0, 0.044), (0.03, 0.044),
                                                   (0.03, 0.05), (0.0, 0.05)])) for f in (0, 2)]
        states, _ = state_graph(obj, s0, res)
        cost = CostConfig(node_budget=len(states) + 1)
        with caplog.at_level(logging.WARNING, logger="wihmplan.planner"):
            p = plan(obj, s0, sliver, res, cost)
        assert p.status == "best-effort"
        assert p.expansions == len(states)
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            f"open list exhausted after {len(states)} expansions without reaching the goal; "
            "returning best effort"]


class TestDeterminism:
    def test_repeated_runs_identical(self):
        obj, s0, goals, res, cost = small_instance("rotate")
        p1 = plan(obj, s0, goals, res, cost)
        p2 = plan(obj, s0, goals, res, cost)
        assert [a.kind for a in p1.actions] == [a.kind for a in p2.actions]
        assert [a.magnitude for a in p1.actions] == [a.magnitude for a in p2.actions]
        assert p1.total_action_cost == p2.total_action_cost
        assert p1.expansions == p2.expansions
        for sa, sb in zip(p1.states, p2.states):
            assert state_key(sa) == state_key(sb)

    def test_duplicate_states_not_expanded(self):
        obj, s0, goals, res, cost = small_instance("slide")
        states, _ = enumerate_state_graph(obj, s0, res, cost, max_states=100_000)
        p = plan(obj, s0, goals, res, cost)
        assert p.expansions <= len(states)


class TestOptimality:
    @pytest.mark.parametrize("kind", ["slide", "rotate", "caps"])
    def test_astar_equals_reversed_dijkstra(self, kind):
        obj, s0, goals, res, cost = small_instance(kind)
        p = plan(obj, s0, goals, res, cost)
        assert p.status == "exact-goal"
        states, edges = enumerate_state_graph(obj, s0, res, cost, max_states=100_000)
        cache = HeuristicCache(obj, goals)
        goal_keys = {k for k, st in states.items()
                     if total_heuristic(st, cache) <= cost.goal_tolerance}
        dist = optimal_cost_to_goals(edges, goal_keys)
        assert p.total_action_cost == pytest.approx(dist[state_key(s0)], abs=1e-12)

    def test_lambda_scaled_heuristic_is_admissible(self):
        obj, s0, goals, res, cost = small_instance("caps")
        states, edges = enumerate_state_graph(obj, s0, res, cost, max_states=100_000)
        cache = HeuristicCache(obj, goals)
        goal_keys = {k for k, st in states.items()
                     if total_heuristic(st, cache) <= cost.goal_tolerance}
        dist = optimal_cost_to_goals(edges, goal_keys)
        lam = cost.heuristic_scale
        for key, st in states.items():
            remaining = dist.get(key, math.inf)
            assert lam * total_heuristic(st, cache) <= remaining + 1e-12


@pytest.mark.parametrize("name", sorted(PINNED_PLANS))
def test_fixture_plan_is_pinned(suite_entries, name):
    obj, start, goals, resolution, cost = load_task(
        next(e for e in suite_entries if e["name"] == name))
    p = plan(obj, start, goals, resolution, cost)
    expansions, kinds, total = PINNED_PLANS[name]
    assert p.status == "exact-goal"
    assert p.expansions == expansions
    assert [a.kind.name for a in p.actions] == kinds
    assert p.total_action_cost == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize("name", sorted(PINNED_PLANS))
def test_heuristic_scale_does_not_steer_a_bounded_search(suite_entries, name):
    # While the abstract-graph bound is on, f = g + bound: the plans and
    # expansions are the same at every heuristic_scale.
    obj, start, goals, resolution, cost = load_task(
        next(e for e in suite_entries if e["name"] == name))
    runs = {(p.expansions, _plan_digest(p)) for p in (
        plan(obj, start, goals, resolution, dataclasses.replace(cost, heuristic_scale=lam))
        for lam in (0.0, 0.125, 1.0))}
    assert len(runs) == 1


def _sliver_task(lam):
    """Goal bands thinner than the pads on a small box, so the bound is off:
    a search on lam * h of at most 400 expansions."""
    obj, s0, _, res, _ = small_instance("slide")
    sliver = [GoalRegion(f, w.ConvexPolygon2([(0.0, 0.044), (0.03, 0.044),
                                               (0.03, 0.05), (0.0, 0.05)])) for f in (0, 2)]
    return obj, s0, sliver, res, CostConfig(heuristic_scale=lam, node_budget=400)


def test_expanded_key_reached_again_more_cheaply_is_pruned(monkeypatch):
    # Goal bands thinner than the pads keep the bound off, so f = g + h, and h
    # at heuristic_scale 1.0 is inconsistent: an expanded key can be generated
    # again at a lower g.  Its best_g is -inf, so that path is pruned and no
    # key is expanded twice.
    obj, s0, sliver, res, cost = _sliver_task(1.0)
    popped, pushed, expanded_at, cheaper = [], set(), {}, []

    def push(heap, entry):
        pushed.add(entry[2])  # its counter: an entry pushed back keeps its own
        heapq.heappush(heap, entry)

    def pop(heap):
        popped.append(heapq.heappop(heap))
        return popped[-1]

    real = planner_mod.successors

    def successors(state, *args):
        neg_g, key = popped[-1][1], popped[-1][3]  # the entry being expanded
        assert key not in expanded_at
        expanded_at[key] = -neg_g
        pairs = list(real(state, *args))
        for act, child in pairs:
            if expanded_at.get(state_key(child), -math.inf) > \
                    -neg_g + action_cost(act, cost, res.slide_step):
                cheaper.append(act)
        return pairs

    monkeypatch.setattr(planner_mod, "heapq", SimpleNamespace(heappush=push, heappop=pop))
    monkeypatch.setattr(planner_mod, "successors", successors)
    p = plan(obj, s0, sliver, res, cost)
    assert p.status == "best-effort"
    assert len(cheaper) > 0
    assert (p.expansions, len(pushed), len(cheaper), _plan_digest(p)) == PRUNED_PLAN


def _search(monkeypatch, module, search, task):
    """``search(*task)``, run with ``module``'s heap and successors wrapped: its
    plan, and the (-g, counter, state key) of each entry it expands, in order
    (but a last expansion that spends the node budget, which generates none).

    h is memoized per pad, not per lattice cell: the shipped memo keeps the h
    of the first state of a cell that is evaluated, and the two searches
    evaluate states in different orders, so their h could differ in the last
    bits and break an exact f-tie the other way."""
    popped, expanded = [], []

    def pop(heap):
        popped.append(heapq.heappop(heap))
        return popped[-1]

    real = module.successors

    def successors(state, *args):
        expanded.append(popped[-1][1:4])
        return real(state, *args)

    def per_pad_h(s, cache, key=None):
        return total_heuristic(s, cache, (None, s.left, s.right))  # the pads as memo cells

    with monkeypatch.context() as m:
        m.setattr(module, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=pop))
        m.setattr(module, "successors", successors)
        m.setattr(module, "total_heuristic", per_pad_h)
        return search(*task), expanded


def _fixture_task(entry, lam):
    """A fixture suite entry as plan() arguments, at heuristic_scale lam."""
    obj, s0, goals, res, cost = load_task(entry)
    return obj, s0, goals, res, dataclasses.replace(cost, heuristic_scale=lam)


def _budget_task(task, lam=None):
    """A ``budget`` workload task as plan() arguments, on a freshly loaded object."""
    cost = task.cost if lam is None else dataclasses.replace(task.cost, heuristic_scale=lam)
    return io_mod.load_object(task.object_path), task.start, task.goals, task.resolution, cost


class TestDelayedEvaluation:
    """A child's f is computed when it first reaches the top of the open list.

    Its key until then, g, is at most its f, so the search expands the same
    entries in the same (f, -g, counter) order as one that computes f at
    push (``oracles.eager_plan``), and returns the same plan."""

    @staticmethod
    def _same_search(monkeypatch, make_task):
        for lam in (0.0, 0.125, 1.0):
            delayed = _search(monkeypatch, planner_mod, plan, make_task(lam))
            eager = _search(monkeypatch, oracles, oracles.eager_plan, make_task(lam))
            assert delayed == eager, lam

    def test_fixture_tasks(self, suite_entries, monkeypatch):
        for entry in suite_entries:
            self._same_search(monkeypatch, lambda lam: _fixture_task(entry, lam))

    def test_budget_tasks(self, monkeypatch):
        for task in workloads.BudgetWorkload(3).prepare():
            self._same_search(monkeypatch, lambda lam: _budget_task(task, lam))

    def test_bound_off_sliver_search(self, monkeypatch):
        self._same_search(monkeypatch, _sliver_task)

    def test_graph_past_its_cap(self, suite_entries, monkeypatch):
        monkeypatch.setattr(heuristic_mod, "_GRAPH_CAP", 5)
        entry = next(e for e in suite_entries if e["name"] == "sq_t2_rotate")
        self._same_search(monkeypatch, lambda lam: _fixture_task(entry, lam))

    def test_inconsistent_heuristic_is_logged_where_f_is_computed(self, caplog):
        # At heuristic_scale 1.0 the sliver search's h is inconsistent: some
        # child's f, computed on its first pop, is below its parent's.
        with caplog.at_level(logging.DEBUG, logger="wihmplan.planner"):
            plan(*_sliver_task(1.0))
        assert any(r.getMessage().startswith("inconsistent heuristic: f dropped")
                   for r in caplog.records)

    def test_bound_off_search_computes_h_only_for_entries_it_pops(self, monkeypatch):
        pushed, popped, calls = set(), set(), []

        def push(heap, entry):
            pushed.add(entry[2])
            heapq.heappush(heap, entry)

        def pop(heap):
            entry = heapq.heappop(heap)
            popped.add(entry[2])
            return entry

        monkeypatch.setattr(planner_mod, "heapq", SimpleNamespace(heappush=push, heappop=pop))
        monkeypatch.setattr(planner_mod, "total_heuristic",
                            lambda *args: calls.append(None) or total_heuristic(*args))
        obj, s0, goals, res, cost = _budget_task(workloads.BudgetWorkload(3).prepare()[0])
        p = plan(obj, s0, goals, res, cost)
        assert p.expansions == cost.node_budget
        assert len(calls) <= len(popped) < len(pushed)
