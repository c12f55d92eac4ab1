"""The abstract-graph lower bound: admissible and consistent on exhaustive
state graphs, and its turn test against an LP oracle and against search."""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import wihmplan as w
from wihmplan import heuristic as heuristic_mod
from wihmplan import transition as transition_mod
from wihmplan.geometry import GEOM_TOL, halfspaces_feasible
from wihmplan.heuristic import (
    HeuristicCache,
    finger_table,
    fit_polygon,
    pad_stay,
    total_heuristic,
)
from wihmplan.planner import _GOAL_SLACK, CostConfig, _abstract_bound, plan, start_bound
from wihmplan.transition import (
    TURN_SLACK,
    ActionKind,
    ContactRegion,
    GoalRegion,
    GraspState,
    ResolutionConfig,
    cell_turn,
    derive_resolutions,
    region_cell,
    shrunk_planes,
    state_key,
    successors,
    turns,
)

from conftest import load_task, random_convex_polygon
from oracles import (
    all_image_goal_fits,
    enumerate_state_graph,
    halfplane_bound,
    optimal_cost_to_goals,
)
from test_acceptance import _mini_box, _mini_hex, _mini_rect, criterion_3_instances
from test_planner import small_instance
from test_transition import _containment_objects, _walks, mode_states, shrunk_face

SLACK = TURN_SLACK
_TURN_KINDS = (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW, ActionKind.PIVOT)


def _instances() -> list:
    """Criterion 3's 20 instances, plus 3 with slides priced by slide_unit_cost."""
    unit = CostConfig(slide_unit_cost=0.02)
    return criterion_3_instances() + [("box-slide/unit", _mini_box("slide"), unit),
                                      ("rect-caps/unit", _mini_rect("caps"), unit),
                                      ("hex-slide/unit", _mini_hex(), unit)]


def test_bound_is_admissible_and_consistent():
    # On each exhaustive state graph: max(lambda * h, bound) never exceeds the
    # remaining optimal cost, bound(s) <= c + bound(s') on every edge, the
    # bound is within the planner's slack at every goal state (so the search
    # never skips a goal test there), and A* with the bound returns the optimum.
    stronger = edges_checked = goals_checked = 0
    for name, (obj, s0, goals, res), cost in _instances():
        states, edges = enumerate_state_graph(obj, s0, res, cost, max_states=100_000)
        cache = HeuristicCache(obj, goals)
        goal_keys = {k for k, s in states.items()
                     if total_heuristic(s, cache) <= cost.goal_tolerance}
        dist = optimal_cost_to_goals(edges, goal_keys)
        k0 = state_key(s0)
        bound, b0 = _abstract_bound(obj, s0, k0, HeuristicCache(obj, goals), res, cost, {})
        assert bound is not None and b0 < math.inf, name
        values = {k: bound(s, k) for k, s in states.items()}
        lam = cost.heuristic_scale
        for key, s in states.items():
            scaled = lam * total_heuristic(s, cache)
            assert max(scaled, values[key]) <= dist.get(key, math.inf) + 1e-12, (name, key)
        for key, outs in edges.items():
            for child, step in outs:
                assert values[key] <= step + values[child] + 1e-12, (name, key, child)
                edges_checked += 1
        for key in goal_keys:
            assert values[key] <= _GOAL_SLACK, (name, key, values[key])
            goals_checked += 1
        p = plan(obj, s0, goals, res, cost)
        assert p.status == "exact-goal", name
        assert abs(p.total_action_cost - dist[k0]) <= 1e-12, name
        stronger += values[k0] > lam * total_heuristic(s0, cache)
    assert stronger >= len(_instances()) // 2
    assert edges_checked > 10_000
    assert goals_checked > 1_000


@pytest.mark.parametrize("shift", [-1e-7, 0.0, 1e-7])
def test_goal_edge_flush_with_the_pads_is_reached(shift):
    # Two shifts up put each pad's lower edge on the goals' lower edge; shift
    # moves that edge one lattice cell down (the pads fit with 1e-7 to spare),
    # or up (they stick out by 1e-7, so a third shift is needed).  The search
    # runs with the bound on and finds the optimum of the exhaustive graph.
    cs = w.ConvexPolygon2([(0, 0), (0.03, 0), (0.03, 0.03), (0, 0.03)])
    obj = w.build_prism(cs, 0.06, name="tall_box")
    res = derive_resolutions(obj, ResolutionConfig(slide_step=0.01, z_step=0.01,
                                                   pad_width=0.015, pad_height=0.015))
    s0 = GraspState.create(obj, 0, 2, 4, (0.015, 0.015), (0.015, 0.015), 0.015, 0.015)
    edge = 0.0275 + shift
    goals = [GoalRegion(f, w.ConvexPolygon2([(0.0, edge), (0.03, edge), (0.03, 0.06),
                                              (0.0, 0.06)])) for f in (0, 2)]
    cost = CostConfig()
    assert 0.0 < start_bound(obj, s0, goals, res, cost) < math.inf
    states, edges = enumerate_state_graph(obj, s0, res, cost, max_states=100_000)
    cache = HeuristicCache(obj, goals)
    goal_keys = {k for k, s in states.items() if total_heuristic(s, cache) <= cost.goal_tolerance}
    optimum = optimal_cost_to_goals(edges, goal_keys)[state_key(s0)]
    p = plan(obj, s0, goals, res, cost)
    assert p.status == "exact-goal"
    assert p.total_action_cost == pytest.approx(optimum, abs=1e-12)
    assert len(p.actions) == (3 if shift > 0.0 else 2)


def _lp_margin(rows: np.ndarray) -> float:
    """The largest t with rows[:, :4] @ v - rows[:, 4] >= t for some v, by linprog."""
    n = rows.shape[0]
    a_ub = np.hstack([-rows[:, :4], np.ones((n, 1))])
    res = linprog(np.array([0.0, 0.0, 0.0, 0.0, -1.0]), A_ub=a_ub, b_ub=-rows[:, 4],
                  bounds=[(None, None)] * 4 + [(None, 1.0)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return -res.fun


def _turn_rows(obj, t, left, right) -> np.ndarray:
    """Turn t's constraints over (x_l, y_l, x_r, y_r), rebuilt from its centre maps
    and shrunk faces: (coefficients, bound) rows."""
    rows = []
    for i, pad in enumerate((left, right)):
        for n_u, n_v, b in shrunk_face(obj, pad.face, pad.orientation, pad.pad_width,
                                       pad.pad_height):
            row = np.zeros(5)
            row[2 * i:2 * i + 2] = n_u, n_v
            row[4] = b
            rows.append(row)
    for pad, (face, x_map, y_map, shift) in zip((left, right), t.fingers):
        theta = math.remainder(pad.orientation + shift, 2.0 * math.pi)
        x_map, y_map = np.array(x_map), np.array(y_map)
        for n_u, n_v, b in shrunk_face(obj, face, theta, pad.pad_width, pad.pad_height):
            rows.append(np.append(n_u * x_map[:4] + n_v * y_map[:4],
                                  b - n_u * x_map[4] - n_v * y_map[4]))
    return np.array(rows)


def _tight(obj, face: int) -> float:
    """A square pad's side that spans the face's narrower extent."""
    return float(min(np.ptp(obj.face(face).polygon.vertices, axis=0)))


def _reachable_turns(suite_entries):
    """Every turn of every mode and orientation pair reachable from each fixture
    start, with pads of the fixture's size, 6 mm and as wide as the start face
    (so some feasible sets are thin), walked as the bound walks them through
    ``transition.turns``: (task name, pad size index, model, abstract node,
    the mode's turn, its verdict, left pad, right pad)."""
    cfg = ResolutionConfig()
    for entry in suite_entries:
        obj, start, _, _, _ = load_task(entry)
        for index, size in enumerate((start.left.pad_width, 0.006,
                                      _tight(obj, start.left.face))):
            pads = [ContactRegion(p.face, 0.0, 0.0, p.orientation, size, size)
                    for p in (start.left, start.right)]
            queue = [(start.support_face, *pads)]
            seen = set()
            while queue:
                support, left, right = queue.pop()
                node = (support, cell_turn(region_cell(left)), cell_turn(region_cell(right)))
                if node in seen:
                    continue
                seen.add(node)
                ops = transition_mod._mode(obj, support, left.face, right.face).ops
                for action, fits, *landing, _ in turns(obj, support, left, right, cfg):
                    yield entry["name"], index, obj, node, ops[action.kind], fits, left, right
                    if fits:
                        queue.append(tuple(landing))


def test_turn_test_matches_an_lp_oracle(suite_entries):
    # Over the reachable turns of _reachable_turns: the float verdict is
    # linprog's, the largest common margin of the same constraints at least -SLACK.
    verdicts = {True: 0, False: 0}
    thinnest = math.inf
    for name, _, obj, node, op, fits, left, right in _reachable_turns(suite_entries):
        margin = _lp_margin(_turn_rows(obj, op, left, right))
        assert abs(margin + SLACK) > 1e-11, (name, node, op.action.kind)
        assert fits == (margin >= -SLACK), (name, node, op.action.kind, margin)
        verdicts[fits] += 1
        if fits:
            thinnest = min(thinnest, margin)
    assert verdicts[True] > 50 and verdicts[False] > 10
    assert thinnest < 1e-5


def test_turn_witness_never_overrules_the_elimination(suite_entries):
    # Wherever the centroid witness accepts a turn, the elimination on the full
    # rows accepts it too; both paths run, and the tight pads' thin feasible
    # sets send some turns to the elimination.
    accepted = [0, 0, 0]  # per pad size: fixture, 6 mm, as wide as the start face
    fallback = [0, 0, 0]
    for name, index, obj, node, op, fits, left, right in _reachable_turns(suite_entries):
        m = transition_mod._mode(obj, node[0], left.face, right.face)
        e = transition_mod._entry(obj, m, left, right)
        landing = e[1].get(op.action.kind) or transition_mod._landing(obj, e, op, left, right)
        rows = transition_mod._turn_rows(e[0], landing)
        if transition_mod._turn_witness(obj, e[0], landing, left.face, right.face):
            assert halfspaces_feasible(rows, SLACK), (name, node, op.action.kind)
            accepted[index] += 1
        else:
            fallback[index] += 1
        assert fits == halfspaces_feasible(rows, SLACK), (name, node, op.action.kind)
    assert min(accepted) > 0 and sum(fallback) > 0
    assert fallback[2] > 0


def _assert_turns_taken_fit(obj, state) -> int:
    """Assert the turn test passes every rotation and pivot successors takes
    from state; the number of them."""
    cfg = ResolutionConfig()
    verdicts = {action: fits for action, fits, *_ in turns(obj, state.support_face, state.left,
                                                            state.right, cfg)}
    taken = 0
    for action, _ in successors(state, obj, cfg):
        if action.kind in _TURN_KINDS:
            assert verdicts[action], action.kind
            taken += 1
    return taken


def test_turn_test_keeps_every_turn_search_takes():
    # From every state of random feasible walks (pads of two sizes), each
    # rotation and pivot successors takes passes the turn test.
    taken = 0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_walks())
    def check(walk):
        nonlocal taken
        index, plan_ = walk
        obj = _containment_objects()[index]
        for state in plan_.states:
            taken += _assert_turns_taken_fit(obj, state)

    check()
    assert taken > 100


def test_turn_test_keeps_the_turns_of_pads_as_wide_as_a_face():
    # Centred pads as wide as a face's narrower extent fit it with no room to
    # spare, so the centre pairs that can take their turns are few.
    taken = 0
    for obj in _containment_objects():
        for size in sorted({_tight(obj, f.id) for f in obj.faces}):
            for state in mode_states(obj, pad=size):
                taken += _assert_turns_taken_fit(obj, state)
    assert taken > 20


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.5, 0.5)),
                min_size=1, max_size=12))
def test_halfspaces_feasible_matches_an_lp_oracle(planes):
    # Random 2D systems of half-planes: the elimination's verdict is linprog's
    # wherever the largest common margin is clear of the slack.
    rows = [(a, b, c) for a, b, c in planes if math.hypot(a, b) > 1e-3]
    rows += [(1.0, 0.0, -10.0), (-1.0, 0.0, -10.0), (0.0, 1.0, -10.0), (0.0, -1.0, -10.0)]
    unused = [[0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0, 0.0]]
    margin = _lp_margin(np.array([[a, b, 0.0, 0.0, c] for a, b, c in rows] + unused))
    if abs(margin + SLACK) > 1e-9:
        assert halfspaces_feasible(rows, SLACK) == (margin >= -SLACK)


def _graph_summary(obj, task) -> list:
    """The abstract graph of a search from the task's start on obj, as the plan
    fingerprint records it: node count, then the finite exit costs sorted."""
    _, start, goals, resolution, cost = task
    bound, _ = _abstract_bound(obj, start, state_key(start), HeuristicCache(obj, goals),
                               resolution, cost, {})
    if bound is None:
        return []
    return [len(bound.exits)] + sorted(c for c in bound.exits.values() if math.isfinite(c))


def test_abstract_graph_on_warm_tables_matches_a_fresh_model(suite_entries):
    # A second build on one model reads the mode and orientation tables the
    # first filled; every turn verdict is decided again, as on a fresh model.
    built = 0
    for entry in suite_entries:
        task = load_task(entry)
        obj = task[0]
        first = _graph_summary(obj, task)
        assert _graph_summary(obj, task) == first == _graph_summary(load_task(entry)[0], task), (
            entry["name"])
        built += bool(first)
    assert built == len(suite_entries) == 12


def test_cell_turn_keeps_face_and_orientation_only():
    rng = np.random.default_rng(19)
    for _ in range(500):
        face = int(rng.integers(0, 12))
        theta = float(rng.uniform(-7.0, 7.0))
        x, y = rng.uniform(-1e3, 1e3, size=2).tolist()
        pad = ContactRegion(face, x, y, theta, 0.02, 0.02)
        here = cell_turn(region_cell(pad))
        assert here == cell_turn(region_cell(pad._replace(x=0.0, y=0.0)))
        assert here != cell_turn(region_cell(pad._replace(face=face + 1)))
        assert here != cell_turn(region_cell(pad._replace(orientation=theta + 1e-6)))


def test_bound_is_off_when_no_goal_can_hold_a_pad(caplog, monkeypatch):
    # Goal bands thinner than the pads: the bound is infinite at the start,
    # decided before any graph is built, and the search runs without it.
    obj, s0, _, res, cost = small_instance("slide")
    sliver = [GoalRegion(f, w.ConvexPolygon2([(0.0, 0.044), (0.03, 0.044),
                                               (0.03, 0.05), (0.0, 0.05)])) for f in (0, 2)]
    monkeypatch.setattr(heuristic_mod.AbstractBound, "build", None)
    with caplog.at_level(logging.INFO, logger="wihmplan.planner"):
        p = plan(obj, s0, sliver, res, cost)
    assert p.status == "best-effort"
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [
        "no exact goal is reachable from the start: the abstract-graph bound is infinite "
        "there; searching without it for the best effort"]
    assert start_bound(obj, s0, sliver, res, cost) == math.inf


def test_pads_at_most_twice_the_goal_tolerance_wide_are_rejected():
    # Only a pad this thin could fit its face and a goal on another face at
    # once, which the bound's same-face goal test assumes away: plan() and
    # start_bound reject it, naming the tolerance and the pad side.
    obj, s0, goals, res, cost = small_instance("slide")
    cost = dataclasses.replace(cost, goal_tolerance=s0.left.pad_width / 2.0)
    for call in (plan, start_bound):
        with pytest.raises(w.InvalidInputError, match="goal_tolerance") as info:
            call(obj, s0, goals, res, cost)
        assert f"pad side {s0.left.pad_width!r}" in str(info.value), call.__name__


# Fixture task -> the plan cost its bounded search reaches.
CAPPED_TOTALS = {"rc_t1_shift": 0.08, "sq_t1_shift": 0.14, "sq_t2_rotate": 0.1242477796076938}


@pytest.mark.parametrize("name", sorted(CAPPED_TOTALS))
def test_graph_past_its_cap_leaves_the_search_on_lambda_h(suite_entries, caplog, monkeypatch,
                                                          name):
    # A graph that passes its cap is dropped: the bound reads 0 at the start,
    # plan() says so in one INFO line, and λ·h alone still finds the plan of
    # the bounded search's cost.
    monkeypatch.setattr(heuristic_mod, "_GRAPH_CAP", 5)
    task = load_task(next(e for e in suite_entries if e["name"] == name))
    assert start_bound(*task) == 0.0
    with caplog.at_level(logging.INFO, logger="wihmplan.planner"):
        p = plan(*task)
    assert p.status == "exact-goal" and p.total_action_cost == CAPPED_TOTALS[name]
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [
        "the abstract graph passed its cap of 5 nodes; searching without the bound, "
        "on heuristic_scale * h"]


def test_node_records_build_each_table_once(suite_entries, monkeypatch):
    # Over a whole search, one bound runs _goal_fits once per distinct
    # (cell, pad size) and builds each node's finger table at most once per
    # finger; the fit lists are shared between fingers and nodes.
    calls = {"fits": 0, "tables": 0}
    bounds = []
    build, goal_fits, table = (heuristic_mod.AbstractBound.build,
                               heuristic_mod.AbstractBound._goal_fits, heuristic_mod.finger_table)

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(heuristic_mod.AbstractBound, "build",
                        lambda *args: bounds.append(build(*args)) or bounds[-1])
    monkeypatch.setattr(heuristic_mod.AbstractBound, "_goal_fits", counted("fits", goal_fits))
    monkeypatch.setattr(heuristic_mod, "finger_table", counted("tables", table))
    shared = 0
    for entry in suite_entries:
        calls.update(fits=0, tables=0)
        plan(*load_task(entry))
        bound = bounds[-1]
        built = sum(f is not None for record in bound._nodes.values() for f in record.fingers)
        assert calls == {"fits": len(bound._fits), "tables": built}, entry["name"]
        shared += built > len(bound._fits)
    assert len(bounds) == len(suite_entries) == 12 and shared > 0


# Fixture task -> start bound / the optimal plan cost, to 6 places.
START_GAPS = {
    "hs_t1_rotate": 1.0, "ht_t1_shift": 1.0, "ht_t2_rotate": 1.0, "rc_t1_shift": 1.0,
    "rc_t2_rotate": 0.960136, "rl_t1_shift": 1.0, "rl_t2_rotate": 1.0, "rs_t1_shift": 0.9375,
    "rs_t2_rotate": 0.95731, "sq_t1_shift": 1.0, "sq_t2_rotate": 1.0, "sq_t3_caps": 1.0,
}


@pytest.mark.parametrize("name", sorted(START_GAPS))
def test_start_bound_is_positive_and_below_the_plan_cost(suite_entries, name):
    # The fixture plans are optimal, so their cost is C*; a looser (or
    # tighter) bound changes the pinned gap.
    obj, start, goals, resolution, cost = load_task(
        next(e for e in suite_entries if e["name"] == name))
    bound = start_bound(obj, start, goals, resolution, cost)
    total = plan(obj, start, goals, resolution, cost).total_action_cost
    assert 0.0 < bound <= total
    assert bound / total == pytest.approx(START_GAPS[name], abs=1e-6)


def test_bound_is_never_below_the_half_plane_bound():
    # On each exhaustive state graph the bound is at least its earlier form
    # (half-plane h_stay, position-free exit: oracles.halfplane_bound) at
    # every state, and above it at some.
    tighter = 0
    for name, (obj, s0, goals, res), cost in _instances():
        states, _ = enumerate_state_graph(obj, s0, res, cost, max_states=100_000)
        bound, _ = _abstract_bound(obj, s0, state_key(s0), HeuristicCache(obj, goals), res,
                                   cost, {})
        for key, s in states.items():
            new, old = bound(s, key), halfplane_bound(bound, s, key)
            assert new >= old - 1e-12, (name, key, new, old)
            tighter += new > old + 1e-9
    assert tighter > 1_000


def test_turn_exits_are_1_lipschitz_in_the_translation_metric():
    # h_exit at random pad centres of each node with a goal-capable landing
    # (the exhaustive instances, where some turn maps a unit move to more
    # than unit cost in its landing node): it changes by at most the weighted
    # L1 distance between the centres, and L_e bounds how far the turn's
    # linear part stretches that distance into the landing node's.
    rng = np.random.default_rng(23)
    stretched = pairs = 0
    for name, (obj, s0, goals, res), cost in _instances():
        bound, _ = _abstract_bound(obj, s0, state_key(s0), HeuristicCache(obj, goals), res,
                                   cost, {})
        w_h, w_z = bound.weights
        for node, record in bound._nodes.items():
            table = bound._exit_table(node)
            if all(row[4] is None for row in table):
                continue
            support, (left, right) = record.support, record.pads
            axes = transition_mod.finger_axes(obj, support, left.face, right.face)

            def metric(d, axes=axes):
                return sum(w_h * abs(h[0] * u + h[1] * v) + w_z * abs(z[0] * u + z[1] * v)
                           for (h, z), u, v in zip(axes, d[::2], d[1::2]))

            for _, _, lipschitz, maps, fingers in table:
                if fingers is None:
                    continue
                stretched += lipschitz > 1.0 + 1e-9
                for d in rng.normal(size=(20, 4)).tolist():
                    moved = [(sum(a * b for a, b in zip(x_map, d)),
                              sum(a * b for a, b in zip(y_map, d))) for x_map, y_map in maps]
                    landed = sum(w_h * abs(f[0] * u + f[1] * v) + w_z * abs(f[2] * u + f[3] * v)
                                 for f, (u, v) in zip(fingers, moved))
                    assert landed <= lipschitz * metric(d) * (1.0 + 1e-12), (name, node)
            pair = obj.pair_of_faces(left.face, right.face)
            lo = min(obj.face(f).polygon.vertices.min() for f in (left.face, right.face))
            hi = max(obj.face(f).polygon.vertices.max() for f in (left.face, right.face))
            for _ in range(50):
                a, b = (rng.uniform(lo, hi, size=4).tolist() for _ in range(2))
                states = [GraspState(left._replace(x=c[0], y=c[1]), right._replace(x=c[2], y=c[3]),
                                     pair, support) for c in (a, b)]
                gap = abs(bound._exit(states[0], node, math.inf)
                          - bound._exit(states[1], node, math.inf))
                assert gap <= metric([x - y for x, y in zip(a, b)]) + 1e-12, (name, node)
                pairs += 1
    assert stretched > 0 and pairs > 1_000


def _lp_l1_distance(rows, x, y, axes, w_h, w_z) -> float:
    """min w_h * |dh| + w_z * |dz| over the moves (dh, dz) along the axes that
    carry (x, y) into every row (n0, n1, b, _) as n0 * x + n1 * y >= b, by
    linprog on split variables (dh+, dh-, dz+, dz-)."""
    (h_u, h_v), (z_u, z_v) = axes
    a_ub, b_ub = [], []
    for n0, n1, b, _ in rows:
        nh, nz = n0 * h_u + n1 * h_v, n0 * z_u + n1 * z_v
        a_ub.append([-nh, nh, -nz, nz])
        b_ub.append(n0 * x + n1 * y - b)
    res = linprog(np.array([w_h, w_h, w_z, w_z]), A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  bounds=[(0.0, None)] * 4, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun


def test_exact_stay_matches_an_lp_oracle():
    # One pad and one goal image of unit scale, the finger's axes turned by
    # phi: pad_stay is the LP's weighted L1 distance to the fit polygon
    # (within 1e-12 for the LP's rounding), shrunk by at most the relative
    # 1e-9 slack, and never below the largest half-plane violation over its
    # dual norm.  Centres lie inside the polygon, in a vertex's outer region,
    # beyond an edge, and flush with an edge.
    outside = {"vertex": 0, "edge": 0}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), theta=st.floats(-math.pi, math.pi),
           size=st.tuples(st.floats(0.05, 0.4), st.floats(0.05, 0.4)),
           phi=st.floats(-math.pi, math.pi),
           weights=st.tuples(st.floats(0.5, 3.0), st.floats(0.25, 2.0)),
           where=st.sampled_from(["inside", "vertex", "edge", "flush"]),
           t=st.tuples(st.floats(0.0, 1.0), st.floats(1e-6, 0.3)))
    def check(seed, theta, size, phi, weights, where, t):
        polygon = random_convex_polygon(np.random.default_rng(seed))
        fit = shrunk_planes(polygon, theta, *size, GEOM_TOL)
        verts = fit_polygon(polygon, fit, GEOM_TOL)
        if len(verts) < 3:
            return
        axes = ((math.cos(phi), math.sin(phi)), (-math.sin(phi), math.cos(phi)))
        finger = finger_table([np.array(a) for a in axes], [(fit, verts)], *weights)
        ring = np.array(verts)
        centre = ring.mean(axis=0)
        k = int(t[0] * len(verts)) % len(verts)
        a, b = ring[k], ring[(k + 1) % len(verts)]
        edge = b - a
        normal = np.array([edge[1], -edge[0]]) / np.linalg.norm(edge)  # outward: ccw ring
        point = {"inside": centre + t[0] * (a - centre),
                 "vertex": a + t[1] * (a - centre) / np.linalg.norm(a - centre),
                 "edge": a + t[0] * edge + t[1] * normal,
                 "flush": a + t[0] * edge}[where]
        x, y = point.tolist()
        value = pad_stay(finger, x, y, *weights)
        rows = finger[4][0][0]
        exact = _lp_l1_distance(rows, x, y, axes, *weights)
        assert exact * (1.0 - 1e-9) - 1e-12 <= value <= exact + 1e-12, (where, value, exact)
        assert value >= max([0.0] + [(b - n0 * x - n1 * y) * s for n0, n1, b, s in rows])
        if where == "inside":
            assert value == 0.0
        elif where in outside and exact > 1e-6:
            outside[where] += 1

    check()
    assert min(outside.values()) > 20


def test_goal_fits_match_the_all_image_test(suite_entries, monkeypatch):
    # Each pad of every abstract node, on the fixture tasks and the exhaustive
    # instances, fits the goals, fit rows and fit polygons (compared with ==,
    # so -0.0 and 0.0 agree) that testing every goal's unfolded image finds
    # (oracles.all_image_goal_fits): a goal on another face holds no pad.
    tasks = [(e["name"], load_task(e)) for e in suite_entries] + [
        (name, (*instance, cost)) for name, instance, cost in _instances()]
    fitted = pads = 0
    for name, (obj, s0, goals, res, cost) in tasks:
        bound, _ = _abstract_bound(obj, s0, state_key(s0), HeuristicCache(obj, goals), res,
                                   cost, {})
        for node, record in bound._nodes.items():
            for pad in record.pads:
                fits = bound._goal_fits(pad)
                assert fits == all_image_goal_fits(bound, pad), (name, node)
                assert any(g.face != pad.face for g in bound.goals), (name, node)
                fitted += bool(fits)
                pads += 1
    assert 0 < fitted < pads
    # The start bounds need neither goal images nor unfolded maps.
    expected = {}
    for entry in suite_entries:
        task = load_task(entry)
        expected[entry["name"]] = plan(*task).total_action_cost, start_bound(*task)

    def refuse(*args):
        raise AssertionError("the bound built a goal image")

    monkeypatch.setattr(HeuristicCache, "goal_image", refuse)
    monkeypatch.setattr(heuristic_mod, "unfold", refuse)
    for entry in suite_entries:
        name = entry["name"]
        total, bound = expected[name]
        assert start_bound(*load_task(entry)) == bound, name
        assert bound / total == pytest.approx(START_GAPS[name], abs=1e-6), name
