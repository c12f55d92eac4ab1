"""Acceptance suite: each criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; a failing assert marks the criterion FAIL.
"""

from __future__ import annotations

import math
import shutil
import time

import numpy as np
import pytest

import wihmplan as w
from wihmplan import io as io_mod
from wihmplan.bench import TaskSpec, noise_robustness, run_benchmark
from wihmplan.cli import main as cli_main
from wihmplan.heuristic import HeuristicCache, finger_heuristic, total_heuristic
from wihmplan.kinematics import PivotChain, chain_forward, chain_rows, ee_to_pivot, pivot_trajectory
from wihmplan.planner import CostConfig, plan
from wihmplan.transition import (
    ActionKind,
    GoalRegion,
    GraspState,
    ResolutionConfig,
    derive_resolutions,
    state_key,
    successors,
)

from conftest import FIXTURES, load_task, random_convex_polygon, random_feasible_state
from oracles import (
    chain_oracle,
    enumerate_state_graph,
    oracle_pivot,
    oracle_rotate,
    optimal_cost_to_goals,
    point_polygon_distance,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f" — {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def objects():
    names = ["square_prism.json", "rect_prism_curved.json", "rect_prism_large.json",
             "hex_prism_tall.json", "rect_prism_small.json", "hex_prism_short.json"]
    return [io_mod.load_object(FIXTURES / n) for n in names]


def test_criterion_1_geometry_properties(objects):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    polys = [random_convex_polygon(rng) for _ in range(1000)]
    for i in range(1000):
        a = polys[i]
        b = polys[(i + 1) % 1000]
        ab = w.convex_intersection(a, b)
        ba = w.convex_intersection(b, a)
        area_ab = 0.0 if ab is None else w.polygon_area(ab)
        area_ba = 0.0 if ba is None else w.polygon_area(ba)
        assert abs(area_ab - area_ba) <= 1e-9
        assert area_ab <= min(w.polygon_area(a), w.polygon_area(b)) + 1e-9
        p = rng.uniform(-2, 2, size=2)
        q = rng.uniform(-2, 2, size=2)
        dp = w.point_to_polygon_distance(p, a)
        dq = w.point_to_polygon_distance(q, a)
        assert abs(dp - dq) <= float(np.linalg.norm(p - q)) + 1e-9
    from collections import deque

    for obj in objects:
        for base in range(len(obj.faces)):
            umap = w.unfold(obj, base)
            for face in obj.faces:
                verts = face.polygon.vertices
                mapped = umap.to_plane(face.id, verts)
                d_orig = np.linalg.norm(verts[1:] - verts[:-1], axis=1)
                d_map = np.linalg.norm(mapped[1:] - mapped[:-1], axis=1)
                assert np.max(np.abs(d_orig - d_map)) <= 1e-9
            # coincidence holds along the unfolding tree; other shared edges
            # are the cuts that let the surface open flat
            seen = {base}
            queue = deque([base])
            while queue:
                parent = queue.popleft()
                for child in obj.neighbors(parent):
                    if child in seen:
                        continue
                    seen.add(child)
                    queue.append(child)
                    edge = obj.shared_edge(parent, child)
                    img_p = umap.to_plane(parent, edge.endpoints_in(parent))
                    img_c = umap.to_plane(child, edge.endpoints_in(child))
                    assert np.max(np.abs(img_p - img_c)) <= 1e-9
    elapsed = time.perf_counter() - t0
    report("criterion 1: geometry property suite",
           elapsed < 10.0, f"1000 polygons + 6 objects unfolded in {elapsed:.2f}s")


def test_criterion_2_heuristic_correctness(objects):
    rng = np.random.default_rng(202)
    checked = 0
    zero_cases = nonzero_cases = 0
    for obj in objects:
        goals = []
        for fid in (0, 1):
            verts = obj.faces[fid].polygon.vertices
            lo, hi = verts.min(axis=0), verts.max(axis=0)
            span = hi - lo
            goals.append(GoalRegion(fid, w.ConvexPolygon2([
                lo + 0.2 * span, (hi[0] - 0.2 * span[0], lo[1] + 0.2 * span[1]),
                hi - 0.2 * span, (lo[0] + 0.2 * span[0], hi[1] - 0.2 * span[1])])))
        cache = HeuristicCache(obj, goals)
        for _ in range(84):
            s = random_feasible_state(obj, rng, pad=0.01)
            expected_total = 0.0
            for region in (s.left, s.right):
                sums = []
                for m in range(len(goals)):
                    image = cache.goal_image(region.face, m)
                    sums.append(sum(point_polygon_distance(c, image.vertices)
                                    for c in region.corners()))
                expected = min(sums)
                got = finger_heuristic(region, cache)
                assert abs(got - expected) <= 1e-9
                expected_total += expected
            got_total = total_heuristic(s, cache)
            assert abs(got_total - expected_total) <= 1e-9
            contained = all(
                any(g.face == region.face
                    and g.polygon.contains_points(region.corners(), tol=1e-9).all()
                    for g in goals)
                for region in (s.left, s.right))
            if contained:
                assert got_total <= 1e-9
                zero_cases += 1
            else:
                assert got_total > 1e-9
                nonzero_cases += 1
            checked += 1
    assert checked >= 500
    # engineered containment cases to exercise the h == 0 direction
    obj = objects[0]
    goals = [GoalRegion(0, w.ConvexPolygon2([(0.005, 0.01), (0.035, 0.01),
                                             (0.035, 0.05), (0.005, 0.05)])),
             GoalRegion(2, w.ConvexPolygon2([(0.005, 0.01), (0.035, 0.01),
                                             (0.035, 0.05), (0.005, 0.05)]))]
    cache = HeuristicCache(obj, goals)
    s = GraspState.create(obj, 0, 2, 4, (0.02, 0.03), (0.02, 0.03), 0.02, 0.02)
    assert total_heuristic(s, cache) <= 1e-9
    zero_cases += 1
    report("criterion 2: heuristic matches independent corner sums",
           True, f"{checked} states (h=0 cases: {zero_cases}, h>0 cases: {nonzero_cases})")


def _band(obj, fid, v0, v1):
    verts = obj.faces[fid].polygon.vertices
    u0, u1 = verts[:, 0].min(), verts[:, 0].max()
    return GoalRegion(fid, w.ConvexPolygon2([(u0, v0), (u1, v0), (u1, v1), (u0, v1)]))


def _mini_box(goal_kind):
    cs = w.ConvexPolygon2([(0, 0), (0.03, 0), (0.03, 0.03), (0, 0.03)])
    obj = w.build_prism(cs, 0.05, name="mini_box")
    res = derive_resolutions(obj, ResolutionConfig(
        slide_step=0.01, z_step=0.01, pad_width=0.015, pad_height=0.015))
    s0 = GraspState.create(obj, 0, 2, 4, (0.015, 0.015), (0.015, 0.015), 0.015, 0.015)
    if goal_kind == "slide":
        goals = [_band(obj, 0, 0.025, 0.05), _band(obj, 2, 0.025, 0.05)]
    elif goal_kind == "rotate":
        goals = [_band(obj, 1, 0.02, 0.05), _band(obj, 3, 0.02, 0.05)]
    else:
        goals = [GoalRegion(4, w.ConvexPolygon2([(0, -0.03), (0.03, -0.03), (0.03, 0), (0, 0)])),
                 GoalRegion(5, w.ConvexPolygon2([(0, 0), (0.03, 0), (0.03, 0.03), (0, 0.03)]))]
    return obj, s0, goals, res


def _mini_rect(goal_kind, scale=1.0):
    w_, d_, h_ = 0.024 * scale, 0.036 * scale, 0.06 * scale
    cs = w.ConvexPolygon2([(0, 0), (w_, 0), (w_, d_), (0, d_)])
    obj = w.build_prism(cs, h_, name="mini_rect")
    res = derive_resolutions(obj, ResolutionConfig(
        slide_step=0.012 * scale, z_step=0.012 * scale,
        pad_width=0.012 * scale, pad_height=0.012 * scale))
    c = (0.012 * scale, 0.012 * scale)
    s0 = GraspState.create(obj, 0, 2, 4, c, c, 0.012 * scale, 0.012 * scale)
    if goal_kind == "slide":
        goals = [_band(obj, 0, h_ * 0.7, h_), _band(obj, 2, h_ * 0.7, h_)]
    elif goal_kind == "rotate":
        goals = [_band(obj, 1, h_ * 0.6, h_), _band(obj, 3, h_ * 0.6, h_)]
    else:
        goals = [GoalRegion(4, w.ConvexPolygon2([(0, -d_), (w_, -d_), (w_, 0), (0, 0)])),
                 GoalRegion(5, w.ConvexPolygon2([(0, 0), (w_, 0), (w_, d_), (0, d_)]))]
    return obj, s0, goals, res


def _mini_hex():
    # rotations disabled: on hexagons they shift contacts off the slide
    # lattice, which makes exhaustive closure unbounded
    side = 0.024
    apex = side * math.sqrt(3) / 2
    cs = w.ConvexPolygon2([(side, 0), (side / 2, apex), (-side / 2, apex),
                           (-side, 0), (-side / 2, -apex), (side / 2, -apex)])
    obj = w.build_prism(cs, 0.04, name="mini_hex")
    res = derive_resolutions(obj, ResolutionConfig(
        slide_step=0.005, z_step=0.005, pad_width=0.012, pad_height=0.012,
        max_length_width_ratio=0.01))
    s0 = GraspState.create(obj, 0, 3, 6, (0.012, 0.015), (0.012, 0.015), 0.012, 0.012)
    goals = [_band(obj, 0, 0.019, 0.04), _band(obj, 3, 0.019, 0.04)]
    return obj, s0, goals, res


def criterion_3_instances() -> list:
    """Criterion 3's instances: (name, (obj, start, goals, resolution), cost)."""
    default = CostConfig()
    mid = CostConfig(scale_z=1.5, scale_rotate=2.0, scale_pivot=2.0)
    instances = []
    for kind in ("slide", "rotate", "caps"):
        for cost in (default, mid):
            instances.append((f"box-{kind}", _mini_box(kind), cost))
            instances.append((f"rect-{kind}", _mini_rect(kind), cost))
    for kind in ("slide", "rotate", "caps"):
        for cost in (default, mid):
            instances.append((f"rect75-{kind}", _mini_rect(kind, scale=0.75), cost))
    for cost in (default, mid):
        instances.append(("hex-slide", _mini_hex(), cost))
    return instances


def test_criterion_3_admissibility_and_optimality():
    default = CostConfig()
    instances = criterion_3_instances()
    assert len(instances) >= 20

    lam = default.heuristic_scale
    worst_margin = math.inf
    for name, (obj, s0, goals, res), cost in instances:
        states, edges = enumerate_state_graph(obj, s0, res, cost, max_states=100_000)
        cache = HeuristicCache(obj, goals)
        goal_keys = {k for k, st in states.items()
                     if total_heuristic(st, cache) <= cost.goal_tolerance}
        assert goal_keys, f"{name}: no goal state in the reachable space"
        dist = optimal_cost_to_goals(edges, goal_keys)
        for key, st in states.items():
            remaining = dist.get(key, math.inf)
            h = cost.heuristic_scale * total_heuristic(st, cache)
            assert h <= remaining + 1e-12, f"{name}: inadmissible at {key}"
            if remaining < math.inf and h > 0:
                worst_margin = min(worst_margin, remaining / h)
        p = plan(obj, s0, goals, res, cost)
        optimum = dist[state_key(s0)]
        assert p.status == "exact-goal", name
        assert abs(p.total_action_cost - optimum) <= 1e-12, (
            f"{name}: A* cost {p.total_action_cost} != optimum {optimum}")
    report("criterion 3: scaled admissibility + A* optimality",
           True, f"{len(instances)} instances, min(remaining/lambda*h) = {worst_margin:.3f}")


def test_criterion_4_transition_oracle_equivalence(objects):
    rng = np.random.default_rng(404)
    for obj in objects:
        cfg = derive_resolutions(obj, ResolutionConfig(
            max_grasp_width=0.2, pad_width=0.012, pad_height=0.012))
        rotate_checked = pivot_checked = 0
        for _ in range(100):
            s = random_feasible_state(obj, rng)
            for act, child in successors(s, obj, cfg):
                if act.kind in (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW):
                    expected = oracle_rotate(obj, s, act.kind == ActionKind.ROTATE_CCW,
                                             act.magnitude)
                    assert expected is not None
                    (lf, lc, lo), (rf, rc, ro), pair_idx = expected
                    assert child.left.face == lf and child.right.face == rf
                    assert child.grasp_pair == pair_idx
                    assert np.max(np.abs(child.left.center - lc)) <= 1e-6
                    assert np.max(np.abs(child.right.center - rc)) <= 1e-6
                    assert _angdiff(child.left.orientation, lo) <= 1e-6
                    assert _angdiff(child.right.orientation, ro) <= 1e-6
                    rotate_checked += 1
                elif act.kind == ActionKind.PIVOT:
                    expected = oracle_pivot(obj, s)
                    assert expected is not None
                    (lf, lc, lo), (rf, rc, ro), new_support = expected
                    assert child.support_face == new_support
                    assert np.max(np.abs(child.left.center - lc)) <= 1e-6
                    assert np.max(np.abs(child.right.center - rc)) <= 1e-6
                    assert _angdiff(child.left.orientation, lo) <= 1e-6
                    assert _angdiff(child.right.orientation, ro) <= 1e-6
                    pivot_checked += 1
        assert rotate_checked > 0, obj.name
    report("criterion 4: rotate/pivot match the rigid-motion oracle",
           True, "100 random states per object, centers <= 1e-6 m, angles <= 1e-6 rad")


def test_criterion_5_kinematics():
    rng = np.random.default_rng(505)
    for _ in range(50):
        chain = PivotChain(
            d1=float(rng.uniform(0.05, 0.2)), theta_finger=float(rng.uniform(-1, 1)),
            d2=float(rng.uniform(0, 0.05)), d3=float(rng.uniform(0.05, 0.15)),
            d4=float(rng.uniform(0, 0.05)), theta_contact=float(rng.uniform(-1.5, 1.5)),
            theta_pivot=float(rng.uniform(-1.5, 1.5)))
        got = chain_forward(chain)
        expected = chain_oracle(chain_rows(chain))
        assert np.max(np.abs(got.rotation - expected[:3, :3])) <= 1e-12
        assert np.max(np.abs(got.translation - expected[:3, 3])) <= 1e-12
    for _ in range(20):
        chain = PivotChain(
            d1=float(rng.uniform(0.05, 0.2)), theta_finger=float(rng.uniform(-1, 1)),
            d2=float(rng.uniform(0, 0.05)), d3=float(rng.uniform(0.05, 0.15)),
            d4=float(rng.uniform(0, 0.05)))
        sweep = float(rng.uniform(0.3, math.pi / 2.0))
        for stage in (1, 2):
            wps = pivot_trajectory(chain, stage, sweep, 50)
            assert len(wps) == 51
            if stage == 1:
                recovered = [wp.pose @ ee_to_pivot(chain) for wp in wps]
            else:
                recovered = []
                for k, wp in enumerate(wps):
                    t = k / 50.0
                    stepped = PivotChain(chain.d1, chain.theta_finger, chain.d2,
                                         chain.d3, chain.d4,
                                         chain.theta_contact + sweep * t,
                                         sweep * (1.0 - t))
                    recovered.append(wp.pose @ ee_to_pivot(stepped))
            origin0 = recovered[0].translation
            for rec in recovered:
                assert np.linalg.norm(rec.translation - origin0) <= 1e-6
    report("criterion 5: DH chain oracle (1e-12) + pivot stationarity (1e-6)",
           True, "50 random chains, 20 x 50-waypoint sweeps per stage")


def test_criterion_6_benchmark_reproduction(suite_entries):
    tasks = []
    for entry in suite_entries:
        obj, start, goals, resolution, cost = load_task(entry)
        tasks.append(TaskSpec(name=entry["name"], obj=obj, start=start, goals=goals,
                              resolution=resolution, cost=cost))
    assert len({t.obj.name for t in tasks}) == 6
    report_ = run_benchmark(tasks)
    unsolved = [r.task for r in report_.rows if r.status != "exact-goal"]
    mean_overlap = report_.overall["mean_overlap"]
    slow = [r.task for r in report_.rows if r.planning_time_s > 120.0]
    ok = not unsolved and mean_overlap >= 0.70 and not slow
    assert mean_overlap >= 0.95  # exact plans put the pads fully inside
    report("criterion 6: six-object benchmark",
           ok, f"{len(tasks)} tasks solved, mean overlap {mean_overlap:.3f}, "
               f"max time {max(r.planning_time_s for r in report_.rows):.1f}s")


def test_criterion_7_noise_robustness(suite_entries):
    entry = next(e for e in suite_entries if e["name"] == "sq_t1_shift")
    obj, start, goals, resolution, cost = load_task(entry)
    p = plan(obj, start, goals, resolution, cost)
    assert len(p.actions) >= 10  # multi-action plan
    stats_a = noise_robustness(p, obj, start, eta=0.002, trials=100, seed=7)
    stats_b = noise_robustness(p, obj, start, eta=0.002, trials=100, seed=7)
    assert stats_a == stats_b
    frac = stats_a["failure_fraction"]
    assert 0.0 < frac < 1.0
    report("criterion 7: seeded noise robustness",
           True, f"eta=0.002, failure fraction {frac:.2f}, deterministic per seed")


def test_criterion_8_end_to_end_determinism(tmp_path):
    for name in ("square_prism.json", "sq_t2_rotate_start.json", "sq_t2_rotate_goals.json"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    outputs = []
    for tag in ("a", "b"):
        plan_path = tmp_path / f"plan_{tag}.json"
        sim_path = tmp_path / f"sim_{tag}.json"
        assert cli_main(["plan", "--object", str(tmp_path / "square_prism.json"),
                         "--goals", str(tmp_path / "sq_t2_rotate_goals.json"),
                         "--start", str(tmp_path / "sq_t2_rotate_start.json"),
                         "--out", str(plan_path)]) == 0
        assert cli_main(["simulate", "--plan", str(plan_path),
                         "--object", str(tmp_path / "square_prism.json"),
                         "--start", str(tmp_path / "sq_t2_rotate_start.json"),
                         "--out", str(sim_path)]) == 0
        outputs.append((plan_path.read_bytes(), sim_path.read_bytes()))
    ok = outputs[0] == outputs[1]
    report("criterion 8: plan+simulate byte determinism", ok,
           f"{len(outputs[0][0])} plan bytes, {len(outputs[0][1])} sim bytes")


def _angdiff(a: float, b: float) -> float:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)
