"""Fingerprint the planner's outputs bit for bit, and compare two fingerprints.

    python tools/plan_fingerprint.py --out FILE [--src DIR]
    python tools/plan_fingerprint.py --compare A B

The first form plans the 12 fixture tasks, runs the ``budget`` workload's
searches for seeds 3 and 11 and replays the ``replay`` workload's walks for
seed 3 (noiselessly and under its seeded step noise), then writes every
result as JSON with floats as ``float.hex``.  The inputs come from
``perfbench/workloads.py``.  ``--src`` names the ``src`` directory
whose ``wihmplan`` runs (default: this checkout's), so the same script
fingerprints any other checkout.

Each fixture plan state also records its branching: every ``successors``
pair, as the action's kind, magnitude and arc radius and the child's state
key.  A state key is recorded as its first-seen ordinal within the case
(states first, then successor lists), so a fingerprint does not depend on the
key's format: two states share an ordinal exactly when they share a key, and
a key format that merges or splits states changes an exact field.  Each
replay walk, and each fixture plan that pivots, records its
``plan_waypoints`` (25 steps per stage, ``fixtures/chain.json``) as 12
floats a pose: the rotation row by row, then the translation.  The 12
fixture tasks also run through ``bench.run_benchmark``, as the ``benchmark``
command runs them (one freshly loaded object per task): every
``report_records`` field but ``planning_time_s``, a wall time, is recorded.
Each fixture task also records the planner's abstract-graph bound at its
start (``planner.start_bound``, field ``start_bound``) and the graph itself
(field ``abstract_graph``: its node count, then its finite exit costs sorted,
as ``float.hex``), built on a freshly loaded object, when the checkout has
them, and that graph's bound at every plan state (field ``plan_bounds``, as
``float.hex``).  A changed turn verdict or turn map changes the graph; a
changed bound shows along the plan, not only at its start.  Each fixture and
budget search also records the order it expanded states in (field
``expansion_order``): a digest of the expanded states' key ordinals in pop
order, keys numbered as the search first meets them (each expanded state,
then its successors), so two searches that expand as many states, but other
ones or in another order, differ there.

The second form prints which exact fields differ (expansions, expansion
orders, statuses, state keys, actions, step costs, totals, successor lists,
replay outcomes, the benchmark report, start bounds, abstract graphs, plan
bounds), with the
old and new value of a changed expansion count or start bound (a start bound
also as a share of its case's ``total_action_cost``), and how many plan-state
floats differ and by how much at most: centres in metres, orientations in
radians as a wrapped angle difference, the final state's pad area outside the
goals in square metres, and the ``overlap_ratio`` pair of each fixture plan's
final state and of each noisy final state (a ratio).  It also counts how
many heuristic values and waypoint pose entries differ and by how much at
most: ``total_heuristic`` of every fixture and budget plan state, in metres,
and the ``poses`` entries (rotation entries unitless, translations in
metres).  Neither kind of float is an exact field.  It exits 1 when an exact
field differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_SEEDS = (3, 11)
REPLAY_SEED = 3


def _import_harness(src: Path):
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import workloads
    return workloads


def _key_ordinals(state_key):
    """A function from a state to its key's first-seen ordinal, for one case."""
    seen: dict = {}
    return lambda s: seen.setdefault(state_key(s), len(seen))


def _states(states, key_of) -> dict:
    """Each state's exact fields, and its pads' centre and orientation floats."""
    exact, centres, angles = [], [], []
    for s in states:
        fields = [s.grasp_pair, s.support_face, key_of(s)]
        for r in (s.left, s.right):
            fields += [r.face, float(r.pad_width).hex(), float(r.pad_height).hex()]
            centres += [x.hex() for x in r.center.tolist()]
            angles.append(float(r.orientation).hex())
        exact.append(fields)
    return {"states": exact, "centres": centres, "orientations": angles}


def _add_states(case: dict, states, key_of) -> None:
    for field, values in _states(states, key_of).items():
        case[field] += values


def _planned(wl, task, obj):
    """The task's plan, with a digest of the states its search expanded, in
    pop order: each as its key's ordinal, keys numbered as the search first
    meets them (each expanded state, then its successors).  An expansion that
    spends the node budget generates no successors and is not seen."""
    planner = wl.planner_mod
    key_of = _key_ordinals(wl.transition_mod.state_key)
    order = []
    real = planner.successors

    def successors(state, *args):
        order.append(key_of(state))
        pairs = list(real(state, *args))
        for _, child in pairs:
            key_of(child)
        return pairs

    planner.successors = successors
    try:
        plan = planner.plan(obj, task.start, task.goals, task.resolution, task.cost)
    finally:
        planner.successors = real
    return plan, hashlib.sha256(json.dumps(order).encode()).hexdigest()[:20]


def _heuristics(obj, plan, goals) -> list:
    """``total_heuristic`` of each plan state, from one cache per plan."""
    from wihmplan import heuristic
    cache = heuristic.HeuristicCache(obj, goals)
    return [heuristic.total_heuristic(s, cache).hex() for s in plan.states]


def _branching(obj, plan, resolution, successors, key_of) -> list:
    """Every ``successors`` pair of each plan state: kind, magnitude, arc radius, child key."""
    return [[[a.kind.name, float(a.magnitude).hex(), float(a.arc_radius).hex(),
              key_of(child)] for a, child in successors(s, obj, resolution)]
            for s in plan.states]


def _poses(waypoints) -> list:
    """Each waypoint pose as 12 floats: the rotation row by row, then the translation."""
    return [x.hex() for wp in waypoints
            for x in wp.pose.rotation.ravel().tolist() + wp.pose.translation.tolist()]


def _report(records) -> list:
    """Each report record's fields but the wall time, sorted by name, floats as ``float.hex``."""
    return [[[name, value.hex() if isinstance(value, float) else value]
             for name, value in sorted(record.items()) if name != "planning_time_s"]
            for record in records]


def _abstract_graph(wl, task, states) -> tuple[list, list]:
    """The abstract-graph bound of a search from the task's start, on a fresh
    object: its node count, then its finite exit costs sorted, and its value at
    each of ``states``, all as ``float.hex``; both empty when the planner
    builds none."""
    from wihmplan import heuristic
    state_key = wl.transition_mod.state_key
    obj = wl.io_mod.load_object(task.object_path)
    bound, _ = wl.planner_mod._abstract_bound(
        obj, task.start, state_key(task.start),
        heuristic.HeuristicCache(obj, task.goals), task.resolution, task.cost, {})
    if bound is None:
        return [], []
    exits = sorted(cost for cost in bound.exits.values() if math.isfinite(cost))
    return ([len(bound.exits)] + [cost.hex() for cost in exits],
            [bound(s, state_key(s)).hex() for s in states])


def _plan(plan, expanded: int, key_of) -> dict:
    return {
        "expanded": expanded,
        "status": plan.status,
        "actions": [[a.kind.name, float(a.magnitude).hex(), float(a.arc_radius).hex()]
                    for a in plan.actions],
        "step_costs": [float(c).hex() for c in plan.step_costs],
        "totals": [float(plan.total_action_cost).hex(), float(plan.objective).hex()],
        "outside_area": [float(plan.terminal_outside_area).hex()],
        "overlaps": [],
        **_states(plan.states, key_of),
    }


def fingerprint(src: Path) -> dict:
    wl = _import_harness(src)
    state_key = wl.transition_mod.state_key
    overlap_ratio = wl.transition_mod.overlap_ratio
    waypoints = wl.plan_waypoints()
    chain = wl.io_mod.load_chain(wl.FIXTURES / "chain.json")
    out = {}
    bench = wl.bench_mod
    specs = []
    for task in wl.load_fixture_tasks():
        specs.append(bench.TaskSpec(task.name, wl.io_mod.load_object(task.object_path),
                                    task.start, task.goals, task.resolution, task.cost))
        obj = wl.io_mod.load_object(task.object_path)
        plan, order = _planned(wl, task, obj)
        key_of = _key_ordinals(state_key)
        case = out[f"fixture/{task.name}"] = _plan(plan, wl.expanded_count(plan), key_of)
        case["expansion_order"] = order
        case["overlaps"] = [x.hex() for x in overlap_ratio(plan.states[-1], task.goals)]
        case["heuristic"] = _heuristics(obj, plan, task.goals)
        if hasattr(wl.planner_mod, "start_bound"):
            case["start_bound"] = [wl.planner_mod.start_bound(
                obj, task.start, task.goals, task.resolution, task.cost).hex()]
        if hasattr(wl.planner_mod, "_abstract_bound"):
            case["abstract_graph"], case["plan_bounds"] = _abstract_graph(wl, task, plan.states)
        case["successors"] = _branching(obj, plan, task.resolution,
                                        wl.transition_mod.successors, key_of)
        if any(a.kind.name == "PIVOT" for a in plan.actions):
            case["poses"] = _poses(waypoints(plan, obj, chain,
                                             steps_per_stage=wl.STEPS_PER_STAGE))
    out["benchmark/fixtures"] = {"report": _report(bench.report_records(
        bench.run_benchmark(specs)))}
    for seed in BUDGET_SEEDS:
        tasks = wl.BudgetWorkload(seed).prepare()
        objects = {p: wl.io_mod.load_object(p) for p in dict.fromkeys(t.object_path for t in tasks)}
        for i, task in enumerate(tasks):
            obj = objects[task.object_path]
            plan, order = _planned(wl, task, obj)
            case = out[f"budget{seed}/{i}_{task.name}"] = _plan(
                plan, wl.expanded_count(plan), _key_ordinals(state_key))
            case["expansion_order"] = order
            case["heuristic"] = _heuristics(obj, plan, task.goals)
    walks, _ = wl.ReplayWorkload(REPLAY_SEED).prepare()
    for walk in walks:
        obj = wl.io_mod.load_object(walk.object_path)
        key_of = _key_ordinals(state_key)
        case = _plan(walk.plan, 0, key_of)
        _add_states(case, bench.simulate(walk.plan, obj, walk.start).trace, key_of)
        case["noise_outcomes"] = []
        for seed in walk.noise_seeds:
            noise = bench.NoiseModel(eta=wl.NOISE_ETA, seed=seed)
            noisy = bench.simulate(walk.plan, obj, walk.start, noise=noise)
            case["noise_outcomes"].append([noisy.executed, noisy.failed, noisy.failure_step])
            _add_states(case, [noisy.final_state], key_of)
            case["overlaps"] += [x.hex() for x in overlap_ratio(noisy.final_state, walk.goals)]
        walk_waypoints = waypoints(walk.plan, obj, chain, steps_per_stage=wl.STEPS_PER_STAGE)
        case["waypoints"] = len(walk_waypoints)
        case["poses"] = _poses(walk_waypoints)
        out[f"replay{REPLAY_SEED}/{walk.name}"] = case
    return out


_FLOATS = {"centres": "m", "orientations": "rad", "outside_area": "m^2", "overlaps": "ratio"}
_DRIFTS = {"heuristic": "m", "poses": "(m or unitless)"}  # counted apart from the plan-state floats


def _gap(field: str, a: str, b: str) -> float:
    d = abs(float.fromhex(a) - float.fromhex(b))
    return min(d, abs(d - 2.0 * math.pi)) if field == "orientations" else d


def _change(field: str, a: dict, b: dict) -> str:
    """``: old -> new`` for the scalar pins ``expanded`` and ``start_bound``, the
    bound also as a share of its case's ``total_action_cost``; else empty."""
    if field == "expanded" and field in a and field in b:
        return f": {a[field]} -> {b[field]}"
    if field == "start_bound" and field in a and field in b:
        old, new = (float.fromhex(case[field][0]) for case in (a, b))
        ratios = " -> ".join(f"{bound / float.fromhex(case['totals'][0]):.6g}"
                             for bound, case in ((old, a), (new, b)))
        return f": {old!r} -> {new!r} (of total_action_cost: {ratios})"
    return ""


def compare(a: dict, b: dict) -> int:
    """Print the differences between two fingerprints; the number of exact fields that differ."""
    mismatches = 0
    for case in sorted(set(a) | set(b)):
        if case not in a or case not in b:
            print(f"{case}: only in {'A' if case in a else 'B'}")
            mismatches += 1
            continue
        for field in sorted(set(a[case]) | set(b[case])):
            if (field not in _FLOATS and field not in _DRIFTS
                    and a[case].get(field) != b[case].get(field)):
                print(f"{case}: {field} differs{_change(field, a[case], b[case])}")
                mismatches += 1
    total = 0
    for field, unit in (_FLOATS | _DRIFTS).items():
        count = values = largest = 0
        for case in sorted(set(a) & set(b)):
            xs, ys = a[case].get(field, []), b[case].get(field, [])
            values += len(xs)
            if len(xs) != len(ys):
                continue  # the state lists differ too, and were reported above
            for x, y in zip(xs, ys):
                if x != y:
                    count += 1
                    largest = max(largest, _gap(field, x, y))
        if field in _FLOATS:
            total += values
            print(f"{field}: {count} floats differ, by at most {largest:.3g} {unit}")
        else:
            print(f"{field}: {count} of {values} values differ, by at most {largest:.3g} {unit}")
    print(f"{len(a)} cases, {total} plan-state floats, {mismatches} exact fields differ")
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the fingerprint to this JSON file")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory whose wihmplan runs")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two fingerprint files instead")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        return 1 if compare(a, b) else 0
    if not args.out:
        parser.error("one of --out or --compare is required")
    logging.disable(logging.WARNING)  # each budget search warns that it spent its budget
    data = fingerprint(args.src.resolve())
    Path(args.out).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
