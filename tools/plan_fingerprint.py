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

The second form prints which exact fields differ (expansions, statuses,
state keys, actions, step costs, totals, replay outcomes) and how many
plan-state floats differ and by how much at most: centres in metres,
orientations in radians as a wrapped angle difference, the final state's
pad area outside the goals in square metres, and the ``overlap_ratio`` pair
of each fixture plan's final state and of each noisy final state (a
ratio).  It also counts how many heuristic values differ and by how much at
most: ``total_heuristic`` of every fixture and budget plan state, in metres.
Neither kind of float is an exact field.  It exits 1 when an exact field
differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
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


def _states(states, state_key) -> dict:
    """Each state's exact fields, and its pads' centre and orientation floats."""
    exact, centres, angles = [], [], []
    for s in states:
        fields = [s.grasp_pair, s.support_face, repr(state_key(s))]
        for r in (s.left, s.right):
            fields += [r.face, float(r.pad_width).hex(), float(r.pad_height).hex()]
            centres += [x.hex() for x in r.center.tolist()]
            angles.append(float(r.orientation).hex())
        exact.append(fields)
    return {"states": exact, "centres": centres, "orientations": angles}


def _add_states(case: dict, states, state_key) -> None:
    for field, values in _states(states, state_key).items():
        case[field] += values


def _heuristics(obj, plan, goals) -> list:
    """``total_heuristic`` of each plan state, from one cache per plan."""
    from wihmplan import heuristic
    cache = heuristic.HeuristicCache(obj, goals)
    return [heuristic.total_heuristic(s, cache).hex() for s in plan.states]


def _plan(plan, expanded: int, state_key) -> dict:
    return {
        "expanded": expanded,
        "status": plan.status,
        "actions": [[a.kind.name, float(a.magnitude).hex(), float(a.arc_radius).hex()]
                    for a in plan.actions],
        "step_costs": [float(c).hex() for c in plan.step_costs],
        "totals": [float(plan.total_action_cost).hex(), float(plan.objective).hex()],
        "outside_area": [float(plan.terminal_outside_area).hex()],
        "overlaps": [],
        **_states(plan.states, state_key),
    }


def fingerprint(src: Path) -> dict:
    wl = _import_harness(src)
    state_key = wl.transition_mod.state_key
    overlap_ratio = wl.transition_mod.overlap_ratio
    out = {}
    for task in wl.load_fixture_tasks():
        obj = wl.io_mod.load_object(task.object_path)
        plan = wl.planner_mod.plan(obj, task.start, task.goals, task.resolution, task.cost)
        case = out[f"fixture/{task.name}"] = _plan(plan, wl.expanded_count(plan), state_key)
        case["overlaps"] = [x.hex() for x in overlap_ratio(plan.states[-1], task.goals)]
        case["heuristic"] = _heuristics(obj, plan, task.goals)
    for seed in BUDGET_SEEDS:
        tasks = wl.BudgetWorkload(seed).prepare()
        objects = {p: wl.io_mod.load_object(p) for p in dict.fromkeys(t.object_path for t in tasks)}
        for i, task in enumerate(tasks):
            obj = objects[task.object_path]
            plan = wl.planner_mod.plan(obj, task.start, task.goals, task.resolution, task.cost)
            case = out[f"budget{seed}/{i}_{task.name}"] = _plan(plan, wl.expanded_count(plan),
                                                                 state_key)
            case["heuristic"] = _heuristics(obj, plan, task.goals)
    walks, chain = wl.ReplayWorkload(REPLAY_SEED).prepare()
    for walk in walks:
        obj = wl.io_mod.load_object(walk.object_path)
        case = _plan(walk.plan, 0, state_key)
        _add_states(case, wl.bench_mod.simulate(walk.plan, obj, walk.start).trace, state_key)
        case["noise_outcomes"] = []
        for seed in walk.noise_seeds:
            noise = wl.bench_mod.NoiseModel(eta=wl.NOISE_ETA, seed=seed)
            noisy = wl.bench_mod.simulate(walk.plan, obj, walk.start, noise=noise)
            case["noise_outcomes"].append([noisy.executed, noisy.failed, noisy.failure_step])
            _add_states(case, [noisy.final_state], state_key)
            case["overlaps"] += [x.hex() for x in overlap_ratio(noisy.final_state, walk.goals)]
        case["waypoints"] = len(wl.plan_waypoints()(walk.plan, obj, chain,
                                                    steps_per_stage=wl.STEPS_PER_STAGE))
        out[f"replay{REPLAY_SEED}/{walk.name}"] = case
    return out


_FLOATS = {"centres": "m", "orientations": "rad", "outside_area": "m^2", "overlaps": "ratio"}
_DRIFTS = {"heuristic": "m"}  # counted apart from the plan-state floats


def _gap(field: str, a: str, b: str) -> float:
    d = abs(float.fromhex(a) - float.fromhex(b))
    return min(d, abs(d - 2.0 * math.pi)) if field == "orientations" else d


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
                print(f"{case}: {field} differs")
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
