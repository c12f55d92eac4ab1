"""Command-line entry point: plan, simulate, benchmark, trajectory, unfold.

Exit codes: 0 success, 2 bad input or usage, 3 benchmark threshold
violation, 4 planning did not reach the goal exactly.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from . import io as io_mod
from .errors import CorruptedPlanError, InvalidInputError, InvalidStateError, WihmplanError
from .geometry import ObjectModel, unfold
from .kinematics import plan_waypoints
from .planner import Plan, plan as run_planner
from .transition import state_key

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_THRESHOLD = 3
EXIT_PLANNING = 4

log = logging.getLogger("wihmplan")


def _default_config() -> str | None:
    return os.environ.get("WIHMPLAN_CONFIG") or None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wihmplan",
                                     description="Region-based within-hand manipulation planner")
    parser.add_argument("--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="search for a manipulation plan")
    p_plan.add_argument("--object", required=True)
    p_plan.add_argument("--goals", required=True)
    p_plan.add_argument("--start", required=True)
    p_plan.add_argument("--config", default=_default_config())
    p_plan.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="replay a plan, optionally with noise")
    p_sim.add_argument("--plan", required=True)
    p_sim.add_argument("--object", required=True)
    p_sim.add_argument("--start", required=True)
    p_sim.add_argument("--config", default=_default_config())
    p_sim.add_argument("--noise", type=float, default=None, help="uniform +-eta step noise (m)")
    p_sim.add_argument("--trials", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)

    p_bench = sub.add_parser("benchmark", help="run a task suite and emit a report")
    p_bench.add_argument("--suite", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--json-out", default=None)

    p_traj = sub.add_parser("trajectory", help="emit end-effector waypoints for a plan")
    p_traj.add_argument("--plan", required=True)
    p_traj.add_argument("--object", required=True)
    p_traj.add_argument("--chain", required=True)
    p_traj.add_argument("--steps", type=int, default=25, help="waypoints per pivot stage")
    p_traj.add_argument("--out", required=True)

    p_unfold = sub.add_parser("unfold", help="render the unfolded face layout as SVG")
    p_unfold.add_argument("--object", required=True)
    p_unfold.add_argument("--face", type=int, required=True)
    p_unfold.add_argument("--goals", default=None)
    p_unfold.add_argument("--out", required=True)
    return parser


def _cmd_plan(args) -> int:
    obj = io_mod.load_object(args.object)
    resolution, cost = io_mod.load_configs(args.config)
    goals = io_mod.load_goals(args.goals, obj)
    start = io_mod.load_state(args.start, obj, resolution)
    plan_ = run_planner(obj, start, goals, resolution, cost)
    io_mod.save_plan(plan_, args.out)
    log.info("status=%s actions=%d cost=%.6g objective=%.6g",
             plan_.status, len(plan_.actions), plan_.total_action_cost, plan_.objective)
    return EXIT_OK if plan_.status == "exact-goal" else EXIT_PLANNING


def _cmd_simulate(args) -> int:
    obj = io_mod.load_object(args.object)
    resolution, _ = io_mod.load_configs(args.config)
    start = io_mod.load_state(args.start, obj, resolution)
    plan_, result = _load_plan(args.plan, obj)
    if state_key(start) != state_key(plan_.states[0]):
        raise CorruptedPlanError(f"{args.start}: the start state is not the plan's first state")
    if args.noise is None:
        payload = {
            "mode": "noiseless",
            "executed": result.executed,
            "failed": result.failed,
            "final_state": io_mod.state_to_dict(result.final_state),
        }
    else:
        payload = bench_mod.noise_robustness(plan_, obj, start, eta=args.noise,
                                             trials=args.trials, seed=args.seed)
        payload["mode"] = "noise"
    io_mod.dump_json(payload, args.out)
    return EXIT_OK


def _load_plan(path: str, obj: ObjectModel) -> tuple[Plan, bench_mod.SimulationResult]:
    """The plan at path, with every recorded state checked against the object,
    then replayed once from its first state, which must reproduce them: the
    plan and that replay."""
    plan_ = io_mod.load_plan(path)
    for i, state in enumerate(plan_.states):
        try:
            state.validate(obj)
        except InvalidStateError as exc:
            raise InvalidStateError(f"{path}: state {i}: {exc}") from exc
    try:
        result = bench_mod.simulate(plan_, obj, plan_.states[0])
    except WihmplanError as exc:  # an infeasible action or a diverging replay
        raise type(exc)(f"{path}: {exc}") from exc
    return plan_, result


def _load_suite(path: str) -> tuple[list[bench_mod.TaskSpec], dict]:
    data = io_mod.read_json(path)
    base = Path(path).parent
    tasks = []
    for i, entry in enumerate(io_mod.json_list(io_mod.json_field(data, "tasks", path, []),
                                               "tasks", path)):
        where = f"{path}: task {i}"
        name, object_path, start_path, goals_path = (
            io_mod.json_field(entry, key, where) for key in ("name", "object", "start", "goals"))
        obj = io_mod.load_object(base / object_path)
        config_path = io_mod.json_field(entry, "config", where, None)
        resolution, cost = io_mod.load_configs(base / config_path if config_path else None)
        start = io_mod.load_state(base / start_path, obj, resolution)
        goals = io_mod.load_goals(base / goals_path, obj)
        tasks.append(bench_mod.TaskSpec(
            name=name, obj=obj, start=start, goals=goals, resolution=resolution, cost=cost))
    return tasks, _thresholds(io_mod.json_field(data, "thresholds", path, {}), path)


def _thresholds(data, path: str) -> dict:
    """The suite's thresholds, checked: each bound a number or None, and a bool."""
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path}: field 'thresholds' must be a JSON object, got {data!r}")
    where = f"{path}: thresholds"
    out = {}
    for name in ("min_mean_overlap", "max_task_planning_time_s"):
        value = io_mod.json_field(data, name, where, None)
        out[name] = None if value is None else io_mod._number(value, name, where)
    solved = io_mod.json_field(data, "require_all_solved", where, False)
    if not isinstance(solved, bool):
        raise InvalidInputError(
            f"{where}: field 'require_all_solved' must be true or false, got {solved!r}")
    out["require_all_solved"] = solved
    return out


def _cmd_benchmark(args) -> int:
    tasks, thresholds = _load_suite(args.suite)
    report = bench_mod.run_benchmark(tasks)
    bench_mod.emit_report(report, args.out)
    if args.json_out:
        bench_mod.emit_report(report, args.json_out, fmt="json")
    violations = []
    min_overlap = thresholds["min_mean_overlap"]
    if min_overlap is not None and report.overall["mean_overlap"] < min_overlap:
        violations.append(
            f"mean_overlap {report.overall['mean_overlap']:.4f} < {min_overlap}")
    max_time = thresholds["max_task_planning_time_s"]
    if max_time is not None:
        slow = [r.task for r in report.rows if r.planning_time_s > max_time]
        if slow:
            violations.append(f"planning time over {max_time}s: {', '.join(slow)}")
    if thresholds["require_all_solved"]:
        unsolved = [r.task for r in report.rows if r.status != "exact-goal"]
        if unsolved:
            violations.append(f"unsolved tasks: {', '.join(unsolved)}")
    for violation in violations:
        log.error("threshold violated: %s", violation)
    return EXIT_THRESHOLD if violations else EXIT_OK


def _cmd_trajectory(args) -> int:
    obj = io_mod.load_object(args.object)
    chain = io_mod.load_chain(args.chain)
    plan_, _ = _load_plan(args.plan, obj)
    waypoints = plan_waypoints(plan_, obj, chain, steps_per_stage=args.steps)
    io_mod.write_trajectory_csv(waypoints, args.out)
    return EXIT_OK


def _cmd_unfold(args) -> int:
    obj = io_mod.load_object(args.object)
    goals = io_mod.load_goals(args.goals, obj) if args.goals else None
    umap = unfold(obj, args.face)
    io_mod.render_unfold_svg(obj, umap, goals, args.out)
    return EXIT_OK


_COMMANDS = {
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "benchmark": _cmd_benchmark,
    "trajectory": _cmd_trajectory,
    "unfold": _cmd_unfold,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except WihmplanError as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
