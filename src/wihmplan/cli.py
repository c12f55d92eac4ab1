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
from .planner import Plan, action_cost, plan as run_planner
from .transition import ResolutionConfig, state_key

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


def _check_outputs(args) -> None:
    """Fail before any work on an output path that is a directory or whose
    directory is missing, or on a benchmark report of unknown format."""
    for path, fmt in ((args.out, None), (getattr(args, "json_out", None), "json")):
        if path is None:
            continue
        if Path(path).is_dir():
            raise InvalidInputError(f"cannot write {path}: it is a directory")
        if not Path(path).parent.is_dir():
            raise InvalidInputError(f"cannot write {path}: its directory does not exist")
        if args.command == "benchmark":
            bench_mod.report_format(path, fmt)


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
    resolution, cost = io_mod.load_configs(args.config)
    start = io_mod.load_state(args.start, obj, resolution)
    plan_, result = _load_plan(args.plan, obj, resolution)
    # plan.json records no config: a plan priced under another one fails here.
    if plan_.tradeoff_weight != cost.tradeoff_weight:
        raise CorruptedPlanError(f"{args.plan}: field 'tradeoff_weight' = "
                                 f"{plan_.tradeoff_weight!r}, the config gives "
                                 f"{cost.tradeoff_weight!r}")
    for i, (act, recorded) in enumerate(zip(plan_.actions, plan_.step_costs)):
        expected = action_cost(act, cost, resolution.slide_step)
        if recorded != expected:
            raise CorruptedPlanError(f"{args.plan}: step {i} ({act.kind.name}) records cost "
                                     f"{recorded!r}, the config gives {expected!r}")
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
                                             trials=args.trials, seed=args.seed,
                                             resolution=resolution)
        payload["mode"] = "noise"
    io_mod.dump_json(payload, args.out)
    return EXIT_OK


def _load_plan(path: str, obj: ObjectModel, resolution: ResolutionConfig | None = None
               ) -> tuple[Plan, bench_mod.SimulationResult]:
    """The plan at path, with every recorded state checked against the object,
    then replayed once from its first state (under ``resolution``'s grip
    limits when given), which must reproduce them: the plan and that replay."""
    plan_ = io_mod.load_plan(path)
    for i, state in enumerate(plan_.states):
        try:
            state.validate(obj)
        except InvalidStateError as exc:
            raise InvalidStateError(f"{path}: state {i}: {exc}") from exc
    try:
        result = bench_mod.simulate(plan_, obj, plan_.states[0], resolution=resolution)
    except WihmplanError as exc:  # an infeasible action or a diverging replay
        raise type(exc)(f"{path}: {exc}") from exc
    return plan_, result


def _cmd_benchmark(args) -> int:
    tasks, thresholds = io_mod.load_suite(args.suite)
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
        _check_outputs(args)
        return _COMMANDS[args.command](args)
    except WihmplanError as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
