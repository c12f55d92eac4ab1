"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 perfbench/run.py --workload suite|budget|replay --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, not from an installed copy.  With ``--trace 0`` the timed phase
repeats units of work until ``--seconds`` are up and the end-to-end metrics
are medians over units, with times rescaled to a reference speed (see
``speed.py``).  With ``--trace 1`` one untraced unit and one
traced unit run, and the per-layer metrics come from the traced one.  The
line before the result records the machine and the inputs; the full record,
with every traced span aggregate, goes to ``.perfbench/`` in the checkout.

Exit codes: 0 success, 1 an output failed its correctness check, 2 the
checkout holds no ``src/wihmplan`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "solved_frac": "ratio",
              "plan_cost": "obj", "mean_overlap": "ratio"}


def use_source_tree() -> bool:
    """Put the checkout's ``src/`` first on the import path, if it is there."""
    if not (SRC / "wihmplan" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload_name: str, seed: int, seconds: float, trace: bool, t_start: float) -> int:
    # Imported here so that set-up time covers numpy and the package.
    import speed
    import workloads

    import_s = time.perf_counter() - t_start
    loop_s = speed.burst()
    workload = workloads.WORKLOADS[workload_name](seed)
    prep_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.prepare()
        prep_times.append(time.perf_counter() - t0)
    loop_s += speed.burst()
    setup_s = speed.at_reference_speed(import_s + statistics.median(prep_times), loop_s)

    record: dict = {"workload": workload_name, "seed": seed, "trace": int(trace),
                    "machine": machine_info(), "inputs": workload.sizes(inputs),
                    "setup_prep_s": prep_times, "import_s": import_s,
                    "setup_speed_samples_s": loop_s}
    if trace:
        from layers import LayerProbe, layer_metric_units

        suite_tasks = workloads.suite_task_names()
        untraced, untraced_s, untraced_ref, _ = speed.timed(workload.run_unit, inputs)
        with LayerProbe() as probe:
            traced, traced_s, traced_ref, _ = speed.timed(workload.run_unit, inputs,
                                                          tracer=probe.tracer)
        outcomes = [untraced, traced]
        values, absent = probe.metrics(traced, suite_tasks, untraced_ref, traced_ref)
        metrics = {name: _metric(values[name], unit)
                   for name, unit in layer_metric_units(suite_tasks).items()}
        record.update(unit_walls_s=[untraced_s, traced_s], absent=absent, spans={
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            for name, s in probe.tracer.stats.items()})
        if absent:
            print(f"absent trace targets: {', '.join(absent)}", file=sys.stderr)
    else:
        walls, scaled, samples, outcomes = [], [], [], []
        phase_start = time.perf_counter()
        while True:
            outcome, wall_s, reference_s, loop_s = speed.timed(workload.run_unit, inputs)
            outcomes.append(outcome)
            walls.append(wall_s)
            scaled.append(reference_s)
            samples.append(loop_s)
            # Start another unit only if it should end inside the run's time.
            if time.perf_counter() - phase_start + wall_s > seconds:
                break
        attempted = sum(o.attempted for o in outcomes)
        values = {
            "wall_s": statistics.median(scaled),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "solved_frac": (attempted - sum(o.failed for o in outcomes)) / attempted,
            "plan_cost": outcomes[0].plan_cost,
            "mean_overlap": outcomes[0].mean_overlap,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
        record.update(unit_walls_s=walls, unit_reference_s=scaled,
                      speed_samples_s=samples)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = [e for o in outcomes for e in o.errors]
    if len({o.fingerprint() for o in outcomes}) > 1:
        errors.append("units of one run disagree on their deterministic outputs")
    correct = not errors
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    workloads.OUT_DIR.mkdir(exist_ok=True)
    out_file = workloads.OUT_DIR / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"machine": record["machine"], "seed": seed, "inputs": record["inputs"]},
                     sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["suite", "budget", "replay"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not use_source_tree():
        print(f"no package source at {SRC / 'wihmplan'}; run from a wihmplan checkout",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace), t_start)


if __name__ == "__main__":
    sys.exit(main())
