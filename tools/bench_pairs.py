"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10]
        [--seconds 40] [--seed 3] [--out pairs.json]
    python tools/bench_pairs.py PARENT CHANGE --counters [--workload W] [--seed 3]

PARENT and CHANGE are the roots of two source checkouts.  Each pair runs
``perfbench/run.py --workload W --seed N --seconds S --trace 0`` once in each
checkout, with one seed; the parent runs first in even-numbered pairs
(counting from 0) and the change runs first in odd-numbered ones.  Before
each run the tool deletes every ``__pycache__`` directory under that
checkout's ``src/`` and runs with ``PYTHONDONTWRITEBYTECODE=1``, so both
sides compile the package at import: a side that held bytecode caches would
read a lower ``setup_s`` and a different ``peak_rss_mb`` for code of equal
speed.

For each end-to-end metric that CHANGE's ``BENCHMARK.json`` declares, it
prints both sides' medians and quartiles over the pairs, and in how many
pairs the change is better (ties count for neither side).  ``--out`` writes
the raw pairs and that summary as JSON.  It exits 1 when a run fails its
correctness check, after all runs.

The second form compares the per-layer counters instead.  Per workload
(every one, or ``--workload``'s), it runs one traced unit in each checkout
(``--seconds 0 --trace 1``, bytecode caches cleared as above) and compares
every per-layer metric whose unit is ``count`` or ``ratio``, except
``trace.overhead_frac``: the metrics a traced run repeats exactly, where the
``s`` and ``us`` timings and the tracing overhead do not.  It prints each
metric that differs or that one side lacks, each absent trace target and
each failed correctness check, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
WORKLOADS = ("suite", "budget", "replay")
# Units of the metrics a traced run repeats exactly, and the one such metric
# that is a timing ratio.
COUNTER_UNITS = ("count", "ratio")
UNREPEATED = ("trace.overhead_frac",)


def run_order(pair: int) -> tuple[str, str]:
    """The sides in the order pair number ``pair`` runs them."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def clear_bytecode(checkout: Path) -> None:
    for cache in list((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One run in ``checkout``: its result line (``correct`` and ``metrics``),
    plus ``absent``, the trace targets its stderr reports absent."""
    clear_bytecode(checkout)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{checkout}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    absent = [target for line in proc.stderr.splitlines()
              if line.startswith("absent trace targets: ")
              for target in line.split(": ", 1)[1].split(", ")]
    return {**json.loads(lines[-1]), "absent": absent}


def is_counter(name: str, metric: dict) -> bool:
    """Whether a traced run repeats the metric exactly: its unit is in
    ``COUNTER_UNITS`` and it is not in ``UNREPEATED``."""
    return metric["unit"] in COUNTER_UNITS and name not in UNREPEATED


def compare_counters(parent: dict, change: dict) -> list[str]:
    """Each difference between two traced runs' results, as a line: a counter
    (``is_counter``) whose values differ or that one side lacks, an absent trace target, or a
    failed correctness check.  Empty when the runs agree."""
    runs = {"parent": parent, "change": change}
    problems = []
    for side, run in runs.items():
        if not run["correct"]:
            problems.append(f"{side}: a correctness check failed")
        problems += [f"{side}: absent trace target {target}" for target in run["absent"]]
    counters = sorted({name for run in runs.values() for name, m in run["metrics"].items()
                       if is_counter(name, m)})
    for name in counters:
        values = {side: run["metrics"].get(name, {}).get("value") for side, run in runs.items()}
        missing = [side for side, value in values.items() if value is None]
        if missing:
            problems.append(f"{name}: absent in {' and '.join(missing)}")
        elif values["parent"] != values["change"]:
            problems.append(f"{name}: parent {values['parent']!r} change {values['change']!r}")
    return problems


def counters_main(checkouts: dict, workloads: list[str], seed: int) -> int:
    """Compare the traced counters of each workload; 1 if any differ."""
    differ = False
    for workload in workloads:
        runs = {side: run_once(checkouts[side], workload, seed, 0.0, trace=1) for side in SIDES}
        problems = compare_counters(runs["parent"], runs["change"])
        count = sum(is_counter(name, m) for name, m in runs["change"]["metrics"].items())
        print(f"{workload} seed {seed}: {count} counters, {len(problems)} differences")
        for problem in problems:
            print(f"  {problem}")
        differ = differ or bool(problems)
    return 1 if differ else 0


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles over ``pairs``, and the
    number of pairs the change wins.

    Each pair maps ``parent`` and ``change`` to a run's metric values;
    ``better`` maps each metric to ``lower`` or ``higher``.
    """
    summary = {}
    for name, direction in better.items():
        side_values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (pair["parent"][name] - pair["change"][name]) > 0.0 for pair in pairs)
        summary[name] = {
            **{side: {"median": statistics.median(values), "quartiles": quartiles(values)}
               for side, values in side_values.items()},
            "change_wins": wins,
            "pairs": len(pairs),
            "better": direction,
        }
    return summary


def format_summary(summary: dict) -> list[str]:
    lines = []
    for name, row in summary.items():
        sides = "  ".join(
            f"{side} {row[side]['median']:.6g} [{row[side]['quartiles'][0]:.6g}, "
            f"{row[side]['quartiles'][1]:.6g}]" for side in SIDES)
        lines.append(f"{name} ({row['better']} is better): {sides}  "
                     f"change better in {row['change_wins']} of {row['pairs']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--counters", action="store_true",
                        help="compare one traced run's counters per workload instead")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent, "change": args.change}
    if args.counters:
        return counters_main(checkouts, [args.workload] if args.workload else list(WORKLOADS),
                             args.seed)
    if args.workload is None:
        parser.error("--workload is required without --counters")
    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}

    pairs, correct = [], True
    for i in range(args.pairs):
        pair: dict = {"first": run_order(i)[0]}
        for side in run_order(i):
            result = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            correct = correct and result["correct"]
            pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
            pair[f"{side}_correct"] = result["correct"]
        pairs.append(pair)
        print(f"pair {i}: {args.workload} wall_s parent {pair['parent']['wall_s']:.6g} "
              f"change {pair['change']['wall_s']:.6g}", file=sys.stderr)

    summary = summarize(pairs, better)
    print("\n".join(format_summary(summary)))
    if args.out is not None:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "parent": str(args.parent), "change": str(args.change),
                  "pairs": pairs, "summary": summary}
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    if not correct:
        print("a run failed its correctness check", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
