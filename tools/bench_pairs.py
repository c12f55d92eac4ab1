"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10]
        [--seconds 40] [--seed 3] [--out pairs.json]

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


def run_order(pair: int) -> tuple[str, str]:
    """The sides in the order pair number ``pair`` runs them."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def clear_bytecode(checkout: Path) -> None:
    for cache in list((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``checkout``: its result line (``correct`` and ``metrics``)."""
    clear_bytecode(checkout)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{checkout}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


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
    parser.add_argument("--workload", required=True, choices=["suite", "budget", "replay"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}

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
