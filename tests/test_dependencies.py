"""The package depends on numpy alone (``pyproject.toml``): a fresh interpreter
that imports it and plans a fixture task loads no other third-party module.
And the heuristic reads the transition model through its public names only."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

# Run without site (-S) and isolated (-I), so no .pth hook preloads a module;
# the path holds the source tree and the directory numpy is installed in.
_PLAN = """
import json, sys
sys.path[:0] = {paths!r}
from pathlib import Path
from wihmplan import bench, cli, io, kinematics, planner

fixtures = Path(io.__file__).parent / "fixtures"
obj = io.load_object(fixtures / "square_prism.json")
resolution, cost = io.load_configs(None)
start = io.load_state(fixtures / "sq_t3_caps_start.json", obj, resolution)
goals = io.load_goals(fixtures / "sq_t3_caps_goals.json", obj)
result = planner.plan(obj, start, goals, resolution, cost)
print(json.dumps({{"status": result.status, "modules": sorted(sys.modules)}}))
"""


def test_planning_loads_numpy_as_the_only_third_party_module():
    paths = [str(SRC), str(Path(np.__file__).resolve().parent.parent)]
    out = subprocess.run([sys.executable, "-I", "-S", "-c", _PLAN.format(paths=paths)],
                         capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["status"] == "exact-goal"
    top = {name.partition(".")[0] for name in report["modules"]}
    assert "wihmplan" in top and "numpy" in top
    assert top - set(sys.stdlib_module_names) - {"__main__", "wihmplan", "numpy"} == set()


def test_heuristic_imports_no_private_name_from_transition():
    # The bound asks transition for turns and axes; the tables behind them stay private.
    tree = ast.parse((SRC / "wihmplan" / "heuristic.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "transition"
             for alias in node.names]
    assert "turns" in names
    assert [name for name in names if name.startswith("_")] == []
