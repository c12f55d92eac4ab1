from __future__ import annotations

import argparse
import json
import math
import re
import shutil
from pathlib import Path

import pytest

from wihmplan import bench as bench_mod
from wihmplan.cli import _build_parser, main

from conftest import FIXTURES


@pytest.fixture()
def workdir(tmp_path: Path) -> Path:
    for name in ("square_prism.json", "sq_t1_shift_start.json", "sq_t1_shift_goals.json",
                 "chain.json"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


def run_cli(*argv: str) -> int:
    return main(list(argv))


def readme_cli_options() -> dict[str, set[str]]:
    """Per command in README's CLI block, the options its lines name (comments excluded)."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    out: dict[str, set[str]] = {}
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split("#", 1)[0].split()
        command = next(word for word in words[1:] if not word.startswith("-"))
        out.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", " ".join(words)))
    return out


def test_readme_cli_block_names_every_option():
    parser = _build_parser()
    named = readme_cli_options()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    missing = [flag for a in parser._actions for flag in a.option_strings
               if flag not in ("-h", "--help") and not any(flag in n for n in named.values())]
    for command, sub in commands.choices.items():
        missing += [f"{command} {flag}" for a in sub._actions for flag in a.option_strings
                    if flag not in ("-h", "--help") and flag not in named.get(command, ())]
    assert not missing


class TestPlanCommand:
    def test_happy_path_writes_plan(self, workdir):
        out = workdir / "plan.json"
        code = run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["status"] == "exact-goal"
        assert len(data["actions"]) >= 1

    def test_missing_required_flag_usage_error(self, workdir, capsys):
        code = run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(workdir / "p.json"))
        assert code == 2

    def test_unknown_subcommand_usage_error(self):
        assert run_cli("frobnicate") == 2

    def test_nonexistent_file_input_error(self, workdir):
        code = run_cli("plan", "--object", str(workdir / "nope.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(workdir / "p.json"))
        assert code == 2

    def test_nonconvex_goal_named_in_error(self, workdir, caplog):
        bad = workdir / "bad_goals.json"
        bad.write_text(json.dumps([
            {"face": 0, "polygon": [[0, 0], [0.02, 0], [0.002, 0.002], [0, 0.02]]},
        ]))
        code = run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(bad),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(workdir / "p.json"))
        assert code == 2
        assert any("goal 0" in rec.message for rec in caplog.records)

    def test_goal_tolerance_of_half_the_pad_exits_2(self, workdir, caplog):
        # The default pads are 0.02 m square: a 0.01 m goal tolerance is too
        # coarse for the abstract bound's same-face goal test.
        config = workdir / "config.json"
        config.write_text(json.dumps({"cost": {"goal_tolerance": 0.01}}))
        code = run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--config", str(config), "--out", str(workdir / "p.json"))
        assert code == 2
        assert any("goal_tolerance 0.01" in rec.message and "pad side 0.02" in rec.message
                   for rec in caplog.records)

    def test_start_outside_face_input_error(self, workdir, caplog):
        bad = workdir / "bad_start.json"
        bad.write_text(json.dumps({
            "left": {"face": 0, "center": [0.5, 0.5]},
            "right": {"face": 2, "center": [0.02, 0.02]},
            "support_face": 4,
        }))
        code = run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(bad),
                       "--out", str(workdir / "p.json"))
        assert code == 2

    def test_unreachable_goal_exits_planning_failure(self, workdir):
        sliver = workdir / "sliver_goals.json"
        sliver.write_text(json.dumps([
            {"face": 0, "polygon": [[0, 0.095], [0.04, 0.095], [0.04, 0.1], [0, 0.1]]},
            {"face": 2, "polygon": [[0, 0.095], [0.04, 0.095], [0.04, 0.1], [0, 0.1]]},
        ]))
        budget = workdir / "budget.json"
        budget.write_text(json.dumps({"cost": {"node_budget": 2000}}))
        code = run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(sliver),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--config", str(budget),
                       "--out", str(workdir / "p.json"))
        assert code == 4
        assert json.loads((workdir / "p.json").read_text())["status"] == "best-effort"


class TestSimulateCommand:
    def test_noiseless_roundtrip(self, workdir):
        plan_path = workdir / "plan.json"
        run_cli("plan", "--object", str(workdir / "square_prism.json"),
                "--goals", str(workdir / "sq_t1_shift_goals.json"),
                "--start", str(workdir / "sq_t1_shift_start.json"),
                "--out", str(plan_path))
        out = workdir / "sim.json"
        code = run_cli("simulate", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["mode"] == "noiseless"
        assert data["failed"] is False

    def test_noiseless_mode_replays_the_plan_once(self, workdir, monkeypatch):
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(plan_path)) == 0
        actions = len(json.loads(plan_path.read_text())["actions"])
        real = bench_mod.transition
        calls = []
        monkeypatch.setattr(bench_mod, "transition",
                            lambda *args: calls.append(args) or real(*args))
        out = workdir / "sim.json"
        code = run_cli("simulate", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["executed"] == actions
        assert len(calls) == actions

    def test_noiseless_mode_rejects_a_start_off_the_plan(self, workdir, caplog):
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(plan_path)) == 0
        start = json.loads((workdir / "sq_t1_shift_start.json").read_text())
        start["left"]["center"][1] += 0.01
        moved = workdir / "moved_start.json"
        moved.write_text(json.dumps(start))
        out = workdir / "sim.json"
        code = run_cli("simulate", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--start", str(moved), "--out", str(out))
        assert code == 2
        assert not out.exists()
        errors = [rec.message for rec in caplog.records if rec.levelname == "ERROR"]
        assert errors and errors[0] == f"{moved}: the start state is not the plan's first state"

    @pytest.mark.parametrize("noise", [[], ["--noise", "0.002"]])
    def test_rotation_past_the_configs_grip_limit_exits_2(self, workdir, caplog, noise):
        # The plan rotates onto a pair 1:1 in length to width; a config that
        # allows 0.9 rejects it, as search would.
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(FIXTURES / "sq_t2_rotate_goals.json"),
                       "--start", str(FIXTURES / "sq_t2_rotate_start.json"),
                       "--out", str(plan_path)) == 0
        assert "ROTATE_CW" in plan_path.read_text()
        config = workdir / "narrow.json"
        config.write_text(json.dumps({"resolution": {"max_length_width_ratio": 0.9}}))
        out = workdir / "sim.json"
        code = run_cli("simulate", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--start", str(FIXTURES / "sq_t2_rotate_start.json"),
                       "--config", str(config), *noise, "--out", str(out))
        assert code == 2
        assert not out.exists()
        errors = [rec.message for rec in caplog.records if rec.levelname == "ERROR"]
        assert errors and errors[0].startswith(f"{plan_path}: ROTATE_CW")

    @pytest.mark.parametrize("noise", [[], ["--noise", "0.002", "--trials", "5"]])
    def test_edited_step_cost_exits_2_naming_the_step(self, workdir, caplog, noise):
        # The total and objective are kept consistent, so the plan file loads;
        # the step cost no longer matches its action under the config.
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(plan_path)) == 0
        data = json.loads(plan_path.read_text())
        data["step_costs"][3] *= 2.0
        data["total_action_cost"] = math.fsum(data["step_costs"])
        data["objective"] = (data["terminal_outside_area"]
                             + data["tradeoff_weight"] * data["total_action_cost"])
        plan_path.write_text(json.dumps(data))
        out = workdir / "sim.json"
        code = run_cli("simulate", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"), *noise,
                       "--out", str(out))
        assert code == 2
        assert not out.exists()
        errors = [rec.message for rec in caplog.records if rec.levelname == "ERROR"]
        assert errors and errors[0].startswith(f"{plan_path}: step 3 (MOVE_CONTACT_UP) ")

    def test_plan_is_checked_against_the_config_it_was_made_under(self, workdir, caplog):
        config = workdir / "pricey.json"
        config.write_text(json.dumps({"cost": {"scale_z": 3.0}}))
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--config", str(config), "--out", str(plan_path)) == 0
        simulate = ["simulate", "--plan", str(plan_path),
                    "--object", str(workdir / "square_prism.json"),
                    "--start", str(workdir / "sq_t1_shift_start.json"),
                    "--out", str(workdir / "sim.json")]
        assert run_cli(*simulate, "--config", str(config)) == 0
        assert run_cli(*simulate) == 2
        errors = [rec.message for rec in caplog.records if rec.levelname == "ERROR"]
        assert errors and errors[0].startswith(f"{plan_path}: step 0 (MOVE_CONTACT_UP) ")

    def test_noise_mode_stats(self, workdir):
        plan_path = workdir / "plan.json"
        run_cli("plan", "--object", str(workdir / "square_prism.json"),
                "--goals", str(workdir / "sq_t1_shift_goals.json"),
                "--start", str(workdir / "sq_t1_shift_start.json"),
                "--out", str(plan_path))
        out = workdir / "noise.json"
        code = run_cli("simulate", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--noise", "0.002", "--trials", "50", "--seed", "3",
                       "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["mode"] == "noise"
        assert data["trials"] == 50
        assert 0 <= data["failures"] <= 50

    def test_noise_mode_rejects_a_start_off_the_plan(self, workdir, caplog):
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(plan_path)) == 0
        start = json.loads((workdir / "sq_t1_shift_start.json").read_text())
        start["left"]["center"][1] += 0.01
        moved = workdir / "moved_start.json"
        moved.write_text(json.dumps(start))
        out = workdir / "noise.json"
        code = run_cli("simulate", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--start", str(moved), "--noise", "0.002", "--trials", "5",
                       "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert any("first state" in rec.message for rec in caplog.records)

    def test_noise_mode_rejects_a_negative_seed(self, workdir, caplog):
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(plan_path)) == 0
        out = workdir / "noise.json"
        code = run_cli("simulate", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--noise", "0.001", "--seed", "-1", "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert any("seed" in rec.message for rec in caplog.records)

    # 1e308 is finite, but the span of the draws, 2 * eta, is not.
    @pytest.mark.parametrize("eta", ["inf", "nan", "1e308"])
    def test_noise_mode_rejects_non_finite_noise(self, workdir, caplog, eta):
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(plan_path)) == 0
        out = workdir / "noise.json"
        code = run_cli("simulate", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--noise", eta, "--trials", "5", "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert any("noise amplitude" in rec.message for rec in caplog.records)


class TestDeterminism:
    def test_plan_and_simulate_byte_identical(self, workdir):
        paths = []
        for tag in ("a", "b"):
            plan_path = workdir / f"plan_{tag}.json"
            sim_path = workdir / f"sim_{tag}.json"
            assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                           "--goals", str(workdir / "sq_t1_shift_goals.json"),
                           "--start", str(workdir / "sq_t1_shift_start.json"),
                           "--out", str(plan_path)) == 0
            assert run_cli("simulate", "--plan", str(plan_path),
                           "--object", str(workdir / "square_prism.json"),
                           "--start", str(workdir / "sq_t1_shift_start.json"),
                           "--out", str(sim_path)) == 0
            paths.append((plan_path, sim_path))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


class TestTrajectoryCommand:
    def test_pivot_plan_emits_waypoints(self, workdir):
        shutil.copy(FIXTURES / "sq_t3_caps_start.json", workdir / "start.json")
        shutil.copy(FIXTURES / "sq_t3_caps_goals.json", workdir / "goals.json")
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "goals.json"),
                       "--start", str(workdir / "start.json"),
                       "--out", str(plan_path)) == 0
        traj = workdir / "traj.csv"
        code = run_cli("trajectory", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--chain", str(workdir / "chain.json"),
                       "--steps", "10", "--out", str(traj))
        assert code == 0
        lines = traj.read_text().strip().splitlines()
        assert lines[0] == "step,x,y,z,qw,qx,qy,qz"
        assert len(lines) > 10  # pivot stages expand into many waypoints
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8
            for field in fields:
                float(field)

    def test_bad_chain_is_an_input_error_naming_the_file(self, workdir, caplog):
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(plan_path)) == 0
        chain_path = workdir / "chain.json"
        chain = json.loads(chain_path.read_text())
        chain["d1"] = -0.1
        chain_path.write_text(json.dumps(chain))
        traj = workdir / "traj.csv"
        code = run_cli("trajectory", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--chain", str(chain_path), "--out", str(traj))
        assert code == 2
        assert not traj.exists()
        errors = [rec.message for rec in caplog.records if rec.levelname == "ERROR"]
        assert errors and errors[0].startswith(f"{chain_path}: ")
        assert "d1 must be non-negative" in errors[0]

    @pytest.mark.parametrize("task, steps", [("sq_t1_shift", "-3"), ("sq_t3_caps", "0")])
    def test_steps_below_one_is_an_input_error(self, workdir, caplog, task, steps):
        # sq_t1_shift's plan has no pivot, so the check cannot wait for one.
        shutil.copy(FIXTURES / f"{task}_start.json", workdir / "start.json")
        shutil.copy(FIXTURES / f"{task}_goals.json", workdir / "goals.json")
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "goals.json"),
                       "--start", str(workdir / "start.json"),
                       "--out", str(plan_path)) == 0
        traj = workdir / "traj.csv"
        code = run_cli("trajectory", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--chain", str(workdir / "chain.json"),
                       "--steps", steps, "--out", str(traj))
        assert code == 2
        assert not traj.exists()
        assert any("steps must be >= 1" in rec.message for rec in caplog.records)

    def test_state_naming_a_missing_face_is_an_input_error(self, workdir, caplog):
        shutil.copy(FIXTURES / "sq_t3_caps_start.json", workdir / "start.json")
        shutil.copy(FIXTURES / "sq_t3_caps_goals.json", workdir / "goals.json")
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "goals.json"),
                       "--start", str(workdir / "start.json"),
                       "--out", str(plan_path)) == 0
        data = json.loads(plan_path.read_text())
        step = [a["kind"] for a in data["actions"]].index("PIVOT")
        data["states"][step]["support_face"] = 99
        plan_path.write_text(json.dumps(data))
        code = run_cli("trajectory", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--chain", str(workdir / "chain.json"),
                       "--out", str(workdir / "traj.csv"))
        assert code == 2
        assert any(f"state {step}" in rec.message and "99" in rec.message
                   for rec in caplog.records)
        code = run_cli("simulate", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--start", str(workdir / "start.json"),
                       "--out", str(workdir / "sim.json"))
        assert code == 2

    def test_plan_its_object_cannot_execute_is_an_input_error(self, workdir, caplog):
        shutil.copy(FIXTURES / "sq_t3_caps_start.json", workdir / "start.json")
        shutil.copy(FIXTURES / "sq_t3_caps_goals.json", workdir / "goals.json")
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "goals.json"),
                       "--start", str(workdir / "start.json"),
                       "--out", str(plan_path)) == 0
        data = json.loads(plan_path.read_text())
        pivot = next(a for a in data["actions"] if a["kind"] == "PIVOT")
        pivot["magnitude"] /= 2.0
        plan_path.write_text(json.dumps(data))
        traj = workdir / "traj.csv"
        noise = workdir / "noise.json"
        for argv, out in ((["trajectory", "--chain", str(workdir / "chain.json")], traj),
                          (["simulate", "--start", str(workdir / "start.json"),
                            "--noise", "0.001", "--trials", "5"], noise)):
            caplog.clear()
            code = run_cli(*argv, "--plan", str(plan_path),
                           "--object", str(workdir / "square_prism.json"), "--out", str(out))
            assert code == 2
            assert not out.exists()
            errors = [rec.message for rec in caplog.records if rec.levelname == "ERROR"]
            assert errors and errors[0].startswith(f"{plan_path}: ")

    @pytest.mark.parametrize("corrupt, field", [
        (lambda data: data["states"][0].pop("support_face"), "support_face"),
        (lambda data: data["actions"][0].update(kind="TELEPORT"), "kind"),
    ])
    def test_malformed_plan_file_is_an_input_error(self, workdir, caplog, corrupt, field):
        plan_path = workdir / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(plan_path)) == 0
        data = json.loads(plan_path.read_text())
        corrupt(data)
        plan_path.write_text(json.dumps(data))
        code = run_cli("trajectory", "--plan", str(plan_path),
                       "--object", str(workdir / "square_prism.json"),
                       "--chain", str(workdir / "chain.json"),
                       "--out", str(workdir / "traj.csv"))
        assert code == 2
        assert any(str(plan_path) in rec.message and f"'{field}'" in rec.message
                   for rec in caplog.records)


class TestMalformedInput:
    @pytest.mark.parametrize("name, corrupt, field", [
        ("plan.json", lambda data: data["actions"][0].update(magnitude="fast"), "magnitude"),
        ("plan.json", lambda data: data.update(states=data["states"][:3]), "states"),
        ("sq_t1_shift_goals.json", lambda data: data[0].update(face="a"), "face"),
        ("config.json", lambda data: data["resolution"].update(slide_step="fast"), "slide_step"),
        ("sq_t1_shift_start.json", lambda data: data["left"].update(orientation="up"),
         "orientation"),
        pytest.param("config.json", lambda data: data.update(resolution=[]), "resolution",
                     id="config-section-not-an-object"),
        pytest.param("sq_t1_shift_start.json", lambda data: data.update(left=[1]), "face",
                     id="start-side-not-an-object"),
        pytest.param("sq_t1_shift_goals.json", lambda data: data.__setitem__(0, 5), "face",
                     id="goal-not-an-object"),
        pytest.param("plan.json", lambda data: data["states"].__setitem__(2, 5), "left",
                     id="plan-state-not-an-object"),
        pytest.param("plan.json", lambda data: data.update(states=5), "states",
                     id="plan-states-not-a-list"),
        pytest.param("plan.json",
                     lambda data: data["states"][2]["left"].update(pad_width=-0.02), "pad_width",
                     id="plan-pad-width-negative"),
        pytest.param("plan.json",
                     lambda data: data["states"][2]["left"].update(center=[0.02, 0.02, 0.0]),
                     "center", id="plan-center-3-numbers"),
        pytest.param("plan.json", lambda data: data.update(status="banana"), "status",
                     id="plan-status-unknown"),
        pytest.param("plan.json", lambda data: data.update(status="failed"), "status",
                     id="plan-status-failed"),
        pytest.param("plan.json", lambda data: data.update(expansions=-7), "expansions",
                     id="plan-expansions-negative"),
        pytest.param("plan.json", lambda data: data["actions"][0].update(arc_radius=-3),
                     "arc_radius", id="plan-arc-radius-negative"),
        pytest.param("plan.json", lambda data: data["step_costs"].__setitem__(1, -0.005),
                     "step_costs", id="plan-step-cost-negative"),
        pytest.param("plan.json",
                     lambda data: data.update(step_costs=[0.0] * len(data["step_costs"]),
                                              total_action_cost=123.0, objective=-5.0),
                     "total_action_cost", id="plan-total-not-the-step-cost-sum"),
        pytest.param("plan.json",
                     lambda data: data.update(step_costs=[0.0] * len(data["step_costs"]),
                                              total_action_cost=0.0, objective=-5.0),
                     "objective", id="plan-objective-not-recomputed"),
        pytest.param("plan.json",
                     lambda data: data.update(
                         objective=math.nextafter(data["objective"], math.inf)),
                     "objective", id="plan-objective-one-ulp-off"),
    ])
    def test_bad_field_exits_2_naming_file_and_field(self, workdir, caplog, name, corrupt, field):
        (workdir / "config.json").write_text(json.dumps({"resolution": {"slide_step": 0.005}}))
        inputs = ["--object", str(workdir / "square_prism.json"),
                  "--goals", str(workdir / "sq_t1_shift_goals.json"),
                  "--start", str(workdir / "sq_t1_shift_start.json"),
                  "--config", str(workdir / "config.json")]
        plan_path = workdir / "plan.json"
        assert run_cli("plan", *inputs, "--out", str(plan_path)) == 0
        assert len(json.loads(plan_path.read_text())["actions"]) > 3
        path = workdir / name
        data = json.loads(path.read_text())
        corrupt(data)
        path.write_text(json.dumps(data))
        if name == "plan.json":
            code = run_cli("trajectory", "--plan", str(plan_path),
                           "--object", str(workdir / "square_prism.json"),
                           "--chain", str(workdir / "chain.json"),
                           "--out", str(workdir / "traj.csv"))
        else:
            code = run_cli("plan", *inputs, "--out", str(workdir / "replan.json"))
        assert code == 2
        assert any(str(path) in rec.message and f"'{field}'" in rec.message
                   for rec in caplog.records)

    def test_suite_not_an_object_exits_2_naming_file_and_field(self, workdir, caplog):
        suite = workdir / "suite.json"
        suite.write_text("[]")
        assert run_cli("benchmark", "--suite", str(suite), "--out", str(workdir / "r.csv")) == 2
        assert any(str(suite) in rec.message and "'tasks'" in rec.message
                   for rec in caplog.records)

    @pytest.mark.parametrize("thresholds, field", [
        pytest.param([], "thresholds", id="thresholds-not-an-object"),
        pytest.param({"min_mean_overlap": "high"}, "min_mean_overlap",
                     id="min-mean-overlap-not-a-number"),
        pytest.param({"require_all_solved": "yes"}, "require_all_solved",
                     id="require-all-solved-not-a-bool"),
        pytest.param({"max_task_planning_time": 0.001}, "max_task_planning_time",
                     id="misspelled-threshold"),
    ])
    def test_bad_threshold_exits_2_before_planning(self, workdir, caplog, monkeypatch,
                                                   thresholds, field):
        monkeypatch.setattr("wihmplan.bench.run_benchmark",
                            lambda *a, **k: pytest.fail("planned a suite with bad thresholds"))
        suite = workdir / "suite.json"
        suite.write_text(json.dumps({
            "tasks": [{"name": "sq_t1", "object": "square_prism.json",
                       "start": "sq_t1_shift_start.json", "goals": "sq_t1_shift_goals.json"}],
            "thresholds": thresholds}))
        assert run_cli("benchmark", "--suite", str(suite), "--out", str(workdir / "r.csv")) == 2
        assert any(str(suite) in rec.message and f"'{field}'" in rec.message
                   for rec in caplog.records)

    @pytest.mark.parametrize("corrupt, field", [
        pytest.param(lambda suite: suite.update(threshold=suite.pop("thresholds")), "threshold",
                     id="misspelled-thresholds"),
        pytest.param(lambda suite: suite["tasks"][0].update(confg="config.json"), "confg",
                     id="misspelled-task-config"),
        pytest.param(lambda suite: suite["tasks"][0].update(object=5), "object",
                     id="task-object-not-a-string"),
        pytest.param(lambda suite: suite["tasks"][0].update(name=["sq_t1"]), "name",
                     id="task-name-not-a-string"),
        *(pytest.param(lambda suite, field=field: suite["tasks"][0].update({field: ""}), field,
                       id=f"task-{field}-empty") for field in ("object", "start", "goals", "config")),
    ])
    def test_bad_suite_field_exits_2_before_planning(self, workdir, caplog, monkeypatch,
                                                     corrupt, field):
        monkeypatch.setattr("wihmplan.bench.run_benchmark",
                            lambda *a, **k: pytest.fail("planned a suite with a bad field"))
        data = {"tasks": [{"name": "sq_t1", "object": "square_prism.json",
                           "start": "sq_t1_shift_start.json", "goals": "sq_t1_shift_goals.json"}],
                "thresholds": {"max_task_planning_time_s": 0.001}}
        corrupt(data)
        suite = workdir / "suite.json"
        suite.write_text(json.dumps(data))
        assert run_cli("benchmark", "--suite", str(suite), "--out", str(workdir / "r.csv")) == 2
        errors = [rec.message for rec in caplog.records if rec.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].count(str(suite)) == 1
        assert f"'{field}'" in errors[0]


class TestUnfoldCommand:
    def test_svg_written(self, workdir):
        out = workdir / "layout.svg"
        code = run_cli("unfold", "--object", str(workdir / "square_prism.json"),
                       "--face", "4", "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--out", str(out))
        assert code == 0
        content = out.read_text()
        assert content.startswith("<svg")
        assert content.count("<polygon") >= 6 + 2  # all faces plus goal images


class TestBenchmarkCommand:
    def test_unknown_report_format_exits_2_before_planning(self, workdir, caplog,
                                                           monkeypatch):
        monkeypatch.setattr("wihmplan.bench.run_benchmark",
                            lambda *a, **k: pytest.fail("planned a suite it cannot report"))
        suite = workdir / "suite.json"
        suite.write_text(json.dumps({"tasks": [
            {"name": "sq_t1", "object": "square_prism.json",
             "start": "sq_t1_shift_start.json", "goals": "sq_t1_shift_goals.json"}]}))
        assert run_cli("benchmark", "--suite", str(suite),
                       "--out", str(workdir / "report.txt")) == 2
        assert any("unknown report format 'txt'" in rec.message for rec in caplog.records)

    def test_missing_json_out_directory_exits_2_before_planning(self, workdir, caplog,
                                                                monkeypatch):
        monkeypatch.setattr("wihmplan.bench.run_benchmark",
                            lambda *a, **k: pytest.fail("planned a suite it cannot report"))
        suite = workdir / "suite.json"
        suite.write_text(json.dumps({"tasks": [
            {"name": "sq_t1", "object": "square_prism.json",
             "start": "sq_t1_shift_start.json", "goals": "sq_t1_shift_goals.json"}]}))
        report, missing = workdir / "report.csv", workdir / "missing_dir" / "r.json"
        assert run_cli("benchmark", "--suite", str(suite), "--out", str(report),
                       "--json-out", str(missing)) == 2
        assert not report.exists()
        assert any(str(missing) in rec.message for rec in caplog.records)

    def test_threshold_violation_exit_code(self, workdir, tmp_path):
        suite = {
            "tasks": [{"name": "impossible", "object": "square_prism.json",
                       "start": "sq_t1_shift_start.json",
                       "goals": "sliver_goals.json", "config": "budget.json"}],
            "thresholds": {"require_all_solved": True},
        }
        (workdir / "sliver_goals.json").write_text(json.dumps([
            {"face": 0, "polygon": [[0, 0.095], [0.04, 0.095], [0.04, 0.1], [0, 0.1]]},
            {"face": 2, "polygon": [[0, 0.095], [0.04, 0.095], [0.04, 0.1], [0, 0.1]]},
        ]))
        (workdir / "budget.json").write_text(json.dumps({"cost": {"node_budget": 2000}}))
        (workdir / "suite.json").write_text(json.dumps(suite))
        code = run_cli("benchmark", "--suite", str(workdir / "suite.json"),
                       "--out", str(workdir / "report.csv"))
        assert code == 3
        assert (workdir / "report.csv").exists()

    def test_passing_single_task_suite(self, workdir):
        suite = {
            "tasks": [{"name": "sq_t1", "object": "square_prism.json",
                       "start": "sq_t1_shift_start.json",
                       "goals": "sq_t1_shift_goals.json"}],
            "thresholds": {"min_mean_overlap": 0.7, "require_all_solved": True},
        }
        (workdir / "suite.json").write_text(json.dumps(suite))
        code = run_cli("benchmark", "--suite", str(workdir / "suite.json"),
                       "--out", str(workdir / "report.csv"),
                       "--json-out", str(workdir / "report.json"))
        assert code == 0
        assert (workdir / "report.json").exists()


class TestOutputPaths:
    def test_missing_out_directory_exits_2_before_planning(self, workdir, caplog, monkeypatch):
        monkeypatch.setattr("wihmplan.cli.run_planner",
                            lambda *a: pytest.fail("planned a plan it cannot save"))
        out = workdir / "missing_dir" / "plan.json"
        assert run_cli("plan", "--object", str(workdir / "square_prism.json"),
                       "--goals", str(workdir / "sq_t1_shift_goals.json"),
                       "--start", str(workdir / "sq_t1_shift_start.json"),
                       "--out", str(out)) == 2
        assert any(str(out) in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("command, inputs", [
        ("plan", ["--object", "o.json", "--goals", "g.json", "--start", "s.json"]),
        ("simulate", ["--plan", "p.json", "--object", "o.json", "--start", "s.json"]),
        ("benchmark", ["--suite", "suite.json"]),
        ("trajectory", ["--plan", "p.json", "--object", "o.json", "--chain", "c.json"]),
        ("unfold", ["--object", "o.json", "--face", "0"]),
    ])
    def test_every_command_checks_its_out_path_before_reading_inputs(
            self, workdir, caplog, monkeypatch, command, inputs):
        monkeypatch.setattr("wihmplan.io.read_json",
                            lambda path: pytest.fail(f"read {path} for an output it cannot write"))
        out = workdir / "missing_dir" / "out.json"
        assert run_cli(command, *inputs, "--out", str(out)) == 2
        assert any(str(out) in rec.message for rec in caplog.records)
