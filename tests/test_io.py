from __future__ import annotations

import json

import pytest

import wihmplan as w
from wihmplan import io as io_mod
from wihmplan.bench import simulate
from wihmplan.planner import plan
from wihmplan.transition import derive_resolutions, finger_axes, state_key

from conftest import FIXTURES, load_task


class TestObjectLoader:
    def test_loads_fixture(self):
        obj = io_mod.load_object(FIXTURES / "square_prism.json")
        assert obj.name == "square_prism"
        assert len(obj.faces) == 6

    def test_missing_field_names_file_and_field(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text(json.dumps({"name": "x", "height": 0.1}))
        with pytest.raises(w.InvalidInputError, match="cross_section"):
            io_mod.load_object(path)

    def test_bad_units_rejected(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text(json.dumps({"cross_section": [[0, 0], [1, 0], [1, 1], [0, 1]],
                                    "height": 1.0, "units": "cm"}))
        with pytest.raises(w.InvalidInputError, match="units"):
            io_mod.load_object(path)

    def test_face_beyond_the_coordinate_limit_names_the_file(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text(json.dumps({"name": "long_bar", "height": 0.1,
                                    "cross_section": [[0, 0], [1500, 0], [1500, 1], [0, 1]]}))
        with pytest.raises(w.InvalidModelError) as err:
            io_mod.load_object(path)
        assert str(err.value).startswith(f"{path}: long_bar: face 0 reaches 1500 m")

    def test_malformed_json_reported(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text("{not json")
        with pytest.raises(w.InvalidInputError, match="malformed"):
            io_mod.load_object(path)


class TestGoalLoader:
    def test_goal_outside_face_rejected(self, tmp_path):
        obj = io_mod.load_object(FIXTURES / "square_prism.json")
        path = tmp_path / "goals.json"
        path.write_text(json.dumps([
            {"face": 0, "polygon": [[0, 0], [0.2, 0], [0.2, 0.2], [0, 0.2]]}]))
        with pytest.raises(w.InvalidInputError, match="goal 0"):
            io_mod.load_goals(path, obj)

    def test_unknown_face_rejected(self, tmp_path):
        obj = io_mod.load_object(FIXTURES / "square_prism.json")
        path = tmp_path / "goals.json"
        path.write_text(json.dumps([
            {"face": 17, "polygon": [[0, 0], [0.01, 0], [0.01, 0.01], [0, 0.01]]}]))
        with pytest.raises(w.InvalidInputError, match="17"):
            io_mod.load_goals(path, obj)


class TestStateRoundTrip:
    def test_state_dict_roundtrip(self, suite_entries):
        obj, start, goals, resolution, cost = load_task(suite_entries[0])
        data = io_mod.state_to_dict(start)
        back = io_mod.state_from_dict(data)
        assert state_key(back) == state_key(start)
        assert "horizontal_axis" not in data
        assert io_mod.state_to_dict(back) == data

    def test_round_trip_state_is_equal_and_hashes_equal(self, suite_entries):
        start = load_task(suite_entries[0])[1]
        back = io_mod.state_from_dict(io_mod.state_to_dict(start))
        assert back == start
        assert hash(back) == hash(start)

    def test_plan_file_roundtrip(self, tmp_path, suite_entries):
        obj, start, goals, resolution, cost = load_task(suite_entries[0])
        p = plan(obj, start, goals, resolution, cost)
        path = tmp_path / "plan.json"
        io_mod.save_plan(p, path)
        loaded = io_mod.load_plan(path)
        assert loaded == p
        assert loaded.status == p.status
        assert loaded.total_action_cost == p.total_action_cost
        assert [a.kind for a in loaded.actions] == [a.kind for a in p.actions]
        assert [state_key(s) for s in loaded.states] == [state_key(s) for s in p.states]
        # serialization is stable: saving the loaded plan reproduces the bytes
        path2 = tmp_path / "plan2.json"
        io_mod.save_plan(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_plan_file_with_horizontal_axis_loads_and_replays(self, tmp_path, sq_t1_plan):
        obj, p = sq_t1_plan
        path = tmp_path / "plan.json"
        io_mod.save_plan(p, path)
        data = json.loads(path.read_text())
        assert all("horizontal_axis" not in s for s in data["states"])
        # Older plan files also record each state's horizontal direction on its left face.
        for s, state in zip(data["states"], p.states):
            s["horizontal_axis"] = finger_axes(obj, state.support_face, state.left.face,
                                               state.right.face)[0][0]
        old = tmp_path / "old_plan.json"
        old.write_text(json.dumps(data))
        loaded = io_mod.load_plan(old)
        result = simulate(loaded, obj, loaded.states[0])
        assert [state_key(s) for s in result.trace] == [state_key(s) for s in p.states]
        io_mod.save_plan(loaded, tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()

    def test_orientation_defaults_to_canonical(self, tmp_path):
        obj = io_mod.load_object(FIXTURES / "square_prism.json")
        resolution = derive_resolutions(obj, w.ResolutionConfig())
        path = tmp_path / "start.json"
        path.write_text(json.dumps({
            "left": {"face": 0, "center": [0.02, 0.02]},
            "right": {"face": 2, "center": [0.02, 0.02]},
            "support_face": 4}))
        s = io_mod.load_state(path, obj, resolution)
        explicit = w.GraspState.create(obj, 0, 2, 4, (0.02, 0.02), (0.02, 0.02),
                                       resolution.pad_width, resolution.pad_height)
        assert state_key(s) == state_key(explicit)

    @pytest.mark.parametrize("field", ["orientaton", "pad_widht"])
    def test_misspelled_side_field_rejected(self, tmp_path, field):
        obj = io_mod.load_object(FIXTURES / "square_prism.json")
        data = json.loads((FIXTURES / "sq_t1_shift_start.json").read_text())
        data["left"][field] = 0.01
        path = tmp_path / "start.json"
        path.write_text(json.dumps(data))
        with pytest.raises(w.InvalidInputError) as err:
            io_mod.load_state(path, obj, w.ResolutionConfig())
        assert str(err.value) == f"{path}: left: unknown field '{field}'"


@pytest.fixture(scope="module")
def sq_t1_plan(suite_entries):
    obj, start, goals, resolution, cost = load_task(suite_entries[0])
    return obj, plan(obj, start, goals, resolution, cost)


class TestMalformedPlanFile:
    @pytest.mark.parametrize("corrupt, message", [
        (lambda data: data.pop("objective"), "missing required field 'objective'"),
        (lambda data: data["states"][1]["left"].pop("orientation"),
         "state 1 left: missing required field 'orientation'"),
        (lambda data: data["actions"][0].update(kind="TELEPORT"),
         "action 0: field 'kind' = 'TELEPORT' is not an action kind"),
        (lambda data: data["actions"][0].update(speed=1.0), "action 0: unknown field 'speed'"),
        (lambda data: data["states"][1].update(grasp_width=0.04),
         "state 1: unknown field 'grasp_width'"),
        (lambda data: data["states"][1]["left"].update(force=3.0),
         "state 1 left: unknown field 'force'"),
    ])
    def test_error_names_file_and_field(self, tmp_path, sq_t1_plan, corrupt, message):
        data = io_mod.plan_to_dict(sq_t1_plan[1])
        corrupt(data)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        with pytest.raises(w.InvalidInputError) as err:
            io_mod.load_plan(path)
        assert str(err.value) == f"{path}: {message}"


class TestConfigLoader:
    def test_defaults_when_missing(self):
        resolution, cost = io_mod.load_configs(None)
        assert resolution.slide_step == 0.005
        assert cost.heuristic_scale == 0.125

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"resolution": {"warp_speed": 9}}))
        with pytest.raises(w.InvalidInputError, match="warp_speed"):
            io_mod.load_configs(path)

    @pytest.mark.parametrize("field", ["table_clearance", "rotation_step", "pivot_step"])
    def test_deleted_fields_rejected(self, tmp_path, field):
        # Removed settings: the geometry fixes both angles, and the clearance test was a no-op.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"resolution": {field: 0.5}}))
        with pytest.raises(w.InvalidInputError) as err:
            io_mod.load_configs(path)
        assert str(err.value) == f"{path}: resolution: unknown field '{field}'"

    def test_misspelled_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"resolutoin": {"slide_step": 0.01}}))
        with pytest.raises(w.InvalidInputError) as err:
            io_mod.load_configs(path)
        assert str(err.value) == f"{path}: unknown field 'resolutoin'"

    def test_grip_limits_out_of_order_name_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"resolution": {"min_grasp_width": 0.2,
                                                   "max_grasp_width": 0.1}}))
        with pytest.raises(w.InvalidInputError) as err:
            io_mod.load_configs(path)
        assert str(err.value).startswith(f"{path}: ")
        assert "min_grasp_width" in str(err.value) and "max_grasp_width" in str(err.value)

    def test_partial_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"resolution": {"slide_step": 0.01},
                                    "cost": {"node_budget": 1000.0, "slide_unit_cost": 0.004}}))
        resolution, cost = io_mod.load_configs(path)
        assert resolution.slide_step == 0.01
        assert resolution.z_step == 0.005
        assert cost.node_budget == 1000 and isinstance(cost.node_budget, int)
        assert cost.slide_unit_cost == 0.004


class TestSuiteLoader:
    def test_absent_or_null_config_means_the_defaults(self, tmp_path):
        task = {"name": "sq_t1", "object": str(FIXTURES / "square_prism.json"),
                "start": str(FIXTURES / "sq_t1_shift_start.json"),
                "goals": str(FIXTURES / "sq_t1_shift_goals.json")}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"tasks": [task, dict(task, config=None)]}))
        tasks, _ = io_mod.load_suite(path)
        defaults = io_mod.load_configs(None)
        assert [(t.resolution, t.cost) for t in tasks] == [defaults, defaults]


class TestChainLoader:
    def test_fixture_chain(self):
        chain = io_mod.load_chain(FIXTURES / "chain.json")
        assert chain.d1 == pytest.approx(0.107)
        assert chain.d4 == 0.0  # derived per pivot at trajectory time

    @pytest.mark.parametrize("edit, field", [
        ({"d1": -0.1}, "d1"),
        ({"d3": "far"}, "d3"),
        ({"theta_finger": float("nan")}, "theta_finger"),
        ({"d2": None}, "d2"),
    ])
    def test_bad_field_rejected(self, tmp_path, edit, field):
        data = json.loads((FIXTURES / "chain.json").read_text())
        data.update(edit)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(data))
        with pytest.raises(w.InvalidInputError, match=field):
            io_mod.load_chain(path)

    def test_missing_field_rejected(self, tmp_path):
        data = json.loads((FIXTURES / "chain.json").read_text())
        del data["d3"]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(data))
        with pytest.raises(w.InvalidInputError, match="d3"):
            io_mod.load_chain(path)

    @pytest.mark.parametrize("field", ["theta_contct", "d4", "theta_pivot"])
    def test_unknown_field_rejected(self, tmp_path, field):
        # plan_waypoints sets d4 and theta_pivot per pivot, so a file cannot.
        data = json.loads((FIXTURES / "chain.json").read_text())
        data[field] = 0.3
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(data))
        with pytest.raises(w.InvalidInputError) as err:
            io_mod.load_chain(path)
        assert str(err.value) == f"{path}: unknown field '{field}'"
