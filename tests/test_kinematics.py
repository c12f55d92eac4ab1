from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import wihmplan as w
from wihmplan import io as io_mod
from wihmplan import kinematics
from wihmplan.geometry import RigidTransform3
from wihmplan.kinematics import (
    DHRow,
    PivotChain,
    chain_forward,
    chain_rows,
    contact_shift_displacement,
    dh_transform,
    ee_to_pivot,
    full_pivot_trajectory,
    pivot_trajectory,
    plan_waypoints,
    rotation_to_quaternion,
)
from wihmplan.planner import Plan, plan
from wihmplan.transition import Action, ActionKind, successors

from conftest import FIXTURES, load_task
from oracles import chain_oracle, dh_oracle_matrix

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402 - needs perfbench on the path

STEPS = 25


def random_chain(rng) -> PivotChain:
    return PivotChain(
        d1=float(rng.uniform(0.05, 0.2)),
        theta_finger=float(rng.uniform(-1.0, 1.0)),
        d2=float(rng.uniform(0.0, 0.05)),
        d3=float(rng.uniform(0.05, 0.15)),
        d4=float(rng.uniform(0.0, 0.05)),
        theta_contact=float(rng.uniform(-1.5, 1.5)),
        theta_pivot=float(rng.uniform(-1.5, 1.5)),
    )


class TestDHTransform:
    def test_identity_row(self):
        t = dh_transform(DHRow(0.0, 0.0, 0.0, 0.0))
        assert np.allclose(t.rotation, np.eye(3), atol=1e-15)
        assert np.allclose(t.translation, np.zeros(3), atol=1e-15)

    def test_quarter_turn_with_link_length(self):
        t = dh_transform(DHRow(math.pi / 2.0, 0.0, 1.0, 0.0))
        assert np.allclose(t.translation, [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(t.rotation @ np.array([1.0, 0.0, 0.0]),
                           [0.0, 1.0, 0.0], atol=1e-12)

    def test_mount_row_against_oracle(self):
        row = DHRow(3.0 * math.pi / 4.0, 0.1, 0.0, math.pi / 2.0)
        t = dh_transform(row)
        expected = dh_oracle_matrix(row.theta, row.d, row.a, row.alpha)
        assert np.allclose(t.rotation, expected[:3, :3], atol=1e-12)
        assert np.allclose(t.translation, expected[:3, 3], atol=1e-12)

    def test_random_rows_match_oracle(self, rng):
        for _ in range(100):
            row = DHRow(*rng.uniform(-2.0, 2.0, size=4))
            t = dh_transform(row)
            expected = dh_oracle_matrix(row.theta, row.d, row.a, row.alpha)
            assert np.allclose(t.rotation, expected[:3, :3], atol=1e-12)
            assert np.allclose(t.translation, expected[:3, 3], atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(w.InvalidInputError):
            DHRow(math.nan, 0.0, 0.0, 0.0)


class TestChainForward:
    def test_matches_oracle_product(self, rng):
        for _ in range(50):
            chain = random_chain(rng)
            got = chain_forward(chain)
            expected = chain_oracle(chain_rows(chain))
            assert np.max(np.abs(got.rotation - expected[:3, :3])) <= 1e-12
            assert np.max(np.abs(got.translation - expected[:3, 3])) <= 1e-12

    def test_simple_chain_pose(self):
        chain = PivotChain(d1=0.0, theta_finger=0.0, d2=0.0, d3=1.0, d4=0.0,
                           theta_contact=0.0, theta_pivot=0.0)
        got = chain_forward(chain)
        expected = chain_oracle(chain_rows(chain))
        assert np.allclose(got.rotation, expected[:3, :3], atol=1e-12)
        assert np.allclose(got.translation, expected[:3, 3], atol=1e-12)

    def test_pivot_angle_periodicity(self, rng):
        chain = random_chain(rng)
        shifted = PivotChain(chain.d1, chain.theta_finger, chain.d2, chain.d3,
                             chain.d4, chain.theta_contact,
                             chain.theta_pivot + 2.0 * math.pi)
        a = chain_forward(chain)
        b = chain_forward(shifted)
        assert np.allclose(a.rotation, b.rotation, atol=1e-12)
        assert np.allclose(a.translation, b.translation, atol=1e-12)

    def test_last_joint_is_pure_rotation(self, rng):
        # the final step has no offsets, so the object frame origin equals the
        # pivot frame origin for any pivot angle
        chain = random_chain(rng)
        base = ee_to_pivot(chain)
        full = chain_forward(chain)
        assert np.allclose(base.translation, full.translation, atol=1e-12)


class TestPivotTrajectory:
    def test_zero_sweep_keeps_pose(self, rng):
        chain = random_chain(rng)
        for stage in (1, 2):
            wps = pivot_trajectory(chain, stage, 0.0, 10)
            assert len(wps) == 11
            first = wps[0].pose
            for wp in wps:
                assert np.allclose(wp.pose.rotation, first.rotation, atol=1e-12)
                assert np.allclose(wp.pose.translation, first.translation, atol=1e-12)

    def test_stage1_pivot_origin_and_axis_fixed(self, rng):
        for _ in range(20):
            chain = random_chain(rng)
            wps = pivot_trajectory(chain, 1, math.pi / 2.0, 10)
            assert len(wps) == 11
            recovered = [wp.pose @ ee_to_pivot(chain) for wp in wps]
            origin0 = recovered[0].translation
            axis0 = recovered[0].rotation[:, 2]
            for rec in recovered[1:]:
                assert np.linalg.norm(rec.translation - origin0) <= 1e-6
                assert np.arccos(np.clip(rec.rotation[:, 2] @ axis0, -1, 1)) <= 1e-6

    def test_stage2_pivot_frame_fixed_and_boundaries(self, rng):
        sweep = math.pi / 2.0
        for _ in range(20):
            chain = random_chain(rng)
            wps = pivot_trajectory(chain, 2, sweep, 10)
            for k, wp in enumerate(wps):
                t = k / 10.0
                stepped = PivotChain(chain.d1, chain.theta_finger, chain.d2,
                                     chain.d3, chain.d4,
                                     chain.theta_contact + sweep * t,
                                     sweep * (1.0 - t))
                recovered = wp.pose @ ee_to_pivot(stepped)
                assert np.linalg.norm(recovered.translation) <= 1e-6
                assert np.allclose(recovered.rotation, np.eye(3), atol=1e-6)
            # terminal: contact advanced by the sweep, object flat
            final = wps[-1].pose @ ee_to_pivot(
                PivotChain(chain.d1, chain.theta_finger, chain.d2, chain.d3,
                           chain.d4, chain.theta_contact + sweep, 0.0))
            assert np.linalg.norm(final.translation) <= 1e-6

    def test_continuity_bound(self, rng):
        sweep = 1.2
        steps = 24
        chain = random_chain(rng)
        for stage in (1, 2):
            wps = pivot_trajectory(chain, stage, sweep, steps)
            for a, b in zip(wps, wps[1:]):
                rel = a.pose.rotation.T @ b.pose.rotation
                angle = math.acos(min(1.0, max(-1.0, (np.trace(rel) - 1.0) / 2.0)))
                assert angle <= sweep / steps + 1e-9

    def test_waypoints_orthonormal(self, rng):
        chain = random_chain(rng)
        for wp in full_pivot_trajectory(chain, math.pi / 2.0, 15):
            r = wp.pose.rotation
            assert np.max(np.abs(r @ r.T - np.eye(3))) <= 1e-9
            assert abs(np.linalg.det(r) - 1.0) <= 1e-9

    def test_full_pivot_is_continuous(self, rng):
        chain = random_chain(rng)
        wps = full_pivot_trajectory(chain, math.pi / 2.0, 20)
        assert len(wps) == 41
        assert [wp.index for wp in wps] == list(range(41))
        for a, b in zip(wps, wps[1:]):
            assert np.linalg.norm(a.pose.translation - b.pose.translation) < 0.05

    def test_invalid_inputs(self, rng):
        chain = random_chain(rng)
        with pytest.raises(w.InvalidInputError):
            pivot_trajectory(chain, 3, 0.1, 5)
        with pytest.raises(w.InvalidInputError):
            pivot_trajectory(chain, 1, 0.1, 0)
        with pytest.raises(w.InvalidInputError):
            PivotChain(d1=-0.1, theta_finger=0.0, d2=0.0, d3=0.1, d4=0.0)


class TestContactShift:
    def test_up(self):
        assert np.allclose(contact_shift_displacement("up", 0.01), [0, 0, 0.01])

    def test_down(self):
        assert np.allclose(contact_shift_displacement("down", 0.02), [0, 0, -0.02])

    def test_inverse_pair_sums_to_zero(self):
        total = (contact_shift_displacement("up", 0.013)
                 + contact_shift_displacement("down", 0.013))
        assert np.allclose(total, np.zeros(3), atol=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(w.InvalidInputError):
            contact_shift_displacement("sideways", 0.01)
        with pytest.raises(w.InvalidInputError):
            contact_shift_displacement("up", 0.0)


class TestQuaternion:
    def test_roundtrip_against_rotation(self, rng):
        for _ in range(100):
            angle = rng.uniform(-math.pi, math.pi)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                          [-axis[1], axis[0], 0]])
            rot = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
            qw, qx, qy, qz = rotation_to_quaternion(rot)
            assert qw >= 0.0
            # rebuild and compare
            rebuilt = np.array([
                [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qz * qw), 2 * (qx * qz + qy * qw)],
                [2 * (qx * qy + qz * qw), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qx * qw)],
                [2 * (qx * qz - qy * qw), 2 * (qy * qz + qx * qw), 1 - 2 * (qx * qx + qy * qy)],
            ])
            assert np.allclose(rebuilt, rot, atol=1e-9)


def _random_walk(obj, start, resolution, rng, steps=20):
    """``steps`` primitives drawn uniformly from ``successors``, as the replay
    benchmark draws its walks."""
    actions, states = [], [start]
    for _ in range(steps):
        options = successors(states[-1], obj, resolution)
        if not options:
            break
        action, state = options[int(rng.integers(len(options)))]
        actions.append(action)
        states.append(state)
    return SimpleNamespace(actions=actions, states=states)


@pytest.fixture(scope="module")
def pivoting_plans(suite_entries):
    """(object, plan) pairs: the fixture plans that pivot, and a random walk
    from every fixture start."""
    rng = np.random.default_rng(1313)
    out = []
    for entry in suite_entries:
        obj, start, goals, resolution, cost = load_task(entry)
        if entry["name"] in ("sq_t3_caps", "rc_t2_rotate"):
            found = plan(obj, start, goals, resolution, cost)
            assert any(a.kind == ActionKind.PIVOT for a in found.actions), entry["name"]
            out.append((obj, found))
        out.append((obj, _random_walk(obj, start, resolution, rng)))
    return out


class TestPlanWaypoints:
    def test_poses_are_rotations_and_steps_are_bounded(self, pivoting_plans):
        chain = io_mod.load_chain(FIXTURES / "chain.json")
        pivots = 0
        for obj, plan_ in pivoting_plans:
            wps = plan_waypoints(plan_, obj, chain, steps_per_stage=STEPS)
            assert [wp.index for wp in wps] == list(range(len(wps)))
            for wp in wps:
                r = wp.pose.rotation
                assert np.max(np.abs(r @ r.T - np.eye(3))) <= 1e-12
                assert abs(np.linalg.det(r) - 1.0) <= 1e-12
                assert not r.flags.writeable and not wp.pose.translation.flags.writeable
            half = [a.magnitude / 2.0 for a in plan_.actions if a.kind == ActionKind.PIVOT]
            pivots += len(half)
            # Each waypoint turns the end-effector by one step of a pivot stage
            # at most, across the stage seams and between actions as well.
            bound = max(half, default=0.0) / STEPS + 1e-9
            for a, b in zip(wps, wps[1:]):
                rel = a.pose.rotation.T @ b.pose.rotation
                assert math.acos(min(1.0, max(-1.0, (np.trace(rel) - 1.0) / 2.0))) <= bound
        assert pivots >= 10

    def test_pivots_keep_the_support_edge_fixed(self, pivoting_plans, monkeypatch):
        calls = []

        def recording(chain, total_angle, steps_per_stage, world_pivot=None):
            wps = full_pivot_trajectory(chain, total_angle, steps_per_stage, world_pivot)
            calls.append((chain, total_angle, world_pivot, wps))
            return wps

        monkeypatch.setattr(kinematics, "full_pivot_trajectory", recording)
        chain = io_mod.load_chain(FIXTURES / "chain.json")
        for obj, plan_ in pivoting_plans:
            calls.clear()
            wps = plan_waypoints(plan_, obj, chain, steps_per_stage=STEPS)
            assert len(calls) == sum(a.kind == ActionKind.PIVOT for a in plan_.actions)
            affines = [wp.affine for wp in wps]
            for pivot_chain, total, anchor, pivot_wps in calls:
                start = affines.index(pivot_wps[1].affine)
                assert len(pivot_wps) == 2 * STEPS + 1
                assert all(m == wp.affine for m, wp in zip(affines[start:], pivot_wps[1:]))
                half = total / 2.0
                edge2 = anchor @ RigidTransform3.rot_z(-half)
                for k in range(STEPS + 1):
                    # stage 1: the edge origin and axis stay put
                    rec = pivot_wps[k].pose @ ee_to_pivot(pivot_chain)
                    assert np.linalg.norm(rec.translation - anchor.translation) <= 1e-6
                    assert np.max(np.abs(rec.rotation[:, 2] - anchor.rotation[:, 2])) <= 1e-6
                    # stage 2, from the seam on: the whole edge frame stays put
                    t = k / STEPS
                    stepped = PivotChain(pivot_chain.d1, pivot_chain.theta_finger,
                                         pivot_chain.d2, pivot_chain.d3, pivot_chain.d4,
                                         pivot_chain.theta_contact + half * t, half * (1.0 - t))
                    pose = pivot_wps[STEPS + k].pose
                    rec = pose @ ee_to_pivot(stepped)
                    assert np.linalg.norm(rec.translation - edge2.translation) <= 1e-6
                    assert np.max(np.abs(rec.rotation - edge2.rotation)) <= 1e-6
                    # and against the homogeneous-matrix oracle
                    expected = np.eye(4)
                    expected[:3, :3], expected[:3, 3] = edge2.rotation, edge2.translation
                    expected = expected @ np.linalg.inv(chain_oracle(chain_rows(stepped)[:4]))
                    assert np.max(np.abs(pose.rotation - expected[:3, :3])) <= 1e-12
                    assert np.max(np.abs(pose.translation - expected[:3, 3])) <= 1e-12

    def test_trajectory_csv_matches_the_pose_rendering(self, pivoting_plans, tmp_path):
        # The CSV is written from each waypoint's 12 floats; it must read as
        # it did when written from the RigidTransform3 each waypoint held.
        chain = io_mod.load_chain(FIXTURES / "chain.json")
        cases = [(obj, p) for obj, p in pivoting_plans if isinstance(p, Plan)]
        walk = next(walk for walk in workloads.ReplayWorkload(3).prepare()[0]
                    if any(a.kind == ActionKind.PIVOT for a in walk.plan.actions))
        cases.append((io_mod.load_object(walk.object_path), walk.plan))
        for obj, plan_ in cases:
            wps = plan_waypoints(plan_, obj, chain, steps_per_stage=STEPS)
            lines = ["step,x,y,z,qw,qx,qy,qz"]
            for wp in wps:
                pose = wp.pose
                assert not pose.rotation.flags.writeable and not pose.translation.flags.writeable
                assert tuple(pose.rotation.ravel().tolist() + pose.translation.tolist()) == wp.affine
                x, y, z = (float(v) for v in pose.translation)
                qw, qx, qy, qz = rotation_to_quaternion(pose.rotation)
                lines.append(f"{wp.index},{x!r},{y!r},{z!r},{qw!r},{qx!r},{qy!r},{qz!r}")
            path = tmp_path / "trajectory.csv"
            io_mod.write_trajectory_csv(wps, path)
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_stage_seam_is_continuous(self, rng):
        for _ in range(20):
            chain = random_chain(rng)
            half = float(rng.uniform(0.1, math.pi / 4.0))
            anchor = (RigidTransform3.rot_z(float(rng.uniform(-3.0, 3.0)),
                                            rng.uniform(-0.3, 0.3, size=3))
                      @ RigidTransform3.rot_x(float(rng.uniform(-3.0, 3.0))))
            end1 = pivot_trajectory(chain, 1, half, STEPS, anchor)[-1].pose
            start2 = pivot_trajectory(chain, 2, half, STEPS,
                                      anchor @ RigidTransform3.rot_z(-half))[0].pose
            assert np.max(np.abs(end1.rotation - start2.rotation)) <= 1e-12
            assert np.max(np.abs(end1.translation - start2.translation)) <= 1e-12

    def test_a_pivot_where_the_mode_has_none_is_rejected(self, hex_prism):
        # A standing hexagonal prism has no support edge along the squeeze axis.
        left, right = hex_prism.parallel_pairs[0]
        centres = [hex_prism.face(f).polygon.vertices.mean(axis=0) for f in (left, right)]
        s = w.GraspState.create(hex_prism, left, right, hex_prism.lateral_count, *centres,
                                0.02, 0.02)
        plan_ = SimpleNamespace(actions=[Action(ActionKind.PIVOT, math.pi / 2.0)], states=[s, s])
        chain = io_mod.load_chain(FIXTURES / "chain.json")
        with pytest.raises(w.WihmplanError, match="pivot that is infeasible in its state"):
            plan_waypoints(plan_, hex_prism, chain)
