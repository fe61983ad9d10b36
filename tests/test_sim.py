"""Simulator stepping rules, grasping, pushing, and the camera model."""

import collections
import functools
import gc
import itertools
import json
import math
import pickle
import struct
import weakref
from dataclasses import replace

import numpy as np
import pytest

import failsafe.sim
from failsafe.config import TASKS, Config, default_config
from failsafe.dataset import _frame_from_record, _frame_record
from failsafe.errors import InvalidCommandError, SceneError
from failsafe.geometry import (
    IDENTITY_QUAT,
    Pose,
    angle_between,
    norm,
    pose_distance,
    quat_about_axis,
    quat_conjugate,
    quat_multiply,
    quat_rotate,
    slerp,
)
from failsafe.sim import (
    CAMERA_IDS,
    DOWN,
    LOOK_AT,
    GraspOffset,
    ObjectState,
    ObservationFrame,
    Simulator,
    WorldState,
    _segment_point_distance,
    _with_pose,
    attached_object_pose,
)
from failsafe.tasks import plan_task, rollout_plan

CUBE_HALF = (0.02, 0.02, 0.02)


def make_world(ee=None, objects=None, goal=None):
    if ee is None:
        ee = Pose(np.array([0.0, 0.0, 0.2]), IDENTITY_QUAT, 1.0)
    return WorldState(ee_pose=ee, placed=objects or {}, goal=goal)


def holding(world, obj_id):
    """world with obj_id held where it is, grasped as the stepper grasps."""
    ee, obj = world.ee_pose, world.placed[obj_id]
    inv = quat_conjugate(ee.orientation)
    offset = GraspOffset(
        quat_rotate(inv, obj.pose.position - ee.position),
        quat_multiply(inv, obj.pose.orientation),
    )
    return replace(world, attached=obj_id, grasp_offset=offset)


def cube_at(x, y, z=0.02, **kw):
    return ObjectState(
        shape="box",
        half_extents=CUBE_HALF,
        pose=Pose(np.array([x, y, z]), IDENTITY_QUAT, 0.0),
        **kw,
    )


def pose(x, y, z, quat=None, grip=1.0):
    return Pose(np.array([x, y, z]), IDENTITY_QUAT if quat is None else quat, grip)


@pytest.fixture
def sim():
    return Simulator(Config())


def camera_axes(sim, world):
    """(position, forward, right, down) of each camera, built from the config."""
    axes = []
    for position in (sim.config.front_camera, sim.config.side_camera):
        pos = np.asarray(position, dtype=float)
        forward = LOOK_AT - pos
        forward = forward / np.linalg.norm(forward)
        right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
        right = right / np.linalg.norm(right)
        axes.append((pos, forward, right, np.cross(forward, right)))
    ee = world.ee_pose
    forward = quat_rotate(ee.orientation, np.array([0.0, 0.0, -1.0]))
    right = quat_rotate(ee.orientation, np.array([1.0, 0.0, 0.0]))
    axes.append((ee.position, forward, right, np.cross(forward, right)))
    return axes


def loop_keypoints(world):
    """Reference keypoints: each box corner rotated on its own, in product order,
    which the broadcast over all eight corners must match bit for bit."""
    pts = [("ee:center", world.ee_pose.position)]
    for obj_id in sorted(world.objects):
        obj = world.objects[obj_id]
        pts.append((f"{obj_id}:center", obj.pose.position))
        if obj.shape == "box":
            hx, hy, hz = obj.half_extents
            for i, (sx, sy, sz) in enumerate(itertools.product((-1, 1), repeat=3)):
                corner = obj.pose.position + quat_rotate(
                    obj.pose.orientation, np.array([sx * hx, sy * hy, sz * hz])
                )
                pts.append((f"{obj_id}:corner{i}", corner))
    return pts


def eager_cameras(sim, world):
    """Reference projection of every camera: a loop with one np.dot per
    keypoint and camera axis, which the one-pass product must match bit for bit."""
    cfg = sim.config
    keypoints = loop_keypoints(world)
    cameras = {}
    for cam, (pos, forward, right, down) in zip(CAMERA_IDS, camera_axes(sim, world)):
        cameras[cam] = []
        for kp_id, point in keypoints:
            rel = point - pos
            z = float(np.dot(rel, forward))
            if z <= 1e-9:
                continue
            u = cfg.image_width / 2.0 + cfg.focal_px * float(np.dot(rel, right)) / z
            v = cfg.image_height / 2.0 + cfg.focal_px * float(np.dot(rel, down)) / z
            cameras[cam].append((kp_id, u, v))
    return cameras


def count_projections(monkeypatch):
    """A list that grows by one per camera projected."""
    projected = []
    project = Simulator._project_all
    monkeypatch.setattr(
        Simulator, "_project_all", lambda self, *a: projected.append(1) or project(self, *a)
    )
    return projected


def count_parts(monkeypatch):
    """A Counter of the frame parts made, by part name."""
    made = collections.Counter()
    for name in ("ee_pose", "object_poses", "cameras"):
        make = vars(ObservationFrame)[name].func
        part = functools.cached_property(lambda self, n=name, f=make: made.update([n]) or f(self))
        part.__set_name__(ObservationFrame, name)
        monkeypatch.setattr(ObservationFrame, name, part)
    return made


def count_placements(monkeypatch):
    """A list that grows by one per held object placed."""
    placed = []
    place = failsafe.sim.attached_object_pose
    monkeypatch.setattr(
        failsafe.sim, "attached_object_pose", lambda *a: placed.append(1) or place(*a)
    )
    return placed


class TestStepping:
    def test_holding_position_changes_nothing(self, sim):
        world = make_world(
            ee=pose(0.05, -0.02, 0.12, grip=0.4), objects={"cube": cube_at(0.1, 0.1)}
        )
        after = sim.step(world, world.ee_pose)
        assert np.array_equal(after.ee_pose.position, world.ee_pose.position)
        assert np.array_equal(after.ee_pose.orientation, world.ee_pose.orientation)
        assert after.ee_pose.gripper == world.ee_pose.gripper
        assert after.objects == world.objects and after.attached is None

    def test_position_moves_at_cap_toward_far_target(self, sim):
        world = make_world(ee=pose(0.0, 0.0, 0.2))
        after = sim.step(world, pose(0.1, 0.0, 0.2))
        assert after.ee_pose.position == pytest.approx([0.01, 0.0, 0.2])

    def test_position_lands_exactly_within_cap(self, sim):
        world = make_world(ee=pose(0.0, 0.0, 0.2))
        target = pose(0.004, -0.003, 0.2)
        after = sim.step(world, target)
        assert np.array_equal(after.ee_pose.position, target.position)

    def test_rotation_capped_then_exact(self, sim):
        world = make_world()
        target = pose(0.0, 0.0, 0.2, quat=quat_about_axis(2, 0.25))
        mid = sim.step(world, target)
        _, ang = pose_distance(world.ee_pose, mid.ee_pose)
        assert ang == pytest.approx(0.1, abs=1e-9)
        done = sim.step(sim.step(mid, target), target)
        assert np.array_equal(done.ee_pose.orientation, target.orientation)

    def test_gripper_rate_limited(self, sim):
        world = make_world(ee=pose(0.0, 0.0, 0.2, grip=1.0))
        after = sim.step(world, pose(0.0, 0.0, 0.2, grip=0.0))
        assert after.ee_pose.gripper == pytest.approx(0.8)
        after2 = sim.step(after, pose(0.0, 0.0, 0.2, grip=0.7))
        assert after2.ee_pose.gripper == pytest.approx(0.7)

    def test_workspace_clamp(self, sim):
        world = make_world(ee=pose(0.29, 0.0, 0.2))
        for _ in range(5):
            world = sim.step(world, pose(0.5, 0.0, 0.2))
        assert world.ee_pose.position[0] == pytest.approx(0.3)

    def test_non_finite_command_rejected(self, sim):
        world = make_world()
        bad = Pose(np.array([0.0, 0.0, 0.2]), IDENTITY_QUAT, 1.0)
        bad.position[0] = math.nan
        with pytest.raises(InvalidCommandError):
            sim.step(world, bad)

    @pytest.mark.parametrize(
        "field, index", [("orientation", 0), ("orientation", 3), ("gripper", None)]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_orientation_or_gripper_rejected(self, sim, field, index, value):
        bad = pose(0.0, 0.0, 0.2)
        if index is None:
            bad.gripper = value
        else:
            getattr(bad, field)[index] = value
        with pytest.raises(InvalidCommandError):
            sim.step(make_world(), bad)

    def test_drive_to_on_target_up_to_signed_zeros_takes_no_step(self, sim):
        world = make_world(ee=Pose(np.array([0.0, -0.0, 0.2]), [1.0, 0.0, -0.0, 0.0], 0.5))
        target = Pose(np.array([-0.0, 0.0, 0.2]), [1.0, -0.0, 0.0, -0.0], 0.5)
        assert sim.drive_to(world, target, max_steps=5) == ([], True)

    def test_drive_to_lands_exactly_then_stops(self, sim):
        world = make_world(ee=pose(0.0, 0.0, 0.2))
        target = pose(0.035, 0.0, 0.2, quat=quat_about_axis(2, 0.3), grip=0.5)
        worlds, arrived = sim.drive_to(world, target, max_steps=50)
        assert arrived and 0 < len(worlds) < 50
        last = worlds[-1].ee_pose
        assert last.position.tobytes() == target.position.tobytes()
        assert last.orientation.tobytes() == target.orientation.tobytes()
        assert last.gripper == target.gripper
        assert sim.drive_to(worlds[-1], target, max_steps=50) == ([], True)
        capped, arrived = sim.drive_to(world, target, max_steps=2)
        assert not arrived and len(capped) == 2

    def test_speed_cap_property(self, sim):
        rng = np.random.default_rng(0)
        world = make_world()
        cfg = sim.config
        for _ in range(200):
            target = Pose(
                rng.uniform(-0.3, 0.3, 3).clip(
                    np.array(cfg.workspace_min), np.array(cfg.workspace_max)
                ),
                quat_about_axis(int(rng.integers(3)), rng.uniform(-np.pi, np.pi)),
                float(rng.uniform(0, 1)),
            )
            before = world.ee_pose
            world = sim.step(world, target)
            after = world.ee_pose
            assert np.linalg.norm(after.position - before.position) <= cfg.max_ee_speed + 1e-12
            _, ang = pose_distance(before, after)
            assert ang <= cfg.max_ee_angular + 1e-9
            assert abs(after.gripper - before.gripper) <= cfg.max_gripper_rate + 1e-12

    def test_step_is_deterministic(self, sim):
        world = make_world(objects={"cube": cube_at(0.0, 0.0)})
        target = pose(0.002, 0.001, 0.19, grip=0.5)
        a = sim.step(world, target)
        b = sim.step(world, target)
        assert np.array_equal(a.ee_pose.position, b.ee_pose.position)
        assert np.array_equal(a.ee_pose.orientation, b.ee_pose.orientation)
        assert a.ee_pose.gripper == b.ee_pose.gripper


class TestGrasping:
    def test_attach_ride_release_cycle(self, sim):
        world = make_world(
            ee=pose(0.0, 0.0, 0.028, grip=0.4),
            objects={"cube": cube_at(0.0, 0.0)},
        )
        # Close the gripper in place: 0.4 -> 0.2 crosses the 0.35 threshold.
        world = sim.step(world, pose(0.0, 0.0, 0.028, grip=0.2))
        assert world.attached == "cube"

        # The object rides the EE rigidly.
        world = sim.step(world, pose(0.0, 0.0, 0.1, grip=0.2))
        assert world.objects["cube"].pose.position[2] == pytest.approx(0.038 - 0.008)
        expected = attached_object_pose(world.ee_pose, world.grasp_offset)
        assert np.array_equal(world.objects["cube"].pose.position, expected.position)

        # Opening past the release threshold lets go in place. The gripper
        # rate cap means 0.2 -> 0.8 needs three steps; 0.8 crosses 0.65.
        for _ in range(3):
            world = sim.step(world, pose(0.0, 0.0, 0.1, grip=1.0))
        before = world.objects["cube"].pose.position.copy()
        assert world.attached is None
        world = sim.step(world, pose(0.0, 0.0, 0.2, grip=1.0))
        assert np.array_equal(world.objects["cube"].pose.position, before)

    def test_open_gripper_never_attaches(self, sim):
        world = make_world(
            ee=pose(0.0, 0.0, 0.028, grip=1.0),
            objects={"cube": cube_at(0.0, 0.0)},
        )
        world = sim.step(world, pose(0.0, 0.0, 0.028, grip=1.0))
        assert world.attached is None

    def test_out_of_radius_never_attaches(self, sim):
        world = make_world(
            ee=pose(0.0, 0.0, 0.05, grip=0.2),
            objects={"cube": cube_at(0.0, 0.0)},
        )
        world = sim.step(world, pose(0.0, 0.0, 0.05, grip=0.2))
        assert world.attached is None

    def test_misaligned_tool_never_attaches(self, sim):
        tilted = quat_about_axis(0, 0.6)  # past the 0.5 rad alignment gate
        world = make_world(
            ee=pose(0.0, 0.0, 0.028, quat=tilted, grip=0.2),
            objects={"cube": cube_at(0.0, 0.0)},
        )
        world = sim.step(world, pose(0.0, 0.0, 0.028, quat=tilted, grip=0.2))
        assert world.attached is None

    def test_slightly_tilted_tool_attaches(self, sim):
        tilted = quat_about_axis(0, 0.3)
        world = make_world(
            ee=pose(0.0, 0.0, 0.028, quat=tilted, grip=0.2),
            objects={"cube": cube_at(0.0, 0.0)},
        )
        world = sim.step(world, pose(0.0, 0.0, 0.028, quat=tilted, grip=0.2))
        assert world.attached == "cube"

    def test_nearest_object_wins(self, sim):
        world = make_world(
            ee=pose(0.0, 0.0, 0.024, grip=0.2),
            objects={
                "far": cube_at(0.0, 0.008, 0.02),
                "near": cube_at(0.0, 0.0, 0.02),
            },
        )
        world = sim.step(world, pose(0.0, 0.0, 0.024, grip=0.2))
        assert world.attached == "near"

    def test_non_graspable_ignored(self, sim):
        world = make_world(
            ee=pose(0.0, 0.0, 0.028, grip=0.2),
            objects={"pad": cube_at(0.0, 0.0, movable=False)},
        )
        world = sim.step(world, pose(0.0, 0.0, 0.028, grip=0.2))
        assert world.attached is None

    def test_attachment_consistency_random_walk(self, sim):
        rng = np.random.default_rng(7)
        world = make_world(
            ee=pose(0.0, 0.0, 0.028, grip=0.4),
            objects={"cube": cube_at(0.0, 0.0)},
        )
        world = sim.step(world, pose(0.0, 0.0, 0.028, grip=0.2))
        assert world.attached == "cube"
        for _ in range(50):
            target = Pose(
                world.ee_pose.position + rng.uniform(-0.02, 0.02, 3),
                quat_about_axis(int(rng.integers(3)), rng.uniform(-0.2, 0.2)),
                0.2,
            )
            world = sim.step(world, target)
            assert world.attached == "cube"
            expected = attached_object_pose(world.ee_pose, world.grasp_offset)
            assert np.array_equal(world.objects["cube"].pose.position, expected.position)
            assert np.array_equal(
                world.objects["cube"].pose.orientation, expected.orientation
            )


class TestPushing:
    def test_sweep_within_contact_radius_pushes(self, sim):
        world = make_world(
            ee=pose(-0.03, 0.0, 0.02, grip=0.0),
            objects={"cube": cube_at(0.0, 0.0)},
        )
        world = sim.step(world, pose(0.1, 0.0, 0.02, grip=0.0))
        # EE swept -0.03 -> -0.02; closest approach 0.02 <= 0.025.
        assert world.objects["cube"].pose.position[0] == pytest.approx(0.01)
        assert world.objects["cube"].pose.position[2] == pytest.approx(0.02)

    def test_push_copies_horizontal_displacement_only(self, sim):
        world = make_world(
            ee=pose(-0.02, 0.0, 0.03, grip=0.0),
            objects={"cube": cube_at(0.0, 0.0)},
        )
        target = pose(-0.02 + 0.006, 0.0, 0.03 - 0.008, grip=0.0)
        world = sim.step(world, target)
        moved = world.objects["cube"].pose.position
        assert moved[0] == pytest.approx(0.006)
        assert moved[1] == pytest.approx(0.0)
        assert moved[2] == pytest.approx(0.02)

    def test_distant_sweep_does_not_push(self, sim):
        world = make_world(
            ee=pose(-0.1, 0.0, 0.02, grip=0.0),
            objects={"cube": cube_at(0.0, 0.0)},
        )
        world = sim.step(world, pose(0.1, 0.0, 0.02, grip=0.0))
        assert np.array_equal(world.objects["cube"].pose.position, [0.0, 0.0, 0.02])

    def test_non_pushable_stays(self, sim):
        world = make_world(
            ee=pose(-0.03, 0.0, 0.02, grip=0.0),
            objects={"pad": cube_at(0.0, 0.0, movable=False)},
        )
        world = sim.step(world, pose(0.1, 0.0, 0.02, grip=0.0))
        assert np.array_equal(world.objects["pad"].pose.position, [0.0, 0.0, 0.02])

    def test_no_pushing_while_attached(self, sim):
        world = make_world(
            ee=pose(0.0, 0.0, 0.028, grip=0.4),
            objects={
                "cube": cube_at(0.0, 0.0),
                "bystander": cube_at(0.03, 0.0),
            },
        )
        world = sim.step(world, pose(0.0, 0.0, 0.028, grip=0.2))
        assert world.attached == "cube"
        world = sim.step(world, pose(0.05, 0.0, 0.028, grip=0.2))
        assert np.array_equal(
            world.objects["bystander"].pose.position, [0.03, 0.0, 0.02]
        )


class TestSuccessPredicates:
    def test_pick_requires_attachment_and_height(self, sim):
        lifted = cube_at(0.0, 0.0, 0.07)
        attached = holding(make_world(objects={"cube": lifted}), "cube")
        assert attached.objects["cube"].pose.position[2] == pytest.approx(0.07)
        assert sim.evaluate_success(attached, "pick_cube")
        low = holding(make_world(objects={"cube": cube_at(0.0, 0.0, 0.05)}), "cube")
        assert not sim.evaluate_success(low, "pick_cube")
        dropped = make_world(objects={"cube": lifted})
        assert not sim.evaluate_success(dropped, "pick_cube")

    def test_push_goal_radius(self, sim):
        world = make_world(objects={"cube": cube_at(0.1, 0.0)}, goal=(0.12, 0.0))
        assert sim.evaluate_success(world, "push_cube")
        world = make_world(objects={"cube": cube_at(0.08, 0.0)}, goal=(0.12, 0.0))
        assert not sim.evaluate_success(world, "push_cube")

    def test_push_without_goal_raises(self, sim):
        world = make_world(objects={"cube": cube_at(0.0, 0.0)})
        with pytest.raises(SceneError, match="goal"):
            sim.evaluate_success(world, "push_cube")

    def test_stack_tolerances(self, sim):
        def stacked(dx, dz, attached=None):
            world = make_world(
                objects={
                    "cube_a": cube_at(0.1 + dx, 0.0, 0.06 + dz),
                    "cube_b": cube_at(0.1, 0.0, 0.02),
                },
            )
            return world if attached is None else holding(world, attached)

        assert sim.evaluate_success(stacked(0.0, 0.0), "stack_cube")
        assert sim.evaluate_success(stacked(0.004, 0.004), "stack_cube")
        assert not sim.evaluate_success(stacked(0.006, 0.0), "stack_cube")
        assert not sim.evaluate_success(stacked(0.0, 0.006), "stack_cube")
        assert not sim.evaluate_success(stacked(0.0, 0.0, attached="cube_a"), "stack_cube")

    def test_missing_object_raises(self, sim):
        with pytest.raises(SceneError, match="cube"):
            sim.evaluate_success(make_world(), "pick_cube")

    def test_unknown_task_raises(self, sim):
        with pytest.raises(SceneError, match="juggle"):
            sim.evaluate_success(make_world(), "juggle")


class TestObservation:
    def test_point_on_front_camera_axis_hits_principal_point(self, sim):
        world = make_world(ee=Pose(np.array([0.0, 0.0, 0.05]), IDENTITY_QUAT, 1.0))
        frame = sim.observe(world, 0)
        kp = dict((k, (u, v)) for k, u, v in frame.cameras["front"])
        assert kp["ee:center"][0] == pytest.approx(320.0)
        assert kp["ee:center"][1] == pytest.approx(240.0)

    def test_hand_camera_pixel_arithmetic(self, sim):
        # Lateral 0.1 m at 0.5 m depth under f=500 is a 100 px offset.
        world = make_world(
            ee=Pose(np.array([0.0, 0.0, 0.52]), IDENTITY_QUAT, 1.0),
            objects={"cube": cube_at(0.1, 0.0)},
        )
        frame = sim.observe(world, 0)
        kp = dict((k, (u, v)) for k, u, v in frame.cameras["hand"])
        u, v = kp["cube:center"]
        assert u == pytest.approx(420.0)
        assert v == pytest.approx(240.0)

    def test_points_behind_camera_are_absent(self, sim):
        world = make_world(
            ee=Pose(np.array([0.0, 0.0, 0.1]), IDENTITY_QUAT, 1.0),
            objects={"cube": cube_at(0.0, 0.0, 0.3)},  # above the hand camera
        )
        frame = sim.observe(world, 0)
        hand_ids = [k for k, _, _ in frame.cameras["hand"]]
        assert "cube:center" not in hand_ids
        front_ids = [k for k, _, _ in frame.cameras["front"]]
        assert "cube:center" in front_ids

    def test_box_contributes_center_and_eight_corners(self, sim):
        world = make_world(objects={"cube": cube_at(0.0, 0.0)})
        frame = sim.observe(world, 0)
        ids = [k for k, _, _ in frame.cameras["front"]]
        assert len([k for k in ids if k.startswith("cube:corner")]) == 8
        assert "cube:center" in ids and "ee:center" in ids

    def test_sphere_has_no_corners(self, sim):
        world = make_world(
            objects={
                "sphere": ObjectState(
                    shape="sphere",
                    half_extents=(0.02,) * 3,
                    pose=pose(0.0, 0.0, 0.02, grip=0.0),
                )
            }
        )
        frame = sim.observe(world, 0)
        ids = [k for k, _, _ in frame.cameras["front"]]
        assert ids == ["ee:center", "sphere:center"]

    def test_observation_reports_step_count(self, sim):
        world = make_world(objects={"cube": cube_at(0.0, 0.0)})
        world = sim.step(world, pose(0.0, 0.0, 0.19))
        early, late = sim.observe(world, 1), sim.observe(world, 5)
        assert (early.step, late.step) == (1, 5)
        assert early.ee_pose.key() == late.ee_pose.key() and early.cameras == late.cameras

    @pytest.mark.parametrize("task_id", sorted(TASKS))
    def test_keypoints_equal_per_corner_loop(self, sim, task_id):
        plan, world = plan_task(task_id, 0, Config())
        for w in rollout_plan(plan, world, sim).worlds:
            (ids, points), want = sim._keypoints(w), loop_keypoints(w)
            assert ids == [k for k, _ in want] and points.shape == (len(want), 3)
            assert all(a.tobytes() == b.tobytes() for a, (_, b) in zip(points, want))
            # The one array is the array the per-camera projection used to build.
            assert points.tobytes() == np.array([b for _, b in want]).tobytes()

    def test_moved_objects_get_fresh_keypoints(self, sim):
        """Keypoints are kept per object state: a resting object keeps its state and its
        keypoints; a pushed or carried one is a new state whose keypoints follow its pose."""

        def assert_current(world):
            ids, points = sim._keypoints(world)
            want = loop_keypoints(world)
            assert ids == [k for k, _ in want]
            assert points.tobytes() == np.array([p for _, p in want]).tobytes()

        tilted = Pose(np.array([0.2, 0.2, 0.02]), quat_about_axis(2, 0.3), 0.0)
        world = make_world(
            ee=pose(-0.03, 0.0, 0.02, grip=0.0),
            objects={"cube": cube_at(0.0, 0.0), "far": replace(cube_at(0, 0), pose=tilted)},
        )
        assert_current(world)  # every state's keypoints are now computed
        pushed = sim.step(world, pose(0.1, 0.0, 0.02, grip=0.0))
        assert pushed.objects["cube"].pose.position[0] != world.objects["cube"].pose.position[0]
        assert pushed.objects["far"] is world.objects["far"]
        assert_current(pushed)

        world = make_world(ee=pose(0.0, 0.0, 0.028, grip=0.4), objects={"cube": cube_at(0, 0)})
        assert_current(world)
        held = sim.step(world, pose(0.0, 0.0, 0.028, grip=0.2))
        assert held.attached == "cube"
        assert_current(held)
        carried = sim.step(held, pose(0.0, 0.0, 0.1, grip=0.2))
        assert carried.objects["cube"].pose.position[2] > held.objects["cube"].pose.position[2]
        assert_current(carried)

    @pytest.mark.parametrize("task_id", sorted(TASKS))
    def test_lazy_cameras_equal_eager_projection(self, sim, task_id):
        plan, world = plan_task(task_id, 0, Config())
        for w in rollout_plan(plan, world, sim).worlds:
            assert sim.observe(w, 0).cameras == eager_cameras(sim, w)

    def test_hand_camera_equals_numpy_cross_basis(self, sim):
        """The hand basis is built on Python floats; it must give the bytes
        of np.cross and np.stack, and so the same projections."""
        rng = np.random.default_rng(3)
        objects = {"cube": cube_at(0.05, -0.03), "far": cube_at(-0.1, 0.12, 0.3)}
        for _ in range(1000):
            ee = Pose(rng.uniform(-0.3, 0.3, size=3), rng.normal(size=4), 1.0)
            forward = quat_rotate(ee.orientation, np.array([0.0, 0.0, -1.0]))
            right = quat_rotate(ee.orientation, np.array([1.0, 0.0, 0.0]))
            old = np.stack([forward, right, np.cross(forward, right)]).T
            pos, basis = sim._hand_camera(ee)
            assert pos.tobytes() == ee.position.tobytes()
            assert basis.tobytes() == old.tobytes() and basis.strides == old.strides
            world = make_world(ee=ee, objects=objects)
            ids, points = sim._keypoints(world)
            want = {
                "front": sim._project_all(sim._front, ids, points),
                "side": sim._project_all(sim._side, ids, points),
                "hand": sim._project_all((ee.position.copy(), old), ids, points),
            }
            assert sim._project_cameras(world) == want

    def test_cameras_projected_on_first_read_only(self, sim, monkeypatch):
        projected = count_projections(monkeypatch)
        world = make_world(objects={"cube": cube_at(0.05, 0.0)})
        copy = sim.observe(world, 7)
        assert projected == []
        assert copy.step == 7 and copy.cameras == eager_cameras(sim, world)
        assert len(projected) == len(CAMERA_IDS)
        assert copy.cameras is copy.cameras and len(projected) == len(CAMERA_IDS)

    def test_observe_makes_no_part(self, sim, monkeypatch):
        made = count_parts(monkeypatch)
        placed = count_placements(monkeypatch)
        scene = make_world(ee=pose(0.0, 0.0, 0.028), objects={"cube": cube_at(0, 0)})
        world = holding(scene, "cube")
        frame = sim.observe(world, 5)
        assert frame.step == 5
        assert made == {} and placed == []  # no pose copied, no projection, nothing placed

    def test_each_part_made_once_on_first_read(self, sim, monkeypatch):
        made = count_parts(monkeypatch)
        placed = count_placements(monkeypatch)
        scene = make_world(ee=pose(0.0, 0.0, 0.028), objects={"cube": cube_at(0, 0)})
        world = holding(scene, "cube")
        frame = sim.observe(world, 0)
        assert frame.ee_pose.key() == world.ee_pose.key() and frame.ee_pose is not world.ee_pose
        assert made == {"ee_pose": 1} and placed == []  # the held object is placed only if read
        poses = frame.object_poses
        assert {k: p.key() for k, p in poses.items()} == {"cube": world.objects["cube"].pose.key()}
        assert made == {"ee_pose": 1, "object_poses": 1} and len(placed) == 1
        assert frame.cameras == eager_cameras(sim, world)
        for _ in range(2):
            assert frame.object_poses is poses and frame.cameras is frame.cameras
            frame.ee_pose
        assert made == {"ee_pose": 1, "object_poses": 1, "cameras": 1} and len(placed) == 1

    def test_projected_frame_lets_go_of_its_world(self, sim):
        world = make_world(objects={"cube": cube_at(0.05, 0.0)})
        frame, alive = sim.observe(world, 0), weakref.ref(world)
        del world
        for read in ("cameras", "ee_pose", "object_poses"):
            gc.collect()
            assert alive() is not None  # an unmade part still needs it
            getattr(frame, read)
        gc.collect()
        assert alive() is None

    def test_pickle_carries_the_view_and_makes_no_part(self, sim, monkeypatch):
        made = count_parts(monkeypatch)
        projected = count_projections(monkeypatch)
        world = make_world(objects={"cube": cube_at(0.05, 0.0)})
        frame = sim.observe(world, 3)
        copy = pickle.loads(pickle.dumps(frame))
        assert made == {} and projected == []  # pickling made no part
        alive = weakref.ref(copy._world)
        for n, read in enumerate(("cameras", "ee_pose", "object_poses"), start=1):
            gc.collect()
            assert alive() is not None  # an unmade part still needs it
            getattr(copy, read)
            assert sum(made.values()) == n and made[read] == 1
        gc.collect()
        assert alive() is None and copy.step == 3
        assert len(projected) == len(CAMERA_IDS) and copy.cameras == eager_cameras(sim, world)
        assert _frame_record(copy) == _frame_record(frame)

    def test_read_back_frame_equals_the_observed_one(self, sim):
        world = make_world(objects={"cube": cube_at(0.05, 0.0), "block": cube_at(-0.1, 0.1)})
        frame = sim.observe(world, 4)
        record = json.loads(json.dumps(_frame_record(frame)))
        read = _frame_record(_frame_from_record(record, "frame"))
        assert read == _frame_record(frame)
        assert read != _frame_record(sim.observe(world, 5))
        other = make_world(objects={"cube": cube_at(0.05, 0.0)})
        assert read != _frame_record(sim.observe(other, 4))


class ReferenceSimulator(Simulator):
    """The stepper before it skipped work whose result is already determined: every
    carried object placed each step, every push and grasp distance computed exactly,
    every command clamped and the tool axis dotted with DOWN. Copied verbatim; its
    `placed` map is the whole scene, the held object placed."""

    def step(self, world: WorldState, target: Pose) -> WorldState:
        cfg = self.config
        command = [*target.position.tolist(), *target.orientation.tolist(), target.gripper]
        if not all(map(math.isfinite, command)):
            raise InvalidCommandError("non-finite command target")

        goal_pos = self.clamp_position(target.position)

        ee = world.ee_pose
        delta = goal_pos - ee.position
        dist = norm(delta)
        if dist <= cfg.max_ee_speed:
            new_pos = goal_pos
        else:
            new_pos = ee.position + delta * (cfg.max_ee_speed / dist)

        ang = angle_between(ee, target)
        if ang <= cfg.max_ee_angular:
            new_quat = target.orientation  # Pose.trusted's divide makes the copy
        else:
            new_quat = slerp(ee.orientation, target.orientation, cfg.max_ee_angular / ang)

        dg = target.gripper - ee.gripper
        if abs(dg) <= cfg.max_gripper_rate:
            new_grip = target.gripper
        else:
            new_grip = ee.gripper + math.copysign(cfg.max_gripper_rate, dg)

        new_ee = Pose.trusted(new_pos, new_quat, new_grip)
        objects = dict(world.objects)
        attached = world.attached
        offset = world.grasp_offset

        if attached is not None:
            if new_grip >= cfg.release_threshold:
                # Object is let go where it currently is.
                attached = None
                offset = None
            else:
                obj = objects[attached]
                objects[attached] = _with_pose(obj, attached_object_pose(new_ee, offset))
        else:
            sweep_x, sweep_y, _ = (new_pos - ee.position).tolist()
            if sweep_x != 0.0 or sweep_y != 0.0:
                horizontal = np.array([sweep_x, sweep_y, 0.0])
                for obj_id in sorted(objects):
                    obj = objects[obj_id]
                    if not obj.movable:
                        continue
                    p = obj.pose
                    gap = _segment_point_distance(ee.position, new_pos, p.position)
                    if gap <= cfg.contact_radius:
                        moved = Pose.trusted(p.position + horizontal, p.orientation, p.gripper)
                        objects[obj_id] = _with_pose(obj, moved)
            if new_grip <= cfg.grasp_threshold and self._tool_aligned(new_ee):
                attached, offset = self._try_attach(new_ee, objects)

        return WorldState(new_ee, objects, attached, offset, world.goal)

    def clamp_position(self, position) -> np.ndarray:
        """Where a commanded position actually lands: inside the workspace."""
        return np.minimum(np.maximum(position, self._workspace_min), self._workspace_max)

    def _tool_aligned(self, ee: Pose) -> bool:
        axis = quat_rotate(ee.orientation, DOWN)
        cos_angle = min(1.0, max(-1.0, float(np.dot(axis, DOWN))))
        return math.acos(cos_angle) <= self.config.grasp_align_tol

    def _try_attach(self, ee: Pose, objects: dict):
        best_id = None
        best_dist = math.inf
        for obj_id in sorted(objects):
            obj = objects[obj_id]
            if not obj.movable:
                continue
            d = norm(obj.pose.position - ee.position)
            if d > self.config.grasp_radius:
                continue
            if d < best_dist:  # ties keep the first id in sorted order
                best_id = obj_id
                best_dist = d
        if best_id is None:
            return None, None
        obj = objects[best_id]
        inv = quat_conjugate(ee.orientation)
        offset = GraspOffset(
            position=quat_rotate(inv, obj.pose.position - ee.position),
            orientation=quat_multiply(inv, obj.pose.orientation),
        )
        objects[best_id] = _with_pose(obj, attached_object_pose(ee, offset))
        return best_id, offset


def pose_bits(p: Pose) -> tuple:
    return p.position.tobytes(), p.orientation.tobytes(), struct.pack("<d", p.gripper)


def world_bits(world: WorldState, objects: dict) -> tuple:
    """Every bit of a stepped world a reader sees: EE, attachment, offset, object poses."""
    offset = world.grasp_offset
    return (
        pose_bits(world.ee_pose),
        world.attached,
        offset and (offset.position.tobytes(), offset.orientation.tobytes()),
        {obj_id: pose_bits(obj.pose) for obj_id, obj in objects.items()},
        world.goal,
    )


def assert_steps_as_reference(sim, reference, world, command):
    want = reference.step(world, command)
    got = sim.step(world, command)
    assert world_bits(got, got.objects) == world_bits(want, want.placed)
    return got


class TestReferenceStep:
    """The stepper skips only work whose result is already determined: its next worlds
    are the reference stepper's, bit for bit."""

    @pytest.fixture
    def reference(self):
        return ReferenceSimulator(Config())

    def test_every_step_of_the_generate_funnel(self, sim, reference, tmp_path, monkeypatch):
        from failsafe.cli import cli_main

        pairs, step = [], Simulator.step
        monkeypatch.setattr(
            Simulator, "step", lambda self, w, c: pairs.append((w, c)) or step(self, w, c)
        )
        argv = ["generate", "--task", "all", "--seeds", "0..2", "--jobs", "1", "--out"]
        assert cli_main([*argv, str(tmp_path)]) == 0
        monkeypatch.undo()
        assert len(pairs) > 9000
        for world, command in pairs:
            assert_steps_as_reference(sim, reference, world, command)

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("bound", ["workspace_min", "workspace_max"])
    def test_command_on_a_workspace_bound(self, sim, reference, axis, bound):
        for ee_z in (0.05, 0.2):
            position = np.array([0.01, -0.02, ee_z])
            position[axis] = getattr(sim.config, bound)[axis]
            world = make_world(ee=pose(*(position * 0.99).tolist()))
            assert_steps_as_reference(sim, reference, world, Pose(position, IDENTITY_QUAT, 0.5))
            world = make_world(ee=pose(*position.tolist()))
            assert_steps_as_reference(sim, reference, world, Pose(position, IDENTITY_QUAT, 0.5))

    @pytest.mark.parametrize("bound", ["workspace_min", "workspace_max"])
    def test_signed_zero_on_a_zero_bound(self, bound):
        cfg = Config()
        limits = list(getattr(cfg.sim, bound))
        limits[0] = 0.0
        cfg = replace(cfg, sim=replace(cfg.sim, **{bound: tuple(limits)}))
        sim, reference = Simulator(cfg), ReferenceSimulator(cfg)
        for x in (0.0, -0.0):
            for ee_x in (0.0, -0.0, 0.004):
                world = make_world(ee=pose(ee_x, 0.0, 0.2))
                command = Pose(np.array([x, -0.0, 0.2]), [1.0, -0.0, 0.0, -0.0], 0.5)
                got = assert_steps_as_reference(sim, reference, world, command)
                want = sim.clamp_position(command.position)
                assert got.ee_pose.position.tobytes() == want.tobytes()

    def test_negative_zero_components(self, sim, reference):
        world = make_world(
            ee=Pose(np.array([0.0, -0.0, 0.028]), [1.0, 0.0, -0.0, 0.0], 0.4),
            objects={"cube": cube_at(-0.0, 0.0)},
        )
        command = Pose(np.array([-0.0, 0.0, 0.028]), [1.0, -0.0, 0.0, -0.0], 0.2)
        for _ in range(3):
            world = assert_steps_as_reference(sim, reference, world, command)
        assert world.attached == "cube"

    @pytest.mark.parametrize("direction", [(0.0, 1.0), (-1.0, 0.0), (1.0, 0.0), (0.6, -0.8)])
    @pytest.mark.parametrize("move", [0.005, 0.05])
    def test_objects_at_the_contact_prescreen_margin(self, sim, reference, direction, move):
        """Objects at, just inside and just outside the screen's distance from the
        sweep's start, for a sweep that lands and one that is speed capped."""
        cfg = sim.config
        start = np.array([0.0, 0.0, 0.02])
        reach = cfg.contact_radius + min(move, cfg.max_ee_speed) + 1e-6
        world = make_world(ee=pose(*start.tolist(), grip=0.0))
        command = pose(move, 0.0, 0.02, grip=0.0)
        for scale in (1.0 - 1e-9, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 + 1e-9):
            dx, dy = direction
            at = start + scale * reach * np.array([dx, dy, 0.0])
            scene = replace(world, placed={"cube": cube_at(*at.tolist())})
            assert math.dist(at.tolist(), start.tolist()) == pytest.approx(reach, rel=1e-8)
            assert_steps_as_reference(sim, reference, scene, command)
        # Just inside the contact radius of the sweep's start or end, both push the cube.
        ahead = min(move, cfg.max_ee_speed) + 0.999 * cfg.contact_radius
        for at in ((0.0, 0.999 * cfg.contact_radius), (ahead, 0.0)):
            scene = replace(world, placed={"cube": cube_at(*at)})
            pushed = assert_steps_as_reference(sim, reference, scene, command)
            assert pushed.objects["cube"].pose.position[0] > at[0]

    def test_attach_carry_and_release(self, sim, reference):
        world = make_world(
            ee=pose(0.0, 0.0, 0.028, grip=0.4),
            objects={"cube": cube_at(0.0, 0.0), "bystander": cube_at(0.03, 0.0)},
        )
        commands = [
            pose(0.0, 0.0, 0.028, grip=0.2),  # attach
            *(pose(0.004 * i, 0.0, 0.028 + 0.01 * i, quat_about_axis(2, 0.05 * i), 0.2)
              for i in range(1, 6)),  # carry, turning
            *(pose(0.02, 0.0, 0.08, grip=1.0) for _ in range(3)),  # release on the third
            pose(0.02, 0.0, 0.2, grip=1.0),  # away, the cube left where it was let go
        ]
        attached = []
        for command in commands:
            world = assert_steps_as_reference(sim, reference, world, command)
            attached.append(world.attached)
        assert attached == ["cube"] * 8 + [None] * 2
