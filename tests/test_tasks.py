"""Task planning, scene sampling, and nominal rollouts."""

from dataclasses import replace

import numpy as np
import pytest

from failsafe.config import default_config
from failsafe.errors import ConfigError, SceneGenerationError
from failsafe.failures import perturb_stage, sample_failure_spec
from failsafe.geometry import IDENTITY_QUAT, Pose, interpolate_stage, slerp
from failsafe.seeding import seed_stream
from failsafe.sim import Simulator
from failsafe.tasks import (
    GRIP_HOLD,
    GRIP_OPEN,
    TASKS,
    Stage,
    grasp_attach_height,
    plan_commands,
    plan_task,
    rollout_plan,
    stage_commands,
    task_spec,
)


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def sim(cfg):
    return Simulator(cfg)


class TestPlanning:
    def test_same_seed_same_plan(self, cfg):
        a, world_a = plan_task("pick_cube", 3, cfg)
        b, world_b = plan_task("pick_cube", 3, cfg)
        for sa, sb in zip(a.stages, b.stages):
            assert sa.name == sb.name and sa.steps == sb.steps
            assert np.array_equal(sa.target.position, sb.target.position)
            assert np.array_equal(sa.target.orientation, sb.target.orientation)
            assert sa.target.gripper == sb.target.gripper
        assert np.array_equal(
            world_a.objects["cube"].pose.position,
            world_b.objects["cube"].pose.position,
        )

    def test_different_seeds_move_the_scene(self, cfg):
        _, wa = plan_task("pick_cube", 0, cfg)
        _, wb = plan_task("pick_cube", 1, cfg)
        assert not np.array_equal(
            wa.objects["cube"].pose.position, wb.objects["cube"].pose.position
        )

    def test_pick_stage_names(self, cfg):
        plan, _ = plan_task("pick_cube", 0, cfg)
        assert [s.name for s in plan.stages] == ["reach", "grasp", "lift"]

    def test_stack_runs_six_stages_and_opens_at_the_end(self, cfg):
        plan, _ = plan_task("stack_cube", 0, cfg)
        names = [s.name for s in plan.stages]
        assert names == ["reach", "grasp", "lift", "align", "lower", "release"]
        assert len(plan.stages) >= 5
        assert plan.stages[-1].target.gripper == GRIP_OPEN

    def test_grasp_target_hovers_on_the_approach_offset(self, cfg):
        plan, world = plan_task("pick_cube", 5, cfg)
        grasp = plan.stages[plan.stage_index("grasp")]
        cube = world.objects["cube"].pose.position
        expected = cube + np.array([0.0, 0.0, cfg.planner.grasp_approach_offset])
        assert grasp.target.position == pytest.approx(expected, abs=1e-12)
        assert grasp.target.gripper == GRIP_HOLD

    def test_lower_target_compensates_for_attach_height(self, cfg):
        plan, world = plan_task("stack_cube", 2, cfg)
        lower = plan.stages[plan.stage_index("lower")]
        base = world.objects["cube_b"].pose.position
        stack_z = base[2] + 2 * cfg.sim.cube_half_extent
        attach = grasp_attach_height(cfg, cfg.planner.stage_steps("stack_cube"))
        assert lower.target.position[2] == pytest.approx(stack_z + attach, abs=1e-12)

    def test_push_steps_override(self, cfg):
        plan, _ = plan_task("push_cube", 0, cfg)
        assert all(s.steps == 60 for s in plan.stages)
        assert plan.total_steps() == 120

    def test_unknown_task(self, cfg):
        with pytest.raises(ConfigError, match="juggle"):
            plan_task("juggle", 0, cfg)
        with pytest.raises(ConfigError, match="juggle"):
            task_spec("juggle")


class TestTaskTable:
    @pytest.mark.parametrize("task_id", TASKS)
    def test_table_drives_scene_and_plan(self, cfg, task_id):
        spec = TASKS[task_id]
        assert spec.family in ("pick", "push", "place")
        for seed in range(4):
            plan, world = plan_task(task_id, seed, cfg)
            assert tuple(world.objects) == spec.objects
            assert tuple(s.name for s in plan.stages) == spec.stage_names


class TestAttachHeight:
    def test_default_pinned(self, cfg):
        assert grasp_attach_height(cfg, 40) == pytest.approx(0.00935, abs=1e-12)

    def test_unreachable_descent_raises(self, cfg):
        bad = replace(
            cfg, sim=replace(cfg.sim, grasp_threshold=0.001)
        )
        with pytest.raises(ConfigError, match="attachment zone"):
            grasp_attach_height(bad, 40)


class TestSceneSampling:
    def test_placements_stay_in_range(self, cfg):
        limit = cfg.planner.placement_half_range + 1e-12
        for seed in range(30):
            _, world = plan_task("pick_cube", seed, cfg)
            xy = world.objects["cube"].pose.position[:2]
            assert np.all(np.abs(xy) <= limit)

    def test_stack_separation(self, cfg):
        for seed in range(30):
            _, world = plan_task("stack_cube", seed, cfg)
            a = world.objects["cube_a"].pose.position[:2]
            b = world.objects["cube_b"].pose.position[:2]
            assert np.linalg.norm(a - b) >= cfg.planner.min_object_separation

    def test_push_goal_geometry(self, cfg):
        lo, hi = cfg.planner.push_distance_range
        for seed in range(30):
            _, world = plan_task("push_cube", seed, cfg)
            cube = world.objects["cube"].pose.position[:2]
            goal = np.array(world.goal)
            dist = np.linalg.norm(goal - cube)
            assert lo - 1e-12 <= dist <= hi + 1e-12
            assert np.all(np.abs(goal) <= cfg.planner.push_goal_limit + 1e-12)

    def test_impossible_separation_raises(self, cfg):
        bad = replace(
            cfg, planner=replace(cfg.planner, min_object_separation=0.5)
        )
        with pytest.raises(SceneGenerationError):
            plan_task("stack_cube", 0, bad)


class TestRollout:
    def test_all_tasks_succeed_nominally(self, cfg, sim):
        for task_id in TASKS:
            for seed in range(25):
                plan, world = plan_task(task_id, seed, cfg)
                traj = rollout_plan(plan, world, sim)
                assert sim.evaluate_success(traj.worlds[-1], task_id), f"{task_id} seed {seed}"

    def test_trajectory_length_is_stage_sum(self, cfg, sim):
        plan, world = plan_task("stack_cube", 1, cfg)
        traj = rollout_plan(plan, world, sim)
        assert len(traj.worlds) == len(traj.commands) == plan.total_steps() == 240

    def test_cut_rollout_holds_whole_stream_and_max_steps_worlds(self, cfg, sim):
        plan, world = plan_task("pick_cube", 1, cfg)
        traj = rollout_plan(plan, world, sim, max_steps=70)
        stream = plan_commands(plan, world.ee_pose)
        assert [c.key() for c in traj.commands] == [c.key() for c in stream]
        assert len(traj.worlds) == 70 < len(stream)
        before = world
        for command, after in zip(traj.commands, traj.worlds):
            stepped = sim.step(before, command)
            assert after.ee_pose.key() == stepped.ee_pose.key()
            assert after.attached == stepped.attached
            before = after

    def test_stage_bounds_partition_the_frames(self, cfg, sim):
        plan, world = plan_task("stack_cube", 4, cfg)
        traj = rollout_plan(plan, world, sim)
        assert len(traj.stage_boundaries) == len(plan.stages)
        first = 0
        for i in range(len(plan.stages)):
            lo, hi = traj.stage_bounds(i)
            assert lo == first
            assert traj.stage_length(i) == plan.stages[i].emitted_steps()
            first = hi + 1
        assert traj.stage_boundaries[-1] == len(traj.worlds) - 1

    @pytest.mark.parametrize("max_steps", (None, 50))
    def test_stage_at_finds_the_stage_holding_a_step(self, max_steps, cfg, sim):
        plan, world = plan_task("stack_cube", 4, cfg)
        traj = rollout_plan(plan, world, sim, max_steps=max_steps)
        last = len(traj.worlds) - 1
        for step in range(-2, last + 40):
            stage = traj.stage_at(step)
            lo, hi = traj.stage_bounds(stage)
            assert lo <= min(max(step, 0), last) <= hi, step

    def test_nominal_attach_waypoint_is_pinned(self, cfg, sim):
        plan, world = plan_task("pick_cube", 0, cfg)
        traj = rollout_plan(plan, world, sim)
        attach_at = next(
            i for i, w in enumerate(traj.worlds) if w.attached == "cube"
        )
        assert attach_at == 76  # 40 reach steps + grasp waypoint 36

    def test_truncation_closes_the_partition(self, cfg, sim):
        plan, world = plan_task("pick_cube", 0, cfg)
        traj = rollout_plan(plan, world, sim, max_steps=50)
        assert len(traj.worlds) == 50
        assert traj.stage_boundaries[-1] == 49
        assert not sim.evaluate_success(traj.worlds[-1], "pick_cube")

    def test_plan_commands_matches_rollout_commands(self, cfg, sim):
        plan, world = plan_task("pick_cube", 2, cfg)
        stream = plan_commands(plan, world.ee_pose)
        traj = rollout_plan(plan, world, sim)
        assert len(stream) == len(traj.commands) == len(traj.worlds)
        for cmd, ran in zip(stream, traj.commands):
            assert np.array_equal(cmd.position, ran.position)
            assert cmd.gripper == ran.gripper


class TestHolds:
    def stage(self, **kw):
        target = Pose(np.array([0.0, 0.0, 0.1]), IDENTITY_QUAT, 1.0)
        return Stage("leg", target, 20, **kw)

    def test_hold_grows_emitted_steps(self):
        assert self.stage(hold_at=5, hold_steps=7).emitted_steps() == 27

    def test_hold_block_repeats_the_prior_waypoint(self):
        start = Pose(np.array([0.0, 0.0, 0.0]), IDENTITY_QUAT, 1.0)
        stage = self.stage(hold_at=5, hold_steps=3)
        cmds = stage_commands(stage, start)
        assert len(cmds) == 23
        held = cmds[4]
        for i in (5, 6, 7):
            assert cmds[i] is held
        # The stream resumes exactly where it paused.
        plain = stage_commands(self.stage(), start)
        assert np.array_equal(cmds[8].position, plain[5].position)
        assert np.array_equal(cmds[-1].position, plain[-1].position)

    def test_hold_at_stage_start_repeats_the_start_pose(self):
        start = Pose(np.array([0.0, 0.0, 0.0]), IDENTITY_QUAT, 0.3)
        cmds = stage_commands(self.stage(hold_at=0, hold_steps=2), start)
        assert cmds[0] is start and cmds[1] is start

    def test_bad_hold_placement(self):
        with pytest.raises(ConfigError):
            self.stage(hold_at=30, hold_steps=2)
        with pytest.raises(ConfigError):
            self.stage(hold_at=5, hold_steps=-1)


def slerp_per_waypoint(start: Pose, end: Pose, steps: int) -> list:
    """interpolate_stage as it was written first: one slerp per waypoint."""
    poses = []
    for i in range(1, steps):
        t = i / steps
        poses.append(
            Pose.trusted(
                (1.0 - t) * start.position + t * end.position,
                slerp(start.orientation, end.orientation, t),
                (1.0 - t) * start.gripper + t * end.gripper,
            )
        )
    poses.append(end.copy())
    return poses


class TestInterpolateStageOnPlans:
    @pytest.mark.parametrize("task", TASKS)
    def test_matches_per_waypoint_slerp(self, task, cfg):
        # Every leg of the plans, and of four draws from each fault menu, toward
        # the stage target and toward one whose orientation is the negated start.
        # Legs repeat across a seed's variants; each distinct one is compared once.
        legs = {}
        for seed in range(32):
            plan, world = plan_task(task, seed, cfg)
            rng = seed_stream("interpolate-test", task, seed)
            plans = [plan] + [
                perturb_stage(plan, sample_failure_spec(plan, menu, rng))
                for menu in (cfg.tasks[task], cfg.supervisor.faults[task])
                for _ in range(4)
            ]
            for variant in plans:
                start = world.ee_pose
                for stage in variant.stages:
                    flipped = stage.target.copy()
                    flipped.orientation = -start.orientation
                    for end in (stage.target, flipped):
                        key = repr((start.key(), end.key(), stage.steps))
                        legs[key] = (start, end, stage.steps)
                    start = stage.target
        negated = 0
        for start, end, steps in legs.values():
            got = interpolate_stage(start, end, steps)
            want = slerp_per_waypoint(start, end, steps)
            assert len(got) == len(want)
            for field in ("position", "orientation"):
                a = np.stack([getattr(p, field) for p in got])
                b = np.stack([getattr(p, field) for p in want])
                assert a.tobytes() == b.tobytes()
            assert [p.gripper for p in got] == [p.gripper for p in want]
            assert len({id(p.orientation) for p in got}) == len(got)
            negated += np.array_equal(start.orientation, -end.orientation)
        assert negated > 0
