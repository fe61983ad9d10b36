"""Stage-waypoint task library and rollout: the correct-trajectory generator.

Each task is a fixed stage decomposition whose targets are computed from
seeded random object placements. What a task is comes from its row in the
task table (config.TASKS, re-exported here): the row's family picks the
stage plan (and a push scene's goal), and its objects are the ids the scene
places, one random xy each, the moved object first. A stage holds no name:
Plan.stage_names reads the row's names, one per stage. A rollout feeds its plan's waypoints to
the simulator from its start world, one step each, and keeps the world after each, so a
(task, seed, config) triple fully determines it; one that agrees with another rollout before
an onset index takes that one's commands and worlds up to there. A rollout does not judge
itself: its caller evaluates its last world.
"""

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import TASKS  # noqa: F401  (re-exported: failsafe.tasks.TASKS is public)
from .config import Config, SimConfig, TaskSpec, task_spec
from .errors import ConfigError, SceneGenerationError
from .geometry import IDENTITY_QUAT, Pose, interpolate_stage, norm
from .seeding import seed_stream
from .sim import ObjectState, Simulator, WorldState

GRIP_OPEN = 1.0
GRIP_HOLD = 0.05
GRIP_PUSH = 0.0


@dataclass(frozen=True)
class Stage:
    """One plan leg: interpolate to target, optionally pausing mid-leg.

    hold_steps > 0 inserts that many copies of the pose reached just before
    waypoint hold_at, which stretches the stage without moving its target.
    """

    target: Pose
    steps: int
    hold_at: int = 0
    hold_steps: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("a stage needs at least 1 step")
        if self.hold_steps < 0 or not 0 <= self.hold_at <= self.steps:
            raise ConfigError("stage hold placement out of range")

    def emitted_steps(self) -> int:
        return self.steps + self.hold_steps


def stage_commands(stage: Stage, start: Pose) -> list:
    """Per-step waypoints for one stage, holds included."""
    leg = interpolate_stage(start, stage.target, stage.steps)
    if stage.hold_steps:
        held = leg[stage.hold_at - 1] if stage.hold_at > 0 else start
        leg[stage.hold_at : stage.hold_at] = [held] * stage.hold_steps
    return leg


@dataclass(frozen=True)
class Plan:
    task_id: str
    stages: tuple
    seed: int

    @property
    def stage_names(self) -> tuple:
        """The task table's stage names, one per stage."""
        return task_spec(self.task_id).stage_names

    @cached_property
    def stage_ends(self) -> tuple:
        """Each stage's end in the command stream: the index just past its last step."""
        return tuple(itertools.accumulate(s.emitted_steps() for s in self.stages))

    def total_steps(self) -> int:
        return self.stage_ends[-1]


@dataclass(frozen=True, eq=False)  # hashed by identity: frames are cached per rollout
class Trajectory:
    plan: Plan  # the plan it ran
    start: WorldState  # the world before commands[0]
    commands: tuple  # the plan's whole waypoint stream
    worlds: tuple  # worlds[i]: the world after commands[i]; fewer when cut at max_steps

    @cached_property
    def stage_boundaries(self) -> tuple:
        """Index of each executed stage's last world; a cut last stage still closes the partition."""
        ends, ran = self.plan.stage_ends, len(self.worlds)
        return tuple(min(end, ran) - 1 for first, end in zip((0, *ends), ends) if first < ran)

    def stage_bounds(self, stage_index: int) -> tuple:
        """(first, last) step indices of a stage, inclusive."""
        if stage_index < 0 or stage_index >= len(self.stage_boundaries):
            raise IndexError(f"stage {stage_index} not in trajectory")
        first = 0 if stage_index == 0 else self.stage_boundaries[stage_index - 1] + 1
        return first, self.stage_boundaries[stage_index]

    def stage_at(self, index: int) -> int:
        """The stage whose bounds hold step index, clamped to the last world."""
        return bisect.bisect_left(self.stage_boundaries, min(index, len(self.worlds) - 1))

    def stage_length(self, stage_index: int) -> int:
        first, last = self.stage_bounds(stage_index)
        return last - first + 1


def _upright(position, gripper) -> Pose:
    return Pose(np.asarray(position, dtype=float), IDENTITY_QUAT, gripper)


def _sample_xy(rng, half_range):
    return rng.uniform(-half_range, half_range, size=2)


def _scene_object(obj_id: str, xy, sim_cfg: SimConfig) -> ObjectState:
    """An object resting on the table at xy. The id up to its first '_'
    names the kind (`cube_a` is a cube); the pad is the one object the arm
    can neither grasp nor push."""
    kind = obj_id.split("_")[0]
    shape, half = {
        "cube": ("box", (sim_cfg.cube_half_extent,) * 3),
        "sphere": ("sphere", (sim_cfg.sphere_radius,) * 3),
        "charger": ("box", sim_cfg.charger_half_extents),
        "pad": ("box", sim_cfg.pad_half_extents),
    }[kind]
    return ObjectState(
        shape=shape,
        half_extents=half,
        pose=_upright([xy[0], xy[1], half[2]], 0.0),
        movable=kind != "pad",
    )


def _build_scene(spec: TaskSpec, rng, cfg: Config) -> WorldState:
    """Place the task's objects, one xy each in table order, redrawing all
    of them until every pair is apart; a push task then draws its goal."""
    pl = cfg.planner
    for _ in range(pl.max_placement_attempts):
        xys = [_sample_xy(rng, pl.placement_half_range) for _ in spec.objects]
        if all(
            norm(a - b) >= pl.min_object_separation
            for a, b in itertools.combinations(xys, 2)
        ):
            break
    else:
        raise SceneGenerationError(
            f"{spec.task_id} placements never separated after {pl.max_placement_attempts} attempts"
        )

    goal = None
    if spec.family == "push":
        for _ in range(pl.max_placement_attempts):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            dist = rng.uniform(*pl.push_distance_range)
            candidate = xys[0] + dist * np.array([np.cos(angle), np.sin(angle)])
            if np.all(np.abs(candidate) <= pl.push_goal_limit):
                goal = (float(candidate[0]), float(candidate[1]))
                break
        else:
            raise SceneGenerationError(
                f"no in-bounds push goal for seed after {pl.max_placement_attempts} attempts"
            )

    return WorldState(
        ee_pose=_upright([0.0, 0.0, pl.home_height], GRIP_OPEN),
        placed={
            obj_id: _scene_object(obj_id, xy, cfg.sim)
            for obj_id, xy in zip(spec.objects, xys)
        },
        goal=goal,
    )


def grasp_attach_height(cfg: Config, steps: int) -> float:
    """EE height above an object's center at the waypoint where a nominal
    grasp descent first satisfies the attachment rule.

    Carry targets add this offset so the held object, not the gripper,
    lands at the intended height. Derived from the same interpolation and
    thresholds the descent actually runs, so it stays exact under
    reconfiguration.
    """
    pl = cfg.planner
    span = pl.approach_height - pl.grasp_approach_offset
    grip_span = GRIP_OPEN - GRIP_HOLD
    for j in range(steps):
        frac = (j + 1) / steps
        height = pl.approach_height - span * frac
        gripper = GRIP_OPEN - grip_span * frac
        if height <= cfg.sim.grasp_radius and gripper <= cfg.sim.grasp_threshold:
            return height
    raise ConfigError(
        "grasp descent never reaches the attachment zone; "
        "check grasp_approach_offset against grasp_radius"
    )


def plan_task(task_id: str, seed: int, cfg: Config) -> tuple:
    """Sample a scene and emit the task's canonical stage sequence.

    Returns (Plan, WorldState). Same (task_id, seed, cfg) gives identical
    output.
    """
    spec = task_spec(task_id)
    rng = seed_stream("scene", task_id, seed)
    world = _build_scene(spec, rng, cfg)
    pl = cfg.planner
    steps = pl.stage_steps(task_id)

    moved = world.objects[spec.objects[0]]
    mx, my, mz = moved.pose.position
    if spec.family == "push":
        gx, gy = world.goal
        direction = np.array([gx - mx, gy - my])
        direction = direction / norm(direction)
        behind = np.array([mx, my]) - direction * pl.push_standoff
        through = np.array([gx, gy]) - direction * cfg.sim.contact_radius
        targets = [([*behind, mz], GRIP_PUSH), ([*through, mz], GRIP_PUSH)]
    else:
        # Pick and place reach for and grasp the moved object alike.
        targets = [([mx, my, mz + pl.approach_height], GRIP_OPEN),
                   ([mx, my, mz + pl.grasp_approach_offset], GRIP_HOLD)]
        if spec.family == "pick":
            targets.append(([mx, my, pl.lift_height], GRIP_HOLD))
        else:
            base = world.objects[spec.objects[1]]
            bx, by, bz = base.pose.position
            stack_z = bz + base.half_extents[2] + moved.half_extents[2]
            # The held object hangs grasp_attach_height below the EE.
            place_z = stack_z + grasp_attach_height(cfg, steps)
            targets += [([mx, my, pl.carry_height], GRIP_HOLD), ([bx, by, pl.carry_height], GRIP_HOLD),
                        ([bx, by, place_z], GRIP_HOLD), ([bx, by, place_z], GRIP_OPEN)]

    stages = tuple(Stage(_upright(position, gripper), steps) for position, gripper in targets)
    return Plan(task_id, stages, seed), world


def plan_commands(plan: Plan, start: Pose, onset: int = 0) -> list:
    """The per-step waypoint stream a rollout feeds to the simulator, from index `onset` on."""
    commands = []
    for stage, first, end in zip(plan.stages, (0, *plan.stage_ends), plan.stage_ends):
        if end > onset:
            commands.extend(stage_commands(stage, start)[max(onset - first, 0) :])
        start = stage.target
    return commands


def rollout_plan(
    plan: Plan, world: WorldState, sim: Simulator, max_steps: int | None = None,
    base: Trajectory | None = None, onset: int = 0,
) -> Trajectory:
    """Execute a plan one waypoint per step, keeping the world after each.

    The rollout names `plan` and `world`, its start. If max_steps is given it truncates
    there. `base` is a rollout from `world` of a plan that agrees with this one before
    command `onset`: its commands and worlds up to there are this rollout's own (step is
    pure), so only the stream from the onset on is interpolated and stepped.
    """
    head, lent = (base.commands[:onset], base.worlds[:onset][:max_steps]) if onset else ((), ())
    commands = (*head, *plan_commands(plan, world.ee_pose, onset))
    run = commands[:max_steps]
    worlds = (*lent, *sim.drive(lent[-1] if lent else world, run[len(lent) :]))
    return Trajectory(plan=plan, start=world, commands=commands, worlds=worlds)
