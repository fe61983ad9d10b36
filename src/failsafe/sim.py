"""Deterministic kinematic tabletop simulator.

No dynamics: the end-effector tracks commanded poses under per-step speed
caps with exact landing, objects attach to a closing gripper inside the
grasp radius, and unattached movable objects translate with the horizontal
component of an EE sweep that passes within the contact radius. Identical
(world, command, config) inputs always produce bit-identical next states,
which is what makes recovery verification exactly replayable.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import TASKS, Config
from .errors import InvalidCommandError, SceneError
from .geometry import Pose, norm, qmul, quat_angle, quat_conjugate, quat_multiply, quat_rotate
from .geometry import slerp

DOWN = np.array([0.0, 0.0, -1.0])
CAMERA_IDS = ("front", "side", "hand")
# Fixed cameras aim here; roughly the center of the manipulation volume.
LOOK_AT = np.array([0.0, 0.0, 0.05])
# Box corner i is half_extents times row i: x, y, z signs in product order.
_CORNER_SIGNS = np.array(list(itertools.product((-1, 1), repeat=3)))


@dataclass(frozen=True)
class ObjectState:
    """A rigid object. half_extents is (hx, hy, hz); spheres use (r, r, r)."""

    shape: str  # box | sphere
    half_extents: tuple
    pose: Pose
    movable: bool = True  # the arm can grasp and push it

    @functools.cached_property
    def keypoints(self) -> np.ndarray:
        """(n, 3): the center, then a box's eight corners; a moved object is a new state."""
        position = self.pose.position
        if self.shape != "box":
            return position[None]
        rotated = quat_rotate(self.pose.orientation, _CORNER_SIGNS * self.half_extents)
        return np.vstack([position, position + rotated])


@dataclass(frozen=True)
class GraspOffset:
    """Object pose relative to the EE frame, recorded at attach time."""

    position: np.ndarray  # in the EE frame
    orientation: np.ndarray  # relative quaternion


@dataclass(eq=False)  # a step makes a new world and changes none: compared by identity
class WorldState:
    """`placed` has the held object where it was grasped; `objects` has it where it is."""

    ee_pose: Pose
    placed: dict  # object-id -> ObjectState
    attached: str | None = None
    grasp_offset: GraspOffset | None = None  # set whenever attached is
    goal: tuple | None = None

    @functools.cached_property
    def objects(self) -> dict:
        """object-id -> ObjectState; the held object is placed on first read."""
        if self.attached is None:
            return self.placed
        pose = attached_object_pose(self.ee_pose, self.grasp_offset)
        return {**self.placed, self.attached: _with_pose(self.placed[self.attached], pose)}


def attached_object_pose(ee_pose: Pose, offset: GraspOffset) -> Pose:
    position = ee_pose.position + quat_rotate(ee_pose.orientation, offset.position)
    orientation = quat_multiply(ee_pose.orientation, offset.orientation)
    return Pose.trusted(position, orientation, 0.0)


def _with_pose(obj: ObjectState, pose: Pose) -> ObjectState:
    return ObjectState(obj.shape, obj.half_extents, pose, obj.movable)


def _segment_point_distance(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> float:
    d = b - a
    dd = float(np.dot(d, d))
    if dd == 0.0:
        return norm(p - a)
    t = min(1.0, max(0.0, float(np.dot(p - a, d)) / dd))
    return norm(p - (a + t * d))


@functools.cache
def _fixed_camera(position: tuple):
    """(position, basis) of a camera aimed at LOOK_AT; shared by every Simulator, never written."""
    pos = np.asarray(position, dtype=float)
    forward = LOOK_AT - pos
    forward = forward / norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    length = norm(right)
    if length < 1e-9:  # looking straight down: pick a fixed right axis
        right = np.array([1.0, 0.0, 0.0])
    else:
        right = right / length
    down = np.cross(forward, right)
    return pos, np.stack([forward, right, down]).T


class Simulator:
    """Pure-function stepper over WorldState values under one Config."""

    def __init__(self, cfg: Config):
        self.config = cfg.sim
        self._workspace_min = np.asarray(self.config.workspace_min, dtype=float)
        self._workspace_max = np.asarray(self.config.workspace_max, dtype=float)
        self._bounds = self._workspace_min.tolist(), self._workspace_max.tolist()
        # The fixed cameras never move: their bases are built once per position.
        self._front = _fixed_camera(tuple(map(float, self.config.front_camera)))
        self._side = _fixed_camera(tuple(map(float, self.config.side_camera)))

    # -- stepping ----------------------------------------------------------

    def step(self, world: WorldState, target: Pose) -> WorldState:
        cfg = self.config
        position, orientation = target.position.tolist(), target.orientation.tolist()
        if not all(map(math.isfinite, (*position, *orientation, target.gripper))):
            raise InvalidCommandError("non-finite command target")

        goal_pos = self.clamp_position(target.position)

        ee = world.ee_pose
        delta = goal_pos - ee.position
        dist = norm(delta)
        if dist <= cfg.max_ee_speed:
            new_pos = goal_pos
        else:
            new_pos = ee.position + delta * (cfg.max_ee_speed / dist)

        ang = quat_angle(ee.orientation.tolist(), orientation)
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
        goal = world.goal  # no step moves it
        if world.attached is not None:
            if new_grip < cfg.release_threshold:  # carried: placed when read
                return WorldState(new_ee, world.placed, world.attached, world.grasp_offset, goal)
            return WorldState(new_ee, world.objects, None, None, goal)  # let go where it is

        objects = world.placed
        # A landed sweep is the delta itself: the same subtraction of the same operands.
        sweep_x, sweep_y, _ = (delta if new_pos is goal_pos else new_pos - ee.position).tolist()
        if sweep_x != 0.0 or sweep_y != 0.0:
            # The sweep is at most min(dist, max_ee_speed) long, so an object this far from
            # its start is out of contact; the margin dwarfs any rounding of either test.
            reach = cfg.contact_radius + min(dist, cfg.max_ee_speed) + 1e-6
            start = ee.position.tolist()
            # Each push reads only its own object, so any order gives the same dict.
            for obj_id, obj in world.placed.items():
                p = obj.pose
                if not obj.movable or math.dist(p.position.tolist(), start) > reach:
                    continue
                gap = _segment_point_distance(ee.position, new_pos, p.position)
                if gap <= cfg.contact_radius:
                    moved = p.position + np.array([sweep_x, sweep_y, 0.0])
                    moved = Pose.trusted(moved, p.orientation, p.gripper)
                    objects = {**objects, obj_id: _with_pose(obj, moved)}
        attached, offset = None, None
        if new_grip <= cfg.grasp_threshold:
            attached, offset = self._try_attach(new_ee, objects)
        return WorldState(new_ee, objects, attached, offset, goal)

    def drive(self, world: WorldState, commands) -> list:
        """Step through a command stream in order; the world after each step."""
        worlds = []
        for command in commands:
            world = self.step(world, command)
            worlds.append(world)
        return worlds

    def drive_to(self, world: WorldState, target: Pose, max_steps: int) -> tuple:
        """Step toward target until the arm lands on it exactly, workspace
        clamp included (the stepper lands exactly on targets it can reach),
        or until max_steps run out. Arrival is tested before each step, so a
        world already on target takes none. Returns (worlds after each step,
        arrived)."""
        goal = (
            self.clamp_position(target.position).tolist(),
            target.orientation.tolist(),
            target.gripper,
        )
        worlds = []
        while world.ee_pose.key() != goal:
            if len(worlds) >= max_steps:
                return worlds, False
            world = self.step(world, target)
            worlds.append(world)
        return worlds, True

    def clamp_position(self, position: np.ndarray) -> np.ndarray:
        """Where a commanded position actually lands: inside the workspace. Strictly
        inside, that is the position itself; elsewhere numpy's clamp, signed zeros and all."""
        (x0, y0, z0), (x1, y1, z1) = self._bounds
        x, y, z = position.tolist()
        if x0 < x < x1 and y0 < y < y1 and z0 < z < z1:
            return position
        return np.minimum(np.maximum(position, self._workspace_min), self._workspace_max)

    def _tool_aligned(self, ee: Pose) -> bool:
        # The tool axis is DOWN in the EE frame; its cosine with DOWN is minus its z, the
        # one nonzero term of np.dot(axis, DOWN).
        w, x, y, z = q = ee.orientation.tolist()
        *_, axis_z = qmul(qmul(q, (0.0, 0.0, 0.0, -1.0)), (w, -x, -y, -z))
        return math.acos(min(1.0, max(-1.0, -axis_z))) <= self.config.grasp_align_tol

    def _try_attach(self, ee: Pose, objects: dict):
        """(id, grasp offset) of the nearest movable object in reach of an aligned tool,
        else (None, None). Alignment is tested only once an object is in reach."""
        best_id = None
        best_dist = math.inf
        reach = self.config.grasp_radius + 1e-6  # screens out misses, as in step
        here = ee.position.tolist()
        for obj_id in sorted(objects):
            obj = objects[obj_id]
            if not obj.movable or math.dist(obj.pose.position.tolist(), here) > reach:
                continue
            d = norm(obj.pose.position - ee.position)
            if d <= self.config.grasp_radius and d < best_dist:  # a tie keeps the first id
                best_id = obj_id
                best_dist = d
        if best_id is None or not self._tool_aligned(ee):
            return None, None
        obj = objects[best_id]
        inv = quat_conjugate(ee.orientation)
        return best_id, GraspOffset(
            position=quat_rotate(inv, obj.pose.position - ee.position),
            orientation=quat_multiply(inv, obj.pose.orientation),
        )

    # -- success predicates ------------------------------------------------

    def evaluate_success(self, world: WorldState, task_id: str) -> bool:
        """Whether world completes the task; the task table's family says
        which test applies and its objects say what the test looks at."""
        try:
            spec = TASKS[task_id]
        except KeyError:
            raise SceneError(f"unknown task '{task_id}'") from None
        moved_id = spec.objects[0]
        moved = self._require(world, moved_id)
        if spec.family == "pick":
            if world.attached != moved_id:
                return False
            return bool(moved.pose.position[2] >= self.config.table_z + self.config.lift_threshold)
        if spec.family == "push":
            if world.goal is None:
                raise SceneError(f"{task_id} world has no goal")
            gap = math.hypot(
                moved.pose.position[0] - world.goal[0],
                moved.pose.position[1] - world.goal[1],
            )
            return gap <= self.config.goal_radius
        # place: the moved object rests, let go, on top of the base.
        base = self._require(world, spec.objects[1])
        if world.attached == moved_id:
            return False
        dx = moved.pose.position[0] - base.pose.position[0]
        dy = moved.pose.position[1] - base.pose.position[1]
        if math.hypot(dx, dy) > self.config.stack_xy_tol:
            return False
        stack_height = base.half_extents[2] + moved.half_extents[2]
        target_z = base.pose.position[2] + stack_height
        return bool(abs(moved.pose.position[2] - target_z) <= self.config.stack_z_tol)

    @staticmethod
    def _require(world: WorldState, obj_id: str) -> ObjectState:
        try:
            return world.objects[obj_id]
        except KeyError:
            raise SceneError(f"scene is missing object '{obj_id}'") from None

    # -- observation -------------------------------------------------------

    def observe(self, world: WorldState, step: int) -> "ObservationFrame":
        """The frame of world at a step: a view of it, each part made on first read."""
        return ObservationFrame(step, (self, world))

    def _project_cameras(self, world: WorldState) -> dict:
        ids, points = self._keypoints(world)
        bases = (self._front, self._side, self._hand_camera(world.ee_pose))
        return {cam: self._project_all(basis, ids, points) for cam, basis in zip(CAMERA_IDS, bases)}

    @staticmethod
    def _keypoints(world: WorldState) -> tuple:
        """(ids, (n, 3) points): the EE center, then each object's keypoints in id order."""
        ids, points = ["ee:center"], [world.ee_pose.position[None]]
        for obj_id in sorted(world.objects):
            keypoints = world.objects[obj_id].keypoints
            ids.append(f"{obj_id}:center")
            ids.extend(f"{obj_id}:corner{i}" for i in range(len(keypoints) - 1))
            points.append(keypoints)
        return ids, np.concatenate(points)

    def _hand_camera(self, ee: Pose):
        # np.cross's formula on Python floats; the same basis matrix, cheaper.
        f0, f1, f2 = forward = quat_rotate(ee.orientation, DOWN).tolist()
        r0, r1, r2 = right = quat_rotate(ee.orientation, np.array([1.0, 0.0, 0.0])).tolist()
        down = [f1 * r2 - f2 * r1, f2 * r0 - f0 * r2, f0 * r1 - f1 * r0]
        return ee.position, np.array([forward, right, down]).T

    def _project_all(self, camera, ids, points):
        pos, basis = camera  # basis columns: forward (depth), right, down
        cfg = self.config
        cx = cfg.image_width / 2.0
        cy = cfg.image_height / 2.0
        offsets = ((points - pos) @ basis).tolist()
        out = []
        for kp_id, (z, r, d) in zip(ids, offsets):
            if z <= 1e-9:  # behind the camera: absent, never projected
                continue
            out.append((kp_id, cx + cfg.focal_px * r / z, cy + cfg.focal_px * d / z))
        return out


class ObservationFrame:
    """Numeric observation: poses plus per-camera pixel keypoints. Observed, it views its
    (simulator, world) and makes each part on first read, letting go of the world once all
    three are made; read back from a file, it is given its parts. A pickle carries it as it
    is, view and made parts alike, so a part is made where it is first read."""

    def __init__(self, step: int, view: tuple = (), **parts):
        self.step = step
        if view:
            self._sim, self._world = view
        vars(self).update(parts)

    @functools.cached_property
    def ee_pose(self) -> Pose:
        return self._made(self._world.ee_pose.copy())

    @functools.cached_property
    def object_poses(self) -> dict:  # object-id -> Pose, in id order
        return self._made({i: obj.pose.copy() for i, obj in sorted(self._world.objects.items())})

    @functools.cached_property
    def cameras(self) -> dict:  # camera-id -> list of (keypoint-id, u, v)
        return self._made(self._sim._project_cameras(self._world))

    def _made(self, part):  # the last part made lets go of the world
        if len(vars(self).keys() & {"ee_pose", "object_poses", "cameras"}) == 2:
            del self._sim, self._world
        return part
