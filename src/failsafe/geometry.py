"""SE(3) pose algebra: composition, slerp interpolation, 7-DoF delta actions.

Conventions used across the package:
  - quaternions are (w, x, y, z), unit norm, Hamilton product
  - RPY means extrinsic world-frame roll-pitch-yaw, R = Rz(yaw) Ry(pitch) Rx(roll)
  - relative rotations are taken in the world frame (left multiplication)
  - units are meters and radians everywhere
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPlanError, InvalidPoseError

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])

# Axis order shared by rotation-axis names and quat_about_axis indices.
ROTATION_AXES = ("roll", "pitch", "yaw")
TRANSLATION_AXES = ("x", "y", "z")


def wrap_angle(a: float) -> float:
    """Wrap an angle into [-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a < 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def norm(v) -> float:
    """Length of a 1-D vector or list, bit for bit as np.linalg.norm (dot, then sqrt)."""
    v = v if type(v) is np.ndarray else np.array(v, dtype=float)
    return math.sqrt(v.dot(v))


def quat_normalize(q: np.ndarray) -> np.ndarray:
    n = norm(q)
    if n == 0.0 or not math.isfinite(n):
        raise InvalidPoseError("quaternion has zero or non-finite norm")
    return q / n


def qmul(a, b) -> tuple:
    """Hamilton product of (w, x, y, z) sequences of floats or arrays, elementwise."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # On Python floats: the same IEEE operations as on numpy scalars, faster.
    return np.array(qmul(a.tolist(), b.tolist()))


def quat_conjugate(q) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate a 3-vector, or each row of an (n, 3) array, by a unit quaternion."""
    w, x, y, z = q = q.tolist()
    vx, vy, vz = v.T if v.ndim == 2 else v.tolist()
    _, *rotated = qmul(qmul(q, (0.0, vx, vy, vz)), (w, -x, -y, -z))
    return np.array(rotated).T


def quat_about_axis(axis: int, angle: float) -> np.ndarray:
    """Unit quaternion for a rotation about world axis 0=x, 1=y, 2=z."""
    half = 0.5 * angle
    q = np.zeros(4)
    q[0] = math.cos(half)
    q[1 + axis] = math.sin(half)
    return q


def quat_from_rpy(roll: float, pitch: float, yaw: float) -> np.ndarray:
    qx = quat_about_axis(0, roll)
    qy = quat_about_axis(1, pitch)
    qz = quat_about_axis(2, yaw)
    return quat_normalize(quat_multiply(qz, quat_multiply(qy, qx)))


def quat_to_rpy(q) -> np.ndarray:
    """Extrinsic world-frame (roll, pitch, yaw) of a unit quaternion.

    At gimbal lock (|pitch| = pi/2) yaw is pinned to 0 and the full residual
    goes to roll. Both branches degrade in a band of width ~1e-7 around the
    lock, which random relative rotations do not reach.
    """
    w, x, y, z = q
    sinp = 2.0 * (w * y - z * x)
    if abs(sinp) >= 1.0 - 1e-12:
        pitch = math.copysign(0.5 * math.pi, sinp)
        roll = wrap_angle(2.0 * math.atan2(x, w))
        return np.array([roll, pitch, 0.0])
    roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    pitch = math.asin(sinp)
    yaw = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return np.array([roll, pitch, yaw])


def slerp(q0, q1, t: float) -> np.ndarray:
    """Spherical interpolation along the shorter arc."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1 = -q1
        dot = -dot
    if dot > 1.0 - 1e-10:
        # Nearly parallel: lerp is numerically safer than sin division.
        return quat_normalize(q0 + t * (q1 - q0))
    theta = math.acos(min(1.0, dot))
    s = math.sin(theta)
    a = math.sin((1.0 - t) * theta) / s
    b = math.sin(t * theta) / s
    return quat_normalize(a * q0 + b * q1)


_GRIPPER_SLACK = 1e-9


@dataclass(eq=False)
class Pose:
    """End-effector configuration: position (m), orientation quaternion, gripper.

    gripper is an aperture in [0, 1]: 0 fully closed, 1 fully open.
    """

    position: np.ndarray
    orientation: np.ndarray
    gripper: float = 1.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        if self.position.shape != (3,):
            raise InvalidPoseError("position must be a 3-vector")
        if not np.isfinite(self.position).all():
            raise InvalidPoseError("position must be finite")
        orientation = np.asarray(self.orientation, dtype=np.float64)
        if orientation.shape != (4,):
            raise InvalidPoseError("orientation must be a (w,x,y,z) quaternion")
        if not np.isfinite(orientation).all():
            raise InvalidPoseError("orientation must be finite")
        self.orientation = quat_normalize(orientation)
        g = float(self.gripper)
        if not math.isfinite(g):
            raise InvalidPoseError("gripper must be finite")
        if g < -_GRIPPER_SLACK or g > 1.0 + _GRIPPER_SLACK:
            raise InvalidPoseError(f"gripper {g} outside [0, 1]")
        self.gripper = min(1.0, max(0.0, g))

    @classmethod
    def trusted(cls, position: np.ndarray, orientation: np.ndarray, gripper: float) -> "Pose":
        """A pose built from checked ones: normalised and clamped as by Pose(...), not checked."""
        pose = cls.__new__(cls)
        pose.position = position
        pose.orientation = orientation / norm(orientation)
        pose.gripper = min(1.0, max(0.0, float(gripper)))
        return pose

    def key(self) -> tuple:
        """The pose as Python floats: equal keys mean the same pose."""
        return self.position.tolist(), self.orientation.tolist(), self.gripper

    def copy(self) -> "Pose":
        return Pose.trusted(self.position.copy(), self.orientation, self.gripper)


@dataclass(eq=False)
class DeltaAction:
    """7-DoF corrective action: translation, extrinsic RPY rotation, gripper delta."""

    d_position: np.ndarray
    d_rotation: np.ndarray
    d_gripper: float = 0.0

    def __post_init__(self):
        self.d_position = np.asarray(self.d_position, dtype=np.float64)
        if self.d_position.shape != (3,) or not np.isfinite(self.d_position).all():
            raise InvalidPoseError("d_position must be a finite 3-vector")
        d_rotation = np.asarray(self.d_rotation, dtype=np.float64)
        if d_rotation.shape != (3,) or not np.isfinite(d_rotation).all():
            raise InvalidPoseError("d_rotation must be a finite 3-vector")
        self.d_rotation = np.array([wrap_angle(float(a)) for a in d_rotation])
        g = float(self.d_gripper)
        if not math.isfinite(g) or abs(g) > 1.0 + _GRIPPER_SLACK:
            raise InvalidPoseError(f"d_gripper {g} outside [-1, 1]")
        self.d_gripper = min(1.0, max(-1.0, g))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.d_position, self.d_rotation, [self.d_gripper]])

    @classmethod
    def zero(cls) -> "DeltaAction":
        return cls(np.zeros(3), np.zeros(3), 0.0)


def delta_action(p_d: Pose, p_c: Pose) -> DeltaAction:
    """The 7-DoF action taking p_d to p_c (world-frame relative rotation)."""
    d_position = p_c.position - p_d.position
    if np.array_equal(p_c.orientation, p_d.orientation) or np.array_equal(
        p_c.orientation, -p_d.orientation
    ):
        d_rotation = np.zeros(3)
    else:
        q_rel = quat_normalize(quat_multiply(p_c.orientation, quat_conjugate(p_d.orientation)))
        d_rotation = quat_to_rpy(q_rel)
    return DeltaAction(d_position, d_rotation, p_c.gripper - p_d.gripper)


def apply_delta(p: Pose, a: DeltaAction) -> Pose:
    """Execute a delta action on a pose; gripper clamps to [0, 1]."""
    position = p.position + a.d_position
    orientation = quat_multiply(quat_from_rpy(*a.d_rotation), p.orientation)
    gripper = min(1.0, max(0.0, p.gripper + a.d_gripper))
    return Pose(position, orientation, gripper)


def interpolate_stage(start: Pose, end: Pose, steps: int) -> list:
    """`steps` poses from start (exclusive) to end (inclusive, exact copy)."""
    if steps < 1:
        raise EmptyPlanError(f"cannot interpolate a stage over {steps} steps")
    # Equal (or opposite) ends: every slerp is the lerp q0 + t * 0; Pose.trusted copies it.
    q0, q1 = start.orientation, end.orientation
    fixed = slerp(q0, q1, 0.5) if np.array_equal(q0, q1) or np.array_equal(q0, -q1) else None
    # Waypoint i's t is i / steps; one broadcast per stage makes every (1 - t) * a + t * b.
    t = np.arange(1, steps) / steps
    positions = (1.0 - t)[:, None] * start.position + t[:, None] * end.position
    grippers = (1.0 - t) * start.gripper + t * end.gripper
    poses = [
        Pose.trusted(position, slerp(q0, q1, ti) if fixed is None else fixed, gripper)
        for ti, position, gripper in zip(t.tolist(), positions, grippers.tolist())
    ]
    poses.append(end.copy())
    return poses


def position_distance(p: Pose, q: Pose) -> float:
    """Meters between two poses' positions."""
    return 0.0 if p.position.tolist() == q.position.tolist() else norm(p.position - q.position)


def angle_between(p: Pose, q: Pose) -> float:
    """Radians between two poses' orientations."""
    po = p.orientation.tolist()
    w, x, y, z = q.orientation.tolist()
    if po == [w, x, y, z] or po == [-w, -x, -y, -z]:
        return 0.0
    rel_w, *rel_v = qmul(po, (w, -x, -y, -z))
    return 2.0 * math.atan2(norm(rel_v), abs(rel_w))


def pose_distance(p: Pose, q: Pose) -> tuple:
    """(translational meters, angular radians) distance between two poses."""
    return position_distance(p, q), angle_between(p, q)
