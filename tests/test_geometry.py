"""Pose algebra unit tests, cross-checked against scipy's Rotation as an
independent oracle for the RPY conversions."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from failsafe.errors import EmptyPlanError, InvalidPoseError
from failsafe.geometry import (
    DeltaAction,
    Pose,
    apply_delta,
    delta_action,
    interpolate_stage,
    norm,
    pose_distance,
    quat_about_axis,
    quat_conjugate,
    quat_from_rpy,
    quat_multiply,
    quat_rotate,
    quat_to_rpy,
    slerp,
    wrap_angle,
)


def quat_distance(a, b) -> float:
    """Chordal distance min(|a-b|, |a+b|); 0 for identical rotations."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))


def to_scipy(q):
    # scipy uses scalar-last (x, y, z, w)
    return Rotation.from_quat([q[1], q[2], q[3], q[0]])


def from_scipy(r):
    x, y, z, w = r.as_quat()
    return np.array([w, x, y, z])


def random_pose(rng, span=0.5):
    q = rng.normal(size=4)
    return Pose(rng.uniform(-span, span, size=3), q, rng.uniform(0.0, 1.0))


finite_floats = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
quat_components = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def poses(draw):
    position = np.array([draw(finite_floats) for _ in range(3)])
    q = np.array([draw(quat_components) for _ in range(4)])
    assume(float(np.dot(q, q)) > 1e-6)
    gripper = draw(st.floats(0.0, 1.0, allow_nan=False))
    return Pose(position, q, gripper)


def numpy_quat_multiply(a, b):
    """The Hamilton product on numpy scalars, as geometry computed it before
    moving to Python floats: the bit-exact reference."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def numpy_quat_rotate(q, v):
    qv = np.array([0.0, v[0], v[1], v[2]])
    return numpy_quat_multiply(numpy_quat_multiply(q, qv), quat_conjugate(q))[1:]


quats = st.lists(quat_components, min_size=4, max_size=4).map(np.array)
vectors = st.lists(finite_floats, min_size=3, max_size=3).map(np.array)


class TestFloatKernels:
    @settings(max_examples=300)
    @given(quats, quats)
    def test_multiply_matches_numpy_scalars_bit_for_bit(self, a, b):
        assert quat_multiply(a, b).tobytes() == numpy_quat_multiply(a, b).tobytes()

    @settings(max_examples=300)
    @given(quats, vectors)
    def test_rotate_matches_numpy_scalars_bit_for_bit(self, q, v):
        assert quat_rotate(q, v).tobytes() == numpy_quat_rotate(q, v).tobytes()

    @settings(max_examples=100)
    @given(quats, st.lists(vectors, min_size=1, max_size=8))
    def test_rotate_rows_matches_one_vector_at_a_time(self, q, rows):
        rotated = quat_rotate(q, np.array(rows))
        assert rotated.shape == (len(rows), 3)
        for row, v in zip(rotated, rows):
            assert row.tobytes() == numpy_quat_rotate(q, v).tobytes()

    @settings(max_examples=200)
    @given(poses())
    def test_trusted_normalises_exactly_as_the_checked_constructor(self, p):
        raw = np.array([0.3, -0.1, 0.2, 0.9]) * 1.7
        for orientation in (raw, p.orientation * 3.0):
            checked = Pose(p.position, orientation, p.gripper)
            trusted = Pose.trusted(p.position.copy(), orientation, p.gripper)
            assert trusted.position.tobytes() == checked.position.tobytes()
            assert trusted.orientation.tobytes() == checked.orientation.tobytes()
            assert trusted.gripper == checked.gripper


class TestPinnedArithmetic:
    """The trimmed kernels give the bits of the numpy calls they replace."""

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_norm_equals_numpy_norm_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        scales = 10.0 ** rng.integers(-8, 8, size=10_000)
        for v in rng.normal(size=(10_000, size)) * scales[:, None]:
            want = float(np.linalg.norm(v)).hex()
            assert norm(v).hex() == want
            assert norm(v.tolist()).hex() == want

    def test_interpolate_stage_equals_checked_construction(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            start, end = random_pose(rng), random_pose(rng)
            steps = int(rng.integers(1, 40))
            want = [
                Pose(
                    (1.0 - i / steps) * start.position + i / steps * end.position,
                    slerp(start.orientation, end.orientation, i / steps),
                    (1.0 - i / steps) * start.gripper + i / steps * end.gripper,
                )
                for i in range(1, steps)
            ]
            want.append(Pose(end.position.copy(), end.orientation.copy(), end.gripper))
            got = interpolate_stage(start, end, steps)
            assert len(got) == steps
            for a, b in zip(got, want):
                assert a.position.tobytes() == b.position.tobytes()
                assert a.orientation.tobytes() == b.orientation.tobytes()
                assert a.gripper == b.gripper

    @pytest.mark.parametrize("ends", ["equal", "opposite", "general"])
    def test_interpolate_stage_equals_per_waypoint_loop(self, ends):
        """One broadcast per stage gives each waypoint the bytes of its own lerp."""

        def loop(start, end, steps):
            q0, q1 = start.orientation, end.orientation
            equal = np.array_equal(q0, q1) or np.array_equal(q0, -q1)
            fixed = slerp(q0, q1, 0.5) if equal else None
            poses = []
            for i in range(1, steps):
                t = i / steps
                poses.append(
                    Pose.trusted(
                        (1.0 - t) * start.position + t * end.position,
                        slerp(q0, q1, t) if fixed is None else fixed,
                        (1.0 - t) * start.gripper + t * end.gripper,
                    )
                )
            poses.append(end.copy())
            return poses

        rng = np.random.default_rng(19)
        for steps in range(1, 41):
            start, end = random_pose(rng), random_pose(rng)
            if ends != "general":
                end.orientation = (1.0 if ends == "equal" else -1.0) * start.orientation
                assert np.array_equal(np.abs(end.orientation), np.abs(start.orientation))
            got, want = interpolate_stage(start, end, steps), loop(start, end, steps)
            assert len(got) == len(want) == steps
            for a, b in zip(got, want):
                assert a.position.tobytes() == b.position.tobytes()
                assert a.orientation.tobytes() == b.orientation.tobytes()
                assert struct.pack("<d", a.gripper) == struct.pack("<d", b.gripper)

    def test_copy_equals_checked_copy_in_fresh_arrays(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            p = random_pose(rng)
            want = Pose(p.position.copy(), p.orientation.copy(), p.gripper)
            got = p.copy()
            assert got.position.tobytes() == want.position.tobytes()
            assert got.orientation.tobytes() == want.orientation.tobytes()
            assert got.gripper == want.gripper
            before = p.key()
            got.position[0] += 1.0
            got.orientation[0] += 1.0
            assert p.key() == before


class TestWrapAngle:
    def test_in_range_untouched(self):
        assert wrap_angle(0.5) == 0.5
        assert wrap_angle(-0.5) == -0.5
        assert wrap_angle(0.0) == 0.0

    def test_wraps_multiples(self):
        assert abs(wrap_angle(3 * math.pi) - (-math.pi)) < 1e-12
        assert abs(wrap_angle(2 * math.pi)) < 1e-12
        assert abs(wrap_angle(-3.5 * math.pi) - (0.5 * math.pi)) < 1e-12

    @given(st.floats(-100.0, 100.0, allow_nan=False))
    def test_always_lands_in_band(self, a):
        w = wrap_angle(a)
        assert -math.pi <= w <= math.pi
        # same angle modulo 2*pi
        assert abs(math.remainder(w - a, 2.0 * math.pi)) < 1e-9


class TestQuatConversions:
    def test_rpy_round_trip_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            q = rng.normal(size=4)
            q = q / np.linalg.norm(q)
            sinp = 2.0 * (q[0] * q[2] - q[3] * q[1])
            if abs(sinp) > 1.0 - 1e-6:
                continue
            rpy = quat_to_rpy(q)
            expected = to_scipy(q).as_euler("xyz")
            assert np.allclose(rpy, expected, atol=1e-9)

    def test_from_rpy_against_scipy(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            rpy = rng.uniform(-math.pi, math.pi, size=3)
            q = quat_from_rpy(*rpy)
            expected = from_scipy(Rotation.from_euler("xyz", rpy))
            assert quat_distance(q, expected) < 1e-9

    def test_gimbal_lock_pins_yaw_and_keeps_rotation(self):
        # Compositions sitting exactly at pitch = +/- pi/2.
        for pitch_sign in (1.0, -1.0):
            for roll in (0.0, 0.4, -1.1):
                for yaw in (0.0, 0.7, -0.3):
                    q = quat_multiply(
                        quat_about_axis(2, yaw),
                        quat_multiply(
                            quat_about_axis(1, pitch_sign * math.pi / 2.0),
                            quat_about_axis(0, roll),
                        ),
                    )
                    rpy = quat_to_rpy(q)
                    assert rpy[2] == 0.0
                    assert abs(rpy[1] - pitch_sign * math.pi / 2.0) < 1e-9
                    # the reported triple must still represent the same rotation
                    assert quat_distance(quat_from_rpy(*rpy), q) < 1e-6

    def test_z_rotation_angles(self):
        q = quat_about_axis(2, math.pi / 3)
        rpy = quat_to_rpy(q)
        assert np.allclose(rpy, [0.0, 0.0, math.pi / 3], atol=1e-12)

    def test_rpy_has_the_bits_of_numpy_scalar_arithmetic(self):
        """Taken on Python floats, the angles keep every bit they had on numpy scalars."""

        def on_numpy_scalars(q):
            w, x, y, z = q
            sinp = 2.0 * (w * y - z * x)
            if abs(sinp) >= 1.0 - 1e-12:
                return [wrap_angle(2.0 * math.atan2(x, w)), math.copysign(0.5 * math.pi, sinp), 0.0]
            roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
            yaw = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
            return [roll, math.asin(sinp), yaw]

        rng = np.random.default_rng(13)
        locked = quat_multiply(quat_about_axis(1, math.pi / 2.0), quat_about_axis(0, 0.4))
        for q in [locked, *(q / np.linalg.norm(q) for q in rng.normal(size=(2000, 4)))]:
            want = np.array(on_numpy_scalars(q)).tobytes()
            assert quat_to_rpy(q).tobytes() == want
            assert quat_to_rpy(tuple(q.tolist())).tobytes() == want  # any 4-sequence


class TestDeltaAction:
    def test_identity_is_exactly_zero(self):
        p = Pose([0.1, -0.2, 0.3], quat_about_axis(2, 0.7), 0.4)
        a = delta_action(p, p)
        assert np.array_equal(a.d_position, np.zeros(3))
        assert np.array_equal(a.d_rotation, np.zeros(3))
        assert a.d_gripper == 0.0

    def test_pure_translation(self):
        p = Pose([0.0, 0.0, 0.0], [1, 0, 0, 0], 1.0)
        q = Pose([0.05, 0.0, 0.0], [1, 0, 0, 0], 1.0)
        a = delta_action(p, q)
        assert np.allclose(a.d_position, [0.05, 0.0, 0.0], atol=0)
        assert np.array_equal(a.d_rotation, np.zeros(3))
        assert a.d_gripper == 0.0

    def test_relative_z_rotation(self):
        # deviated pose rotated +30 deg about z, corrective pose identity:
        # the correction must rotate -30 deg about z.
        p_d = Pose([0.1, 0.1, 0.1], quat_about_axis(2, math.pi / 6), 1.0)
        p_c = Pose([0.1, 0.1, 0.1], [1, 0, 0, 0], 1.0)
        a = delta_action(p_d, p_c)
        assert np.allclose(a.d_rotation, [0.0, 0.0, -math.pi / 6], atol=1e-9)
        assert np.allclose(a.d_position, np.zeros(3), atol=0)

    def test_relative_rotation_matches_scipy(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = random_pose(rng)
            q = random_pose(rng)
            rel = to_scipy(q.orientation) * to_scipy(p.orientation).inv()
            sinp = 2.0 * float(
                rel.as_quat()[3] * rel.as_quat()[1]
                - rel.as_quat()[2] * rel.as_quat()[0]
            )
            if abs(sinp) > 1.0 - 1e-6:
                continue
            a = delta_action(p, q)
            assert np.allclose(a.d_rotation, rel.as_euler("xyz"), atol=1e-9)

    def test_antisymmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            p = random_pose(rng)
            q = random_pose(rng)
            fwd = delta_action(p, q)
            back = delta_action(q, p)
            assert np.allclose(fwd.d_position, -back.d_position, atol=0)
            assert fwd.d_gripper == pytest.approx(-back.d_gripper, abs=0)

    def test_apply_clamps_gripper(self):
        p = Pose([0.0, 0.0, 0.0], [1, 0, 0, 0], 0.5)
        a = DeltaAction([0.0, 0.0, 0.1], [0.0, 0.0, 0.0], -1.0)
        out = apply_delta(p, a)
        assert out.position[2] == 0.1
        assert out.gripper == 0.0

    def test_zero_action_is_identity(self):
        p = Pose([0.2, -0.1, 0.3], quat_about_axis(0, 0.4), 0.7)
        out = apply_delta(p, DeltaAction.zero())
        assert np.array_equal(out.position, p.position)
        assert quat_distance(out.orientation, p.orientation) == 0.0
        assert out.gripper == p.gripper

    def test_vector_round_trip(self):
        a = DeltaAction([0.01, -0.02, 0.03], [0.1, -0.2, 0.3], -0.5)
        v = a.as_vector()
        b = DeltaAction(v[0:3], v[3:6], v[6])
        assert np.array_equal(v, b.as_vector())
        assert DeltaAction(np.zeros(3), np.zeros(3)).as_vector().tolist() == [0.0] * 7

    def test_rotation_components_always_wrapped(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            a = delta_action(random_pose(rng), random_pose(rng))
            assert np.all(a.d_rotation >= -math.pi)
            assert np.all(a.d_rotation <= math.pi)

    @settings(max_examples=200)
    @given(poses(), poses())
    def test_round_trip_recovers_target(self, p, q):
        q_rel = quat_multiply(q.orientation, quat_conjugate(p.orientation))
        sinp = 2.0 * (q_rel[0] * q_rel[2] - q_rel[3] * q_rel[1])
        assume(abs(sinp) < 1.0 - 1e-6)  # conversion degrades in the lock band
        a = delta_action(p, q)
        out = apply_delta(p, a)
        assert np.allclose(out.position, q.position, atol=1e-9)
        assert quat_distance(out.orientation, q.orientation) < 1e-9
        assert out.gripper == pytest.approx(q.gripper, abs=1e-9)


class TestInterpolateStage:
    def test_single_step_is_end(self):
        start = Pose([0, 0, 0], [1, 0, 0, 0], 0.0)
        end = Pose([0.1, 0.2, 0.3], quat_about_axis(2, 1.0), 1.0)
        seq = interpolate_stage(start, end, 1)
        assert len(seq) == 1
        assert np.array_equal(seq[0].position, end.position)

    def test_zero_steps_rejected(self):
        p = Pose([0, 0, 0], [1, 0, 0, 0], 1.0)
        with pytest.raises(EmptyPlanError):
            interpolate_stage(p, p, 0)

    def test_linear_ramp(self):
        start = Pose([0, 0, 0], [1, 0, 0, 0], 1.0)
        end = Pose([0, 0, 0.1], [1, 0, 0, 0], 1.0)
        seq = interpolate_stage(start, end, 10)
        zs = [p.position[2] for p in seq]
        assert np.allclose(zs, [0.01 * i for i in range(1, 11)], atol=1e-12)

    def test_final_element_is_exact_end(self):
        rng = np.random.default_rng(31)
        start = random_pose(rng)
        end = random_pose(rng)
        seq = interpolate_stage(start, end, 17)
        assert len(seq) == 17
        assert np.array_equal(seq[-1].position, end.position)
        assert np.array_equal(seq[-1].orientation, end.orientation)
        assert seq[-1].gripper == end.gripper

    def test_angular_distance_monotone_to_end(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            start = random_pose(rng)
            end = random_pose(rng)
            seq = interpolate_stage(start, end, 25)
            dists = [pose_distance(p, end)[1] for p in seq]
            for a, b in zip(dists, dists[1:]):
                assert b <= a + 1e-9

    def test_shorter_arc_midpoint_half_angle(self):
        # q1 is given on the far hemisphere; slerp must flip it and take
        # the short way around.
        q0 = quat_about_axis(2, 0.2)
        q1 = -quat_about_axis(2, 1.0)
        rel = 0.8  # short-arc relative angle
        mid = slerp(q0, q1, 0.5)
        p0 = Pose([0, 0, 0], q0, 1.0)
        pm = Pose([0, 0, 0], mid, 1.0)
        assert pose_distance(p0, pm)[1] == pytest.approx(rel / 2, abs=1e-9)

    def test_slerp_endpoints(self):
        rng = np.random.default_rng(33)
        q0 = rng.normal(size=4)
        q0 /= np.linalg.norm(q0)
        q1 = rng.normal(size=4)
        q1 /= np.linalg.norm(q1)
        assert quat_distance(slerp(q0, q1, 0.0), q0) < 1e-12
        assert quat_distance(slerp(q0, q1, 1.0), q1) < 1e-12


class TestPoseDistance:
    def test_same_pose_exact_zero(self):
        p = Pose([0.1, 0.2, 0.3], quat_about_axis(1, 0.5), 0.5)
        assert pose_distance(p, p) == (0.0, 0.0)

    def test_three_four_five(self):
        p = Pose([0.0, 0.0, 0.0], [1, 0, 0, 0], 1.0)
        q = Pose([0.003, 0.004, 0.0], [1, 0, 0, 0], 1.0)
        t, _ = pose_distance(p, q)
        assert t == pytest.approx(0.005, abs=1e-15)

    def test_quarter_turn(self):
        p = Pose([0, 0, 0], [1, 0, 0, 0], 1.0)
        q = Pose([0, 0, 0], quat_about_axis(2, math.pi / 2), 1.0)
        _, a = pose_distance(p, q)
        assert a == pytest.approx(math.pi / 2, abs=1e-9)

    def test_signed_zeros_count_as_equal(self):
        p = Pose([0.0, 0.1, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0)
        q = Pose([-0.0, 0.1, -0.0], [1.0, -0.0, 0.0, -0.0], 1.0)
        assert pose_distance(p, q) == (0.0, 0.0)
        q.orientation = -p.orientation
        assert pose_distance(p, q) == (0.0, 0.0)

    def test_symmetric(self):
        rng = np.random.default_rng(41)
        p = random_pose(rng)
        q = random_pose(rng)
        assert pose_distance(p, q) == pose_distance(q, p)


class TestPoseValidation:
    def test_rejects_zero_quaternion(self):
        with pytest.raises(InvalidPoseError):
            Pose([0, 0, 0], [0, 0, 0, 0], 1.0)

    def test_rejects_non_finite_position(self):
        with pytest.raises(InvalidPoseError):
            Pose([float("nan"), 0, 0], [1, 0, 0, 0], 1.0)

    def test_rejects_out_of_range_gripper(self):
        with pytest.raises(InvalidPoseError):
            Pose([0, 0, 0], [1, 0, 0, 0], 1.5)
        with pytest.raises(InvalidPoseError):
            Pose([0, 0, 0], [1, 0, 0, 0], -0.2)

    def test_normalizes_orientation(self):
        p = Pose([0, 0, 0], [2.0, 0.0, 0.0, 0.0], 1.0)
        assert np.allclose(p.orientation, [1, 0, 0, 0], atol=0)

    def test_rejects_bad_delta_gripper(self):
        with pytest.raises(InvalidPoseError):
            DeltaAction([0, 0, 0], [0, 0, 0], 1.5)
