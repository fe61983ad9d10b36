"""Windowing rules and candidate collection."""

import types

import numpy as np
import pytest

from failsafe.config import default_config
from failsafe.geometry import IDENTITY_QUAT, Pose, delta_action
from failsafe.recovery import (
    CandidateRecovery,
    collect_candidates,
    even_subsample,
    window_ranges,
)
from failsafe.failures import generate_failure_case
from failsafe.sim import Simulator, WorldState
from failsafe.tasks import Trajectory, plan_task, rollout_plan


@pytest.fixture(scope="module")
def cfg():
    return default_config()


def failure_case(task_id, seed, cfg, sim):
    """Plan the scene and roll its correct plan, then inject and confirm."""
    return generate_failure_case(rollout_plan(*plan_task(task_id, seed, cfg), sim), cfg, sim)


@pytest.fixture(scope="module")
def pick_case(cfg):
    return failure_case("pick_cube", 4, cfg, Simulator(cfg))


class TestWindowRanges:
    def test_minimal_lengths(self):
        d, c = window_ranges(11, 15)
        assert list(d) == [10]
        assert list(c) == [10, 11]

    def test_plain_lengths(self):
        d, c = window_ranges(40, 40)
        assert d == range(10, 40)
        assert c == range(10, 37)  # inclusive upper bound 36

    def test_short_failed_segment_is_empty(self):
        d, c = window_ranges(10, 40)
        assert len(d) == 0 and len(c) == 0

    def test_short_correct_segment_is_empty(self):
        d, c = window_ranges(40, 14)
        assert len(d) == 0 and len(c) == 0

    def test_random_lengths_match_the_rule(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            lf = int(rng.integers(0, 80))
            lc = int(rng.integers(0, 80))
            d, c = window_ranges(lf, lc)
            if lf >= 11 and lc >= 15:
                assert d == range(10, lf)
                assert c == range(10, lc - 3)
            else:
                assert len(d) == 0 and len(c) == 0


class TestEvenSubsample:
    def test_k_one_keeps_the_first(self):
        assert even_subsample(range(10, 40), 1) == [10]

    def test_small_input_passes_through(self):
        assert even_subsample([4, 5, 6], 5) == [4, 5, 6]

    def test_spread_is_even_and_ordered(self):
        vals = list(range(100, 127))
        out = even_subsample(vals, 5)
        assert out == [vals[(i * 27) // 5] for i in range(5)]
        assert out == sorted(out)
        assert len(out) == 5
        assert out[0] == 100


def line_trajectory(n, x_offset=0.0):
    """n steps walking +y in a single stage; optionally shifted in x."""
    commands = tuple(
        Pose(np.array([x_offset, 0.002 * i, 0.1]), IDENTITY_QUAT, 0.5) for i in range(n)
    )
    return Trajectory(
        # stands in for a one-stage Plan
        plan=types.SimpleNamespace(task_id="pick_cube", seed=0, stage_ends=(n,)),
        start=WorldState(ee_pose=commands[0], placed={}),
        commands=commands,
        worlds=tuple(WorldState(ee_pose=pose, placed={}) for pose in commands),
    )


def offset_case(n=40, x_offset=0.05):
    spec = types.SimpleNamespace(stage_index=0)
    return types.SimpleNamespace(
        spec=spec,
        failed=line_trajectory(n, x_offset=x_offset),
        correct=line_trajectory(n),
    )


class TestCollectCandidates:
    def test_deterministic(self, pick_case):
        a = collect_candidates(pick_case, 5)
        b = collect_candidates(pick_case, 5)
        assert [(c.d_index, c.c_index) for c in a] == [
            (c.d_index, c.c_index) for c in b
        ]
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.action.as_vector(), cb.action.as_vector())

    def test_indices_stay_in_their_windows(self, pick_case):
        idx = pick_case.spec.stage_index
        lf = pick_case.failed.stage_length(idx)
        lc = pick_case.correct.stage_length(idx)
        for k in (1, 3, 5, 9):
            cands = collect_candidates(pick_case, k)
            assert 0 < len(cands) <= k
            d_seen = [c.d_index for c in cands]
            assert d_seen == sorted(d_seen)
            for cand in cands:
                assert 10 <= cand.d_index <= lf - 1
                assert 10 <= cand.c_index <= lc - 4
                assert not cand.verified

    def test_k_one_starts_at_the_window_floor(self, pick_case):
        cands = collect_candidates(pick_case, 1)
        assert len(cands) == 1
        assert cands[0].d_index == 10

    def test_congruent_offset_inverts_the_perturbation(self):
        case = offset_case(x_offset=0.05)
        # Synchronized indices on otherwise congruent trajectories: the
        # action is exactly the negated offset with no rotation.
        for j in (10, 20, 39):
            pd = case.failed.worlds[j].ee_pose
            pc = case.correct.worlds[j].ee_pose
            action = delta_action(pd, pc)
            assert action.d_position[0] == pytest.approx(-0.05, abs=1e-9)
            assert action.d_position[1:] == pytest.approx([0.0, 0.0], abs=1e-12)
            assert np.all(np.abs(action.d_rotation) < 1e-12)
            assert action.d_gripper == 0.0

    def test_collected_actions_point_from_failed_to_correct(self):
        case = offset_case()
        cands = collect_candidates(case, 5)
        assert cands
        for cand in cands:
            assert cand.action.d_position[0] == pytest.approx(-0.05, abs=1e-9)

    def test_short_segment_yields_nothing(self):
        case = offset_case(n=12)  # correct segment below the 15-step floor
        assert collect_candidates(case, 5) == []

    def test_candidate_dataclass_roundtrip(self):
        cand = CandidateRecovery(10, 12, delta_action(
            Pose(np.zeros(3), IDENTITY_QUAT, 1.0),
            Pose(np.array([0.01, 0.0, 0.0]), IDENTITY_QUAT, 1.0),
        ))
        vec = cand.action.as_vector()
        assert vec.shape == (7,)
        assert vec[0] == pytest.approx(0.01)
