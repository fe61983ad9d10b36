"""Replay-based verification behavior."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from failsafe.config import default_config
from failsafe.errors import FailSafeError
from failsafe.failures import generate_failure_case
from failsafe.geometry import DeltaAction
from failsafe.pipeline import generate_task_entries
from failsafe.recovery import (
    CandidateRecovery,
    collect_candidates,
    deviated_stage,
)
from failsafe.sim import Simulator
from failsafe.tasks import plan_task, rollout_plan
from failsafe.verifier import reverify_entries, step_budget, verify_candidate


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def sim(cfg):
    return Simulator(cfg)


def failure_case(task_id, seed, cfg, sim):
    """Plan the scene and roll its correct plan, then inject and confirm."""
    return generate_failure_case(rollout_plan(*plan_task(task_id, seed, cfg), sim), cfg, sim)


def verify_all(case, candidates, cfg, sim):
    return [verify_candidate(case, c, cfg, sim) for c in candidates]


def case_with_mode(task_id, mode, cfg, sim, start_seed=0):
    for seed in range(start_seed, start_seed + 200):
        case = failure_case(task_id, seed, cfg, sim)
        if case is not None and case.spec.mode == mode:
            return case
    raise AssertionError(f"no {mode} case found for {task_id}")


class TestVerifyCandidate:
    def test_budget_formula(self, cfg):
        assert step_budget(120, cfg) == 150
        assert step_budget(240, cfg) == 300

    def test_good_candidates_verify_and_get_marked(self, cfg, sim):
        case = case_with_mode("pick_cube", "translation", cfg, sim)
        cands = collect_candidates(case, 5)
        results = verify_all(case, cands, cfg, sim)
        assert any(results)
        for cand, ok in zip(cands, results):
            assert cand.verified == ok

    def test_zero_action_fails_at_full_deviation(self, cfg, sim):
        # At the last deviation index the whole shift has accrued, so a
        # do-nothing correction leaves the gripper beside the cube and the
        # resumed tail cannot recover the grasp.
        case = case_with_mode("pick_cube", "translation", cfg, sim)
        *_, d_range, c_range = deviated_stage(case)
        lazy = CandidateRecovery(
            d_index=d_range[-1], c_index=c_range[-1], action=DeltaAction.zero()
        )
        assert verify_candidate(case, lazy, cfg, sim) is False
        assert lazy.verified is False

    def test_reverification_agrees(self, cfg, sim):
        case = case_with_mode("pick_cube", "translation", cfg, sim)
        cands = collect_candidates(case, 5)
        first = verify_all(case, cands, cfg, sim)
        second = verify_all(case, cands, cfg, sim)
        assert first == second

    def test_batch_fraction_sits_strictly_inside_unit_interval(self, cfg, sim):
        results = []
        for task_id in ("pick_cube", "push_cube"):
            for seed in range(12):
                case = failure_case(task_id, seed, cfg, sim)
                if case is None:
                    continue
                cands = collect_candidates(case, 3)
                results.extend(verify_all(case, cands, cfg, sim))
        frac = sum(results) / len(results)
        assert 0.0 < frac < 1.0

    def test_unreachable_correction_times_out(self, cfg, sim):
        case = case_with_mode("pick_cube", "translation", cfg, sim)
        # Far outside the workspace: the clamp stops short of the target,
        # so the transit can never land.
        wild = CandidateRecovery(
            d_index=10,
            c_index=10,
            action=DeltaAction(np.array([5.0, 0.0, 0.0]), np.zeros(3), 0.0),
        )
        assert verify_candidate(case, wild, cfg, sim) is False

    def test_tight_budget_rejects_more(self, cfg, sim):
        case = case_with_mode("pick_cube", "translation", cfg, sim)
        cands = collect_candidates(case, 5)
        normal = sum(verify_all(case, cands, cfg, sim))
        strangled = replace(
            cfg, verifier=replace(cfg.verifier, budget_slack=0.0)
        )
        tight = sum(verify_all(case, cands, strangled, sim))
        assert tight <= normal

    def test_sim_error_counts_as_failure(self, cfg, sim):
        case = case_with_mode("pick_cube", "translation", cfg, sim)
        cands = collect_candidates(case, 5)

        class Tripwire(Simulator):
            def __init__(self, config, blow_after):
                super().__init__(config)
                self.remaining = blow_after

            def step(self, world, target):
                self.remaining -= 1
                if self.remaining < 0:
                    raise FailSafeError("solver fault")
                return super().step(world, target)

        assert verify_candidate(case, cands[0], cfg, Tripwire(cfg, 30)) is False

    def test_no_ops_cases_verify_via_catch_up(self, cfg, sim):
        case = case_with_mode("pick_cube", "no_ops", cfg, sim)
        cands = collect_candidates(case, 5)
        results = verify_all(case, cands, cfg, sim)
        assert any(results)

    @pytest.mark.parametrize(
        "outside",
        [lambda d: d.start - 1, lambda d: d.stop, lambda d: 5000, lambda d: -1, lambda d: -10**6],
        ids=["before", "past", "far_past", "minus_one", "empties_prefix"],
    )
    def test_deviation_index_outside_its_window_is_refused_unreplayed(
        self, cfg, sim, outside, monkeypatch
    ):
        # Candidates that verify in scene 0's pick_cube window. Moved past the window,
        # one replayed from the failed rollout's last world and verified; at -10**6 the
        # empty prefix raised IndexError.
        case = failure_case("pick_cube", 0, cfg, sim)
        drawn = [c for c in collect_candidates(case, 5) if verify_candidate(case, c, cfg, sim)]
        assert drawn
        *_, d_range, _ = deviated_stage(case)

        def no_replay(*args):
            raise AssertionError("replayed a refused candidate")

        monkeypatch.setattr(sim, "drive_to", no_replay)
        monkeypatch.setattr(sim, "drive", no_replay)
        for cand in drawn:
            moved = replace(cand, d_index=outside(d_range), verified=False)
            assert moved.d_index not in d_range
            assert verify_candidate(case, moved, cfg, sim) is False
            assert moved.verified is False


class TestReverifyEntries:
    def test_holds_one_scene_at_a_time(self, cfg, monkeypatch):
        # A file is written sorted, so each (task, seed) is one run of lines: its funnel
        # runs once and its case is let go before the next scene's. Out of order, a line
        # passes only above the last passing line's key: the even lines pass, then of the
        # odd ones only the last, which sorts above them all.
        import failsafe.pipeline

        failures = [e for e in generate_task_entries("pick_cube", range(3, 7), cfg) if e.is_failure]
        scenes = {e.seed for e in failures}
        assert len(scenes) > 1
        made, generate = [], failsafe.pipeline.generate_failure_case

        def tracked(*args):
            gc.collect()
            assert sum(ref() is not None for ref in made) <= 1
            case = generate(*args)
            made.append(weakref.ref(case))
            return case

        monkeypatch.setattr(failsafe.pipeline, "generate_failure_case", tracked)
        assert reverify_entries(failures, cfg) == 1.0
        assert len(made) == len(scenes)
        assert len(failures) % 2 == 0
        reordered = failures[::2] + failures[1::2]
        assert reverify_entries(reordered, cfg) == (len(failures) // 2 + 1) / len(failures)
