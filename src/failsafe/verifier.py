"""Executable verification of recovery candidates.

A candidate is verified by replaying it, not by inspecting it. The failure
case's failed rollout is the replay of the failure up to the deviation
point; from the world recorded there, drive the arm through the
candidate's delta until the simulator lands on the corrected pose, then
hand control back to the correct plan's recorded commands from the first
post-window waypoint of the deviated stage onward.
The candidate passes only if the task's success check holds at the end and
the whole replay, failed prefix included, fits the step budget.

Replay is deterministic, so verifying twice always agrees.
"""

import math

from .config import Config
from .dataset import build_entry, observer
from .errors import FailSafeError
from .failures import generate_failure_case
from .geometry import apply_delta
from .recovery import CORRECTION_TAIL, CandidateRecovery, candidate_index_ranges, collect_candidates
from .sim import Simulator
from .tasks import plan_task, rollout_plan


def step_budget(nominal_steps: int, cfg: Config) -> int:
    return math.ceil(nominal_steps * (1.0 + cfg.verifier.budget_slack))


def verify_candidate(case, candidate: CandidateRecovery, cfg: Config, sim: Simulator) -> bool:
    """Replay one candidate from the deviation point. Marks and returns success.

    A deviation index outside the case's window is refused without a replay."""
    if candidate.d_index not in candidate_index_ranges(case)[0]:
        return False
    budget = step_budget(len(case.correct.commands), cfg)
    idx = case.spec.stage_index
    failed_start, _ = case.failed.stage_bounds(idx)
    correct_start, _ = case.correct.stage_bounds(idx)
    global_d = failed_start + candidate.d_index
    # First command index past the correction window: segment length - 3.
    resume_local = case.correct.stage_length(idx) - CORRECTION_TAIL + 1

    # The failure, exactly as recorded, up to the deviation point.
    steps = global_d + 1
    if steps > budget:
        return False
    world = case.failed.worlds[global_d]
    try:
        # The candidate's correction, driven until the arm arrives.
        target = apply_delta(world.ee_pose, candidate.action)
        transit, arrived = sim.drive_to(
            world, target, min(budget - steps, cfg.verifier.max_transit_steps)
        )
        if not arrived:
            return False
        steps += len(transit)
        world = transit[-1] if transit else world

        # The correct plan takes over at its normal one-step-per-waypoint
        # cadence; a correction the arm cannot track from fails here.
        resume = case.correct.commands[correct_start + resume_local :]
        if steps + len(resume) > budget:
            return False
        worlds = sim.drive(world, resume)
        ok = sim.evaluate_success(worlds[-1] if worlds else world, case.correct.plan.task_id)
    except FailSafeError:
        return False
    if ok:
        candidate.verified = True
    return ok


def reverify_entries(entries, cfg: Config) -> float:
    """Re-replay every exported failure recovery; returns the passing fraction.

    Each failure line's case is regenerated from config + its (task, seed): planned and
    rolled once per run of lines with one (task, seed), only that case held (files are
    written sorted). A line passes only when its window indices are a candidate the case
    draws, that drawn candidate verifies again, and build_entry gives it the line's labels.
    Anything else counts as failed rather than raising: the point is to distrust the file.
    """
    failures = [e for e in entries if e.is_failure]
    if not failures:
        return 1.0
    sim = Simulator(cfg)
    key = None
    passed = 0
    for entry in failures:
        if (entry.task_id, entry.seed) != key:
            key = entry.task_id, entry.seed
            frame = observer(sim)
            case = generate_failure_case(rollout_plan(*plan_task(*key, cfg), sim), cfg, sim)
            candidates = collect_candidates(case, cfg.dataset.candidates_per_case) if case else []
            drawn = {(c.d_index, c.c_index): c for c in candidates}
        candidate = drawn.get((entry.provenance["d_index"], entry.provenance["c_index"]))
        if (
            candidate is not None  # a missing case draws none
            and verify_candidate(case, candidate, cfg, sim)
            and build_entry(case, candidate, frame).labels() == entry.labels()
        ):
            passed += 1
    return passed / len(failures)
