"""Executable verification of recovery candidates.

A candidate is verified by replaying it, not by inspecting it. The failure
case's failed rollout is the replay of the failure up to the deviation
point; from the world recorded there, drive the arm through the
candidate's delta until the simulator lands on the corrected pose, then
hand control back to the correct plan's recorded commands from the first
post-window waypoint of the deviated stage onward.
The candidate passes only if the task's success check holds at the end and
the whole replay, failed prefix included, fits the step budget.

Replay is deterministic, so verifying twice always agrees. Re-verifying a
file is the seed funnel run again: a line passes only when the funnel of its
(task, seed) under config makes it, in that place. That is not all `generate`
checks: enforce_ratio thins success windows over the run's whole seed list,
which the file does not carry, so a window it dropped, put back, passes. Only
the manifest's dataset_sha256 catches that.
"""

import math

from .config import Config
from .dataset import sort_key
from .errors import FailSafeError
from .geometry import apply_delta
from .recovery import CandidateRecovery, deviated_stage
from .sim import Simulator


def step_budget(nominal_steps: int, cfg: Config) -> int:
    return math.ceil(nominal_steps * (1.0 + cfg.verifier.budget_slack))


def verify_candidate(case, candidate: CandidateRecovery, cfg: Config, sim: Simulator) -> bool:
    """Replay one candidate from the deviation point. Marks and returns success.

    A deviation index outside the case's window is refused without a replay."""
    start, d_range, c_range = deviated_stage(case)
    if candidate.d_index not in d_range:
        return False
    budget = step_budget(len(case.correct.commands), cfg)
    global_d = start + candidate.d_index

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

        # The correct plan takes over past the correction window, one step per
        # waypoint; a correction the arm cannot track from fails here.
        resume = case.correct.commands[start + c_range.stop :]
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
    """Re-run the seed funnel for every line; returns the passing fraction.

    Files are written in canonical order, so a line passes only when its sort key is
    above the last passing line's and its labels equal those the seed funnel gives the
    entry with that key: a repeated, moved or edited line fails, and costs only itself.
    A success window that ratio thinning dropped is made by the funnel, so it passes. A
    scene is rebuilt, holding only labels, when the (task, seed) prefix changes.
    Anything else counts as failed rather than raising: the point is to distrust the file.
    """
    from .pipeline import build_seed_entries  # pipeline imports this module

    passed, last, scene, written = 0, (), None, {}
    for entry in entries:
        key = sort_key(entry)
        if key[:2] != scene:
            scene = key[:2]
            written = {sort_key(e): e.labels() for e in build_seed_entries(*scene, cfg)}
        if key > last and written.get(key) == entry.labels():
            passed, last = passed + 1, key
    return passed / len(entries) if entries else 1.0
