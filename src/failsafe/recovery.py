"""Recovery candidate collection.

A candidate pairs a pose Pd on the failed trajectory's deviated segment
with a pose Pc on the matching segment of the correct trajectory and
stores the 7-dof delta that would move the arm from Pd to Pc. Both indices
are segment-local. Deviation points are traversed in order with an even
subsample; the correction point for each is drawn uniformly from the
eligible window.
"""

from dataclasses import dataclass

from .errors import ContractViolation
from .geometry import DeltaAction, delta_action
from .seeding import seed_stream

# Segment-local window bounds: a deviation index starts this many steps
# into the failed segment, and a correction index keeps this many steps of
# clearance before the correct segment's end.
DEVIATION_MARGIN = 10
CORRECTION_TAIL = 4


def window_ranges(failed_len: int, correct_len: int) -> tuple:
    """Eligible (deviation, correction) index ranges for segment lengths.

    Deviation indices run [10, failed_len - 1] and corrections
    [10, correct_len - 4], segment-local. Segments too short to fit both
    margins yield empty ranges.
    """
    if failed_len < DEVIATION_MARGIN + 1 or correct_len < DEVIATION_MARGIN + CORRECTION_TAIL + 1:
        return range(0), range(0)
    return (
        range(DEVIATION_MARGIN, failed_len),
        range(DEVIATION_MARGIN, correct_len - CORRECTION_TAIL + 1),
    )


def even_subsample(values, k: int) -> list:
    """At most k values, evenly spread, order preserved, first included."""
    if k < 1:
        raise ContractViolation("subsample size must be >= 1")
    values = list(values)
    if len(values) <= k:
        return values
    return [values[(i * len(values)) // k] for i in range(k)]


@dataclass
class CandidateRecovery:
    """One Pd -> Pc correction proposal; verified is set by replay."""

    d_index: int  # segment-local, failed trajectory
    c_index: int  # segment-local, correct trajectory
    action: DeltaAction
    verified: bool = False


def deviated_stage(case) -> tuple:
    """(start, d_range, c_range) of a failure case's deviated stage: its first step and
    its window ranges.

    The stages before it are the same in both plans, so it starts at the same step on the
    failed and on the correct rollout, and the failed rollout, cut at the nominal step
    count, always reaches it."""
    idx = case.spec.stage_index
    start, f_last = case.failed.stage_bounds(idx)
    return start, *window_ranges(f_last - start + 1, case.correct.stage_length(idx))


def collect_candidates(case, k: int) -> list:
    """Propose up to k recovery candidates for a confirmed failure case.

    Deterministic in (the correct plan's task and seed, k). Returns [] when the deviated
    segment is too short to host a window.
    """
    start, d_range, c_range = deviated_stage(case)
    if len(d_range) == 0 or len(c_range) == 0:
        return []
    rng = seed_stream("candidates", case.correct.plan.task_id, case.correct.plan.seed)
    out = []
    for d_index in even_subsample(d_range, k):
        c_index = int(rng.integers(c_range.start, c_range.stop))
        pd = case.failed.worlds[start + d_index].ee_pose
        pc = case.correct.worlds[start + c_index].ee_pose
        out.append(
            CandidateRecovery(
                d_index=d_index,
                c_index=c_index,
                action=delta_action(pd, pc),
            )
        )
    return out
