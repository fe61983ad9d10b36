"""Supervised execution: a fault-prone executor checked at a fixed cadence.

One episode loop runs the command stream of its unassisted rollout (the scene's correct
rollout, perturbed by an optional online fault), taking that rollout's worlds until the
assistant first steps in. Every `cfg.supervisor.cadence` steps an assistant reads a tuple
of the last ten frames (each part made when read) and may inject a corrective end-effector
command; the loop drives it to arrival, resyncs its cursor, and hands control back.
evaluate_assistant scores assistants offline.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import Config
from .dataset import WINDOW_FRAMES, DatasetEntry
from .errors import ContractViolation, MetricsError
from .failures import FailureSpec, first_failure, onset_step, runs_unassisted
from .geometry import (
    DeltaAction, Pose, apply_delta, delta_action, norm, pose_distance, position_distance,
)
from .recovery import CORRECTION_TAIL, DEVIATION_MARGIN
from .sim import Simulator
from .tasks import Plan, Trajectory

# Spread below which the last-10 end-effector history counts as stalled.
FROZEN_EPS = 1e-9
# Fault draws per scene before its harness fault counts as unconfirmable.
MAX_FAULT_DRAWS = 20


@dataclass
class AssistantDecision:
    """One consultation's answer. A failure verdict must carry its fix."""

    sub_task: str
    is_failure: bool
    failure_type: tuple | None = None  # (mode, axis)
    recovery: DeltaAction | None = None

    def __post_init__(self):
        if self.is_failure != (self.recovery is not None):
            raise ContractViolation(
                "is_failure and the presence of a recovery action must agree"
            )


@dataclass(frozen=True)
class EpisodeResult:
    success: bool
    interventions: int
    trace: tuple  # EE pose per step, index 0 = initial pose
    transit_mask: tuple  # per trace row: was this step part of an intervention

    @property
    def total_steps(self) -> int:
        return len(self.trace) - 1


@dataclass(frozen=True)
class Metrics:
    """Averages over an evaluation set; cosine covers failure entries only."""

    binary_success: float
    type_accuracy: float
    mean_cosine: float


def resync(commands, cursor: int, ee: Pose, cfg: Config) -> int:
    """The cursor past the stream run the arm now sits on.

    Scans forward from the cursor for the first upcoming waypoint whose
    position and grip are within the resume tolerances, walks the
    consecutive run of such matches, and resumes after the closest one. Ties
    resolve forward so a block of identical hold waypoints is consumed whole.
    Orientation is deliberately not part of the match: an orientation fault
    leaves stream positions intact, and the cursor must still advance past
    them once the arm is back on the line. No match returns the cursor
    unchanged, so the stream continues where it left off.
    """
    sup = cfg.supervisor
    best = None  # (index, gap) of the closest match in the run so far
    for j in range(cursor, len(commands)):
        command = commands[j]
        gap = position_distance(ee, command)
        if gap <= sup.resume_pos_tol and abs(ee.gripper - command.gripper) <= sup.resume_grip_tol:
            if best is None or gap <= best[1]:
                best = j, gap
        elif best is not None:
            break  # the run of matches ended
    return cursor if best is None else best[0] + 1


def episode_budget(plan: Plan, cfg: Config) -> int:
    """Steps an episode may run: the nominal stream with its slack, then the settle holds."""
    sup = cfg.supervisor
    return math.ceil(plan.total_steps() * (1.0 + sup.budget_slack)) + sup.settle_steps


def sample_harness_fault(correct: Trajectory, cfg: Config, sim: Simulator) -> tuple:
    """(fault, success, rollout): the episode's confirmed online fault and the unassisted
    run of its stream, the rollout the episode resumes.

    Up to MAX_FAULT_DRAWS draws are confirmed by failures.first_failure under the episode's
    budget and settle holds, lent the worlds of `correct`, the scene's correct rollout, so
    a "perturbed policy" seed really is a failing seed. When the task has no configured
    faults or no draw broke anything, the fault is None and the run is the bare plan's.
    """
    sup, plan = cfg.supervisor, correct.plan
    budget = episode_budget(plan, cfg)
    faults = sup.faults.get(plan.task_id, ())
    case = first_failure(correct, faults, "harness", MAX_FAULT_DRAWS, budget, sup.settle_steps, sim)
    if case is not None:
        return case.spec, False, case.failed
    return (None, *runs_unassisted(correct, None, budget, sup.settle_steps, sim))


@dataclass
class EpisodeContext:
    """What a ground-truth-aware assistant may consult during an episode."""

    fault: FailureSpec | None
    correct: Trajectory
    cfg: Config

    def __post_init__(self):
        poses = [w.ee_pose for w in self.correct.worlds]
        self._positions = np.stack([p.position for p in poses])
        self._orientations = np.stack([p.orientation for p in poses])

    def off_path(self, ee: Pose) -> bool:
        """True when no nominal frame sits near the pose (gripper ignored)."""
        sup = self.cfg.supervisor
        gaps = np.linalg.norm(self._positions - ee.position, axis=1)
        near = gaps <= sup.detect_pos_tol
        if not near.any():
            return True
        dots = np.abs(self._orientations[near] @ ee.orientation)
        angles = 2.0 * np.arccos(np.clip(dots, -1.0, 1.0))
        return not (angles <= sup.detect_ang_tol).any()


def null_assistant(frames, context) -> AssistantDecision:
    """The floor: always reports smooth sailing."""
    return AssistantDecision(sub_task=_context_stage(frames, context), is_failure=False)


def oracle_assistant_decide(frames, ground_truth) -> AssistantDecision:
    """Ground-truth-backed assistant.

    On a labeled dataset entry it echoes the stored label. During an episode
    it watches the frame window: before the fault can have any effect (or
    with the arm already at the final pose) it stays quiet; a frozen window
    flags a stall; a pose no nominal frame explains flags the injected
    deviation. Detections answer with the true failure type and a corrective
    action pointing a few waypoints ahead on the nominal trajectory.
    """
    if isinstance(ground_truth, DatasetEntry):
        entry = ground_truth
        return AssistantDecision(
            sub_task=entry.sub_task,
            is_failure=entry.is_failure,
            failure_type=entry.failure_type,
            recovery=entry.recovery,
        )
    context, step = ground_truth, frames[-1].step
    stage = context.correct.stage_at(step)
    first, _ = context.correct.stage_bounds(stage)
    name = context.correct.plan.stage_names[stage]
    quiet = AssistantDecision(sub_task=name, is_failure=False)
    if context.fault is None or step < onset_step(context.fault, context.correct):
        return quiet
    ee = frames[-1].ee_pose
    # Effectively-done gate. Kept tighter than any task's success margin
    # (the slimmest is pick's ~5.6 mm of lift headroom) so a stall that
    # parks the arm just shy of done still gets flagged.
    done = context.correct.worlds[-1].ee_pose
    translational, angular = pose_distance(ee, done)
    if translational <= 0.004 and angular <= 0.05 and abs(ee.gripper - done.gripper) <= 0.05:
        return quiet
    if not context.off_path(ee) and not _window_frozen(frames):  # path: one frame; stall: ten
        return quiet
    lead = context.cfg.supervisor.recovery_lead
    length = context.correct.stage_length(stage)
    c_star = max(DEVIATION_MARGIN, min(step - first + lead, length - CORRECTION_TAIL))
    target = context.correct.worlds[first + c_star].ee_pose
    return AssistantDecision(
        sub_task=name,
        is_failure=True,
        failure_type=(context.fault.mode, context.fault.axis),
        recovery=delta_action(ee, target),
    )


def _window_frozen(frames) -> bool:
    if len(frames) < WINDOW_FRAMES:
        return False
    positions = np.stack([f.ee_pose.position for f in frames[-WINDOW_FRAMES:]])
    grippers = [f.ee_pose.gripper for f in frames[-WINDOW_FRAMES:]]
    spread = norm(positions.max(axis=0) - positions.min(axis=0))
    return spread <= FROZEN_EPS and max(grippers) - min(grippers) <= FROZEN_EPS


def _context_stage(frames, context) -> str:
    if isinstance(context, DatasetEntry):
        return context.sub_task
    return context.correct.plan.stage_names[context.correct.stage_at(frames[-1].step)]


def run_supervised_episode(
    correct: Trajectory,
    fault: FailureSpec | None,
    unassisted: Trajectory,
    assistant,
    cfg: Config,
    sim: Simulator,
) -> EpisodeResult:
    """Execute one episode of the scene from `correct`'s start, its stream perturbed by
    the fault if one is given, consulting the assistant every cfg.supervisor.cadence steps.

    `correct`, the scene's correct rollout, is the assistant's nominal reference.
    `unassisted` is the rollout of the episode's own stream, as sample_harness_fault
    returns it: the episode runs its commands and takes its worlds until the assistant
    first steps in.
    The assistant is any callable(frames, context) -> AssistantDecision; an exception
    from it is logged and treated as "no failure" (fail-open). Its window is a tuple of
    frames, each world observed at most once and each frame part made only if read. An
    intervention's transit pauses the stream and consultations until the arm lands and
    the cursor re-syncs.
    """
    cadence = cfg.supervisor.cadence
    plan = correct.plan
    context = EpisodeContext(fault, correct, cfg)
    commands, lent = unassisted.commands, unassisted.worlds
    cursor = 0  # next stream command to run; the steps run, until an intervention
    budget = episode_budget(plan, cfg)

    worlds = [correct.start]  # index = steps run, the last is now; the trace is their EE poses
    transit_mask = [False]
    frame = functools.cache(lambda i: sim.observe(worlds[i], i))  # each world observed at most once
    interventions = 0

    def record(stepped, transit):
        worlds.extend(stepped)
        transit_mask.extend([transit] * len(stepped))

    while len(worlds) - 1 < budget and cursor < len(commands):
        total = len(worlds) - 1
        if total > 0 and total % cadence == 0:
            try:
                decision = assistant(tuple(map(frame, range(total + 1)[-WINDOW_FRAMES:])), context)
            except Exception as exc:  # fail-open: the baseline is the floor
                print(
                    f"assistant error at step {total} ({plan.task_id} seed {plan.seed}): {exc}",
                    file=sys.stderr,
                )
                decision = None
            if decision is not None and decision.is_failure:
                target = apply_delta(worlds[-1].ee_pose, decision.recovery)
                interventions += 1
                # An intervention always moves at least once, then drives
                # to arrival within what is left of the budget.
                record([sim.step(worlds[-1], target)], True)
                stepped, arrived = sim.drive_to(worlds[-1], target, budget - total - 1)
                record(stepped, True)
                if arrived:
                    cursor = resync(commands, cursor, worlds[-1].ee_pose, cfg)
                continue
        # The stream runs on until the next consultation.
        run = min(cadence - total % cadence, budget - total)
        ready = [] if interventions else lent[cursor : cursor + run]  # as it ran unassisted
        record(ready, False)
        record(sim.drive(worlds[-1], commands[cursor + len(ready) : cursor + run]), False)
        cursor += run

    # Plan exhausted (or budget hit): hold position briefly, then judge.
    holds = [worlds[-1].ee_pose.copy()] * min(cfg.supervisor.settle_steps, budget + 1 - len(worlds))
    record(sim.drive(worlds[-1], holds), False)

    return EpisodeResult(
        success=sim.evaluate_success(worlds[-1], plan.task_id),
        interventions=interventions,
        trace=tuple(w.ee_pose for w in worlds),
        transit_mask=tuple(transit_mask),
    )


def evaluate_assistant(assistant, entries) -> Metrics:
    """Score an assistant against labeled entries.

    binary_success: failure-vs-success agreement rate. type_accuracy: exact
    (mode, axis) match on failure entries, correct abstention on success
    entries. mean_cosine: cosine between predicted and labeled recovery
    vectors, averaged over failure entries; a missing prediction, or a zero
    prediction against a nonzero label, scores 0.0 there, and a zero
    prediction matching a zero label scores 1.0.
    """
    entries = list(entries)
    if not entries:
        raise MetricsError("cannot evaluate an assistant on an empty entry set")
    binary = 0
    typed = 0
    cosines = []
    for entry in entries:
        decision = assistant(entry.frames, entry)
        if decision.is_failure == entry.is_failure:
            binary += 1
        if entry.is_failure:
            if decision.is_failure and decision.failure_type == entry.failure_type:
                typed += 1
            cosines.append(_recovery_cosine(decision.recovery, entry.recovery))
        else:
            if not decision.is_failure:
                typed += 1
    return Metrics(
        binary_success=binary / len(entries),
        type_accuracy=typed / len(entries),
        mean_cosine=sum(cosines) / len(cosines) if cosines else 0.0,
    )


def _recovery_cosine(predicted: DeltaAction | None, labeled: DeltaAction) -> float:
    if predicted is None:
        return 0.0
    a = predicted.as_vector()
    b = labeled.as_vector()
    na = norm(a)
    nb = norm(b)
    if na == 0.0 and nb == 0.0:
        # A zero label arises when the deviated pose already sits on the
        # matched corrective pose (a stall retraces the correct path, only
        # late). Predicting exactly that zero action is a perfect answer,
        # not an abstention.
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (na * nb)
