"""Failure injection: perturb exactly one stage of a correct plan and keep
the cases whose rollout actually fails.

Three perturbation families:

  translation - the stage target shifts along one world axis
  rotation    - the stage target orientation is pre-multiplied by a signed
                rotation about one world axis
  no_ops      - duration hold frames are inserted at a step inside the
                stage, stretching it without moving the target

A fault is drawn and confirmed in one place, first_failure; runs_unassisted
rolls each draw's plan under a step budget (the unperturbed plan's for a
failure case, the episode's for an online fault), holds still for any settle
steps, and judges the last world once. A stretched plan that runs out of time
fails the same way a geometrically broken one does. Perturbations whose rollout
still succeeds are discarded; those seeds only contribute ground-truth windows.

The caller rolls the scene's correct plan once; the failure case and the
ground-truth windows share that rollout, judged once in generate_failure_case.
Up to onset_step, the first command the perturbation changes, the perturbed
rollout is the correct one's commands and worlds; only the rest is stepped.
"""

from dataclasses import dataclass, replace as dc_replace

from .config import Config, FailureEntry
from .errors import ContractViolation
from .geometry import ROTATION_AXES, TRANSLATION_AXES, Pose, quat_about_axis, quat_multiply
from .seeding import seed_stream
from .sim import Simulator
from .tasks import Plan, Stage, Trajectory, rollout_plan


@dataclass(frozen=True)
class FailureSpec:
    """One sampled perturbation, fully resolved against a concrete plan."""

    mode: str
    axis: str | None
    magnitude: float  # signed; no_ops stores the integer duration
    stage_index: int
    insertion_step: int | None = None  # no_ops only


@dataclass(frozen=True)
class FailureCase:
    """A confirmed failure: the correct rollout, the failed one, and the
    perturbation that separates them."""

    spec: FailureSpec
    correct: Trajectory
    failed: Trajectory


def perturb_stage(plan: Plan, spec: FailureSpec) -> Plan:
    """A copy of the plan with exactly one stage altered per the spec: whichever
    stage the plan has at the spec's index (IndexError outside [0, len(plan.stages)))."""
    if not 0 <= spec.stage_index < len(plan.stages):  # as Trajectory.stage_bounds refuses it
        raise IndexError(f"stage {spec.stage_index} not in plan")
    stage = plan.stages[spec.stage_index]
    if spec.mode == "translation":
        shifted = stage.target.position.copy()
        shifted[TRANSLATION_AXES.index(spec.axis)] += spec.magnitude
        target = Pose(shifted, stage.target.orientation.copy(), stage.target.gripper)
        new_stage = dc_replace(stage, target=target)
    elif spec.mode == "rotation":
        twist = quat_about_axis(ROTATION_AXES.index(spec.axis), spec.magnitude)
        target = Pose(
            stage.target.position.copy(),
            quat_multiply(twist, stage.target.orientation),
            stage.target.gripper,
        )
        new_stage = dc_replace(stage, target=target)
    elif spec.mode == "no_ops":
        if spec.insertion_step is None:
            raise ContractViolation("no_ops spec has no insertion step")
        new_stage = dc_replace(
            stage,
            hold_at=spec.insertion_step,
            hold_steps=int(spec.magnitude),
        )
    else:
        raise ContractViolation(f"unknown failure mode '{spec.mode}'")
    stages = list(plan.stages)
    stages[spec.stage_index] = new_stage
    return Plan(plan.task_id, tuple(stages), plan.seed)


def sample_failure_spec(plan: Plan, entries, rng) -> FailureSpec:
    """Draw one perturbation: entry, then stage, then its parameters."""
    entry: FailureEntry = entries[int(rng.integers(len(entries)))]
    stage_index = plan.stage_names.index(entry.stages[int(rng.integers(len(entry.stages)))])
    stage: Stage = plan.stages[stage_index]
    if entry.mode == "no_ops":
        duration = int(rng.integers(int(entry.lo), int(entry.hi) + 1))
        insertion = int(rng.integers(stage.steps))
        return FailureSpec(
            mode="no_ops",
            axis=None,
            magnitude=float(duration),
            stage_index=stage_index,
            insertion_step=insertion,
        )
    sign = 1.0 if int(rng.integers(2)) else -1.0
    magnitude = sign * float(rng.uniform(entry.lo, entry.hi))
    return FailureSpec(
        mode=entry.mode,
        axis=entry.axis,
        magnitude=magnitude,
        stage_index=stage_index,
    )


def onset_step(spec: FailureSpec, correct: Trajectory) -> int:
    """Index of the first command of `correct`'s stream that the spec changes:
    its stage's first step, or the step its no_ops holds are inserted at."""
    first, _ = correct.stage_bounds(spec.stage_index)
    return first + (spec.insertion_step if spec.mode == "no_ops" else 0)


def runs_unassisted(
    correct: Trajectory, spec: FailureSpec | None, max_steps: int, settle_steps: int,
    sim: Simulator,
) -> tuple:
    """(success, rollout) of `correct`'s plan from its start, perturbed by the spec if one
    is given: `correct`'s commands and worlds up to the onset (all of them if bare), the
    rest of the stream stepped up to max_steps, the last pose held for as many of
    settle_steps as still fit, and the settled world judged once."""
    faulted = correct.plan if spec is None else perturb_stage(correct.plan, spec)
    onset = len(correct.commands) if spec is None else onset_step(spec, correct)
    run = rollout_plan(faulted, correct.start, sim, max_steps, correct, onset)
    last = run.worlds[-1]
    holds = [last.ee_pose.copy()] * min(settle_steps, max_steps - len(run.worlds))
    return sim.evaluate_success([last, *sim.drive(last, holds)][-1], faulted.task_id), run


def first_failure(correct: Trajectory, entries, stream, draws, max_steps, settle_steps, sim):
    """The first of up to `draws` perturbations, drawn from the named seed stream of
    `correct`'s scene, whose runs_unassisted fails, as a FailureCase; None when none does
    or `entries` is empty."""
    plan = correct.plan
    rng = seed_stream(stream, plan.task_id, plan.seed)
    for _ in range(draws if entries else 0):
        spec = sample_failure_spec(plan, entries, rng)
        ok, failed = runs_unassisted(correct, spec, max_steps, settle_steps, sim)
        if not ok:
            return FailureCase(spec=spec, correct=correct, failed=failed)
    return None


def generate_failure_case(correct: Trajectory, cfg: Config, sim: Simulator):
    """Sample, inject, and confirm one failure for a scene's correct rollout.

    `correct` is judged here once (a failing one is a ContractViolation), then carried
    by the case as is. Returns a FailureCase, or None when the task has no configured
    perturbations or the sampled one fails to break the rollout within the unperturbed
    plan's steps; those seeds still serve as ground truth.
    """
    plan = correct.plan
    if not sim.evaluate_success(correct.worlds[-1], plan.task_id):
        raise ContractViolation(
            f"nominal rollout failed for {plan.task_id} seed {plan.seed}"
        )
    entries = cfg.tasks.get(plan.task_id, [])
    return first_failure(correct, entries, "failure", 1, plan.total_steps(), 0, sim)
