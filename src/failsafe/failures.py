"""Failure injection: perturb exactly one stage of a correct plan and keep
the cases whose rollout actually fails.

Three perturbation families:

  translation - the stage target shifts along one world axis
  rotation    - the stage target orientation is pre-multiplied by a signed
                rotation about one world axis
  no_ops      - duration hold frames are inserted at a step inside the
                stage, stretching it without moving the target

A perturbed rollout runs under the unperturbed plan's step budget, so a
stretched plan that runs out of time fails its success check the same way
a geometrically broken one does. Perturbations whose rollout still succeeds
are discarded; those seeds only contribute ground-truth windows.

The caller plans the scene and rolls its correct plan once; the failure
case and the ground-truth windows share that rollout, and the failed
rollout reuses its worlds up to the first command that differs.
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
    stage_name: str
    insertion_step: int | None = None  # no_ops only


@dataclass(frozen=True)
class FailureCase:
    """A confirmed failure: the correct rollout, the failed one, and the
    perturbation that separates them."""

    task_id: str
    seed: int
    spec: FailureSpec
    correct: Trajectory
    failed: Trajectory
    nominal_steps: int


def perturb_stage(plan: Plan, spec: FailureSpec) -> Plan:
    """A copy of the plan with exactly one stage altered per the spec."""
    stage = plan.stages[spec.stage_index]
    if stage.name != spec.stage_name:
        raise ContractViolation(
            f"spec stage '{spec.stage_name}' is not stage {spec.stage_index}"
        )
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
    stage_name = entry.stages[int(rng.integers(len(entry.stages)))]
    stage_index = plan.stage_index(stage_name)
    stage: Stage = plan.stages[stage_index]
    if entry.mode == "no_ops":
        duration = int(rng.integers(int(entry.lo), int(entry.hi) + 1))
        insertion = int(rng.integers(stage.steps))
        return FailureSpec(
            mode="no_ops",
            axis=None,
            magnitude=float(duration),
            stage_index=stage_index,
            stage_name=stage_name,
            insertion_step=insertion,
        )
    sign = 1.0 if int(rng.integers(2)) else -1.0
    magnitude = sign * float(rng.uniform(entry.lo, entry.hi))
    return FailureSpec(
        mode=entry.mode,
        axis=entry.axis,
        magnitude=magnitude,
        stage_index=stage_index,
        stage_name=stage_name,
    )


def generate_failure_case(plan: Plan, world, correct: Trajectory, cfg: Config, sim: Simulator):
    """Sample, inject, and confirm one failure for a planned scene.

    `correct` is the plan's own rollout from `world`; the case carries it
    as is. Returns a FailureCase, or None when the task has no configured
    perturbations or the sampled one fails to break the rollout. The latter
    seeds still serve as ground-truth material.
    """
    entries = cfg.tasks.get(plan.task_id, [])
    if not entries:
        return None
    if not correct.outcome:
        raise ContractViolation(
            f"nominal rollout failed for {plan.task_id} seed {plan.seed}"
        )

    rng = seed_stream("failure", plan.task_id, plan.seed)
    spec = sample_failure_spec(plan, entries, rng)
    failed_plan = perturb_stage(plan, spec)

    nominal = plan.total_steps()
    failed = rollout_plan(failed_plan, world, sim, max_steps=nominal, reuse=correct)
    if failed.outcome:
        return None
    return FailureCase(
        task_id=plan.task_id,
        seed=plan.seed,
        spec=spec,
        correct=correct,
        failed=failed,
        nominal_steps=nominal,
    )
