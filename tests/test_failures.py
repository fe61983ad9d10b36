"""Failure injection: sampling, perturbation mechanics, confirmation."""

from dataclasses import replace

import numpy as np
import pytest

import failsafe.tasks as tasks
from failsafe.config import config_from_mapping, default_config, parse_failure_entry
from failsafe.errors import ConfigError, ContractViolation
from failsafe.failures import (
    generate_failure_case,
    onset_step,
    perturb_stage,
    runs_unassisted,
    sample_failure_spec,
    FailureSpec,
)
from failsafe.geometry import ROTATION_AXES, TRANSLATION_AXES, quat_about_axis, quat_multiply
from failsafe.seeding import seed_stream
from failsafe.sim import Simulator
from failsafe.tasks import TASKS, plan_commands, plan_task, rollout_plan


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def sim(cfg):
    return Simulator(cfg)


def failure_case(task_id, seed, cfg, sim):
    """Plan the scene and roll its correct plan, then inject and confirm."""
    return generate_failure_case(rollout_plan(*plan_task(task_id, seed, cfg), sim), cfg, sim)


def entry(**kw):
    raw = {"mode": "translation", "axis": "x", "range": [0.05, 0.05],
           "stages": ["grasp"]}
    raw.update(kw)
    return parse_failure_entry(raw, "test")


class TestPerturbStage:
    def test_translation_shifts_one_axis(self, cfg):
        plan, _ = plan_task("pick_cube", 0, cfg)
        spec = FailureSpec("translation", "y", -0.07, 1)
        out = perturb_stage(plan, spec)
        orig = plan.stages[1].target
        new = out.stages[1].target
        assert new.position[1] == pytest.approx(orig.position[1] - 0.07)
        assert new.position[0] == orig.position[0]
        assert new.position[2] == orig.position[2]
        assert np.array_equal(new.orientation, orig.orientation)

    def test_rotation_premultiplies(self, cfg):
        plan, _ = plan_task("stack_cube", 0, cfg)
        spec = FailureSpec("rotation", "pitch", 0.6, 1)
        out = perturb_stage(plan, spec)
        expected = quat_multiply(
            quat_about_axis(1, 0.6), plan.stages[1].target.orientation
        )
        assert out.stages[1].target.orientation == pytest.approx(expected)
        assert np.array_equal(
            out.stages[1].target.position, plan.stages[1].target.position
        )

    def test_no_ops_inserts_holds(self, cfg):
        plan, _ = plan_task("pick_cube", 0, cfg)
        spec = FailureSpec("no_ops", None, 12.0, 2, insertion_step=7)
        out = perturb_stage(plan, spec)
        stage = out.stages[2]
        assert stage.hold_at == 7 and stage.hold_steps == 12
        assert stage.emitted_steps() == plan.stages[2].steps + 12
        assert np.array_equal(stage.target.position, plan.stages[2].target.position)
        assert out.total_steps() == plan.total_steps() + 12

    def test_only_the_named_stage_changes(self, cfg):
        plan, _ = plan_task("stack_cube", 3, cfg)
        spec = FailureSpec("translation", "x", 0.05, 1)
        out = perturb_stage(plan, spec)
        for i, (a, b) in enumerate(zip(plan.stages, out.stages)):
            if i == 1:
                continue
            assert a is b, f"stage {i} was touched"

    @pytest.mark.parametrize("index", [-1, -3, 3, 7])
    def test_stage_index_outside_the_plan_is_refused(self, cfg, index):
        """A negative index names no stage, as in Trajectory.stage_bounds: it must not alter
        one counted from the plan's end."""
        plan, _ = plan_task("pick_cube", 0, cfg)
        assert len(plan.stages) == 3
        with pytest.raises(IndexError, match=f"stage {index} not in plan"):
            perturb_stage(plan, FailureSpec("translation", "x", 0.05, index))


class TestSampling:
    def test_same_seed_same_spec(self, cfg):
        plan, _ = plan_task("stack_cube", 11, cfg)
        entries = cfg.tasks["stack_cube"]
        a = sample_failure_spec(plan, entries, seed_stream("failure", "stack_cube", 11))
        b = sample_failure_spec(plan, entries, seed_stream("failure", "stack_cube", 11))
        assert a == b

    def test_magnitude_respects_range_and_sign(self, cfg):
        plan, _ = plan_task("pick_cube", 0, cfg)
        entries = [entry(range=[0.03, 0.1])]
        signs = set()
        for seed in range(40):
            spec = sample_failure_spec(
                plan, entries, seed_stream("failure", "pick_cube", seed)
            )
            assert 0.03 <= abs(spec.magnitude) <= 0.1
            signs.add(spec.magnitude > 0)
        assert signs == {True, False}

    def test_no_ops_duration_and_insertion_bounds(self, cfg):
        plan, _ = plan_task("pick_cube", 0, cfg)
        entries = [entry(mode="no_ops", axis=None, range=[10, 20], stages=["lift"])]
        for seed in range(30):
            spec = sample_failure_spec(
                plan, entries, seed_stream("failure", "pick_cube", seed)
            )
            assert 10 <= spec.magnitude <= 20
            assert spec.magnitude == int(spec.magnitude)
            assert 0 <= spec.insertion_step < plan.stages[2].steps

    def test_every_entry_is_eventually_drawn(self, cfg):
        plan, _ = plan_task("stack_cube", 0, cfg)
        entries = cfg.tasks["stack_cube"]
        seen = set()
        for seed in range(80):
            spec = sample_failure_spec(
                plan, entries, seed_stream("failure", "stack_cube", seed)
            )
            seen.add((spec.mode, spec.axis))
        assert seen == {(e.mode, e.axis) for e in entries}


class TestGenerateFailureCase:
    def test_deterministic(self, cfg, sim):
        a = failure_case("pick_cube", 4, cfg, sim)
        b = failure_case("pick_cube", 4, cfg, sim)
        assert a.spec == b.spec
        assert len(a.failed.worlds) == len(b.failed.worlds)
        assert np.array_equal(
            a.failed.worlds[-1].ee_pose.position,
            b.failed.worlds[-1].ee_pose.position,
        )

    def test_confirmed_case_shape(self, cfg, sim):
        case = failure_case("pick_cube", 4, cfg, sim)
        assert case is not None
        assert sim.evaluate_success(case.correct.worlds[-1], "pick_cube")
        assert not sim.evaluate_success(case.failed.worlds[-1], "pick_cube")
        assert len(case.correct.commands) == 120
        # The unperturbed budget caps the perturbed rollout.
        assert len(case.failed.worlds) == 120
        assert 0 <= case.spec.stage_index < len(TASKS["pick_cube"].stage_names)

    def test_carries_the_given_correct_rollout(self, cfg, sim):
        plan, world = plan_task("pick_cube", 4, cfg)
        correct = rollout_plan(plan, world, sim)
        case = generate_failure_case(correct, cfg, sim)
        assert case.correct is correct
        assert (case.correct.plan.task_id, case.correct.plan.seed) == ("pick_cube", 4)

    def test_empty_failure_list_is_a_no_op(self, cfg, sim):
        bare = replace(cfg, tasks={})
        assert failure_case("pick_cube", 0, bare, sim) is None

    def test_failing_correct_rollout_is_a_contract_violation(self, cfg, sim):
        # Judged before the menu is read, so a task with no perturbations is checked too.
        plan, world = plan_task("pick_cube", 0, cfg)
        cut = rollout_plan(plan, world, sim, max_steps=20)
        message = "^nominal rollout failed for pick_cube seed 0$"
        for menus in (cfg, replace(cfg, tasks={})):
            with pytest.raises(ContractViolation, match=message):
                generate_failure_case(cut, menus, sim)

    def test_benign_perturbation_returns_none(self, cfg, sim):
        gentle = replace(
            cfg,
            tasks={"pick_cube": [entry(range=[1e-4, 2e-4])]},
        )
        assert failure_case("pick_cube", 0, gentle, sim) is None

    def test_mild_rotations_below_align_tol_stay_benign(self, cfg, sim):
        gentle = replace(
            cfg,
            tasks={"stack_cube": [entry(mode="rotation", axis="roll",
                                         range=[0.1, 0.2], stages=["grasp"])]},
        )
        for seed in range(5):
            assert failure_case("stack_cube", seed, gentle, sim) is None


def forced_spec(mode, plan, seed):
    """A perturbation of the stage `seed` picks, with the axis it picks;
    no_ops inserts its holds at step 0 (`no_ops@0`) or mid-stage (`no_ops@mid`)."""
    index = seed % len(plan.stages)
    stage = plan.stages[index]
    if mode == "translation":
        return FailureSpec(mode, TRANSLATION_AXES[seed % 3], 0.05, index)
    if mode == "rotation":
        return FailureSpec(mode, ROTATION_AXES[seed % 3], -0.6, index)
    insertion = 0 if mode == "no_ops@0" else stage.steps // 2
    return FailureSpec("no_ops", None, 12.0, index, insertion_step=insertion)


def menu_specs(task_id, plan, seed, cfg):
    """One draw from every entry of both failure menus (`cfg.tasks` and
    `cfg.supervisor.faults`); a no_ops draw also at insertion 0 and mid-stage."""
    rng = seed_stream("onset-test", task_id, seed)
    for entry in [*cfg.tasks.get(task_id, ()), *cfg.supervisor.faults.get(task_id, ())]:
        spec = sample_failure_spec(plan, [entry], rng)
        yield spec
        if spec.mode == "no_ops":
            yield replace(spec, insertion_step=0)
            yield replace(spec, insertion_step=plan.stages[spec.stage_index].steps // 2)


def world_key(world):
    """Every field of a world as Python values: equal keys, equal worlds."""
    offset = world.grasp_offset
    return (
        world.ee_pose.key(),
        {obj_id: obj.pose.key() for obj_id, obj in world.objects.items()},
        world.attached,
        None if offset is None else (offset.position.tolist(), offset.orientation.tolist()),
        world.goal,
    )


def shared_prefix(a, b):
    """Length of the longest common `Pose.key()` prefix of two command streams."""
    k = 0
    for ca, cb in zip(a, b):
        if ca.key() != cb.key():
            break
        k += 1
    return k


class TestSharedPrefix:
    """The perturbed rollout takes the correct rollout's commands and worlds up to
    onset_step; the onset must be where the two command streams part, and the spliced
    rollout must be the rollout interpolated and stepped from scratch."""

    @pytest.mark.parametrize("task_id", sorted(TASKS))
    def test_onset_is_where_the_streams_part(self, cfg, sim, task_id):
        checked = set()
        for seed in range(8):
            plan, world = plan_task(task_id, seed, cfg)
            correct = rollout_plan(plan, world, sim)
            for spec in menu_specs(task_id, plan, seed, cfg):
                stream = plan_commands(perturb_stage(plan, spec), world.ee_pose)
                assert onset_step(spec, correct) == shared_prefix(correct.commands, stream)
                checked.add((spec.mode, spec.insertion_step == 0))
        assert ("no_ops", True) in checked and ("no_ops", False) in checked

    @pytest.mark.parametrize("task_id", sorted(TASKS))
    def test_interpolates_only_from_the_drawn_stage_on(self, cfg, sim, task_id, monkeypatch):
        # Commands before the onset are the correct rollout's own: no stage that ends
        # before it is interpolated again, and a bare run interpolates none.
        interpolated = []
        stage_commands = tasks.stage_commands
        monkeypatch.setattr(
            tasks, "stage_commands",
            lambda stage, start: interpolated.append(stage) or stage_commands(stage, start),
        )
        for seed in range(8):
            plan, world = plan_task(task_id, seed, cfg)
            correct = rollout_plan(plan, world, sim)
            for spec in [None, *menu_specs(task_id, plan, seed, cfg)]:
                interpolated.clear()
                runs_unassisted(correct, spec, plan.total_steps(), 0, sim)
                first = len(plan.stages) if spec is None else spec.stage_index
                # The drawn stage is a perturbed copy; every stage after it is the plan's own.
                assert len(interpolated) == len(plan.stages) - first
                assert all(a is b for a, b in zip(interpolated[1:], plan.stages[first + 1 :]))

    @pytest.mark.parametrize("mode", ["translation", "rotation", "no_ops@0", "no_ops@mid"])
    @pytest.mark.parametrize("task_id", sorted(TASKS))
    def test_reused_rollout_equals_fresh_rollout(self, cfg, sim, task_id, mode):
        for seed in range(8):
            plan, world = plan_task(task_id, seed, cfg)
            correct = rollout_plan(plan, world, sim)
            spec = forced_spec(mode, plan, seed)
            nominal = plan.total_steps()
            fresh = rollout_plan(perturb_stage(plan, spec), world, sim, max_steps=nominal)
            ok, shared = runs_unassisted(correct, spec, nominal, 0, sim)
            assert [c.key() for c in shared.commands] == [c.key() for c in fresh.commands]
            assert len(shared.worlds) == len(fresh.worlds)
            for a, b in zip(shared.worlds, fresh.worlds):
                assert world_key(a) == world_key(b)
            assert shared.stage_boundaries == fresh.stage_boundaries
            assert ok == sim.evaluate_success(fresh.worlds[-1], task_id)
            k = onset_step(spec, correct)
            assert all(a is b for a, b in zip(shared.commands[:k], correct.commands))
            assert all(a is b for a, b in zip(shared.worlds[:k], correct.worlds))

    @pytest.mark.parametrize("task_id", sorted(TASKS))
    @pytest.mark.parametrize("mode", ["translation", "rotation", "no_ops@0", "no_ops@mid"])
    def test_failed_rollout_names_its_perturbed_plan_and_start(self, cfg, sim, task_id, mode):
        for seed in range(4):
            plan, world = plan_task(task_id, seed, cfg)
            correct = rollout_plan(plan, world, sim)
            spec = forced_spec(mode, plan, seed)
            want = perturb_stage(plan, spec)
            for budget in (plan.total_steps(), want.total_steps()):  # cut, then whole
                _, run = runs_unassisted(correct, spec, budget, 0, sim)
                got = run.plan.stages
                assert [s.target.key() for s in got] == [s.target.key() for s in want.stages]
                assert [(s.hold_at, s.hold_steps) for s in got] == [
                    (s.hold_at, s.hold_steps) for s in want.stages
                ]
                # Each stage that starts before the cut ends at its cumulative emitted step.
                ends = np.cumsum([s.emitted_steps() for s in want.stages]) - 1
                ran = len(run.worlds)
                assert run.stage_boundaries == tuple(
                    min(int(end), ran - 1)
                    for first, end in zip([0, *(ends[:-1] + 1)], ends) if first < ran
                )
                assert run.start is world and correct.start is world

    def test_settle_holds_fit_in_the_budget(self, cfg, sim, monkeypatch):
        plan, world = plan_task("pick_cube", 0, cfg)
        correct = rollout_plan(plan, world, sim)
        spec = forced_spec("no_ops@mid", plan, 2)  # lift stretched by 12 steps
        steps = []
        step = Simulator.step
        monkeypatch.setattr(Simulator, "step", lambda self, *a: steps.append(1) or step(self, *a))
        total = plan.total_steps() + 12
        for budget, settle in ((total + 5, 3), (total + 2, 5), (total - 4, 5)):
            steps.clear()
            _, run = runs_unassisted(correct, spec, budget, settle, sim)
            assert len(run.worlds) == min(total, budget)
            ran = len(run.worlds) - onset_step(spec, correct)
            assert len(steps) == ran + min(settle, budget - len(run.worlds))

    def test_no_spec_lends_the_whole_correct_rollout(self, cfg, sim, monkeypatch):
        plan, world = plan_task("stack_cube", 1, cfg)
        correct = rollout_plan(plan, world, sim)
        steps = []
        step = Simulator.step
        monkeypatch.setattr(Simulator, "step", lambda self, *a: steps.append(1) or step(self, *a))
        ok, run = runs_unassisted(correct, None, plan.total_steps() + 4, 3, sim)
        assert ok and len(steps) == 3 and len(run.worlds) == len(correct.worlds)
        assert all(a is b for a, b in zip(run.worlds, correct.worlds))

    def test_generate_failure_case_steps_only_past_the_shared_prefix(self, cfg, sim, monkeypatch):
        calls = []
        step = Simulator.step
        monkeypatch.setattr(Simulator, "step", lambda self, *a: calls.append(1) or step(self, *a))
        saved = 0
        for task_id in sorted(TASKS):
            for seed in range(8):
                plan, world = plan_task(task_id, seed, cfg)
                correct = rollout_plan(plan, world, sim)
                calls.clear()
                case = generate_failure_case(correct, cfg, sim)
                if case is None:
                    continue
                k = onset_step(case.spec, correct)
                assert k == shared_prefix(correct.commands, case.failed.commands)
                assert len(calls) == len(case.failed.worlds) - k
                saved += k
        assert saved > 0


class TestStageNameValidation:
    def test_unknown_stage_rejected(self):
        raw = {"mode": "translation", "axis": "x", "range": [0.05, 0.05],
               "stages": ["somersault"]}
        with pytest.raises(ConfigError, match="somersault"):
            config_from_mapping({"tasks": {"pick_cube": {"failures": [raw]}}})
        with pytest.raises(ConfigError, match="supervisor.faults.pick_cube"):
            config_from_mapping({"supervisor": {"faults": {"pick_cube": [raw]}}})

    def test_shipped_config_passes(self):
        cfg = default_config()
        assert cfg.tasks and cfg.supervisor.faults
