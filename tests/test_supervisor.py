"""Supervised-episode harness, assistants, and assistant scoring."""

import functools
import inspect
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from failsafe.config import default_config
from failsafe.dataset import build_entry, build_gt_entries, observer
from failsafe.errors import ConfigError, ContractViolation, MetricsError
from failsafe.failures import (
    generate_failure_case,
    onset_step,
    perturb_stage,
    runs_unassisted,
    sample_failure_spec,
)
from failsafe.dataset import WINDOW_FRAMES
from failsafe.geometry import DeltaAction, Pose, apply_delta
from failsafe.recovery import collect_candidates
from failsafe.seeding import seed_stream
from failsafe.sim import ObservationFrame, Simulator
from failsafe.supervisor import (
    AssistantDecision,
    EpisodeContext,
    EpisodeResult,
    evaluate_assistant,
    null_assistant,
    oracle_assistant_decide,
    episode_budget,
    resync,
    run_supervised_episode,
    sample_harness_fault,
    _window_frozen,
)
import failsafe.pipeline as pipeline
from failsafe.pipeline import run_episode_pair
from failsafe.tasks import TASKS, plan_commands, plan_task, rollout_plan
from failsafe.verifier import verify_candidate


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def sim(cfg):
    return Simulator(cfg)


def failure_case(task_id, seed, cfg, sim):
    """Plan the scene and roll its correct plan, then inject and confirm."""
    return generate_failure_case(rollout_plan(*plan_task(task_id, seed, cfg), sim), cfg, sim)


def unassisted_run(correct, fault, cfg, sim):
    """(success, rollout) of the episode's stream with no assistant, under the
    episode's budget and settle holds, as sample_harness_fault confirms a draw."""
    budget, settle = episode_budget(correct.plan, cfg), cfg.supervisor.settle_steps
    return runs_unassisted(correct, fault, budget, settle, sim)


def scene_for(task, seed, cfg, sim, fault=None):
    """(correct, fault, unassisted): the first three arguments of an episode; the
    last is the stream's unassisted rollout, as unassisted_run rolls it."""
    correct = rollout_plan(*plan_task(task, seed, cfg), sim)
    _, unassisted = unassisted_run(correct, fault, cfg, sim)
    return correct, fault, unassisted


def stream_for(task, seed, cfg, fault=None):
    """The command stream an episode of (task, seed) carrying fault replays."""
    plan, world = plan_task(task, seed, cfg)
    return plan_commands(plan if fault is None else perturb_stage(plan, fault), world.ee_pose)


def with_cadence(cfg, cadence):
    return replace(cfg, supervisor=replace(cfg.supervisor, cadence=cadence))


def harness_fault(task, seed, cfg, sim):
    correct, _, _ = scene_for(task, seed, cfg, sim)
    return sample_harness_fault(correct, cfg, sim)[0]


@pytest.fixture(scope="module")
def entries(cfg, sim):
    """Labeled evaluation entries: verified failures plus ground truth."""
    out = []
    for seed in range(6):
        frame = observer(sim)
        case = failure_case("pick_cube", seed, cfg, sim)
        if case is not None:
            cands = collect_candidates(case, cfg.dataset.candidates_per_case)
            out.extend(
                build_entry(case, c, frame) for c in cands if verify_candidate(case, c, cfg, sim)
            )
        correct = rollout_plan(*plan_task("pick_cube", seed, cfg), sim)
        out.extend(build_gt_entries(correct, cfg, frame))
    assert any(e.is_failure for e in out) and any(not e.is_failure for e in out)
    return out


class TestAssistantDecision:
    def test_failure_requires_recovery(self):
        with pytest.raises(ContractViolation):
            AssistantDecision(sub_task="grasp", is_failure=True)

    def test_recovery_requires_failure(self):
        with pytest.raises(ContractViolation):
            AssistantDecision(
                sub_task="grasp", is_failure=False, recovery=DeltaAction.zero()
            )

    def test_consistent_pairings_construct(self):
        AssistantDecision(sub_task="grasp", is_failure=False)
        AssistantDecision(
            sub_task="grasp",
            is_failure=True,
            failure_type=("no_ops", None),
            recovery=DeltaAction.zero(),
        )


class TestHarnessFaultSampling:
    def test_deterministic_per_seed(self, cfg, sim):
        a = harness_fault("pick_cube", 3, cfg, sim)
        b = harness_fault("pick_cube", 3, cfg, sim)
        assert a == b

    def test_draw_matches_configured_menu(self, cfg, sim):
        menu = {
            (entry.mode, entry.axis)
            for entry in cfg.supervisor.faults["pick_cube"]
        }
        for seed in range(5):
            fault = harness_fault("pick_cube", seed, cfg, sim)
            assert (fault.mode, fault.axis) in menu

    def test_confirmed_to_break_unassisted_run(self, cfg, sim):
        fault = harness_fault("pick_cube", 0, cfg, sim)
        result = run_supervised_episode(
            *scene_for("pick_cube", 0, cfg, sim, fault), null_assistant, cfg, sim
        )
        assert not result.success

    def test_unconfigured_task_draws_nothing(self, cfg, sim):
        bare = replace(cfg, supervisor=replace(cfg.supervisor, faults={}))
        correct, _, _ = scene_for("pick_cube", 0, cfg, sim)
        fault, ok, run = sample_harness_fault(correct, bare, sim)
        # The bare run: the whole correct rollout, lent, then the settle holds.
        assert fault is None and ok
        assert len(run.worlds) == len(correct.worlds)
        assert all(a is b for a, b in zip(run.worlds, correct.worlds))


class TestResync:
    def test_resumes_after_closest_waypoint(self, cfg):
        commands = stream_for("pick_cube", 0, cfg)
        k = 57  # mid-grasp, deep inside a dense run of nearby waypoints
        target = commands[k]
        ee = Pose(target.position.copy(), target.orientation.copy(), target.gripper)
        assert resync(commands, 45, ee, cfg) == k + 1

    def test_skips_identical_hold_block(self, cfg, sim):
        fault = None
        for seed in range(50):
            cand = harness_fault("pick_cube", seed, cfg, sim)
            if cand is not None and cand.mode == "no_ops":
                fault = cand
                break
        assert fault is not None

        def same(a, b):
            return (
                np.array_equal(a.position, b.position)
                and np.array_equal(a.orientation, b.orientation)
                and a.gripper == b.gripper
            )

        commands = stream_for("pick_cube", seed, cfg, fault)
        # Locate the hold block: the stream is longer than the nominal one
        # by exactly the stall, a run of consecutive identical commands.
        start = next(
            i
            for i in range(1, len(commands) - 1)
            if same(commands[i], commands[i - 1])
            and same(commands[i], commands[i + 1])
        )
        hold = commands[start]
        ee = Pose(hold.position.copy(), hold.orientation.copy(), hold.gripper)
        cursor = resync(commands, start, ee, cfg)
        assert cursor > start
        assert same(commands[cursor - 1], hold)
        assert cursor == len(commands) or not same(commands[cursor], hold)

    def test_no_match_leaves_cursor(self, cfg):
        commands = stream_for("pick_cube", 0, cfg)
        far = Pose(np.array([0.31, 0.31, 0.29]), np.array([1.0, 0.0, 0.0, 0.0]), 0.5)
        assert resync(commands, 20, far, cfg) == 20

    def test_orientation_mismatch_does_not_block(self, cfg):
        commands = stream_for("pick_cube", 0, cfg)
        k = 57
        target = commands[k]
        tilted = Pose(
            target.position.copy(),
            np.array([math.cos(0.45), math.sin(0.45), 0.0, 0.0]),
            target.gripper,
        )
        assert resync(commands, 45, tilted, cfg) == k + 1


class TestRunSupervisedEpisode:
    def test_unperturbed_null_episode(self, cfg, sim):
        correct, _, _ = scene = scene_for("pick_cube", 0, cfg, sim)
        result = run_supervised_episode(*scene, null_assistant, cfg, sim)
        nominal = len(correct.worlds)
        assert result.success
        assert result.interventions == 0
        assert result.total_steps == nominal + cfg.supervisor.settle_steps
        assert len(result.trace) == result.total_steps + 1

    def test_cadence_must_be_positive(self, cfg):
        # No episode can be handed cadence 0: a Config built with it is refused.
        with pytest.raises(ConfigError, match=r"^'supervisor.cadence' must be >= 1$"):
            with_cadence(cfg, 0)

    def test_oracle_rescues_confirmed_fault(self, cfg, sim):
        fault = harness_fault("pick_cube", 1, cfg, sim)
        assert fault is not None
        broken = run_supervised_episode(
            *scene_for("pick_cube", 1, cfg, sim, fault),
            null_assistant, cfg, sim,
        )
        rescued = run_supervised_episode(
            *scene_for("pick_cube", 1, cfg, sim, fault),
            oracle_assistant_decide, cfg, sim,
        )
        assert not broken.success
        assert rescued.success
        assert rescued.interventions >= 1

    def test_interventions_bounded_by_consultations(self, cfg, sim):
        for seed in range(4):
            fault = harness_fault("pick_cube", seed, cfg, sim)
            result = run_supervised_episode(
                *scene_for("pick_cube", seed, cfg, sim, fault),
                oracle_assistant_decide, cfg, sim,
            )
            assert result.interventions <= result.total_steps // cfg.supervisor.cadence

    def test_budget_caps_total_steps(self, cfg, sim):
        for seed in range(4):
            fault = harness_fault("pick_cube", seed, cfg, sim)
            correct, _, _ = scene = scene_for("pick_cube", seed, cfg, sim, fault)
            nominal = len(correct.worlds)
            budget = math.ceil(nominal * (1 + cfg.supervisor.budget_slack))
            budget += cfg.supervisor.settle_steps
            result = run_supervised_episode(*scene, null_assistant, cfg, sim)
            assert result.total_steps <= budget
            assert len(result.trace) == result.total_steps + 1

    def test_raising_assistant_fails_open(self, cfg, sim, capsys):
        def shaky(frames, context):
            raise RuntimeError("model server unreachable")

        fault = harness_fault("pick_cube", 2, cfg, sim)
        with_shaky = run_supervised_episode(
            *scene_for("pick_cube", 2, cfg, sim, fault),
            shaky, cfg, sim,
        )
        with_null = run_supervised_episode(
            *scene_for("pick_cube", 2, cfg, sim, fault),
            null_assistant, cfg, sim,
        )
        assert with_shaky.success == with_null.success
        assert with_shaky.total_steps == with_null.total_steps
        assert with_shaky.interventions == 0
        assert "model server unreachable" in capsys.readouterr().err


def _same_episode(a, b) -> bool:
    """Bit-identical trace, transit mask, step count and outcome."""
    return (
        a.success == b.success
        and a.total_steps == b.total_steps
        and a.transit_mask == b.transit_mask
        and len(a.trace) == len(b.trace)
        and all(
            np.array_equal(p.position, q.position)
            and np.array_equal(p.orientation, q.orientation)
            and p.gripper == q.gripper
            for p, q in zip(a.trace, b.trace)
        )
    )


@pytest.fixture(scope="module")
def cube_faults(cfg, sim):
    """Confirmed harness fault per (cube task, seed 0..3)."""
    return {
        (task, seed): harness_fault(task, seed, cfg, sim)
        for task in ("pick_cube", "push_cube", "stack_cube")
        for seed in range(4)
    }


class TestUnsupervisedEpisode:
    @pytest.mark.parametrize("task", TASKS)
    def test_plan_steps_equal_nominal_frames(self, task, cfg, sim):
        # The episode budget reads total_steps(); the nominal rollout
        # keeps one world per command.
        for seed in range(2):
            plan, world = plan_task(task, seed, cfg)
            assert len(rollout_plan(plan, world, sim).worlds) == plan.total_steps()

    @pytest.mark.parametrize("cadence", (1, 3, 10))
    @pytest.mark.parametrize("task", ("pick_cube", "push_cube", "stack_cube"))
    def test_matches_null_assistant(self, task, cadence, cfg, sim, cube_faults):
        # The null assistant never intervenes, so its episode at any cadence
        # is the unassisted rollout plus settle holds.
        paced = with_cadence(cfg, cadence)
        for seed in range(4):
            scene = scene_for(task, seed, cfg, sim, cube_faults[(task, seed)])
            episode = run_supervised_episode(*scene, null_assistant, paced, sim)
            assert unassisted_run(*scene[:2], paced, sim)[0] == episode.success

    @pytest.mark.parametrize("task", TASKS)
    def test_matches_null_assistant_for_every_menu_entry(self, task, cfg, sim):
        outcomes = set()
        for seed in range(8):
            correct, _, _ = scene_for(task, seed, cfg, sim)
            rng = seed_stream("harness", task, seed)
            forced = [
                sample_failure_spec(correct.plan, [entry], rng)
                for entry in cfg.supervisor.faults[task]
            ]
            for fault in [None, *forced]:
                ok, unassisted = unassisted_run(correct, fault, cfg, sim)
                episode = run_supervised_episode(
                    correct, fault, unassisted, null_assistant, cfg, sim
                )
                assert ok == episode.success
                outcomes.add(episode.success)
        assert outcomes == {True, False}

    def test_observes_nothing_and_rolls_no_reference(self, cfg, sim, monkeypatch):
        import failsafe.failures as failures

        correct, _, _ = scene_for("pick_cube", 1, cfg, sim)
        observed, rolled = [], []
        observe, rollout = Simulator.observe, failures.rollout_plan
        signature = inspect.signature(rollout)
        monkeypatch.setattr(
            Simulator, "observe", lambda self, *a: observed.append(a) or observe(self, *a)
        )

        def counted(*args, **kwargs):
            rolled.append(signature.bind(*args, **kwargs).arguments)
            return rollout(*args, **kwargs)

        monkeypatch.setattr(failures, "rollout_plan", counted)
        fault, ok, unassisted = sample_harness_fault(correct, cfg, sim)
        assert fault is not None and not ok
        again, rolled_again = unassisted_run(correct, fault, cfg, sim)
        assert not again
        assert [w.ee_pose.key() for w in rolled_again.worlds] == [
            w.ee_pose.key() for w in unassisted.worlds
        ]
        assert observed == []
        # Every draw is cut at the budget and is handed the given correct rollout as
        # its base, so it borrows that rollout's commands and worlds up to its onset.
        assert rolled and all(
            bound["max_steps"] == episode_budget(correct.plan, cfg) and bound["base"] is correct
            for bound in rolled
        )

    def test_draws_step_only_past_the_shared_prefix(self, cfg, sim, monkeypatch):
        import failsafe.failures as failures

        draws, steps = [], []
        sample, step = failures.sample_failure_spec, Simulator.step
        monkeypatch.setattr(
            failures, "sample_failure_spec", lambda *a: draws.append(sample(*a)) or draws[-1]
        )
        monkeypatch.setattr(Simulator, "step", lambda self, *a: steps.append(1) or step(self, *a))
        for task in ("pick_cube", "push_cube", "stack_cube"):
            for seed in range(4):
                plan, world = plan_task(task, seed, cfg)
                correct = rollout_plan(plan, world, sim)
                draws.clear()
                steps.clear()
                assert sample_harness_fault(correct, cfg, sim)[0] is draws[-1]
                budget = episode_budget(plan, cfg)
                expected = 0
                for fault in draws:
                    stream = plan_commands(perturb_stage(plan, fault), world.ee_pose)[:budget]
                    shared = 0
                    for ran, command in zip(correct.commands, stream):
                        if ran.key() != command.key():
                            break
                        shared += 1
                    holds = min(cfg.supervisor.settle_steps, budget - len(stream))
                    expected += len(stream) - shared + holds
                assert len(steps) == expected


    @pytest.mark.parametrize("cadence", (3, 10))
    def test_oracle_observes_each_world_at_most_once(self, cadence, cfg, sim, monkeypatch):
        observed = []
        observe = Simulator.observe
        monkeypatch.setattr(
            Simulator, "observe", lambda self, w, i: observed.append(w) or observe(self, w, i)
        )
        fault = harness_fault("pick_cube", 1, cfg, sim)
        observed.clear()
        result = run_supervised_episode(
            *scene_for("pick_cube", 1, cfg, sim, fault),
            oracle_assistant_decide, with_cadence(cfg, cadence), sim,
        )
        assert result.success
        # Only consulted windows are observed; settle worlds never are.
        assert 0 < len(observed) < result.total_steps + 1
        assert len({id(w) for w in observed}) == len(observed)

    def test_oracle_projects_no_camera(self, cfg, sim, monkeypatch):
        # The oracle reads poses and steps only, so no frame pays for cameras.
        projected = []
        project = Simulator._project_all
        monkeypatch.setattr(
            Simulator, "_project_all", lambda self, *a: projected.append(1) or project(self, *a)
        )
        fault = harness_fault("pick_cube", 1, cfg, sim)
        result = run_supervised_episode(
            *scene_for("pick_cube", 1, cfg, sim, fault), oracle_assistant_decide, cfg, sim
        )
        assert result.success and result.interventions > 0
        assert projected == []

    def test_assistant_reading_cameras_gets_them(self, cfg, sim, monkeypatch):
        observe = Simulator.observe
        observed_at = {}  # frame id -> the world and step it was observed at

        def recording_observe(self, world, step):
            frame = observe(self, world, step)
            observed_at[id(frame)] = world, step
            return frame

        monkeypatch.setattr(Simulator, "observe", recording_observe)
        read = []

        def camera_reader(frames, context):
            read.extend((frame, frame.cameras) for frame in frames)
            return oracle_assistant_decide(frames, context)

        fault = harness_fault("pick_cube", 1, cfg, sim)
        scene = scene_for("pick_cube", 1, cfg, sim, fault)
        result = run_supervised_episode(*scene, camera_reader, cfg, sim)
        assert read
        for frame, cameras in read:
            assert cameras == observe(sim, *observed_at[id(frame)]).cameras
        # Reading cameras changes nothing the episode does.
        oracle = run_supervised_episode(*scene, oracle_assistant_decide, cfg, sim)
        assert _same_episode(result, oracle)


def stepping_episode(correct, fault, assistant, cfg, sim):
    """The reference episode loop: every world stepped from step 0, and every
    consulted window observed in full into a tuple."""
    plan, world = correct.plan, correct.start
    cadence = cfg.supervisor.cadence
    context = EpisodeContext(fault, correct, cfg)
    commands = plan_commands(plan if fault is None else perturb_stage(plan, fault), world.ee_pose)
    cursor = 0
    budget = episode_budget(plan, cfg)
    worlds = [world]
    transit_mask = [False]
    observed = {}
    interventions = 0

    def window():
        span = range(max(0, len(worlds) - WINDOW_FRAMES), len(worlds))
        for i in set(span) - observed.keys():
            observed[i] = sim.observe(worlds[i], i)
        return tuple(observed[i] for i in span)

    def record(start, stepped, transit):
        worlds.extend(stepped)
        transit_mask.extend([transit] * len(stepped))
        return stepped[-1] if stepped else start

    while len(worlds) - 1 < budget and cursor < len(commands):
        total = len(worlds) - 1
        if total > 0 and total % cadence == 0:
            try:
                decision = assistant(window(), context)
            except Exception as exc:
                print(f"assistant error at step {total}: {exc}", file=sys.stderr)
                decision = None
            if decision is not None and decision.is_failure:
                target = apply_delta(world.ee_pose, decision.recovery)
                interventions += 1
                world = record(world, [sim.step(world, target)], True)
                stepped, arrived = sim.drive_to(world, target, budget - total - 1)
                world = record(world, stepped, True)
                if arrived:
                    cursor = resync(commands, cursor, world.ee_pose, cfg)
                continue
        run = min(cadence - total % cadence, budget - total)
        world = record(world, sim.drive(world, commands[cursor : cursor + run]), False)
        cursor += run

    holds = [world.ee_pose.copy()] * min(cfg.supervisor.settle_steps, budget - (len(worlds) - 1))
    world = record(world, sim.drive(world, holds), False)
    return EpisodeResult(
        success=sim.evaluate_success(world, plan.task_id),
        interventions=interventions,
        trace=tuple(w.ee_pose for w in worlds),
        transit_mask=tuple(transit_mask),
    )


def first_consult_intervener():
    """An assistant that steps in at its first consultation only."""
    consulted = []

    def decide(frames, context):
        decision = null_assistant(frames, context)
        consulted.append(1)
        if len(consulted) > 1:
            return decision
        nudge = DeltaAction(np.array([0.0, 0.01, 0.02]), np.zeros(3), 0.0)
        return AssistantDecision(decision.sub_task, True, ("no_ops", None), nudge)

    return decide


def raising_assistant(frames, context):
    raise RuntimeError("assistant offline")


EPISODE_ASSISTANTS = {
    "oracle": lambda: oracle_assistant_decide,
    "null": lambda: null_assistant,
    "first_consult": first_consult_intervener,
    "raising": lambda: raising_assistant,
}


def frame_key(frame):
    """Everything an observation frame holds, cameras projected."""
    objects = {k: p.key() for k, p in frame.object_poses.items()}
    return frame.step, frame.ee_pose.key(), objects, frame.cameras


def confirmed_scene(task, seed, cfg, sim):
    """(correct, fault, rollout) as run_episode_pair builds them: the confirming
    draw's rollout, or the bare run's when no fault is confirmed."""
    correct = rollout_plan(*plan_task(task, seed, cfg), sim)
    fault, _, unassisted = sample_harness_fault(correct, cfg, sim)
    return correct, fault, unassisted


class TestResumedEpisode:
    @pytest.mark.parametrize("task", TASKS)
    def test_matches_stepping_from_scratch(self, task, cfg, sim, capsys):
        for seed in range(8):
            correct, fault, unassisted = confirmed_scene(task, seed, cfg, sim)
            for name, make in EPISODE_ASSISTANTS.items():
                want = stepping_episode(correct, fault, make(), cfg, sim)
                got = run_supervised_episode(correct, fault, unassisted, make(), cfg, sim)
                where = (task, seed, name)
                assert [p.key() for p in got.trace] == [p.key() for p in want.trace], where
                assert got.transit_mask == want.transit_mask, where
                assert got.interventions == want.interventions, where
                assert got.total_steps == want.total_steps, where
                assert got.success == want.success, where
                if name == "first_consult":
                    assert want.interventions == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "assistant, steps, observes, ee_parts, object_maps, projections",
        (("oracle", 1849, 3670, 1291, 0, 0), ("null", 100, 4280, 0, 0, 0)),
    )
    def test_steps_and_observes_only_past_the_unassisted_run(
        self, assistant, steps, observes, ee_parts, object_maps, projections, cfg, monkeypatch
    ):
        counts = dict.fromkeys(("step", "observe", "ee_pose", "object_poses", "cameras"), 0)
        inside = []
        step, observe, episode = Simulator.step, Simulator.observe, pipeline.run_supervised_episode

        def counted(name, original):
            def call(self, *args):
                counts[name] += bool(inside)
                return original(self, *args)

            return call

        def in_episode(*args):
            inside.append(1)
            try:
                return episode(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(Simulator, "step", counted("step", step))
        monkeypatch.setattr(Simulator, "observe", counted("observe", observe))
        for name in ("ee_pose", "object_poses", "cameras"):
            part = functools.cached_property(counted(name, vars(ObservationFrame)[name].func))
            part.__set_name__(ObservationFrame, name)
            monkeypatch.setattr(ObservationFrame, name, part)
        monkeypatch.setattr(pipeline, "run_supervised_episode", in_episode)
        for task in ("pick_cube", "push_cube", "stack_cube"):
            for seed in range(8):
                run_episode_pair(task, seed, cfg, assistant)
        # Stepping every episode from step 0 took 4039 steps with the oracle and 4620 with
        # the null assistant. Each consulted window now observes all its frames, a view
        # each; when the window observed a frame only as the assistant read it, this read
        # 2095 observes with the oracle (428 null), each copying every pose. The oracle
        # reads its window's ten EE poses only for a pose on the nominal path; reading them
        # before its off-path test made 1921 EE parts.
        assert counts == {
            "step": steps, "observe": observes,
            "ee_pose": ee_parts, "object_poses": object_maps, "cameras": projections,
        }

    def test_episode_builds_no_command_stream(self, cfg, monkeypatch):
        # The episode runs its unassisted rollout's commands: it plans and perturbs
        # nothing, so the correct rollouts and the fault draws build every stream.
        counts = {"plan_commands": 0, "perturb_stage": 0, "in_episode": 0}
        inside = []
        episode = pipeline.run_supervised_episode

        def counted(name, original):
            def call(*args, **kwargs):
                counts[name] += 1
                counts["in_episode"] += bool(inside)
                return original(*args, **kwargs)

            return call

        def in_episode(*args):
            inside.append(1)
            try:
                return episode(*args)
            finally:
                inside.pop()

        # Every failsafe module global bound to either function, however it is imported.
        for original in (plan_commands, perturb_stage):
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "failsafe":
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, counted(original.__name__, original))
        monkeypatch.setattr(pipeline, "run_supervised_episode", in_episode)
        for task in ("pick_cube", "push_cube", "stack_cube"):
            for seed in range(8):
                run_episode_pair(task, seed, cfg, "oracle")
        # 24 correct rollouts and 26 fault draws; the episodes rebuilt 24 more.
        assert (counts["plan_commands"], counts["perturb_stage"]) == (50, 26)
        assert counts["in_episode"] == 0

    def test_window_reads_like_the_list(self, cfg, sim):
        reads = {"list": [], "window": []}

        def reader(side):
            def decide(frames, context):
                span = len(frames)
                reads[side].append(
                    (
                        span,
                        [frame_key(f) for f in frames],
                        [frame_key(frames[i]) for i in range(-span, span)],
                        [frame_key(f) for f in frames[-3:]],
                        [frame_key(f) for f in frames[::-2]],
                        [frame_key(f) for f in frames[1:5]],
                        frames[span:],
                    )
                )
                with pytest.raises(IndexError):
                    frames[span]
                with pytest.raises(IndexError):
                    frames[-span - 1]
                return oracle_assistant_decide(frames, context)

            return decide

        for task, seed in (("pick_cube", 1), ("stack_cube", 0)):
            correct, fault, unassisted = confirmed_scene(task, seed, cfg, sim)
            stepping_episode(correct, fault, reader("list"), cfg, sim)
            run_supervised_episode(correct, fault, unassisted, reader("window"), cfg, sim)
        assert reads["window"] == reads["list"]
        assert {r[0] for r in reads["list"]} == {WINDOW_FRAMES}

    def test_window_is_read_only(self, cfg, sim):
        windows = []

        def keeper(frames, context):
            windows.append(frames)
            return null_assistant(frames, context)

        run_supervised_episode(*scene_for("pick_cube", 0, cfg, sim), keeper, cfg, sim)
        with pytest.raises(TypeError):
            windows[0][0] = windows[0][1]


class TestEpisodePair:
    def test_unfaulted_bare_run_matches_null_assistant(self, cfg, sim):
        bare = replace(cfg, supervisor=replace(cfg.supervisor, faults={}))
        for seed in range(2):
            bare_ok, _ = run_episode_pair("pick_cube", seed, bare, "oracle")
            explicit = run_supervised_episode(
                *scene_for("pick_cube", seed, bare, sim),
                null_assistant, bare, sim,
            )
            assert bare_ok == explicit.success

    @pytest.mark.parametrize("cadence", (None, 4))
    def test_confirmed_fault_bare_run_fails(self, cadence, cfg, sim, cube_faults):
        paced = cfg if cadence is None else with_cadence(cfg, cadence)
        for task in ("pick_cube", "stack_cube"):
            fault = cube_faults[(task, 0)]
            bare_ok, _ = run_episode_pair(task, 0, paced, "null")
            explicit = run_supervised_episode(
                *scene_for(task, 0, cfg, sim, fault),
                null_assistant, paced, sim,
            )
            assert bare_ok is False and explicit.success is False

    def test_plans_the_scene_once(self, cfg, monkeypatch):
        import failsafe

        calls = []
        plan = failsafe.tasks.plan_task

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return plan(*args, **kwargs)

        for module in vars(failsafe).values():
            if getattr(module, "plan_task", None) is plan:
                monkeypatch.setattr(module, "plan_task", counted)
        _, helped = run_episode_pair("pick_cube", 1, cfg, "oracle")
        assert helped.success
        assert calls == [("pick_cube", 1)]

    @pytest.mark.parametrize("faults", ("configured", "none"))
    def test_rolls_the_correct_plan_once(self, faults, cfg, monkeypatch):
        import failsafe

        if faults == "none":
            cfg = replace(cfg, supervisor=replace(cfg.supervisor, faults={}))
        full = []
        rollout = failsafe.tasks.rollout_plan
        signature = inspect.signature(rollout)

        def counted(*args, **kwargs):
            if signature.bind(*args, **kwargs).arguments.get("max_steps") is None:
                full.append(args[0])
            return rollout(*args, **kwargs)

        for module in vars(failsafe).values():
            if getattr(module, "rollout_plan", None) is rollout:
                monkeypatch.setattr(module, "rollout_plan", counted)
        bare_ok, helped = run_episode_pair("pick_cube", 1, cfg, "oracle")
        assert helped.success and bare_ok == (faults == "none")
        assert len(full) == 1


    def test_judges_each_unassisted_run_and_each_episode_once(self, cfg, monkeypatch):
        # A rollout does not judge itself: one evaluate_success per fault draw
        # (or bare run) and one per assisted episode, and no extra stepping.
        judged, stepped = [], []
        evaluate, step = Simulator.evaluate_success, Simulator.step
        monkeypatch.setattr(
            Simulator, "evaluate_success", lambda self, *a: judged.append(1) or evaluate(self, *a)
        )
        monkeypatch.setattr(Simulator, "step", lambda self, *a: stepped.append(1) or step(self, *a))
        for task in ("pick_cube", "push_cube", "stack_cube"):
            for seed in range(8):
                run_episode_pair(task, seed, cfg, "oracle")
        assert (len(judged), len(stepped)) == (50, 8495)


class TestOracleOnEpisodes:
    def test_quiet_before_onset(self, cfg, sim):
        fault = harness_fault("pick_cube", 0, cfg, sim)
        plan, world = plan_task("pick_cube", 0, cfg)
        commands = stream_for("pick_cube", 0, cfg, fault)
        correct = rollout_plan(plan, world, sim)
        context = EpisodeContext(
            fault=fault,
            correct=correct,
            cfg=cfg,
        )
        frames = [sim.observe(world, 0)]
        onset = onset_step(fault, correct)
        for step, command in enumerate(commands[: min(onset, 30)], 1):
            world = sim.step(world, command)
            frames.append(sim.observe(world, step))
            decision = oracle_assistant_decide(frames[-10:], context)
            assert not decision.is_failure

    def test_reports_true_failure_type(self, cfg, sim):
        fault = harness_fault("pick_cube", 1, cfg, sim)
        seen = []

        def spy(frames, context):
            decision = oracle_assistant_decide(frames, context)
            if decision.is_failure:
                seen.append(decision)
            return decision

        run_supervised_episode(
            *scene_for("pick_cube", 1, cfg, sim, fault),
            spy, cfg, sim,
        )
        assert seen
        assert all(d.failure_type == (fault.mode, fault.axis) for d in seen)
        assert all(d.recovery is not None for d in seen)

    def test_echoes_dataset_entry_labels(self, entries):
        for entry in entries:
            decision = oracle_assistant_decide(entry.frames, entry)
            assert decision.is_failure == entry.is_failure
            assert decision.sub_task == entry.sub_task
            if entry.is_failure:
                assert decision.failure_type == entry.failure_type
                assert decision.recovery == entry.recovery


class TestWindowFrozen:
    def test_short_history_is_not_frozen(self, cfg, sim):
        _, world = plan_task("pick_cube", 0, cfg)
        frames = [sim.observe(world, 0)] * 9
        assert not _window_frozen(frames)

    def test_static_window_is_frozen(self, cfg, sim):
        _, world = plan_task("pick_cube", 0, cfg)
        frames = [sim.observe(world, 0)] * 10
        assert _window_frozen(frames)

    def test_moving_window_is_not_frozen(self, cfg, sim):
        _, world = plan_task("pick_cube", 0, cfg)
        frames = [sim.observe(world, 0)]
        for step, command in enumerate(stream_for("pick_cube", 0, cfg)[:12], 1):
            world = sim.step(world, command)
            frames.append(sim.observe(world, step))
        assert not _window_frozen(frames[-10:])


class TestEvaluateAssistant:
    def test_empty_set_rejected(self):
        with pytest.raises(MetricsError):
            evaluate_assistant(null_assistant, [])

    def test_oracle_scores_perfectly(self, entries):
        metrics = evaluate_assistant(oracle_assistant_decide, entries)
        assert metrics.binary_success == 1.0
        assert metrics.type_accuracy == 1.0
        assert metrics.mean_cosine >= 0.999

    def test_null_cosine_exactly_zero(self, entries):
        metrics = evaluate_assistant(null_assistant, entries)
        failures = [e for e in entries if e.is_failure]
        successes = [e for e in entries if not e.is_failure]
        assert metrics.mean_cosine == 0.0
        assert metrics.binary_success == pytest.approx(len(successes) / len(entries))
        assert metrics.type_accuracy == pytest.approx(len(successes) / len(entries))

    def test_zero_vector_prediction_scores_zero_cosine(self, entries):
        def zealous(frames, entry):
            return AssistantDecision(
                sub_task=entry.sub_task,
                is_failure=True,
                failure_type=entry.failure_type,
                recovery=DeltaAction.zero(),
            )

        failures = [e for e in entries if e.is_failure]
        assert all(np.any(e.recovery.as_vector()) for e in failures)
        metrics = evaluate_assistant(zealous, failures)
        assert metrics.binary_success == 1.0
        assert metrics.mean_cosine == 0.0

    def test_cosine_zero_vector_convention(self):
        from failsafe.supervisor import _recovery_cosine

        zero = DeltaAction.zero()
        some = DeltaAction([0.01, 0, 0], [0, 0, 0])
        assert _recovery_cosine(None, some) == 0.0
        assert _recovery_cosine(zero, some) == 0.0
        # a zero label answered with exactly zero is a perfect prediction
        assert _recovery_cosine(zero, zero) == 1.0
        assert _recovery_cosine(some, some) == pytest.approx(1.0, abs=1e-12)

    def test_no_failure_entries_means_zero_cosine(self, entries):
        successes = [e for e in entries if not e.is_failure]
        metrics = evaluate_assistant(oracle_assistant_decide, successes)
        assert metrics.mean_cosine == 0.0
        assert metrics.binary_success == 1.0
