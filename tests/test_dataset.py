"""Dataset construction, serialization, stats, and splits."""

import collections
import copy
import gc
import json
import math
import os
import pickle
import stat
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from failsafe.config import default_config, parse_failure_entry
from failsafe.dataset import (
    SCHEMA_VERSION,
    WINDOW_FRAMES,
    DatasetEntry,
    _float_list,
    _number,
    build_entry,
    build_gt_entries,
    dataset_stats,
    enforce_ratio,
    entry_from_record,
    failure_label,
    observer,
    read_dataset,
    split_by_seed,
    stats_summary,
    write_dataset,
)
from failsafe.errors import (
    ContractViolation,
    DatasetFormatError,
    DatasetVersionError,
)
from failsafe.failures import generate_failure_case
from failsafe.geometry import Pose
from failsafe.pipeline import build_seed_entries
from failsafe.recovery import collect_candidates
from failsafe.sim import CAMERA_IDS, Simulator
from failsafe.tasks import TASKS, plan_task, rollout_plan, task_spec
from failsafe.verifier import verify_candidate


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def sim(cfg):
    return Simulator(cfg)


@pytest.fixture(scope="module")
def corpus(cfg, sim):
    """A small authentic corpus: one task, a handful of seeds."""
    cases = {}
    entries = []
    for seed in range(8):
        frame = observer(sim)
        correct = correct_rollout(seed, cfg, sim)
        case = generate_failure_case(correct, cfg, sim)
        if case is not None:
            cands = collect_candidates(case, cfg.dataset.candidates_per_case)
            good = [c for c in cands if verify_candidate(case, c, cfg, sim)]
            if good:
                cases[seed] = (case, good)
                entries.extend(build_entry(case, c, frame) for c in good)
        entries.extend(build_gt_entries(correct, cfg, frame))
    assert cases and any(e.is_failure for e in entries)
    return cases, entries


@pytest.fixture(scope="module")
def funnel_calls(tmp_path_factory):
    """Calls made by `generate --task all --seeds 0..7 --jobs 1`, by function name."""
    import failsafe.sim
    from failsafe.cli import cli_main

    calls = collections.Counter()
    with pytest.MonkeyPatch.context() as patch:
        targets = [(Simulator, n) for n in ("observe", "_frame_cameras", "step")]
        targets += [(Simulator, "evaluate_success"), (failsafe.sim, "attached_object_pose")]
        targets += [(failsafe.sim, "_segment_point_distance")]
        for owner, name in targets:
            fn = getattr(owner, name)
            patch.setattr(owner, name, lambda *a, _n=name, _f=fn: calls.update([_n]) or _f(*a))
        rotate = failsafe.sim.quat_rotate
        patch.setattr(
            failsafe.sim,
            "quat_rotate",
            lambda q, v: calls.update(["box_corner_rotations"] * (v.ndim == 2)) or rotate(q, v),
        )
        argv = ["generate", "--task", "all", "--seeds", "0..7", "--jobs", "1", "--out"]
        assert cli_main([*argv, str(tmp_path_factory.mktemp("funnel"))]) == 0
    return calls


def correct_rollout(seed, cfg, sim):
    return rollout_plan(*plan_task("pick_cube", seed, cfg), sim)


def columns(entries):
    """Each entry's stats column counted per task, as `stats` counts a file's lines."""
    return collections.Counter(
        (e.task_id, failure_label(*e.failure_type) if e.is_failure else "gt") for e in entries
    )


def records(entries):
    """Each entry's value: its on-disk record, frames included."""
    return [e.to_record() for e in entries]


def reseeded(entry, new_seed):
    """A distinct copy of an entry differing only in its scene seed."""
    return replace(entry, provenance={**entry.provenance, "seed": new_seed})


class TestBuildEntry:
    def test_failure_entry_shape(self, cfg, sim, corpus):
        cases, _ = corpus
        seed, (case, good) = next(iter(cases.items()))
        cand = good[0]
        entry = build_entry(case, cand, observer(sim))
        start, _ = case.failed.stage_bounds(case.spec.stage_index)
        assert len(entry.frames) == WINDOW_FRAMES
        assert entry.end_step == start + cand.d_index
        assert entry.is_failure is True
        assert entry.failure_type == (case.spec.mode, case.spec.axis)
        assert entry.sub_task == task_spec("pick_cube").stage_names[case.spec.stage_index]
        assert entry.instruction == task_spec("pick_cube").instruction
        assert list(entry.recovery.as_vector()) == list(cand.action.as_vector())
        assert entry.provenance == {
            "seed": case.correct.plan.seed,
            "stage": case.spec.stage_index,
            "d_index": cand.d_index,
            "c_index": cand.c_index,
            "magnitude": case.spec.magnitude,
        }

    def test_frames_are_step_consecutive(self, corpus):
        _, entries = corpus
        for entry in entries:
            steps = [f.step for f in entry.frames]
            assert steps == list(range(steps[0], steps[0] + WINDOW_FRAMES))

    def test_unverified_candidate_rejected(self, cfg, sim, corpus):
        cases, _ = corpus
        _, (case, good) = next(iter(cases.items()))
        pristine = replace(good[0], verified=False)
        with pytest.raises(ContractViolation):
            build_entry(case, pristine, observer(sim))

    def test_window_before_step_zero_rejected(self, cfg, sim, corpus):
        cases, _ = corpus
        _, (case, good) = next(iter(cases.items()))
        # Deviate in the first stage, two steps short of a full window.
        early = replace(case, spec=replace(case.spec, stage_index=0))
        with pytest.raises(ContractViolation):
            build_entry(early, replace(good[0], d_index=WINDOW_FRAMES - 2), observer(sim))

    def test_gt_entries_shape_and_determinism(self, cfg, sim):
        first = build_gt_entries(correct_rollout(3, cfg, sim), cfg, observer(sim))
        again = build_gt_entries(correct_rollout(3, cfg, sim), cfg, observer(sim))
        assert records(first) == records(again)
        assert len(first) == cfg.dataset.gt_entries_per_seed
        for entry in first:
            assert entry.is_failure is False
            assert entry.failure_type is None and entry.recovery is None
            assert entry.end_step >= WINDOW_FRAMES - 1
            assert entry.sub_task in task_spec("pick_cube").stage_names
            assert entry.provenance["seed"] == 3
            assert entry.provenance["stage"] is None
            assert entry.provenance["magnitude"] is None

    def test_gt_sub_task_names_the_containing_stage(self, cfg, sim):
        traj = correct_rollout(3, cfg, sim)
        for entry in build_gt_entries(traj, cfg, observer(sim)):
            end = entry.end_step
            stage = next(
                i for i, last in enumerate(traj.stage_boundaries) if end <= last
            )
            assert entry.sub_task == task_spec("pick_cube").stage_names[stage]

    @pytest.mark.parametrize("task_id", sorted(TASKS))
    def test_sub_task_is_the_plans_stage_name_for_every_task(self, cfg, sim, task_id):
        # A failure line names the perturbed stage, a GT line the stage holding its end.
        for seed in range(3):
            correct = rollout_plan(*plan_task(task_id, seed, cfg), sim)
            names = correct.plan.stage_names
            for entry in build_seed_entries(task_id, seed, cfg):
                if entry.is_failure:
                    assert entry.sub_task == names[entry.provenance["stage"]]
                else:
                    assert entry.sub_task == names[correct.stage_at(entry.end_step)]


class TestBuildSeedEntries:
    @pytest.mark.parametrize("benign", [True, False], ids=["benign", "confirmed"])
    def test_plans_once_and_rolls_at_most_twice(self, cfg, sim, benign, monkeypatch):
        import failsafe

        if benign:  # a shift far too small to break the rollout
            cfg = replace(cfg, tasks={"pick_cube": [parse_failure_entry(
                {"mode": "translation", "axis": "x", "range": [1e-4, 2e-4],
                 "stages": ["grasp"]}, "test")]})
        calls = {"plan_task": 0, "rollout_plan": 0}
        for name in calls:
            original = getattr(failsafe.tasks, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for module in vars(failsafe).values():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        entries = build_seed_entries("pick_cube", 4, cfg)
        assert any(e.is_failure for e in entries) is not benign
        assert calls == {"plan_task": 1, "rollout_plan": 2}
        assert records(e for e in entries if not e.is_failure) == records(
            build_gt_entries(correct_rollout(4, cfg, sim), cfg, observer(sim))
        )

    def test_pickled_block_projects_no_camera(self, cfg, monkeypatch):
        # A pool worker sends its block back as views: a window the parent drops is never
        # projected, and a kept one is projected in the parent, to the same record.
        block = build_seed_entries("pick_cube", 0, cfg)
        assert any(e.is_failure for e in block) and not all(e.is_failure for e in block)
        projected = []
        project = Simulator._frame_cameras
        monkeypatch.setattr(
            Simulator, "_frame_cameras", lambda *a: projected.append(1) or project(*a)
        )
        data = pickle.dumps(block)
        assert projected == []
        assert records(pickle.loads(data)) == records(block)

    def test_observes_each_step_and_rotates_each_state_once(self, funnel_calls):
        # `generate --task all --seeds 0..7 --jobs 1`. When every frame rotated every
        # box's corners and every window observed its steps afresh, this read 2520
        # observe calls, 2230 frames projected and 2090 box-corner rotations.
        names = ("observe", "_frame_cameras", "box_corner_rotations", "step")
        assert tuple(funnel_calls[name] for name in names) == (2096, 1830, 510, 24428)

    def test_places_carried_objects_on_read_and_screens_contacts(self, funnel_calls):
        # The same run. When every carrying step placed its held object and every sweep
        # measured its exact distance to every pushable object, this read 13 359
        # placements and 7 597 segment distances; while every observed frame copied its
        # object poses, 900 placements (the dropped success windows' frames now read none).
        # One evaluate_success per correct rollout (in generate_failure_case), failure draw
        # and replayed candidate: when build_gt_entries judged each correct rollout again,
        # this read 354 calls.
        names = ("attached_object_pose", "_segment_point_distance", "step", "evaluate_success")
        assert tuple(funnel_calls[name] for name in names) == (803, 1053, 24428, 306)


class TestEntryInvariants:
    def test_bad_constructions_rejected(self, corpus):
        _, entries = corpus
        failure = next(e for e in entries if e.is_failure)
        success = next(e for e in entries if not e.is_failure)
        with pytest.raises(ContractViolation):
            replace(failure, frames=failure.frames[:9])
        with pytest.raises(ContractViolation):
            replace(failure, frames=failure.frames[:5] + failure.frames[4:9])
        with pytest.raises(ContractViolation):
            replace(failure, recovery=None)
        with pytest.raises(ContractViolation):
            replace(success, failure_type=("no_ops", None))
        with pytest.raises(ContractViolation):
            replace(success, provenance={**success.provenance, "d_index": 3})
        with pytest.raises(ContractViolation):
            replace(failure, sub_task="juggle")


class TestSerialization:
    def test_round_trip_of_1000_entries(self, corpus, tmp_path):
        _, base = corpus
        entries = list(base)
        k = 1
        while len(entries) < 1000:
            entries.extend(reseeded(e, e.seed + 1000 * k) for e in base)
            k += 1
        entries = entries[:1000]
        path = tmp_path / "big.jsonl"
        assert write_dataset(entries, path) == 1000
        back = read_dataset(path)
        from failsafe.dataset import sort_key

        assert records(back) == records(sorted(entries, key=sort_key))

    def test_recovery_angles_read_back_as_written(self, corpus):
        # The writer's angles are wrapped already; wrapping them again on read turned
        # +pi into -pi and 0.1 into 0.10000000000000009.
        _, entries = corpus
        record = json.loads(json.dumps(next(e for e in entries if e.is_failure).to_record()))
        record["recovery"][3:5] = [math.pi, 0.1]
        assert entry_from_record(record).to_record()["recovery"] == record["recovery"]

    def test_record_is_labels_with_frame_records(self, cfg, sim, corpus):
        cases, _ = corpus
        case, good = next(iter(cases.values()))
        fresh = build_entry(case, good[0], observer(sim)), build_gt_entries(
            case.correct, cfg, observer(sim)
        )[0]
        for entry in fresh:
            labels = entry.labels()
            # Labels read only each frame's step: no frame part is made for them.
            assert not any(
                vars(f).keys() & {"ee_pose", "object_poses", "cameras"} for f in entry.frames
            )
            record = entry.to_record()
            assert list(labels) == list(record)
            assert labels["frames"] == [f["step"] for f in record["frames"]]
            assert {**labels, "frames": record["frames"]} == record

    def test_written_file_mode_follows_umask(self, corpus, tmp_path):
        _, entries = corpus
        path = tmp_path / "moded.jsonl"
        previous = os.umask(0o022)
        try:
            write_dataset(entries, path)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644

    def test_write_is_canonical(self, corpus, tmp_path):
        _, entries = corpus
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(entries, a)
        write_dataset(list(reversed(entries)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_final_line(self, corpus, tmp_path):
        _, entries = corpus
        path = tmp_path / "cut.jsonl"
        write_dataset(entries, path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line == len(lines)

    def test_version_mismatch(self, corpus, tmp_path):
        _, entries = corpus
        path = tmp_path / "v.jsonl"
        write_dataset(entries[:2], path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["schema_version"] = SCHEMA_VERSION + 1
        lines[1] = json.dumps(record, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetVersionError) as err:
            read_dataset(path)
        assert err.value.line == 2
        assert isinstance(err.value, DatasetFormatError)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_is_the_integer_one(self, corpus, tmp_path, version):
        # True == 1 and 1.0 == 1, so a != test read both lines as version 1.
        _, entries = corpus
        path = tmp_path / "v.jsonl"
        write_dataset(entries[:2], path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"schema_version":1,', f'"schema_version":{json.dumps(version)},')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetVersionError, match=f"^line 2: schema_version {version!r} ") as err:
            read_dataset(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("excess, refused", [(2e-9, True), (-2e-9, True), (5e-10, False),
                                                 (-5e-10, False)])
    def test_unit_quaternion_tolerance(self, corpus, excess, refused):
        # w*w + x*x + y*y + z*z in that order, on Python floats, within 1e-9 of one.
        _, entries = corpus
        record = json.loads(json.dumps(entries[0].to_record()))
        for axis in range(4):
            orientation = [0.0] * 4
            orientation[axis] = math.sqrt(1.0 + excess)
            record["frames"][3]["objects"]["cube"]["orientation"] = orientation
            if refused:
                with pytest.raises(DatasetFormatError, match=r"^frames\[3\]\.objects\[cube\]"
                                   r"\.orientation is not a unit quaternion$"):
                    entry_from_record(record)
            else:
                read = entry_from_record(record).frames[3].object_poses["cube"].orientation
                assert read.tolist() == orientation  # the written bits, not renormalised

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda f: f["ee"]["orientation"].__setitem__(2, math.nan),
             "frames[4].ee.orientation must be finite"),
            (lambda f: f["objects"]["cube"]["orientation"].__setitem__(0, math.inf),
             "frames[4].objects[cube].orientation must be finite"),
            (lambda f: f["ee"].update(gripper=True), "frames[4].ee.gripper must be a number"),
            (lambda f: f["ee"]["orientation"].pop(),
             "frames[4].ee.orientation must be a list of 4 numbers"),
            (lambda f: f["objects"]["cube"]["position"].__setitem__(1, 10**400),
             "frames[4].objects[cube].position must be finite"),
            (lambda f: f["cameras"]["hand"][-1].__setitem__(0, 3),
             "frames[4].cameras.hand items must be [keypoint, u, v]"),
            (lambda f: f["objects"].update({"": f["objects"]["cube"]}),
             "frames[4].objects keys must be non-empty strings"),
            (lambda f: f["cameras"].update(side={"cube:center": [1.0, 2.0]}),
             "frames[4].cameras.side must be a list"),
        ],
    )
    def test_each_frame_field_is_checked_on_read(self, corpus, tmp_path, mangle, message):
        # The reader builds no frame part, so each field is refused by its check alone.
        _, entries = corpus
        path = tmp_path / "bad.jsonl"
        write_dataset(entries[:3], path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        mangle(record["frames"][4])
        lines[2] = json.dumps(record, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert str(err.value) == f"line 3: {message}" and err.value.line == 3

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda r: r.pop("sub_task"),
            lambda r: r.update(extra=1),
            lambda r: r.update(is_failure="yes"),
            lambda r: r["frames"][0]["ee"].update(orientation=[2.0, 0, 0, 0]),
            lambda r: r["frames"][1]["ee"]["position"].__setitem__(0, float("inf")),
            lambda r: r["frames"].pop(),
            lambda r: r.update(recovery=None),
            lambda r: r["provenance"].update(seed=None),
            lambda r: r["frames"][3].update(step=0),
            lambda r: r["provenance"].update(seed=2**32),  # aliases seed 0's streams
            lambda r: r["failure_type"].update(mode=["translation"]),  # unhashable
            lambda r: r["failure_type"].update(axis={"x": 1}),
            lambda r: r["frames"][0]["ee"]["position"].__setitem__(0, 10**400),  # past a float
            lambda r: r["frames"][0].update(image_path="cam/0001.png"),  # the writer writes null
        ],
    )
    def test_malformed_records_rejected_with_line_number(
        self, corpus, tmp_path, mangle
    ):
        _, entries = corpus
        failure = next(e for e in entries if e.is_failure)
        path = tmp_path / "bad.jsonl"
        write_dataset([failure], path)
        record = json.loads(path.read_text())
        mangle(record)
        path.write_text(json.dumps(record, separators=(",", ":")) + "\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "item, message",
        [
            (["k", float("nan"), 1.0], "frames[2].cameras.front.u must be finite"),
            (["k", 1.0, float("inf")], "frames[2].cameras.front.v must be finite"),
            (["k", "1.0", 1.0], "frames[2].cameras.front.u must be a number"),
            (["k", 1.0, True], "frames[2].cameras.front.v must be a number"),
            (["k", 1.0], "frames[2].cameras.front items must be [keypoint, u, v]"),
            ([7, 1.0, 1.0], "frames[2].cameras.front items must be [keypoint, u, v]"),
            (["k", 10**400, 1.0], "frames[2].cameras.front.u must be finite"),
        ],
    )
    def test_bad_keypoint_named(self, corpus, tmp_path, item, message):
        _, entries = corpus
        record = entries[0].to_record()
        record["frames"][2]["cameras"]["front"][0] = item
        with pytest.raises(DatasetFormatError, match=message.replace("[", r"\[")):
            entry_from_record(json.loads(json.dumps(record)))

    def test_writer_refuses_a_non_finite_number(self, corpus, tmp_path):
        # json.dumps would write NaN, a token that no reader of this format takes.
        _, entries = corpus
        entry, frame = entries[0], entries[0].frames[0]
        nan_frame = copy.copy(frame)
        vars(nan_frame)["cameras"] = {**frame.cameras, "front": [("k", math.nan, 1.0)]}
        path = tmp_path / "nan.jsonl"
        path.write_bytes(b"before\n")
        with pytest.raises(ContractViolation, match=f"pick_cube seed {entry.seed} .*not finite"):
            write_dataset([replace(entry, frames=(nan_frame, *entry.frames[1:]))], path)
        assert path.read_bytes() == b"before\n"
        assert os.listdir(tmp_path) == ["nan.jsonl"]

    def test_integer_numbers_read_as_floats(self, corpus):
        _, entries = corpus
        record = json.loads(json.dumps(entries[0].to_record()))
        frame = record["frames"][0]
        frame["cameras"]["front"][0][1:] = [3, -2]
        frame["ee"]["gripper"] = 1
        read = entry_from_record(record).frames[0]
        assert read.cameras["front"][0][1:] == (3.0, -2.0)
        assert all(type(v) is float for v in read.cameras["front"][0][1:])
        assert type(read.ee_pose.gripper) is float and read.ee_pose.gripper == 1.0

    def test_negative_zero_gripper_reads_as_zero(self, corpus):
        # A read pose is clamped like any pose; the writer never writes -0.0, because
        # every gripper it writes went through the same clamp.
        _, entries = corpus
        record = json.loads(json.dumps(entries[0].to_record()))
        record["frames"][0]["ee"]["gripper"] = -0.0
        gripper = entry_from_record(record).frames[0].ee_pose.gripper
        assert gripper == 0.0 and math.copysign(1.0, gripper) == 1.0

    def test_unparseable_line_number(self, corpus, tmp_path):
        _, entries = corpus
        path = tmp_path / "garbled.jsonl"
        write_dataset(entries[:3], path)
        lines = path.read_text().splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_empty_file_reads_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_dataset([], path)
        assert read_dataset(path) == []

    def test_schema_closure_after_read(self, corpus, tmp_path):
        _, entries = corpus
        path = tmp_path / "closed.jsonl"
        write_dataset(entries, path)
        for entry in read_dataset(path):
            # Re-validation through the constructor must not raise.
            entry_from_record(entry.to_record())


class TestRatio:
    def test_gt_pool_thinned_to_target(self, cfg, corpus):
        _, base = corpus
        stock = [e for e in base if e.is_failure]
        gts = [e for e in base if not e.is_failure]
        failures = [reseeded(stock[i % len(stock)], 7000 + i) for i in range(46)]
        entries = failures + [reseeded(gts[0], 9000 + i) for i in range(40)]
        balanced = enforce_ratio(entries, cfg)
        kept_gt = [e for e in balanced if not e.is_failure]
        assert sum(e.is_failure for e in balanced) == 46
        assert len(kept_gt) == round(46 / cfg.dataset.failure_to_gt_ratio) == 20
        assert stats_summary(columns(balanced))["ratio_label"] == "2.3:1"

    def test_small_gt_pool_kept_whole(self, cfg, corpus):
        _, base = corpus
        balanced = enforce_ratio(base, cfg)
        failures = sum(e.is_failure for e in base)
        gt = sum(not e.is_failure for e in base)
        if round(failures / cfg.dataset.failure_to_gt_ratio) >= gt:
            assert sum(not e.is_failure for e in balanced) == gt
        else:
            assert sum(not e.is_failure for e in balanced) == round(
                failures / cfg.dataset.failure_to_gt_ratio
            )

    def test_failures_never_dropped(self, cfg, corpus):
        _, base = corpus
        balanced = enforce_ratio(base, cfg)
        assert sum(e.is_failure for e in balanced) == sum(e.is_failure for e in base)


class TestStats:
    def test_labels(self):
        assert failure_label("translation", "x") == "trans_x"
        assert failure_label("rotation", "pitch") == "rot_y"
        assert failure_label("rotation", "yaw") == "rot_z"
        assert failure_label("no_ops", None) == "no_ops"
        with pytest.raises(ContractViolation):
            failure_label("rotation", "x")

    def test_file_report_counts_its_entries(self, corpus, tmp_path):
        _, entries = corpus
        path = tmp_path / "stats.jsonl"
        write_dataset(entries, path)
        assert dataset_stats(path) == stats_summary(columns(entries))

    def test_zero_failures_ratio(self):
        summary = stats_summary({("pick_cube", "gt"): 12})
        assert summary["ratio"] == 0.0
        assert summary["ratio_label"] == "0.0:1"

    def test_zero_gt_ratio_is_infinite(self):
        summary = stats_summary({("pick_cube", "no_ops"): 5})
        assert summary["ratio"] is None
        assert summary["ratio_label"] == "inf:1"

    def test_all_zero_task_gets_no_row(self):
        summary = stats_summary({("pick_cube", "gt"): 0, ("push_cube", "gt"): 3})
        assert list(summary["tasks"]) == ["push_cube"]
        assert summary["totals"]["gt"] == summary["gt"] == 3

    def test_summary_fields(self, corpus):
        _, entries = corpus
        summary = stats_summary(columns(entries))
        assert set(summary) == {
            "tasks", "totals", "failures", "gt", "ratio", "ratio_label",
        }
        assert summary["failures"] == sum(e.is_failure for e in entries)
        assert summary["gt"] == sum(not e.is_failure for e in entries)

    def test_unknown_column_rejected(self):
        with pytest.raises(ContractViolation):
            stats_summary({("pick_cube", "meltdown"): 1})

    @pytest.mark.parametrize("count", [-1, 1.0, True, "3", None])
    def test_count_must_be_a_non_negative_integer(self, count):
        with pytest.raises(ContractViolation):
            stats_summary({("pick_cube", "gt"): count})


class TestSplit:
    def test_partition_is_seed_disjoint(self, corpus):
        _, entries = corpus
        train, test = split_by_seed(entries, [1, 3, 5])
        assert len(train) + len(test) == len(entries)
        assert {e.seed for e in test} <= {1, 3, 5}
        assert not ({e.seed for e in train} & {e.seed for e in test})

    def test_empty_holdout(self, corpus):
        _, entries = corpus
        train, test = split_by_seed(entries, [])
        assert train == list(entries) and test == []


@pytest.fixture(scope="module")
def all_tasks(tmp_path_factory):
    """The dataset.jsonl of `generate --task all --seeds 0..2`."""
    from failsafe.cli import cli_main

    out = tmp_path_factory.mktemp("all") / "run"
    assert cli_main(["generate", "--task", "all", "--seeds", "0..2", "--out", str(out)]) == 0
    return out / "dataset.jsonl"


def eager_parts(record):
    """A frame record's parts as the reader built them before a read frame made each on
    first read: its conversions, copied from that build with the checks left out."""
    def pose(r):
        position = np.array(_float_list(r["position"], 3, "position"))
        orientation = np.array(_float_list(r["orientation"], 4, "orientation"))
        return Pose.trusted(position, orientation, _number(r["gripper"], "gripper"), normalised=True)

    objects = {obj_id: pose(record["objects"][obj_id]) for obj_id in sorted(record["objects"])}
    cameras = {
        cam: [(kp, _number(u, "u"), _number(v, "v")) for kp, u, v in record["cameras"][cam]]
        for cam in CAMERA_IDS
    }
    return pose(record["ee"]), objects, cameras


def exact(value):
    """value with each float as its bits and each value's type kept: == is bit for bit and
    type for type. A pose is its position and orientation lists and its gripper."""
    if isinstance(value, Pose):
        value = (value.position.tolist(), value.orientation.tolist(), value.gripper)
    if type(value) is float:
        return "float", struct.pack("<d", value)
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [exact(v) for v in value]
    if isinstance(value, dict):
        return "dict", [(k, exact(v)) for k, v in value.items()]
    return type(value).__name__, value


class TestReadBack:
    def test_parts_made_on_first_read_equal_the_eager_build(self, all_tasks):
        lines = all_tasks.read_bytes().splitlines()
        want = [[exact(eager_parts(f)) for f in json.loads(line)["frames"]] for line in lines]
        read = read_dataset(all_tasks)
        pickled = pickle.loads(pickle.dumps(read))
        for entry in read[::2]:  # half of them carry a made part and a parsed line
            entry.frames[0].cameras
        carried = pickle.loads(pickle.dumps(read))
        assert len({e.task_id for e in read}) == len(TASKS) and len(read) == len(want)
        for entries in (read, pickled, carried):
            got = [[exact((f.ee_pose, f.object_poses, f.cameras)) for f in e.frames] for e in entries]
            assert got == want

    def test_split_writes_the_input_lines_of_each_side(self, all_tasks, tmp_path):
        from failsafe.cli import cli_main

        argv = ["split", "--data", str(all_tasks), "--test-seeds", "1", "--out", str(tmp_path)]
        assert cli_main(argv) == 0
        lines = all_tasks.read_bytes().splitlines(keepends=True)
        held = [json.loads(line)["provenance"]["seed"] == 1 for line in lines]
        test = [line for line, h in zip(lines, held) if h]
        assert test and len(test) < len(lines)
        assert (tmp_path / "test.jsonl").read_bytes() == b"".join(test)
        assert (tmp_path / "train.jsonl").read_bytes() == b"".join(
            line for line, h in zip(lines, held) if not h
        )

    def test_read_builds_no_part_and_holds_about_the_file(self, all_tasks, monkeypatch):
        # Before each read frame viewed its line, a read of the seeds 0..7 file made 5130
        # trusted poses and held 3.6 times the file's bytes.
        calls = collections.Counter()
        trusted, loads = Pose.trusted.__func__, json.loads
        monkeypatch.setattr(Pose, "trusted", classmethod(
            lambda cls, *a, **k: calls.update(["trusted"]) or trusted(cls, *a, **k)))
        monkeypatch.setattr(json, "loads", lambda text: calls.update(["parse"]) or loads(text))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            entries = read_dataset(all_tasks)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert calls == {"parse": len(entries)}
        assert held <= 1.5 * all_tasks.stat().st_size
        # One more parse makes every part of an entry's ten frames.
        for frame in entries[0].frames:
            frame.ee_pose, frame.object_poses, frame.cameras
        assert calls["parse"] == len(entries) + 1
        assert calls["trusted"] == sum(1 + len(f.object_poses) for f in entries[0].frames)
