"""Dataset construction, serialization, stats, and splits."""

import collections
import json
import math
import os
import pickle
import stat
from dataclasses import replace

import pytest

from failsafe.config import default_config, parse_failure_entry
from failsafe.dataset import (
    SCHEMA_VERSION,
    WINDOW_FRAMES,
    DatasetEntry,
    DatasetStats,
    build_entry,
    build_gt_entries,
    dataset_stats,
    enforce_ratio,
    entry_from_record,
    failure_label,
    observer,
    read_dataset,
    split_by_seed,
    write_dataset,
)
from failsafe.errors import (
    ContractViolation,
    DatasetFormatError,
    DatasetVersionError,
)
from failsafe.failures import generate_failure_case
from failsafe.pipeline import build_seed_entries
from failsafe.recovery import collect_candidates
from failsafe.sim import Simulator
from failsafe.tasks import plan_task, rollout_plan, task_spec
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
        targets = [(Simulator, n) for n in ("observe", "_project_cameras", "step")]
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
        project = Simulator._project_cameras
        monkeypatch.setattr(
            Simulator, "_project_cameras", lambda *a: projected.append(1) or project(*a)
        )
        data = pickle.dumps(block)
        assert projected == []
        assert records(pickle.loads(data)) == records(block)

    def test_observes_each_step_and_rotates_each_state_once(self, funnel_calls):
        # `generate --task all --seeds 0..7 --jobs 1`. When every frame rotated every
        # box's corners and every window observed its steps afresh, this read 2520
        # observe calls, 2230 frames projected and 2090 box-corner rotations.
        names = ("observe", "_project_cameras", "box_corner_rotations", "step")
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
        stats = DatasetStats.from_entries(balanced)
        assert stats.ratio_label() == "2.3:1"

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

    def test_from_entries_and_path_agree(self, corpus, tmp_path):
        _, entries = corpus
        path = tmp_path / "stats.jsonl"
        write_dataset(entries, path)
        assert dataset_stats(path) == DatasetStats.from_entries(entries)

    def test_zero_failures_ratio(self):
        stats = DatasetStats({("pick_cube", "gt"): 12})
        assert stats.ratio == 0.0
        assert stats.ratio_label() == "0.0:1"

    def test_zero_gt_ratio_is_infinite(self):
        stats = DatasetStats({("pick_cube", "no_ops"): 5})
        assert math.isinf(stats.ratio)

    def test_summary_fields(self, corpus):
        _, entries = corpus
        summary = DatasetStats.from_entries(entries).summary()
        assert set(summary) == {
            "tasks", "totals", "failures", "gt", "ratio", "ratio_label",
        }
        assert summary["failures"] == sum(e.is_failure for e in entries)
        assert summary["gt"] == sum(not e.is_failure for e in entries)

    def test_unknown_column_rejected(self):
        with pytest.raises(ContractViolation):
            DatasetStats({("pick_cube", "meltdown"): 1})


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
