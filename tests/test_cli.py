"""CLI behavior: subcommands, exit codes, determinism, manifest handling."""

import bisect
import json
import math
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

import failsafe
from failsafe.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VERIFY, _parse_seeds, cli_main
from failsafe.config import default_config, load_config
from failsafe.dataset import read_dataset, sort_key, write_dataset
from failsafe.errors import ConfigError, FailSafeError
from failsafe.tasks import TASKS
from failsafe.pipeline import (
    build_seed_entries,
    config_fingerprint,
    generate_task_entries,
    pool_size,
    read_manifest,
)

TASK = "pick_cube"
SEEDS = "3..5"


def run_cli(argv, capsys):
    code = cli_main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    """One generate run shared by the read-only subcommand tests."""
    out = tmp_path_factory.mktemp("cli") / "run"
    code = cli_main(["generate", "--task", TASK, "--seeds", SEEDS, "--out", str(out)])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def dataset(outdir):
    return str(outdir / "dataset.jsonl")


@pytest.fixture(scope="module")
def all_outdir(tmp_path_factory):
    """One generate run over every task, for the shard tests."""
    out = tmp_path_factory.mktemp("cli") / "all"
    assert cli_main(["generate", "--task", "all", "--seeds", "3", "--out", str(out)]) == EXIT_OK
    return out


# Lines no reader can parse: undecodable bytes, and nesting past the JSON parser's depth.
UNREADABLE_LINES = {
    "non_utf8": b'{"task": "\xff\xfe"}\n',
    "too_deep": b"[" * 200_000 + b"]" * 200_000 + b"\n",
}


def with_second_line(path, line):
    """Rewrite a .jsonl file with `line` inserted as its line 2."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join([lines[0], line, *lines[1:]]))


def copy_run(run, into):
    """A copy of a run directory's files that a test may edit."""
    for path in run.iterdir():
        (into / path.name).write_bytes(path.read_bytes())
    return into


class TestSeedParsing:
    def test_range_is_inclusive(self):
        assert _parse_seeds("4..7") == [4, 5, 6, 7]

    def test_single_and_list(self):
        assert _parse_seeds("9") == [9]
        assert _parse_seeds("1,4,2..3") == [1, 4, 2, 3]
        assert _parse_seeds("4294967295") == [2**32 - 1]

    def test_rejects_backwards_and_junk(self):
        with pytest.raises(FailSafeError):
            _parse_seeds("7..4")
        with pytest.raises(FailSafeError):
            _parse_seeds("abc")
        with pytest.raises(FailSafeError):
            _parse_seeds("")
        # Seeds live in [0, 2**32); a range is refused before it expands.
        for text in ("-1", "-2..-1", "4294967296", "0..4294967296"):
            with pytest.raises(FailSafeError, match="outside"):
                _parse_seeds(text)

    def test_rejects_repeated_seed(self):
        for text in ("3,3", "0..5,3..8", "2,0..4"):
            with pytest.raises(FailSafeError, match="more than once"):
                _parse_seeds(text)

    def test_rejects_too_many_seeds(self, tmp_path, capsys):
        from failsafe.cli import SEED_COUNT_LIMIT

        assert len(_parse_seeds(f"0..{SEED_COUNT_LIMIT - 1}")) == SEED_COUNT_LIMIT
        # Counted from the range lengths, before any range expands.
        for text in (f"0..{SEED_COUNT_LIMIT}", f"5,10..{SEED_COUNT_LIMIT + 9}"):
            with pytest.raises(FailSafeError, match="more than"):
                _parse_seeds(text)
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        code, payload, err = run_cli(
            ["split", "--data", str(empty), "--test-seeds", f"0..{SEED_COUNT_LIMIT}",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_USAGE and payload is None
        assert f"more than {SEED_COUNT_LIMIT} seeds" in err


class TestGenerate:
    def test_writes_shard_dataset_manifest(self, outdir, dataset):
        assert (outdir / f"{TASK}.jsonl").exists()
        assert os.path.exists(dataset)
        manifest = read_manifest(outdir / "manifest.json")
        assert manifest["config_sha256"] == config_fingerprint(default_config())
        assert manifest["tasks"] == [TASK]
        assert manifest["seed_range"] == [3, 5]
        counts = manifest["counts"][TASK]
        with open(dataset) as fh:
            n_lines = sum(1 for _ in fh)
        assert counts["failures"] + counts["ground_truth"] == n_lines

    def test_two_runs_byte_identical(self, outdir, tmp_path, capsys):
        code, payload, _ = run_cli(
            ["generate", "--task", TASK, "--seeds", SEEDS, "--out", str(tmp_path)], capsys
        )
        assert code == EXIT_OK
        assert (tmp_path / "dataset.jsonl").read_bytes() == (outdir / "dataset.jsonl").read_bytes()
        assert (tmp_path / "manifest.json").read_bytes() == (outdir / "manifest.json").read_bytes()

    def test_parallel_matches_serial(self, outdir, tmp_path, capsys):
        code, _, _ = run_cli(
            ["generate", "--task", TASK, "--seeds", SEEDS, "--out", str(tmp_path), "--jobs", "2"],
            capsys,
        )
        assert code == EXIT_OK
        assert (tmp_path / "dataset.jsonl").read_bytes() == (outdir / "dataset.jsonl").read_bytes()

    def test_failed_run_leaves_out_as_it_found_it(self, tmp_path, capsys, monkeypatch):
        # The shards of the tasks before push_cube were rewritten beside the earlier
        # run's dataset.jsonl and manifest.json.
        out = tmp_path / "out"
        assert run_cli(["generate", "--task", "all", "--seeds", "0", "--out", str(out)],
                       capsys)[0] == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def fail_on_push(task, *args):
            if task == "push_cube":
                raise FailSafeError("push_cube failed")
            return generate_task_entries(task, *args)

        monkeypatch.setattr("failsafe.cli.generate_task_entries", fail_on_push)
        code, payload, err = run_cli(
            ["generate", "--task", "all", "--seeds", "1", "--out", str(out)], capsys
        )
        assert (code, payload) == (EXIT_RUNTIME, None)
        assert "push_cube failed" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_unknown_task_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["generate", "--task", "bogus", "--seeds", "1..2", "--out", str(tmp_path)], capsys
        )
        assert code == EXIT_USAGE
        assert "bogus" in err

    def test_repeated_seed_is_usage_error(self, tmp_path, capsys):
        # A repeat would write the seed's entries twice.
        out = tmp_path / "dup"
        code, _, err = run_cli(
            ["generate", "--task", TASK, "--seeds", "3,3", "--out", str(out)], capsys
        )
        assert code == EXIT_USAGE
        assert "seed 3 is listed more than once" in err
        assert not out.exists()

    def test_negative_seeds_are_usage_error(self, tmp_path, capsys):
        # Such seeds would write provenance that stats and verify reject.
        out = tmp_path / "neg"
        code, _, err = run_cli(
            ["generate", "--task", TASK, "--seeds=-2..-1", "--out", str(out)], capsys
        )
        assert code == EXIT_USAGE
        assert "outside" in err
        assert not out.exists()

    def test_seed_past_32_bits_is_usage_error(self, tmp_path, capsys):
        # 2**32 would silently alias seed 0 in the scene streams.
        out = tmp_path / "big"
        code, _, err = run_cli(
            ["generate", "--task", TASK, "--seeds", str(2**32), "--out", str(out)], capsys
        )
        assert code == EXIT_USAGE
        assert "outside" in err

    def test_unknown_stage_config_rejected_at_load(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "tasks:\n"
            "  pick_cube:\n"
            "    failures:\n"
            "      - {mode: translation, axis: x, range: [0.03, 0.10], stages: [grasp]}\n"
            "      - {mode: translation, axis: y, range: [0.03, 0.10], stages: [reachh]}\n"
        )
        with pytest.raises(ConfigError, match="reachh"):
            load_config(path)
        # Seed 3 draws the valid entry, so only a load-time check catches it.
        code, _, err = run_cli(
            ["generate", "--config", str(path), "--task", TASK, "--seeds", "3",
             "--out", str(tmp_path / "out")],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "reachh" in err

    def test_table_off_zero_is_config_error(self, tmp_path, capsys):
        # Scenes rest objects at their half-height and the planner's heights are absolute:
        # -0.5 ran and only weakened the pick lift test, 0.05 failed a nominal rollout.
        config = tmp_path / "table.yaml"
        config.write_text("sim: {table_z: -0.5}\n")
        out = tmp_path / "out"
        code, payload, err = run_cli(
            ["generate", "--config", str(config), "--task", TASK, "--seeds", "3",
             "--out", str(out)],
            capsys,
        )
        assert (code, payload) == (EXIT_USAGE, None)
        assert err.startswith("config error:") and "'sim.table_z'" in err
        assert not out.exists()

    def test_zero_goal_radius_is_config_error(self, tmp_path, capsys):
        # The config took 0, then every push_cube rollout failed and generate exited 2.
        config = tmp_path / "goal.yaml"
        config.write_text("sim: {goal_radius: 0}\n")
        out = tmp_path / "out"
        code, payload, err = run_cli(
            ["generate", "--config", str(config), "--task", "push_cube", "--seeds", "0",
             "--out", str(out)],
            capsys,
        )
        assert (code, payload) == (EXIT_USAGE, None)
        assert err.startswith("config error:") and "'sim.goal_radius'" in err
        assert not out.exists()

    def test_camera_on_its_look_at_point_is_config_error(self, tmp_path, capsys):
        # The config took it, and generate exited 0 with NaN on every line, which
        # stats and verify then refused.
        config = tmp_path / "camera.yaml"
        config.write_text("sim: {front_camera: [0.0, 0.0, 0.05]}\n")
        out = tmp_path / "out"
        code, payload, err = run_cli(
            ["generate", "--config", str(config), "--task", TASK, "--seeds", "0..1",
             "--out", str(out)],
            capsys,
        )
        assert (code, payload) == (EXIT_USAGE, None)
        assert err.startswith("config error:") and "'sim.front_camera'" in err
        assert not out.exists()

    def test_non_finite_number_is_runtime_error_leaving_out_as_it_was(self, tmp_path, capsys):
        # A focal length near the largest float projects a keypoint to an infinity;
        # generate exited 0 and wrote Infinity, which no reader takes.
        config = tmp_path / "focal.yaml"
        config.write_text("sim: {focal_px: 1.0e+308}\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "dataset.jsonl").write_bytes(b"earlier run\n")
        code, payload, err = run_cli(
            ["generate", "--config", str(config), "--task", TASK, "--seeds", "0..1",
             "--out", str(out)],
            capsys,
        )
        assert (code, payload) == (EXIT_RUNTIME, None)
        assert "entry pick_cube seed" in err and "not finite" in err
        assert os.listdir(out) == ["dataset.jsonl"]
        assert (out / "dataset.jsonl").read_bytes() == b"earlier run\n"

    def test_stdout_reports_hashes(self, tmp_path, capsys):
        code, payload, _ = run_cli(
            ["generate", "--task", TASK, "--seeds", "3", "--out", str(tmp_path)], capsys
        )
        assert code == EXIT_OK
        assert set(payload) == {
            "dataset", "manifest", "entries", "dataset_sha256", "manifest_sha256",
        }
        assert payload["entries"] > 0

    def test_one_key_config_keeps_default_menus(self, tmp_path, capsys):
        config = tmp_path / "one_key.yaml"
        config.write_text("dataset: {candidates_per_case: 5}\n")
        argv = ["generate", "--task", TASK, "--seeds", SEEDS, "--out"]
        code, payload, _ = run_cli([*argv, str(tmp_path / "file"), "--config", str(config)], capsys)
        assert code == EXIT_OK and payload["entries"] > 0
        # candidates_per_case 5 is the packaged value, so the run is the default one.
        _, default, _ = run_cli([*argv, str(tmp_path / "default")], capsys)
        assert payload["dataset_sha256"] == default["dataset_sha256"]


class TestStats:
    def test_reports_distribution(self, dataset, capsys):
        code, payload, _ = run_cli(["stats", "--data", dataset], capsys)
        assert code == EXIT_OK
        assert payload["failures"] > 0
        assert payload["gt"] > 0
        row = payload["tasks"][TASK]
        assert sum(row.values()) == payload["failures"] + payload["gt"]

    def test_empty_file_zero_table(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        code, payload, _ = run_cli(["stats", "--data", str(empty)], capsys)
        assert code == EXIT_OK
        assert payload["failures"] == 0
        assert payload["gt"] == 0
        assert payload["ratio"] == 0.0
        assert payload["tasks"] == {}

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code, _, _ = run_cli(["stats", "--data", str(tmp_path / "nope.jsonl")], capsys)
        assert code == EXIT_RUNTIME

    @pytest.mark.parametrize("bad", sorted(UNREADABLE_LINES))
    def test_unreadable_line_is_format_error_naming_it(self, dataset, tmp_path, capsys, bad):
        data = tmp_path / "bad.jsonl"
        data.write_bytes(open(dataset, "rb").read())
        with_second_line(data, UNREADABLE_LINES[bad])
        code, payload, err = run_cli(["stats", "--data", str(data)], capsys)
        assert code == EXIT_RUNTIME and payload is None
        assert "line 2:" in err and err.count("\n") == 1


class TestVerify:
    def test_fresh_dataset_verifies_fully(self, dataset, capsys):
        code, payload, _ = run_cli(["verify", "--data", dataset], capsys)
        assert code == EXIT_OK
        assert payload["verified_fraction"] == 1.0

    def test_corrupted_recovery_exits_three(self, dataset, outdir, tmp_path, capsys):
        records = [json.loads(line) for line in open(dataset)]
        poisoned = 0
        for rec in records:
            if rec["is_failure"] and poisoned < 2:
                rec["recovery"][0] += 0.08
                poisoned += 1
        bad = tmp_path / "dataset.jsonl"
        bad.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        (tmp_path / "manifest.json").write_bytes((outdir / "manifest.json").read_bytes())
        code, payload, _ = run_cli(["verify", "--data", str(bad)], capsys)
        assert code == EXIT_VERIFY
        assert payload["verified_fraction"] < 1.0

    def test_deleted_line_fails_manifest_hash(self, dataset, outdir, tmp_path, capsys):
        lines = open(dataset, "rb").read().splitlines(keepends=True)
        short = tmp_path / "dataset.jsonl"
        short.write_bytes(b"".join(lines[:-1]))
        (tmp_path / "manifest.json").write_bytes((outdir / "manifest.json").read_bytes())
        code, payload, err = run_cli(["verify", "--data", str(short)], capsys)
        assert code == EXIT_VERIFY
        # The replay still runs and reports; only the hash failed.
        assert payload["entries"] == len(lines) - 1
        assert payload["verified_fraction"] == 1.0
        assert "dataset_sha256" in err

    def test_refuses_mismatched_config_hash(self, dataset, tmp_path, capsys):
        src = default_config_yaml()
        tweaked = tmp_path / "tweaked.yaml"
        tweaked.write_text(src.replace("[0.6, 1.0]", "[0.7, 1.0]", 1))
        code, payload, err = run_cli(
            ["verify", "--data", dataset, "--config", str(tweaked)], capsys
        )
        assert code == EXIT_USAGE
        assert payload is None
        assert "refusing" in err

    def test_deleted_shard_line_fails_its_block(self, outdir, tmp_path, capsys):
        for name in ("dataset.jsonl", "manifest.json"):
            (tmp_path / name).write_bytes((outdir / name).read_bytes())
        lines = (outdir / f"{TASK}.jsonl").read_bytes().splitlines(keepends=True)
        shard = tmp_path / f"{TASK}.jsonl"
        shard.write_bytes(b"".join(lines[1:]))
        code, payload, err = run_cli(["verify", "--data", str(shard)], capsys)
        assert code == EXIT_VERIFY
        assert payload["entries"] == len(lines) - 1
        assert "does not match its manifest" in err

    def test_every_shard_matches_its_block(self, all_outdir, tmp_path, capsys):
        # Six tasks: shard blocks sit in task-id order, not manifest order.
        out = copy_run(all_outdir, tmp_path)
        for task in TASKS:
            code, _, err = run_cli(["verify", "--data", str(out / f"{task}.jsonl")], capsys)
            assert code == EXIT_OK, err
        # A shard stale against a rewritten dataset.jsonl no longer matches.
        (out / "dataset.jsonl").write_bytes((out / "pick_cube.jsonl").read_bytes())
        code, _, _ = run_cli(["verify", "--data", str(out / "pick_cube.jsonl")], capsys)
        assert code == EXIT_VERIFY

    def test_shard_overwritten_by_another_task_exits_three(self, all_outdir, tmp_path, capsys):
        # A shard must be its own task's lines, not those of whatever task it holds.
        out = copy_run(all_outdir, tmp_path)
        (out / "pick_cube.jsonl").write_bytes((out / "push_cube.jsonl").read_bytes())
        code, payload, err = run_cli(["verify", "--data", str(out / "pick_cube.jsonl")], capsys)
        assert code == EXIT_VERIFY
        assert payload["verified_fraction"] == 1.0
        assert "pick_cube.jsonl does not match its manifest" in err

    def test_thinned_success_window_put_back_exits_three(self, all_outdir, tmp_path, capsys):
        # enforce_ratio thins success windows across the run's whole seed list, which the
        # file does not carry. A window it dropped, put back in its canonical place, has
        # the labels generate gives it and re-verifies: only the manifest catches it.
        out = copy_run(all_outdir, tmp_path)
        path = out / "dataset.jsonl"
        keys = [sort_key(e) for e in read_dataset(path)]
        dropped = next(
            e for e in build_seed_entries("push_cube", 3, default_config())
            if sort_key(e) not in keys
        )
        write_dataset([dropped], tmp_path / "one.jsonl")
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(bisect.bisect(keys, sort_key(dropped)), (tmp_path / "one.jsonl").read_bytes())
        path.write_bytes(b"".join(lines))
        code, payload, err = run_cli(["verify", "--data", str(path)], capsys)
        assert code == EXIT_VERIFY and "dataset_sha256" in err
        assert payload["entries"] == len(lines) and payload["verified_fraction"] == 1.0

    def split_beside_manifest(self, outdir, tmp_path, capsys):
        """split --out into a copy of the run directory; returns that directory."""
        for name in ("dataset.jsonl", "manifest.json"):
            (tmp_path / name).write_bytes((outdir / name).read_bytes())
        code, _, _ = run_cli(
            ["split", "--data", str(tmp_path / "dataset.jsonl"), "--test-seeds", "4",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_OK
        return tmp_path

    def test_untouched_split_verifies(self, outdir, tmp_path, capsys):
        run = self.split_beside_manifest(outdir, tmp_path, capsys)
        for side in ("train.jsonl", "test.jsonl"):
            code, payload, err = run_cli(["verify", "--data", str(run / side)], capsys)
            assert code == EXIT_OK, err
            assert payload["verified_fraction"] == 1.0

    def test_deleted_split_line_exits_three(self, outdir, tmp_path, capsys):
        run = self.split_beside_manifest(outdir, tmp_path, capsys)
        test = run / "test.jsonl"
        lines = test.read_bytes().splitlines(keepends=True)
        assert len(lines) > 1
        test.write_bytes(b"".join(lines[1:]))
        code, payload, err = run_cli(["verify", "--data", str(test)], capsys)
        assert code == EXIT_VERIFY
        # The replay still runs and reports; only the byte check failed.
        assert payload["entries"] == len(lines) - 1
        assert "test.jsonl does not match its manifest" in err

    def test_edited_split_frame_exits_three(self, outdir, tmp_path, capsys):
        run = self.split_beside_manifest(outdir, tmp_path, capsys)
        test = run / "test.jsonl"
        lines = test.read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        record["frames"][0]["ee"]["position"][0] += 1e-3
        lines[0] = json.dumps(record, separators=(",", ":")) + "\n"
        test.write_text("".join(lines))
        code, payload, err = run_cli(["verify", "--data", str(test)], capsys)
        assert code == EXIT_VERIFY
        assert payload["entries"] == len(lines)
        assert "test.jsonl does not match its manifest" in err

    @pytest.mark.parametrize("bad", sorted(UNREADABLE_LINES))
    def test_unreadable_split_line_is_format_error(self, outdir, tmp_path, capsys, bad):
        run = self.split_beside_manifest(outdir, tmp_path, capsys)
        with_second_line(run / "test.jsonl", UNREADABLE_LINES[bad])
        code, payload, err = run_cli(["verify", "--data", str(run / "test.jsonl")], capsys)
        assert code == EXIT_RUNTIME and payload is None
        # The manifest check counts the line as unmatched; the reader then names it.
        assert "test.jsonl does not match its manifest" in err
        assert "line 2:" in err

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", "\udcff"])
    def test_malformed_manifest_is_runtime_error(self, dataset, tmp_path, capsys, text):
        lone = tmp_path / "dataset.jsonl"
        lone.write_bytes(open(dataset, "rb").read())
        (tmp_path / "manifest.json").write_bytes(text.encode("utf-8", "surrogateescape"))
        code, payload, err = run_cli(["verify", "--data", str(lone)], capsys)
        assert code == EXIT_RUNTIME
        assert payload is None
        assert err.count("\n") == 1 and "manifest.json" in err

    def test_schema_version_must_be_the_integer_one(self, dataset, tmp_path, capsys):
        # True == 1 == 1.0: compared with !=, these lines verified and counted as version 1.
        lone = tmp_path / "lone.jsonl"
        lines = open(dataset, "rb").read().splitlines(keepends=True)
        for i, version in ((0, b"true"), (1, b"1.0")):
            assert lines[i].startswith(b'{"schema_version":1,')
            lines[i] = lines[i].replace(b":1,", b":" + version + b",", 1)
        lone.write_bytes(b"".join(lines))
        for command in ("verify", "stats"):
            code, payload, err = run_cli([command, "--data", str(lone)], capsys)
            assert code == EXIT_RUNTIME and payload is None
            assert "line 1: schema_version True is not supported" in err

    def test_no_manifest_warns_but_verifies(self, dataset, tmp_path, capsys):
        lone = tmp_path / "lone.jsonl"
        lone.write_bytes(open(dataset, "rb").read())
        code, payload, err = run_cli(["verify", "--data", str(lone)], capsys)
        assert code == EXIT_OK
        assert payload["verified_fraction"] == 1.0
        assert "manifest" in err

    @pytest.mark.parametrize(
        "kind, field",
        [
            pytest.param("failure", field, id=field)
            for field in (
                "failure_type", "sub_task", "instruction", "magnitude", "stage", "recovery",
                "frames", "recovery_ulp",
            )
        ]
        + [
            pytest.param("gt", field, id=f"gt-{field}")
            for field in ("frames", "sub_task", "instruction")
        ],
    )
    def test_edited_failure_label_exits_three_without_manifest(
        self, dataset, tmp_path, capsys, kind, field
    ):
        # The funnel runs again for every line, so each must carry the labels generate
        # gives it: a recovery nudged by 1e-6 that still succeeds, and a failure or
        # success window moved by one step, are rejected too, as is a rotation moved by
        # one ulp, which the reader keeps as written. Only the edited line fails.
        lines = open(dataset).read().splitlines(keepends=True)
        failure = kind == "failure"
        index = next(i for i, line in enumerate(lines) if json.loads(line)["is_failure"] == failure)
        record = json.loads(lines[index])
        if field == "failure_type":
            swap = {"mode": "translation", "axis": "x"}
            record[field] = {"mode": "rotation", "axis": "yaw"} if record[field] == swap else swap
        elif field == "sub_task":
            record[field] = next(n for n in TASKS[TASK].stage_names if n != record[field])
        elif field in ("magnitude", "stage"):
            record["provenance"][field] += 1
        elif field == "recovery":
            record[field][0] += 1e-6
        elif field == "recovery_ulp":
            record["recovery"][3] = math.nextafter(record["recovery"][3], math.inf)
        elif field == "frames":
            for frame in record[field]:
                frame["step"] += 1
        else:
            record[field] += " now"
        lines[index] = json.dumps(record, separators=(",", ":")) + "\n"
        lone = tmp_path / "lone.jsonl"
        lone.write_text("".join(lines))
        code, payload, _ = run_cli(["verify", "--data", str(lone)], capsys)
        assert code == EXIT_VERIFY
        assert payload["verified_fraction"] == (payload["entries"] - 1) / payload["entries"]

    @pytest.mark.parametrize("tamper", ["repeat_first", "append_sixth", "swap_11_12"])
    def test_repeated_or_moved_line_exits_three_without_manifest(
        self, dataset, tmp_path, capsys, tamper
    ):
        # Every line keeps labels generate gives, but a file is written in canonical order
        # with each line once: a copy of a line, or two lines swapped, fails one line.
        lines = open(dataset).read().splitlines(keepends=True)
        if tamper == "repeat_first":
            lines.insert(0, lines[0])
        elif tamper == "append_sixth":
            lines.append(lines[5])
        else:
            lines[10], lines[11] = lines[11], lines[10]
        lone = tmp_path / "lone.jsonl"
        lone.write_text("".join(lines))
        code, payload, _ = run_cli(["verify", "--data", str(lone)], capsys)
        assert code == EXIT_VERIFY
        assert payload["entries"] == len(lines)
        assert payload["verified_fraction"] == (len(lines) - 1) / len(lines)

    @pytest.mark.parametrize("index, value", [("d_index", 5000), ("c_index", 10**6)])
    def test_undrawn_window_index_exits_three_without_manifest(
        self, all_outdir, tmp_path, capsys, index, value
    ):
        # A failure line's window indices must be a candidate its regenerated case draws:
        # a d_index past the failed rollout once replayed from its last world, and a
        # c_index was never read at all. The untouched success lines still pass.
        lines = (all_outdir / "dataset.jsonl").read_text().splitlines(keepends=True)
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["is_failure"]:
                record["provenance"][index] = value
                lines[i] = json.dumps(record, separators=(",", ":")) + "\n"
        lone = tmp_path / "lone.jsonl"
        lone.write_text("".join(lines))
        code, payload, _ = run_cli(["verify", "--data", str(lone)], capsys)
        assert code == EXIT_VERIFY
        entries, failures = payload["entries"], payload["failures"]
        assert failures > 0 and payload["verified_fraction"] == (entries - failures) / entries


def default_config_yaml() -> str:
    from importlib import resources

    return (resources.files("failsafe") / "data" / "default.yaml").read_text()


class TestSupervise:
    def test_rates_and_traces(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        code, payload, _ = run_cli(
            [
                "supervise", "--task", TASK, "--seeds", "1..3",
                "--assistant", "oracle", "--trace", str(traces),
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert payload["episodes"] == 3
        assert payload["success_rate_assisted"] == 1.0
        assert payload["success_rate_unassisted"] == 0.0
        assert payload["uplift"] == 1.0
        files = sorted(os.listdir(traces))
        assert files == [f"{TASK}_0000{s}.trace" for s in (1, 2, 3)]
        lines = (traces / files[0]).read_text().splitlines()
        assert lines[0].split("\t") == [
            "step", "x", "y", "z", "roll", "pitch", "yaw", "gripper", "intervention",
        ]
        body = [line.split("\t") for line in lines[1:]]
        assert all(len(row) == 9 for row in body)
        assert [row[0] for row in body] == [str(i) for i in range(len(body))]
        flags = {row[8] for row in body}
        assert flags == {"0", "1"}  # oracle intervened somewhere

    def test_null_assistant_rates(self, capsys):
        code, payload, _ = run_cli(
            ["supervise", "--task", TASK, "--seeds", "1..2", "--assistant", "null"], capsys
        )
        assert code == EXIT_OK
        assert payload["success_rate_assisted"] == payload["success_rate_unassisted"] == 0.0

    def test_backwards_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["supervise", "--task", TASK, "--seeds", "5..1", "--assistant", "oracle"], capsys
        )
        assert code == EXIT_USAGE

    def supervise_run(self, extra, traces, capsys):
        """(exit code, stdout text, {trace name: bytes}) of one supervise run."""
        code = cli_main(
            ["supervise", "--task", TASK, "--seeds", "1..3", "--assistant", "oracle",
             "--trace", str(traces), *extra]
        )
        out = capsys.readouterr().out
        return code, out, {p.name: p.read_bytes() for p in sorted(traces.iterdir())}

    def test_one_key_config_still_draws_faults(self, tmp_path, capsys):
        # The packaged defaults with supervisor.cadence 4, spelled out in full.
        src = default_config_yaml()
        assert src.count("\nsupervisor:\n") == 1 and "cadence" not in src
        full = tmp_path / "full.yaml"
        full.write_text(src.replace("\nsupervisor:\n", "\nsupervisor:\n  cadence: 4\n"))
        config = tmp_path / "cadence4.yaml"
        config.write_text("supervisor: {cadence: 4}\n")
        file = self.supervise_run(["--config", str(config)], tmp_path / "file", capsys)
        payload = json.loads(file[1])
        assert file[0] == EXIT_OK and payload["cadence"] == 4
        assert payload["success_rate_unassisted"] == 0.0 and payload["uplift"] > 0
        assert file == self.supervise_run(["--config", str(full)], tmp_path / "full", capsys)
        default = self.supervise_run([], tmp_path / "default", capsys)
        assert default[2] != file[2]  # cadence 4 really changed the episodes

    def test_pool_matches_in_process(self, tmp_path, capsys):
        serial = self.supervise_run(["--jobs", "1"], tmp_path / "serial", capsys)
        pooled = self.supervise_run(["--jobs", "2"], tmp_path / "pooled", capsys)
        assert serial[0] == EXIT_OK and len(serial[2]) == 3
        assert serial == pooled

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "latin1.yaml"
        config.write_bytes(b"sim:\n  table_z: \xff\xfe\n")
        code, payload, err = run_cli(
            ["supervise", "--task", TASK, "--seeds", "1", "--assistant", "oracle",
             "--config", str(config)],
            capsys,
        )
        assert code == EXIT_USAGE and payload is None
        assert err.startswith("config error:") and "latin1.yaml" in err

    @pytest.mark.parametrize("cadence", ["0", "-3"])
    def test_nonpositive_cadence_is_usage_error(self, tmp_path, capsys, cadence):
        config = tmp_path / "cadence.yaml"
        config.write_text(f"supervisor: {{cadence: {cadence}}}\n")
        code, payload, err = run_cli(
            ["supervise", "--task", TASK, "--seeds", "1", "--assistant", "oracle",
             "--config", str(config)],
            capsys,
        )
        assert (code, payload) == (EXIT_USAGE, None)
        assert err.startswith("config error:") and "'supervisor.cadence'" in err

    def test_cadence_flag_is_gone(self, capsys):
        # supervisor.cadence in a --config file is the one way to set it.
        code, _, err = run_cli(
            ["supervise", "--task", TASK, "--seeds", "1", "--assistant", "oracle",
             "--cadence", "4"],
            capsys,
        )
        assert code == EXIT_USAGE and "unrecognized arguments: --cadence 4" in err


class TestEvaluateAndSplit:
    def test_split_then_evaluate(self, dataset, tmp_path, capsys):
        code, payload, _ = run_cli(
            ["split", "--data", dataset, "--test-seeds", "5", "--out", str(tmp_path)], capsys
        )
        assert code == EXIT_OK
        assert payload["train_entries"] > 0 and payload["test_entries"] > 0
        for side, expect in (("train.jsonl", {3, 4}), ("test.jsonl", {5})):
            seeds = {
                json.loads(line)["provenance"]["seed"]
                for line in open(tmp_path / side)
            }
            assert seeds <= expect

        code, payload, _ = run_cli(
            ["evaluate", "--data", str(tmp_path / "test.jsonl"), "--assistant", "oracle"], capsys
        )
        assert code == EXIT_OK
        assert payload["binary_success"] == 1.0
        assert payload["type_accuracy"] == 1.0
        assert payload["mean_cosine"] >= 0.999

        code, payload, _ = run_cli(
            ["evaluate", "--data", str(tmp_path / "test.jsonl"), "--assistant", "null"], capsys
        )
        assert code == EXIT_OK
        assert payload["mean_cosine"] == 0.0

    @pytest.mark.parametrize("reader", ["stats", "verify", "evaluate", "split"])
    @pytest.mark.parametrize("field, value", [("mode", ["translation"]), ("axis", {"x": 1})])
    def test_unhashable_failure_type_is_format_error(
        self, dataset, tmp_path, capsys, reader, field, value
    ):
        lines = [json.loads(line) for line in open(dataset)]
        record = next(r for r in lines if r["is_failure"])
        record["failure_type"][field] = value
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps(record) + "\n")
        extra = {
            "evaluate": ["--assistant", "oracle"],
            "split": ["--test-seeds", "5", "--out", str(tmp_path)],
        }
        argv = [reader, "--data", str(data), *extra.get(reader, [])]
        code, payload, err = run_cli(argv, capsys)
        assert code == EXIT_RUNTIME and payload is None
        assert sum("line 1:" in line for line in err.splitlines()) == 1

    def test_evaluate_empty_is_runtime_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        code, _, _ = run_cli(["evaluate", "--data", str(empty), "--assistant", "oracle"], capsys)
        assert code == EXIT_RUNTIME


class TestParserPlumbing:
    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli_main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag", [["--jobs", "0"], ["--jobs", "-3"]],
        ids=["flag0-None---jobs", "flag1-None---jobs"],  # stable test ids
    )
    def test_jobs_below_one_is_usage_error(self, flag, tmp_path, capsys):
        code, payload, err = run_cli(
            ["supervise", "--task", TASK, "--seeds", "0..1", "--assistant", "null", *flag], capsys
        )
        assert (code, payload) == (EXIT_USAGE, None)
        assert "--jobs" in err and "at least 1" in err
        out = tmp_path / "gen"
        code, payload, err = run_cli(
            ["generate", "--task", TASK, "--seeds", "0..1", "--out", str(out), *flag], capsys
        )
        assert (code, payload) == (EXIT_USAGE, None)
        assert "--jobs" in err and not out.exists()


class TestPoolBounds:
    def test_pool_size_clamps_huge_jobs(self):
        # A pure call: no process is started for these values.
        seeds = list(range(5))
        assert pool_size(10**9, seeds) == min(5, len(os.sched_getaffinity(0)))
        assert pool_size(10**9, seeds[:1]) == 1
        assert pool_size(10**9, []) == 1
        assert pool_size(0, seeds) == 1
        assert pool_size(-3, seeds) == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_pool_size_counts_the_cpus_this_process_may_run_on(self):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("only one CPU is usable, so a one-CPU mask changes nothing")
        # The child pins only itself; os.cpu_count() still counts every CPU there.
        probe = (
            "import os; from failsafe.pipeline import pool_size; "
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "print(pool_size(8, range(8)))"
        )
        src = os.path.dirname(os.path.dirname(failsafe.__file__))
        out = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout == "1\n"

    def test_dead_pool_is_runtime_error(self, monkeypatch, capsys):
        def dead(*args, **kwargs):
            raise BrokenProcessPool("a worker was killed")

        monkeypatch.setattr("failsafe.cli.supervise_task", dead)
        code, payload, err = run_cli(
            ["supervise", "--task", TASK, "--seeds", "1..4", "--assistant", "null",
             "--jobs", "2"],
            capsys,
        )
        assert code == EXIT_RUNTIME
        assert payload is None
        assert "a worker was killed" in err


class TestPipelineFunctions:
    def test_fingerprint_tracks_settings(self):
        from dataclasses import replace

        cfg = default_config()
        assert config_fingerprint(cfg) == config_fingerprint(default_config())
        other = replace(cfg, supervisor=replace(cfg.supervisor, cadence=12))
        assert config_fingerprint(other) != config_fingerprint(cfg)

    def test_generate_task_entries_ratio(self):
        cfg = default_config()
        entries = generate_task_entries(TASK, range(3, 6), cfg, jobs=1)
        failures = sum(1 for e in entries if e.is_failure)
        gt = len(entries) - failures
        assert failures > 0 and gt > 0
        # assembly keeps every verified failure and trims GT toward the ratio
        assert gt <= max(1, round(failures / cfg.dataset.failure_to_gt_ratio)) + 1
