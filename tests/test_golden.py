"""Golden digests: the exact bytes `generate` and `supervise` produce.

The determinism contract says the same config and seeds give the same
bytes. These pins hold the package to the bytes it produced when they were
recorded, so a refactor that changes output in every run alike (which a
two-runs-agree check cannot see) fails here. Never re-pin to make a change
pass; a change that moves these digests changes the dataset.
"""

import contextlib
import hashlib
import io

import pytest

from failsafe.cli import EXIT_OK, cli_main
from failsafe.tasks import TASKS

DATASET_SHA256 = "75f9f5f661e863f922179ac84e6bef48516580a9831f858dd5e747c610b2e29e"
MANIFEST_SHA256 = "b41d09d45969ff639b5119ce83da20991d578b9b5981ea4a389884ddbbaf2aa2"
TRACES_SHA256 = "46c19fe68ef1eb62f54f30fd7696cdb0e6d5d9f562979ee067a4ad20b267de03"
SHARD_SHA256 = {
    "pick_charger": "0ebafd65dc8362194e290ff13129bed7db48abd636c797278fc26df90c436abd",
    "pick_cube": "6055e653638db02035cd28f4d80b99c9ff54c379e826a241ec3e6e5f86e78f92",
    "pick_sphere": "dd8a6327b7fd59d2b9656d86b2573405aa9cdbb62ffa04467edb53baab7523a9",
    "place_sphere": "dd38b7074d7d8d624ce71b16548d2aeaaadc0b46244175f2b752532f435ca742",
    "push_cube": "1f00fd8181684fb3d9820e09d2a286a59312daf5975c477e84f636c8a1e4547f",
    "stack_cube": "9f1362a2b9a8d01a5f203387ec2673be639d126fd01124e3a591c97c0fa205bf",
}
TRACE_TASKS = ("pick_cube", "push_cube", "stack_cube")
# `supervise --seeds 0..2 --trace` for every task, one digest per assistant, recorded
# before a perturbed stream took the correct rollout's commands up to its onset. A
# null trace is exactly the unassisted stream plus its settle holds. Seeds 0..2 draw
# no_ops on lift, push, align and release, and grasp rotations on every arm task.
EVERY_TASK_TRACES_SHA256 = {
    "null": "f0d3da46d69f938e5cb3c347ed756d5692b2f43b5e8971a0bb7a508801c75bb9",
    "oracle": "b0bc672f53998c281c495ecabac8003c112e324ab43fb4f224dad3ada19d7723",
}
# A disjoint scene mix: `generate --task all --seeds 1000..1003 --jobs 1`,
# recorded at the commit before the failed rollout began to reuse the
# correct rollout's frames, so these bytes are the ones stepped from scratch.
HELD_OUT_DATASET_SHA256 = "934628772475c45b2c524ddc3b3bb3d4d28130bb3c25bf3457ba75031f90caf7"
HELD_OUT_MANIFEST_SHA256 = "4378c8d6c5e08afbd786007b00e8d92d3cbdd0be127707861c9948d11835db38"
# The stdout of each audit command on the `--seeds 0..2` dataset, recorded before
# `stats` built its rows in DatasetStats.summary and the reader made its poses with
# Pose.trusted.
AUDIT_STDOUT_SHA256 = {
    ("stats",): "85fea174a4d3a50bf17500634d11d6b0811a2d24b04cd3bf971c6ad967da9b85",
    ("verify",): "4ab202cfc106b5fcf3452b7f7edb717ce75b752d654398d819fbdbb3bb558d92",
    ("evaluate", "--assistant", "oracle"):
        "c521c1d1da7c65638109c097b9830749dbc00e53682770a75a180c91f89945fb",
    ("evaluate", "--assistant", "null"):
        "4fb78c652e5be2207228af279b9200dd800bc0a60fa6832b84f9d96caf2fff29",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """The output directory of `generate --task all --seeds 0..2 --jobs 1`."""
    out = tmp_path_factory.mktemp("golden") / "gen"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(
            ["generate", "--task", "all", "--seeds", "0..2", "--jobs", "1", "--out", str(out)]
        )
    assert code == EXIT_OK
    return out


def test_generate_all_bytes(generated):
    out = generated
    assert _sha256(out / "dataset.jsonl") == DATASET_SHA256
    assert _sha256(out / "manifest.json") == MANIFEST_SHA256
    shards = {task: _sha256(out / f"{task}.jsonl") for task in SHARD_SHA256}
    assert shards == SHARD_SHA256
    # dataset.jsonl is the shards back to back in task-id order.
    joined = b"".join((out / f"{task}.jsonl").read_bytes() for task in sorted(SHARD_SHA256))
    assert joined == (out / "dataset.jsonl").read_bytes()


@pytest.mark.parametrize("command", sorted(AUDIT_STDOUT_SHA256), ids=" ".join)
def test_audit_stdout_bytes(command, generated, capsys):
    code = cli_main([*command, "--data", str(generated / "dataset.jsonl")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == AUDIT_STDOUT_SHA256[command]


def test_generate_held_out_seeds_bytes(tmp_path, capsys):
    out = tmp_path / "gen"
    code = cli_main(
        ["generate", "--task", "all", "--seeds", "1000..1003", "--jobs", "1", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    assert _sha256(out / "dataset.jsonl") == HELD_OUT_DATASET_SHA256
    assert _sha256(out / "manifest.json") == HELD_OUT_MANIFEST_SHA256


def _trace_digest(tasks, assistant, traces, capsys) -> str:
    """sha256 over the `supervise --seeds 0..2 --trace` files of the tasks, by file name."""
    for task in tasks:
        code = cli_main(
            [
                "supervise", "--task", task, "--seeds", "0..2",
                "--assistant", assistant, "--trace", str(traces),
            ]
        )
        assert code == EXIT_OK
    capsys.readouterr()
    files = sorted(traces.iterdir(), key=lambda p: p.name)
    assert len(files) == 3 * len(tasks)
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_supervise_oracle_trace_bytes(tmp_path, capsys):
    assert _trace_digest(TRACE_TASKS, "oracle", tmp_path / "traces", capsys) == TRACES_SHA256


@pytest.mark.parametrize("assistant", sorted(EVERY_TASK_TRACES_SHA256))
def test_supervise_every_task_trace_bytes(assistant, tmp_path, capsys):
    digest = _trace_digest(tuple(TASKS), assistant, tmp_path / "traces", capsys)
    assert digest == EVERY_TASK_TRACES_SHA256[assistant]
