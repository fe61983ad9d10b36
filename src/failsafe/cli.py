"""Command-line entry point.

Six subcommands cover the pipeline end to end: generate a dataset, report
its distribution, re-verify its recoveries, run supervised episodes,
score an assistant, and split by seed. Progress goes to standard error;
each command's result is a single JSON object on standard output.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure,
3 verification shortfall (re-verified fraction below 1.0, or a data file
whose bytes differ from what the manifest beside it pins).
"""

import argparse
import collections
import hashlib
import json
import os
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool

from .config import TASKS, Config, default_config, load_config
from .dataset import (
    atomic_writer,
    dataset_stats,
    read_dataset,
    split_by_seed,
    write_dataset,
)
from .errors import ConfigError, FailSafeError
from .geometry import quat_to_rpy
from .pipeline import (
    ASSISTANTS,
    config_fingerprint,
    file_sha256,
    generate_task_entries,
    read_manifest,
    supervise_task,
    write_manifest,
)
from .seeding import SEED_LIMIT
from .supervisor import evaluate_assistant
from .verifier import reverify_entries

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

SEED_COUNT_LIMIT = 100_000  # seeds one command may list


class UsageError(FailSafeError):
    """Bad flags or flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit on bad flags; surface them as exceptions
    # instead so cli_main owns every exit code.
    def error(self, message):
        raise UsageError(message)


def _progress(message):
    print(message, file=sys.stderr, flush=True)


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True), flush=True)


def _parse_seeds(text) -> list:
    """'4..12' (inclusive) or a single integer. Commas pick out several of
    either form. Seeds lie in [0, SEED_LIMIT): larger ones would alias, and
    negative ones would not read back. A repeated seed would count twice."""
    spans = []
    for part in text.split(","):
        part = part.strip()
        lo_text, dots, hi_text = part.partition("..")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
        except ValueError:
            raise UsageError(f"bad seed {part!r}") from None
        if hi < lo:
            raise UsageError(f"seed range {part!r} runs backwards")
        if lo < 0 or hi >= SEED_LIMIT:
            raise UsageError(f"seed {part!r} outside [0, {SEED_LIMIT})")
        spans.append(range(lo, hi + 1))
    if sum(map(len, spans)) > SEED_COUNT_LIMIT:  # counted before any range expands
        raise UsageError(f"{text!r} lists more than {SEED_COUNT_LIMIT} seeds")
    seeds = [seed for span in spans for seed in span]
    repeated = [s for s, n in collections.Counter(seeds).items() if n > 1]
    if repeated:
        raise UsageError(f"seed {repeated[0]} is listed more than once")
    return seeds


def _resolve_jobs(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    return args.jobs


def _load_config(path) -> Config:
    return default_config() if path is None else load_config(path)


# -- subcommand handlers -----------------------------------------------------


def _cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    tasks = list(TASKS) if args.task == "all" else [args.task]
    seeds = _parse_seeds(args.seeds)
    jobs = _resolve_jobs(args)
    os.makedirs(args.out, exist_ok=True)

    # One task's entries in memory at a time: each shard is written once and
    # its bytes streamed into dataset.jsonl through one hash. The sort key
    # leads with the task id, so shards in task-id order are the merged file.
    # Shards are staged until every task has run, so a run that fails leaves
    # --out as it found it.
    counts = {}
    total = 0
    digest = hashlib.sha256()
    dataset_path = os.path.join(args.out, "dataset.jsonl")
    with (
        tempfile.TemporaryDirectory(dir=args.out, prefix=".") as staging,
        atomic_writer(dataset_path) as merged,
    ):
        for task in sorted(tasks):
            entries = generate_task_entries(task, seeds, cfg, jobs)
            failures = sum(1 for e in entries if e.is_failure)
            counts[task] = {"failures": failures, "ground_truth": len(entries) - failures}
            shard = os.path.join(staging, f"{task}.jsonl")
            total += write_dataset(entries, shard)
            _progress(f"{task}: {len(entries)} entries ({failures} failures)")
            del entries  # free this task's entries before the next task runs
            with open(shard, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 16), b""):
                    digest.update(chunk)
                    merged.write(chunk)
        for name in os.listdir(staging):
            os.replace(os.path.join(staging, name), os.path.join(args.out, name))
    dataset_sha = digest.hexdigest()
    manifest_path = os.path.join(args.out, "manifest.json")
    manifest_sha = write_manifest(manifest_path, cfg, tasks, seeds, counts, dataset_sha)
    _progress(f"merged {total} entries -> {dataset_path}")
    _emit(
        {
            "dataset": dataset_path,
            "manifest": manifest_path,
            "entries": total,
            "dataset_sha256": dataset_sha,
            "manifest_sha256": manifest_sha,
        }
    )
    return EXIT_OK


def _cmd_stats(args) -> int:
    _emit(dataset_stats(args.data))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    manifest_path = os.path.join(os.path.dirname(os.path.abspath(args.data)), "manifest.json")
    tampered = False
    if os.path.exists(manifest_path):
        manifest = read_manifest(manifest_path)
        ours = config_fingerprint(cfg)
        theirs = manifest.get("config_sha256")
        if theirs != ours:
            _progress(
                "refusing to verify: dataset was generated under a different "
                f"config (manifest {theirs}, given {ours})"
            )
            return EXIT_USAGE
        tampered = not _matches_manifest(args.data, manifest)
        if tampered:
            _progress(f"{args.data} does not match its manifest's dataset_sha256")
    else:
        _progress(f"no manifest next to {args.data}; skipping config-hash check")

    entries = read_dataset(args.data)
    failures = sum(1 for e in entries if e.is_failure)
    _progress(f"re-verifying every line: {len(entries)} entries, {failures} of them recoveries")
    fraction = reverify_entries(entries, cfg)
    _emit(
        {
            "entries": len(entries),
            "failures": failures,
            "verified_fraction": fraction,
        }
    )
    return EXIT_OK if fraction >= 1.0 and not tampered else EXIT_VERIFY


def _matches_manifest(path, manifest) -> bool:
    """True when the dataset.jsonl beside the file matches the manifest's dataset_sha256
    and the file is, byte for byte, the lines of it the file stands for: all of them for
    dataset.jsonl, those of its own task for a <task>.jsonl shard, and those of the
    (task, seed) pairs it holds for any other file (a split's train.jsonl or test.jsonl).
    Every written file is in the canonical sort order, so each is such a subsequence."""
    dataset = os.path.join(os.path.dirname(os.path.abspath(path)), "dataset.jsonl")
    if file_sha256(dataset) != manifest.get("dataset_sha256"):
        return False
    name = os.path.basename(path).removesuffix(".jsonl")
    if name == "dataset":
        return True
    shard = name in TASKS

    def key(line):
        record = json.loads(line)
        return record["task"] if shard else (record["task"], record["provenance"]["seed"])

    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            wanted = {name} if shard else {key(line) for line in fh}
        with open(dataset, "rb") as fh:
            for line in fh:
                if key(line) in wanted:
                    digest.update(line)
    except (KeyError, TypeError, ValueError, RecursionError):
        return False  # a line that does not parse, or names no (task, seed), pins nothing
    return digest.hexdigest() == file_sha256(path)


def _cmd_supervise(args) -> int:
    cfg = _load_config(args.config)
    seeds = _parse_seeds(args.seeds)
    jobs = _resolve_jobs(args)
    outcomes = supervise_task(args.task, seeds, cfg, args.assistant, jobs)

    if args.trace is not None:
        os.makedirs(args.trace, exist_ok=True)
        for seed, _, result in outcomes:
            with atomic_writer(os.path.join(args.trace, f"{args.task}_{seed:05d}.trace")) as fh:
                fh.write(_trace_text(result).encode("utf-8"))
        _progress(f"wrote {len(outcomes)} trace files to {args.trace}")

    bare = sum(1 for _, ok, _ in outcomes if ok)
    helped = sum(1 for _, _, result in outcomes if result.success)
    n = len(outcomes)
    _emit(
        {
            "task": args.task,
            "assistant": args.assistant,
            "cadence": cfg.supervisor.cadence,
            "episodes": n,
            "success_rate_unassisted": bare / n,
            "success_rate_assisted": helped / n,
            "uplift": (helped - bare) / n,
        }
    )
    return EXIT_OK


def _trace_text(result) -> str:
    """Columnar end-effector trace: one row per step, flag marks steps spent
    executing an intervention's motion."""
    lines = ["step\tx\ty\tz\troll\tpitch\tyaw\tgripper\tintervention"]
    for step, (pose, moved) in enumerate(zip(result.trace, result.transit_mask)):
        roll, pitch, yaw = quat_to_rpy(pose.orientation).tolist()
        x, y, z = pose.position.tolist()
        lines.append(
            f"{step}\t{x:.9f}\t{y:.9f}\t{z:.9f}"
            f"\t{roll:.9f}\t{pitch:.9f}\t{yaw:.9f}"
            f"\t{pose.gripper:.9f}\t{int(moved)}"
        )
    return "\n".join(lines) + "\n"


def _cmd_evaluate(args) -> int:
    entries = read_dataset(args.data)
    _progress(f"scoring assistant {args.assistant!r} on {len(entries)} entries")
    result = evaluate_assistant(ASSISTANTS[args.assistant], entries)
    _emit(
        {
            "assistant": args.assistant,
            "entries": len(entries),
            "binary_success": result.binary_success,
            "type_accuracy": result.type_accuracy,
            "mean_cosine": result.mean_cosine,
        }
    )
    return EXIT_OK


def _cmd_split(args) -> int:
    entries = read_dataset(args.data)
    test_seeds = set(_parse_seeds(args.test_seeds))
    train, test = split_by_seed(entries, test_seeds)
    os.makedirs(args.out, exist_ok=True)
    train_path = os.path.join(args.out, "train.jsonl")
    test_path = os.path.join(args.out, "test.jsonl")
    write_dataset(train, train_path)
    write_dataset(test, test_path)
    _emit(
        {
            "train": train_path,
            "train_entries": len(train),
            "test": test_path,
            "test_entries": len(test),
        }
    )
    return EXIT_OK


# -- parser wiring -----------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="failsafe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    gen = sub.add_parser("generate", help="produce a labeled recovery dataset")
    gen.add_argument("--config", help="YAML config path (omit for built-in defaults)")
    gen.add_argument("--task", required=True, choices=[*TASKS, "all"], help="task id or 'all'")
    gen.add_argument("--seeds", required=True, help="seed range 'a..b' or list")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--jobs", type=int, default=1, help="worker processes")
    gen.set_defaults(handler=_cmd_generate)

    stats = sub.add_parser("stats", help="print a dataset's label distribution")
    stats.add_argument("--data", required=True, help="dataset .jsonl path")
    stats.set_defaults(handler=_cmd_stats)

    ver = sub.add_parser("verify", help="check every line against the seed funnel run again")
    ver.add_argument("--data", required=True, help="dataset .jsonl path")
    ver.add_argument("--config", help="YAML config path (omit for built-in defaults)")
    ver.set_defaults(handler=_cmd_verify)

    sup = sub.add_parser("supervise", help="run fixed-cadence assisted episodes")
    sup.add_argument("--config", help="YAML config path (omit for built-in defaults)")
    sup.add_argument("--task", required=True, choices=list(TASKS), help="task id")
    sup.add_argument("--seeds", required=True, help="seed range 'a..b' or list")
    sup.add_argument("--assistant", required=True, choices=sorted(ASSISTANTS))
    sup.add_argument("--trace", help="directory for per-episode EE trace files")
    sup.add_argument("--jobs", type=int, default=1, help="worker processes")
    sup.set_defaults(handler=_cmd_supervise)

    ev = sub.add_parser("evaluate", help="score an assistant on labeled entries")
    ev.add_argument("--data", required=True, help="dataset .jsonl path")
    ev.add_argument("--assistant", required=True, choices=sorted(ASSISTANTS))
    ev.set_defaults(handler=_cmd_evaluate)

    spl = sub.add_parser("split", help="seed-disjoint train/test partition")
    spl.add_argument("--data", required=True, help="dataset .jsonl path")
    spl.add_argument("--test-seeds", required=True, help="seeds for the test side")
    spl.add_argument("--out", required=True, help="output directory")
    spl.set_defaults(handler=_cmd_split)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        _progress(f"error: {err}")
        return EXIT_USAGE
    except SystemExit as exc:  # --help prints and leaves through here
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as err:
        _progress(f"error: {err}")
        return EXIT_USAGE
    except ConfigError as err:
        _progress(f"config error: {err}")
        return EXIT_USAGE
    except (FailSafeError, OSError, BrokenProcessPool) as err:
        _progress(f"error: {err}")
        return EXIT_RUNTIME


def main():
    sys.exit(cli_main())
