"""End-to-end generation and episode batches: one seed's funnel, fanned out
across a worker pool, merged deterministically.

Per-seed workers are top-level functions of (task_id, seed, cfg, ...) that
build their own Simulator; _per_seed fans them out over a process pool, or
in-process for jobs=1, the reference order every parallel merge reproduces.
"""

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from itertools import repeat

from .config import Config
from .dataset import atomic_writer, build_entry, build_gt_entries, enforce_ratio, observer
from .errors import FailSafeError
from .failures import generate_failure_case
from .recovery import collect_candidates
from .sim import Simulator
from .supervisor import (
    null_assistant,
    oracle_assistant_decide,
    run_supervised_episode,
    sample_harness_fault,
)
from .tasks import plan_task, rollout_plan
from .verifier import verify_candidate

ASSISTANTS = {"oracle": oracle_assistant_decide, "null": null_assistant}


def build_seed_entries(task_id, seed: int, cfg: Config) -> list:
    """One scene seed's dataset rows: injection, collection, verification and
    entry building for every surviving candidate, plus success windows cut from
    the same correct rollout, the scene's only one."""
    sim = Simulator(cfg)
    frame = observer(sim)  # overlapping windows share their frames
    correct = rollout_plan(*plan_task(task_id, seed, cfg), sim)
    case = generate_failure_case(correct, cfg, sim)
    entries = []
    if case is not None:
        candidates = collect_candidates(case, cfg.dataset.candidates_per_case)
        entries = [
            build_entry(case, c, frame)
            for c in candidates if verify_candidate(case, c, cfg, sim)
        ]
    return entries + build_gt_entries(correct, cfg, frame)


def pool_size(jobs: int, seeds) -> int:
    """Worker processes worth starting: never more than seeds or the CPUs this
    process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(jobs, len(seeds), cpus or 1))


def _per_seed(worker, task_id, seeds, jobs: int, *args) -> list:
    """worker(task_id, seed, *args) for every seed, in seed order for any
    jobs value: in-process for one job, else on a process pool."""
    seeds = list(seeds)
    jobs = pool_size(jobs, seeds)
    if jobs == 1:
        return [worker(task_id, seed, *args) for seed in seeds]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(
            pool.map(
                worker, repeat(task_id), seeds, *(repeat(arg) for arg in args),
                chunksize=max(1, len(seeds) // (4 * jobs)),
            )
        )


def generate_task_entries(task_id, seeds, cfg: Config, jobs: int = 1) -> list:
    """All entries for one task over a seed range, merged in seed order,
    ratio enforced."""
    blocks = _per_seed(build_seed_entries, task_id, seeds, jobs, cfg)
    merged = [entry for block in blocks for entry in block]
    return enforce_ratio(merged, cfg)


def run_episode_pair(task_id, seed: int, cfg: Config, assistant: str):
    """(unassisted success, assisted result) for one seed.

    Both runs carry the same confirmed fault, so the pair isolates exactly what
    the assistant contributed. They and the fault draws share the scene's one correct
    rollout; the sampler's unassisted run is the bare run, which the episode resumes."""
    sim = Simulator(cfg)
    correct = rollout_plan(*plan_task(task_id, seed, cfg), sim)
    fault, bare_ok, unassisted = sample_harness_fault(correct, cfg, sim)
    helped = run_supervised_episode(correct, fault, unassisted, ASSISTANTS[assistant], cfg, sim)
    return bare_ok, helped


def supervise_task(task_id, seeds, cfg: Config, assistant: str, jobs: int = 1) -> list:
    """Episode pairs over a seed range: [(seed, bare_ok, result)]."""
    seeds = list(seeds)
    outcomes = _per_seed(run_episode_pair, task_id, seeds, jobs, cfg, assistant)
    return [(seed, *outcome) for seed, outcome in zip(seeds, outcomes)]


def config_fingerprint(cfg: Config) -> str:
    """Semantic hash of a parsed config: equal settings, equal hash."""
    blob = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # 64 KiB reads: 1 MiB chunks raised a long-lived process's peak RSS 2 MB.
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, cfg: Config, tasks, seeds, counts: dict, dataset_sha256: str) -> str:
    """Atomically write the run manifest; returns the sha256 of its bytes.

    The manifest pins everything a later `verify` needs to trust the file:
    config hash, `seed_range` (the least and greatest seed; a comma list's gaps
    are not recorded), per-task counts, the merged dataset's hash, and the
    artifact version. No timestamps: identical runs must produce identical manifests.
    """
    from . import __version__

    seeds = list(seeds)
    manifest = {
        "artifact_version": __version__,
        "config_sha256": config_fingerprint(cfg),
        "tasks": list(tasks),
        "seed_range": [min(seeds), max(seeds)] if seeds else [],
        "counts": counts,
        "dataset_sha256": dataset_sha256,
    }
    data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    with atomic_writer(path) as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def read_manifest(path) -> dict:
    """Parse a run manifest; FailSafeError if it is not a JSON object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # undecodable bytes included
            raise FailSafeError(f"{path} is not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise FailSafeError(f"{path} is not a JSON object")
    return manifest
