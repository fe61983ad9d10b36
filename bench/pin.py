#!/usr/bin/env python3
"""Pin golden output digests for benchmark workload seeds.

Usage (from the repository root):

    python3 bench/pin.py --seeds 0..19,1000

For each workload seed it runs one pass of every workload kind over that
seed's scene range and records the digests in ``golden.json``. A range is
pinned only after the program's own checks pass on it: the jobs 1 and jobs
2 datasets are byte-identical, ``verify`` reports fraction 1.0 and the
oracle scores (1.0, 1.0, 1.0). Re-pin only when a change is meant to alter
the output bytes, and say so in the change.
"""

import argparse
import json
import shutil
import sys

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if ".." in part:
            lo, hi = part.split("..")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def pin_seed(seed, golden, work):
    from failsafe.tasks import TASKS

    gen = run.WORKLOADS["generate_all"]
    lo, hi = gen.seed_range(seed)
    key = f"{lo}..{hi}"
    serial = run.generate_pass(lo, hi, 1, work / "j1", list(TASKS))
    pooled = run.generate_pass(lo, hi, 2, work / "j2", list(TASKS))
    if serial.failed or pooled.failed or serial.notes:
        raise SystemExit(f"generate failed on {key}: {serial.notes + pooled.notes}")
    if serial.units != pooled.units or serial.run_digest != pooled.run_digest:
        raise SystemExit(f"jobs 1 and jobs 2 differ on {key}")
    data = work / "j1" / "dataset.jsonl"
    entries = sum(1 for _ in open(data, "rb"))
    audit = run.audit_pass(data, entries)
    if audit.failed:
        raise SystemExit(f"verify/evaluate failed on {key}: {audit.notes}")
    golden.setdefault("generate_all", {})[key] = {
        "units": serial.units,
        "run": serial.run_digest,
        "dataset": run.file_sha256(data),
    }
    if run.WORKLOADS["audit"].seed_range(seed) != (lo, hi):
        raise SystemExit("audit and generate must share a span to share an input")
    golden.setdefault("audit", {})[key] = {
        "run": audit.run_digest,
        "dataset": run.file_sha256(data),
    }

    sup = run.WORKLOADS["supervise_cube"]
    lo, hi = sup.seed_range(seed)
    episodes = run.supervise_pass(lo, hi, work / "traces")
    if episodes.failed:
        raise SystemExit(f"supervise failed on {lo}..{hi}")
    golden.setdefault("supervise_cube", {})[f"{lo}..{hi}"] = {
        "units": episodes.units,
        "run": episodes.run_digest,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="workload seeds, 'a..b' or a list")
    args = parser.parse_args(argv)
    run.import_failsafe()
    golden = run.load_golden()
    work = run.OUT / "work" / "pin"
    for seed in parse_seeds(args.seeds):
        shutil.rmtree(work, ignore_errors=True)
        pin_seed(seed, golden, work)
        run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"pinned workload seed {seed}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
