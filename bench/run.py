#!/usr/bin/env python3
"""failsafe benchmark: drives the real CLI and checks its output bytes.

Usage (from the repository root):

    python3 bench/run.py --workload generate_all --seed 0 --seconds 25 --trace 0

Each workload is a closed loop in this one process: the same CLI commands
(``failsafe.cli.cli_main``) over one contiguous range of scene seeds, run
pass after pass until ``--seconds`` is spent (at least three passes). ``--seed`` only picks where
that range starts; the program sees nothing but the ``--seeds`` argument.
Every pass's output is digested per unit and checked against the digests
pinned in ``golden.json`` (or, for an unpinned range, against the program's
own checks), so a faster run can never be a different run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced pass and then two passes with every public layer function wrapped
by ``tracer.Tracer``, and reports the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller record (environment, per-pass figures, checks, tail percentiles)
goes to ``.bench_out/results/``; traced spans go to ``.bench_out/spans/``.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

CUBE_TASKS = ("pick_cube", "push_cube", "stack_cube")
SETUP_REPEATS = 5
MIN_PASSES = 3
SETUP_SNIPPET = (
    "import failsafe.cli, failsafe.config; failsafe.config.default_config()"
)
TRACED_PASSES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    span: int  # scene seeds per run, contiguous
    unit: str
    why: str

    def seed_range(self, seed: int) -> tuple:
        """Scene seeds seed .. seed + span - 1: neighbouring workload seeds
        share all but one scene, so their spread is the machine's, while a
        distant seed gives a disjoint scene mix."""
        return seed, seed + self.span - 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "generate_all", 8, "(task, seed) funnel",
            "dataset lane: rollouts, failure confirmation, candidate replay, "
            "windowed observe and JSONL writes; never enters supervisor",
        ),
        Workload(
            "supervise_cube", 8, "episode pair",
            "online lane on the three cube tasks: fault confirmation, cadence "
            "loop and observe on every step; never enters verifier or the writer",
        ),
        Workload(
            "audit", 8, "dataset entry",
            "verify, stats and oracle evaluate read a generated dataset back and "
            "replay from provenance; makes no observe calls",
        ),
    )
}

# -- metric catalogue --------------------------------------------------------

END_TO_END = (
    ("s_per_unit", "s/unit", "lower"),
    ("cpu_s_per_unit", "s/unit", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# name, unit, better, is an exact count
EXTRA_LAYER = (
    ("failures.confirmed_ratio", "ratio", "higher", True),
    ("recovery.candidates_per_case", "cand/case", "higher", True),
    ("verifier.verified_ratio", "ratio", "higher", True),
    ("verifier.replay_steps", "steps/cand", "lower", True),
    ("dataset.write_mb_per_s", "MB/s", "higher", False),
    ("dataset.read_mb_per_s", "MB/s", "higher", False),
    ("dataset.bytes_per_entry", "B/entry", "lower", True),
    ("supervisor.episodes_per_pair", "episodes/pair", "lower", True),
    ("supervisor.draws_per_fault", "draws/fault", "lower", True),
    ("supervisor.interventions_per_episode", "interventions/ep", "lower", True),
    ("pipeline.result_mb", "MB/unit", "lower", True),
    ("trace_overhead_frac", "frac", "lower", False),
    ("error_rate", "frac", "lower", False),
)


def layer_functions():
    from tracer import HELPER_TARGETS, TARGETS

    return [(name, kind) for name, _, _, kind in TARGETS if name not in HELPER_TARGETS]


def per_layer_specs():
    """(name, unit, better, exact) for every per-layer metric, in report order."""
    specs = []
    for name, kind in layer_functions():
        specs.append((f"{name}.calls", "calls/unit", "lower", True))
        if kind == "span":
            specs.append((f"{name}.us.p50", "us", "lower", False))
            specs.append((f"{name}.us.tail", "us", "lower", False))
            specs.append((f"{name}.self_frac", "frac", "lower", False))
    specs.extend(EXTRA_LAYER)
    return specs


# -- environment -------------------------------------------------------------


def import_failsafe():
    """Import failsafe from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import failsafe
    import failsafe.cli

    origin = Path(failsafe.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"failsafe imported from {origin}, not from {SRC}")
    return failsafe


def _run_quiet(argv) -> str:
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def source_sha256() -> str:
    digest = hashlib.sha256()
    package = SRC / "failsafe"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import yaml

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        commit = _run_quiet(["git", "rev-parse", "HEAD"]) or "unknown"
        status = _run_quiet(["git", "status", "--porcelain", "--untracked-files=no"])
        dirty = bool(status) if commit != "unknown" else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
        "src_sha256": source_sha256(),
        "platform": platform.platform(),
    }


# -- running commands --------------------------------------------------------


@dataclass
class Command:
    argv: list
    rc: int | None
    wall: float
    cpu: float
    stdout: str

    @property
    def ok(self):
        return self.rc == 0

    def payload(self):
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None


def _cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def call_cli(argv) -> Command:
    """One in-process CLI run, timed from outside. CPU includes any child
    processes the command started and reaped (a pool's workers)."""
    import failsafe.cli as cli

    out, err = io.StringIO(), io.StringIO()
    c0 = _cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.cli_main(argv)  # looked up at call time: the tracer may wrap it
        except Exception:  # a raising command is a failed unit, not a dead benchmark
            traceback.print_exc()
            rc = None
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - c0
    if rc != 0:
        sys.stderr.write(f"command {argv[0]} exited {rc}:\n{err.getvalue()[-2000:]}\n")
    return Command(list(argv), rc, wall, cpu, out.getvalue())


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def unit_digest(data: bytes) -> str:
    return sha256_bytes(data)[:16]


def canonical_digest(obj) -> str:
    return sha256_bytes(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def file_sha256(path: Path) -> str:
    return sha256_bytes(path.read_bytes())


@dataclass
class Pass:
    """One pass over the workload's seed range."""

    commands: list
    units: dict  # unit key -> digest ("" marks a unit whose command failed)
    run_digest: str
    failed: set = field(default_factory=set)  # units the program itself failed
    notes: list = field(default_factory=list)

    @property
    def wall(self):
        return sum(c.wall for c in self.commands)

    @property
    def cpu(self):
        return sum(c.cpu for c in self.commands)


def generate_pass(lo, hi, jobs, out: Path, task_ids) -> Pass:
    shutil.rmtree(out, ignore_errors=True)
    cmd = call_cli(
        ["generate", "--task", "all", "--seeds", f"{lo}..{hi}",
         "--out", str(out), "--jobs", str(jobs)]
    )
    keys = [f"{task}:{seed}" for task in task_ids for seed in range(lo, hi + 1)]
    if not cmd.ok:
        return Pass([cmd], {k: "" for k in keys}, "", set(keys), ["generate failed"])
    groups = {k: [] for k in keys}
    stray = []
    with open(out / "dataset.jsonl", "rb") as fh:
        for line in fh:
            try:
                record = json.loads(line)
                key = f"{record['task']}:{record['provenance']['seed']}"
            except (ValueError, KeyError, TypeError):
                key = None
            (groups[key] if key in groups else stray).append(line)
    units = {k: unit_digest(b"".join(lines)) for k, lines in groups.items()}
    payload = cmd.payload() or {}
    payload = {k: v for k, v in payload.items() if k not in ("dataset", "manifest")}
    files = {p.name: file_sha256(p) for p in sorted(out.iterdir()) if p.is_file()}
    notes = [f"{len(stray)} dataset lines outside the seed range"] if stray else []
    return Pass([cmd], units, canonical_digest({"stdout": payload, "files": files}), notes=notes)


def supervise_pass(lo, hi, out: Path) -> Pass:
    commands, units, summaries, failed = [], {}, {}, set()
    for task in CUBE_TASKS:
        trace_dir = out / task
        shutil.rmtree(trace_dir, ignore_errors=True)
        cmd = call_cli(
            ["supervise", "--task", task, "--seeds", f"{lo}..{hi}",
             "--assistant", "oracle", "--trace", str(trace_dir), "--jobs", "1"]
        )
        commands.append(cmd)
        summary = cmd.payload() if cmd.ok else None
        summaries[task] = summary
        for seed in range(lo, hi + 1):
            key = f"{task}:{seed}"
            path = trace_dir / f"{task}_{seed:05d}.trace"
            if summary is None or summary.get("episodes") != hi - lo + 1 or not path.exists():
                units[key] = ""
                failed.add(key)
            else:
                units[key] = unit_digest(path.read_bytes())
    return Pass(commands, units, canonical_digest(summaries), failed)


def audit_pass(data: Path, entries: int) -> Pass:
    verify = call_cli(["verify", "--data", str(data)])
    stats = call_cli(["stats", "--data", str(data)])
    evaluate = call_cli(["evaluate", "--data", str(data), "--assistant", "oracle"])
    commands = [verify, stats, evaluate]
    keys = [f"entry:{i}" for i in range(entries)]
    outputs = {c.argv[0]: c.payload() for c in commands}
    notes, bad = [], 0
    v, e = outputs["verify"], outputs["evaluate"]
    if verify.rc in (0, 3) and v is not None:
        # Exit 3 is a verification shortfall: those entries failed replay.
        bad = v["failures"] - round(v["verified_fraction"] * v["failures"])
        if bad:
            notes.append(f"{bad} entries failed re-verification")
    else:
        bad = entries
        notes.append("verify failed")
    perfect = e is not None and all(
        e.get(k) == 1.0 for k in ("binary_success", "type_accuracy", "mean_cosine")
    )
    if not (stats.ok and evaluate.ok and perfect):
        bad = entries
        notes.append("stats/evaluate failed or the oracle scored below (1.0, 1.0, 1.0)")
    # Re-verification outcome per entry: the CLI reports a fraction, so the
    # failing entries are counted, not named.
    failed = set(keys[:bad])
    units = {k: ("" if k in failed else "verified") for k in keys}
    return Pass(commands, units, canonical_digest(outputs), failed, notes)


# -- the run -----------------------------------------------------------------


class LayerCounters:
    """Hook targets for the ratios that need a call's arguments or result."""

    def __init__(self):
        self.values = {}
        self.pending_results = []

    def add(self, key, amount):
        self.values[key] = self.values.get(key, 0) + amount

    def hooks(self):
        return {
            "failures.generate_failure_case":
                lambda a, k, r, i: self.add("cases", r is not None),
            "recovery.collect_candidates":
                lambda a, k, r, i: self.add("candidates", len(r)),
            "verifier.verify_candidate":
                lambda a, k, r, i: self.add("verified", bool(r)),
            "dataset.write_dataset": self._written,
            "dataset.read_dataset": self._read,
            "supervisor.run_supervised_episode":
                lambda a, k, r, i: self.add("interventions", r.interventions),
            # What pool workers send back is what the merge hands to
            # enforce_ratio; pickled after the pass, outside every span.
            "dataset.enforce_ratio": lambda a, k, r, i: self.pending_results.append(a[0]),
        }

    def _written(self, args, kwargs, result, index):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.add("write_bytes", os.path.getsize(path))
        self.add("write_entries", result)

    def _read(self, args, kwargs, result, index):
        path = args[0] if args else kwargs["path"]
        self.add("read_bytes", os.path.getsize(path))
        self.add("read_entries", len(result))

    def close_pass(self):
        # Entry by entry: a whole-list pickle shares objects across entries
        # differently after a pool round trip, so its size depends on jobs.
        for entries in self.pending_results:
            self.add("result_bytes", sum(len(pickle.dumps(e)) for e in entries))
        self.pending_results.clear()


def _ratio(num, den):
    return num / den if den else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _child_env() -> dict:
    """This process's environment with the checkout's src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(repeats: int) -> list:
    """Fresh interpreters, each timed from spawn to exit, importing
    failsafe and loading the packaged config."""
    times = []
    for i in range(repeats + 1):  # the first fills the bytecode cache
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=_child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {done.stderr.decode()[-500:]}")
        if i:
            times.append(elapsed)
    return times


def prepare_audit_dataset(lo, hi, out: Path) -> Path:
    """The dataset audit reads, built by the CLI in a child process so the
    benchmark process's own peak memory covers only the audited commands."""
    shutil.rmtree(out, ignore_errors=True)
    done = subprocess.run(
        [sys.executable, "-m", "failsafe", "generate", "--task", "all",
         "--seeds", f"{lo}..{hi}", "--out", str(out), "--jobs", "1"],
        cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"audit input generation failed: {done.stderr.decode()[-500:]}")
    return out / "dataset.jsonl"


def load_golden() -> dict:
    if GOLDEN_PATH.exists():
        return json.loads(GOLDEN_PATH.read_text())
    return {}


class Runner:
    """Executes one workload run and collects what the report needs."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        from failsafe.tasks import TASKS

        self.w = workload
        self.lo, self.hi = workload.seed_range(seed)
        self.work = work
        self.task_ids = list(TASKS)
        self.audit_data = None
        self.audit_entries = 0

    @property
    def range_key(self):
        return f"{self.lo}..{self.hi}"

    def prepare(self):
        if self.w.name == "audit":
            self.audit_data = prepare_audit_dataset(self.lo, self.hi, self.work / "audit_input")
            with open(self.audit_data, "rb") as fh:
                self.audit_entries = sum(1 for _ in fh)

    def warm_up(self):
        """One small command like the workload's, so lazy imports and first-call
        costs land before timing."""
        if self.w.name == "generate_all":
            call_cli(["generate", "--task", "push_cube", "--seeds", f"{self.lo}..{self.lo}",
                      "--out", str(self.work / "warm"), "--jobs", "1"])
        elif self.w.name == "supervise_cube":
            call_cli(["supervise", "--task", "push_cube", "--seeds", f"{self.lo}..{self.lo}",
                      "--assistant", "oracle", "--jobs", "1"])
        else:
            call_cli(["stats", "--data", str(self.audit_data)])

    def one_pass(self) -> Pass:
        if self.w.name == "generate_all":
            return generate_pass(self.lo, self.hi, 1, self.work / "generate", self.task_ids)
        if self.w.name == "supervise_cube":
            return supervise_pass(self.lo, self.hi, self.work / "traces")
        return audit_pass(self.audit_data, self.audit_entries)


def compare_units(reference: dict, got: dict) -> set:
    """Unit keys whose digest differs from the reference (missing counts)."""
    return {k for k in reference if got.get(k) != reference[k]} | (set(got) - set(reference))


def compare_counts(first: dict, second: dict) -> list:
    """Names of exact-count metrics that did not repeat."""
    return sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))


def pinned_for(golden: dict, w: Workload, range_key: str):
    return golden.get(w.name, {}).get(range_key)


def check_passes(runner: Runner, passes: list, golden: dict, report: dict):
    """Failed units per pass, after every output check. Updates report."""
    w = runner.w
    checks = report.setdefault("checks", [])
    pins = pinned_for(golden, w, runner.range_key)
    first = passes[0]
    failed_per_pass = []
    run_ok = True
    for n, p in enumerate(passes):
        failed = set(p.failed)
        if pins is not None and w.name != "audit":
            bad = compare_units(pins["units"], p.units)
            if bad:
                checks.append(f"pass {n}: {len(bad)} units differ from golden.json")
            failed |= bad
        elif n:
            bad = compare_units(first.units, p.units)
            if bad:
                checks.append(f"pass {n}: {len(bad)} units differ from pass 0")
            failed |= bad
        reference_run = pins["run"] if pins is not None else first.run_digest
        if p.run_digest != reference_run:
            checks.append(f"pass {n}: run-level digest differs "
                          f"({'golden.json' if pins is not None else 'pass 0'})")
            run_ok = False
            if w.name == "audit":
                failed |= set(p.units)
        checks.extend(f"pass {n}: {note}" for note in p.notes)
        failed_per_pass.append(failed)
    report["pinned"] = pins is not None
    return failed_per_pass, run_ok


def fallback_checks(runner: Runner, report: dict) -> bool:
    """The program's own checks, for a seed range with no pinned digests."""
    checks = report["checks"]
    if runner.w.name == "generate_all":
        data = runner.work / "generate" / "dataset.jsonl"
        if not data.exists() or audit_pass(data, sum(1 for _ in open(data, "rb"))).failed:
            checks.append("fallback: verify/evaluate on the generated dataset failed")
            return False
        checks.append("fallback: verify fraction 1.0 and oracle (1.0, 1.0, 1.0)")
    elif runner.w.name == "supervise_cube":
        checks.append("fallback: trace digests repeat across passes")
    else:
        checks.append("fallback: verify fraction 1.0 and oracle (1.0, 1.0, 1.0) every pass")
    return True


def end_to_end_metrics(passes: list, peak_rss_mb: float, setup_times: list) -> dict:
    """Per command position, the median over passes; summed per pass and
    divided by units."""
    units = len(passes[0].units)
    walls = [_median([p.commands[i].wall for p in passes]) for i in range(len(passes[0].commands))]
    cpus = [_median([p.commands[i].cpu for p in passes]) for i in range(len(passes[0].commands))]
    return {
        "s_per_unit": sum(walls) / units,
        "cpu_s_per_unit": sum(cpus) / units,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": _median(setup_times),
    }


def layer_metrics(tracer, counters: LayerCounters, units_traced: int, traced_wall: float,
                  untraced_wall: float, traced_walls: list) -> tuple:
    """(metrics, tail percentile per function)."""
    from tracer import percentile, tail_percentile

    summary = tracer.summary()
    values, tails = {}, {}
    for name, kind in layer_functions():
        s = summary[name]
        values[f"{name}.calls"] = _ratio(s["calls"], units_traced)
        if kind != "span":
            continue
        us = s["durations"] * 1e6
        p = tail_percentile(len(us))
        tails[name] = {"samples": len(us), "percentile": p if p is not None else "max"}
        values[f"{name}.us.p50"] = percentile(us, 50.0)
        values[f"{name}.us.tail"] = percentile(us, p if p is not None else 100.0)
        values[f"{name}.self_frac"] = _ratio(s["self_s"], traced_wall)
    c = counters.values
    calls = {name: summary[name]["calls"] for name in summary}
    dur = {name: float(summary[name]["durations"].sum()) for name in summary}
    values.update({
        "failures.confirmed_ratio":
            _ratio(c.get("cases", 0), calls["failures.generate_failure_case"]),
        "recovery.candidates_per_case":
            _ratio(c.get("candidates", 0), calls["recovery.collect_candidates"]),
        "verifier.verified_ratio":
            _ratio(c.get("verified", 0), calls["verifier.verify_candidate"]),
        "verifier.replay_steps":
            _ratio(tracer.child_calls("sim.step", "verifier.verify_candidate"),
                   calls["verifier.verify_candidate"]),
        "dataset.write_mb_per_s":
            _ratio(c.get("write_bytes", 0) / 1e6, dur["dataset.write_dataset"]),
        "dataset.read_mb_per_s":
            _ratio(c.get("read_bytes", 0) / 1e6, dur["dataset.read_dataset"]),
        "dataset.bytes_per_entry":
            _ratio(c.get("write_bytes", 0) + c.get("read_bytes", 0),
                   c.get("write_entries", 0) + c.get("read_entries", 0)),
        "supervisor.episodes_per_pair":
            _ratio(calls["supervisor.run_supervised_episode"], calls["pipeline.run_episode_pair"]),
        "supervisor.draws_per_fault":
            _ratio(tracer.child_calls("supervisor.run_supervised_episode",
                                      "supervisor.sample_harness_fault"),
                   calls["supervisor.sample_harness_fault"]),
        "supervisor.interventions_per_episode":
            _ratio(c.get("interventions", 0), calls["pipeline.run_episode_pair"]),
        "pipeline.result_mb": _ratio(c.get("result_bytes", 0) / 1e6, units_traced),
        "trace_overhead_frac": _ratio(_median(traced_walls), untraced_wall) - 1.0,
    })
    return values, tails


def pass_counts(tracer, counters: LayerCounters) -> dict:
    """Raw exact counts of everything traced so far, for the repeat check."""
    counts = {f"calls:{n}": c for n, c in zip(tracer.names, tracer.counts)}
    counts.update({f"counter:{k}": v for k, v in counters.values.items()})
    counts["child:sim.step<verify_candidate"] = tracer.child_calls(
        "sim.step", "verifier.verify_candidate")
    counts["child:episode<sample_harness_fault"] = tracer.child_calls(
        "supervisor.run_supervised_episode", "supervisor.sample_harness_fault")
    return counts


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS, golden: dict | None = None) -> dict:
    """Run one workload; returns the full report (see main for the summary)."""
    import failsafe.cli  # noqa: F401  (the CLI's whole import graph, before tracing)
    from tracer import Tracer

    golden = load_golden() if golden is None else golden
    work = OUT / "work" / f"{workload.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, work)
    report = {
        "workload": workload.name,
        "seed": seed,
        "seed_range": runner.range_key,
        "trace": trace,
        "seconds": seconds,
        "checks": [],
    }
    t_prep = time.perf_counter()
    runner.prepare()
    report["prepare_s"] = time.perf_counter() - t_prep
    input_ok = True
    if workload.name == "audit":
        pins = pinned_for(golden, workload, runner.range_key)
        got = file_sha256(runner.audit_data)
        report["audit_input_sha256"] = got
        if pins is not None and pins["dataset"] != got:
            report["checks"].append("audit input dataset differs from golden.json")
            input_ok = False
    runner.warm_up()

    passes, traced = [], []
    counts_per_pass, tracer, counters = [], None, None
    start = time.perf_counter()
    if not trace:
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(runner.one_pass())
    else:
        passes.append(runner.one_pass())
        counters = LayerCounters()
        tracer = Tracer(counters.hooks())
        tracer.install()
        try:
            for _ in range(TRACED_PASSES):
                p = runner.one_pass()
                counters.close_pass()
                counts_per_pass.append(pass_counts(tracer, counters))
                traced.append(p)
        finally:
            tracer.restore()
        report["wrappers_left"] = tracer.bound_wrappers()
    report["measure_s"] = time.perf_counter() - start

    # The whole run is one process (audit's input is built in a child that
    # has exited), so its high-water mark is the tree's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times = measure_setup(setup_repeats) if not trace else []

    all_passes = passes + traced
    failed_per_pass, run_ok = check_passes(runner, all_passes, golden, report)
    ok = run_ok and input_ok
    if not report["pinned"]:
        ok = fallback_checks(runner, report) and ok
    if traced:
        diff = [n for n, p in enumerate(traced, 1)
                if p.units != passes[0].units or p.run_digest != passes[0].run_digest]
        if diff:
            report["checks"].append(f"traced passes {diff} differ from the untraced pass")
            ok = False
        # Counts are cumulative; the second traced pass must add exactly
        # what the first did.
        first = counts_per_pass[0]
        second = {k: v - first.get(k, 0) for k, v in counts_per_pass[1].items()}
        repeat = compare_counts(first, second)
        report["determinism_failures"] = repeat
        if repeat:
            report["checks"].append(f"determinism failure: counts did not repeat: {repeat}")
            ok = False
        if report["wrappers_left"]:
            report["checks"].append(f"wrappers left installed: {report['wrappers_left']}")
            ok = False

    units = len(passes[0].units)
    attempted = units * len(all_passes)
    failed = sum(len(f) for f in failed_per_pass)
    if not ok and failed == 0:
        report["checks"].append("run-level check failed; no unit attributed")
    report.update({
        "units_per_pass": units,
        "unit": workload.unit,
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "traced": i >= len(passes),
                    "commands": [{"cmd": c.argv[0], "wall_s": c.wall, "cpu_s": c.cpu, "rc": c.rc}
                                 for c in p.commands]}
                   for i, p in enumerate(all_passes)],
        "setup_times_s": setup_times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "correct": ok and failed == 0,
        "digests": {"run": passes[0].run_digest, "units": passes[0].units},
    })
    if trace:
        units_traced = units * len(traced)
        values, tails = layer_metrics(
            tracer, counters, units_traced, sum(p.wall for p in traced),
            passes[0].wall, [p.wall for p in traced])
        values["error_rate"] = _ratio(failed, attempted)
        report["tail_percentiles"] = tails
        report["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit, _, _ in per_layer_specs()}
        report["spans"] = tracer.span_arrays()
        report["span_names"] = tracer.names
    else:
        values = end_to_end_metrics(passes, peak_rss_mb, setup_times)
        report["error_rate"] = _ratio(failed, attempted)
        report["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit, _ in END_TO_END}
    return report


def write_outputs(report: dict) -> Path:
    """Result record to .bench_out/results, spans to .bench_out/spans."""
    import numpy as np

    tag = f"{report['workload']}-seed{report['seed']}-trace{int(report['trace'])}"
    spans = report.pop("spans", None)
    names = report.pop("span_names", None)
    if spans is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        fid, start, end, parent = spans
        np.savez_compressed(OUT / "spans" / f"{tag}.npz", fid=fid, start=start, end=end,
                            parent=parent, names=np.array(names))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{tag}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")
    return path


def print_report(report: dict, result_path: Path):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"scene seeds {report['seed_range']}  "
          f"{report['units_per_pass']} units ({report['unit']}) per pass  "
          f"{len(report['passes'])} passes  pinned {report['pinned']}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for check in report["checks"]:
        print(f"check: {check}")
    tails = report.get("tail_percentiles", {})
    for name, m in report["metrics"].items():
        extra = ""
        if name.endswith(".us.tail"):
            t = tails.get(name[: -len(".us.tail")], {})
            extra = f"  (p{t.get('percentile')} of {t.get('samples')} calls)"
        print(f"  {name:48s} {m['value']:>16.6f} {m['unit']}{extra}")
    print(f"record: {result_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    lo, hi = workload.seed_range(max(args.seed, 0))
    if args.seed < 0 or hi >= 2**32:
        print(f"--seed must put the scene seeds inside [0, 2**32); got {args.seed}",
              file=sys.stderr)
        return 2
    try:
        import_failsafe()
    except ImportError as exc:
        print(f"cannot import failsafe from {SRC}: {exc}", file=sys.stderr)
        return 2
    report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    report["environment"] = environment()
    path = write_outputs(report)
    print_report(report, path)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
