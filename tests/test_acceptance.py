"""Acceptance gate: eight top-level checks, each printing one PASS/FAIL line.

Each test computes its own evidence at the scale its check demands, prints
a single summary line even under capture, then asserts. Seeds are fixed, so
every run sees the same data.
"""

import math
import time

import numpy as np

from failsafe.config import default_config
from failsafe.dataset import DatasetStats, split_by_seed
from failsafe.failures import generate_failure_case
from failsafe.geometry import (
    Pose,
    apply_delta,
    delta_action,
    pose_distance,
    slerp,
)
from failsafe.pipeline import file_sha256, generate_task_entries, supervise_task
from failsafe.recovery import collect_candidates, deviated_stage, window_ranges
from failsafe.sim import Simulator
from failsafe.supervisor import (
    evaluate_assistant,
    null_assistant,
    oracle_assistant_decide,
)
from failsafe.tasks import TASKS, plan_task, rollout_plan
from failsafe.verifier import reverify_entries

CUBE_TASKS = ("pick_cube", "push_cube", "stack_cube")


def quat_distance(a, b) -> float:
    """Chordal distance min(|a-b|, |a+b|); 0 for identical rotations."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))


def failure_case(task_id, seed, cfg, sim):
    """Plan the scene and roll its correct plan, then inject and confirm."""
    return generate_failure_case(rollout_plan(*plan_task(task_id, seed, cfg), sim), cfg, sim)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_verification_soundness(capsys):
    """>=200 verified pairs across the cube tasks and every enabled failure
    mode re-verify to fraction exactly 1.0 inside a 60 s budget."""
    cfg = default_config()
    start = time.perf_counter()
    entries = []
    for task in CUBE_TASKS:
        entries.extend(generate_task_entries(task, range(100, 124), cfg, jobs=1))
    pairs = [e for e in entries if e.is_failure]
    fraction = reverify_entries(entries, cfg)
    elapsed = time.perf_counter() - start

    seen = {task: set() for task in CUBE_TASKS}
    for e in pairs:
        seen[e.task_id].add(e.failure_type)
    enabled = {
        task: {(fe.mode, fe.axis) for fe in cfg.tasks[task]} for task in CUBE_TASKS
    }
    covered = all(seen[task] == enabled[task] for task in CUBE_TASKS)

    ok = len(pairs) >= 200 and fraction == 1.0 and covered and elapsed <= 60.0
    report(
        capsys, 1, ok,
        f"{len(pairs)} pairs, re-verified fraction {fraction:.3f}, "
        f"modes covered {covered}, {elapsed:.1f}s (limit 60s)",
    )
    assert len(pairs) >= 200
    assert fraction == 1.0
    assert covered, {t: enabled[t] - seen[t] for t in CUBE_TASKS}
    assert elapsed <= 60.0


def test_criterion_2_ground_truth_validity(capsys):
    """100/100 unperturbed rollouts succeed per task; every emitted failure
    case carries a genuinely failed trajectory."""
    cfg = default_config()
    sim = Simulator(cfg)
    rollout_failures = []
    for task in TASKS:
        for seed in range(100):
            plan, world = plan_task(task, seed, cfg)
            if not sim.evaluate_success(rollout_plan(plan, world, sim).worlds[-1], task):
                rollout_failures.append((task, seed))

    emitted = 0
    leaked = []
    for task in CUBE_TASKS:
        for seed in range(100):
            case = failure_case(task, seed, cfg, sim)
            if case is not None:
                emitted += 1
                if sim.evaluate_success(case.failed.worlds[-1], task):
                    leaked.append((task, seed))

    ok = not rollout_failures and emitted > 0 and not leaked
    report(
        capsys, 2, ok,
        f"{len(TASKS) * 100} unperturbed rollouts, {len(rollout_failures)} failed; "
        f"{emitted} failure cases emitted, {len(leaked)} with a successful outcome",
    )
    assert not rollout_failures, rollout_failures[:5]
    assert emitted > 0
    assert not leaked, leaked[:5]


def test_criterion_3_oracle_evaluator_ceiling(capsys):
    """On a seed-disjoint >=500-entry split the oracle scores a perfect
    (1.0, 1.0, ~1.0) and the null assistant's cosine is exactly zero."""
    cfg = default_config()
    pool = []
    for task in CUBE_TASKS:
        pool.extend(generate_task_entries(task, range(72), cfg, jobs=1))
    train, test = split_by_seed(pool, range(40))
    assert {e.seed for e in train}.isdisjoint({e.seed for e in test})

    oracle = evaluate_assistant(oracle_assistant_decide, test)
    null = evaluate_assistant(null_assistant, test)
    ok = (
        len(test) >= 500
        and oracle.binary_success == 1.0
        and oracle.type_accuracy == 1.0
        and oracle.mean_cosine >= 0.999
        and null.mean_cosine == 0.0
    )
    report(
        capsys, 3, ok,
        f"{len(test)} held-out entries; oracle ({oracle.binary_success}, "
        f"{oracle.type_accuracy}, {oracle.mean_cosine:.6f}), "
        f"null cosine {null.mean_cosine}",
    )
    assert len(test) >= 500
    assert oracle.binary_success == 1.0
    assert oracle.type_accuracy == 1.0
    assert oracle.mean_cosine >= 0.999
    assert null.mean_cosine == 0.0


def test_criterion_4_supervised_recovery_uplift(capsys):
    """100 perturbed episodes per cube task: null assistant <=20% success,
    oracle >=90%, uplift >=40 points, all inside five minutes."""
    cfg = default_config()
    start = time.perf_counter()
    rates = {}
    for task in CUBE_TASKS:
        outcomes = supervise_task(task, range(100), cfg, "oracle", jobs=1)
        bare = sum(1 for _, b, _ in outcomes if b) / len(outcomes)
        helped = sum(1 for _, _, r in outcomes if r.success) / len(outcomes)
        rates[task] = (bare, helped)
    elapsed = time.perf_counter() - start

    ok = elapsed <= 300.0 and all(
        bare <= 0.20 and helped >= 0.90 and helped - bare >= 0.40
        for bare, helped in rates.values()
    )
    detail = ", ".join(
        f"{task} null {bare:.0%} oracle {helped:.0%}"
        for task, (bare, helped) in rates.items()
    )
    report(capsys, 4, ok, f"{detail}, {elapsed:.1f}s (limit 300s)")
    for task, (bare, helped) in rates.items():
        assert bare <= 0.20, (task, bare)
        assert helped >= 0.90, (task, helped)
        assert helped - bare >= 0.40, (task, bare, helped)
    assert elapsed <= 300.0


def test_criterion_5_reference_table_arithmetic(capsys):
    """The published distribution the pipeline mirrors: totals and the
    rounded ratio must come out exactly."""
    rows = {
        "pick_cube": {
            "no_ops": 7485, "trans_x": 10575, "trans_y": 5295, "trans_z": 0,
            "rot_x": 60, "rot_y": 69, "rot_z": 60, "gt": 24351,
        },
        "push_cube": {
            "no_ops": 12057, "trans_x": 2394, "trans_y": 13947, "trans_z": 2385,
            "rot_x": 15690, "rot_y": 11397, "rot_z": 2565, "gt": 16893,
        },
        "stack_cube": {
            "no_ops": 6693, "trans_x": 11511, "trans_y": 9792, "trans_z": 0,
            "rot_x": 12057, "rot_y": 6270, "rot_z": 738, "gt": 14717,
        },
    }
    stats = DatasetStats(
        {(task, label): count for task, row in rows.items() for label, count in row.items()}
    )
    summary = stats.summary()
    ok = (
        stats.total_failures == 131040
        and stats.total_gt == 55961
        and summary["ratio"] == 2.34
        and stats.ratio_label() == "2.3:1"
    )
    report(
        capsys, 5, ok,
        f"failures {stats.total_failures}, gt {stats.total_gt}, "
        f"ratio {summary['ratio']} -> {stats.ratio_label()}",
    )
    assert stats.total_failures == 131040
    assert stats.total_gt == 55961
    assert summary["ratio"] == 2.34
    assert stats.ratio_label() == "2.3:1"


def test_criterion_6_window_rule_conformance(capsys):
    """Deviation windows are [10, L_f-1] and corrections [10, L_c-4]
    (empty below the L_f>=11, L_c>=15 floor), and collected candidates
    never leave them."""
    rng = np.random.default_rng(2026)
    checked = 0
    violations = 0
    for _ in range(1500):
        lf = int(rng.integers(0, 400))
        lc = int(rng.integers(0, 400))
        d_range, c_range = window_ranges(lf, lc)
        if lf >= 11 and lc >= 15:
            if d_range != range(10, lf) or c_range != range(10, lc - 3):
                violations += 1
        else:
            if len(d_range) or len(c_range):
                violations += 1
        checked += 1

    cfg = default_config()
    sim = Simulator(cfg)
    n_candidates = 0
    escapes = 0
    for task in CUBE_TASKS:
        for seed in range(40, 52):
            case = failure_case(task, seed, cfg, sim)
            if case is None:
                continue
            *_, d_range, c_range = deviated_stage(case)
            for cand in collect_candidates(case, 7):
                n_candidates += 1
                if cand.d_index not in d_range or cand.c_index not in c_range:
                    escapes += 1

    ok = checked >= 1000 and violations == 0 and n_candidates > 0 and escapes == 0
    report(
        capsys, 6, ok,
        f"{checked} random lengths, {violations} rule violations; "
        f"{n_candidates} candidates, {escapes} outside their windows",
    )
    assert checked >= 1000
    assert violations == 0
    assert n_candidates > 0
    assert escapes == 0


def test_criterion_7_geometry_suite(capsys):
    """10,000 random pose pairs round-trip through delta_action/apply_delta
    within 1e-9, rotations stay wrapped, slerp endpoints are exact."""
    rng = np.random.default_rng(7)

    def random_pose():
        return Pose(rng.uniform(-1.0, 1.0, 3), rng.normal(size=4), rng.uniform())

    worst_translation = 0.0
    worst_rotation = 0.0
    worst_gripper = 0.0
    unwrapped = 0
    for _ in range(10_000):
        p, q = random_pose(), random_pose()
        action = delta_action(p, q)
        if np.any(np.abs(action.d_rotation) > math.pi):
            unwrapped += 1
        reached = apply_delta(p, action)
        translational, angular = pose_distance(reached, q)
        worst_translation = max(worst_translation, translational)
        worst_rotation = max(worst_rotation, angular)
        worst_gripper = max(worst_gripper, abs(reached.gripper - q.gripper))

    worst_endpoint = 0.0
    for _ in range(10_000):
        q0 = rng.normal(size=4)
        q0 /= np.linalg.norm(q0)
        q1 = rng.normal(size=4)
        q1 /= np.linalg.norm(q1)
        worst_endpoint = max(
            worst_endpoint,
            quat_distance(slerp(q0, q1, 0.0), q0),
            quat_distance(slerp(q0, q1, 1.0), q1),
        )

    ok = (
        worst_translation <= 1e-9
        and worst_rotation <= 1e-9
        and worst_gripper <= 1e-9
        and unwrapped == 0
        and worst_endpoint <= 1e-12
    )
    report(
        capsys, 7, ok,
        f"worst round trip {worst_translation:.2e} m / {worst_rotation:.2e} rad / "
        f"{worst_gripper:.2e} grip, {unwrapped} unwrapped, "
        f"slerp endpoint {worst_endpoint:.2e}",
    )
    assert worst_translation <= 1e-9
    assert worst_rotation <= 1e-9
    assert worst_gripper <= 1e-9
    assert unwrapped == 0
    assert worst_endpoint <= 1e-12


def test_criterion_8_generate_determinism(capsys, tmp_path):
    """Two identical full generate runs agree byte for byte, manifests
    included."""
    from failsafe.cli import cli_main

    for out in ("a", "b"):
        code = cli_main(
            ["generate", "--task", "all", "--seeds", "0..2", "--out", str(tmp_path / out)]
        )
        assert code == 0
    capsys.readouterr()  # swallow the two stdout payloads

    data_a = (tmp_path / "a" / "dataset.jsonl").read_bytes()
    data_b = (tmp_path / "b" / "dataset.jsonl").read_bytes()
    hash_a = file_sha256(tmp_path / "a" / "manifest.json")
    hash_b = file_sha256(tmp_path / "b" / "manifest.json")
    ok = data_a == data_b and hash_a == hash_b and len(data_a) > 0
    report(
        capsys, 8, ok,
        f"merged datasets identical {data_a == data_b} ({len(data_a)} bytes), "
        f"manifest hashes identical {hash_a == hash_b}",
    )
    assert data_a == data_b
    assert hash_a == hash_b
    assert len(data_a) > 0
