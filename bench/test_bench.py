"""Tests of the benchmark itself (not of failsafe).

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They use one-seed ranges so the whole file takes seconds.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402

run.import_failsafe()

from failsafe.tasks import TASKS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = replace(run.WORKLOADS["generate_all"], span=1)


@pytest.fixture(scope="module")
def untraced_report():
    return run.run_workload(TINY, 0, 0.0, trace=False, setup_repeats=1, golden={})


@pytest.fixture(scope="module")
def traced_report():
    return run.run_workload(TINY, 0, 0.0, trace=True, golden={})


def test_benchmark_json_lists_the_catalogue():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": e["bound"]}
        for (n, u, b), e in zip(run.END_TO_END, BENCHMARK["end_to_end"])
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in run.per_layer_specs()
    ]


def test_emitted_metrics_match_benchmark_json(untraced_report, traced_report):
    for report, listed in ((untraced_report, "end_to_end"), (traced_report, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[listed]}
        emitted = report["metrics"]
        assert list(emitted) == list(expected)
        for name, metric in emitted.items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == expected[name]
            assert isinstance(metric["value"], float)


def test_runs_are_correct(untraced_report, traced_report):
    for report in (untraced_report, traced_report):
        assert report["correct"], report["checks"]
        assert report["failed"] == 0
        assert report["attempted"] == len(TASKS) * len(report["passes"])


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
     (100000, 99.99), (10**7, 99.99)],
)
def test_tail_percentile_rule(n, expected):
    assert tracer.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]
    assert tracer.percentile(values, 50.0) == 50.0
    assert tracer.percentile(values, 90.0) == 90.0
    assert tracer.percentile(values, 99.9) == 100.0
    assert tracer.percentile([], 50.0) == 0.0


def test_traced_outputs_equal_untraced(tmp_path):
    plain = run.generate_pass(0, 0, 1, tmp_path / "plain", list(TASKS))
    t = tracer.Tracer()
    t.install()
    try:
        traced = run.generate_pass(0, 0, 1, tmp_path / "traced", list(TASKS))
    finally:
        t.restore()
    assert t.counts[t.names.index("sim.step")] > 0
    assert traced.units == plain.units
    assert traced.run_digest == plain.run_digest


def test_traced_run_checks_itself(traced_report):
    assert not any("differ" in c for c in traced_report["checks"])
    assert traced_report["determinism_failures"] == []
    assert traced_report["metrics"]["supervisor.run_supervised_episode.calls"]["value"] == 0.0
    assert traced_report["metrics"]["sim.observe.calls"]["value"] > 0.0


def _bindings():
    """Every place a traced target is reachable from, with its object."""
    found = {}
    for module in tracer._failsafe_modules():
        for key, value in vars(module).items():
            found[(module.__name__, key)] = value
            if type(value) is dict:
                for dkey, dvalue in value.items():
                    found[(module.__name__, key, dkey)] = dvalue
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    found[(module.__name__, key, attr)] = member
    return found


def test_all_wrappers_removed_after_tracing(traced_report):
    assert traced_report["wrappers_left"] == []
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    assert len(t.bound_wrappers()) >= len(tracer.TARGETS)
    try:
        import failsafe.tasks
        from failsafe.config import default_config

        with pytest.raises(Exception):
            failsafe.tasks.plan_task("no_such_task", 0, default_config())
        assert t._stack == []
    finally:
        t.restore()
    assert t.bound_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_exact_repeat_check_names_the_counts_that_moved():
    assert run.compare_counts({"a": 1, "b": 2}, {"a": 1, "b": 2}) == []
    assert run.compare_counts({"a": 1, "b": 2}, {"a": 1, "b": 3, "c": 0}) == ["b", "c"]


def test_unit_comparison_flags_missing_and_extra_units():
    reference = {"x:0": "aa", "x:1": "bb"}
    assert run.compare_units(reference, dict(reference)) == set()
    assert run.compare_units(reference, {"x:0": "aa", "x:2": "cc"}) == {"x:1", "x:2"}


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "generate_all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
