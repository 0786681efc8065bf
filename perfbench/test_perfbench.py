"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run tests make two full traced passes per workload (about three
minutes in all).  `-k "not traced"` keeps to the quick ones.
"""

import gc
import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_end_to_end_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert declared == bench.END_TO_END_UNITS


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(bench.WORKLOADS)


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.names = ["outer", "inner"]
    # outer [0, 10] holds inner [1, 3] and inner [4, 8]; inner [4, 8] holds inner [5, 6]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 3.0, 0), (1, 4.0, 8.0, 0), (1, 5.0, 6.0, 2)]
    for name, start, end, parent in spans:
        t.span_name.append(name)
        t.span_start.append(start)
        t.span_end.append(end)
        t.span_parent.append(parent)
        t.span_op.append(0)
    assert t.self_times() == {"outer": 4.0, "inner": 6.0}
    assert t.totals() == ({"outer": 1, "inner": 3}, {"outer": 10.0, "inner": 7.0})


def test_lap_scales_by_the_kernel_before_and_after(monkeypatch):
    kernels = iter([bench.CAL_NOMINAL_S, 3 * bench.CAL_NOMINAL_S])
    monkeypatch.setattr(bench, "calibrate", lambda: next(kernels))
    run = bench.Run()
    run.start_clock()
    raw, scaled = run.lap()
    assert scaled == pytest.approx(raw / 2)
    assert run.kernels == [bench.CAL_NOMINAL_S, 3 * bench.CAL_NOMINAL_S]


def test_lap_takes_kernel_runs_inside_the_step_out_of_it():
    run = bench.Run()
    with run.sampling():
        run.start_clock()
        end = bench.time.perf_counter() + 0.3
        while bench.time.perf_counter() < end:
            pass
        raw, scaled = run.lap()
    inside = len(run.kernels) - 2
    assert inside >= 3
    assert raw == pytest.approx(0.3 - sum(run.kernels[1:-1]), abs=0.02)


def test_calibrate_restores_the_collector():
    assert gc.isenabled()
    assert bench.calibrate() > 0
    assert gc.isenabled()


def test_operations_take_their_median_over_passes():
    run = bench.Run()
    run.setups = [(2.0, 1.0), (4.0, 2.0), (3.0, 1.5)]
    run.samples = {("a",): [(1.0, 0.5), (3.0, 1.5), (2.0, 1.0)], ("b",): [(4.0, 2.0)] * 3}
    assert bench.end_to_end(run, scaled=True) == {
        "setup_s": 1.5, "ops_per_s": 2 / 3, "op_p50_ms": 1500.0, "op_p90_ms": None,
    }
    assert bench.end_to_end(run, scaled=False) == {
        "setup_s": 3.0, "ops_per_s": 1 / 3, "op_p50_ms": 3000.0, "op_p90_ms": None,
    }


def test_tracer_wraps_names_imported_by_other_modules():
    bench.load_package()
    from multired import harness, reduction, vankampen
    from multired.monoid import MonoidContext

    original = reduction.apply_left
    t = tracing.Tracer()
    t.install()
    try:
        assert harness.apply_left is reduction.apply_left is vankampen.apply_left
        assert reduction.apply_left.__wrapped__ is original
        assert MonoidContext.canonical.__wrapped__ is not None
    finally:
        t.uninstall()
    assert reduction.apply_left is original and harness.apply_left is original
    assert not hasattr(MonoidContext.canonical, "__wrapped__")


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "cli_cold", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_counts_repeat(workload):
    """Two traced runs with one seed give identical per-layer counts."""
    results = []
    for _ in range(2):
        proc = run_benchmark(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = results
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    counts = {k for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
