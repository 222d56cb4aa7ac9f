"""Tests of the benchmark itself, on instances small enough to run in seconds.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from sscosamp import bench, projections  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

TINY_SWEEP = workloads.SweepSpec("rescaled-identity", (16, 24),
                                 ((("sscosamp-threshold", "cosamp"), 2),), n=32, k=2)
TINY_DIAGNOSTICS = workloads.DiagnosticsSpec(
    items_per_pattern=2, backend_groups=((("threshold", "omp"), 2), (("l1",), 1)))


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _sweep(tmp_path, spec=TINY_SWEEP, seed=5):
    workload = workloads.SweepWorkload(spec, str(tmp_path))
    workload.setup(seed)
    return workload


def _diagnostics(seed=5, spec=TINY_DIAGNOSTICS, make_backend=None):
    workload = workloads.DiagnosticsWorkload(spec, make_backend)
    workload.setup(seed)
    return workload


def _csvs(workload, result):
    return [workload._csv(r) for _, r in result.outputs]


def test_end_to_end_names_match_benchmark_json(tmp_path):
    workload = _sweep(tmp_path)
    passes = [workload.run_pass(5)]
    passes[0].seconds = passes[0].ref_seconds = 1.0
    metrics = run.end_to_end(passes, setup_s=0.5)
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared


def test_per_layer_names_match_benchmark_json(tmp_path):
    workload = _sweep(tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        workload.run_pass(5)
    metrics = run.per_layer(tracer.spans, workloads.dictionary_build_s(workload), 0.01)
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared


def test_times_are_scaled_by_the_speed_probe(tmp_path, monkeypatch):
    workload = _sweep(tmp_path)
    monkeypatch.setattr(run, "PROBE_INTERVAL_S", 0.0)  # read at every checkpoint
    readings = []

    def probe():
        readings.append(2.0 * run.PROBE_REF_S)  # the machine runs at half speed
        return readings[-1]

    original = bench.draw_gaussian_sensing
    passes = run.timed_passes(workload, 5, 0.0, probe)
    assert bench.draw_gaussian_sensing is original
    assert len(passes) == 1 and passes[0].attempted == 8
    assert passes[0].ref_seconds == pytest.approx(passes[0].seconds / 2.0)
    # the first reading, one before each of 4 instances, one after each of
    # 2 units, and the one that closes the pass
    assert len(readings) == 8
    assert 0.0 < run.SpeedProbe()() < 1.0


def test_benchmark_json_workloads_match_the_runner():
    assert tuple(w["name"] for w in _benchmark_json()["workloads"]) == workloads.WORKLOADS


def test_seed_changes_the_generated_inputs(tmp_path):
    workload = _sweep(tmp_path)
    assert _csvs(workload, workload.run_pass(1)) != _csvs(workload, workload.run_pass(2))
    first, second = _diagnostics(seed=1), _diagnostics(seed=2)
    assert not np.allclose(first.items[0][2], second.items[0][2])
    assert not np.allclose(first.items[0][3][0].matrix, second.items[0][3][0].matrix)


def test_outputs_repeat_exactly_for_one_seed(tmp_path):
    workload = _sweep(tmp_path)
    passes = [workload.run_pass(7), workload.run_pass(7)]
    assert _csvs(workload, passes[0]) == _csvs(workload, passes[1])
    assert workload.check(passes, 7) == []
    assert workload.check(passes[:1], 7) == []  # reruns trial 0 and compares
    diag = _diagnostics(seed=7)
    passes = [diag.run_pass(7), diag.run_pass(7)]
    assert passes[0].outputs == passes[1].outputs
    assert (passes[0].successes, passes[0].failed) == (passes[1].successes, passes[1].failed)
    assert diag.check(passes, 7) == []


def test_diagnostics_vectors_are_the_projection_study_vectors():
    diag = _diagnostics(seed=3)
    rows = bench.run_projection_study(diag.dictionary, 2, ["separated", "clustered"],
                                      ["threshold"], trials=2, seed=3)
    for row, (pattern, trial, z, _) in zip(rows, diag.items):
        assert (row.pattern, row.trial) == (pattern, trial)
        q = projections.evaluate_projection_quality(diag.dictionary, z, 2,
                                                    projections.ThresholdBackend())
        assert (row.eps1, row.eps2, row.opt_residual) == (q.eps1, q.eps2, q.opt_residual)


class _Boom:
    def support(self, dictionary, z, k):
        raise np.linalg.LinAlgError("injected")


def test_injected_backend_failure_is_counted_and_the_pass_goes_on():
    spec = workloads.DiagnosticsSpec(items_per_pattern=2,
                                     backend_groups=((("threshold", "boom"), 2),))
    diag = _diagnostics(spec=spec, make_backend=lambda name: (
        _Boom() if name == "boom" else projections.make_backend(name)))
    result = diag.run_pass(5)
    items = 2 * len(workloads.DIAG_PATTERNS)
    assert result.attempted == items * 4  # two backends, mismatch, drip
    assert result.failed == items
    assert result.failures == {"LinAlgError": items}
    result.seconds = result.ref_seconds = 1.0
    metrics = run.end_to_end([result], setup_s=0.5)
    assert metrics["completed_share"][0] == pytest.approx(0.75)
    assert diag.check([result, diag.run_pass(5)], 5) == []


def test_exception_escaping_run_sweep_loses_only_its_unit(tmp_path, monkeypatch):
    original = bench.cosamp_baseline

    def flaky(A, dictionary, measurements, k, **kwargs):
        if A.m == 16:
            raise np.linalg.LinAlgError("injected")
        return original(A, dictionary, measurements, k, **kwargs)

    workload = _sweep(tmp_path)
    monkeypatch.setattr(bench, "cosamp_baseline", flaky)
    result = workload.run_pass(5)
    assert result.attempted == 8
    assert result.failures == {"LinAlgError": 4}
    assert [r is None for _, r in result.outputs] == [True, False]
    assert workload.check([result], 5) == []


def test_traced_pass_reports_each_exercised_layer(tmp_path):
    workload = _sweep(tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        workload.run_pass(5)
    assert not hasattr(bench.run_sweep, "__wrapped__")
    metrics = tracing.layer_metrics(tracer.spans)
    for name in ("recovery.sscosamp-threshold.calls", "recovery.cosamp.calls",
                 "model.instance.calls"):
        assert metrics[name][0] == 4  # 2 m values x 2 trials
    for name in ("projections.threshold.calls", "linalg.tikhonov_lsq.calls",
                 "linalg.build_projector.calls"):
        assert metrics[name][0] > 0
    assert metrics["bench.run_sweep.self_s"][0] > 0
    top = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(top)


def test_traced_run_interleaves_one_untraced_and_one_traced_pass(tmp_path):
    workload = _sweep(tmp_path)
    passes, spans, overhead = run.traced_run(workload, 5)
    assert [p.attempted for p in passes] == [8, 8]
    assert _csvs(workload, passes[0]) == _csvs(workload, passes[1])
    assert workload.check(passes, 5) == []
    metrics = tracing.layer_metrics(spans)
    assert metrics["recovery.cosamp.calls"][0] == 4  # the traced pass only
    assert overhead == pytest.approx(passes[1].seconds / passes[0].seconds - 1.0)


def test_traced_diagnostics_count_repeated_oracle_calls():
    diag = _diagnostics()
    tracer = tracing.Tracer()
    with tracer.installed():
        diag.run_pass(5)
    metrics = tracing.layer_metrics(tracer.spans)
    # 4 vectors: two scored by 3 backends, two by 2 -> 10 oracle calls on 4 inputs
    assert metrics["projections.optimal_projection.calls"][0] == 10
    assert metrics["projections.optimal_projection.distinct_share"][0] == pytest.approx(0.4)
    for layer in ("projections.l1", "projections.basis_pursuit_denoise",
                  "analysis.drip_exact", "analysis.mismatch"):
        assert metrics[f"{layer}.calls"][0] > 0


@pytest.mark.parametrize("samples, pct", [(0, 0), (9, 100), (20, 50), (40, 75), (100, 90),
                                          (1000, 99)])
def test_timing_tail_needs_ten_samples_beyond_it(samples, pct):
    assert tracing._tail(list(np.linspace(1.0, 2.0, samples)))[0] == pct


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
