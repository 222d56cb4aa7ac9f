"""Benchmark harness: sweep configs, reproducibility, aggregation, CSV output."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

import sscosamp.bench as bench
from sscosamp import (
    Dictionary,
    InvalidInputError,
    NumericalFailureError,
    ProjectionStudyRow,
    SweepConfig,
    SweepResult,
    TrialResult,
    build_overcomplete_dft,
    draw_sparse_coefficients,
    run_projection_study,
    run_sweep,
    write_aggregate_csv,
    write_quality_csv,
    write_sweep_csv,
)

TINY = dict(scenario="rescaled-identity", n=32, k=2, m_grid=(16,), trials=3,
            algorithms=("sscosamp-threshold", "cosamp"), master_seed=7)


def _row_key(row):
    # everything except the measured wall time
    return (row.scenario, row.algorithm, row.m, row.trial, row.seed,
            row.snr_db, row.success, row.iterations, row.stop_reason)


def test_sweep_config_validation():
    bad_configs = [
        dict(scenario="nope"),
        dict(scenario="dft-separated", trials=0),
        dict(scenario="dft-separated", m_grid=()),
        dict(scenario="dft-separated", m_grid=(64, 48)),
        dict(scenario="dft-separated", n=64, m_grid=(128,)),
        dict(scenario="dft-separated", algorithms=()),
        dict(scenario="dft-separated", algorithms=("sscosamp-magic",)),
        dict(scenario="dft-separated", noise_norm=-1.0),
        dict(scenario="dft-separated", tikhonov_bound_factor=0.0),
    ]
    for kwargs in bad_configs:
        with pytest.raises(InvalidInputError):
            SweepConfig(**kwargs)


def test_run_sweep_bit_reproducible(tmp_path):
    cfg = SweepConfig(**TINY)
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    assert [_row_key(r) for r in first.rows] == [_row_key(r) for r in second.rows]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(first, p1)
    write_sweep_csv(second, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_row_layout_and_seeds():
    cfg = SweepConfig(**TINY)
    result = run_sweep(cfg)
    assert len(result.rows) == len(cfg.m_grid) * cfg.trials * len(cfg.algorithms)
    # every (m, trial) pair gets its own seed, shared across algorithms
    seeds = {}
    for row in result.rows:
        seeds.setdefault((row.m, row.trial), set()).add(row.seed)
    assert all(len(s) == 1 for s in seeds.values())
    assert len({next(iter(s)) for s in seeds.values()}) == len(seeds)


def test_sweep_csv_format(tmp_path):
    result = run_sweep(SweepConfig(**TINY))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scenario,algorithm,m,trial,seed,snr_db,success,iterations,wall_ms,stop_reason"
    assert len(lines) == 1 + len(result.rows)
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "rescaled-identity"
        assert fields[8] == "0.000"
        assert fields[6] in {"0", "1"}
    # opting into timing keeps the same shape but records measured values
    timed = tmp_path / "timed.csv"
    write_sweep_csv(result, timed, include_timing=True)
    for line in timed.read_text().splitlines()[1:]:
        assert float(line.split(",")[8]) >= 0.0


def test_aggregate_recomputable_from_rows():
    result = run_sweep(SweepConfig(**TINY))
    aggs = result.aggregate()
    assert [(a.m, a.algorithm) for a in aggs] == sorted((a.m, a.algorithm) for a in aggs)
    for agg in aggs:
        rows = [r for r in result.rows if r.algorithm == agg.algorithm and r.m == agg.m]
        assert agg.trials == len(rows)
        assert agg.success_rate == sum(r.success for r in rows) / len(rows)
        assert abs(agg.mean_iterations - sum(r.iterations for r in rows) / len(rows)) < 1e-12
        assert agg.success_rate == result.success_rate(agg.algorithm, agg.m)
    with pytest.raises(InvalidInputError):
        result.success_rate("omp", 16)


def test_aggregate_snr_clipping_and_nan_handling():
    cfg = SweepConfig(**TINY)
    base = dict(scenario="rescaled-identity", m=16, seed=1, success=True,
                iterations=1, wall_ms=0.0, stop_reason="residual_tol")
    rows = (
        TrialResult(algorithm="a", trial=0, snr_db=math.inf, **base),
        TrialResult(algorithm="a", trial=1, snr_db=100.0, **base),
        TrialResult(algorithm="b", trial=0, snr_db=math.nan, **base),
    )
    aggs = SweepResult(config=cfg, rows=rows).aggregate()
    by_alg = {a.algorithm: a for a in aggs}
    # infinite SNR counts as 300 dB so the mean stays finite
    assert abs(by_alg["a"].mean_snr_db - 200.0) < 1e-12
    assert math.isnan(by_alg["b"].mean_snr_db)
    assert by_alg["b"].trials == 1


def test_numerical_failure_recorded_not_raised(monkeypatch):
    real = bench.run_algorithm

    def flaky(name, *args, **kwargs):
        if name == "cosamp":
            raise NumericalFailureError("synthetic breakdown", iteration=2)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(bench, "run_algorithm", flaky)
    result = run_sweep(SweepConfig(**TINY))
    failed = [r for r in result.rows if r.algorithm == "cosamp"]
    assert failed and all(r.stop_reason == "numerical_failure" for r in failed)
    assert all(math.isnan(r.snr_db) and not r.success and r.iterations == 0
               for r in failed)
    ok = [r for r in result.rows if r.algorithm == "sscosamp-threshold"]
    assert ok and all(r.stop_reason != "numerical_failure" for r in ok)


@pytest.mark.parametrize("owner, attr", [
    (np.linalg, "lstsq"),
    (np.linalg, "svd"),
    (scipy.linalg, "qr"),
])
def test_lapack_failure_is_one_failed_row(monkeypatch, owner, attr):
    real = getattr(owner, attr)
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("synthetic LAPACK breakdown")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, fails_once)
    if attr == "svd":
        # the update fit answers well-conditioned systems by QR and reaches
        # the SVD when that attempt reports a LAPACK error
        monkeypatch.setattr(scipy.linalg.lapack, "zgeqrf", lambda a: (a, None, None, -1))
    cfg = SweepConfig(**{**TINY, "algorithms": ("omp", "sscosamp-threshold")})
    result = run_sweep(cfg)
    assert len(result.rows) == 6
    failed = [r for r in result.rows if r.stop_reason == "numerical_failure"]
    assert len(failed) == 1 and len(calls) > 1


def test_hybrid_scenario_runs():
    cfg = SweepConfig(scenario="dft-hybrid", n=32, k=4, m_grid=(24,), trials=2,
                      algorithms=("sscosamp-threshold",), master_seed=1)
    result = run_sweep(cfg)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.stop_reason in {"residual_tol", "stall", "max_iters"}


def test_hybrid_support_mixes_block_and_separated():
    for seed in range(10):
        support = list(draw_sparse_coefficients(128, 5, "hybrid", seed, min_gap=8).support)
        assert len(support) == 5
        assert support == sorted(set(support))
        assert all(0 <= i < 128 for i in support)
        # the block contributes ceil(k/2) = 3 consecutive indices
        runs = max(
            sum(1 for _ in g)
            for _, g in itertools.groupby(enumerate(support),
                                          lambda pair: pair[1] - pair[0])
        )
        assert runs >= 3


def test_projection_study_exhaustive_is_optimal():
    D = build_overcomplete_dft(8, 2)
    rows = run_projection_study(D, 2, ("uniform",), ("exhaustive", "threshold"),
                                trials=3, seed=5)
    assert len(rows) == 6
    for row in rows:
        assert row.opt_residual > 0.0
        if row.backend == "exhaustive":
            assert row.eps1 <= 1e-10
            assert row.eps2 <= 1e-9
        else:
            assert row.eps1 >= 0.0 and row.eps2 >= 0.0
    again = run_projection_study(D, 2, ("uniform",), ("exhaustive", "threshold"),
                                 trials=3, seed=5)
    assert rows == again


def test_projection_study_exact_sparse_flags_infinite_eps2(tmp_path):
    # without perturbation the optimum is exact, eps2 has a zero denominator
    D = Dictionary(np.eye(8))
    rows = run_projection_study(D, 2, ("uniform",), ("threshold",),
                                trials=2, seed=9, perturbation_rel=0.0)
    assert all(math.isinf(row.eps2) for row in rows)
    path = tmp_path / "quality.csv"
    write_quality_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "backend,pattern,trial,eps1,eps2,opt_residual"
    assert all(line.split(",")[4] == "inf" for line in lines[1:])


def test_quality_csv_finite_formatting(tmp_path):
    rows = [ProjectionStudyRow(backend="threshold", pattern="uniform", trial=0,
                               eps1=0.125, eps2=1.5, opt_residual=0.25)]
    path = tmp_path / "quality.csv"
    write_quality_csv(rows, path)
    assert path.read_text().splitlines()[1] == \
        "threshold,uniform,0,0.125000000,1.500000000,0.250000000"


def test_aggregate_csv_deterministic(tmp_path):
    result = run_sweep(SweepConfig(**TINY))
    p1, p2 = tmp_path / "agg1.csv", tmp_path / "agg2.csv"
    write_aggregate_csv(result, p1)
    write_aggregate_csv(run_sweep(SweepConfig(**TINY)), p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == ("scenario,algorithm,m,trials,success_rate,"
                        "mean_snr_db,mean_iterations,mean_wall_ms")
    assert all(line.split(",")[7] == "0.000" for line in lines[1:])
