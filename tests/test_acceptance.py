"""End-to-end acceptance gate.

Every test prints one ``[criterion N] PASS/FAIL`` line with the measured
numbers before asserting, so the gate's verdicts are visible in the pytest
report (the default addopts include -rP) whether or not a criterion holds.
The Monte-Carlo criteria (3-5) pin master_seed=2026, take a few minutes and
carry the ``slow`` marker (`pytest -m "not slow"` leaves them out).
"""

import math
import time

import numpy as np
import pytest

from sscosamp import (
    Dictionary,
    SSCoSaMPConfig,
    SweepConfig,
    ThresholdBackend,
    build_overcomplete_dft,
    build_projector,
    corollary1_envelope,
    draw_gaussian_sensing,
    draw_sparse_coefficients,
    drip_exact,
    evaluate_projection_quality,
    measure,
    optimal_projection,
    project_support,
    run_sweep,
    snr_db,
    sscosamp,
    synthesize,
    theorem1_constants,
    upper_rip_tail_check,
)
from sscosamp.cli import main as cli_main

from _fixtures import (certified_pairs, exhaustive_config, near_orthogonal_sensing,
                       projection_residual, random_complex, unit_norm_dictionary)


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_convergence_constants():
    tc = theorem1_constants(0.029, 0.1, 1.0)
    ok = 0.49 <= tc.C1 <= 0.50 and 12.6 <= tc.C2 <= 12.7
    assert _report(
        1, ok,
        f"C1={tc.C1:.6f} in [0.49, 0.50] and C2={tc.C2:.6f} in [12.6, 12.7]",
    )


def test_criterion_2_adjacent_dft_coherence():
    mu = build_overcomplete_dft(256, 2).adjacent_coherence()
    closed = 1.0 / (256.0 * math.sin(math.pi / 512.0))
    ok = mu > 0.63 and abs(mu - closed) <= 1e-3
    assert _report(
        2, ok,
        f"adjacent coherence {mu:.10f} > 0.63, off closed form by {abs(mu - closed):.2e} (tol 1e-3)",
    )


@pytest.mark.slow
def test_criterion_3_rescaled_identity_phase_transition():
    start = time.perf_counter()
    result = run_sweep(SweepConfig(
        scenario="rescaled-identity", n=256, k=8, m_grid=(32, 48, 64, 96, 128),
        trials=100, algorithms=("sscosamp-threshold", "cosamp"), master_seed=2026,
    ))
    elapsed = time.perf_counter() - start
    thr = {m: result.success_rate("sscosamp-threshold", m) for m in (48, 64, 96, 128)}
    cos_max = max(result.success_rate("cosamp", m) for m in result.config.m_grid)
    ok = (
        all(thr[m] >= 0.90 for m in (64, 96, 128))
        and thr[48] >= 0.50
        and cos_max <= 0.05
        and elapsed <= 600.0
    )
    assert _report(
        3, ok,
        f"threshold success {thr[48]:.2f}@48 (>=0.5), "
        f"{thr[64]:.2f}/{thr[96]:.2f}/{thr[128]:.2f}@64/96/128 (>=0.9); "
        f"cosamp max {cos_max:.2f} (<=0.05); {elapsed:.0f}s (<=600s)",
    )


@pytest.mark.slow
def test_criterion_4_separated_supports_ordering():
    start = time.perf_counter()
    result = run_sweep(SweepConfig(
        scenario="dft-separated", n=256, k=8, m_grid=(64, 96, 128), trials=50,
        algorithms=("sscosamp-omp", "sscosamp-cosamp", "omp"), master_seed=2026,
    ))
    elapsed = time.perf_counter() - start
    ss_omp = result.success_rate("sscosamp-omp", 128)
    ss_cos = result.success_rate("sscosamp-cosamp", 128)
    omp = result.success_rate("omp", 128)
    ok = ss_omp >= omp and ss_cos <= ss_omp - 0.2 and elapsed <= 1800.0
    assert _report(
        4, ok,
        f"separated@128: sscosamp-omp {ss_omp:.2f} >= omp {omp:.2f}; "
        f"sscosamp-cosamp {ss_cos:.2f} <= {ss_omp - 0.2:.2f}; {elapsed:.0f}s (<=1800s)",
    )


@pytest.mark.slow
def test_criterion_5_clustered_supports_ordering():
    start = time.perf_counter()
    result = run_sweep(SweepConfig(
        scenario="dft-clustered", n=256, k=8, m_grid=(64, 96, 128), trials=50,
        algorithms=("sscosamp-cosamp", "sscosamp-omp", "cosamp"), master_seed=2026,
    ))
    elapsed = time.perf_counter() - start
    ss_cos = result.success_rate("sscosamp-cosamp", 128)
    ss_omp = result.success_rate("sscosamp-omp", 128)
    cos = result.success_rate("cosamp", 128)
    ok = ss_cos >= cos and ss_omp <= ss_cos - 0.2 and elapsed <= 1800.0
    assert _report(
        5, ok,
        f"clustered@128: sscosamp-cosamp {ss_cos:.2f} >= cosamp {cos:.2f}; "
        f"sscosamp-omp {ss_omp:.2f} <= {ss_cos - 0.2:.2f}; {elapsed:.0f}s (<=1800s)",
    )


def test_criterion_6_oracle_equivalence_and_exhaustive_recovery():
    start = time.perf_counter()
    # part 1: threshold == exhaustive oracle on orthogonal-column dictionaries
    rng = np.random.default_rng(2026)
    instances = 0
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(6, 11))
        d = int(rng.integers(3, n + 1))
        k = int(rng.integers(1, 3))
        Q, _ = np.linalg.qr(random_complex(rng, n, n))
        D = Dictionary(Q[:, :d] * rng.uniform(0.5, 2.0, size=d))
        z = random_complex(rng, n)
        sup_thr = project_support(ThresholdBackend(), D, z, k)
        sup_opt, _ = optimal_projection(D, z, k)
        gap = abs(projection_residual(D, sup_thr, z) - projection_residual(D, sup_opt, z))
        worst_gap = max(worst_gap, gap)
        instances += 1
    part1 = instances >= 200 and worst_gap <= 1e-10

    # part 2: exhaustive-backend recovery is perfect whenever the measured
    # order-4k isometry constant is below 0.029
    qualified = 0
    min_snr = math.inf
    for seed in range(40):
        rng2 = np.random.default_rng(7000 + seed)
        D = unit_norm_dictionary(rng2, 10, 12)
        A = near_orthogonal_sensing(rng2, 10)
        if drip_exact(A, D, 4).delta_lower >= 0.029:
            continue
        qualified += 1
        coeffs = draw_sparse_coefficients(12, 1, "uniform", 7000 + seed)
        x = synthesize(D, coeffs)
        trace = sscosamp(A, D, measure(A, x, 0.0), exhaustive_config(coeffs, 25))
        min_snr = min(min_snr, snr_db(x, trace.x_hat))
    elapsed = time.perf_counter() - start
    part2 = qualified >= 15 and min_snr > 100.0
    ok = part1 and part2 and elapsed <= 300.0
    assert _report(
        6, ok,
        f"{instances} threshold-vs-oracle instances, worst residual gap {worst_gap:.1e} "
        f"(tol 1e-10); {qualified} qualifying small-isometry instances, min SNR "
        f"{min_snr:.0f} dB (>100); {elapsed:.0f}s (<=300s)",
    )


def test_criterion_7_property_suites():
    start = time.perf_counter()
    checks = {}

    # projector idempotence / contraction / Pythagoras at 1e-9
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(25):
        n = int(rng.integers(6, 14))
        r = int(rng.integers(1, n))
        P = build_projector(random_complex(rng, n, r))
        z = random_complex(rng, n)
        pz = P.apply(z)
        zn = float(np.linalg.norm(z))
        ok &= float(np.linalg.norm(P.apply(pz) - pz)) <= 1e-9 * max(1.0, zn)
        ok &= float(np.linalg.norm(pz)) <= zn + 1e-9
        pyth = zn ** 2 - (np.linalg.norm(pz) ** 2 + np.linalg.norm(z - pz) ** 2)
        ok &= abs(pyth) <= 1e-9 * max(1.0, zn ** 2)
    checks["projector"] = ok

    # nested projection: a projector onto a sub-span absorbs the larger one
    ok = True
    for _ in range(20):
        n = int(rng.integers(8, 14))
        D = unit_norm_dictionary(rng, n, n)
        big = sorted(int(i) for i in rng.choice(n, size=5, replace=False))
        small = sorted(rng.choice(big, size=2, replace=False))
        P_big = build_projector(D.columns(big))
        P_small = build_projector(D.columns(small))
        z = random_complex(rng, n)
        ok &= float(np.linalg.norm(P_small.apply(P_big.apply(z)) - P_small.apply(z))) \
            <= 1e-9 * max(1.0, float(np.linalg.norm(z)))
    checks["nested"] = ok

    # projected-Gram deviation bounded by the exhaustive isometry constant
    ok = True
    for seed in range(3):
        rng3 = np.random.default_rng(600 + seed)
        D = unit_norm_dictionary(rng3, 9, 12)
        A = draw_gaussian_sensing(7, 9, 600 + seed)
        delta = drip_exact(A, D, 3).delta_lower
        gram = A.matrix.T @ A.matrix
        for _ in range(8):
            sup = tuple(sorted(int(i) for i in rng3.choice(12, size=3, replace=False)))
            Q = build_projector(D.columns(sup)).basis
            P = Q @ Q.conj().T
            ok &= np.linalg.norm(P @ gram @ P - P, 2) <= delta + 1e-6
    checks["gram-bound"] = ok

    # quality ratios recompute from their definitions
    ok = True
    D = build_overcomplete_dft(8, 2)
    for seed in range(10):
        rng4 = np.random.default_rng(40 + seed)
        z = random_complex(rng4, 8)
        q = evaluate_projection_quality(D, z, 2, ThresholdBackend())
        sup_opt, opt_proj = optimal_projection(D, z, 2)
        sup_est = project_support(ThresholdBackend(), D, z, 2)
        est_proj = build_projector(D.columns(sup_est)).apply(z)
        gap = float(np.linalg.norm(opt_proj - est_proj))
        ok &= abs(q.eps1 - gap / np.linalg.norm(opt_proj)) <= 1e-12 * max(1.0, q.eps1)
        ok &= abs(q.eps2 - gap / np.linalg.norm(z - opt_proj)) <= 1e-12 * max(1.0, q.eps2)
        ok &= abs(q.opt_residual - np.linalg.norm(z - opt_proj)) <= 1e-12
    checks["quality-def"] = ok

    # trace residuals recompute to 1e-10 relative
    ok = True
    for seed in range(5):
        D = build_overcomplete_dft(16, 4)
        A = draw_gaussian_sensing(12, 16, 50 + seed)
        coeffs = draw_sparse_coefficients(64, 2, "separated", 50 + seed, min_gap=4)
        meas = measure(A, synthesize(D, coeffs), 0.01, seed=seed)
        trace = sscosamp(A, D, meas, SSCoSaMPConfig(k=2, max_iters=12))
        for rec in trace.records:
            again = float(np.linalg.norm(meas.y - A.matrix @ rec.estimate))
            ok &= abs(rec.residual_norm - again) <= 1e-10 * max(again, 1.0)
    checks["trace-residual"] = ok

    # decay envelope binds on qualifying instances
    ok = True
    qualifying = 0
    for seed, D, A in certified_pairs(300, 8):
        qualifying += 1
        coeffs = draw_sparse_coefficients(12, 1, "uniform", seed)
        x = synthesize(D, coeffs)
        noise = 0.02 * float(np.linalg.norm(x))
        trace = sscosamp(A, D, measure(A, x, noise, seed=seed), exhaustive_config(coeffs, 15))
        ok &= corollary1_envelope(trace, x, noise).passed
    checks["envelope"] = ok and qualifying >= 3

    # tail inequality over 1000 random vectors with the exact constant
    A = draw_gaussian_sensing(6, 8, 11)
    delta = drip_exact(A, Dictionary(np.eye(8)), 2).delta_lower
    rng6 = np.random.default_rng(12)
    ok = True
    for _ in range(1000):
        ok &= upper_rip_tail_check(A, 2, rng6.standard_normal(8), delta).holds
    checks["tail-bound"] = ok

    elapsed = time.perf_counter() - start
    failed = sorted(name for name, good in checks.items() if not good)
    ok = not failed and elapsed <= 300.0
    assert _report(
        7, ok,
        f"{len(checks)} property families "
        f"({', '.join(sorted(checks))}) all hold; {elapsed:.0f}s (<=300s)"
        if not failed else f"failing families: {', '.join(failed)}; {elapsed:.0f}s",
    )


def test_criterion_8_cli_byte_determinism(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "scenario = rescaled-identity\nn = 64\nk = 4\nm_grid = 32, 48\n"
        "trials = 3\nalgorithms = sscosamp-threshold, cosamp\nmaster_seed = 5\n"
    )
    pairs = []
    for tag in ("a", "b"):
        sweep_out = tmp_path / f"sweep-{tag}.csv"
        agg_out = tmp_path / f"agg-{tag}.csv"
        quality_out = tmp_path / f"quality-{tag}.csv"
        drip_out = tmp_path / f"drip-{tag}.json"
        assert cli_main(["sweep", "--config", str(config), "--out", str(sweep_out),
                         "--aggregate-out", str(agg_out)]) == 0
        assert cli_main(["project-eval", "--dict", "dft", "--n", "8",
                         "--redundancy", "2", "--k", "2", "--patterns", "uniform",
                         "--backends", "threshold,omp", "--trials", "3",
                         "--seed", "4", "--out", str(quality_out)]) == 0
        assert cli_main(["drip", "--dict", "dft", "--n", "8", "--redundancy", "2",
                         "--m", "6", "--k", "2", "--trials", "100", "--seed", "9",
                         "--format", "json", "--out", str(drip_out)]) == 0
        assert cli_main(["recover", "--scenario", "dft-separated", "--algorithm",
                         "sscosamp-omp", "--n", "32", "--k", "2", "--m", "24",
                         "--seed", "5"]) == 0
        stdout = capsys.readouterr().out
        pairs.append((sweep_out.read_bytes(), agg_out.read_bytes(),
                      quality_out.read_bytes(), drip_out.read_bytes(), stdout))
    ok = pairs[0] == pairs[1]
    assert _report(
        8, ok,
        "sweep/aggregate/project-eval/drip/recover outputs byte-identical across reruns",
    )
