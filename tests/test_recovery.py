"""Recovery algorithms: the main loop, baselines, traces, stopping."""

import math

import numpy as np
import pytest

from sscosamp import (
    Dictionary,
    ExhaustiveBackend,
    InvalidInputError,
    L1Backend,
    NumericalFailureError,
    SSCoSaMPConfig,
    SensingMatrix,
    ThresholdBackend,
    build_overcomplete_dft,
    build_rescaled_identity,
    cosamp_baseline,
    draw_gaussian_sensing,
    draw_sparse_coefficients,
    drip_exact,
    l1_baseline,
    measure,
    omp_baseline,
    snr_db,
    sscosamp,
    synthesize,
    tikhonov_lsq,
    trace_to_csv,
)


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit_norm_dictionary(rng, n, d):
    M = _random_complex(rng, n, d)
    return Dictionary(M / np.linalg.norm(M, axis=0))


def _near_orthogonal_sensing(rng, n, wobble=0.002):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return SensingMatrix(Q + wobble * rng.standard_normal((n, n)) / math.sqrt(n))


def _identity_instance(k=3, n=8, seed=1):
    D = Dictionary(np.eye(n))
    A = SensingMatrix(np.eye(n))
    coeffs = draw_sparse_coefficients(n, k, "uniform", seed, complex_values=False)
    x = synthesize(D, coeffs)
    return A, D, x, measure(A, x, 0.0)


def test_identity_instance_recovered_in_one_iteration():
    A, D, x, meas = _identity_instance()
    trace = sscosamp(A, D, meas, SSCoSaMPConfig(k=3))
    assert trace.iterations_run == 1
    assert trace.stop_reason == "residual_tol"
    assert np.linalg.norm(trace.x_hat - x) < 1e-12


def test_trace_support_invariants():
    rng = np.random.default_rng(3)
    D = _unit_norm_dictionary(rng, 12, 24)
    A = draw_gaussian_sensing(8, 12, 3)
    coeffs = draw_sparse_coefficients(24, 2, "uniform", 3)
    meas = measure(A, synthesize(D, coeffs), 0.0)
    trace = sscosamp(A, D, meas, SSCoSaMPConfig(k=2, max_iters=10))
    assert trace.records
    for prev, rec in zip((None,) + trace.records, trace.records):
        assert len(rec.identify_support) == 4
        assert len(rec.pruned_support) == 2
        assert set(rec.identify_support) <= set(rec.merged_support)
        assert len(rec.merged_support) <= 6
        # the merge carries the previous pruned support forward
        if prev is not None:
            assert set(prev.pruned_support) <= set(rec.merged_support)


def test_trace_residuals_recomputable():
    rng = np.random.default_rng(5)
    D = build_overcomplete_dft(16, 4)
    A = draw_gaussian_sensing(12, 16, 5)
    coeffs = draw_sparse_coefficients(64, 2, "separated", 5, min_gap=4)
    meas = measure(A, synthesize(D, coeffs), 0.01, seed=6)
    trace = sscosamp(A, D, meas, SSCoSaMPConfig(k=2, max_iters=15))
    for rec in trace.records:
        recomputed = np.linalg.norm(meas.y - A.matrix @ rec.estimate)
        assert abs(rec.residual_norm - recomputed) <= 1e-10 * max(recomputed, 1.0)


def test_update_step_beats_unregularized_fit_when_bound_slack():
    rng = np.random.default_rng(7)
    D = _unit_norm_dictionary(rng, 10, 20)
    A = draw_gaussian_sensing(8, 10, 7)
    coeffs = draw_sparse_coefficients(20, 2, "uniform", 7)
    meas = measure(A, synthesize(D, coeffs), 0.05, seed=8)
    bound = 10.0 * coeffs.norm()
    trace = sscosamp(A, D, meas, SSCoSaMPConfig(k=2, max_iters=8, tikhonov_norm_bound=bound))
    for rec in trace.records:
        cols = D.columns(rec.merged_support)
        free, *_ = np.linalg.lstsq(A.matrix @ cols, meas.y, rcond=None)
        if np.linalg.norm(free) <= bound:
            best = np.linalg.norm(meas.y - A.matrix @ (cols @ free))
            achieved = np.linalg.norm(meas.y - A.matrix @ rec.x_tilde)
            assert achieved <= best + 1e-8


def test_geometric_decay_with_exhaustive_backends():
    # ideal conditions: noiseless, tiny isometry constant, exact projections
    found = 0
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        D = _unit_norm_dictionary(rng, 10, 12)
        A = _near_orthogonal_sensing(rng, 10)
        if drip_exact(A, D, 4).delta_lower > 0.029:
            continue
        found += 1
        coeffs = draw_sparse_coefficients(12, 1, "uniform", seed)
        x = synthesize(D, coeffs)
        meas = measure(A, x, 0.0)
        cfg = SSCoSaMPConfig(
            k=1, identify_backend=ExhaustiveBackend(), prune_backend=ExhaustiveBackend(),
            max_iters=20, tikhonov_norm_bound=10.0 * coeffs.norm(),
        )
        trace = sscosamp(A, D, meas, cfg)
        x_norm = np.linalg.norm(x)
        prev = x_norm  # error of x^0 = 0
        for err in trace.errors_to(x):
            if prev < 1e-12 * x_norm:
                break
            assert err <= 0.5 * prev + 1e-9
            prev = err
        assert snr_db(x, trace.x_hat) > 100.0
    assert found >= 5


def test_rescaled_identity_threshold_recovery_rate():
    D = build_rescaled_identity(256, 100.0)
    successes = 0
    for trial in range(20):
        A = draw_gaussian_sensing(64, 256, (900, trial))
        coeffs = draw_sparse_coefficients(256, 8, "uniform", (901, trial),
                                          complex_values=False)
        x = synthesize(D, coeffs)
        meas = measure(A, x, 0.0)
        cfg = SSCoSaMPConfig(k=8, tikhonov_norm_bound=10.0 * coeffs.norm())
        trace = sscosamp(A, D, meas, cfg)
        if snr_db(x, trace.x_hat) > 100.0:
            successes += 1
    assert successes >= 19


def _best_one_atom_fit(A, D, y):
    """Brute-force decoder: least-squares fit of every single atom."""
    best = (math.inf, None, None)
    for j in range(D.d):
        col = (A.matrix @ D.matrix[:, j]).reshape(-1, 1)
        c, *_ = np.linalg.lstsq(col, y, rcond=None)
        res = np.linalg.norm(y - col @ c)
        if res < best[0]:
            best = (res, j, c[0])
    return best


def test_tiny_dft_exhaustive_matches_bruteforce_decoder():
    D = build_overcomplete_dft(8, 2)
    for seed in range(5):
        A = draw_gaussian_sensing(6, 8, (50, seed))
        coeffs = draw_sparse_coefficients(16, 1, "uniform", (51, seed))
        x = synthesize(D, coeffs)
        meas = measure(A, x, 0.0)
        cfg = SSCoSaMPConfig(
            k=1, identify_backend=ExhaustiveBackend(), prune_backend=ExhaustiveBackend(),
            max_iters=20, tikhonov_norm_bound=10.0 * coeffs.norm(),
        )
        trace = sscosamp(A, D, meas, cfg)
        _, j, c = _best_one_atom_fit(A, D, meas.y)
        assert (j,) == coeffs.support
        assert np.linalg.norm(trace.x_hat - x) <= 1e-8 * np.linalg.norm(x)
        assert np.linalg.norm(c * D.matrix[:, j] - x) <= 1e-8 * np.linalg.norm(x)


def test_cosamp_identity_instance():
    A, D, x, meas = _identity_instance(k=2, seed=4)
    trace = cosamp_baseline(A, D, meas, k=2)
    assert np.linalg.norm(trace.x_hat - x) < 1e-10
    assert trace.algorithm == "cosamp"


def test_cosamp_chases_big_columns_on_rescaled_dictionary():
    D = build_rescaled_identity(256, 100.0)
    A = draw_gaussian_sensing(64, 256, 77)
    coeffs = draw_sparse_coefficients(256, 8, "uniform", 78, complex_values=False)
    assert any(j >= 128 for j in coeffs.support)  # spans both halves
    x = synthesize(D, coeffs)
    meas = measure(A, x, 0.0)
    trace = cosamp_baseline(A, D, meas, k=8, norm_bound=10.0 * coeffs.norm())
    assert all(j < 128 for j in trace.records[-1].pruned_support)
    assert snr_db(x, trace.x_hat) < 100.0


def test_cosamp_and_sscosamp_agree_on_orthonormal_dictionary():
    D = build_overcomplete_dft(8, 1)
    A = draw_gaussian_sensing(6, 8, 12)
    coeffs = draw_sparse_coefficients(8, 1, "uniform", 12)
    meas = measure(A, synthesize(D, coeffs), 0.0)
    t1 = cosamp_baseline(A, D, meas, k=1)
    t2 = sscosamp(A, D, meas, SSCoSaMPConfig(k=1))
    assert t1.records[-1].pruned_support == t2.records[-1].pruned_support


@pytest.mark.parametrize("case", ["rescaled-identity", "dft"])
def test_cosamp_synthesis_on_support_matches_dense_products(case):
    if case == "rescaled-identity":
        D = build_rescaled_identity(64, 100.0)
        A = draw_gaussian_sensing(24, 64, 31)
        coeffs = draw_sparse_coefficients(64, 4, "uniform", 32, complex_values=False)
        norm_bound = 10.0 * coeffs.norm()
    else:
        D = build_overcomplete_dft(32, 2)
        A = draw_gaussian_sensing(20, 32, 33)
        coeffs = draw_sparse_coefficients(64, 3, "uniform", 34)
        norm_bound = math.inf
    meas = measure(A, synthesize(D, coeffs), 0.0)
    trace = cosamp_baseline(A, D, meas, k=coeffs.sparsity, max_iters=6, norm_bound=norm_bound)
    Phi = A.matrix @ D.matrix
    y = meas.y

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1e-300)

    alpha = np.zeros(D.d, dtype=complex)
    for rec in trace.records:
        merged = list(rec.merged_support)
        dense = np.zeros(D.d, dtype=complex)
        dense[merged] = tikhonov_lsq(None, Phi[:, merged], y, norm_bound)
        alpha = np.zeros(D.d, dtype=complex)
        alpha[list(rec.pruned_support)] = dense[list(rec.pruned_support)]
        assert close(rec.x_tilde, D.matrix @ dense)
        assert close(rec.estimate, D.matrix @ alpha)
        assert abs(rec.residual_norm - np.linalg.norm(y - Phi @ alpha)) <= 1e-12 * np.linalg.norm(y)
    assert trace.records
    assert close(trace.x_hat, D.matrix @ alpha)


def test_omp_one_sparse_exact_in_one_step():
    D = build_overcomplete_dft(8, 1)
    A = draw_gaussian_sensing(6, 8, 13)
    coeffs = draw_sparse_coefficients(8, 1, "uniform", 13)
    x = synthesize(D, coeffs)
    meas = measure(A, x, 0.0)
    trace = omp_baseline(A, D, meas, k=1)
    assert trace.iterations_run == 1
    assert np.linalg.norm(trace.x_hat - x) < 1e-10


def test_omp_reduces_to_matched_filter_with_identity_sensing():
    rng = np.random.default_rng(14)
    D = build_overcomplete_dft(8, 1)
    A = SensingMatrix(np.eye(8))
    z = _random_complex(rng, 8)
    meas = measure(A, z, 0.0)
    trace = omp_baseline(A, D, meas, k=2)
    from sscosamp import ThresholdBackend, project_support

    expected = project_support(ThresholdBackend(), D, z, 2)
    assert trace.records[-1].pruned_support == expected


def test_omp_support_matches_bruteforce_on_one_sparse():
    D = build_overcomplete_dft(8, 2)
    for seed in range(5):
        A = draw_gaussian_sensing(6, 8, (60, seed))
        coeffs = draw_sparse_coefficients(16, 1, "uniform", (61, seed))
        meas = measure(A, synthesize(D, coeffs), 0.0)
        trace = omp_baseline(A, D, meas, k=1)
        _, j, _ = _best_one_atom_fit(A, D, meas.y)
        assert trace.records[0].pruned_support == (j,)


def test_l1_identity_system_recovers():
    A, D, x, meas = _identity_instance(k=2, seed=15)
    trace = l1_baseline(A, D, meas, k=2)
    assert np.linalg.norm(trace.x_hat - x) < 1e-6


def test_l1_recovers_single_dft_atom():
    D = build_overcomplete_dft(64, 2)
    for seed in range(3):
        A = draw_gaussian_sensing(32, 64, (70, seed))
        coeffs = draw_sparse_coefficients(128, 1, "uniform", (71, seed))
        x = synthesize(D, coeffs)
        meas = measure(A, x, 0.0)
        trace = l1_baseline(A, D, meas, k=1)
        assert snr_db(x, trace.x_hat) > 100.0


def test_l1_zero_sparsity_returns_zero_vector():
    rng = np.random.default_rng(16)
    D = build_overcomplete_dft(8, 2)
    A = draw_gaussian_sensing(6, 8, 16)
    meas = measure(A, np.zeros(8, dtype=complex), 1.0, seed=17)
    trace = l1_baseline(A, D, meas, k=0)
    assert np.allclose(trace.x_hat, 0.0)
    assert trace.records[0].pruned_support == ()


def test_traces_are_bit_reproducible():
    rng = np.random.default_rng(19)
    D = _unit_norm_dictionary(rng, 10, 20)
    A = draw_gaussian_sensing(8, 10, 19)
    coeffs = draw_sparse_coefficients(20, 2, "uniform", 19)
    meas = measure(A, synthesize(D, coeffs), 0.0)
    cfg = SSCoSaMPConfig(k=2, max_iters=12)
    t1 = sscosamp(A, D, meas, cfg)
    t2 = sscosamp(A, D, meas, cfg)
    assert t1.stop_reason == t2.stop_reason
    assert t1.iterations_run == t2.iterations_run
    assert np.array_equal(t1.x_hat, t2.x_hat)
    for r1, r2 in zip(t1.records, t2.records):
        assert r1.pruned_support == r2.pruned_support
        assert np.array_equal(r1.estimate, r2.estimate)
        assert r1.residual_norm == r2.residual_norm


def test_max_iters_stop_reason():
    rng = np.random.default_rng(20)
    D = _unit_norm_dictionary(rng, 10, 20)
    A = draw_gaussian_sensing(4, 10, 20)
    meas = measure(A, _random_complex(rng, 10), 0.0)
    trace = sscosamp(A, D, meas, SSCoSaMPConfig(k=2, max_iters=1))
    assert trace.stop_reason == "max_iters"
    assert trace.iterations_run == 1


def test_backend_failure_carries_iteration_index():
    rng = np.random.default_rng(22)
    D = _unit_norm_dictionary(rng, 8, 16)
    A = draw_gaussian_sensing(6, 8, 22)
    meas = measure(A, _random_complex(rng, 8), 0.0)
    cfg = SSCoSaMPConfig(k=2, identify_backend=L1Backend(max_iters=1))
    with pytest.raises(NumericalFailureError) as info:
        sscosamp(A, D, meas, cfg)
    assert info.value.iteration == 0


def test_dimension_validation():
    D = build_overcomplete_dft(8, 2)
    A = draw_gaussian_sensing(6, 8, 1)
    meas = measure(A, np.zeros(8), 0.0)
    with pytest.raises(InvalidInputError):
        sscosamp(A, build_overcomplete_dft(4, 2), meas, SSCoSaMPConfig(k=1))
    with pytest.raises(InvalidInputError):
        sscosamp(A, D, meas, SSCoSaMPConfig(k=9))  # 2k > d
    with pytest.raises(InvalidInputError):
        SSCoSaMPConfig(k=0)
    with pytest.raises(InvalidInputError):
        SSCoSaMPConfig(k=1, max_iters=0)
    with pytest.raises(InvalidInputError):
        SSCoSaMPConfig(k=1, tikhonov_norm_bound=0.0)


def test_trace_csv_serialization(tmp_path):
    A, D, x, meas = _identity_instance()
    trace = sscosamp(A, D, meas, SSCoSaMPConfig(k=3))
    out = tmp_path / "trace.csv"
    trace_to_csv(trace, out, x_true=x)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iter,residual_norm,error_to_truth,pruned_support"
    assert len(lines) == 1 + trace.iterations_run


# (identify, merged, pruned, repr(residual_norm)) per iteration, recorded
# before cosamp_baseline moved onto the shared kernel
_COSAMP_PINNED_HEAD = [
    ((5, 10, 24, 25, 26, 60), (5, 10, 24, 25, 26, 60), (24, 25, 26), "0.6098965227173717"),
    ((5, 10, 32, 35, 49, 60), (5, 10, 24, 25, 26, 32, 35, 49, 60), (24, 25, 32),
     "0.45370542843344575"),
]
_COSAMP_PINNED = {
    "bounded": ("stall", _COSAMP_PINNED_HEAD + [
        ((10, 25, 26, 35, 44, 50), (10, 24, 25, 26, 32, 35, 44, 50), (25, 32, 50),
         "0.12756900016630288"),
        ((10, 18, 24, 25, 26, 59), (10, 18, 24, 25, 26, 32, 50, 59), (25, 32, 50),
         "0.13742930173798085"),
        ((10, 18, 24, 25, 26, 59), (10, 18, 24, 25, 26, 32, 50, 59), (25, 32, 50),
         "0.13742930173798085"),
    ]),
    "unbounded": ("residual_tol", _COSAMP_PINNED_HEAD + [
        ((10, 25, 26, 35, 44, 50), (10, 24, 25, 26, 32, 35, 44, 50), (25, 32, 50),
         "1.2138106967135508e-15"),
    ]),
}


@pytest.mark.parametrize("case", sorted(_COSAMP_PINNED))
def test_cosamp_baseline_records_pinned(case):
    D = build_overcomplete_dft(32, 2)
    A = draw_gaussian_sensing(16, 32, 1)
    coeffs = draw_sparse_coefficients(64, 3, "separated", 1, min_gap=4)
    meas = measure(A, synthesize(D, coeffs), 0.0)
    # 0.9 ||alpha|| keeps the update fit's norm bound active
    bound = 0.9 * coeffs.norm() if case == "bounded" else math.inf
    trace = cosamp_baseline(A, D, meas, 3, norm_bound=bound)
    stop, records = _COSAMP_PINNED[case]
    assert trace.stop_reason == stop
    assert [(r.identify_support, r.merged_support, r.pruned_support, repr(r.residual_norm))
            for r in trace.records] == records
