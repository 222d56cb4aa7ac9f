"""Recovery algorithms: the main loop, baselines, traces, stopping."""

import math

import numpy as np
import pytest

from sscosamp import (
    Dictionary,
    InvalidInputError,
    L1Backend,
    Measurements,
    NumericalFailureError,
    SSCoSaMPConfig,
    SensingMatrix,
    ThresholdBackend,
    build_overcomplete_dft,
    build_rescaled_identity,
    cosamp_baseline,
    draw_gaussian_sensing,
    draw_sparse_coefficients,
    l1_baseline,
    measure,
    omp_baseline,
    snr_db,
    sscosamp,
    synthesize,
    tikhonov_lsq,
    trace_to_csv,
)
from sscosamp import projections, recovery
from sscosamp.bench import KNOWN_ALGORITHMS, SCENARIOS, run_algorithm
from sscosamp.linalg import lstsq

from _fixtures import (certified_pairs, exhaustive_config, random_complex, same_bits,
                       unit_norm_dictionary)


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
    D = unit_norm_dictionary(rng, 12, 24)
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
    D = unit_norm_dictionary(rng, 10, 20)
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
    for seed, D, A in certified_pairs(100, 12):
        found += 1
        coeffs = draw_sparse_coefficients(12, 1, "uniform", seed)
        x = synthesize(D, coeffs)
        meas = measure(A, x, 0.0)
        trace = sscosamp(A, D, meas, exhaustive_config(coeffs, 20))
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
        trace = sscosamp(A, D, meas, exhaustive_config(coeffs, 20))
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
        dense[merged] = tikhonov_lsq(Phi[:, merged], y, norm_bound=norm_bound)
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
    z = random_complex(rng, 8)
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
    D = unit_norm_dictionary(rng, 10, 20)
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
    D = unit_norm_dictionary(rng, 10, 20)
    A = draw_gaussian_sensing(4, 10, 20)
    meas = measure(A, random_complex(rng, 10), 0.0)
    trace = sscosamp(A, D, meas, SSCoSaMPConfig(k=2, max_iters=1))
    assert trace.stop_reason == "max_iters"
    assert trace.iterations_run == 1


def test_backend_failure_carries_iteration_index(monkeypatch):
    rng = np.random.default_rng(22)
    D = unit_norm_dictionary(rng, 8, 16)
    A = draw_gaussian_sensing(6, 8, 22)
    meas = measure(A, random_complex(rng, 8), 0.0)
    monkeypatch.setattr(projections, "ADMM_MAX_ITERS", 1)
    cfg = SSCoSaMPConfig(k=2, identify_backend=L1Backend())
    with pytest.raises(NumericalFailureError) as info:
        sscosamp(A, D, meas, cfg)
    assert info.value.iteration == 0


@pytest.mark.parametrize("run, message", [
    (lambda A, D, meas: sscosamp(A, D, meas, SSCoSaMPConfig(k=3)), "update estimate"),
    (lambda A, D, meas: cosamp_baseline(A, D, meas, 3), "coefficient iterate"),
], ids=["sscosamp", "cosamp_baseline"])
def test_non_finite_update_fit_raises_at_iteration_0(monkeypatch, run, message):
    def nan_fit(cols, y, norm_bound):
        return np.full(cols.shape[1], np.nan, dtype=np.complex128)

    monkeypatch.setattr(recovery, "tikhonov_lsq", nan_fit)
    A, D, _, meas = _identity_instance()
    with pytest.raises(NumericalFailureError, match=f"^{message} became non-finite$") as info:
        run(A, D, meas)
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
    for max_iters in (0, -1):  # cosamp_baseline used to return the zero estimate
        with pytest.raises(InvalidInputError, match="max_iters must be >= 1"):
            cosamp_baseline(A, D, meas, 1, max_iters=max_iters)
    with pytest.raises(InvalidInputError):
        SSCoSaMPConfig(k=1, tikhonov_norm_bound=0.0)
    with pytest.raises(InvalidInputError, match="^measurement length does not match"):
        sscosamp(A, D, Measurements(np.zeros(5)), SSCoSaMPConfig(k=1))
    for baseline, k, message in ((cosamp_baseline, 0, "k must be >= 1"),
                                 (omp_baseline, 0, "k must be >= 1"),
                                 (omp_baseline, 17, "k=17 exceeds d=16"),
                                 (l1_baseline, -1, "k must be >= 0")):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            baseline(A, D, meas, k)


@pytest.mark.parametrize("baseline", [cosamp_baseline, omp_baseline, l1_baseline])
@pytest.mark.parametrize("D", [build_overcomplete_dft(4, 2), build_rescaled_identity(4, 100.0)],
                         ids=["dft", "rescaled-identity"])
def test_baselines_reject_a_dictionary_on_another_n(baseline, D):
    A = draw_gaussian_sensing(6, 8, 1)
    meas = measure(A, np.zeros(8), 0.0)
    with pytest.raises(InvalidInputError, match="^sensing matrix and dictionary disagree on n$"):
        baseline(A, D, meas, 1)


def test_trace_csv_serialization(tmp_path):
    A, D, x, meas = _identity_instance()
    trace = sscosamp(A, D, meas, SSCoSaMPConfig(k=3))
    out = tmp_path / "trace.csv"
    trace_to_csv(trace, out, x_true=x)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iter,residual_norm,error_to_truth,pruned_support"
    assert len(lines) == 1 + trace.iterations_run


# (identify, merged, pruned, repr(proxy_norm), repr(residual_norm)) per
# iteration, recorded before cosamp_baseline moved onto the shared kernel
# (the proxy norms before the loops shared ``recovery._record``)
_COSAMP_PINNED_HEAD = [
    ((5, 10, 24, 25, 26, 60), (5, 10, 24, 25, 26, 60), (24, 25, 26), "2.658411258341981",
     "0.6098965227173717"),
    ((5, 10, 32, 35, 49, 60), (5, 10, 24, 25, 26, 32, 35, 49, 60), (24, 25, 32),
     "1.3761615591013459", "0.45370542843344575"),
]
_COSAMP_PINNED = {
    "bounded": ("stall", _COSAMP_PINNED_HEAD + [
        ((10, 25, 26, 35, 44, 50), (10, 24, 25, 26, 32, 35, 44, 50), (25, 32, 50),
         "0.9672503353214715", "0.12756900016630288"),
        ((10, 18, 24, 25, 26, 59), (10, 18, 24, 25, 26, 32, 50, 59), (25, 32, 50),
         "0.29441630368926536", "0.13742930173798085"),
        ((10, 18, 24, 25, 26, 59), (10, 18, 24, 25, 26, 32, 50, 59), (25, 32, 50),
         "0.31951423903623666", "0.13742930173798085"),
    ]),
    "unbounded": ("residual_tol", _COSAMP_PINNED_HEAD + [
        ((10, 25, 26, 35, 44, 50), (10, 24, 25, 26, 32, 35, 44, 50), (25, 32, 50),
         "0.9672503353214715", "1.2138106967135508e-15"),
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
    assert [(r.identify_support, r.merged_support, r.pruned_support, repr(r.proxy_norm),
             repr(r.residual_norm)) for r in trace.records] == records


# (identify, pruned, repr(proxy_norm), repr(residual_norm)) per iteration,
# recorded before omp_baseline moved onto the shared kernel (the proxy norms
# before the loops shared ``recovery._record``)
_OMP_PINNED = {
    "dft": ("residual_tol", [
        ((25,), (25,), "2.658411258341981", "0.6472814431213708"),
        ((32,), (25, 32), "1.486080398620243", "0.33705204448938636"),
        ((50,), (25, 32, 50), "0.7331643159479508", "8.07457411561651e-16"),
    ]),
    "rescaled-identity": ("residual_tol", [
        ((3,), (3,), "68059.91445103702", "149.56846140555362"),
        ((8,), (3, 8), "22044.16687960956", "0.7688977175874401"),
        ((25,), (3, 8, 25), "55.411035677794864", "1.0294922766524574e-13"),
    ]),
    "dft-clustered-k4": ("max_iters", [
        ((30,), (30,), "2.902712163342434", "0.698683047067244"),
        ((32,), (30, 32), "1.7357099589763874", "0.4070634737846433"),
        ((28,), (28, 30, 32), "0.9044276035077451", "0.17563689914580802"),
        ((33,), (28, 30, 32, 33), "0.35944645354252036", "0.0800816326700715"),
    ]),
}


@pytest.mark.parametrize("case", sorted(_OMP_PINNED))
def test_omp_baseline_records_pinned(case):
    if case == "rescaled-identity":
        D = build_rescaled_identity(32, 100.0)
        A = draw_gaussian_sensing(16, 32, 2)
        coeffs = draw_sparse_coefficients(32, 3, "uniform", 2)
        k = 3
    else:
        D = build_overcomplete_dft(32, 2)
        A = draw_gaussian_sensing(16, 32, 1)
        if case == "dft":
            coeffs = draw_sparse_coefficients(64, 3, "separated", 1, min_gap=4)
            k = 3
        else:
            coeffs = draw_sparse_coefficients(64, 3, "clustered", 1)
            k = 4
    meas = measure(A, synthesize(D, coeffs), 0.0)
    trace = omp_baseline(A, D, meas, k)
    stop, records = _OMP_PINNED[case]
    assert trace.stop_reason == stop
    assert [(r.identify_support, r.pruned_support, repr(r.proxy_norm), repr(r.residual_norm))
            for r in trace.records] == records
    assert np.array_equal(trace.x_hat, trace.records[-1].estimate)


# (identify, merged, pruned, repr(proxy_norm), repr(residual_norm)) per
# iteration of the signal-space loop on the instance of the baselines'
# pinned records, recorded before the loops shared ``recovery._record``
_SSCOSAMP_PINNED = {
    "threshold": ("stall", [
        ((5, 10, 24, 25, 26, 60), (5, 10, 24, 25, 26, 60), (24, 25, 26), "1.8797806279562783",
         "0.616491938810104"),
        ((5, 10, 32, 35, 49, 60), (5, 10, 24, 25, 26, 32, 35, 49, 60), (24, 25, 26),
         "0.9937505805561344", "0.6280584442746892"),
        ((4, 5, 31, 32, 35, 60), (4, 5, 24, 25, 26, 31, 32, 35, 60), (24, 25, 26),
         "1.0260411281541086", "0.6376701276212987"),
        ((4, 5, 31, 32, 33, 60), (4, 5, 24, 25, 26, 31, 32, 33, 60), (25, 26, 32),
         "1.0392419737540535", "0.3505351858611328"),
        ((13, 14, 17, 49, 50, 51), (13, 14, 17, 25, 26, 32, 49, 50, 51), (24, 25, 32),
         "0.5564651190382197", "0.3688457408690273"),
        ((14, 28, 49, 50, 51, 59), (14, 24, 25, 28, 32, 49, 50, 51, 59), (24, 25, 32),
         "0.6413449342385859", "0.3688457408690273"),
    ]),
    "omp": ("residual_tol", [
        ((4, 10, 18, 25, 32, 60), (4, 10, 18, 25, 32, 60), (25, 32, 60), "1.8797806279562783",
         "0.3278525065672258"),
        ((14, 19, 29, 35, 45, 50), (14, 19, 25, 29, 32, 35, 45, 50, 60), (25, 32, 50),
         "0.48385308146572115", "5.066818149359798e-16"),
    ]),
}


@pytest.mark.parametrize("backend", sorted(_SSCOSAMP_PINNED))
def test_sscosamp_records_pinned(backend):
    D = build_overcomplete_dft(32, 2)
    A = draw_gaussian_sensing(16, 32, 1)
    coeffs = draw_sparse_coefficients(64, 3, "separated", 1, min_gap=4)
    meas = measure(A, synthesize(D, coeffs), 0.0)
    chosen = projections.make_backend(backend)
    trace = sscosamp(A, D, meas, SSCoSaMPConfig(k=3, identify_backend=chosen,
                                                prune_backend=chosen))
    stop, records = _SSCOSAMP_PINNED[backend]
    assert trace.stop_reason == stop
    assert [(r.identify_support, r.merged_support, r.pruned_support, repr(r.proxy_norm),
             repr(r.residual_norm)) for r in trace.records] == records


# (k, noise_norm) -> (stop, support, repr(proxy_norm), repr(residual_norm)) of
# l1_baseline's one record on the instance of the pinned records above,
# recorded before the loops shared ``recovery._record``
_L1_PINNED = {
    (3, 0.0): ("residual_tol", (25, 32, 50), "2.658411258341981", "8.07457411561651e-16"),
    (3, 0.05): ("max_iters", (25, 32, 50), "2.677765751815538", "0.041560379646698474"),
    (2, 0.05): ("max_iters", (25, 32), "2.677765751815538", "0.32483112690694116"),
}


@pytest.mark.parametrize("k, noise", sorted(_L1_PINNED))
def test_l1_baseline_record_pinned(k, noise):
    D = build_overcomplete_dft(32, 2)
    A = draw_gaussian_sensing(16, 32, 1)
    coeffs = draw_sparse_coefficients(64, 3, "separated", 1, min_gap=4)
    meas = measure(A, synthesize(D, coeffs), noise, seed=4)
    trace = l1_baseline(A, D, meas, k)
    (record,) = trace.records
    assert (trace.stop_reason, record.identify_support, repr(record.proxy_norm),
            repr(record.residual_norm)) == _L1_PINNED[k, noise]
    assert record.merged_support == record.pruned_support == record.identify_support
    assert record.x_tilde is record.estimate is trace.x_hat
    # the debiasing refit: plain least squares on the kept columns of A D
    cols = list(record.pruned_support)
    beta = lstsq(D.sense(A, None)[:, cols], meas.y)
    assert same_bits(trace.x_hat, D.columns(record.pruned_support) @ beta)


@pytest.mark.parametrize("algorithm", KNOWN_ALGORITHMS)
def test_trace_final_estimate_and_count_come_from_records(algorithm):
    D = build_overcomplete_dft(8, 2)
    A = draw_gaussian_sensing(6, 8, 7)
    coeffs = draw_sparse_coefficients(16, 2, "uniform", 7)
    meas = measure(A, synthesize(D, coeffs), 0.01, seed=8)
    trace = run_algorithm(algorithm, A, D, meas, 2, 10.0 * coeffs.norm(), 20)
    assert trace.x_hat is trace.records[-1].estimate
    assert trace.iterations_run == len(trace.records)


@pytest.mark.parametrize("algorithm", KNOWN_ALGORITHMS)
@pytest.mark.parametrize("scenario", ["dft-separated", "rescaled-identity"])
def test_zero_measurements_stop_at_once_with_zero_estimate(scenario, algorithm):
    D = SCENARIOS[scenario].build_dictionary(16)
    A = draw_gaussian_sensing(8, 16, 1)
    trace = run_algorithm(algorithm, A, D, Measurements(np.zeros(8)), 2, math.inf, 50)
    assert trace.stop_reason == "residual_tol"
    assert trace.iterations_run == 1
    assert trace.x_hat.shape == (16,) and not np.any(trace.x_hat)


@pytest.mark.parametrize("backend", ["threshold", "omp", "cosamp", "l1", "exhaustive"])
def test_identify_size_equal_to_d_stops_after_one_iteration(backend):
    # 2k = d: identify proposes every column, and the merged fit of 16
    # columns to m = 6 measurements leaves no residual
    D = build_overcomplete_dft(8, 2)
    A = draw_gaussian_sensing(6, 8, 2)
    coeffs = draw_sparse_coefficients(16, 3, "uniform", 3)
    meas = measure(A, synthesize(D, coeffs), 0.0)
    trace = run_algorithm(f"sscosamp-{backend}", A, D, meas, 8, 10.0 * coeffs.norm(), 20)
    assert trace.stop_reason == "residual_tol"
    assert trace.iterations_run == 1
