"""Metrics and theory diagnostics: SNR, constants, envelope, isometry, mismatch."""

import itertools
import math

import numpy as np
import pytest

from sscosamp import projections
from sscosamp import (
    Dictionary,
    InstanceTooLargeError,
    InvalidInputError,
    NumericalFailureError,
    SSCoSaMPConfig,
    SensingMatrix,
    build_overcomplete_dft,
    build_projector,
    build_rescaled_identity,
    corollary1_envelope,
    draw_gaussian_sensing,
    draw_sparse_coefficients,
    drip_estimate,
    drip_exact,
    measure,
    mismatch,
    snr_db,
    sscosamp,
    synthesize,
    theorem1_constants,
    upper_rip_tail_check,
)

from _fixtures import (certified_pairs, exhaustive_config, near_orthogonal_sensing,
                       random_complex, reference_mismatch, reference_oracle,
                       unit_norm_dictionary)


# ---------------------------------------------------------------------------
# snr_db


def test_snr_exact_recovery_is_infinite():
    x = np.arange(1.0, 9.0)
    assert snr_db(x, x.copy()) == math.inf


def test_snr_matches_relative_error():
    rng = np.random.default_rng(0)
    x = random_complex(rng, 32)
    direction = random_complex(rng, 32)
    direction /= np.linalg.norm(direction)
    for rel, expected in [(1e-5, 100.0), (1e-2, 40.0), (0.5, 20.0 * math.log10(2.0))]:
        est = x + rel * np.linalg.norm(x) * direction
        assert abs(snr_db(x, est) - expected) < 1e-9


def test_snr_zero_estimate_is_zero_db():
    x = np.array([3.0, -4.0])
    assert abs(snr_db(x, np.zeros(2))) < 1e-12


def test_snr_scale_invariance():
    rng = np.random.default_rng(1)
    x = random_complex(rng, 16)
    est = x + 0.01 * random_complex(rng, 16)
    for c in [2.0, 1e-6, 3.0 - 2.0j]:
        assert abs(snr_db(c * x, c * est) - snr_db(x, est)) < 1e-9


def test_snr_validation():
    with pytest.raises(InvalidInputError):
        snr_db(np.zeros(4), np.ones(4))
    with pytest.raises(InvalidInputError):
        snr_db(np.ones(4), np.ones(5))


def test_snr_of_an_overflowing_error_is_minus_infinity():
    # log10(||x|| / inf) used to raise "math domain error"
    assert snr_db(np.ones(4), np.full(4, 1e300)) == -math.inf


# ---------------------------------------------------------------------------
# convergence constants


def test_constants_at_reference_point():
    tc = theorem1_constants(0.029, 0.1, 1.0)
    assert abs(tc.C1 - 0.4969072934670218) < 1e-12
    assert abs(tc.C2 - 12.667733498039140) < 1e-11
    assert tc.is_contractive


def test_constants_at_ideal_point():
    tc = theorem1_constants(0.0, 0.0, 0.0)
    assert tc.C1 == 0.0
    assert tc.C2 == 8.0
    assert tc.is_contractive


def test_constants_formula_cross_check():
    # independent evaluation of the closed forms at scattered points
    rng = np.random.default_rng(2)
    for _ in range(25):
        d = rng.uniform(0.0, 0.9)
        e1 = rng.uniform(0.0, 2.0)
        e2 = rng.uniform(0.0, 2.0)
        tc = theorem1_constants(d, e1, e2)
        ratio = math.sqrt((1 + d) / (1 - d))
        assert abs(tc.C1 - ((2 + e1) * d + e1) * (2 + e2) * ratio) < 1e-12 * max(tc.C1, 1)
        assert abs(tc.C2 - (2 + e2) * ((2 + e1) * (1 + d) + 2) / math.sqrt(1 - d)) < 1e-12 * tc.C2


def test_constants_monotone_in_each_argument():
    deltas = [0.01, 0.1, 0.3]
    eps1s = [0.05, 0.2]
    eps2s = [0.1, 0.5]
    for e1 in eps1s:
        for e2 in eps2s:
            vals = [theorem1_constants(d, e1, e2) for d in deltas]
            assert vals[0].C1 < vals[1].C1 < vals[2].C1
            assert vals[0].C2 < vals[1].C2 < vals[2].C2
    for d in deltas:
        for e2 in eps2s:
            vals = [theorem1_constants(d, e1, e2) for e1 in eps1s]
            assert vals[0].C1 < vals[1].C1
            assert vals[0].C2 < vals[1].C2
        for e1 in eps1s:
            vals = [theorem1_constants(d, e1, e2) for e2 in eps2s]
            assert vals[0].C1 < vals[1].C1
            assert vals[0].C2 < vals[1].C2


def test_constants_validation():
    for bad in [(-0.1, 0, 0), (1.0, 0, 0), (0.5, -1, 0), (0.5, 0, -1),
                (math.nan, 0, 0), (0.5, math.nan, 0), (0.5, 0, math.nan)]:
        with pytest.raises(InvalidInputError):
            theorem1_constants(*bad)


# ---------------------------------------------------------------------------
# decay envelope


def test_envelope_passes_on_exact_recovery():
    D = Dictionary(np.eye(8))
    A = SensingMatrix(np.eye(8))
    coeffs = draw_sparse_coefficients(8, 3, "uniform", 1, complex_values=False)
    x = synthesize(D, coeffs)
    trace = sscosamp(A, D, measure(A, x, 0.0), SSCoSaMPConfig(k=3))
    report = corollary1_envelope(trace, x, 0.0)
    assert report.passed
    assert len(report.slacks) == trace.iterations_run
    # exact recovery after one iteration leaves the full envelope as slack
    assert abs(report.slacks[0] - 0.5 * np.linalg.norm(x)) < 1e-9


def test_envelope_flags_violations():
    D = Dictionary(np.eye(8))
    A = SensingMatrix(np.eye(8))
    coeffs = draw_sparse_coefficients(8, 3, "uniform", 1, complex_values=False)
    x = synthesize(D, coeffs)
    trace = sscosamp(A, D, measure(A, x, 0.0), SSCoSaMPConfig(k=3))
    # against a wrong reference the error stays ~9||x|| while the envelope
    # shrinks to zero, so every slack goes negative
    report = corollary1_envelope(trace, 10.0 * x, 0.0)
    assert not report.passed
    assert all(s < 0 for s in report.slacks)


def test_envelope_holds_under_certified_conditions():
    # noiseless + noisy runs under a tiny isometry constant with exhaustive
    # projections; the decay envelope must then hold at every iteration
    found = 0
    for seed, D, A in certified_pairs(300, 10):
        found += 1
        coeffs = draw_sparse_coefficients(12, 1, "uniform", seed)
        x = synthesize(D, coeffs)
        noise = 0.02 * float(np.linalg.norm(x))
        meas = measure(A, x, noise, seed=seed)
        trace = sscosamp(A, D, meas, exhaustive_config(coeffs, 15))
        assert corollary1_envelope(trace, x, noise).passed
    assert found >= 4


# ---------------------------------------------------------------------------
# isometry constants


def test_drip_identity_sensing_is_zero():
    A = SensingMatrix(np.eye(8))
    D = build_overcomplete_dft(8, 1)
    est = drip_estimate(A, D, 2, trials=50, seed=3)
    assert est.delta_lower < 1e-12
    assert est.is_valid_rip
    exact = drip_exact(A, D, 2)
    assert exact.delta_lower < 1e-10
    assert exact.exhaustive
    assert exact.trials == math.comb(8, 2)


def test_drip_scaled_identity_exact_distortion():
    # ||2 I w||^2 / ||w||^2 = 4 for every signal, so the distortion is 3
    A = SensingMatrix(2.0 * np.eye(6))
    D = build_overcomplete_dft(6, 1)
    est = drip_estimate(A, D, 2, trials=20, seed=4)
    assert abs(est.delta_lower - 3.0) < 1e-12
    assert not est.is_valid_rip
    assert abs(drip_exact(A, D, 2).delta_lower - 3.0) < 1e-10


def test_drip_estimate_never_exceeds_exact():
    for seed in range(6):
        A = draw_gaussian_sensing(6, 8, seed)
        D = build_overcomplete_dft(8, 2)
        exact = drip_exact(A, D, 2).delta_lower
        est = drip_estimate(A, D, 2, trials=200, seed=seed).delta_lower
        assert est <= exact + 1e-10


def test_drip_estimate_monotone_in_trials():
    A = draw_gaussian_sensing(6, 8, 7)
    D = build_overcomplete_dft(8, 2)
    # same seed replays the same draws, so more trials only raise the max
    lo = drip_estimate(A, D, 2, trials=10, seed=8).delta_lower
    hi = drip_estimate(A, D, 2, trials=100, seed=8).delta_lower
    assert lo <= hi + 1e-15


@pytest.mark.parametrize("A, D, message", [
    # column norms of 1.3e154 pass the dictionary's check, but ||D a||^2 overflows
    (SensingMatrix(np.eye(4)), build_rescaled_identity(4, 1.3e154), "signal D a"),
    (SensingMatrix(1e300 * np.eye(4)), build_overcomplete_dft(4, 1), "A D a"),
], ids=["signal", "image"])
def test_drip_estimate_refuses_a_sample_whose_norm_overflows(A, D, message):
    # it used to return delta_lower = 1.0 from inf/inf distortions, with
    # RuntimeWarnings, which this suite turns into errors
    with pytest.raises(InvalidInputError, match=f"^the norm of a sampled {message} overflows$"):
        drip_estimate(A, D, 2, trials=20, seed=0)


def test_drip_estimate_skips_degenerate_samples_and_refuses_when_all_are():
    # every column norm is 1e-20, so every sample falls under the 1e-12 floor
    A = SensingMatrix(np.eye(4))
    with pytest.raises(NumericalFailureError,
                       match="^drip_estimate: every sampled signal was degenerate$"):
        drip_estimate(A, Dictionary(1e-20 * np.eye(4)), 1, trials=5, seed=0)


@pytest.mark.parametrize("scale, message", [
    (1e155, "the Gram matrix A\\^T A overflows"),
    # A^T A is finite here, but the largest restricted eigenvalue is not
    (5e153, "a restriction Q\\^H A\\^T A Q overflows"),
], ids=["gram", "restriction"])
def test_drip_exact_refuses_an_A_whose_gram_overflows(scale, message):
    # at 1e155 it used to report delta_lower = 0.0: NaN deviations are lost
    # in max(worst, nan), after numpy's overflow RuntimeWarnings
    A = SensingMatrix(scale * np.random.default_rng(0).standard_normal((4, 8)))
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        drip_exact(A, build_overcomplete_dft(8, 2), 1)


def test_drip_validation(monkeypatch):
    A = draw_gaussian_sensing(4, 8, 0)
    D = build_overcomplete_dft(8, 1)
    with pytest.raises(InvalidInputError):
        drip_estimate(A, D, 2, trials=0, seed=0)
    with pytest.raises(InvalidInputError):
        drip_estimate(A, D, 9, trials=5, seed=0)
    with pytest.raises(InvalidInputError):
        drip_exact(A, build_overcomplete_dft(6, 1), 2)
    for k in (0, 9):
        with pytest.raises(InvalidInputError, match="^need 1 <= k <= d=8$"):
            drip_exact(A, D, k)
    monkeypatch.setattr(projections, "DEFAULT_ENUMERATION_CAP", 10)
    with pytest.raises(InstanceTooLargeError):
        drip_exact(A, D, 4)


def test_projected_gram_deviation_bounded_by_isometry_constant():
    # || P (A^H A) P - P || <= delta_k for any projector P onto a span of
    # k dictionary columns; measured by the exact spectral norm, bounded by
    # the eigenvalue-based exhaustive constant
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        D = unit_norm_dictionary(rng, 9, 12)
        A = draw_gaussian_sensing(7, 9, 400 + seed)
        k = 3
        delta = drip_exact(A, D, k).delta_lower
        gram = A.matrix.T @ A.matrix
        for _ in range(10):
            support = tuple(sorted(rng.choice(12, size=k, replace=False)))
            Q = build_projector(D.columns(support)).basis
            P = Q @ Q.conj().T
            dev = np.linalg.norm(P @ gram @ P - P, 2)
            assert dev <= delta + 1e-6


# ---------------------------------------------------------------------------
# model mismatch


def test_mismatch_zero_for_exactly_sparse_signals():
    D = build_overcomplete_dft(8, 2)
    coeffs = draw_sparse_coefficients(16, 2, "separated", 5, min_gap=4)
    x = synthesize(D, coeffs)
    report = mismatch(D, x, 2)
    assert report.value < 1e-10
    rebuilt = D.columns(report.minimizing_coeffs.support) @ report.minimizing_coeffs.values
    assert np.linalg.norm(rebuilt - x) < 1e-10


def test_mismatch_identity_dictionary_closed_form():
    # with D = I the best size-k support keeps the k largest entries and the
    # mixed objective is computable from the tail directly
    D = Dictionary(np.eye(6))
    x = np.array([5.0, -4.0, 3.0, -0.5, 0.25, 0.1])
    for k in [1, 2, 3]:
        tail = np.sort(np.abs(x))[: 6 - k]
        expected = np.linalg.norm(tail) + np.sum(tail) / math.sqrt(k)
        report = mismatch(D, x, k)
        assert abs(report.value - expected) < 1e-12
        assert report.minimizing_coeffs.support == tuple(range(k))


def test_mismatch_orthogonal_complement_signal():
    # a signal orthogonal to every dictionary column is its own residual
    D = Dictionary(np.eye(6)[:, :3])
    x = np.array([0.0, 0.0, 0.0, 2.0, -1.0, 2.0])
    report = mismatch(D, x, 2)
    expected = np.linalg.norm(x) + np.linalg.norm(x, 1) / math.sqrt(2)
    assert abs(report.value - expected) < 1e-12


def test_mismatch_validation(monkeypatch):
    D = build_overcomplete_dft(8, 2)
    x = np.ones(8)
    with pytest.raises(InvalidInputError):
        mismatch(D, x, 0)
    with pytest.raises(InvalidInputError):
        mismatch(D, np.ones(7), 2)
    with pytest.raises(InvalidInputError):
        mismatch(D, np.array([1.0, np.nan, 0, 0, 0, 0, 0, 0]), 2)
    monkeypatch.setattr(projections, "DEFAULT_ENUMERATION_CAP", 10)
    with pytest.raises(InstanceTooLargeError):
        mismatch(D, x, 4)


# ---------------------------------------------------------------------------
# tail inequality


def test_tail_check_zero_vector():
    A = SensingMatrix(np.eye(4))
    res = upper_rip_tail_check(A, 2, np.zeros(4), 0.1)
    assert res.holds
    assert res.bound == 0.0
    assert res.observed == 0.0


def test_tail_check_basis_vector_exact_slack():
    A = SensingMatrix(np.eye(4))
    z = np.zeros(4)
    z[1] = 1.0
    res = upper_rip_tail_check(A, 1, z, 0.0)
    # bound = ||z|| + ||z||_1 = 2 while ||A z|| = 1
    assert res.holds
    assert abs(res.bound - 2.0) < 1e-12
    assert abs(res.observed - 1.0) < 1e-12
    assert abs(res.slack - 1.0) < 1e-12


def test_tail_check_holds_for_random_vectors_with_exact_constant():
    A = draw_gaussian_sensing(6, 8, 11)
    identity = Dictionary(np.eye(8))
    delta = drip_exact(A, identity, 2).delta_lower
    rng = np.random.default_rng(12)
    # include the worst-case direction for ||A z|| alongside random draws
    _, _, vh = np.linalg.svd(A.matrix)
    vectors = [vh[0]]
    for _ in range(1000):
        vectors.append(rng.standard_normal(8))
    for z in vectors:
        res = upper_rip_tail_check(A, 2, z, delta)
        assert res.holds


def test_tail_check_validation():
    A = SensingMatrix(np.eye(4))
    with pytest.raises(InvalidInputError):
        upper_rip_tail_check(A, 0, np.ones(4), 0.1)
    with pytest.raises(InvalidInputError):
        upper_rip_tail_check(A, 2, np.ones(5), 0.1)
    for bad_delta in (-0.1, math.nan):
        with pytest.raises(InvalidInputError):
            upper_rip_tail_check(A, 2, np.ones(4), bad_delta)


@pytest.mark.parametrize("value", [math.nan, math.inf, 1e200], ids=["nan", "inf", "1e200"])
def test_tail_check_rejects_a_non_finite_z_or_one_whose_norm_overflows(value):
    # NaN used to give holds=False with NaN numbers, inf and 1e200 a numpy RuntimeWarning
    A = draw_gaussian_sensing(4, 8, 0)
    with pytest.raises(InvalidInputError, match="non-finite entries or its norm overflows"):
        upper_rip_tail_check(A, 2, np.full(8, value), 0.1)


def test_tail_check_rejects_a_z_whose_image_norm_overflows():
    A = draw_gaussian_sensing(4, 8, 0)
    z = 1e154 * np.linalg.svd(A.matrix)[2][0]  # ||z|| is finite, ||A z|| = 1.67e154 is not
    with pytest.raises(InvalidInputError, match="norm of A z overflows"):
        upper_rip_tail_check(A, 2, z, 0.1)


def test_tail_check_rejects_an_image_that_overflows_in_the_product():
    # finite entries near 1e300 overflow A z itself, not only its norm
    A = SensingMatrix(np.full((2, 4), 1e300))
    with pytest.raises(InvalidInputError, match="norm of A z overflows"):
        upper_rip_tail_check(A, 2, np.ones(4), 0.1)


# ---------------------------------------------------------------------------
# stacked exhaustive scans against plain per-support references


def _hostile_dictionary():
    # c7 duplicates c1, c8 = 2 c2 + c5, c9 = c3 + 1e-13 c0
    rng = np.random.default_rng(808)
    M = random_complex(rng, 8, 10)
    M /= np.linalg.norm(M, axis=0)
    M[:, 7] = M[:, 1]
    M[:, 8] = 2.0 * M[:, 2] + M[:, 5]
    M[:, 9] = M[:, 3] + 1e-13 * M[:, 0]
    return Dictionary(M)


def _hostile_vectors(D):
    rng = np.random.default_rng(809)
    near = [(1,), (1, 4), (2, 5, 6), (3, 6), (0, 8)]
    vectors = [random_complex(rng, 8) for _ in range(3)]
    for cols in near:  # close to spans that the special columns duplicate
        vectors.append(D.columns(cols) @ random_complex(rng, len(cols))
                       + 0.01 * random_complex(rng, 8))
    return vectors


def _reference_drip(A, D, k):
    gram = A.matrix.T @ A.matrix
    worst = 0.0
    for s in itertools.combinations(range(D.d), k):
        Q = build_projector(D.columns(s)).basis
        eigs = np.linalg.eigvalsh(Q.conj().T @ gram @ Q)
        worst = max(worst, abs(eigs[-1] - 1.0), abs(eigs[0] - 1.0))
    return worst


def test_support_bases_rank_rule_flags_dependent_supports():
    D = _hostile_dictionary()
    for k in (1, 2, 3):
        seen = []
        for supports, _, full in projections.support_bases(D.matrix, k):
            for s, f in zip(supports.tolist(), full):
                deficient = ({1, 7} <= set(s) or {3, 9} <= set(s) or {2, 5, 8} <= set(s))
                assert f == (not deficient), s
                seen.append(tuple(s))
        assert seen == list(itertools.combinations(range(10), k))


@pytest.mark.parametrize("chunk_elements", [projections.SUPPORT_CHUNK_ELEMENTS, 24])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_scans_match_per_support_references(monkeypatch, chunk_elements, k):
    # 24 elements make chunks of 3 supports at k = 1 and of 1 at k >= 2, so
    # ties between the duplicated columns fall across chunk boundaries
    monkeypatch.setattr(projections, "SUPPORT_CHUNK_ELEMENTS", chunk_elements)
    D = _hostile_dictionary()
    A = near_orthogonal_sensing(np.random.default_rng(810), 8)
    for z in _hostile_vectors(D):
        ref_residual, ref_support = reference_oracle(D, z, k)
        support, proj = projections.optimal_projection(D, z, k)
        assert support == ref_support
        assert float(np.linalg.norm(z - proj)) == pytest.approx(ref_residual, rel=1e-12)
        assert mismatch(D, z, k).value == pytest.approx(reference_mismatch(D, z, k), rel=1e-12)
    assert drip_exact(A, D, k).delta_lower == pytest.approx(_reference_drip(A, D, k), rel=1e-12)


def test_exact_tie_across_chunks_keeps_first_support(monkeypatch):
    monkeypatch.setattr(projections, "SUPPORT_CHUNK_ELEMENTS", 24)  # 3 supports at k = 1
    D = _hostile_dictionary()
    z = 2.0 * D.matrix[:, 1] + 0.01 * random_complex(np.random.default_rng(811), 8)
    chunks = [s.ravel().tolist() for s, _, _ in projections.support_bases(D.matrix, 1)]
    assert 1 in chunks[0] and 7 in chunks[2]
    assert projections.optimal_projection(D, z, 1)[0] == (1,)
    assert mismatch(D, z, 1).minimizing_coeffs.support == (1,)
