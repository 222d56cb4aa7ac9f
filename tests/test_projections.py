"""Support identification backends, the exhaustive oracle, quality ratios."""

import math

import numpy as np
import pytest

from sscosamp import (
    CoSaMPBackend,
    Dictionary,
    ExhaustiveBackend,
    InstanceTooLargeError,
    InvalidInputError,
    L1Backend,
    NumericalFailureError,
    OMPBackend,
    ThresholdBackend,
    basis_pursuit_denoise,
    build_overcomplete_dft,
    build_projector,
    build_rescaled_identity,
    draw_sparse_coefficients,
    evaluate_projection_quality,
    make_backend,
    optimal_projection,
    project_support,
    synthesize,
)
from sscosamp.projections import top_k

ALL_BACKENDS = [
    ThresholdBackend(),
    OMPBackend(),
    CoSaMPBackend(),
    L1Backend(),
    ExhaustiveBackend(),
]


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_dictionary(rng, n, d):
    M = _random_complex(rng, n, d)
    return Dictionary(M / np.linalg.norm(M, axis=0))


def _residual(dictionary, support, z):
    P = build_projector(dictionary.columns(support))
    return float(np.linalg.norm(z - P.apply(z)))


def test_threshold_renormalizes_scores():
    # raw magnitudes would pick the scale-100 columns; normalized scores don't
    D = build_rescaled_identity(4, 100.0)
    z = np.array([1.0, 2.0, 3.0, 4.0])
    assert project_support(ThresholdBackend(), D, z, 2) == (2, 3)


def test_every_backend_finds_an_exact_atom():
    D = build_overcomplete_dft(8, 1)
    z = D.matrix[:, 5].copy()
    for backend in ALL_BACKENDS:
        assert project_support(backend, D, z, 1) == (5,)


def test_omp_matches_exhaustive_on_separated_pairs():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        D = _random_dictionary(rng, 8, 12)
        coeffs = draw_sparse_coefficients(12, 2, "separated", seed, min_gap=4)
        z = synthesize(D, coeffs)
        omp = project_support(OMPBackend(), D, z, 2)
        exact = project_support(ExhaustiveBackend(), D, z, 2)
        assert omp == exact


def test_cardinality_always_k():
    rng = np.random.default_rng(17)
    D = _random_dictionary(rng, 10, 14)
    z = _random_complex(rng, 10)
    for backend in ALL_BACKENDS:
        for k in (1, 2, 3, 4):
            support = project_support(backend, D, z, k)
            assert len(support) == k
            assert len(set(support)) == k
            assert support == tuple(sorted(support))


def test_backends_never_beat_the_oracle():
    rng = np.random.default_rng(23)
    for _ in range(5):
        D = _random_dictionary(rng, 8, 12)
        z = _random_complex(rng, 8)
        _, opt_proj = optimal_projection(D, z, 2)
        opt_res = float(np.linalg.norm(z - opt_proj))
        for backend in ALL_BACKENDS:
            support = project_support(backend, D, z, 2)
            assert _residual(D, support, z) >= opt_res - 1e-10


def test_threshold_exact_on_orthogonal_columns():
    rng = np.random.default_rng(29)
    for _ in range(10):
        Q, _ = np.linalg.qr(_random_complex(rng, 8, 8))
        scales = rng.uniform(0.5, 20.0, size=8)
        D = Dictionary(Q * scales)
        z = _random_complex(rng, 8)
        support = project_support(ThresholdBackend(), D, z, 3)
        _, opt_proj = optimal_projection(D, z, 3)
        assert _residual(D, support, z) <= np.linalg.norm(z - opt_proj) + 1e-10


def test_scale_equivariance():
    rng = np.random.default_rng(31)
    D = _random_dictionary(rng, 8, 12)
    z = _random_complex(rng, 8)
    for backend in (ThresholdBackend(), OMPBackend(), ExhaustiveBackend()):
        base = project_support(backend, D, z, 2)
        for c in (3.0 - 2.0j, -0.7):
            assert project_support(backend, D, c * z, 2) == base


def test_optimal_projection_zero_vector_lexicographic():
    D = build_overcomplete_dft(4, 2)
    support, proj = optimal_projection(D, np.zeros(4), 2)
    assert support == (0, 1)
    assert np.allclose(proj, 0.0)


def test_optimal_projection_self_audit():
    # oracle beats every enumerated support, verified via normal equations
    import itertools

    rng = np.random.default_rng(37)
    D = _random_dictionary(rng, 6, 10)
    z = _random_complex(rng, 6)
    _, opt_proj = optimal_projection(D, z, 2)
    opt_res = np.linalg.norm(z - opt_proj)
    for sup in itertools.combinations(range(10), 2):
        B = D.columns(sup)
        proj = B @ np.linalg.solve(B.conj().T @ B, B.conj().T @ z)
        assert opt_res <= np.linalg.norm(z - proj) + 1e-10


def test_optimal_projection_enumeration_cap():
    rng = np.random.default_rng(41)
    D = _random_dictionary(rng, 8, 30)
    with pytest.raises(InstanceTooLargeError):
        optimal_projection(D, _random_complex(rng, 8), 15)


def test_projection_argument_validation():
    D = build_overcomplete_dft(4, 2)
    with pytest.raises(InvalidInputError):
        project_support(ThresholdBackend(), D, np.zeros(4), 9)
    with pytest.raises(InvalidInputError):
        project_support(ThresholdBackend(), D, np.zeros(5), 2)
    with pytest.raises(InvalidInputError):
        make_backend("sorting-hat")


def test_quality_exhaustive_self_comparison_is_zero():
    rng = np.random.default_rng(43)
    D = _random_dictionary(rng, 8, 12)
    z = _random_complex(rng, 8)
    q = evaluate_projection_quality(D, z, 2, ExhaustiveBackend())
    assert q.eps1 == 0.0 and q.eps2 == 0.0


def test_quality_threshold_zero_on_orthonormal():
    rng = np.random.default_rng(47)
    D = build_overcomplete_dft(8, 1)
    z = _random_complex(rng, 8)
    q = evaluate_projection_quality(D, z, 2, ThresholdBackend())
    assert q.eps1 <= 1e-12 and q.eps2 <= 1e-12


def test_quality_flags_infinite_eps2_for_exactly_sparse_input():
    D = build_overcomplete_dft(8, 1)
    z = D.matrix[:, 1] + 0.5 * D.matrix[:, 6]
    q = evaluate_projection_quality(D, z, 2, ThresholdBackend())
    assert q.opt_residual < 1e-12
    assert math.isinf(q.eps2)


def test_quality_definitional_self_consistency():
    # the measured pair must satisfy the inequality it is defined by
    rng = np.random.default_rng(53)
    for _ in range(5):
        D = _random_dictionary(rng, 8, 12)
        z = _random_complex(rng, 8)
        opt_sup, opt_proj = optimal_projection(D, z, 2)
        for backend in (ThresholdBackend(), OMPBackend(), CoSaMPBackend(), L1Backend()):
            q = evaluate_projection_quality(D, z, 2, backend)
            est_sup = project_support(backend, D, z, 2)
            est_proj = build_projector(D.columns(est_sup)).apply(z)
            gap = np.linalg.norm(opt_proj - est_proj)
            bound = min(q.eps1 * np.linalg.norm(opt_proj),
                        q.eps2 * np.linalg.norm(z - opt_proj))
            assert gap <= bound + 1e-10


def test_l1_backend_nonconvergence_raises_with_diagnostics():
    rng = np.random.default_rng(59)
    D = _random_dictionary(rng, 8, 16)
    z = _random_complex(rng, 8)
    with pytest.raises(NumericalFailureError) as info:
        project_support(L1Backend(max_iters=1), D, z, 2)
    assert info.value.iteration == 1
    assert "primal_residual" in info.value.diagnostics


def test_basis_pursuit_recovers_sparse_on_orthonormal_system():
    rng = np.random.default_rng(61)
    Q, _ = np.linalg.qr(_random_complex(rng, 10, 10))
    alpha = np.zeros(10, dtype=complex)
    alpha[[2, 7]] = [1.5, -2.0 + 1.0j]
    z = Q @ alpha
    est = basis_pursuit_denoise(Q, z, 1e-8 * np.linalg.norm(z))
    assert np.linalg.norm(est - alpha) < 1e-3


def test_basis_pursuit_edge_cases():
    assert np.allclose(basis_pursuit_denoise(np.eye(3), np.zeros(3), 0.1), 0.0)
    with pytest.raises(InvalidInputError):
        basis_pursuit_denoise(np.eye(3), np.zeros(4), 0.1)
    with pytest.raises(InvalidInputError):
        basis_pursuit_denoise(np.eye(3), np.zeros(3), -1.0)


def test_make_backend_known_names():
    assert isinstance(make_backend("threshold"), ThresholdBackend)
    assert isinstance(make_backend("omp"), OMPBackend)
    assert isinstance(make_backend("cosamp"), CoSaMPBackend)
    assert isinstance(make_backend("l1"), L1Backend)
    assert isinstance(make_backend("exhaustive"), ExhaustiveBackend)


def test_top_k_tie_heavy_matches_lowest_index_reference():
    # values rounded to 0.1 so most scores tie; every k from 1 to len
    rng = np.random.default_rng(41)
    for length in (1, 7, 32, 100):
        for _ in range(5):
            v = np.round(rng.uniform(0.0, 0.5, length), 1)
            ranked = sorted(range(length), key=lambda i: (-v[i], i))
            for k in range(1, length + 1):
                got = top_k(v, k)
                assert got == tuple(sorted(ranked[:k]))
                assert all(type(i) is int for i in got)


def test_cosamp_backend_supports_pinned():
    # supports recorded before the backend moved onto the shared kernel
    D = build_overcomplete_dft(16, 2)
    rng = np.random.default_rng(2026)
    z1 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    z2 = D.matrix[:, [3, 4, 20]] @ np.array([1.0, -0.5j, 0.8]) + 0.05 * z1
    backend = CoSaMPBackend()
    assert backend.support(D, z1, 2) == (9, 17)
    assert backend.support(D, z1, 3) == (9, 14, 17)
    assert backend.support(D, z2, 2) == (3, 20)
    assert backend.support(D, z2, 3) == (3, 4, 20)
