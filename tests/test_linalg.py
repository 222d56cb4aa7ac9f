"""Projectors, norm-constrained least squares, operator norms."""

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from sscosamp import (
    InvalidInputError,
    build_overcomplete_dft,
    build_projector,
    operator_norm,
    tikhonov_lsq,
)


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_projector_axis_aligned_span():
    P = build_projector(np.array([[2.0], [0.0], [0.0]]))
    out = P.apply(np.array([1.0, 1.0, 1.0]))
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)
    assert P.rank == 1


def test_projector_drops_duplicate_columns():
    col = np.array([1.0, 1.0]) / np.sqrt(2.0)
    P = build_projector(np.column_stack([col, col]))
    assert P.rank == 1


def test_projector_matches_normal_equations():
    # oracle: brute-force B (B^H B)^-1 B^H on a full-rank random matrix
    rng = np.random.default_rng(7)
    B = _random_complex(rng, 8, 3)
    P = build_projector(B).dense()
    gram_inv = np.linalg.inv(B.conj().T @ B)
    oracle = B @ gram_inv @ B.conj().T
    assert np.max(np.abs(P - oracle)) < 1e-8


def test_projector_rejects_zero_columns():
    with pytest.raises(InvalidInputError):
        build_projector(np.zeros((3, 0)))


def test_projector_all_zero_matrix_has_rank_zero():
    P = build_projector(np.zeros((4, 2)))
    assert P.rank == 0
    assert np.allclose(P.apply(np.ones(4)), 0.0)


def test_apply_projector_basic_cases():
    P = build_projector(np.array([[1.0], [0.0]]))
    assert np.allclose(P.apply(np.array([3.0, 4.0])), [3.0, 0.0])
    assert np.allclose(P.apply(np.zeros(2)), 0.0)
    with pytest.raises(InvalidInputError):
        P.apply(np.zeros(3))


def test_projector_residual_orthogonal_to_basis():
    rng = np.random.default_rng(11)
    B = _random_complex(rng, 8, 3)
    P = build_projector(B)
    z = _random_complex(rng, 8)
    resid = P.complement(z)
    assert np.max(np.abs(P.basis.conj().T @ resid)) < 1e-8


def test_projector_idempotence_contraction_pythagoras():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(3, 16))
        t = int(rng.integers(1, n + 1))
        P = build_projector(_random_complex(rng, n, t))
        z = _random_complex(rng, n)
        pz = P.apply(z)
        nz = np.linalg.norm(z)
        assert np.linalg.norm(P.apply(pz) - pz) <= 1e-10 * nz
        assert np.linalg.norm(pz) <= nz * (1.0 + 1e-12)
        lhs = nz**2
        rhs = np.linalg.norm(pz) ** 2 + np.linalg.norm(z - pz) ** 2
        assert abs(lhs - rhs) <= 1e-9 * lhs


def test_nested_projection_identity():
    # with nested spans, projecting through the bigger span changes nothing
    rng = np.random.default_rng(33)
    for _ in range(20):
        D = _random_complex(rng, 10, 14)
        big = sorted(rng.choice(14, size=6, replace=False))
        small = sorted(rng.choice(big, size=3, replace=False))
        P_small = build_projector(D[:, small])
        P_big = build_projector(D[:, big])
        z = _random_complex(rng, 10)
        direct = P_small.apply(z)
        through = P_small.apply(P_big.apply(z))
        assert np.linalg.norm(direct - through) <= 1e-9 * np.linalg.norm(z)


def test_tikhonov_unconstrained_within_bound():
    A = np.eye(4)
    cols = np.array([[1.0], [0.0], [0.0], [0.0]])
    y = np.array([5.0, 0.0, 0.0, 0.0])
    beta = tikhonov_lsq(A, cols, y, norm_bound=10.0)
    assert np.allclose(beta, [5.0], atol=1e-12)


def test_tikhonov_lands_on_constraint_boundary():
    A = np.eye(4)
    cols = np.array([[1.0], [0.0], [0.0], [0.0]])
    y = np.array([5.0, 0.0, 0.0, 0.0])
    beta = tikhonov_lsq(A, cols, y, norm_bound=2.0)
    assert abs(beta[0] - 2.0) < 1e-6


def test_tikhonov_matches_qr_least_squares_when_slack():
    # oracle: QR-based least squares (gelsy), a different path than the SVD
    rng = np.random.default_rng(5)
    A = rng.standard_normal((12, 6))
    cols = _random_complex(rng, 6, 4)
    y = _random_complex(rng, 12)
    oracle, *_ = scipy.linalg.lstsq(A @ cols, y, lapack_driver="gelsy")
    beta = tikhonov_lsq(A, cols, y, norm_bound=10.0 * np.linalg.norm(oracle))
    assert np.linalg.norm(beta - oracle) <= 1e-6 * np.linalg.norm(oracle)


def test_tikhonov_constraint_enforced_and_residual_ordering():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((20, 5))
    y = rng.standard_normal(20)
    free, *_ = np.linalg.lstsq(M, y, rcond=None)
    bound = 0.3 * np.linalg.norm(free)
    beta = tikhonov_lsq(None, M, y, norm_bound=bound)
    assert np.linalg.norm(beta) <= bound * (1.0 + 1e-6)
    assert np.linalg.norm(y - M @ beta) >= np.linalg.norm(y - M @ free) - 1e-12


def test_tikhonov_infinite_bound_gives_min_norm_solution():
    rng = np.random.default_rng(8)
    col = rng.standard_normal(6)
    M = np.column_stack([col, col])  # rank deficient on purpose
    y = rng.standard_normal(6)
    beta = tikhonov_lsq(None, M, y, norm_bound=np.inf)
    oracle, *_ = np.linalg.lstsq(M, y, rcond=None)
    assert np.linalg.norm(beta - oracle) < 1e-10


def _svd_min_norm(M, y):
    """Truncated minimum-norm solution with the SVD path's rank cutoff."""
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    live = s > max(M.shape) * np.finfo(np.float64).eps * s[0]
    c = U.conj().T @ y
    return Vh.conj().T @ np.where(live, c / np.where(live, s, 1.0), 0.0), int(live.sum())


def _tall_well_conditioned(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((64, 96))
    cols = _random_complex(rng, 96, 24)
    y = _random_complex(rng, 64)
    return A, cols, y


def test_tikhonov_tall_well_conditioned_matches_lstsq():
    A, cols, y = _tall_well_conditioned(12)
    oracle, *_ = np.linalg.lstsq(A @ cols, y, rcond=None)
    beta = tikhonov_lsq(A, cols, y, norm_bound=10.0 * np.linalg.norm(oracle))
    assert np.linalg.norm(beta - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_tikhonov_ill_conditioned_keeps_truncated_min_norm():
    # 24 adjacent atoms of a 4x-redundant DFT: cond about 1e14, so the SVD
    # cutoff drops directions a plain triangular solve would blow up
    D = build_overcomplete_dft(256, 4)
    cols = D.columns(range(100, 124))
    y = _random_complex(np.random.default_rng(13), 256)
    oracle, live = _svd_min_norm(cols, y)
    assert live < 24
    beta = tikhonov_lsq(None, cols, y, norm_bound=np.inf)
    assert np.linalg.norm(beta - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_tikhonov_wide_system_gives_min_norm_solution():
    rng = np.random.default_rng(14)
    M = _random_complex(rng, 8, 12)
    y = _random_complex(rng, 8)
    oracle, live = _svd_min_norm(M, y)
    assert live == 8
    beta = tikhonov_lsq(None, M, y, norm_bound=np.inf)
    assert np.linalg.norm(beta - oracle) <= 1e-12 * np.linalg.norm(oracle)
    assert np.linalg.norm(M @ beta - y) <= 1e-10 * np.linalg.norm(y)


def test_tikhonov_tall_well_conditioned_bound_active_lands_on_bound():
    A, cols, y = _tall_well_conditioned(15)
    free, *_ = np.linalg.lstsq(A @ cols, y, rcond=None)
    bound = 0.3 * np.linalg.norm(free)
    beta = tikhonov_lsq(A, cols, y, norm_bound=bound)
    assert abs(np.linalg.norm(beta) - bound) <= 1e-8 * bound


def test_tikhonov_lapack_qr_failure_falls_back_to_svd(monkeypatch):
    A, cols, y = _tall_well_conditioned(16)
    calls = []

    def failing_zgeqrf(a, *args, **kwargs):
        calls.append(a.shape)
        return a, np.zeros(min(a.shape), dtype=np.complex128), np.zeros(1), -1

    monkeypatch.setattr(scipy.linalg.lapack, "zgeqrf", failing_zgeqrf)
    oracle, live = _svd_min_norm(A @ cols, y)
    beta = tikhonov_lsq(A, cols, y, norm_bound=np.inf)
    assert calls == [(64, 24)]
    assert live == 24
    assert np.array_equal(beta, oracle)


def test_tikhonov_input_validation():
    y = np.ones(3)
    with pytest.raises(InvalidInputError):
        tikhonov_lsq(None, np.zeros((3, 0)), y, norm_bound=1.0)
    with pytest.raises(InvalidInputError):
        tikhonov_lsq(None, np.ones((3, 1)), y, norm_bound=0.0)
    with pytest.raises(InvalidInputError):
        tikhonov_lsq(np.eye(4), np.ones((3, 1)), y, norm_bound=1.0)


def test_operator_norm_diagonal_and_zero():
    assert abs(operator_norm(np.diag([3.0, 1.0])) - 3.0) < 1e-9
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(9)
    M = _random_complex(rng, 8, 8)
    exact = np.linalg.svd(M, compute_uv=False)[0]
    assert abs(operator_norm(M, iters=300) - exact) <= 1e-6 * exact


def test_operator_norm_monotone_in_iterations():
    rng = np.random.default_rng(10)
    M = _random_complex(rng, 12, 7)
    lo = operator_norm(M, iters=10)
    hi = operator_norm(M, iters=200)
    assert lo <= hi + 1e-12


def test_operator_norm_input_validation():
    with pytest.raises(InvalidInputError):
        operator_norm(np.zeros((0, 3)))
    with pytest.raises(InvalidInputError):
        operator_norm(np.eye(3), iters=5)
