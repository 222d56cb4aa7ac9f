"""Projectors and norm-constrained least squares."""

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from sscosamp import (
    InvalidInputError,
    NumericalFailureError,
    build_overcomplete_dft,
    build_projector,
    tikhonov_lsq,
)
from sscosamp import linalg
from sscosamp.linalg import DEFAULT_RANK_TOL, _norm

from _fixtures import random_complex, same_bits


def test_projector_axis_aligned_span():
    P = build_projector(np.array([[2.0], [0.0], [0.0]]))
    out = P.apply(np.array([1.0, 1.0, 1.0]))
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)
    assert P.basis.shape == (3, 1)


def test_projector_drops_duplicate_columns():
    col = np.array([1.0, 1.0]) / np.sqrt(2.0)
    P = build_projector(np.column_stack([col, col]))
    assert P.basis.shape == (2, 1)


def test_projector_matches_normal_equations():
    # oracle: brute-force B (B^H B)^-1 B^H on a full-rank random matrix
    rng = np.random.default_rng(7)
    B = random_complex(rng, 8, 3)
    Q = build_projector(B).basis
    P = Q @ Q.conj().T
    gram_inv = np.linalg.inv(B.conj().T @ B)
    oracle = B @ gram_inv @ B.conj().T
    assert np.max(np.abs(P - oracle)) < 1e-8


def test_projector_rejects_zero_columns():
    with pytest.raises(InvalidInputError):
        build_projector(np.zeros((3, 0)))


def test_projector_of_zero_rows_has_an_empty_basis():
    assert build_projector(np.zeros((0, 3))).basis.shape == (0, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: build_projector(np.ones(3)), "^cols must be 2-dimensional, got shape \\(3,\\)$"),
    (lambda: build_projector([[1.0, np.nan]]), "^cols contains non-finite entries$"),
    (lambda: build_projector(np.eye(2)).apply(np.ones((2, 1))),
     "^vector must be 1-dimensional, got shape \\(2, 1\\)$"),
    (lambda: tikhonov_lsq(np.eye(2), [np.inf, 0.0], norm_bound=1.0),
     "^y contains non-finite entries$"),
], ids=["matrix-1d", "matrix-nan", "vector-2d", "vector-inf"])
def test_inputs_of_the_wrong_dimension_or_not_finite_are_refused(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


def test_projector_all_zero_matrix_has_rank_zero():
    P = build_projector(np.zeros((4, 2)))
    assert P.basis.shape == (4, 0)
    # the empty product gives +0.0 zeros, the bits of np.zeros_like
    z = np.array([1.0, -2.0, -0.0, 3.0 - 1j])
    assert P.apply(z).tobytes() == np.zeros_like(z).tobytes()


def test_projector_basis_has_the_bits_of_scipy_pivoted_qr():
    # build_projector calls zgeqp3 and zungqr itself; its basis is the one
    # scipy.linalg.qr's economic pivoted Q gives, cut at the same rank
    rng = np.random.default_rng(41)
    D = build_overcomplete_dft(32, 4)
    base = random_complex(rng, 8, 3)
    inputs = [D.columns(tuple(range(start, start + t))) for start, t in ((0, 1), (40, 9), (100, 23))]
    inputs += [D.columns(tuple(sorted(rng.choice(D.d, size=t, replace=False)))) for t in (2, 8, 16)]
    inputs += [np.column_stack([base, base[:, 1] + 1e-13 * base[:, 2]]),  # rank-deficient
               random_complex(rng, 4, 7),  # wide
               np.zeros((4, 2), dtype=complex)]
    # up to 128 columns LAPACK runs its unblocked code, where the wrapper's
    # default workspace gives the bits of scipy's queried one
    inputs += [random_complex(rng, 256, t) for t in (32, 64, 127, 128)]
    for cols in inputs:
        Q, R, _ = scipy.linalg.qr(cols, mode="economic", pivoting=True)
        pivots = np.abs(np.diag(R))
        rank = int(np.count_nonzero(pivots >= DEFAULT_RANK_TOL * pivots[0])) if pivots[0] else 0
        assert same_bits(build_projector(cols).basis, np.ascontiguousarray(Q[:, :rank]))


@pytest.mark.parametrize("routine", ["zgeqp3", "zungqr"])
def test_projector_lapack_info_raises_numerical_failure(monkeypatch, routine):
    real = getattr(scipy.linalg.lapack, routine)

    def reports_an_error(*args, **kwargs):
        return (*real(*args, **kwargs)[:-1], -7)

    monkeypatch.setattr(scipy.linalg.lapack, routine, reports_an_error)
    with pytest.raises(NumericalFailureError,
                       match=f"^build_projector: {routine} returned info = -7$"):
        build_projector(random_complex(np.random.default_rng(3), 6, 2))


def test_norm_has_the_bits_of_numpy_norm():
    rng = np.random.default_rng(83)
    vectors = [random_complex(rng, n) for n in (1, 7, 64, 1000)]
    vectors += [
        np.zeros(5, dtype=complex),
        np.array([-0.0 + 0.0j, 0.0 - 0.0j]),
        np.full(6, 3e-320 - 2e-321j),  # subnormal
        random_complex(rng, 9) * 1e-160,  # squares underflow
        random_complex(rng, 4) * 1e200,  # squares overflow
        random_complex(rng, 30)[::3],  # strided
    ]
    with np.errstate(over="ignore", under="ignore"):
        for x in vectors:
            assert same_bits(np.float64(_norm(x)), np.linalg.norm(x))


def test_apply_projector_basic_cases():
    P = build_projector(np.array([[1.0], [0.0]]))
    assert np.allclose(P.apply(np.array([3.0, 4.0])), [3.0, 0.0])
    assert np.allclose(P.apply(np.zeros(2)), 0.0)
    with pytest.raises(InvalidInputError):
        P.apply(np.zeros(3))


def test_projector_residual_orthogonal_to_basis():
    rng = np.random.default_rng(11)
    B = random_complex(rng, 8, 3)
    P = build_projector(B)
    z = random_complex(rng, 8)
    resid = z - P.apply(z)
    assert np.max(np.abs(P.basis.conj().T @ resid)) < 1e-8


def test_projector_idempotence_contraction_pythagoras():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(3, 16))
        t = int(rng.integers(1, n + 1))
        P = build_projector(random_complex(rng, n, t))
        z = random_complex(rng, n)
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
        D = random_complex(rng, 10, 14)
        big = sorted(rng.choice(14, size=6, replace=False))
        small = sorted(rng.choice(big, size=3, replace=False))
        P_small = build_projector(D[:, small])
        P_big = build_projector(D[:, big])
        z = random_complex(rng, 10)
        direct = P_small.apply(z)
        through = P_small.apply(P_big.apply(z))
        assert np.linalg.norm(direct - through) <= 1e-9 * np.linalg.norm(z)


def test_tikhonov_unconstrained_within_bound():
    A = np.eye(4)
    cols = np.array([[1.0], [0.0], [0.0], [0.0]])
    y = np.array([5.0, 0.0, 0.0, 0.0])
    beta = tikhonov_lsq(A @ cols, y, norm_bound=10.0)
    assert np.allclose(beta, [5.0], atol=1e-12)


def test_tikhonov_lands_on_constraint_boundary():
    A = np.eye(4)
    cols = np.array([[1.0], [0.0], [0.0], [0.0]])
    y = np.array([5.0, 0.0, 0.0, 0.0])
    beta = tikhonov_lsq(A @ cols, y, norm_bound=2.0)
    assert abs(beta[0] - 2.0) < 1e-6


def test_tikhonov_matches_qr_least_squares_when_slack():
    # oracle: QR-based least squares (gelsy), a different path than the SVD
    rng = np.random.default_rng(5)
    A = rng.standard_normal((12, 6))
    cols = random_complex(rng, 6, 4)
    y = random_complex(rng, 12)
    oracle, *_ = scipy.linalg.lstsq(A @ cols, y, lapack_driver="gelsy")
    beta = tikhonov_lsq(A @ cols, y, norm_bound=10.0 * np.linalg.norm(oracle))
    assert np.linalg.norm(beta - oracle) <= 1e-6 * np.linalg.norm(oracle)


def test_tikhonov_constraint_enforced_and_residual_ordering():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((20, 5))
    y = rng.standard_normal(20)
    free, *_ = np.linalg.lstsq(M, y, rcond=None)
    bound = 0.3 * np.linalg.norm(free)
    beta = tikhonov_lsq(M, y, norm_bound=bound)
    assert np.linalg.norm(beta) <= bound * (1.0 + 1e-6)
    assert np.linalg.norm(y - M @ beta) >= np.linalg.norm(y - M @ free) - 1e-12


def test_tikhonov_infinite_bound_gives_min_norm_solution():
    rng = np.random.default_rng(8)
    col = rng.standard_normal(6)
    M = np.column_stack([col, col])  # rank deficient on purpose
    y = rng.standard_normal(6)
    beta = tikhonov_lsq(M, y, norm_bound=np.inf)
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
    cols = random_complex(rng, 96, 24)
    y = random_complex(rng, 64)
    return A, cols, y


def test_tikhonov_tall_well_conditioned_matches_lstsq():
    A, cols, y = _tall_well_conditioned(12)
    oracle, *_ = np.linalg.lstsq(A @ cols, y, rcond=None)
    beta = tikhonov_lsq(A @ cols, y, norm_bound=10.0 * np.linalg.norm(oracle))
    assert np.linalg.norm(beta - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_tikhonov_ill_conditioned_keeps_truncated_min_norm():
    # 24 adjacent atoms of a 4x-redundant DFT: cond about 1e14, so the SVD
    # cutoff drops directions a plain triangular solve would blow up
    D = build_overcomplete_dft(256, 4)
    cols = D.columns(range(100, 124))
    y = random_complex(np.random.default_rng(13), 256)
    oracle, live = _svd_min_norm(cols, y)
    assert live < 24
    beta = tikhonov_lsq(cols, y, norm_bound=np.inf)
    assert np.linalg.norm(beta - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_tikhonov_wide_system_gives_min_norm_solution():
    rng = np.random.default_rng(14)
    M = random_complex(rng, 8, 12)
    y = random_complex(rng, 8)
    oracle, live = _svd_min_norm(M, y)
    assert live == 8
    beta = tikhonov_lsq(M, y, norm_bound=np.inf)
    assert np.linalg.norm(beta - oracle) <= 1e-12 * np.linalg.norm(oracle)
    assert np.linalg.norm(M @ beta - y) <= 1e-10 * np.linalg.norm(y)


def test_tikhonov_tall_well_conditioned_bound_active_lands_on_bound():
    A, cols, y = _tall_well_conditioned(15)
    free, *_ = np.linalg.lstsq(A @ cols, y, rcond=None)
    bound = 0.3 * np.linalg.norm(free)
    beta = tikhonov_lsq(A @ cols, y, norm_bound=bound)
    assert abs(np.linalg.norm(beta) - bound) <= 1e-8 * bound


def test_tikhonov_lapack_qr_failure_falls_back_to_svd(monkeypatch):
    # a nonzero info from any of the QR path's four routines, each called
    # once, sends the fit to the SVD path
    A, cols, y = _tall_well_conditioned(16)
    oracle, live = _svd_min_norm(A @ cols, y)
    assert live == 24
    routines = ("zgeqrf", "ztrcon", "zunmqr", "ztrtrs")
    real = {name: getattr(scipy.linalg.lapack, name) for name in routines}
    for failing in routines:
        calls = []

        def logged(name):
            def call(*args, **kwargs):
                calls.append(name)
                out = real[name](*args, **kwargs)
                return (*out[:-1], -1) if name == failing else out
            return call

        for name in routines:
            monkeypatch.setattr(scipy.linalg.lapack, name, logged(name))
        beta = tikhonov_lsq(A @ cols, y, norm_bound=np.inf)
        assert calls == list(routines[:routines.index(failing) + 1])
        assert np.array_equal(beta, oracle)


def test_tikhonov_ridge_bracket_failure_raises():
    # 200 doublings of the ridge parameter cannot shrink beta to a 1e-300 ball
    A, cols, y = _tall_well_conditioned(16)
    with pytest.raises(NumericalFailureError,
                       match="^tikhonov_lsq: failed to bracket the ridge parameter$") as info:
        tikhonov_lsq(A @ cols, y, norm_bound=1e-300)
    assert info.value.diagnostics["norm_bound"] == 1e-300
    assert info.value.diagnostics["hi"] > 1e60


def test_tikhonov_bisection_cap_raises(monkeypatch):
    A, cols, y = _tall_well_conditioned(15)
    free, *_ = np.linalg.lstsq(A @ cols, y, rcond=None)
    monkeypatch.setattr(linalg, "TIKHONOV_MAX_BISECT", 3)
    with pytest.raises(NumericalFailureError,
                       match="^tikhonov_lsq: bisection did not converge in 3 iterations$") as info:
        tikhonov_lsq(A @ cols, y, norm_bound=0.3 * np.linalg.norm(free))
    assert info.value.diagnostics["lo"] < info.value.diagnostics["hi"]


def test_tikhonov_input_validation():
    y = np.ones(3)
    with pytest.raises(InvalidInputError, match="^y must have at least one entry$"):
        tikhonov_lsq(np.ones((0, 1)), np.ones(0), norm_bound=1.0)
    with pytest.raises(InvalidInputError):
        tikhonov_lsq(np.zeros((3, 0)), y, norm_bound=1.0)
    with pytest.raises(InvalidInputError):
        tikhonov_lsq(np.ones((3, 1)), y, norm_bound=0.0)
    with pytest.raises(InvalidInputError, match="y length does not match"):
        tikhonov_lsq(np.ones((4, 1)), y, norm_bound=1.0)

