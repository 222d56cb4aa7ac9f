"""Dictionaries, sparse coefficients, sensing, measurements."""

import math

import numpy as np
import pytest

from sscosamp import (
    Dictionary,
    InvalidInputError,
    Measurements,
    SensingMatrix,
    SparseCoefficients,
    build_overcomplete_dft,
    build_rescaled_identity,
    draw_gaussian_sensing,
    draw_sparse_coefficients,
    measure,
    synthesize,
)

from _fixtures import random_complex, same_bits


def test_dft_redundancy_one_is_unitary():
    D = build_overcomplete_dft(8, 1)
    gram = D.matrix.conj().T @ D.matrix
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10


def test_dft_columns_unit_norm():
    D = build_overcomplete_dft(16, 4)
    assert np.max(np.abs(D.column_norms - 1.0)) < 1e-12
    assert D.n == 16 and D.d == 64


def test_dft_adjacent_coherence_closed_form():
    # oracle: geometric-sum closed form 1/(n sin(pi/(2n))) for 2x redundancy
    n = 256
    D = build_overcomplete_dft(n, 2)
    coherence = D.adjacent_coherence()
    closed = 1.0 / (n * math.sin(math.pi / (2 * n)))
    assert coherence > 0.63
    assert abs(coherence - closed) < 1e-3


def test_dft_input_validation():
    with pytest.raises(InvalidInputError):
        build_overcomplete_dft(1, 2)
    with pytest.raises(InvalidInputError):
        build_overcomplete_dft(8, 0)
    with pytest.raises(InvalidInputError):
        build_overcomplete_dft(100_000, 100_000)


def test_rescaled_identity_diagonal():
    D = build_rescaled_identity(4, 100.0)
    assert np.allclose(D.matrix, np.diag([100.0, 100.0, 1.0, 1.0]))
    assert np.allclose(D.column_norms, [100.0, 100.0, 1.0, 1.0])


def test_rescaled_identity_trivial_and_errors():
    assert np.allclose(build_rescaled_identity(2, 1.0).matrix, np.eye(2))
    with pytest.raises(InvalidInputError):
        build_rescaled_identity(5, 100.0)
    with pytest.raises(InvalidInputError):
        build_rescaled_identity(4, 0.0)
    with pytest.raises(InvalidInputError, match="^n must be >= 2$"):
        build_rescaled_identity(0, 1.0)


def test_rescaled_identity_is_refused_past_the_size_cap_before_any_allocation(monkeypatch):
    # 10002**2 entries exceed MAX_DICT_ENTRIES; np.diag would ask for 800 MB
    def no_diag(*args):
        raise AssertionError("no dictionary may be built")

    monkeypatch.setattr(np, "diag", no_diag)
    with pytest.raises(InvalidInputError, match=r"too large \(10002x10002\)"):
        build_rescaled_identity(10002, 100.0)


@pytest.mark.parametrize("build", [lambda: Dictionary(np.diag([1e160, 1.0])),
                                   lambda: build_rescaled_identity(4, 1e160)],
                         ids=["dictionary", "rescaled-identity"])
def test_dictionary_rejects_column_norms_that_overflow(build):
    # the norms used to be inf, and drip's distortions NaN, with a RuntimeWarning
    with pytest.raises(InvalidInputError, match="^dictionary column norms overflow$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: Dictionary(np.ones(3)), "^dictionary matrix must be 2-D and non-empty"),
    (lambda: SensingMatrix(np.ones(3)), "^sensing matrix must be 2-D and non-empty"),
    (lambda: SensingMatrix(np.array([[1.0, np.inf]])),
     "^sensing matrix contains non-finite entries$"),
    (lambda: Measurements(np.ones((2, 2))), "^y must be a vector$"),
    (lambda: measure(SensingMatrix(np.eye(4)), np.ones(3), 0.0), "^x must be a length-4 vector$"),
], ids=["dictionary-1d", "sensing-1d", "sensing-inf", "y-2d", "x-length"])
def test_model_inputs_of_the_wrong_shape_or_value_are_refused(build, message):
    with pytest.raises(InvalidInputError, match=message):
        build()


def test_adjacent_coherence_of_one_column_is_zero():
    assert Dictionary(np.ones((3, 1))).adjacent_coherence() == 0.0


def test_draw_at_zero_sparsity_is_empty():
    coeffs = draw_sparse_coefficients(8, 0, "uniform", 0)
    assert coeffs.support == () and coeffs.values.shape == (0,)


def test_dictionary_rejects_zero_columns():
    M = np.eye(3)
    M[:, 1] = 0.0
    with pytest.raises(InvalidInputError):
        Dictionary(M)


def test_dictionary_columns_range_checked():
    D = build_overcomplete_dft(4, 2)
    with pytest.raises(InvalidInputError):
        D.columns([8])
    with pytest.raises(InvalidInputError):
        D.columns([])


def test_full_support_when_k_equals_d():
    coeffs = draw_sparse_coefficients(10, 10, "uniform", 0)
    assert coeffs.support == tuple(range(10))


def test_separated_support_gaps():
    for seed in range(20):
        coeffs = draw_sparse_coefficients(1024, 8, "separated", seed, min_gap=8)
        sup = coeffs.support
        assert len(sup) == 8
        assert all(b - a >= 9 for a, b in zip(sup, sup[1:]))


def test_separated_support_cyclic_wraparound():
    for seed in range(20):
        coeffs = draw_sparse_coefficients(64, 4, "separated", seed, min_gap=8, cyclic=True)
        sup = coeffs.support
        assert all(b - a >= 9 for a, b in zip(sup, sup[1:]))
        assert (sup[0] + 64) - sup[-1] >= 9


def test_clustered_support_is_one_block():
    for seed in range(20):
        coeffs = draw_sparse_coefficients(1024, 8, "clustered", seed)
        sup = coeffs.support
        assert sup == tuple(range(sup[0], sup[0] + 8))


def test_draw_coefficients_reproducible():
    a = draw_sparse_coefficients(128, 5, "uniform", 42)
    b = draw_sparse_coefficients(128, 5, "uniform", 42)
    assert a.support == b.support
    assert np.array_equal(a.values, b.values)


def test_draw_coefficients_validation():
    with pytest.raises(InvalidInputError):
        draw_sparse_coefficients(10, 11, "uniform", 0)
    with pytest.raises(InvalidInputError):
        draw_sparse_coefficients(16, 4, "separated", 0, min_gap=8)  # 4*9 > 16
    with pytest.raises(InvalidInputError, match="separated indices infeasible"):
        # the separated half, 4*9 > 16; it used to raise numpy's ValueError
        draw_sparse_coefficients(16, 8, "hybrid", 0, min_gap=8)
    with pytest.raises(InvalidInputError):
        draw_sparse_coefficients(10, 2, "zigzag", 0)
    with pytest.raises(InvalidInputError, match="^min_gap must be >= 0$"):
        draw_sparse_coefficients(16, 2, "separated", 0, min_gap=-1)
    with pytest.raises(InvalidInputError, match="^d must be >= 1$"):
        draw_sparse_coefficients(0, 0, "uniform", 0)


def test_real_valued_coefficients_flag():
    coeffs = draw_sparse_coefficients(32, 4, "uniform", 3, complex_values=False)
    assert np.allclose(coeffs.values.imag, 0.0)


def test_sparse_coefficients_invariants():
    with pytest.raises(InvalidInputError):
        SparseCoefficients(support=(3, 1), values=np.ones(2), ambient_dim=5)
    with pytest.raises(InvalidInputError):
        SparseCoefficients(support=(0, 7), values=np.ones(2), ambient_dim=5)
    with pytest.raises(InvalidInputError):
        SparseCoefficients(support=(0,), values=np.ones(2), ambient_dim=5)
    with pytest.raises(InvalidInputError, match="^coefficient values must be finite$"):
        SparseCoefficients(support=(0,), values=np.array([np.nan]), ambient_dim=5)


def test_synthesize_matches_dense_multiply():
    rng = np.random.default_rng(4)
    D = Dictionary(rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9)))
    coeffs = draw_sparse_coefficients(9, 3, "uniform", 4)
    x = synthesize(D, coeffs)
    dense = np.zeros(9, dtype=np.complex128)
    dense[list(coeffs.support)] = coeffs.values
    oracle = D.matrix @ dense
    assert np.max(np.abs(x - oracle)) < 1e-12


def test_synthesize_trivial_cases():
    D = Dictionary(np.eye(3))
    empty = SparseCoefficients(support=(), values=np.zeros(0), ambient_dim=3)
    assert np.allclose(synthesize(D, empty), 0.0)
    spike = SparseCoefficients(support=(1,), values=np.array([5.0]), ambient_dim=3)
    assert np.allclose(synthesize(D, spike), [0.0, 5.0, 0.0])
    with pytest.raises(InvalidInputError):
        synthesize(D, SparseCoefficients(support=(0,), values=np.ones(1), ambient_dim=4))


def test_measure_noiseless_and_pure_noise():
    A = SensingMatrix(np.eye(4))
    x = np.array([1.0, 2.0, 0.0, 0.0])
    noiseless = measure(A, x, 0.0)
    assert np.allclose(noiseless.y, x)
    pure = measure(A, np.zeros(4), 1.0, seed=0)
    assert abs(np.linalg.norm(pure.y) - 1.0) < 1e-12


def test_measure_noise_norm_exact_and_reproducible():
    rng = np.random.default_rng(2)
    A = draw_gaussian_sensing(6, 12, 5)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    m1 = measure(A, x, 0.25, seed=9)
    m2 = measure(A, x, 0.25, seed=9)
    assert np.array_equal(m1.y, m2.y)
    assert abs(np.linalg.norm(m1.y - A.matrix @ x) - 0.25) < 1e-12


@pytest.mark.parametrize("noise_norm", [-1.0, math.nan, math.inf, -math.inf])
def test_measure_rejects_a_negative_or_non_finite_noise_norm(noise_norm):
    # a NaN norm used to give a noiseless y tagged noise_norm=nan
    A = SensingMatrix(np.eye(4))
    with pytest.raises(InvalidInputError, match="noise_norm"):
        measure(A, np.ones(4), noise_norm, seed=0)


@pytest.mark.parametrize("y", [[1e200, 1e200], [math.nan, 0.0], [0.0, math.inf]],
                         ids=["norm-overflows", "nan", "inf"])
def test_measurements_reject_a_y_whose_norm_is_not_finite(y):
    # an overflowing ||y|| used to reach snr_db or ADMM and abort a sweep
    with pytest.raises(InvalidInputError, match="non-finite entries or its norm overflows"):
        Measurements(np.array(y))


def test_measure_rejects_noise_that_overflows_the_norm_of_y():
    A = SensingMatrix(np.eye(4))
    assert np.isfinite(np.linalg.norm(measure(A, np.ones(4), 1e154, seed=0).y))
    with pytest.raises(InvalidInputError, match="norm overflows"):
        measure(A, np.ones(4), 2e154, seed=0)


def test_gaussian_sensing_deterministic_and_scaled():
    A1 = draw_gaussian_sensing(4, 4, 123)
    A2 = draw_gaussian_sensing(4, 4, 123)
    assert np.array_equal(A1.matrix, A2.matrix)
    with pytest.raises(InvalidInputError):
        draw_gaussian_sensing(8, 4, 0)

    big = draw_gaussian_sensing(128, 256, 7)
    entries = big.matrix.ravel()
    # entries ~ N(0, 1/m): the sample mean should sit within 5 standard errors
    stderr = (1.0 / math.sqrt(128)) / math.sqrt(entries.size)
    assert abs(entries.mean()) < 5 * stderr
    # squared column norms concentrate near 1
    avg_sq = float(np.mean(np.sum(big.matrix**2, axis=0)))
    assert 0.9 < avg_sq < 1.1


def test_analysis_is_bit_equal_to_adjoint_product():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((12, 30)) + 1j * rng.standard_normal((12, 30))
    for D in (Dictionary(M), build_rescaled_identity(16, 100.0)):
        z = random_complex(rng, D.n)
        expected = D.matrix.conj().T @ z
        assert np.array_equal(D.analysis(z), expected)
        assert np.array_equal(D.analysis(z), expected)  # cached conjugate reused


@pytest.mark.parametrize("n", [2, 3, 16, 256])
@pytest.mark.parametrize("redundancy", [1, 2, 4])
def test_dft_analysis_matches_adjoint_product(n, redundancy):
    D = build_overcomplete_dft(n, redundancy)
    z = random_complex(np.random.default_rng(n * 10 + redundancy), n)
    expected = D.matrix.conj().T @ z
    got = D.analysis(z)
    assert got.shape == (D.d,)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_hand_built_dft_kind_keeps_matrix_path():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    D = Dictionary(M)
    z = random_complex(rng, 8)
    assert np.array_equal(D.analysis(z), M.conj().T @ z)


@pytest.mark.parametrize("m", [32, 128])
def test_sensing_apply_and_adjoint_give_the_mixed_products_bits(m):
    # numpy casts the real matrix (and a C-ordered copy of its transpose)
    # to complex on each mixed product; the kept copies must match that
    A = draw_gaussian_sensing(m, 256, m)
    rng = np.random.default_rng(m)
    for _ in range(3):
        x = random_complex(rng, 256)
        r = random_complex(rng, m)
        assert same_bits(A.apply(x), A.matrix @ x)
        assert same_bits(A.adjoint(r), A.matrix.T @ r)


@pytest.mark.parametrize("m", [32, 128])
def test_rescaled_identity_operators_give_the_dense_bits(m):
    D = build_rescaled_identity(256, 100.0)
    A = draw_gaussian_sensing(m, 256, 5)
    rng = np.random.default_rng(6)
    z = random_complex(rng, 256)
    # like an update estimate: zero off its support, and zeros of either sign
    sparse = np.zeros(256, dtype=complex)
    sparse[[3, 140, 200]] = random_complex(rng, 3)
    signed = sparse.copy()
    signed[::2] *= -1.0
    signed[::3] = np.conj(signed[::3])
    for vec in (z, sparse, -sparse, signed):
        assert same_bits(D.analysis(vec), D.matrix.conj().T @ vec)
    for S in ([7], [0, 127, 128, 255], sorted(rng.choice(256, 24, replace=False)), [9, 2, 9]):
        assert same_bits(D.columns(S), D.matrix[:, S])
        assert same_bits(D.sense(A, S), A.matrix @ D.matrix[:, S])
    assert same_bits(D.sense(A, None), A.matrix @ D.matrix)


def test_dense_sense_gives_the_product_bits():
    D = build_overcomplete_dft(32, 2)
    A = draw_gaussian_sensing(12, 32, 4)
    assert same_bits(D.sense(A, (3, 40, 41)), A.matrix @ D.matrix[:, [3, 40, 41]])
    assert same_bits(D.sense(A, None), A.matrix @ D.matrix)


@pytest.mark.parametrize("D", [build_overcomplete_dft(8, 2), build_rescaled_identity(8, 100.0)],
                         ids=["dft", "rescaled-identity"])
def test_column_operations_reject_bad_supports(D):
    A = draw_gaussian_sensing(4, 8, 1)
    for op in (D.columns, lambda S: D.sense(A, S)):
        with pytest.raises(InvalidInputError, match="^empty support$"):
            op(())
        for S in ([D.d], [-1, 2]):
            with pytest.raises(InvalidInputError,
                               match=rf"^support indices out of range \[0, {D.d}\)$"):
                op(S)
    for support in (None, [1]):
        with pytest.raises(InvalidInputError,
                           match="^sensing matrix and dictionary disagree on n$"):
            D.sense(draw_gaussian_sensing(4, 6, 1), support)
