"""Dictionaries, sparse coefficients, sensing, measurements."""

import math

import numpy as np
import pytest

from sscosamp import (
    Dictionary,
    InvalidInputError,
    SensingMatrix,
    SparseCoefficients,
    build_overcomplete_dft,
    build_rescaled_identity,
    draw_gaussian_sensing,
    draw_sparse_coefficients,
    measure,
    synthesize,
)


def test_dft_redundancy_one_is_unitary():
    D = build_overcomplete_dft(8, 1)
    gram = D.matrix.conj().T @ D.matrix
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10


def test_dft_columns_unit_norm():
    D = build_overcomplete_dft(16, 4)
    assert np.max(np.abs(D.column_norms - 1.0)) < 1e-12
    assert D.d == 64 and D.redundancy == 4.0


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
    with pytest.raises(InvalidInputError):
        draw_sparse_coefficients(10, 2, "zigzag", 0)


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


def test_synthesize_matches_dense_multiply():
    rng = np.random.default_rng(4)
    D = Dictionary(rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9)))
    coeffs = draw_sparse_coefficients(9, 3, "uniform", 4)
    x = synthesize(D, coeffs)
    oracle = D.matrix @ coeffs.dense()
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
    assert pure.noise_norm == 1.0


def test_measure_noise_norm_exact_and_reproducible():
    rng = np.random.default_rng(2)
    A = draw_gaussian_sensing(6, 12, 5)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    m1 = measure(A, x, 0.25, seed=9)
    m2 = measure(A, x, 0.25, seed=9)
    assert np.array_equal(m1.y, m2.y)
    assert abs(np.linalg.norm(m1.y - A.matrix @ x) - 0.25) < 1e-12


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


def _complex_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_analysis_is_bit_equal_to_adjoint_product():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((12, 30)) + 1j * rng.standard_normal((12, 30))
    for D in (Dictionary(M), build_rescaled_identity(16, 100.0)):
        z = _complex_vector(rng, D.n)
        expected = D.matrix.conj().T @ z
        assert np.array_equal(D.analysis(z), expected)
        assert np.array_equal(D.analysis(z), expected)  # cached conjugate reused


@pytest.mark.parametrize("n", [2, 3, 16, 256])
@pytest.mark.parametrize("redundancy", [1, 2, 4])
def test_dft_analysis_matches_adjoint_product(n, redundancy):
    D = build_overcomplete_dft(n, redundancy)
    z = _complex_vector(np.random.default_rng(n * 10 + redundancy), n)
    expected = D.matrix.conj().T @ z
    got = D.analysis(z)
    assert got.shape == (D.d,)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_hand_built_dft_kind_keeps_matrix_path():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    D = Dictionary(M, kind="dft")
    z = _complex_vector(rng, 8)
    assert np.array_equal(D.analysis(z), M.conj().T @ z)
