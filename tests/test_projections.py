"""Support identification backends, the exhaustive oracle, quality ratios."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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
    mismatch,
    optimal_projection,
    project_support,
    run_projection_study,
    synthesize,
)
from sscosamp import bench, projections
from sscosamp.projections import top_k

from _fixtures import (projection_residual, random_complex, reference_mismatch,
                       reference_oracle, same_bits, unit_norm_dictionary)

ALL_BACKENDS = [
    ThresholdBackend(),
    OMPBackend(),
    CoSaMPBackend(),
    L1Backend(),
    ExhaustiveBackend(),
]


def test_threshold_renormalizes_scores():
    # raw magnitudes would pick the scale-100 columns; normalized scores don't
    D = build_rescaled_identity(4, 100.0)
    z = np.array([1.0, 2.0, 3.0, 4.0])
    assert project_support(ThresholdBackend(), D, z, 2) == (2, 3)


@pytest.mark.parametrize("D", [build_overcomplete_dft(4, 2), build_rescaled_identity(6, 100.0)],
                         ids=["dft", "rescaled-identity"])
def test_l1_backend_answers_the_zero_vector_with_the_first_k_columns(D):
    # basis_pursuit_denoise returns zeros and top_k keeps the lowest indices
    for k in (1, 3):
        assert L1Backend().support(D, np.zeros(D.n), k) == tuple(range(k))


def test_every_backend_finds_an_exact_atom():
    D = build_overcomplete_dft(8, 1)
    z = D.matrix[:, 5].copy()
    for backend in ALL_BACKENDS:
        assert project_support(backend, D, z, 1) == (5,)


def test_omp_matches_exhaustive_on_separated_pairs():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        D = unit_norm_dictionary(rng, 8, 12)
        coeffs = draw_sparse_coefficients(12, 2, "separated", seed, min_gap=4)
        z = synthesize(D, coeffs)
        omp = project_support(OMPBackend(), D, z, 2)
        exact = project_support(ExhaustiveBackend(), D, z, 2)
        assert omp == exact


def test_cardinality_always_k():
    rng = np.random.default_rng(17)
    D = unit_norm_dictionary(rng, 10, 14)
    z = random_complex(rng, 10)
    for backend in ALL_BACKENDS:
        for k in (1, 2, 3, 4):
            support = project_support(backend, D, z, k)
            assert len(support) == k
            assert len(set(support)) == k
            assert support == tuple(sorted(support))


def test_backends_never_beat_the_oracle():
    rng = np.random.default_rng(23)
    for _ in range(5):
        D = unit_norm_dictionary(rng, 8, 12)
        z = random_complex(rng, 8)
        _, opt_proj = optimal_projection(D, z, 2)
        opt_res = float(np.linalg.norm(z - opt_proj))
        for backend in ALL_BACKENDS:
            support = project_support(backend, D, z, 2)
            assert projection_residual(D, support, z) >= opt_res - 1e-10


def test_threshold_exact_on_orthogonal_columns():
    rng = np.random.default_rng(29)
    for _ in range(10):
        Q, _ = np.linalg.qr(random_complex(rng, 8, 8))
        scales = rng.uniform(0.5, 20.0, size=8)
        D = Dictionary(Q * scales)
        z = random_complex(rng, 8)
        support = project_support(ThresholdBackend(), D, z, 3)
        _, opt_proj = optimal_projection(D, z, 3)
        assert projection_residual(D, support, z) <= np.linalg.norm(z - opt_proj) + 1e-10


def test_scale_equivariance():
    rng = np.random.default_rng(31)
    D = unit_norm_dictionary(rng, 8, 12)
    z = random_complex(rng, 8)
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
    rng = np.random.default_rng(37)
    D = unit_norm_dictionary(rng, 6, 10)
    z = random_complex(rng, 6)
    _, opt_proj = optimal_projection(D, z, 2)
    opt_res = np.linalg.norm(z - opt_proj)
    for sup in itertools.combinations(range(10), 2):
        B = D.columns(sup)
        proj = B @ np.linalg.solve(B.conj().T @ B, B.conj().T @ z)
        assert opt_res <= np.linalg.norm(z - proj) + 1e-10


def test_optimal_projection_enumeration_cap():
    rng = np.random.default_rng(41)
    D = unit_norm_dictionary(rng, 8, 30)
    with pytest.raises(InstanceTooLargeError):
        optimal_projection(D, random_complex(rng, 8), 15)


def test_optimal_projection_reuses_only_its_last_answer_on_equal_inputs(monkeypatch):
    scans = []
    scan = projections.exhaustive_argmin
    monkeypatch.setattr(projections, "exhaustive_argmin",
                        lambda *args: scans.append(args) or scan(*args))
    rng = np.random.default_rng(67)
    M = random_complex(rng, 8, 12)
    D = Dictionary(M)
    z = random_complex(rng, 8)
    support, proj = optimal_projection(D, z, 2)
    expected = proj.copy()
    # an equal z gets the last answer back, as a fresh copy
    again, proj_again = optimal_projection(D, z.copy(), 2)
    assert len(scans) == 1
    assert again == support and proj_again is not proj
    # projections changed in place by the caller do not change the next answer
    proj[:] = 0.0
    proj_again[:] = 0.0
    assert np.array_equal(optimal_projection(D, z, 2)[1], expected)
    assert len(scans) == 1
    # a second dictionary built from the same matrix is scanned again
    twin_support, twin_proj = optimal_projection(Dictionary(M), z, 2)
    assert len(scans) == 2
    assert twin_support == support and np.array_equal(twin_proj, expected)
    # so is a different k
    assert optimal_projection(D, z, 3)[0] == reference_oracle(D, z, 3)[1]
    assert len(scans) == 3
    # and a z changed in place since the last call
    assert optimal_projection(D, z, 2)[0] == support
    z[:] = random_complex(rng, 8)
    assert optimal_projection(D, z, 2)[0] == reference_oracle(D, z, 2)[1]
    assert len(scans) == 5


def _count_builds(monkeypatch):
    builds = []
    build = projections.support_bases
    monkeypatch.setattr(projections, "support_bases",
                        lambda *args: builds.append(args) or build(*args))
    return builds


def test_oracle_and_mismatch_share_one_scan_per_dictionary_and_k(monkeypatch):
    builds = _count_builds(monkeypatch)
    rng = np.random.default_rng(71)
    M = rng.standard_normal((8, 12))  # real, so every Dictionary(M) casts a new matrix
    D = Dictionary(M)
    z1, z2, x = (random_complex(rng, 8) for _ in range(3))
    # two vectors through the oracle and one through mismatch: one scan
    assert optimal_projection(D, z1, 2)[0] == reference_oracle(D, z1, 2)[1]
    assert optimal_projection(D, z2, 2)[0] == reference_oracle(D, z2, 2)[1]
    assert mismatch(D, x, 2).value == pytest.approx(reference_mismatch(D, x, 2), rel=1e-12)
    assert len(builds) == 1
    # a twin dictionary keeps its own memo, so it is scanned again
    twin = Dictionary(M)
    assert twin.matrix is not D.matrix
    assert optimal_projection(twin, z1, 2)[0] == reference_oracle(D, z1, 2)[1]
    assert len(builds) == 2
    # so is a different k, which then replaces the kept bases
    assert optimal_projection(D, z1, 3)[0] == reference_oracle(D, z1, 3)[1]
    assert optimal_projection(D, z2, 2)[0] == reference_oracle(D, z2, 2)[1]
    assert len(builds) == 4
    # the bases belong to the dictionary: a new one on the same array starts cold
    assert optimal_projection(Dictionary(D.matrix), z1, 2)[0] == reference_oracle(D, z1, 2)[1]
    assert len(builds) == 5

    # a scorer that writes into its stack does not reach the kept bases
    def vandal(Q):
        Q[:] = 0.0
        return np.zeros(len(Q))

    kept = [Q.copy() for _, Q, _ in D._oracle_memo["bases"][1]]
    projections.exhaustive_argmin(D, 2, vandal, lambda s: (0.0, None), 1.0)
    assert all(same_bits(Q, copy) for (_, Q, _), copy in zip(D._oracle_memo["bases"][1], kept))
    assert optimal_projection(D, x, 2)[0] == reference_oracle(D, x, 2)[1]
    assert len(builds) == 5


def test_each_dictionary_keeps_its_own_memo(monkeypatch):
    rng = np.random.default_rng(79)
    dictionaries = [unit_norm_dictionary(rng, 8, 12) for _ in range(2)]
    builds = _count_builds(monkeypatch)
    for _ in range(3):
        for D in dictionaries:
            z, x = random_complex(rng, 8), random_complex(rng, 8)
            assert optimal_projection(D, z, 2)[0] == reference_oracle(D, z, 2)[1]
            assert mismatch(D, x, 2).value == pytest.approx(reference_mismatch(D, x, 2),
                                                            rel=1e-12)
    assert len(builds) == 2
    fresh = Dictionary(dictionaries[0].matrix)
    assert "bases" not in fresh._oracle_memo
    optimal_projection(fresh, z, 2)
    assert len(builds) == 3


def test_multi_chunk_scans_are_repeated_and_never_kept(monkeypatch):
    builds = _count_builds(monkeypatch)
    monkeypatch.setattr(projections, "SUPPORT_CHUNK_ELEMENTS", 24)  # 3 supports at n=8, k=1
    rng = np.random.default_rng(73)
    D = unit_norm_dictionary(rng, 8, 12)
    small = unit_norm_dictionary(rng, 8, 3)
    z = random_complex(rng, 8)
    for k in (1, 1, 2):
        y = random_complex(rng, 8)
        assert optimal_projection(D, y, k)[0] == reference_oracle(D, y, k)[1]
        assert mismatch(D, z, k).value == pytest.approx(reference_mismatch(D, z, k), rel=1e-12)
        assert "bases" not in D._oracle_memo
    assert len(builds) == 6
    # three supports fit one chunk: kept, then left in place by a streamed scan at another k
    optimal_projection(small, z, 1)
    mismatch(small, z, 1)
    assert len(builds) == 7
    kept = small._oracle_memo["bases"]
    assert kept[0] == 1 and len(kept[1]) == 1
    mismatch(small, z, 2)
    assert len(builds) == 8
    assert small._oracle_memo["bases"] is kept


@st.composite
def _oracle_cases(draw):
    n = draw(st.integers(4, 8))
    k = draw(st.sampled_from([1, 2, 3]))
    d = draw(st.integers(k, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = random_complex(rng, n, d)
    for dst, src in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)),
                                  max_size=3)):
        M[:, dst] = M[:, src]  # duplicate columns
    zs = []
    for exact in draw(st.lists(st.booleans(), min_size=2, max_size=4)):
        if exact:  # in a k-column span, so the least residual ties at about 0
            cols = rng.choice(d, size=k, replace=False)
            zs.append(M[:, cols] @ random_complex(rng, k))
        else:
            zs.append(random_complex(rng, n))
    chunk = draw(st.sampled_from([projections.SUPPORT_CHUNK_ELEMENTS, 24]))
    return Dictionary(M), k, zs, chunk


def _oracle_answers(D, z, k, cold):
    support, proj = optimal_projection(Dictionary(D.matrix) if cold else D, z, k)
    report = mismatch(Dictionary(D.matrix) if cold else D, z, k)
    return support, proj, report.value, report.minimizing_coeffs


@settings(max_examples=60, deadline=None)
@given(_oracle_cases())
def test_kept_bases_give_the_answers_of_a_cold_scan(case):
    D, k, zs, chunk = case
    with mock.patch.object(projections, "SUPPORT_CHUNK_ELEMENTS", chunk):
        warm = [_oracle_answers(D, z, k, False) for z in zs]  # all but the first scan hit
        for z, (support, proj, value, coeffs) in zip(zs, warm):
            cold_support, cold_proj, cold_value, cold_coeffs = _oracle_answers(D, z, k, True)
            assert support == cold_support and same_bits(proj, cold_proj)
            assert value == cold_value and coeffs.support == cold_coeffs.support
            assert same_bits(coeffs.values, cold_coeffs.values)


def test_projection_argument_validation():
    D = build_overcomplete_dft(4, 2)
    with pytest.raises(InvalidInputError):
        project_support(ThresholdBackend(), D, np.zeros(4), 9)
    with pytest.raises(InvalidInputError):
        project_support(ThresholdBackend(), D, np.zeros(5), 2)
    with pytest.raises(InvalidInputError):
        optimal_projection(D, np.array([1.0, np.inf, 0.0, 0.0]), 2)
    with pytest.raises(InvalidInputError):
        make_backend("sorting-hat")


class _FixedBackend:
    def __init__(self, support):
        self._support = support

    def support(self, dictionary, z, k):
        return self._support


@pytest.mark.parametrize("support", [(0,), (1, 1)], ids=["count", "repeat"])
def test_project_support_refuses_a_backend_that_breaks_the_cardinality_contract(support):
    with pytest.raises(NumericalFailureError, match="indices, expected 2$"):
        project_support(_FixedBackend(support), build_overcomplete_dft(4, 2), np.ones(4), 2)


@pytest.mark.parametrize("oracle", [optimal_projection, mismatch], ids=["optimal", "mismatch"])
def test_oracles_reject_a_z_whose_norm_overflows(oracle):
    # the oracle used to score such a z, with a RuntimeWarning, and report inf
    D = build_overcomplete_dft(4, 2)
    with pytest.raises(InvalidInputError, match="^the norm of z overflows$"):
        oracle(D, np.full(4, 1e160), 2)
    with pytest.raises(InvalidInputError, match="^z contains non-finite entries$"):
        oracle(D, np.array([1.0, math.nan, 0.0, 0.0]), 2)


def test_quality_exhaustive_self_comparison_is_zero():
    rng = np.random.default_rng(43)
    D = unit_norm_dictionary(rng, 8, 12)
    z = random_complex(rng, 8)
    q = evaluate_projection_quality(D, z, 2, ExhaustiveBackend())
    assert q.eps1 == 0.0 and q.eps2 == 0.0


def test_quality_threshold_zero_on_orthonormal():
    rng = np.random.default_rng(47)
    D = build_overcomplete_dft(8, 1)
    z = random_complex(rng, 8)
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
        D = unit_norm_dictionary(rng, 8, 12)
        z = random_complex(rng, 8)
        opt_sup, opt_proj = optimal_projection(D, z, 2)
        for backend in (ThresholdBackend(), OMPBackend(), CoSaMPBackend(), L1Backend()):
            q = evaluate_projection_quality(D, z, 2, backend)
            est_sup = project_support(backend, D, z, 2)
            est_proj = build_projector(D.columns(est_sup)).apply(z)
            gap = np.linalg.norm(opt_proj - est_proj)
            bound = min(q.eps1 * np.linalg.norm(opt_proj),
                        q.eps2 * np.linalg.norm(z - opt_proj))
            assert gap <= bound + 1e-10


def test_l1_backend_nonconvergence_raises_with_diagnostics(monkeypatch):
    rng = np.random.default_rng(59)
    D = unit_norm_dictionary(rng, 8, 16)
    z = random_complex(rng, 8)
    # the last step's residuals, pinned; 13 is not a multiple of
    # RHO_BALANCE_EVERY, so the residuals there are evaluated only because it
    # is the last iteration
    for cap, primal, dual in ((1, "0.6463558242491907", "1.0660259187686922e-06"),
                              (13, "0.24809159702442787", "0.10073928427639893")):
        monkeypatch.setattr(projections, "ADMM_MAX_ITERS", cap)
        with pytest.raises(NumericalFailureError) as info:
            project_support(L1Backend(), D, z, 2)
        assert info.value.iteration == cap
        assert repr(info.value.diagnostics["primal_residual"]) == primal
        assert repr(info.value.diagnostics["dual_residual"]) == dual
        assert info.value.diagnostics["rho"] == 1.0


class _RecordingL1Backend:
    """``L1Backend`` that keeps every support it returns."""

    def __init__(self):
        self.supports = []

    def support(self, dictionary, z, k):
        self.supports.append(L1Backend().support(dictionary, z, k))
        return self.supports[-1]


def _record_admm_runs(monkeypatch):
    """Log ``(relax, failed)`` for every ADMM run of ``basis_pursuit_denoise``."""
    real = projections._admm
    runs = []

    def recording(W, MH, zn, sig, relax):
        v, failure = real(W, MH, zn, sig, relax)
        runs.append((relax, v is None))
        return v, failure

    monkeypatch.setattr(projections, "_admm", recording)
    return runs


def test_l1_backend_fails_at_the_iteration_cap_on_one_study_vector(monkeypatch):
    D = build_overcomplete_dft(16, 2)
    backend = _RecordingL1Backend()
    monkeypatch.setattr(bench, "make_backend", lambda name: backend)
    # seed 101, separated, trial 3 ran out of a 4000-iteration cap; it
    # converges within ADMM_MAX_ITERS
    run_projection_study(D, 2, ("separated",), ("l1",), 4, 101)
    assert backend.supports[3] == (12, 25)
    # at a 1000-iteration cap seed 40's separated trial 4 fails in the plain
    # run and in the relaxed rerun; the error carries the plain run's residuals
    monkeypatch.setattr(projections, "ADMM_MAX_ITERS", 1000)
    runs = _record_admm_runs(monkeypatch)
    with pytest.raises(NumericalFailureError) as info:
        run_projection_study(D, 2, ("separated", "clustered"), ("l1",), 12, 40)
    assert [(r.pattern, r.trial) for r in info.value.rows][-1] == ("separated", 3)
    assert runs[-2:] == [(1.0, True), (projections.ADMM_RELAXATION, True)]
    assert info.value.iteration == 1000
    assert info.value.diagnostics["rho"] == 8.0
    assert repr(info.value.diagnostics["primal_residual"]) == "9.819884472587632e-06"
    assert repr(info.value.diagnostics["dual_residual"]) == "2.9777138142352073e-06"


def test_l1_solve_that_cycles_answers_by_the_relaxed_rerun(monkeypatch):
    # seed 40, clustered, trial 11 failed at the 8000 cap: rho cycles between
    # 0.5 and 2 in the plain run; the over-relaxed rerun converges, and its
    # support is the exhaustive oracle's
    D = build_overcomplete_dft(16, 2)
    runs = _record_admm_runs(monkeypatch)
    rows = run_projection_study(D, 2, ("separated", "clustered"), ("l1", "exhaustive"), 12, 40)
    assert runs[-2:] == [(1.0, True), (projections.ADMM_RELAXATION, False)]
    assert runs.count((1.0, True)) == 1
    l1, exhaustive = rows[-2:]
    assert (l1.backend, l1.pattern, l1.trial) == ("l1", "clustered", 11)
    assert l1.eps1 == l1.eps2 == exhaustive.eps1 == 0.0


def test_basis_pursuit_woodbury_step_solves_a_tall_system():
    # the Woodbury operator serves tall and square systems as it serves wide ones
    rng = np.random.default_rng(67)
    M = random_complex(rng, 12, 8)
    a0 = random_complex(rng, 8)
    z = M @ a0
    est = basis_pursuit_denoise(M, z, 1e-8 * np.linalg.norm(z))
    assert np.linalg.norm(est - a0) <= 1e-5 * np.linalg.norm(a0)


def _perturbed_dft_vector(D, seed):
    rng = np.random.default_rng(seed)
    x = D.columns((5, 21)) @ random_complex(rng, 2)
    bump = random_complex(rng, 16)
    return x + 0.1 * np.linalg.norm(x) * bump / np.linalg.norm(bump)


def test_l1_backend_converges_with_residual_balancing(monkeypatch):
    # with a fixed rho = 1 seeds 0 and 1 ran out of iterations at 4000
    D = build_overcomplete_dft(16, 2)
    for seed in range(4):
        z = _perturbed_dft_vector(D, seed)
        assert project_support(L1Backend(), D, z, 2) == (5, 21)
        with monkeypatch.context() as patch:
            patch.setattr(projections, "ADMM_MAX_ITERS", 50)
            with pytest.raises(NumericalFailureError) as info:
                project_support(L1Backend(), D, z, 2)
        assert info.value.diagnostics["rho"] > 1.0  # balancing raised it


def test_basis_pursuit_recovers_sparse_on_orthonormal_system():
    rng = np.random.default_rng(61)
    Q, _ = np.linalg.qr(random_complex(rng, 10, 10))
    alpha = np.zeros(10, dtype=complex)
    alpha[[2, 7]] = [1.5, -2.0 + 1.0j]
    z = Q @ alpha
    est = basis_pursuit_denoise(Q, z, 1e-8 * np.linalg.norm(z))
    assert np.linalg.norm(est - alpha) < 1e-3


def test_basis_pursuit_edge_cases():
    assert np.allclose(basis_pursuit_denoise(np.eye(3), np.zeros(3), 0.1), 0.0)
    with pytest.raises(InvalidInputError):
        basis_pursuit_denoise(np.eye(3), np.zeros(4), 0.1)
    # a NaN radius used to run all ADMM_MAX_ITERS iterations and fail numerically
    for bad_sigma in (-1.0, math.nan):
        with pytest.raises(InvalidInputError):
            basis_pursuit_denoise(np.eye(3), np.ones(3), bad_sigma)


def test_basis_pursuit_raises_when_the_norm_of_z_overflows():
    # it used to return all-NaN coefficients: z / inf is 0 and sigma / inf 0
    M = np.random.default_rng(3).standard_normal((4, 8))
    with pytest.raises(NumericalFailureError, match="norm of z is not finite"):
        basis_pursuit_denoise(M, np.full(4, 1e154), 0.01)


def test_basis_pursuit_cholesky_failure_raises(monkeypatch):
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic Cholesky breakdown")

    monkeypatch.setattr(scipy.linalg, "cho_factor", fails)
    with pytest.raises(NumericalFailureError,
                       match="^basis_pursuit_denoise: synthetic Cholesky breakdown$"):
        basis_pursuit_denoise(np.eye(3), np.ones(3), 0.1)


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


def test_omp_backend_supports_pinned():
    # supports recorded before the backend moved onto omp_steps
    D = build_overcomplete_dft(16, 2)
    rng = np.random.default_rng(2026)
    z1 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    z2 = D.matrix[:, [3, 4, 20]] @ np.array([1.0, -0.5j, 0.8]) + 0.05 * z1
    backend = OMPBackend()
    assert [backend.support(D, z1, k) for k in (1, 2, 3)] == [(17,), (9, 17), (9, 14, 17)]
    assert [backend.support(D, z2, k) for k in (1, 2, 3)] == [(3,), (3, 20), (3, 5, 20)]
