"""Support identification: estimate the best k-column span for a vector.

The recovery loop needs a routine that, given z and k, picks k dictionary
columns whose span captures as much of z as possible.  Finding the true
optimum is combinatorial, so practical backends are heuristics; their
quality relative to the exhaustive optimum is what the (eps1, eps2) pair
measures.

Backends are small frozen dataclasses with a ``support(dictionary, z, k)``
method returning a sorted tuple of exactly k column indices.  All
tie-breaking is lowest-index-wins, everywhere, so results are reproducible.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InstanceTooLargeError, InvalidInputError, NumericalFailureError
from .linalg import build_projector, lstsq

__all__ = [
    "ThresholdBackend",
    "OMPBackend",
    "CoSaMPBackend",
    "L1Backend",
    "ExhaustiveBackend",
    "ProjectionQuality",
    "make_backend",
    "project_support",
    "optimal_projection",
    "evaluate_projection_quality",
    "basis_pursuit_denoise",
]

# Refuse exhaustive enumeration past this many candidate supports.
DEFAULT_ENUMERATION_CAP = 2_000_000

# Ratio denominators smaller than this fraction of ||z|| report infinity.
EPS_DENOMINATOR_FLOOR = 1e-12


def top_k(scores, k):
    """Indices of the k largest scores, lowest index first among ties."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    return tuple(sorted(int(i) for i in order[:k]))


def _check_projection_args(dictionary, z, k):
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1 or z.shape[0] != dictionary.n:
        raise InvalidInputError(f"z must be a length-{dictionary.n} vector")
    if not 1 <= k <= dictionary.d:
        raise InvalidInputError(f"need 1 <= k <= d={dictionary.d}, got k={k}")
    return z


@dataclass(frozen=True)
class ThresholdBackend:
    """Take the k largest entries of D^H z after dividing by column norms.

    Exact for dictionaries with mutually orthogonal columns; the division
    matters whenever column norms differ (sorting raw analysis coefficients
    would chase the big columns instead of the big contributions).
    """

    def support(self, dictionary, z, k):
        z = _check_projection_args(dictionary, z, k)
        scores = np.abs(dictionary.analysis(z)) / dictionary.column_norms
        return top_k(scores, k)


@dataclass(frozen=True)
class OMPBackend:
    """k greedy steps of normalized correlation, re-projecting after each."""

    def support(self, dictionary, z, k):
        z = _check_projection_args(dictionary, z, k)
        selected = []
        residual = z
        taken = np.zeros(dictionary.d, dtype=bool)
        for _ in range(k):
            scores = np.abs(dictionary.analysis(residual)) / dictionary.column_norms
            scores[taken] = -np.inf
            j = int(np.argmax(scores))  # first max wins on ties
            selected.append(j)
            taken[j] = True
            P = build_projector(dictionary.columns(selected), support=tuple(selected))
            residual = P.complement(z)
        return tuple(sorted(selected))


@dataclass(frozen=True)
class CoSaMPBackend:
    """Standard CoSaMP fitting z directly in D (identity sensing).

    Per the plain algorithm, identification and pruning threshold raw
    coefficient magnitudes without column-norm correction.  ``norm_bound``
    caps the coefficient norm of each inner least-squares fit; infinite by
    default (plain least squares).
    """

    max_iters: int = 20
    norm_bound: float = math.inf

    def support(self, dictionary, z, k):
        z = _check_projection_args(dictionary, z, k)
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be >= 1")
        D = dictionary.matrix
        gamma = ()
        residual = z
        z_norm = np.linalg.norm(z)
        for _ in range(self.max_iters):
            proxy = np.abs(dictionary.analysis(residual))
            omega = top_k(proxy, min(2 * k, dictionary.d))
            merged = tuple(sorted(set(omega) | set(gamma)))
            fit = _lsq_fit(D[:, list(merged)], z, self.norm_bound)
            dense = np.zeros(dictionary.d, dtype=np.complex128)
            dense[list(merged)] = fit
            new_gamma = top_k(np.abs(dense), k)
            kept = list(new_gamma)
            residual = z - D[:, kept] @ dense[kept]
            if new_gamma == gamma or np.linalg.norm(residual) <= 1e-12 * z_norm:
                gamma = new_gamma
                break
            gamma = new_gamma
        return tuple(sorted(gamma))


@dataclass(frozen=True)
class L1Backend:
    """Solve min ||a||_1 s.t. ||D a - z|| <= sigma, keep the k largest entries.

    ``sigma_rel`` scales the residual-ball radius by ||z||; the splitting
    iteration caps and tolerances are forwarded to the inner solver.
    """

    sigma_rel: float = 1e-6
    max_iters: int = 4000
    tol_abs: float = 1e-8
    tol_rel: float = 1e-6

    def support(self, dictionary, z, k):
        z = _check_projection_args(dictionary, z, k)
        if np.linalg.norm(z) == 0.0:
            return tuple(range(k))
        alpha = basis_pursuit_denoise(
            dictionary.matrix,
            z,
            self.sigma_rel * np.linalg.norm(z),
            max_iters=self.max_iters,
            tol_abs=self.tol_abs,
            tol_rel=self.tol_rel,
        )
        return top_k(np.abs(alpha), k)


@dataclass(frozen=True)
class ExhaustiveBackend:
    """Exact argmin of the projection residual over all C(d, k) supports."""

    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def support(self, dictionary, z, k):
        sup, _ = optimal_projection(dictionary, z, k, enumeration_cap=self.enumeration_cap)
        return sup


_BACKENDS = {
    "threshold": ThresholdBackend,
    "omp": OMPBackend,
    "cosamp": CoSaMPBackend,
    "l1": L1Backend,
    "exhaustive": ExhaustiveBackend,
}


def make_backend(name, **params):
    """Build a projection backend from its config-file name."""
    key = str(name).strip().lower()
    if key not in _BACKENDS:
        raise InvalidInputError(
            f"unknown projection backend {name!r}; choose from {sorted(_BACKENDS)}"
        )
    return _BACKENDS[key](**params)


def project_support(backend, dictionary, z, k):
    """Run a backend and enforce the cardinality contract |result| = k."""
    support = backend.support(dictionary, z, k)
    if len(support) != k or len(set(support)) != k:
        raise NumericalFailureError(
            f"backend {backend!r} returned {len(support)} indices, expected {k}"
        )
    return tuple(sorted(int(i) for i in support))


def optimal_projection(dictionary, z, k, enumeration_cap=DEFAULT_ENUMERATION_CAP):
    """Best k-column support by full enumeration (the testing oracle).

    Returns ``(support, projection)`` where projection is P z for the
    winning span.  Supports are visited in lexicographic order and ties keep
    the earliest, so the result is deterministic.  Refuses instances with
    more than ``enumeration_cap`` candidate supports.
    """
    z = _check_projection_args(dictionary, z, k)
    n_supports = math.comb(dictionary.d, k)
    if n_supports > enumeration_cap:
        raise InstanceTooLargeError(
            f"C({dictionary.d},{k}) = {n_supports} supports exceeds cap {enumeration_cap}"
        )
    best_support = None
    best_proj = None
    best_residual = math.inf
    for candidate in itertools.combinations(range(dictionary.d), k):
        P = build_projector(dictionary.columns(candidate), support=candidate)
        proj = P.apply(z)
        residual = float(np.linalg.norm(z - proj))
        if residual < best_residual:
            best_support = candidate
            best_proj = proj
            best_residual = residual
    return tuple(best_support), best_proj


@dataclass(frozen=True)
class ProjectionQuality:
    """Measured projection-quality ratios for one backend on one vector.

    ``eps1`` compares the backend-vs-optimal projection gap against the
    optimal projection's size, ``eps2`` against the optimal residual.
    Either is ``inf`` when its denominator falls below a floor of
    1e-12 * ||z|| (e.g. exactly k-sparse z makes the optimal residual zero).
    """

    eps1: float
    eps2: float
    opt_residual: float


def evaluate_projection_quality(dictionary, z, k, backend, enumeration_cap=DEFAULT_ENUMERATION_CAP):
    """Measure a backend's (eps1, eps2) against the exhaustive optimum."""
    z = _check_projection_args(dictionary, z, k)
    opt_support, opt_proj = optimal_projection(dictionary, z, k, enumeration_cap=enumeration_cap)
    est_support = project_support(backend, dictionary, z, k)
    if est_support == opt_support:
        est_proj = opt_proj
    else:
        est_proj = build_projector(dictionary.columns(est_support), support=est_support).apply(z)
    gap = float(np.linalg.norm(opt_proj - est_proj))
    floor = EPS_DENOMINATOR_FLOOR * float(np.linalg.norm(z))
    opt_size = float(np.linalg.norm(opt_proj))
    opt_residual = float(np.linalg.norm(z - opt_proj))
    eps1 = gap / opt_size if opt_size > floor else math.inf
    eps2 = gap / opt_residual if opt_residual > floor else math.inf
    return ProjectionQuality(eps1=eps1, eps2=eps2, opt_residual=opt_residual)


def _lsq_fit(cols, z, norm_bound):
    """Least-squares coefficients for z ~ cols @ beta, optionally norm-capped."""
    if math.isinf(norm_bound):
        return lstsq(cols, z)
    from .linalg import tikhonov_lsq

    return tikhonov_lsq(None, cols, z, norm_bound)


def basis_pursuit_denoise(M, z, sigma, rho=1.0, max_iters=4000, tol_abs=1e-8, tol_rel=1e-6):
    """Solve min ||a||_1 s.t. ||M a - z|| <= sigma by ADMM splitting.

    Splits into v = a (soft-threshold step) and u = M a - z (projection onto
    the sigma-ball), with a fixed penalty ``rho``.  The linear-system step
    factors I + M^H M once, via the small Gram side when M is wide.  The
    problem is solved at unit scale (z normalized) and the answer rescaled.

    Returns the sparse iterate v, which is exactly sparse thanks to the
    shrinkage step.

    Raises
    ------
    NumericalFailureError
        If primal/dual residuals fail to meet tolerance within ``max_iters``.
    """
    M = np.asarray(M, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    if M.ndim != 2 or z.ndim != 1 or z.shape[0] != M.shape[0]:
        raise InvalidInputError("basis_pursuit_denoise: shape mismatch")
    if sigma < 0:
        raise InvalidInputError("sigma must be >= 0")
    scale = float(np.linalg.norm(z))
    if scale == 0.0:
        return np.zeros(M.shape[1], dtype=np.complex128)
    zn = z / scale
    sig = sigma / scale
    m, d = M.shape
    MH = M.conj().T

    # Woodbury when wide: (I + M^H M)^-1 b = b - M^H (I + M M^H)^-1 M b
    gram = M @ MH if m < d else MH @ M
    try:
        chol = scipy.linalg.cho_factor(np.eye(gram.shape[0], dtype=np.complex128) + gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"basis_pursuit_denoise: {exc}") from exc

    if m < d:
        def solve(b):
            return b - MH @ scipy.linalg.cho_solve(chol, M @ b)
    else:
        def solve(b):
            return scipy.linalg.cho_solve(chol, b)

    v = np.zeros(d, dtype=np.complex128)
    u = np.zeros(m, dtype=np.complex128)
    p = np.zeros(d, dtype=np.complex128)  # scaled dual for v = a
    q = np.zeros(m, dtype=np.complex128)  # scaled dual for u = M a - z
    shrink = 1.0 / rho
    for it in range(max_iters):
        a = solve((v - p) + MH @ (zn + u - q))
        Ma = M @ a
        # soft-threshold (prox of the l1 norm, complex-safe)
        w = a + p
        mag = np.abs(w)
        v_new = np.where(mag > shrink, w * (1.0 - shrink / np.maximum(mag, 1e-300)), 0.0)
        # project onto the residual ball of radius sigma
        w2 = Ma - zn + q
        nw2 = np.linalg.norm(w2)
        u_new = w2 if nw2 <= sig else w2 * (sig / nw2)
        p = p + a - v_new
        q = q + (Ma - zn) - u_new
        r_norm = math.hypot(np.linalg.norm(a - v_new), np.linalg.norm(Ma - zn - u_new))
        s_norm = rho * math.hypot(
            np.linalg.norm(v_new - v), np.linalg.norm(MH @ (u_new - u))
        )
        v, u = v_new, u_new
        eps_pri = math.sqrt(d + m) * tol_abs + tol_rel * max(
            np.linalg.norm(a), np.linalg.norm(v), np.linalg.norm(u), 1.0
        )
        eps_dual = math.sqrt(d) * tol_abs + tol_rel * rho * math.hypot(
            np.linalg.norm(p), np.linalg.norm(MH @ q)
        )
        if r_norm <= eps_pri and s_norm <= eps_dual:
            return v * scale
    raise NumericalFailureError(
        "basis_pursuit_denoise: ADMM did not converge",
        iteration=max_iters,
        diagnostics={"primal_residual": r_norm, "dual_residual": s_norm, "sigma": sigma},
    )
