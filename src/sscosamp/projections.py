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
from .linalg import _norm, build_projector, lstsq
from .model import _finite_norm

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
    "cosamp_steps",
    "omp_steps",
    "enumerate_supports",
    "support_bases",
    "stacked_residuals",
    "exhaustive_argmin",
]

# Refuse exhaustive enumeration past this many candidate supports.
DEFAULT_ENUMERATION_CAP = 2_000_000

# Complex entries in one stacked chunk of support submatrices (1 MiB), so a
# scan's memory does not grow with the number of supports.
SUPPORT_CHUNK_ELEMENTS = 1 << 16

# A stacked basis counts as full rank when its smallest |R_ii| exceeds this
# fraction of its largest.  It is 100x looser than build_projector's pivot
# tolerance, so every support either rule could call rank-deficient takes the
# per-support path.
FULL_RANK_RTOL = 1e-8

# Supports whose stacked score lies within this fraction of the scan's scale
# of the least one are scored again by the per-support path, so near ties
# resolve exactly as a per-support scan would resolve them.
TIE_RTOL = 1e-9

# Steps of the CoSaMP backend's inner loop before it returns its support.
COSAMP_BACKEND_MAX_ITERS = 20

# Ratio denominators smaller than this fraction of ||z|| report infinity.
EPS_DENOMINATOR_FLOOR = 1e-12

# ADMM residual balancing (Boyd, Parikh, Chu, Peleato & Eckstein 2011,
# section 3.4.1): every RHO_BALANCE_EVERY iterations, rho is multiplied by
# RHO_STEP when the primal residual exceeds RHO_IMBALANCE times the dual one,
# and divided by it in the reverse case.
RHO_BALANCE_EVERY = 10
RHO_IMBALANCE = 10.0
RHO_STEP = 2.0

# ADMM's starting penalty, iteration cap and the absolute and relative
# tolerances of its stopping test (Boyd et al., section 3.3.1); the L1 solves'
# residual-ball radius as a fraction of the target's norm.
ADMM_RHO_START = 1.0
ADMM_MAX_ITERS = 8000
ADMM_TOL_ABS = 1e-8
ADMM_TOL_REL = 1e-6
L1_SIGMA_REL = 1e-6

# Over-relaxation factor of the cold rerun that follows a plain ADMM run
# reaching ADMM_MAX_ITERS (Boyd et al., section 3.4.3).
ADMM_RELAXATION = 1.6


def top_k(scores, k):
    """Indices of the k largest scores, lowest index first among ties."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    return tuple(np.sort(order[:k]).tolist())


def enumerate_supports(d, k):
    """Every size-k support of range(d), in lexicographic order.

    Raises InstanceTooLargeError when C(d, k) exceeds
    ``DEFAULT_ENUMERATION_CAP`` (read at call time).
    """
    n_supports = math.comb(d, k)
    if n_supports > DEFAULT_ENUMERATION_CAP:
        raise InstanceTooLargeError(
            f"C({d},{k}) = {n_supports} supports exceeds cap {DEFAULT_ENUMERATION_CAP}"
        )
    return itertools.combinations(range(d), k)


def _supports_per_chunk(n, k):
    return max(1, SUPPORT_CHUNK_ELEMENTS // (n * k))


def support_bases(matrix, k):
    """Orthonormal bases of every size-k column support, a chunk at a time.

    Takes the supports of ``enumerate_supports`` in order, stacks
    ``matrix[:, S]`` for up to ``SUPPORT_CHUNK_ELEMENTS`` entries' worth of
    them and factors the stack with one unpivoted QR.  Yields
    ``(supports, Q, full)``: ``supports`` is a (B, k) index array, ``Q`` the
    (B, n, min(n, k)) bases and ``full`` marks the supports whose ``Q`` spans
    all k columns (smallest |R_ii| above ``FULL_RANK_RTOL`` times the
    largest).  The other supports' ``Q`` is meaningless; callers score them
    through the per-support path.
    """
    n, d = matrix.shape
    supports = enumerate_supports(d, k)
    per_chunk = _supports_per_chunk(n, k)
    rows = np.asarray(matrix, dtype=np.complex128).T
    while True:
        chunk = np.fromiter(itertools.chain.from_iterable(itertools.islice(supports, per_chunk)),
                            dtype=np.intp).reshape(-1, k)
        if not len(chunk):
            return
        Q, R = np.linalg.qr(rows[chunk].transpose(0, 2, 1))
        pivots = np.abs(np.diagonal(R, axis1=1, axis2=2))
        full = (pivots.min(axis=1) > FULL_RANK_RTOL * pivots.max(axis=1)) & (k <= n)
        yield chunk, Q, full


def stacked_residuals(Q, z):
    """Residuals ``z - Q Q^H z`` of one vector against a (B, n, r) stack of
    orthonormal bases, as a (B, n) array."""
    coef = (z.conj() @ Q).conj()
    return z - (Q @ coef[:, :, None])[:, :, 0]


def _scan_bases(dictionary, k):
    """``support_bases(dictionary.matrix, k)``, kept on the dictionary when it is one chunk."""
    n, d = dictionary.matrix.shape
    if math.comb(d, k) > _supports_per_chunk(n, k):
        return support_bases(dictionary.matrix, k)  # streamed; the memo stays as it was
    enumerate_supports(d, k)  # the cap holds on a hit too
    memo = dictionary._oracle_memo
    if memo.get("bases", (None,))[0] != k:
        memo["bases"] = (k, list(support_bases(dictionary.matrix, k)))
    return memo["bases"][1]


def exhaustive_argmin(dictionary, k, batch_scores, exact, scale):
    """The first support, in lexicographic order, with the least exact score.

    ``batch_scores(Q)`` scores a stack of full-rank bases at once;
    ``exact(support)`` returns ``(score, result)`` by the per-support path.
    Rank-deficient supports are scored by ``exact`` alone.  Every support
    whose score is within ``TIE_RTOL * scale`` of the least, the first least
    always among them, is scored again by ``exact`` in lexicographic order,
    and a later one wins only when strictly lower.  Returns
    ``(support, score, result)``.

    When all C(d, k) supports fit in one chunk of ``support_bases``, the
    chunk is kept on ``dictionary`` (see ``Dictionary``) and its next scan at
    the same k reuses it, whatever it scores.  Larger scans stream their
    chunks and keep nothing.  The kept arrays never leave this function:
    ``batch_scores`` gets a copy (``Q[full]``) and supports leave as tuples.
    """
    tol = TIE_RTOL * scale
    best = math.inf
    near = []  # (support, score) within tol of the least so far, in order
    for supports, Q, full in _scan_bases(dictionary, k):
        scores = np.empty(len(supports))
        scores[full] = batch_scores(Q[full])
        for i in np.flatnonzero(~full):
            scores[i] = exact(tuple(supports[i].tolist()))[0]
        first = int(np.argmin(scores))
        if scores[first] < best:
            best = scores[first]
            near = [(support, score) for support, score in near if score < best + tol]
        close = scores < best + tol
        close[first] |= scores[first] == best  # tol is 0 when the scale is
        near += [(tuple(supports[i].tolist()), scores[i]) for i in np.flatnonzero(close)]
    winner = None
    for support, _ in near:
        score, result = exact(support)
        if winner is None or score < winner[1]:
            winner = (support, score, result)
    return winner


def cosamp_steps(Phi, adjoint, fit, y, k):
    """Classical CoSaMP steps (Needell & Tropp 2009) for y ~ Phi a.

    ``adjoint(r)`` returns Phi^H r and ``fit(cols, y)`` the coefficients of
    y on the given columns.  Each step forms the proxy, keeps its 2k largest
    magnitudes, merges them with the current support, fits y on the merged
    columns, prunes to the k largest coefficients and updates the residual.
    It yields ``(proxy, omega, merged, beta, gamma, coef, residual)``:
    ``merged`` is a sorted list, ``beta`` the fit on it, ``gamma`` the kept
    support and ``coef`` its coefficients.  The generator never ends; the
    caller decides when to stop.
    """
    d = Phi.shape[1]
    gamma = ()
    residual = y
    while True:
        proxy = adjoint(residual)
        omega = top_k(np.abs(proxy), min(2 * k, d))
        merged = sorted(set(omega) | set(gamma))
        beta = fit(Phi[:, merged], y)
        dense = np.zeros(d, dtype=np.complex128)
        dense[merged] = beta
        gamma = top_k(np.abs(dense), k)
        kept = list(gamma)
        coef = dense[kept]
        residual = y - Phi[:, kept] @ coef
        yield proxy, omega, merged, beta, gamma, coef, residual


def omp_steps(adjoint, weights, refit, y, k):
    """k orthogonal matching pursuit steps for y.

    ``adjoint(r)`` returns the correlations of r with the columns, ``weights``
    their norms, and ``refit(selected)`` fits y on the chosen columns and
    returns ``(residual, coef)``.  Each step chooses the unchosen column of
    largest normalized correlation and refits.  It yields ``(proxy, j,
    selected, residual, coef)``; ``selected`` lists the columns in the order
    chosen.
    """
    taken = np.zeros(len(weights), dtype=bool)
    selected = []
    residual = y
    for _ in range(k):
        proxy = adjoint(residual)
        scores = np.abs(proxy) / weights
        scores[taken] = -np.inf
        j = int(np.argmax(scores))  # first max wins on ties
        selected.append(j)
        taken[j] = True
        residual, coef = refit(selected)
        yield proxy, j, selected, residual, coef


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
    """``omp_steps`` on D, re-projecting z onto the chosen columns after each."""

    def support(self, dictionary, z, k):
        z = _check_projection_args(dictionary, z, k)

        def refit(selected):
            return z - build_projector(dictionary.columns(selected)).apply(z), None

        for _, _, selected, _, _ in omp_steps(dictionary.analysis, dictionary.column_norms,
                                              refit, z, k):
            pass
        return tuple(sorted(selected))


@dataclass(frozen=True)
class CoSaMPBackend:
    """Standard CoSaMP fitting z directly in D (identity sensing).

    Per the plain algorithm, identification and pruning threshold raw
    coefficient magnitudes without column-norm correction, and each step
    fits z by plain least squares.  Stops when the support repeats, the
    residual falls to 1e-12 ||z||, or after COSAMP_BACKEND_MAX_ITERS steps.
    """

    def support(self, dictionary, z, k):
        z = _check_projection_args(dictionary, z, k)
        z_norm = _norm(z)
        gamma = ()
        steps = cosamp_steps(dictionary._fortran, dictionary.analysis, lstsq, z, k)
        for *_, new_gamma, _, residual in itertools.islice(steps, COSAMP_BACKEND_MAX_ITERS):
            done = new_gamma == gamma or _norm(residual) <= 1e-12 * z_norm
            gamma = new_gamma
            if done:
                break
        return gamma


@dataclass(frozen=True)
class L1Backend:
    """Solve min ||a||_1 s.t. ||D a - z|| <= L1_SIGMA_REL ||z||, keep the k largest entries."""

    def support(self, dictionary, z, k):
        z = _check_projection_args(dictionary, z, k)
        with np.errstate(over="ignore"):  # basis_pursuit_denoise reports the overflow
            z_norm = np.linalg.norm(z)
        alpha = basis_pursuit_denoise(dictionary.matrix, z, L1_SIGMA_REL * z_norm)
        return top_k(np.abs(alpha), k)


@dataclass(frozen=True)
class ExhaustiveBackend:
    """Exact argmin of the projection residual over all C(d, k) supports."""

    def support(self, dictionary, z, k):
        sup, _ = optimal_projection(dictionary, z, k)
        return sup


_BACKENDS = {
    "threshold": ThresholdBackend,
    "omp": OMPBackend,
    "cosamp": CoSaMPBackend,
    "l1": L1Backend,
    "exhaustive": ExhaustiveBackend,
}


def make_backend(name):
    """Build a projection backend from its config-file name."""
    key = str(name).strip().lower()
    if key not in _BACKENDS:
        raise InvalidInputError(
            f"unknown projection backend {name!r}; choose from {sorted(_BACKENDS)}"
        )
    return _BACKENDS[key]()


def project_support(backend, dictionary, z, k):
    """Run a backend and enforce the cardinality contract |result| = k."""
    support = backend.support(dictionary, z, k)
    if len(support) != k or len(set(support)) != k:
        raise NumericalFailureError(
            f"backend {backend!r} returned {len(support)} indices, expected {k}"
        )
    return tuple(sorted(int(i) for i in support))


def _check_oracle_args(dictionary, z, k):
    """``z`` as a complex vector, once it and its norm are finite, of length n, and 1 <= k <= d."""
    z = _check_projection_args(dictionary, z, k)
    if not np.isfinite(z).all():
        raise InvalidInputError("z contains non-finite entries")
    _finite_norm(z, "the norm of z overflows", None)
    return z


def optimal_projection(dictionary, z, k):
    """Best k-column support by full enumeration (the testing oracle).

    Returns ``(support, projection)`` where projection is P z for the
    winning span.  Supports are visited in lexicographic order and ties keep
    the earliest, so the result is deterministic.  Every support is scored
    by its stacked residual (``exhaustive_argmin``); the projection is
    ``build_projector``'s for the winner.  Refuses instances with more than
    ``DEFAULT_ENUMERATION_CAP`` candidate supports.

    The last answer is kept on the dictionary (see ``Dictionary``) and
    returned again, as a fresh copy, when the next call passes the same k and
    an equal z, as happens when several backends are scored on one vector.
    A new z at the same k, from this function or from ``analysis.mismatch``,
    reuses the stacked bases of the dictionary's last scan when they fit in
    one chunk (``exhaustive_argmin``), as happens when many vectors are
    scored against one dictionary.
    """
    z = _check_oracle_args(dictionary, z, k)
    memo = dictionary._oracle_memo
    if "optimal" in memo:
        last_k, last_z, support, proj = memo["optimal"]
        if last_k == k and np.array_equal(z, last_z):
            return support, proj.copy()

    def exact(support):
        proj = build_projector(dictionary.columns(support)).apply(z)
        return float(np.linalg.norm(z - proj)), proj

    def batch_scores(Q):
        return np.linalg.norm(stacked_residuals(Q, z), axis=1)

    support, _, proj = exhaustive_argmin(dictionary, k, batch_scores, exact,
                                         float(np.linalg.norm(z)))
    memo["optimal"] = (k, z.copy(), support, proj.copy())
    return support, proj


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


def evaluate_projection_quality(dictionary, z, k, backend):
    """Measure a backend's (eps1, eps2) against the exhaustive optimum."""
    z = _check_projection_args(dictionary, z, k)
    opt_support, opt_proj = optimal_projection(dictionary, z, k)
    est_support = project_support(backend, dictionary, z, k)
    if est_support == opt_support:
        est_proj = opt_proj
    else:
        est_proj = build_projector(dictionary.columns(est_support)).apply(z)
    gap = float(np.linalg.norm(opt_proj - est_proj))
    floor = EPS_DENOMINATOR_FLOOR * float(np.linalg.norm(z))
    opt_size = float(np.linalg.norm(opt_proj))
    opt_residual = float(np.linalg.norm(z - opt_proj))
    eps1 = gap / opt_size if opt_size > floor else math.inf
    eps2 = gap / opt_residual if opt_residual > floor else math.inf
    return ProjectionQuality(eps1=eps1, eps2=eps2, opt_residual=opt_residual)


def basis_pursuit_denoise(M, z, sigma):
    """Solve min ||a||_1 s.t. ||M a - z|| <= sigma by ADMM splitting.

    Splits into v = a (soft-threshold step) and u = M a - z (projection onto
    the sigma-ball), stacked as one state x = (v, u) with scaled duals
    y = (p, q), so the dual step is y += (a, M a - z) - x.  The penalty
    starts at ``ADMM_RHO_START`` and is balanced every ``RHO_BALANCE_EVERY``
    iterations: doubled while the primal residual is more than
    ``RHO_IMBALANCE`` times the dual one, halved in the reverse case, with the
    scaled duals rescaled to match.  Both constraints share the penalty, so
    the linear-system step does not depend on it: with
    W = (I + M M^H)^-1 M, formed once, a = b - M^H W b and M a = W b, for
    every shape of M.  The residuals and the stopping test are evaluated only
    on balancing iterations and on the last one.  The problem is solved at
    unit scale (z normalized) and the answer rescaled.  When the plain run
    reaches ``ADMM_MAX_ITERS``, the solve is run again from cold with
    over-relaxation ``ADMM_RELAXATION`` (Boyd et al., section 3.4.3), which
    breaks the penalty cycles that keep some plain runs from converging.

    Returns the sparse iterate v, which is exactly sparse thanks to the
    shrinkage step.

    Raises
    ------
    NumericalFailureError
        If ``||z||`` overflows, or if the residuals miss their tolerances
        within ``ADMM_MAX_ITERS`` in both runs; its diagnostics are the plain
        run's.
    """
    M = np.asarray(M, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    if M.ndim != 2 or z.ndim != 1 or z.shape[0] != M.shape[0]:
        raise InvalidInputError("basis_pursuit_denoise: shape mismatch")
    if not sigma >= 0:
        raise InvalidInputError("sigma must be >= 0")
    with np.errstate(over="ignore"):  # the check below reports the overflow
        scale = float(np.linalg.norm(z))
    if not math.isfinite(scale):
        raise NumericalFailureError("basis_pursuit_denoise: the norm of z is not finite")
    if scale == 0.0:
        return np.zeros(M.shape[1], dtype=np.complex128)
    zn = z / scale
    sig = sigma / scale
    m = M.shape[0]
    MH = M.conj().T

    # Woodbury: (I + M^H M)^-1 = I - M^H W and M (I + M^H M)^-1 = W
    try:
        W = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(np.eye(m, dtype=np.complex128) + M.dot(MH)), M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"basis_pursuit_denoise: {exc}") from exc

    v, failure = _admm(W, MH, zn, sig, 1.0)
    if failure:
        v, _ = _admm(W, MH, zn, sig, ADMM_RELAXATION)
    if v is not None:
        return v * scale
    r_norm, s_norm, rho = failure
    raise NumericalFailureError(
        "basis_pursuit_denoise: ADMM did not converge",
        iteration=ADMM_MAX_ITERS,
        diagnostics={"primal_residual": r_norm, "dual_residual": s_norm, "sigma": sigma,
                     "rho": rho},
    )


def _admm(W, MH, zn, sig, relax):
    """``basis_pursuit_denoise``'s iterations at unit scale with over-relaxation
    factor ``relax`` (1.0 for the plain method), from a zero state.

    Returns ``(v, None)`` when the residuals meet their tolerances and
    ``(None, (primal, dual, rho))`` after ``ADMM_MAX_ITERS`` iterations that
    did not.
    """
    m, d = W.shape
    tol_pri = math.sqrt(d + m) * ADMM_TOL_ABS
    tol_dual = math.sqrt(d) * ADMM_TOL_ABS
    x = np.zeros(d + m, dtype=np.complex128)  # (v, u)
    y = np.zeros(d + m, dtype=np.complex128)  # scaled duals (p, q)
    rho = ADMM_RHO_START
    shrink = 1.0 / rho
    for it in range(ADMM_MAX_ITERS):
        t = x - y
        b = t[:d] + MH.dot(zn + t[d:])
        Wb = W.dot(b)
        h = np.concatenate((b - MH.dot(Wb), Wb - zn))  # (a, M a - z)
        # the relaxed step feeds relax h + (1 - relax) x to the prox and the
        # dual step; the primal residual stays h - x_new
        h_hat = h if relax == 1.0 else relax * h + (1.0 - relax) * x
        x_new = h_hat + y
        # soft-threshold v (prox of the l1 norm, complex-safe) and project u
        # onto the residual ball of radius sigma, in place
        v, u = x_new[:d], x_new[d:]
        v *= np.maximum(1.0 - shrink / np.maximum(np.abs(v), 1e-300), 0.0)
        nu = _norm(u)
        if nu > sig:
            u *= sig / nu
        r = h - x_new
        y += r if relax == 1.0 else h_hat - x_new
        balance = (it + 1) % RHO_BALANCE_EVERY == 0
        if balance or it == ADMM_MAX_ITERS - 1:
            r_norm = _norm(r)
            dx = x_new - x
            s_norm = rho * math.hypot(_norm(dx[:d]), _norm(MH.dot(dx[d:])))
            if (r_norm <= tol_pri + ADMM_TOL_REL * max(_norm(h[:d]), _norm(v), _norm(u), 1.0)
                    and s_norm <= tol_dual + ADMM_TOL_REL * rho * math.hypot(
                        _norm(y[:d]), _norm(MH.dot(y[d:])))):
                return v, None
        x = x_new
        if balance:
            if r_norm > RHO_IMBALANCE * s_norm:
                step = RHO_STEP
            elif s_norm > RHO_IMBALANCE * r_norm:
                step = 1.0 / RHO_STEP
            else:
                continue
            rho *= step
            y /= step
            shrink = 1.0 / rho
    return None, (r_norm, s_norm, rho)
