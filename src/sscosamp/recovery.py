"""Signal-space CoSaMP and baseline recovery algorithms.

Every algorithm returns a :class:`RecoveryTrace` with one record per
iteration, so tests and diagnostics can audit intermediate state (supports,
residual norms, estimates) rather than just the final answer.

The main loop alternates four phases per iteration:

* proxy: correlate the residual back into signal space, h = A^H r
* identify: pick 2k candidate columns for h via the identify backend
* merge + update: union with the previous support, then fit y in the span
  of the merged columns by norm-constrained least squares
* prune: pick the best k columns for the fitted signal and project onto them
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .linalg import build_projector, lstsq, tikhonov_lsq
from .projections import (
    ThresholdBackend,
    basis_pursuit_denoise,
    cosamp_steps,
    project_support,
    top_k,
)

__all__ = [
    "SSCoSaMPConfig",
    "IterationRecord",
    "RecoveryTrace",
    "sscosamp",
    "cosamp_baseline",
    "omp_baseline",
    "l1_baseline",
]

STOP_RESIDUAL = "residual_tol"
STOP_STALL = "stall"
STOP_MAX_ITERS = "max_iters"

# Coefficients smaller than this fraction of ||y|| are treated as zero when
# extracting a support from an l1 solution.
L1_MAGNITUDE_FLOOR = 1e-12


@dataclass(frozen=True)
class SSCoSaMPConfig:
    """Knobs for one signal-space CoSaMP run.

    ``identify_backend`` proposes 2k columns from the residual proxy;
    ``prune_backend`` keeps the best k after the update fit.
    ``tikhonov_norm_bound`` caps the coefficient norm of the update solve
    (infinite means plain least squares).
    """

    k: int
    identify_backend: object = field(default_factory=ThresholdBackend)
    prune_backend: object = field(default_factory=ThresholdBackend)
    max_iters: int = 50
    residual_tol: float = 1e-12
    stall_tol: float = 1e-10
    tikhonov_norm_bound: float = math.inf

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be >= 1")
        if self.residual_tol < 0 or self.stall_tol < 0:
            raise InvalidInputError("tolerances must be >= 0")
        if not self.tikhonov_norm_bound > 0:
            raise InvalidInputError("tikhonov_norm_bound must be positive")


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """State captured at the end of one iteration."""

    iteration: int
    proxy_norm: float
    identify_support: tuple
    merged_support: tuple
    x_tilde: np.ndarray
    pruned_support: tuple
    estimate: np.ndarray
    residual_norm: float


@dataclass(frozen=True, eq=False)
class RecoveryTrace:
    """Full history of a recovery run plus the final estimate."""

    algorithm: str
    x_hat: np.ndarray
    iterations_run: int
    stop_reason: str
    records: tuple

    def residual_norms(self):
        return [rec.residual_norm for rec in self.records]

    def errors_to(self, x_true):
        """Per-iteration distances ||x_true - estimate||."""
        x_true = np.asarray(x_true)
        return [float(np.linalg.norm(x_true - rec.estimate)) for rec in self.records]

    @property
    def final_support(self):
        return self.records[-1].pruned_support if self.records else ()


def _guard_finite(vec, what, iteration):
    if not np.isfinite(vec).all():
        raise NumericalFailureError(f"{what} became non-finite", iteration=iteration)


def _run_backend(backend, dictionary, z, size, phase, iteration):
    try:
        return project_support(backend, dictionary, z, size)
    except NumericalFailureError as exc:
        raise NumericalFailureError(
            f"{phase} backend failed at iteration {iteration}: {exc}",
            iteration=iteration,
            diagnostics=getattr(exc, "diagnostics", {}),
        ) from exc


def sscosamp(A, dictionary, measurements, cfg):
    """Recover a dictionary-sparse signal from y = A x + e.

    Runs the proxy / identify / merge / update / prune loop until the
    relative residual drops below ``cfg.residual_tol``, successive estimates
    stall, or ``cfg.max_iters`` is reached.

    Parameters
    ----------
    A : SensingMatrix
    dictionary : Dictionary
    measurements : Measurements
    cfg : SSCoSaMPConfig

    Returns
    -------
    RecoveryTrace
    """
    if A.n != dictionary.n:
        raise InvalidInputError("sensing matrix and dictionary disagree on n")
    if measurements.m != A.m:
        raise InvalidInputError("measurement length does not match sensing matrix")
    if 2 * cfg.k > dictionary.d:
        raise InvalidInputError(f"identification needs 2k <= d, got k={cfg.k}, d={dictionary.d}")
    y = measurements.y
    y_norm = float(np.linalg.norm(y))
    Amat = A.matrix
    x = np.zeros(dictionary.n, dtype=np.complex128)
    gamma = ()
    residual = y.copy()
    records = []
    stop_reason = STOP_MAX_ITERS
    for it in range(cfg.max_iters):
        # proxy (A is real, so A^H = A^T)
        h = Amat.T @ residual
        # identify
        omega = _run_backend(cfg.identify_backend, dictionary, h, 2 * cfg.k, "identify", it)
        # merge
        merged = tuple(sorted(set(omega) | set(gamma)))
        # update: best fit to y in the span of the merged columns
        cols = dictionary.columns(merged)
        beta = tikhonov_lsq(Amat, cols, y, cfg.tikhonov_norm_bound)
        x_tilde = cols @ beta
        _guard_finite(x_tilde, "update estimate", it)
        # prune and project; the search runs over the full dictionary, so on
        # coherent dictionaries the kept support may swap in atoms outside
        # the merged set (it feeds back into the next merge regardless)
        gamma = _run_backend(cfg.prune_backend, dictionary, x_tilde, cfg.k, "prune", it)
        P = build_projector(dictionary.columns(gamma), support=gamma)
        x_new = P.apply(x_tilde)
        _guard_finite(x_new, "pruned estimate", it)
        residual = y - Amat @ x_new
        res_norm = float(np.linalg.norm(residual))
        records.append(
            IterationRecord(
                iteration=it,
                proxy_norm=float(np.linalg.norm(h)),
                identify_support=omega,
                merged_support=merged,
                x_tilde=x_tilde,
                pruned_support=gamma,
                estimate=x_new,
                residual_norm=res_norm,
            )
        )
        step = float(np.linalg.norm(x_new - x))
        x = x_new
        if res_norm <= cfg.residual_tol * y_norm:
            stop_reason = STOP_RESIDUAL
            break
        if step <= cfg.stall_tol * float(np.linalg.norm(x)):
            stop_reason = STOP_STALL
            break
    return RecoveryTrace(
        algorithm="sscosamp",
        x_hat=x,
        iterations_run=len(records),
        stop_reason=stop_reason,
        records=tuple(records),
    )


def _combined_matrix(A, dictionary):
    if A.n != dictionary.n:
        raise InvalidInputError("sensing matrix and dictionary disagree on n")
    return A.matrix @ dictionary.matrix


def cosamp_baseline(A, dictionary, measurements, k, max_iters=50,
                    norm_bound=math.inf, residual_tol=1e-12, stall_tol=1e-10):
    """Plain CoSaMP on the combined matrix A D, reported in signal space.

    Runs :func:`~sscosamp.projections.cosamp_steps` with the proxy
    (A D)^H r: identification and pruning threshold raw coefficient
    magnitudes, no column renormalization, exactly the classical algorithm.
    The merged-support fit honors ``norm_bound`` like the main algorithm's
    update step.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if measurements.m != A.m:
        raise InvalidInputError("measurement length does not match sensing matrix")
    Phi = _combined_matrix(A, dictionary)
    d = Phi.shape[1]
    if 2 * k > d:
        raise InvalidInputError(f"identification needs 2k <= d, got k={k}, d={d}")
    D = dictionary.matrix
    y = measurements.y
    y_norm = float(np.linalg.norm(y))
    alpha = np.zeros(d, dtype=np.complex128)
    x = np.zeros(dictionary.n, dtype=np.complex128)
    records = []
    stop_reason = STOP_MAX_ITERS
    steps = cosamp_steps(Phi, Phi.conj().T.__matmul__,
                         lambda cols, rhs: tikhonov_lsq(None, cols, rhs, norm_bound), y, k)
    for it, (h, omega, merged, beta, gamma, coef, residual) in zip(range(max_iters), steps):
        kept = list(gamma)
        alpha_new = np.zeros(d, dtype=np.complex128)
        alpha_new[kept] = coef
        _guard_finite(alpha_new, "coefficient iterate", it)
        res_norm = float(np.linalg.norm(residual))
        # synthesize on the support, not through the dense matrices
        x_new = D[:, kept] @ coef
        records.append(
            IterationRecord(
                iteration=it,
                proxy_norm=float(np.linalg.norm(h)),
                identify_support=omega,
                merged_support=tuple(merged),
                x_tilde=D[:, merged] @ beta,
                pruned_support=gamma,
                estimate=x_new,
                residual_norm=res_norm,
            )
        )
        step = float(np.linalg.norm(alpha_new - alpha))
        alpha = alpha_new
        x = x_new
        if res_norm <= residual_tol * y_norm:
            stop_reason = STOP_RESIDUAL
            break
        if step <= stall_tol * float(np.linalg.norm(alpha)):
            stop_reason = STOP_STALL
            break
    return RecoveryTrace(
        algorithm="cosamp",
        x_hat=x,
        iterations_run=len(records),
        stop_reason=stop_reason,
        records=tuple(records),
    )


def omp_baseline(A, dictionary, measurements, k):
    """Greedy correlation pursuit on A D with per-step least-squares refit.

    Correlations are divided by the column norms of A D.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if measurements.m != A.m:
        raise InvalidInputError("measurement length does not match sensing matrix")
    Phi = _combined_matrix(A, dictionary)
    d = Phi.shape[1]
    if k > d:
        raise InvalidInputError(f"k={k} exceeds d={d}")
    y = measurements.y
    y_norm = float(np.linalg.norm(y))
    col_norms = np.linalg.norm(Phi, axis=0)
    weights = np.where(col_norms > 0, col_norms, 1.0)
    # formed after the column norms so it never coexists with their temporaries
    Phi_adj = Phi.conj().T
    selected = []
    taken = np.zeros(d, dtype=bool)
    residual = y.copy()
    beta = np.zeros(0, dtype=np.complex128)
    records = []
    stop_reason = STOP_MAX_ITERS
    for it in range(k):
        h = Phi_adj @ residual
        scores = np.abs(h) / weights
        scores[taken] = -np.inf
        j = int(np.argmax(scores))
        selected.append(j)
        taken[j] = True
        beta = lstsq(Phi[:, selected], y)
        _guard_finite(beta, "refit coefficients", it)
        residual = y - Phi[:, selected] @ beta
        res_norm = float(np.linalg.norm(residual))
        estimate = dictionary.matrix[:, selected] @ beta
        support = tuple(sorted(selected))
        records.append(
            IterationRecord(
                iteration=it,
                proxy_norm=float(np.linalg.norm(h)),
                identify_support=(j,),
                merged_support=support,
                x_tilde=estimate,
                pruned_support=support,
                estimate=estimate,
                residual_norm=res_norm,
            )
        )
        if res_norm <= 1e-12 * y_norm:
            stop_reason = STOP_RESIDUAL
            break
    x_hat = dictionary.matrix[:, selected] @ beta
    return RecoveryTrace(
        algorithm="omp",
        x_hat=x_hat,
        iterations_run=len(records),
        stop_reason=stop_reason,
        records=tuple(records),
    )


def l1_baseline(A, dictionary, measurements, k, solver_tol=1e-6,
                sigma_rel=1e-6, max_solver_iters=4000):
    """Basis pursuit on A D, then top-k support extraction and debiasing.

    Solves min ||a||_1 s.t. ||A D a - y|| <= sigma_rel * ||y||, keeps the k
    largest-magnitude coefficients above a floor of 1e-12 * ||y||, and refits
    those by plain least squares.  Coefficients all under the floor (e.g.
    k = 0 or pure noise) give the zero estimate.
    """
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    if measurements.m != A.m:
        raise InvalidInputError("measurement length does not match sensing matrix")
    Phi = _combined_matrix(A, dictionary)
    y = measurements.y
    y_norm = float(np.linalg.norm(y))
    support = ()
    if k > 0 and y_norm > 0:
        alpha = basis_pursuit_denoise(
            Phi,
            y,
            sigma_rel * y_norm,
            max_iters=max_solver_iters,
            tol_rel=solver_tol,
        )
        mags = np.abs(alpha)
        eligible = int(np.count_nonzero(mags > L1_MAGNITUDE_FLOOR * y_norm))
        support = top_k(mags, min(k, eligible))
    if support:
        beta = lstsq(Phi[:, list(support)], y)
        x_hat = dictionary.matrix[:, list(support)] @ beta
        residual = y - Phi[:, list(support)] @ beta
    else:
        x_hat = np.zeros(dictionary.n, dtype=np.complex128)
        residual = y.copy()
    res_norm = float(np.linalg.norm(residual))
    record = IterationRecord(
        iteration=0,
        proxy_norm=float(np.linalg.norm(Phi.conj().T @ y)),
        identify_support=support,
        merged_support=support,
        x_tilde=x_hat,
        pruned_support=support,
        estimate=x_hat,
        residual_norm=res_norm,
    )
    stop = STOP_RESIDUAL if res_norm <= 1e-12 * max(y_norm, 1e-300) else STOP_MAX_ITERS
    return RecoveryTrace(
        algorithm="l1",
        x_hat=x_hat,
        iterations_run=1,
        stop_reason=stop,
        records=(record,),
    )
