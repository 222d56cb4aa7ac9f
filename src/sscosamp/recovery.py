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
from .linalg import _norm, build_projector, lstsq, tikhonov_lsq
from .model import _check_same_n
from .projections import (
    L1_SIGMA_REL,
    ThresholdBackend,
    basis_pursuit_denoise,
    cosamp_steps,
    omp_steps,
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

# A run stops when its residual falls to RESIDUAL_TOL * ||y||, or when an
# iterate moves by at most STALL_TOL times its own norm.
RESIDUAL_TOL = 1e-12
STALL_TOL = 1e-10

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
    tikhonov_norm_bound: float = math.inf

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be >= 1")
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
    """Full history of a recovery run, one record per iteration.

    The final estimate and the iteration count are read from ``records``,
    so neither can disagree with them.
    """

    algorithm: str
    stop_reason: str
    records: tuple

    @property
    def x_hat(self):
        """The final estimate: the last record's ``estimate``."""
        return self.records[-1].estimate

    @property
    def iterations_run(self):
        """The number of iterations: one record each."""
        return len(self.records)

    def errors_to(self, x_true):
        """Per-iteration distances ||x_true - estimate||."""
        x_true = np.asarray(x_true)
        return [float(np.linalg.norm(x_true - rec.estimate)) for rec in self.records]


def _guard_finite(vec, what, iteration):
    if not np.isfinite(vec).all():
        raise NumericalFailureError(f"{what} became non-finite", iteration=iteration)


def _measured(A, measurements):
    """The measured vector y and its norm, once its length matches A's rows."""
    if measurements.m != A.m:
        raise InvalidInputError("measurement length does not match sensing matrix")
    return measurements.y, float(np.linalg.norm(measurements.y))


def _record(it, h, omega, merged, x_tilde, gamma, estimate, residual):
    """Iteration ``it``'s record, with the norms of the proxy ``h`` and of ``residual``."""
    with np.errstate(over="ignore"):  # an overflowing norm is recorded as inf
        return IterationRecord(
            iteration=it,
            proxy_norm=_norm(h),
            identify_support=omega,
            merged_support=tuple(merged),
            x_tilde=x_tilde,
            pruned_support=gamma,
            estimate=estimate,
            residual_norm=_norm(residual),
        )


def _stop_reason(res_norm, y_norm, new, old):
    """Why a loop stops at iterate ``new`` after ``old``, or None."""
    if res_norm <= RESIDUAL_TOL * y_norm:
        return STOP_RESIDUAL
    if _norm(new - old) <= STALL_TOL * _norm(new):
        return STOP_STALL
    return None


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
    relative residual drops to ``RESIDUAL_TOL``, successive estimates stall
    (``STALL_TOL``), or ``cfg.max_iters`` is reached.

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
    _check_same_n(A, dictionary)
    y, y_norm = _measured(A, measurements)
    if 2 * cfg.k > dictionary.d:
        raise InvalidInputError(f"identification needs 2k <= d, got k={cfg.k}, d={dictionary.d}")
    x = np.zeros(dictionary.n, dtype=np.complex128)
    gamma = ()
    residual = y.copy()
    records = []
    for it in range(cfg.max_iters):
        # proxy
        h = A.adjoint(residual)
        # identify
        omega = _run_backend(cfg.identify_backend, dictionary, h, 2 * cfg.k, "identify", it)
        # merge
        merged = tuple(sorted(set(omega) | set(gamma)))
        # update: best fit to y in the span of the merged columns
        beta = tikhonov_lsq(dictionary.sense(A, merged), y, norm_bound=cfg.tikhonov_norm_bound)
        x_tilde = dictionary.columns(merged) @ beta
        _guard_finite(x_tilde, "update estimate", it)
        # prune and project; the search runs over the full dictionary, so on
        # coherent dictionaries the kept support may swap in atoms outside
        # the merged set (it feeds back into the next merge regardless)
        gamma = _run_backend(cfg.prune_backend, dictionary, x_tilde, cfg.k, "prune", it)
        P = build_projector(dictionary.columns(gamma))
        x_new = P.apply(x_tilde)
        _guard_finite(x_new, "pruned estimate", it)
        residual = y - A.apply(x_new)
        records.append(_record(it, h, omega, merged, x_tilde, gamma, x_new, residual))
        stop_reason = _stop_reason(records[-1].residual_norm, y_norm, x_new, x)
        x = x_new
        if stop_reason:
            break
    return RecoveryTrace("sscosamp", stop_reason or STOP_MAX_ITERS, tuple(records))


def cosamp_baseline(A, dictionary, measurements, k, max_iters=50, norm_bound=math.inf):
    """Plain CoSaMP on the combined matrix A D, reported in signal space.

    Runs :func:`~sscosamp.projections.cosamp_steps` with the proxy
    (A D)^H r: identification and pruning threshold raw coefficient
    magnitudes, no column renormalization, exactly the classical algorithm.
    The merged-support fit honors ``norm_bound`` like the main algorithm's
    update step, and the run stops by the same rule.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if max_iters < 1:
        raise InvalidInputError("max_iters must be >= 1")
    y, y_norm = _measured(A, measurements)
    Phi = dictionary.sense(A, None)
    d = Phi.shape[1]
    if 2 * k > d:
        raise InvalidInputError(f"identification needs 2k <= d, got k={k}, d={d}")
    alpha = np.zeros(d, dtype=np.complex128)
    records = []
    steps = cosamp_steps(Phi, Phi.conj().T.__matmul__,
                         lambda cols, rhs: tikhonov_lsq(cols, rhs, norm_bound=norm_bound), y, k)
    for it, (h, omega, merged, beta, gamma, coef, residual) in zip(range(max_iters), steps):
        kept = list(gamma)
        alpha_new = np.zeros(d, dtype=np.complex128)
        alpha_new[kept] = coef
        _guard_finite(alpha_new, "coefficient iterate", it)
        records.append(_record(it, h, omega, merged, dictionary.columns(merged) @ beta, gamma,
                               dictionary.columns(kept) @ coef, residual))
        stop_reason = _stop_reason(records[-1].residual_norm, y_norm, alpha_new, alpha)
        alpha = alpha_new
        if stop_reason:
            break
    return RecoveryTrace("cosamp", stop_reason or STOP_MAX_ITERS, tuple(records))


def omp_baseline(A, dictionary, measurements, k):
    """:func:`~sscosamp.projections.omp_steps` on A D, reported in signal space.

    Correlations are divided by the column norms of A D and each step refits
    by plain least squares.  Stops early once the residual falls to
    ``RESIDUAL_TOL`` times ||y||.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    y, y_norm = _measured(A, measurements)
    Phi = dictionary.sense(A, None)
    d = Phi.shape[1]
    if k > d:
        raise InvalidInputError(f"k={k} exceeds d={d}")
    col_norms = np.linalg.norm(Phi, axis=0)
    weights = np.where(col_norms > 0, col_norms, 1.0)
    # formed after the column norms so it never coexists with their temporaries
    Phi_adj = Phi.conj().T

    def refit(selected):
        beta = lstsq(Phi[:, selected], y)
        _guard_finite(beta, "refit coefficients", len(selected) - 1)
        return y - Phi[:, selected] @ beta, beta

    records = []
    stop_reason = STOP_MAX_ITERS
    steps = omp_steps(Phi_adj.__matmul__, weights, refit, y, k)
    for it, (h, j, selected, residual, beta) in enumerate(steps):
        estimate = dictionary.columns(selected) @ beta
        support = tuple(sorted(selected))
        records.append(_record(it, h, (j,), support, estimate, support, estimate, residual))
        if records[-1].residual_norm <= RESIDUAL_TOL * y_norm:
            stop_reason = STOP_RESIDUAL
            break
    return RecoveryTrace("omp", stop_reason, tuple(records))


def l1_baseline(A, dictionary, measurements, k):
    """Basis pursuit on A D, then top-k support extraction and debiasing.

    Solves min ||a||_1 s.t. ||A D a - y|| <= L1_SIGMA_REL * ||y||, keeps the k
    largest-magnitude coefficients above a floor of 1e-12 * ||y||, and refits
    those by plain least squares.  Coefficients all under the floor (e.g.
    k = 0 or pure noise) give the zero estimate.
    """
    if k < 0:
        raise InvalidInputError("k must be >= 0")
    y, y_norm = _measured(A, measurements)
    Phi = dictionary.sense(A, None)
    support = ()
    if k > 0:
        alpha = basis_pursuit_denoise(Phi, y, L1_SIGMA_REL * y_norm)
        mags = np.abs(alpha)
        eligible = int(np.count_nonzero(mags > L1_MAGNITUDE_FLOOR * y_norm))
        support = top_k(mags, min(k, eligible))
    if support:
        beta = lstsq(Phi[:, list(support)], y)
        x_hat = dictionary.columns(support) @ beta
        residual = y - Phi[:, list(support)] @ beta
    else:
        x_hat = np.zeros(dictionary.n, dtype=np.complex128)
        residual = y.copy()
    record = _record(0, Phi.conj().T @ y, support, support, x_hat, support, x_hat, residual)
    tol = RESIDUAL_TOL * max(y_norm, 1e-300)
    stop = STOP_RESIDUAL if record.residual_norm <= tol else STOP_MAX_ITERS
    return RecoveryTrace("l1", stop, (record,))
