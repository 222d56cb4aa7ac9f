"""Metrics and theory diagnostics.

Recovery quality (SNR), the closed-form convergence constants, the
geometric-decay envelope, empirical and exhaustive restricted-isometry
measurement for dictionary-sparse signals, the model-mismatch quantity, and
the upper-isometry tail inequality.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .linalg import build_projector, lstsq
from .model import SparseCoefficients, _check_same_n, _finite_norm
from .projections import _check_oracle_args, exhaustive_argmin, stacked_residuals, support_bases

__all__ = [
    "snr_db",
    "TheoremConstants",
    "theorem1_constants",
    "EnvelopeReport",
    "corollary1_envelope",
    "DRipEstimate",
    "drip_estimate",
    "drip_exact",
    "MismatchReport",
    "mismatch",
    "TailCheckResult",
    "upper_rip_tail_check",
]

# Error norms below this are reported as perfect (infinite SNR).
SNR_ERROR_FLOOR = 1e-300

# Sampled signals with ||D a|| below this are skipped by the isometry
# estimator rather than divided by.
DRIP_NORM_FLOOR = 1e-12

# Slack allowed below the decay envelope, relative to max(||x||, 1).
ENVELOPE_TOL = 1e-9


def snr_db(x_true, x_est):
    """Signal-to-noise ratio 20*log10(||x|| / ||x - x_hat||) in dB.

    Returns ``math.inf`` when the error norm is below 1e-300, and
    ``-math.inf`` when it overflows.
    """
    x_true = np.asarray(x_true, dtype=np.complex128)
    x_est = np.asarray(x_est, dtype=np.complex128)
    if x_true.shape != x_est.shape:
        raise InvalidInputError("snr_db: shape mismatch")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, handled below
        signal = float(np.linalg.norm(x_true))
        err = float(np.linalg.norm(x_true - x_est))
    if signal == 0.0:
        raise InvalidInputError("snr_db undefined for zero reference signal")
    if err < SNR_ERROR_FLOOR:
        return math.inf
    if err == math.inf:
        return -math.inf
    return 20.0 * math.log10(signal / err)


@dataclass(frozen=True)
class TheoremConstants:
    """Per-iteration contraction factor C1 and noise amplification C2."""

    delta4k: float
    eps1: float
    eps2: float
    C1: float
    C2: float

    @property
    def is_contractive(self):
        """True when errors provably shrink each iteration (C1 < 1)."""
        return self.C1 < 1.0


def theorem1_constants(delta4k, eps1, eps2):
    """Evaluate the closed-form convergence constants.

    C1 = ((2 + eps1)*delta + eps1) * (2 + eps2) * sqrt((1+delta)/(1-delta))
    C2 = (2 + eps2) * ((2 + eps1)*(1 + delta) + 2) / sqrt(1 - delta)

    where delta is the order-4k isometry constant and (eps1, eps2) quantify
    the projection backends' near-optimality.
    """
    if not 0.0 <= delta4k < 1.0:
        raise InvalidInputError("delta4k must lie in [0, 1)")
    if not (eps1 >= 0 and eps2 >= 0):
        raise InvalidInputError("eps1 and eps2 must be >= 0")
    ratio = math.sqrt((1.0 + delta4k) / (1.0 - delta4k))
    c1 = ((2.0 + eps1) * delta4k + eps1) * (2.0 + eps2) * ratio
    c2 = (2.0 + eps2) * ((2.0 + eps1) * (1.0 + delta4k) + 2.0) / math.sqrt(1.0 - delta4k)
    return TheoremConstants(delta4k=float(delta4k), eps1=float(eps1), eps2=float(eps2),
                            C1=c1, C2=c2)


@dataclass(frozen=True)
class EnvelopeReport:
    """Per-iteration check of error <= 2^-l * ||x|| + 25.4 * ||e||.

    ``slacks[i]`` is envelope minus error after iteration i+1 (negative
    means violated).  The envelope binds only when its preconditions hold
    (isometry constant <= 0.029 and exhaustive projections); otherwise the
    result is advisory.
    """

    passed: bool
    slacks: tuple


def corollary1_envelope(trace, x_true, noise_norm):
    """Compare a trace's per-iteration errors against the decay envelope."""
    x_true = np.asarray(x_true, dtype=np.complex128)
    x_norm = float(np.linalg.norm(x_true))
    errors = trace.errors_to(x_true)
    slacks = []
    for i, err in enumerate(errors):
        envelope = (0.5 ** (i + 1)) * x_norm + 25.4 * noise_norm
        slacks.append(envelope - err)
    passed = all(s >= -ENVELOPE_TOL * max(x_norm, 1.0) for s in slacks)
    return EnvelopeReport(passed=passed, slacks=tuple(slacks))


@dataclass(frozen=True)
class DRipEstimate:
    """Lower bound on an isometry constant from sampled sparse signals."""

    order_k: int
    delta_lower: float
    trials: int
    exhaustive: bool = False

    @property
    def is_valid_rip(self):
        """False when the measured distortion already rules out delta < 1."""
        return self.delta_lower < 1.0


def drip_estimate(A, dictionary, k, trials, seed):
    """Monte-Carlo lower bound on the order-k isometry constant of A on D.

    Samples k-sparse coefficient vectors (uniform supports, complex Gaussian
    values) and records the worst distortion | ||A D a||^2 / ||D a||^2 - 1 |.
    Samples with ||D a|| below 1e-12 are skipped.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if not 1 <= k <= dictionary.d:
        raise InvalidInputError(f"need 1 <= k <= d={dictionary.d}")
    _check_same_n(A, dictionary)
    rng = np.random.default_rng(seed)
    worst = -1.0
    for _ in range(trials):
        support = rng.choice(dictionary.d, size=k, replace=False)
        values = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2.0)
        signal = dictionary.matrix[:, support] @ values
        denom = float(_finite_norm(signal, "the norm of a sampled signal D a overflows", None))
        if denom < DRIP_NORM_FLOOR:
            continue
        with np.errstate(over="ignore"):  # entries near 1e300 overflow the product itself
            num = float(_finite_norm(A.matrix @ signal, "the norm of a sampled A D a overflows",
                                     None))
        worst = max(worst, abs((num / denom) ** 2 - 1.0))
    if worst < 0.0:
        raise NumericalFailureError("drip_estimate: every sampled signal was degenerate")
    return DRipEstimate(order_k=int(k), delta_lower=worst, trials=int(trials))


def drip_exact(A, dictionary, k):
    """Exact order-k isometry constant by enumerating every support.

    For each support, extremal values of ||A w|| over unit w in the span of
    the selected columns come from the eigenvalues of Q^H A^H A Q with Q an
    orthonormal basis of the span.  The bases come stacked from
    ``projections.support_bases`` and their eigenvalues from one batched
    solve per chunk; a rank-deficient support takes ``build_projector``'s
    basis instead.  Only feasible for small d: refuses more than
    ``projections.DEFAULT_ENUMERATION_CAP`` supports.  Refuses an ``A`` whose
    Gram matrix, or one of its restrictions, overflows.
    """
    if not 1 <= k <= dictionary.d:
        raise InvalidInputError(f"need 1 <= k <= d={dictionary.d}")
    _check_same_n(A, dictionary)
    with np.errstate(over="ignore", invalid="ignore"):  # the check reports the overflow
        gram = A.matrix.T @ A.matrix
    if not np.isfinite(gram).all():
        raise InvalidInputError("the Gram matrix A^T A overflows")
    worst = 0.0
    for supports, Q, full in support_bases(dictionary.matrix, k):
        stacks = [Q[full]] + [build_projector(dictionary.columns(s)).basis[None]
                              for s in supports[~full]]
        for Qs in stacks:
            if Qs.size:  # skips an empty stack and a rank-0 basis
                with np.errstate(over="ignore", invalid="ignore"):
                    restricted = Qs.conj().transpose(0, 2, 1) @ gram @ Qs
                if not np.isfinite(restricted).all():
                    raise InvalidInputError("a restriction Q^H A^T A Q overflows")
                eigs = np.linalg.eigvalsh(restricted)
                worst = max(worst, float(np.max(np.abs(eigs[:, [0, -1]] - 1.0))))
    return DRipEstimate(order_k=int(k), delta_lower=worst, trials=math.comb(dictionary.d, k),
                        exhaustive=True)


@dataclass(frozen=True)
class MismatchReport:
    """How far a signal is from being exactly k-sparse in the dictionary.

    ``value`` is  min over supports of  ||x - D a|| + ||x - D a||_1 / sqrt(k)
    with per-support coefficients fit by least squares.  Because the fit
    optimizes only the first term, the reported value is an upper bound on
    the true mixed-objective infimum.
    """

    k: int
    value: float
    minimizing_coeffs: SparseCoefficients


def mismatch(dictionary, x, k):
    """Evaluate the model-mismatch quantity for x at sparsity k.

    Scans every size-k support and refuses more than
    ``projections.DEFAULT_ENUMERATION_CAP`` of them.  It scores the residuals
    of stacked bases (``projections.exhaustive_argmin``, which keeps them on
    the dictionary) and fits the winner by least squares, which gives the
    reported value and coefficients.
    """
    x = _check_oracle_args(dictionary, x, k)
    root_k = math.sqrt(k)

    def exact(support):
        cols = dictionary.columns(support)
        coeffs = lstsq(cols, x)
        resid = x - cols @ coeffs
        return float(np.linalg.norm(resid) + np.linalg.norm(resid, 1) / root_k), coeffs

    def batch_scores(Q):
        resid = stacked_residuals(Q, x)
        return np.linalg.norm(resid, axis=1) + np.abs(resid).sum(axis=1) / root_k

    scale = float(np.linalg.norm(x) + np.linalg.norm(x, 1) / root_k)
    support, best, best_coeffs = exhaustive_argmin(dictionary, k, batch_scores, exact, scale)
    coeffs = SparseCoefficients(support=support, values=best_coeffs, ambient_dim=dictionary.d)
    return MismatchReport(k=int(k), value=best, minimizing_coeffs=coeffs)


@dataclass(frozen=True)
class TailCheckResult:
    """Outcome of the upper-isometry tail inequality for one vector."""

    holds: bool
    slack: float
    bound: float
    observed: float


def upper_rip_tail_check(A, k, z, delta_k_est):
    """Check ||A z|| <= sqrt(1 + delta_k) * (||z|| + ||z||_1 / sqrt(k)).

    ``delta_k_est`` should come from an isometry estimate with the identity
    dictionary (standard sparse vectors).  Returns the inequality status and
    the slack bound - observed.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1 or z.shape[0] != A.n:
        raise InvalidInputError(f"z must be a length-{A.n} vector")
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if not delta_k_est >= 0:
        raise InvalidInputError("delta_k_est must be >= 0")
    z_norm = float(_finite_norm(z, "z contains non-finite entries or its norm overflows", None))
    with np.errstate(over="ignore"):  # entries near 1e300 overflow the product itself
        observed = float(_finite_norm(A.matrix @ z, "the norm of A z overflows", None))
    bound = math.sqrt(1.0 + delta_k_est) * (z_norm + float(np.linalg.norm(z, 1)) / math.sqrt(k))
    slack = bound - observed
    return TailCheckResult(holds=slack >= 0.0, slack=slack, bound=bound, observed=observed)
