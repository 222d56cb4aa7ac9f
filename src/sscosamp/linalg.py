"""Dense complex linear algebra primitives.

Orthogonal projectors onto column spans and plain and norm-constrained
(ridge) least squares.  Everything here is a
pure function of its inputs: no global state, deterministic results,
complex128 arithmetic throughout (real inputs are embedded with zero
imaginary part).  A LAPACK failure (``LinAlgError``) surfaces as
:class:`NumericalFailureError`, so callers handle one failure type.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInputError, NumericalFailureError

__all__ = [
    "OrthoProjector",
    "build_projector",
    "lstsq",
    "tikhonov_lsq",
]

# Pivot magnitudes below this fraction of the largest pivot are treated as
# rank-deficient directions and dropped from projector bases.
DEFAULT_RANK_TOL = 1e-10

# A QR solve answers the update fit only when the ztrcon estimate of R's
# reciprocal condition number exceeds this.  The SVD path's rank cutoff is
# max(m, t) * eps (about 3e-14 at m = 128), so above this floor the SVD would
# truncate nothing and return the same plain least-squares solution.
QR_RCOND_MIN = 1e-10

# Relative slack the norm-bounded fit allows on its constraint, and the cap on
# its bracketing and bisection steps for the ridge parameter.
TIKHONOV_TOL = 1e-9
TIKHONOV_MAX_BISECT = 200


def _norm(x):
    """Euclidean norm of a 1-D complex vector, as ``np.linalg.norm`` computes
    it bit for bit, without its dispatch."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def lstsq(cols, y):
    """Minimum-norm least-squares coefficients for ``y ~ cols @ beta``."""
    try:
        beta, *_ = np.linalg.lstsq(cols, y, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"lstsq: {exc}") from exc
    return beta


def _as_matrix(M, name):
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if M.size and not np.isfinite(M).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return M


def _as_vector(z, name="vector"):
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-dimensional, got shape {z.shape}")
    if z.size and not np.isfinite(z).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return z


@dataclass(frozen=True, eq=False)
class OrthoProjector:
    """Orthogonal projector onto the span of a set of dictionary columns.

    ``basis`` has orthonormal columns spanning the range; applying the
    projector is ``basis @ (basis^H z)``, the zero vector when ``basis`` has
    no columns.
    """

    basis: np.ndarray

    def apply(self, z):
        """Return P z, the orthogonal projection of ``z`` onto the span."""
        z = _as_vector(z)
        n = self.basis.shape[0]
        if z.shape[0] != n:
            raise InvalidInputError(
                f"vector length {z.shape[0]} does not match projector dimension {n}"
            )
        return self.basis @ (self.basis.conj().T @ z)


def build_projector(cols):
    """Build the orthogonal projector onto the column span of ``cols``.

    Uses Householder QR with column pivoting (LAPACK ``zgeqp3``, then
    ``zungqr`` for the basis, called directly); pivots whose magnitude falls
    below ``DEFAULT_RANK_TOL`` times the largest pivot are dropped, so nearly
    dependent columns of a coherent dictionary do not pollute the basis.

    Parameters
    ----------
    cols : ndarray (n, t)
        Columns spanning the target subspace (t >= 1).

    Returns
    -------
    OrthoProjector
    """
    cols = _as_matrix(cols, "cols")
    if cols.shape[1] == 0:
        raise InvalidInputError("cannot build a projector from zero columns")
    if cols.shape[0] == 0:
        return OrthoProjector(basis=np.zeros((0, 0), dtype=np.complex128))
    try:
        qr, _, tau, _ = _lapack_call("zgeqp3", cols)
        # pivots before zungqr overwrites qr; wide inputs keep a square Q
        pivots = np.abs(qr.diagonal())
        Q, _ = _lapack_call("zungqr", qr[:, :cols.shape[0]], tau, overwrite_a=1)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"build_projector: {exc}") from exc
    if pivots[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(pivots >= DEFAULT_RANK_TOL * pivots[0]))
    return OrthoProjector(basis=np.ascontiguousarray(Q[:, :rank]))


def _lapack_call(name, *args, **kwargs):
    """The outputs of one ``lapack.<name>`` call but its ``info``, as a list,
    with the wrapper's default workspace; LinAlgError on a nonzero info."""
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} returned info = {info}")
    return out


def _qr_lstsq(M, y):
    """Least-squares solution of a tall, well-conditioned ``M`` by Householder QR.

    Returns None when ``M`` is wide, when R's reciprocal condition estimate
    is at or below ``QR_RCOND_MIN``, or when LAPACK reports an error; the
    caller then takes the SVD path.  ``ztrcon`` and ``ztrtrs`` read only the
    upper triangle, so R needs no ``np.triu`` copy.  ``ztrcon`` is given the
    leading t rows: its wrapper misreads the condition of a tall array.
    """
    m, t = M.shape
    if m < t:
        return None
    try:
        qr, tau, _ = _lapack_call("zgeqrf", M)
        rcond, = _lapack_call("ztrcon", qr[:t])
        if not rcond > QR_RCOND_MIN:
            return None
        qhy, _ = _lapack_call("zunmqr", "L", "C", qr, tau, y[:, None], 1)
        beta, = _lapack_call("ztrtrs", qr, qhy)
    except np.linalg.LinAlgError:
        return None
    return beta[:t, 0]


def _ridge_constrained(M, y, norm_bound):
    """Minimize ||y - M b|| subject to ||b|| <= norm_bound.

    Diagonalizes the ridge normal equations (M^H M + lam I) b = M^H y via the
    SVD of M, then bisects on lam so that ||b(lam)|| lands on the bound.
    lam = 0 (the minimum-norm least-squares solution) is accepted whenever it
    already satisfies the bound.
    """
    try:
        U, s, Vh = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"tikhonov_lsq: {exc}") from exc
    c = U.conj().T @ y
    # Minimum-norm solution with a machine-precision rank cutoff.
    cutoff = max(M.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    live = s > cutoff
    beta0 = Vh.conj().T @ np.where(live, c / np.where(live, s, 1.0), 0.0)
    if np.linalg.norm(beta0) <= norm_bound * (1.0 + TIKHONOV_TOL):
        return beta0

    sc2 = (s * np.abs(c)) ** 2

    def beta_norm(lam):
        return float(np.sqrt(np.sum(sc2 / (s**2 + lam) ** 2)))

    # Bracket: beta_norm is continuous and strictly decreasing to 0.
    hi = max(float(s[0]) ** 2, 1.0)
    for _ in range(TIKHONOV_MAX_BISECT):
        if beta_norm(hi) <= norm_bound:
            break
        hi *= 2.0
    else:
        raise NumericalFailureError(
            "tikhonov_lsq: failed to bracket the ridge parameter",
            diagnostics={"norm_bound": norm_bound, "hi": hi},
        )
    lo = 0.0
    for _ in range(TIKHONOV_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        val = beta_norm(mid)
        if abs(val - norm_bound) <= TIKHONOV_TOL * norm_bound:
            return Vh.conj().T @ (s * c / (s**2 + mid))
        if val > norm_bound:
            lo = mid
        else:
            hi = mid
    raise NumericalFailureError(
        f"tikhonov_lsq: bisection did not converge in {TIKHONOV_MAX_BISECT} iterations",
        diagnostics={"lo": lo, "hi": hi, "norm_bound": norm_bound},
    )


def tikhonov_lsq(cols, y, norm_bound):
    """Norm-constrained least squares over a set of columns.

    Solves ``min_b ||y - cols @ b||  s.t.  ||b|| <= norm_bound``.  A tall,
    well-conditioned system whose plain least-squares solution lies inside
    the bound is answered by one Householder QR.  Every other system goes
    through the SVD: minimum-norm truncation, then ridge regularization with
    the ridge parameter found by bisection on the constraint, to a relative
    slack of ``TIKHONOV_TOL`` in at most ``TIKHONOV_MAX_BISECT`` steps.

    Parameters
    ----------
    cols : ndarray (m, t)
        Columns to fit with (t >= 1); the update step passes the columns
        ``A @ D[:, S]`` of the composed operator.
    y : ndarray (m,)
        Target vector.
    norm_bound : float
        Positive bound on ||b||; ``inf`` yields the plain minimum-norm
        least-squares solution.

    Returns
    -------
    ndarray (t,) : coefficient vector b.
    """
    cols = _as_matrix(cols, "cols")
    y = _as_vector(y, "y")
    if cols.shape[1] == 0:
        raise InvalidInputError("empty support: cols must have at least one column")
    if y.shape[0] < 1:
        raise InvalidInputError("y must have at least one entry")
    if not norm_bound > 0:
        raise InvalidInputError("norm_bound must be positive")
    if y.shape[0] != cols.shape[0]:
        raise InvalidInputError("y length does not match cols row count")
    beta = _qr_lstsq(cols, y)
    if beta is not None and _norm(beta) <= norm_bound * (1.0 + TIKHONOV_TOL):
        return beta
    return _ridge_constrained(cols, y, norm_bound)
