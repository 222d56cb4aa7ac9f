"""Dense complex linear algebra primitives.

Orthogonal projectors onto column spans, plain and norm-constrained (ridge)
least squares, and power-iteration operator norms.  Everything here is a
pure function of its inputs: no global state, deterministic results,
complex128 arithmetic throughout (real inputs are embedded with zero
imaginary part).  A LAPACK failure (``LinAlgError``) surfaces as
:class:`NumericalFailureError`, so callers handle one failure type.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import InvalidInputError, NumericalFailureError

__all__ = [
    "OrthoProjector",
    "build_projector",
    "lstsq",
    "tikhonov_lsq",
    "operator_norm",
]

# Pivot magnitudes below this fraction of the largest pivot are treated as
# rank-deficient directions and dropped from projector bases.
DEFAULT_RANK_TOL = 1e-10

# A QR solve answers the update fit only when the ztrcon estimate of R's
# reciprocal condition number exceeds this.  The SVD path's rank cutoff is
# max(m, t) * eps (about 3e-14 at m = 128), so above this floor the SVD would
# truncate nothing and return the same plain least-squares solution.
QR_RCOND_MIN = 1e-10


def lstsq(cols, y):
    """Minimum-norm least-squares coefficients for ``y ~ cols @ beta``."""
    try:
        beta, *_ = np.linalg.lstsq(cols, y, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"lstsq: {exc}") from exc
    return beta


def _as_matrix(M, name="matrix"):
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
    projector is ``basis @ (basis^H z)``.  ``support`` records which column
    indices the span came from, when known.
    """

    basis: np.ndarray
    support: tuple = field(default=())

    @property
    def rank(self):
        return self.basis.shape[1]

    @property
    def dim(self):
        return self.basis.shape[0]

    def apply(self, z):
        """Return P z, the orthogonal projection of ``z`` onto the span."""
        z = _as_vector(z)
        if z.shape[0] != self.dim:
            raise InvalidInputError(
                f"vector length {z.shape[0]} does not match projector dimension {self.dim}"
            )
        if self.rank == 0:
            return np.zeros_like(z)
        return self.basis @ (self.basis.conj().T @ z)

    def complement(self, z):
        """Return z - P z, the projection onto the orthogonal complement."""
        z = _as_vector(z)
        return z - self.apply(z)

    def dense(self):
        """Materialize the n-by-n projector matrix (for diagnostics/tests)."""
        if self.rank == 0:
            return np.zeros((self.dim, self.dim), dtype=np.complex128)
        return self.basis @ self.basis.conj().T


def build_projector(cols, rank_tol=DEFAULT_RANK_TOL, support=()):
    """Build the orthogonal projector onto the column span of ``cols``.

    Uses Householder QR with column pivoting; pivots whose magnitude falls
    below ``rank_tol`` times the largest pivot are dropped, so nearly
    dependent columns of a coherent dictionary do not pollute the basis.

    Parameters
    ----------
    cols : ndarray (n, t)
        Columns spanning the target subspace (t >= 1).
    rank_tol : float
        Relative pivot threshold for rank detection (>= 0).
    support : tuple of int, optional
        Column indices the span came from; stored for bookkeeping only.

    Returns
    -------
    OrthoProjector
    """
    cols = _as_matrix(cols, "cols")
    if cols.shape[1] == 0:
        raise InvalidInputError("cannot build a projector from zero columns")
    if rank_tol < 0:
        raise InvalidInputError("rank_tol must be >= 0")
    try:
        Q, R, _ = scipy.linalg.qr(cols, mode="economic", pivoting=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"build_projector: {exc}") from exc
    pivots = np.abs(np.diag(R))
    if pivots.size == 0 or pivots[0] == 0.0:
        rank = 0
    elif rank_tol == 0.0:
        rank = int(np.count_nonzero(pivots > 0.0))
    else:
        rank = int(np.count_nonzero(pivots >= rank_tol * pivots[0]))
    return OrthoProjector(basis=np.ascontiguousarray(Q[:, :rank]), support=tuple(support))


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
    qr, tau, _, info = lapack.zgeqrf(M)
    if info != 0:
        return None
    rcond, info = lapack.ztrcon(qr[:t])
    if info != 0 or not rcond > QR_RCOND_MIN:
        return None
    qhy, _, info = lapack.zunmqr("L", "C", qr, tau, y[:, None], 1)
    if info != 0:
        return None
    beta, info = lapack.ztrtrs(qr, qhy)
    if info != 0:
        return None
    return beta[:t, 0]


def _ridge_constrained(M, y, norm_bound, tol, max_bisect):
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
    if np.linalg.norm(beta0) <= norm_bound * (1.0 + tol):
        return beta0

    sc2 = (s * np.abs(c)) ** 2

    def beta_norm(lam):
        return float(np.sqrt(np.sum(sc2 / (s**2 + lam) ** 2)))

    # Bracket: beta_norm is continuous and strictly decreasing to 0.
    hi = max(float(s[0]) ** 2, 1.0)
    for _ in range(max_bisect):
        if beta_norm(hi) <= norm_bound:
            break
        hi *= 2.0
    else:
        raise NumericalFailureError(
            "tikhonov_lsq: failed to bracket the ridge parameter",
            diagnostics={"norm_bound": norm_bound, "hi": hi},
        )
    lo = 0.0
    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        val = beta_norm(mid)
        if abs(val - norm_bound) <= tol * norm_bound:
            return Vh.conj().T @ (s * c / (s**2 + mid))
        if val > norm_bound:
            lo = mid
        else:
            hi = mid
    raise NumericalFailureError(
        f"tikhonov_lsq: bisection did not converge in {max_bisect} iterations",
        diagnostics={"lo": lo, "hi": hi, "norm_bound": norm_bound},
    )


def tikhonov_lsq(A, cols, y, norm_bound, tol=1e-9, max_bisect=200):
    """Norm-constrained least squares over a dictionary submatrix.

    Solves ``min_b ||y - A @ cols @ b||  s.t.  ||b|| <= norm_bound``.  A tall,
    well-conditioned system whose plain least-squares solution lies inside
    the bound is answered by one Householder QR.  Every other system goes
    through the SVD: minimum-norm truncation, then ridge regularization with
    the ridge parameter found by bisection on the constraint.  The
    synthesized signal is ``cols @ b``.

    Parameters
    ----------
    A : ndarray (m, n) or None
        Sensing matrix; ``None`` means the identity (fit ``y ~ cols @ b``).
    cols : ndarray (n, t)
        Active dictionary columns (t >= 1).
    y : ndarray (m,)
        Target vector.
    norm_bound : float
        Positive bound on ||b||; ``inf`` yields the plain minimum-norm
        least-squares solution.
    tol : float
        Relative slack allowed on the constraint at the boundary.
    max_bisect : int
        Iteration cap for bracketing and bisection.

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
    if A is None:
        M = cols
        if y.shape[0] != cols.shape[0]:
            raise InvalidInputError("y length does not match cols row count")
    else:
        A = _as_matrix(A, "A")
        if A.shape[1] != cols.shape[0]:
            raise InvalidInputError("A column count does not match cols row count")
        if A.shape[0] != y.shape[0]:
            raise InvalidInputError("A row count does not match y length")
        M = A @ cols
    beta = _qr_lstsq(M, y)
    if beta is not None and np.linalg.norm(beta) <= norm_bound * (1.0 + tol):
        return beta
    return _ridge_constrained(M, y, norm_bound, tol, max_bisect)


def operator_norm(M, iters=200):
    """Largest singular value of ``M`` by power iteration on M^H M.

    The Rayleigh-quotient estimates are non-decreasing over iterations, so
    the result is a lower bound that tightens with ``iters``.  Deterministic:
    the starting vector comes from a fixed internal seed.

    Parameters
    ----------
    M : ndarray (m, n)
    iters : int
        Number of power iterations (>= 10).

    Returns
    -------
    float : estimated spectral norm.
    """
    M = _as_matrix(M, "M")
    if M.shape[0] == 0 or M.shape[1] == 0:
        raise InvalidInputError("operator_norm requires a non-empty matrix")
    if iters < 10:
        raise InvalidInputError("operator_norm requires iters >= 10")
    if not np.any(M):
        return 0.0
    rng = np.random.default_rng(0x5CC05A3F)
    n = M.shape[1]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # A fixed start could land in the null space; retry from the same stream.
    for _ in range(8):
        nv = np.linalg.norm(v)
        if nv > 0 and np.linalg.norm(M @ (v / nv)) > 0:
            break
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        return 0.0
    v /= np.linalg.norm(v)
    MH = M.conj().T
    est = 0.0
    for _ in range(iters):
        w = M @ v
        est = max(est, float(np.linalg.norm(w)))
        u = MH @ w
        nu = np.linalg.norm(u)
        if nu == 0.0:
            break
        v = u / nu
    return est
