"""Problem instances: dictionaries, sparse coefficients, sensing, measurements.

Supports are 0-based sorted tuples of column indices throughout the package.
All drawing functions are deterministic given their ``seed`` argument, which
may be anything ``numpy.random.default_rng`` accepts (int, SeedSequence, or
an existing Generator).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

__all__ = [
    "Dictionary",
    "SparseCoefficients",
    "SensingMatrix",
    "Measurements",
    "build_overcomplete_dft",
    "build_rescaled_identity",
    "draw_sparse_coefficients",
    "synthesize",
    "draw_gaussian_sensing",
    "measure",
]

# Guard against accidental requests for enormous dense dictionaries.
MAX_DICT_ENTRIES = 100_000_000


@dataclass(frozen=True, eq=False)
class Dictionary:
    """An n-by-d synthesis dictionary with cached column norms.

    ``matrix`` is stored as complex128 regardless of input dtype.  The
    builders return subclasses with faster operators for their structure.
    What is derived from ``matrix`` is computed once and kept for the
    dictionary's lifetime: the column norms, the conjugate ``analysis`` uses
    and the exhaustive oracle's memos (``projections.optimal_projection``).
    So ``matrix`` must not be changed in place.
    """

    matrix: np.ndarray
    column_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=np.complex128)
        if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
            raise InvalidInputError(f"dictionary matrix must be 2-D and non-empty, got {M.shape}")
        if not np.isfinite(M).all():
            raise InvalidInputError("dictionary matrix contains non-finite entries")
        norms = np.linalg.norm(M, axis=0)
        if np.any(norms == 0.0):
            raise InvalidInputError("dictionary has a zero column")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "column_norms", norms)

    @property
    def n(self):
        return self.matrix.shape[0]

    @property
    def d(self):
        return self.matrix.shape[1]

    @cached_property
    def _conj(self):
        return self.matrix.conj()

    @cached_property
    def _oracle_memo(self):
        # the exhaustive oracle's last answer and one-chunk support bases
        return {}

    def analysis(self, z):
        """Return the analysis coefficients D^H z.

        The conjugate of ``matrix`` is computed on first use and kept, so
        repeated calls cost one matrix-vector product each.
        """
        return self._conj.T @ z

    def _indices(self, support):
        idx = list(support)
        if not idx:
            raise InvalidInputError("empty support")
        if min(idx) < 0 or max(idx) >= self.d:
            raise InvalidInputError(f"support indices out of range [0, {self.d})")
        return idx

    def columns(self, support):
        """Return the n-by-|support| submatrix of the given column indices."""
        return self.matrix[:, self._indices(support)]

    def sense(self, A, support):
        """Return the columns of the composed operator A D.

        ``A @ D[:, support]`` for a support, or all of ``A @ D`` when
        ``support`` is None; A is a :class:`SensingMatrix` on the same n.
        """
        _check_same_n(A, self)
        return A.apply(self.matrix if support is None else self.columns(support))

    def adjacent_coherence(self):
        """Max normalized inner product between consecutive columns."""
        if self.d < 2:
            return 0.0
        left = self.matrix[:, :-1]
        right = self.matrix[:, 1:]
        inner = np.abs(np.einsum("ij,ij->j", left.conj(), right))
        return float(np.max(inner / (self.column_norms[:-1] * self.column_norms[1:])))


@dataclass(frozen=True, eq=False)
class SparseCoefficients:
    """A k-sparse coefficient vector stored as (support, values).

    ``support`` is a strictly increasing tuple of 0-based indices into an
    ambient dimension ``d``; ``values`` holds the matching nonzero entries.
    """

    support: tuple
    values: np.ndarray
    ambient_dim: int

    def __post_init__(self):
        sup = tuple(int(i) for i in self.support)
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or len(sup) != vals.shape[0]:
            raise InvalidInputError("support and values must have matching lengths")
        if any(b <= a for a, b in zip(sup, sup[1:])):
            raise InvalidInputError("support must be strictly increasing")
        if sup and (sup[0] < 0 or sup[-1] >= self.ambient_dim):
            raise InvalidInputError("support indices out of range")
        if vals.size and not np.isfinite(vals).all():
            raise InvalidInputError("coefficient values must be finite")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "values", vals)

    @property
    def sparsity(self):
        return len(self.support)

    def norm(self):
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True, eq=False)
class SensingMatrix:
    """An m-by-n real measurement operator.

    :meth:`apply` and :meth:`adjoint` multiply complex operands by complex128
    copies of ``matrix`` and of its transpose, made on first use and kept
    (2·m·n·16 bytes), so no call casts the real matrix again.  They give the
    bits of ``matrix @ x`` and ``matrix.T @ r``, for which numpy makes those
    same copies on every call.  As with :class:`Dictionary`, ``matrix`` must
    not be changed in place.
    """

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
            raise InvalidInputError(f"sensing matrix must be 2-D and non-empty, got {M.shape}")
        if not np.isfinite(M).all():
            raise InvalidInputError("sensing matrix contains non-finite entries")
        object.__setattr__(self, "matrix", M)

    @property
    def m(self):
        return self.matrix.shape[0]

    @property
    def n(self):
        return self.matrix.shape[1]

    @cached_property
    def _complex(self):
        return self.matrix.astype(np.complex128)

    @cached_property
    def _complex_t(self):
        return np.ascontiguousarray(self.matrix.T, dtype=np.complex128)

    def apply(self, x):
        """Return A x for a length-n vector or an n-row matrix ``x``."""
        return self._complex @ x

    def adjoint(self, r):
        """Return A^H r = A^T r for a length-m vector ``r`` (A is real)."""
        return self._complex_t @ r


def _check_same_n(A, dictionary):
    if A.n != dictionary.n:
        raise InvalidInputError("sensing matrix and dictionary disagree on n")


@dataclass(frozen=True, eq=False)
class Measurements:
    """Observed vector y = A x + e."""

    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.complex128)
        if y.ndim != 1:
            raise InvalidInputError("y must be a vector")
        with np.errstate(over="ignore"):  # the check reports the overflow
            y_norm = np.linalg.norm(y)
        if not math.isfinite(y_norm):
            raise InvalidInputError("y contains non-finite entries or its norm overflows")
        object.__setattr__(self, "y", y)

    @property
    def m(self):
        return self.y.shape[0]


def build_overcomplete_dft(n, redundancy):
    """Overcomplete DFT dictionary: n-by-(redundancy*n), unit-norm columns.

    Column j has entries ``exp(2*pi*1j*t*j/d)/sqrt(n)`` for t = 0..n-1 with
    d = redundancy*n.  redundancy = 1 gives the unitary DFT.
    """
    n = int(n)
    redundancy = int(redundancy)
    if n < 2:
        raise InvalidInputError("n must be >= 2")
    if redundancy < 1:
        raise InvalidInputError("redundancy must be >= 1")
    d = n * redundancy
    if n * d > MAX_DICT_ENTRIES:
        raise InvalidInputError(f"requested DFT dictionary too large ({n}x{d})")
    t = np.arange(n).reshape(-1, 1)
    j = np.arange(d).reshape(1, -1)
    M = np.exp((2j * np.pi / d) * (t * j)) / math.sqrt(n)
    return _OvercompleteDFT(matrix=M)


class _OvercompleteDFT(Dictionary):
    """The dictionary :func:`build_overcomplete_dft` returns.

    Its analysis operator is a zero-padded FFT, O(d log d) per vector, and
    it keeps no conjugate copy of the matrix.  It agrees with the matrix
    product to about 1e-12 relative.
    """

    def analysis(self, z):
        return np.fft.fft(z, self.d, axis=0) / math.sqrt(self.n)


def build_rescaled_identity(n, scale):
    """Diagonal dictionary with the first n/2 columns scaled by ``scale``.

    Columns stay mutually orthogonal but wildly different in norm, which
    defeats projections that sort raw analysis coefficients without
    renormalizing.
    """
    n = int(n)
    if n % 2 != 0:
        raise InvalidInputError("n must be even")
    if n < 2:
        raise InvalidInputError("n must be >= 2")
    if not scale > 0:
        raise InvalidInputError("scale must be positive")
    diag = np.ones(n)
    diag[: n // 2] = scale
    return _Diagonal(matrix=np.diag(diag))


class _Diagonal(Dictionary):
    """The dictionary :func:`build_rescaled_identity` returns.

    ``matrix`` is diagonal, so analysis, column gathers and the columns of
    A D scale by the diagonal instead of forming dense products.  Every sum
    of the dense product has one nonzero term, so the results carry the
    dense product's bits.
    """

    @cached_property
    def _diag(self):
        return self.matrix.diagonal().copy()

    def analysis(self, z):
        # + 0.0 turns the -0.0 of a zero entry into the +0.0 a dense sum gives
        return self._diag.conj() * z + 0.0

    def columns(self, support):
        idx = self._indices(support)
        cols = np.zeros((self.n, len(idx)), dtype=np.complex128)
        cols[idx, np.arange(len(idx))] = self._diag[idx]
        return cols

    def sense(self, A, support):
        _check_same_n(A, self)
        idx = slice(None) if support is None else self._indices(support)
        return A.matrix[:, idx] * self._diag[idx]


def _separated_support(rng, d, k, min_gap, cyclic):
    """Uniform draw of a support with >= min_gap zeros between entries.

    Linear spacings come from the standard bijection (choose k positions out
    of d - (k-1)*min_gap, then re-inflate the gaps).  With ``cyclic`` the
    wraparound gap from the last index back to the first must also clear
    min_gap, enforced by rejection.  The hybrid pattern's separated half
    comes from here too, so both patterns share the feasibility check.
    """
    if min_gap < 0:
        raise InvalidInputError("min_gap must be >= 0")
    if k * (min_gap + 1) > d:
        raise InvalidInputError(
            f"separated indices infeasible: {k}*(min_gap+1) = {k * (min_gap + 1)} > d = {d}"
        )
    reduced = d - (k - 1) * min_gap
    for _ in range(10_000):
        base = np.sort(rng.choice(reduced, size=k, replace=False))
        support = base + min_gap * np.arange(k)
        if not cyclic or k < 2:
            return support
        if (support[0] + d) - support[-1] >= min_gap + 1:
            return support
    raise NumericalFailureError(
        "separated support sampling: rejection loop exhausted",
        diagnostics={"d": d, "k": k, "min_gap": min_gap},
    )


def _hybrid_support(rng, d, k, min_gap, cyclic):
    """Half the indices well-separated, the rest one contiguous block."""
    n_sep = k // 2
    n_block = k - n_sep
    for _ in range(10_000):
        parts = []
        if n_sep:
            parts.append(_separated_support(rng, d, n_sep, min_gap, cyclic))
        start = int(rng.integers(0, d - n_block + 1))
        parts.append(np.arange(start, start + n_block))
        support = np.union1d(*parts) if len(parts) == 2 else parts[0]
        if support.size == k:
            return support
    raise NumericalFailureError("hybrid support sampling: rejection loop exhausted",
                                diagnostics={"d": d, "k": k, "min_gap": min_gap})


def draw_sparse_coefficients(d, k, pattern, seed, min_gap=8, cyclic=False, complex_values=True):
    """Draw a random k-sparse coefficient vector.

    Parameters
    ----------
    d, k : int
        Ambient dimension and sparsity (0 <= k <= d).
    pattern : {"uniform", "separated", "clustered", "hybrid"}
        Support model: uniform without replacement; well-separated with at
        least ``min_gap`` zeros between consecutive indices (``cyclic``
        additionally enforces the wraparound gap); a single block of k
        consecutive indices at a uniformly random start; or k // 2
        separated indices plus a block of the rest, redrawn until the two
        do not overlap.
    seed : int, SeedSequence, or Generator
    min_gap : int
        Minimum zero-run between separated support indices.
    cyclic : bool
        Treat the index range as a circle when checking separation.
    complex_values : bool
        Standard complex Gaussian values when True, real standard Gaussian
        when False.

    Returns
    -------
    SparseCoefficients
    """
    d = int(d)
    k = int(k)
    if d < 1:
        raise InvalidInputError("d must be >= 1")
    if k < 0 or k > d:
        raise InvalidInputError(f"need 0 <= k <= d, got k={k}, d={d}")
    rng = np.random.default_rng(seed)
    if k == 0:
        support = np.array([], dtype=int)
    elif pattern == "uniform":
        support = np.sort(rng.choice(d, size=k, replace=False))
    elif pattern == "separated":
        support = _separated_support(rng, d, k, min_gap, cyclic)
    elif pattern == "clustered":
        start = int(rng.integers(0, d - k + 1))
        support = np.arange(start, start + k)
    elif pattern == "hybrid":
        support = _hybrid_support(rng, d, k, min_gap, cyclic)
    else:
        raise InvalidInputError(f"unknown support pattern: {pattern!r}")
    if complex_values:
        values = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2.0)
    else:
        values = rng.standard_normal(k).astype(np.complex128)
    return SparseCoefficients(support=tuple(int(i) for i in support), values=values, ambient_dim=d)


def synthesize(dictionary, coeffs):
    """Form the signal x = D alpha from a sparse coefficient vector."""
    if coeffs.ambient_dim != dictionary.d:
        raise InvalidInputError(
            f"coefficient dimension {coeffs.ambient_dim} does not match dictionary d={dictionary.d}"
        )
    if coeffs.sparsity == 0:
        return np.zeros(dictionary.n, dtype=np.complex128)
    return dictionary.columns(coeffs.support) @ coeffs.values


def draw_gaussian_sensing(m, n, seed):
    """Draw an m-by-n sensing matrix with i.i.d. N(0, 1/m) entries.

    The 1/m variance makes ||A x|| approximately ||x|| in expectation, so
    isometry constants are measured against 1 rather than an arbitrary scale.
    """
    m = int(m)
    n = int(n)
    if m < 1 or n < 1 or m > n:
        raise InvalidInputError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n)) / math.sqrt(m)
    return SensingMatrix(matrix=M)


def measure(A, x, noise_norm, seed=None):
    """Observe y = A x + e with ||e|| = noise_norm exactly.

    The noise direction is drawn i.i.d. Gaussian (complex when A x is
    complex) and rescaled to the requested norm; ``noise_norm = 0`` adds
    nothing and consumes no randomness.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != A.n:
        raise InvalidInputError(f"x must be a length-{A.n} vector")
    if not 0 <= noise_norm < math.inf:
        raise InvalidInputError(f"noise_norm must be finite and >= 0, got {noise_norm}")
    y = A.matrix @ x
    if noise_norm > 0:
        rng = np.random.default_rng(seed)
        if np.iscomplexobj(y):
            e = rng.standard_normal(A.m) + 1j * rng.standard_normal(A.m)
        else:
            e = rng.standard_normal(A.m)
        ne = np.linalg.norm(e)
        if ne == 0.0:
            raise NumericalFailureError("degenerate noise draw")
        y = y + (noise_norm / ne) * e
    return Measurements(y=np.asarray(y, dtype=np.complex128))
