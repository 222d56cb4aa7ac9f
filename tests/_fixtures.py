"""Fixtures and reference oracles shared by the test modules.

Plain functions, imported by name: each one draws from the generator it is
given in a fixed order, so a test's seeds pin its instances.
"""

import itertools
import math

import numpy as np

from sscosamp import (Dictionary, ExhaustiveBackend, SensingMatrix, SSCoSaMPConfig,
                      build_projector, drip_exact)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unit_norm_dictionary(rng, n, d):
    M = random_complex(rng, n, d)
    return Dictionary(M / np.linalg.norm(M, axis=0))


def near_orthogonal_sensing(rng, n, wobble=0.002):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return SensingMatrix(Q + wobble * rng.standard_normal((n, n)) / math.sqrt(n))


def certified_pairs(base_seed, count):
    """``(seed, D, A)`` for each seed in ``range(count)`` whose pair is certified.

    Each pair is a unit-norm 10 x 12 dictionary and a near-orthogonal 10 x 10
    sensing matrix drawn from ``default_rng(base_seed + seed)``; it is
    certified when its exact order-4 isometry constant is at most 0.029,
    where Corollary 1's decay envelope binds.
    """
    for seed in range(count):
        rng = np.random.default_rng(base_seed + seed)
        D = unit_norm_dictionary(rng, 10, 12)
        A = near_orthogonal_sensing(rng, 10)
        if drip_exact(A, D, 4).delta_lower <= 0.029:
            yield seed, D, A


def exhaustive_config(coeffs, max_iters):
    """A k = 1 run with exhaustive projections and a norm bound of ten times ``coeffs``'."""
    return SSCoSaMPConfig(k=1, identify_backend=ExhaustiveBackend(),
                          prune_backend=ExhaustiveBackend(), max_iters=max_iters,
                          tikhonov_norm_bound=10.0 * coeffs.norm())


def same_bits(got, want):
    # byte comparison: array_equal would equate -0.0 and +0.0
    return got.dtype == want.dtype and got.shape == want.shape and (
        np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


def projection_residual(dictionary, support, z):
    P = build_projector(dictionary.columns(support))
    return float(np.linalg.norm(z - P.apply(z)))


def reference_oracle(D, z, k):
    """``(residual, support)`` of the first support with the least projection residual."""
    best = (math.inf, None)
    for s in itertools.combinations(range(D.d), k):
        r = projection_residual(D, s, z)
        if r < best[0]:
            best = (r, s)
    return best


def reference_mismatch(D, x, k):
    """The mismatch value by a least-squares fit on every support."""
    best = math.inf
    for s in itertools.combinations(range(D.d), k):
        cols = D.columns(s)
        resid = x - cols @ np.linalg.lstsq(cols, x, rcond=None)[0]
        best = min(best, float(np.linalg.norm(resid) + np.linalg.norm(resid, 1) / math.sqrt(k)))
    return best


def fail_first_call(monkeypatch, owner, attr):
    """Make ``owner.attr`` raise ``LinAlgError`` on its first call; returns the call log."""
    real = getattr(owner, attr)
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("synthetic LAPACK breakdown")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, fails_once)
    return calls
