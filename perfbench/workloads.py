"""The benchmark's workloads: what one pass sends to sscosamp and how it is checked.

A pass is a fixed, seeded list of operations.  Every pass of a run repeats
the same inputs, so its outcome counts (successes, failures) are exact for a
seed and its deterministic output bytes must match the first pass's.  One
operation is one algorithm run on one instance, or one diagnostic
evaluation.  Any exception that escapes a unit of work marks that unit's
operations failed, records the exception type, and the pass goes on.

Workloads reach the package only through its public functions, looked up
as module attributes at call time so that the tracer's wrappers apply.
"""

import itertools
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from sscosamp import analysis, bench, model, projections

SNR_SUCCESS_DB = 100.0
STOP_TOKENS = frozenset({"residual_tol", "stall", "max_iters", "numerical_failure"})
CHECK_RTOL = 1e-9
BUILD_REPEATS = 3  # dictionary builds timed for model.dictionary_build_s

# The diagnostics traffic: the project-eval study on an n=16, 2x-redundant
# DFT at k=2, and drip_exact on criterion 6's construction.
DIAG_PATTERNS = ("separated", "clustered")
DIAG_N = 16
DIAG_REDUNDANCY = 2
DIAG_K = 2
PERTURBATION_REL = 0.1
DRIP_ORDER = 4
DRIP_N, DRIP_D, DRIP_WOBBLE = 10, 12, 0.002


@dataclass
class PassResult:
    """Counts and outputs of one pass."""

    attempted: int = 0
    failed: int = 0
    scored: int = 0  # operations in the success_rate base
    successes: int = 0
    failures: Counter = field(default_factory=Counter)
    outputs: list = field(default_factory=list)
    seconds: float = 0.0
    ref_seconds: float = 0.0  # seconds scaled to the reference machine speed

    def fail(self, ops, reason):
        self.failed += ops
        self.failures[reason] += ops

    def add(self, other):
        """Fold in the result of later units of the same pass."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.scored += other.scored
        self.successes += other.successes
        self.failures.update(other.failures)
        self.outputs += other.outputs
        self.seconds += other.seconds
        self.ref_seconds += other.ref_seconds


@dataclass(frozen=True)
class SweepSpec:
    """One gate sweep, run as one ``run_sweep`` call per m value and group.

    ``groups`` pairs algorithm tuples with trial counts.  Every group runs
    on trials 0..trials-1 of the same seeded instances, so a cheap algorithm
    can score more instances than an expensive one in the same pass.
    """

    scenario: str
    m_grid: tuple
    groups: tuple
    n: int = 256
    k: int = 8

    @property
    def algorithms(self):
        return tuple(alg for algs, _ in self.groups for alg in algs)

    def config(self, m, algorithms, trials, seed):
        return bench.SweepConfig(
            scenario=self.scenario, n=self.n, k=self.k, m_grid=(m,), trials=trials,
            algorithms=algorithms, master_seed=seed,
        )

    def units(self):
        return [(m, algs, trials) for m in self.m_grid for algs, trials in self.groups]


class SweepWorkload:
    """Monte-Carlo recovery traffic: ``run_sweep`` at the gate's parameters."""

    def __init__(self, spec, out_dir):
        self.spec = spec
        self.out_dir = out_dir

    def setup(self, seed):
        """Warm every code path on a tiny sweep."""
        warm = SweepSpec(self.spec.scenario, (16,), ((self.spec.algorithms, 1),), n=32, k=2)
        for m, algs, trials in warm.units():
            bench.run_sweep(warm.config(m, algs, trials, seed))

    def build_dictionary(self):
        return bench.SCENARIOS[self.spec.scenario].build_dictionary(self.spec.n)

    def units(self):
        return self.spec.units()

    def run_pass(self, seed, units=None):
        res = PassResult()
        for m, algs, trials in self.units() if units is None else units:
            ops = trials * len(algs)
            res.attempted += ops
            res.scored += ops
            try:
                result = bench.run_sweep(self.spec.config(m, algs, trials, seed))
            except Exception as exc:  # one escaped exception loses only this unit
                res.fail(ops, type(exc).__name__)
                res.outputs.append(((m, algs, trials), None))
                continue
            for row in result.rows:
                if row.stop_reason == "numerical_failure":
                    res.fail(1, row.stop_reason)
                res.successes += row.success
            res.outputs.append(((m, algs, trials), result))
        return res

    def check(self, passes, seed):
        """Problems found in the outputs (empty when all checks hold)."""
        problems = []
        instance_seeds = {}
        for unit, result in passes[0].outputs:
            if result is not None:
                problems += _check_sweep_rows(self.spec.scenario, unit, result, instance_seeds)
        first = [self._csv(result) for _, result in passes[0].outputs]
        for idx, later in enumerate(passes[1:], start=2):
            if [self._csv(result) for _, result in later.outputs] != first:
                problems.append(f"pass {idx} sweep CSV differs from pass 1")
        if len(passes) == 1:
            problems += self._recheck_first_trial(passes[0], seed)
        return problems

    def _recheck_first_trial(self, first_pass, seed):
        # a single timed pass has no repeat to compare: rerun trial 0 of the
        # first unit that completed and compare its CSV bytes with the pass's
        for (m, algs, _), result in first_pass.outputs:
            if result is None:
                continue
            again = bench.run_sweep(self.spec.config(m, algs, 1, seed))
            rows = tuple(r for r in result.rows if r.trial == 0)
            if self._csv(again) != self._csv(bench.SweepResult(again.config, rows)):
                return [f"m={m} {algs} trial 0 sweep CSV differs on repeat"]
            return []
        return []

    def _csv(self, result):
        if result is None:
            return None
        path = os.path.join(self.out_dir, "sweep.csv")
        bench.write_sweep_csv(result, path)
        with open(path, "rb") as fh:
            return fh.read()


def _check_sweep_rows(scenario, unit, result, instance_seeds):
    m, algs, trials = unit
    problems = []
    keys = [(r.m, r.trial, r.algorithm) for r in result.rows]
    expected = set(itertools.product((m,), range(trials), algs))
    if len(keys) != len(expected) or set(keys) != expected:
        problems.append(f"m={m} {algs}: rows do not account for every (m, trial, algorithm)")
    for r in result.rows:
        where = f"m={r.m} trial={r.trial} {r.algorithm}"
        if r.success != (not math.isnan(r.snr_db) and r.snr_db >= SNR_SUCCESS_DB):
            problems.append(f"{where}: success={r.success} but snr_db={r.snr_db}")
        if r.stop_reason not in STOP_TOKENS:
            problems.append(f"{where}: unknown stop_reason {r.stop_reason!r}")
        if r.scenario != scenario:
            problems.append(f"{where}: scenario {r.scenario!r}")
        # every group must have scored the same instance for (m, trial)
        if instance_seeds.setdefault((r.m, r.trial), r.seed) != r.seed:
            problems.append(f"{where}: instance seed differs between groups")
    return problems


class _RecordingBackend:
    """Passes ``support`` through to a backend and keeps its answer."""

    def __init__(self, inner):
        self.inner = inner
        self.last = None

    def support(self, dictionary, z, k):
        self.last = self.inner.support(dictionary, z, k)
        return self.last


@dataclass(frozen=True)
class DiagnosticsSpec:
    """The "why does it work" traffic on small instances.

    ``backend_groups`` pairs backend names with how many of each pattern's
    vectors they score (the first ones), so the slow L1 backend can score
    fewer vectors than the others in the same pass.
    """

    items_per_pattern: int
    backend_groups: tuple


class DiagnosticsWorkload:
    """Projection quality, exhaustive isometry constant and model mismatch.

    Each item is one z vector of the ``project-eval`` study (drawn exactly as
    ``run_projection_study`` draws it), scored by one
    ``evaluate_projection_quality`` call per backend and one exhaustive
    ``mismatch``, plus one ``drip_exact`` on a criterion-6 style pair.  The
    study itself is not called: its first backend failure aborts it.
    """

    def __init__(self, spec, make_backend=None):
        self.spec = spec
        self.make_backend = make_backend or projections.make_backend

    def build_dictionary(self):
        return model.build_overcomplete_dft(DIAG_N, DIAG_REDUNDANCY)

    def setup(self, seed):
        spec = self.spec
        self.dictionary = self.build_dictionary()
        self.items = [
            (pattern, trial, study_vector(self.dictionary, seed, p_idx, trial, pattern),
             drip_pair(seed, p_idx, trial))
            for p_idx, pattern in enumerate(DIAG_PATTERNS)
            for trial in range(spec.items_per_pattern)
        ]
        small = model.build_overcomplete_dft(4, 2)
        z = self.items[0][2][:4]
        for name in (name for names, _ in spec.backend_groups for name in names):
            try:
                projections.evaluate_projection_quality(small, z, 1, self.make_backend(name))
            except Exception:  # warm-up only; timed passes account failures
                pass
        analysis.mismatch(small, z, 1)
        A6, D6 = self.items[0][3]
        analysis.drip_exact(A6, D6, 1)

    def units(self):
        return self.items

    def run_pass(self, seed, units=None):
        spec = self.spec
        D = self.dictionary
        res = PassResult()
        for pattern, trial, z, (A6, D6) in self.items if units is None else units:
            calls = [("quality", name, self._quality(name, z))
                     for names, count in spec.backend_groups if trial < count
                     for name in names]
            calls.append(("mismatch", "", lambda: analysis.mismatch(D, z, DIAG_K).value))
            calls.append(("drip", "", lambda: analysis.drip_exact(A6, D6, DRIP_ORDER)
                          .delta_lower))
            for kind, name, call in calls:
                res.attempted += 1
                res.scored += kind == "quality"
                try:
                    value = call()
                except Exception as exc:
                    value = type(exc).__name__
                    res.fail(1, value)
                else:
                    res.successes += kind == "quality" and value[0] == 0.0
                res.outputs.append((kind, pattern, trial, name, value))
        return res

    def _quality(self, name, z):
        def call():
            backend = _RecordingBackend(self.make_backend(name))
            q = projections.evaluate_projection_quality(self.dictionary, z, DIAG_K, backend)
            return q.eps1, q.eps2, q.opt_residual, backend.last
        return call

    def check(self, passes, seed):
        problems = []
        first = passes[0].outputs
        for idx, later in enumerate(passes[1:], start=2):
            if later.outputs != first:
                problems.append(f"pass {idx} diagnostics outputs differ from pass 1")
        if len(passes) == 1:
            # no repeat was timed: rerun the first item and compare
            again = self.run_pass(seed, units=self.items[:1]).outputs
            if again != first[:len(again)]:
                problems.append("diagnostics outputs differ on repeat")
        D = self.dictionary.matrix
        vectors = {(pattern, trial): z for pattern, trial, z, _ in self.items}
        optimum = {key: _exhaustive_residual(D, z, DIAG_K) for key, z in vectors.items()}
        for kind, pattern, trial, name, value in first:
            where = f"{kind} {pattern} trial={trial} {name}".rstrip()
            if isinstance(value, str):
                continue  # a failed operation, counted in the pass
            opt = optimum[(pattern, trial)]
            floor = opt * (1.0 - CHECK_RTOL) - CHECK_RTOL
            if kind == "quality":
                eps1, eps2, opt_residual, support = value
                if not (eps1 >= 0.0 and eps2 >= 0.0):
                    problems.append(f"{where}: eps1={eps1}, eps2={eps2}")
                if abs(opt_residual - opt) > CHECK_RTOL * max(opt, 1.0):
                    problems.append(f"{where}: oracle residual {opt_residual} != {opt}")
                if _residual(D, vectors[(pattern, trial)], support) < floor:
                    problems.append(f"{where}: backend residual below the oracle's")
            elif kind == "mismatch" and not value >= floor:
                problems.append(f"{where}: mismatch {value} below the oracle residual {opt}")
            elif kind == "drip" and not (math.isfinite(value) and value >= 0.0):
                problems.append(f"{where}: isometry constant {value}")
        return problems


def study_vector(dictionary, seed, p_idx, trial, pattern):
    """The z vector ``run_projection_study`` scores for (pattern, trial)."""
    root = np.random.SeedSequence((seed, p_idx, trial))
    seed_coeffs, seed_noise = root.spawn(2)
    coeffs = model.draw_sparse_coefficients(dictionary.d, DIAG_K, pattern, seed_coeffs,
                                            min_gap=max(1, dictionary.d // (4 * DIAG_K)))
    x = model.synthesize(dictionary, coeffs)
    rng = np.random.default_rng(seed_noise)
    bump = rng.standard_normal(dictionary.n) + 1j * rng.standard_normal(dictionary.n)
    return x + PERTURBATION_REL * float(np.linalg.norm(x)) * bump / float(np.linalg.norm(bump))


def drip_pair(seed, p_idx, trial):
    """Criterion 6's construction: a unit-norm n-by-d dictionary and
    near-orthogonal n-by-n sensing."""
    n, d = DRIP_N, DRIP_D
    rng = np.random.default_rng((seed, p_idx, trial, 6))
    M = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    D = model.Dictionary(M / np.linalg.norm(M, axis=0))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = model.SensingMatrix(Q + DRIP_WOBBLE * rng.standard_normal((n, n)) / math.sqrt(n))
    return A, D


def _residual(D, z, support):
    cols = D[:, list(support)]
    coef, *_ = np.linalg.lstsq(cols, z, rcond=None)
    return float(np.linalg.norm(z - cols @ coef))


def _exhaustive_residual(D, z, k):
    """Smallest projection residual over all k-column supports (plain numpy)."""
    return min(_residual(D, z, s) for s in itertools.combinations(range(D.shape[1]), k))


def dictionary_build_s(workload):
    """Median time of BUILD_REPEATS builds of the workload's dictionary."""
    times = []
    for _ in range(BUILD_REPEATS):
        start = time.perf_counter()
        workload.build_dictionary()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


# Trial counts are fixed so that every commit scores the same instances.
SWEEP_SPECS = {
    "separated": SweepSpec("dft-separated", (64, 96, 128),
                           ((("sscosamp-omp", "omp"), 25), (("sscosamp-cosamp",), 3))),
    "identity": SweepSpec("rescaled-identity", (32, 48, 64, 96, 128),
                          ((("sscosamp-threshold", "cosamp"), 330),)),
}
DIAGNOSTICS_SPEC = DiagnosticsSpec(
    items_per_pattern=48,
    backend_groups=((("threshold", "omp", "cosamp"), 48), (("l1",), 12)),
)
WORKLOADS = ("separated", "identity", "diagnostics")


def make_workload(name, out_dir):
    if name in SWEEP_SPECS:
        return SweepWorkload(SWEEP_SPECS[name], out_dir)
    if name == "diagnostics":
        return DiagnosticsWorkload(DIAGNOSTICS_SPEC)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
