"""Seeded Monte-Carlo benchmark harness.

Sweeps the number of measurements m over a grid, runs each configured
algorithm on freshly drawn instances, and records per-trial outcomes in a
plot-ready long-format CSV.

Seed discipline: every trial derives its randomness from
``SeedSequence((master_seed, scenario_id, m, trial))``, split into separate
streams for the sensing matrix, the coefficients, and the noise.  Nothing
touches global RNG state, so a sweep is bit-reproducible from its config.
"""

import csv
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analysis import snr_db
from .errors import InvalidInputError, NumericalFailureError
from .model import (
    build_overcomplete_dft,
    build_rescaled_identity,
    draw_gaussian_sensing,
    draw_sparse_coefficients,
    measure,
    synthesize,
)
from .projections import _BACKENDS, evaluate_projection_quality, make_backend
from .recovery import (
    SSCoSaMPConfig,
    cosamp_baseline,
    l1_baseline,
    omp_baseline,
    sscosamp,
)

__all__ = [
    "build_dictionary",
    "ScenarioSpec",
    "SCENARIOS",
    "SweepConfig",
    "TrialResult",
    "AggregateRow",
    "SweepResult",
    "run_algorithm",
    "draw_instance",
    "run_sweep",
    "write_sweep_csv",
    "write_aggregate_csv",
    "trace_to_csv",
    "ProjectionStudyRow",
    "run_projection_study",
    "write_quality_csv",
    "format_snr",
]

# Mean SNR aggregates treat perfect (infinite-SNR) recoveries as this value
# so averages stay finite and comparable.
SNR_CLIP_DB = 300.0

# stop_reason of a run that raised NumericalFailureError.
STOP_NUMERICAL_FAILURE = "numerical_failure"

# The scenarios' DFT redundancy d / n and the rescaled identity's large-column
# scale.
DFT_REDUNDANCY = 4
IDENTITY_SCALE = 100.0


def build_dictionary(kind, n, redundancy, scale):
    """Build a named dictionary family: "dft" or "rescaled-identity"."""
    if kind == "dft":
        return build_overcomplete_dft(n, redundancy)
    if kind == "rescaled-identity":
        return build_rescaled_identity(n, scale)
    raise InvalidInputError(f"unknown dictionary kind {kind!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """How one named benchmark scenario builds its instances."""

    name: str
    scenario_id: int
    dictionary_kind: str  # "rescaled-identity" or "dft"
    pattern: str = "uniform"  # "uniform", "separated", "clustered", "hybrid"
    cyclic: bool = False
    complex_values: bool = True
    default_max_iters: int = 50

    def build_dictionary(self, n):
        return build_dictionary(self.dictionary_kind, n, DFT_REDUNDANCY, IDENTITY_SCALE)

    def draw_coefficients(self, d, k, seed):
        return draw_sparse_coefficients(d, k, self.pattern, seed, cyclic=self.cyclic,
                                        complex_values=self.complex_values)


SCENARIOS = {
    spec.name: spec
    for spec in [
        ScenarioSpec(name="rescaled-identity", scenario_id=1,
                     dictionary_kind="rescaled-identity", pattern="uniform",
                     complex_values=False),
        ScenarioSpec(name="dft-separated", scenario_id=2, dictionary_kind="dft",
                     pattern="separated", cyclic=True),
        ScenarioSpec(name="dft-clustered", scenario_id=3, dictionary_kind="dft",
                     pattern="clustered", default_max_iters=100),
        ScenarioSpec(name="dft-hybrid", scenario_id=4, dictionary_kind="dft",
                     pattern="hybrid", default_max_iters=100),
    ]
}

KNOWN_ALGORITHMS = tuple(f"sscosamp-{b}" for b in _BACKENDS) + ("cosamp", "omp", "l1")


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one Monte-Carlo sweep."""

    scenario: str
    n: int = 256
    k: int = 8
    m_grid: tuple = (32, 48, 64, 96, 128)
    trials: int = 100
    algorithms: tuple = ("sscosamp-threshold", "cosamp")
    noise_norm: float = 0.0
    master_seed: int = 0
    snr_threshold_db: float = 100.0
    tikhonov_bound_factor: float = 10.0
    max_iters: int = 0  # 0 becomes the scenario default

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise InvalidInputError(
                f"unknown scenario {self.scenario!r}; choose from {sorted(SCENARIOS)}"
            )
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")
        if self.max_iters < 0:
            raise InvalidInputError("max_iters must be >= 0 (0 means the scenario default)")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if not self.m_grid:
            raise InvalidInputError("m_grid must be non-empty")
        grid = tuple(int(m) for m in self.m_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidInputError("m_grid must be strictly increasing")
        if grid[-1] > self.n:
            raise InvalidInputError("every m must satisfy m <= n")
        if not self.algorithms:
            raise InvalidInputError("algorithms must be non-empty")
        for alg in self.algorithms:
            if alg not in KNOWN_ALGORITHMS:
                raise InvalidInputError(
                    f"unknown algorithm {alg!r}; choose from {KNOWN_ALGORITHMS}"
                )
        if not 0 <= self.noise_norm < math.inf:
            raise InvalidInputError(f"noise_norm must be finite and >= 0, got {self.noise_norm}")
        if self.master_seed < 0:
            raise InvalidInputError(f"master_seed must be >= 0, got {self.master_seed}")
        if math.isnan(self.snr_threshold_db):
            raise InvalidInputError("snr_threshold_db must not be NaN")
        if not self.tikhonov_bound_factor > 0:
            raise InvalidInputError("tikhonov_bound_factor must be positive")
        object.__setattr__(self, "m_grid", grid)
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if self.max_iters == 0:
            object.__setattr__(self, "max_iters", SCENARIOS[self.scenario].default_max_iters)


@dataclass(frozen=True)
class TrialResult:
    """One algorithm's outcome on one drawn instance."""

    scenario: str
    algorithm: str
    m: int
    trial: int
    seed: int
    snr_db: float
    success: bool
    iterations: int
    wall_ms: float
    stop_reason: str


SWEEP_COLUMNS = [f.name for f in fields(TrialResult)]


@dataclass(frozen=True)
class AggregateRow:
    """Per (algorithm, m) summary over trials."""

    scenario: str
    algorithm: str
    m: int
    trials: int
    success_rate: float
    mean_snr_db: float
    mean_iterations: float
    mean_wall_ms: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    config: SweepConfig
    rows: tuple

    def aggregate(self):
        """Summaries per (algorithm, m), in m-major then algorithm order."""
        groups = {}
        for row in self.rows:
            groups.setdefault((row.m, row.algorithm), []).append(row)
        out = []
        for (m, alg) in sorted(groups, key=lambda key: (key[0], key[1])):
            rows = groups[(m, alg)]
            snrs = [min(r.snr_db, SNR_CLIP_DB) for r in rows if not math.isnan(r.snr_db)]
            out.append(
                AggregateRow(
                    scenario=self.config.scenario,
                    algorithm=alg,
                    m=m,
                    trials=len(rows),
                    success_rate=sum(r.success for r in rows) / len(rows),
                    mean_snr_db=sum(snrs) / len(snrs) if snrs else math.nan,
                    mean_iterations=sum(r.iterations for r in rows) / len(rows),
                    mean_wall_ms=sum(r.wall_ms for r in rows) / len(rows),
                )
            )
        return out

    def success_rate(self, algorithm, m):
        rows = [r for r in self.rows if r.algorithm == algorithm and r.m == m]
        if not rows:
            raise InvalidInputError(f"no rows for algorithm={algorithm!r}, m={m}")
        return sum(r.success for r in rows) / len(rows)


def run_algorithm(name, A, dictionary, meas, k, norm_bound, max_iters):
    """Run one algorithm of ``KNOWN_ALGORITHMS`` on one instance."""
    if name == "cosamp":
        return cosamp_baseline(A, dictionary, meas, k,
                               max_iters=max_iters, norm_bound=norm_bound)
    if name == "omp":
        return omp_baseline(A, dictionary, meas, k)
    if name == "l1":
        return l1_baseline(A, dictionary, meas, k)
    backend = make_backend(name.split("-", 1)[1])
    cfg = SSCoSaMPConfig(
        k=k,
        identify_backend=backend,
        prune_backend=backend,
        max_iters=max_iters,
        tikhonov_norm_bound=norm_bound,
    )
    return sscosamp(A, dictionary, meas, cfg)


def draw_instance(cfg, dictionary, m, trial):
    """Draw trial ``trial`` of ``cfg``'s scenario at m measurements.

    Returns ``(A, x, measurements, norm_bound, seed)``, where ``seed`` is
    the sweep CSV's seed column: the first uint64 of
    ``SeedSequence((master_seed, scenario_id, m, trial))``.
    """
    scenario = SCENARIOS[cfg.scenario]
    root, seed_u64 = _trial_seeds(cfg, m, trial)
    seed_sensing, seed_coeffs, seed_noise = root.spawn(3)
    A = draw_gaussian_sensing(m, cfg.n, seed_sensing)
    coeffs = scenario.draw_coefficients(dictionary.d, cfg.k, seed_coeffs)
    x = synthesize(dictionary, coeffs)
    meas = measure(A, x, cfg.noise_norm, seed_noise)
    norm_bound = cfg.tikhonov_bound_factor * max(coeffs.norm(), 1e-12)
    return A, x, meas, norm_bound, seed_u64


def _trial_seeds(cfg, m, trial):
    """The trial's root ``SeedSequence`` and its first uint64, the seed column."""
    scenario_id = SCENARIOS[cfg.scenario].scenario_id
    root = np.random.SeedSequence((cfg.master_seed, scenario_id, m, trial))
    return root, int(root.generate_state(1, np.uint64)[0])


def run_sweep(cfg):
    """Execute a sweep and return per-trial rows plus the config.

    A numerical failure inside one algorithm run is recorded as an
    unsuccessful row with stop_reason "numerical_failure" rather than
    aborting the sweep; a trial whose instance draw fails that way gets
    such a row for every algorithm.
    """
    dictionary = SCENARIOS[cfg.scenario].build_dictionary(cfg.n)
    rows = []
    for m in cfg.m_grid:
        for trial in range(cfg.trials):
            try:
                A, x, meas, norm_bound, seed_u64 = draw_instance(cfg, dictionary, m, trial)
            except NumericalFailureError:  # no instance: every run of this trial fails
                A, seed_u64 = None, _trial_seeds(cfg, m, trial)[1]
            for alg in cfg.algorithms:
                start = time.perf_counter()
                try:
                    trace = None if A is None else run_algorithm(
                        alg, A, dictionary, meas, cfg.k, norm_bound, cfg.max_iters)
                except NumericalFailureError:
                    trace = None
                wall_ms = (time.perf_counter() - start) * 1e3
                snr = math.nan if trace is None else snr_db(x, trace.x_hat)
                rows.append(
                    TrialResult(
                        scenario=cfg.scenario, algorithm=alg, m=m, trial=trial,
                        seed=seed_u64, snr_db=snr, success=snr >= cfg.snr_threshold_db,
                        iterations=0 if trace is None else trace.iterations_run,
                        wall_ms=wall_ms,
                        stop_reason=STOP_NUMERICAL_FAILURE if trace is None else trace.stop_reason,
                    )
                )
    return SweepResult(config=cfg, rows=tuple(rows))


@contextmanager
def open_output(path):
    """Open ``path`` for text output; "-" (or None) means standard output."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="ascii") as fh:
            yield fh


def format_snr(value):
    """An SNR in dB as ``%.6f``, or the tokens ``nan``, ``inf`` and ``-inf``."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.6f}"


def _write_csv(path, header, rows):
    """Write ``header`` and then ``rows`` as CSV to ``path`` (see ``open_output``)."""
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_sweep_csv(result, path, include_timing=False):
    """Write per-trial rows in long format.

    ``wall_ms`` is written as 0.000 unless ``include_timing`` is set, so two
    runs of the same config produce byte-identical files; measured timings
    stay available on the in-memory rows either way.
    """
    _write_csv(path, SWEEP_COLUMNS, (
        [row.scenario, row.algorithm, row.m, row.trial, row.seed, format_snr(row.snr_db),
         int(row.success), row.iterations,
         f"{row.wall_ms:.3f}" if include_timing else "0.000", row.stop_reason]
        for row in result.rows))


def write_aggregate_csv(result, path, include_timing=False):
    """Write per-(algorithm, m) summaries."""
    _write_csv(path, [f.name for f in fields(AggregateRow)], (
        [agg.scenario, agg.algorithm, agg.m, agg.trials, f"{agg.success_rate:.6f}",
         format_snr(agg.mean_snr_db), f"{agg.mean_iterations:.3f}",
         f"{agg.mean_wall_ms:.3f}" if include_timing else "0.000"]
        for agg in result.aggregate()))


def trace_to_csv(trace, path, x_true):
    """Write one CSV row per iteration (supports semicolon-joined).

    Columns: iter, residual_norm, error_to_truth, pruned_support.  A
    ``path`` of "-" writes standard output.
    """
    _write_csv(path, ["iter", "residual_norm", "error_to_truth", "pruned_support"], (
        [rec.iteration, f"{rec.residual_norm:.17g}", f"{err:.17g}",
         ";".join(str(i) for i in rec.pruned_support)]
        for rec, err in zip(trace.records, trace.errors_to(x_true))))


@dataclass(frozen=True)
class ProjectionStudyRow:
    """Measured projection quality for one backend on one test vector."""

    backend: str
    pattern: str
    trial: int
    eps1: float
    eps2: float
    opt_residual: float


def run_projection_study(dictionary, k, patterns, backends, trials, seed,
                         perturbation_rel=0.1):
    """Measure effective (eps1, eps2) for backends against the exact optimum.

    For each pattern and trial, draws a k-sparse signal in the dictionary and
    adds a Gaussian perturbation of relative size ``perturbation_rel`` (an
    exactly sparse vector would make the optimal residual zero and every
    eps2 infinite).  Instance sizes must be within the exhaustive oracle cap.
    A ``NumericalFailureError`` (a backend's, or the support sampler's) ends
    the study; it carries the rows scored before it as ``rows``.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if trials < 0:
        raise InvalidInputError("trials must be >= 0")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    if not 0 <= perturbation_rel < math.inf:
        raise InvalidInputError(
            f"perturbation_rel must be finite and >= 0, got {perturbation_rel}")
    for name, values in (("patterns", patterns), ("backends", backends)):
        if not values:
            raise InvalidInputError(f"{name} must be non-empty")
    rows = []
    try:
        for p_idx, pattern in enumerate(patterns):
            for trial in range(trials):
                root = np.random.SeedSequence((seed, p_idx, trial))
                seed_coeffs, seed_noise = root.spawn(2)
                coeffs = draw_sparse_coefficients(dictionary.d, k, pattern, seed_coeffs,
                                                  min_gap=max(1, dictionary.d // (4 * k)))
                x = synthesize(dictionary, coeffs)
                rng = np.random.default_rng(seed_noise)
                bump = rng.standard_normal(dictionary.n) + 1j * rng.standard_normal(dictionary.n)
                scale = perturbation_rel * float(np.linalg.norm(x))
                z = x + scale * bump / float(np.linalg.norm(bump))
                for name in backends:
                    quality = evaluate_projection_quality(dictionary, z, k, make_backend(name))
                    rows.append(ProjectionStudyRow(backend=name, pattern=pattern, trial=trial,
                                                   **asdict(quality)))
    except NumericalFailureError as exc:
        exc.rows = rows
        raise
    return rows


def write_quality_csv(rows, path):
    """Write projection-study rows; infinities appear as the token ``inf``."""
    def fmt(value):
        return "inf" if math.isinf(value) else f"{value:.9f}"

    _write_csv(path, [f.name for f in fields(ProjectionStudyRow)], (
        [row.backend, row.pattern, row.trial, fmt(row.eps1), fmt(row.eps2),
         fmt(row.opt_residual)]
        for row in rows))
