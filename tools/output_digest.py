"""Print one SHA-256 digest per family of sscosamp outputs.

Run it on two checkouts and compare the lines: equal digests mean the two
trees compute bit-identical results on everything listed below.

    python3 tools/output_digest.py                  # digests this checkout's src/
    python3 tools/output_digest.py --src OTHER/src  # digests another tree

Sections:

* ``sweep_csv``: the sweep CSV of every scenario x every algorithm except
  ``sscosamp-exhaustive``, at n = 16 with and without noise;
* ``run_algorithm``: per-iteration records and ``x_hat`` of every algorithm
  on one instance per scenario, plus the text of the ``NumericalFailureError``
  each one raises when a LAPACK routine fails (on two scenarios);
* ``identity_gate``: the same for ``sscosamp-threshold`` and ``cosamp`` on the
  rescaled identity at the acceptance gate's size, n = 256 and k = 8, at
  m = 32 and 128, three trials each (every other section runs at n <= 32);
* ``projection_study``: ``run_projection_study`` rows for all five backends
  at two seeds, one backend a study (a failed study digests its error text
  and diagnostics); every oracle scan after the first reuses the stacked
  bases that ``exhaustive_argmin`` keeps on the dictionary for one k, so
  this section and the next exercise the kept bases;
* ``projection_study_all``: the same studies with all five backends scored on
  each vector in one call, so every backend after the first gets the
  exhaustive oracle's answer from ``optimal_projection``'s memo of its last
  answer; this is the section that exercises that memo.  It runs the seed-101
  study once more with ``ADMM_MAX_ITERS`` patched to 2000, where it stops at
  the L1 failure of ``separated`` trial 3 (the plain run needs 5440
  iterations and the over-relaxed rerun 2170), and digests that failure's
  text and diagnostics;
* ``backend_supports``: ``OMPBackend`` and ``CoSaMPBackend`` supports;
* ``admm``: the coefficients ``basis_pursuit_denoise`` returns, or its
  failure text and diagnostics (supports and refits hide small changes);
* ``mismatch``: ``mismatch`` values and coefficients; k changes on every
  call, so each one builds its bases afresh (``random12x30`` at k = 3
  streams three chunks) and none reuses the kept ones;
* ``mismatch_kept``: ``mismatch`` values and coefficients of twelve vectors
  on one 16 x 32 DFT at k = 2, so every scan after the first reuses the
  bases that ``exhaustive_argmin`` keeps on that dictionary; this is the
  section that compares those memo hits across trees
  (``tests/test_projections.py`` compares them with cold scans, each on a
  fresh ``Dictionary``, within one tree);
* ``drip_exact``: exhaustive isometry constants;
* ``build_projector``: projector bases, rank-deficient ones included;
* ``cli_outputs``: exit code, stdout, stderr and written files of every
  subcommand called through ``cli.main`` at small sizes with valid inputs:
  sweep CSV and JSON with aggregates, ``project-eval``'s quality CSV,
  ``drip`` CSV and JSON, ``recover`` with its trace CSV, ``constants`` text
  and JSON;
* ``perfbench_passes``: one pass of the benchmark's workloads
  (``perfbench/workloads.py`` of this checkout, run on the ``--src`` tree)
  per seed of ``PASS_SEEDS``: its outputs (sweep CSV bytes, diagnostics
  values) and its attempted, failed, per-failure and success counts.  A
  pass's counts are exact for its seed, so equal digests mean an equal
  failure share on those seeds; the counts also go to stderr.  None of
  these seeds fails an operation; before the over-relaxed ADMM rerun,
  diagnostics 40 and 45 failed 1 of 504 each, an L1 solve that reached
  ADMM's iteration cap.  A timed ``perfbench/run.py``
  counts ``failed`` over all its passes, so compare its shares, not its
  counts.  The passes of ``TRACED_PASSES`` run once more with perfbench's
  tracer installed, and their counts are digested too: a traced pass fails
  every operation whose calls the tracer cannot read (a ``tikhonov_lsq``
  called without its ``norm_bound`` keyword, for example).

BLAS is pinned to one thread before numpy loads, so threaded reductions do
not change the last bits.  It takes about 150 s on a 2-core Xeon VM, 103 s
of them in ``perfbench_passes`` and 33 s in ``sweep_csv`` (its ``sscosamp-l1``
rows).
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

BACKENDS = ("threshold", "omp", "cosamp", "l1", "exhaustive")
ALGORITHMS = ("sscosamp-threshold", "sscosamp-omp", "sscosamp-cosamp", "sscosamp-l1",
              "cosamp", "omp", "l1")
SEED = 2026
# scenarios whose runs are repeated with each LAPACK call of _FAILURES failing;
# the rescaled identity's update fits take the QR path, the DFT's the SVD
FAILURE_SCENARIOS = ("dft-separated", "rescaled-identity")


class Digest:
    """SHA-256 over the repr of everything fed to it; arrays by their bytes."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                arr = np.ascontiguousarray(item)
                self._hash.update(f"{arr.dtype}{arr.shape}".encode())
                self._hash.update(arr.tobytes())
            else:
                self._hash.update(repr(item).encode())
            self._hash.update(b"|")

    def hexdigest(self):
        return self._hash.hexdigest()


def _add_failure(digest, exc):
    digest.add(type(exc).__name__, str(exc), getattr(exc, "iteration", None),
               sorted(getattr(exc, "diagnostics", {}).items()))


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _dictionaries(ss):
    rng = np.random.default_rng(7)
    M = _random_complex(rng, 12, 30)
    dup = M[:, :20].copy()
    dup[:, 7] = dup[:, 3]  # a duplicated column
    dup[:, 11] = 2.0 * dup[:, 2] + dup[:, 5]  # a dependent one
    return {
        "dft16x2": ss.build_overcomplete_dft(16, 2),
        "dft32x4": ss.build_overcomplete_dft(32, 4),
        "random12x30": ss.Dictionary(M / np.linalg.norm(M, axis=0)),
        "duplicates12x20": ss.Dictionary(dup),
        "rescaled16": ss.build_rescaled_identity(16, 100.0),
    }


def sweep_csv(ss):
    digest = Digest()
    for scenario in sorted(ss.SCENARIOS):
        for noise in (0.0, 0.05):
            cfg = ss.SweepConfig(scenario=scenario, n=16, k=2, m_grid=(8, 12), trials=1,
                                 algorithms=ALGORITHMS, noise_norm=noise, master_seed=SEED)
            digest.add(scenario, noise, _csv_text(ss, ss.run_sweep(cfg)))
    return digest


def _csv_text(ss, result):
    """The sweep CSV of ``result`` as text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ss.write_sweep_csv(result, "-")
    return out.getvalue()


# (owner, attribute) of LAPACK-backed calls made to fail one at a time
_FAILURES = (
    (np.linalg, "lstsq"),
    (np.linalg, "svd"),
    (scipy.linalg.lapack, "zgeqp3"),
    (scipy.linalg, "cho_factor"),
)


def _add_run(digest, ss, name, *instance):
    """Digest one run's records and x_hat, or the failure it raises."""
    try:
        trace = ss.bench.run_algorithm(name, *instance)
    except ss.NumericalFailureError as exc:
        _add_failure(digest, exc)
        return
    digest.add(trace.algorithm, trace.iterations_run, trace.stop_reason, trace.x_hat)
    for rec in trace.records:
        digest.add(rec.iteration, rec.proxy_norm, rec.identify_support, rec.merged_support,
                   rec.x_tilde, rec.pruned_support, rec.estimate, rec.residual_norm)


def run_algorithm(ss):
    digest = Digest()

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("forced failure")

    for scenario in sorted(ss.SCENARIOS):
        cfg = ss.SweepConfig(scenario=scenario, n=16, k=2, m_grid=(10,), trials=1,
                             algorithms=ALGORITHMS, noise_norm=0.01, master_seed=SEED)
        spec = ss.SCENARIOS[scenario]
        dictionary = spec.build_dictionary(cfg.n)
        A, _, meas, norm_bound, _ = ss.bench.draw_instance(cfg, dictionary, 10, 0)
        for name in ALGORITHMS:
            for bound in (norm_bound, 0.05 * norm_bound):
                digest.add(scenario, name, bound)
                _add_run(digest, ss, name, A, dictionary, meas, cfg.k, bound,
                         spec.default_max_iters)
            for owner, attr in _FAILURES if scenario in FAILURE_SCENARIOS else ():
                digest.add(scenario, name, attr)
                with mock.patch.object(owner, attr, broken):
                    _add_run(digest, ss, name, A, dictionary, meas, cfg.k, norm_bound, 5)
    return digest


def identity_gate(ss):
    digest = Digest()
    cfg = ss.SweepConfig(scenario="rescaled-identity", n=256, k=8, m_grid=(32, 128), trials=3,
                         algorithms=("sscosamp-threshold", "cosamp"), master_seed=SEED)
    spec = ss.SCENARIOS[cfg.scenario]
    dictionary = spec.build_dictionary(cfg.n)
    for m in cfg.m_grid:
        for trial in range(cfg.trials):
            A, _, meas, norm_bound, _ = ss.bench.draw_instance(cfg, dictionary, m, trial)
            for name in cfg.algorithms:
                digest.add(m, trial, name)
                _add_run(digest, ss, name, A, dictionary, meas, cfg.k, norm_bound,
                         spec.default_max_iters)
    return digest


def projection_study(ss):
    digest = Digest()
    D = ss.build_overcomplete_dft(16, 2)
    for seed in (SEED, 101):
        for name in BACKENDS:
            digest.add(seed, name)
            _add_study(digest, ss, D, (name,), seed)
    return digest


def projection_study_all(ss):
    digest = Digest()
    D = ss.build_overcomplete_dft(16, 2)
    for seed in (SEED, 101):
        digest.add(seed)
        _add_study(digest, ss, D, BACKENDS, seed)
    # no study above fails, so a lower cap keeps an ADMM failure in the digest
    with mock.patch.object(ss.projections, "ADMM_MAX_ITERS", 2000):
        _add_study(digest, ss, D, BACKENDS, 101)
    return digest


def _add_study(digest, ss, D, backends, seed):
    try:
        rows = ss.run_projection_study(D, 2, ("separated", "clustered"), backends, 12, seed)
    except ss.NumericalFailureError as exc:
        _add_failure(digest, exc)
    else:
        digest.add([(r.backend, r.pattern, r.trial, r.eps1, r.eps2, r.opt_residual)
                    for r in rows])


def backend_supports(ss):
    digest = Digest()
    backends = (ss.OMPBackend(), ss.CoSaMPBackend())
    rng = np.random.default_rng(11)
    for label, D in _dictionaries(ss).items():
        for trial in range(40):
            if trial % 2:
                z = _random_complex(rng, D.n)
            else:
                cols = rng.choice(D.d, size=3, replace=False)
                z = D.matrix[:, cols] @ _random_complex(rng, 3) + 0.05 * _random_complex(rng, D.n)
            for k in range(1, 5):
                for backend in backends:
                    digest.add(label, trial, k, type(backend).__name__, backend.support(D, z, k))
    return digest


def admm(ss):
    digest = Digest()
    rng = np.random.default_rng(23)
    D = ss.build_overcomplete_dft(16, 2).matrix
    systems = [(D, D[:, [5, 21]] @ _random_complex(rng, 2) + 0.05 * _random_complex(rng, 16)),
               (D, _random_complex(rng, 16))]
    for m, d in ((8, 20), (12, 12), (16, 10)):
        systems.append((_random_complex(rng, m, d), _random_complex(rng, m)))
    for M, z in systems:
        for sigma_rel in (1e-6, 0.1):
            try:
                digest.add(ss.basis_pursuit_denoise(M, z, sigma_rel * np.linalg.norm(z)))
            except ss.NumericalFailureError as exc:
                _add_failure(digest, exc)
    return digest


def mismatch(ss):
    digest = Digest()
    rng = np.random.default_rng(13)
    for label, D in _dictionaries(ss).items():
        if D.d > 32:
            continue  # the exhaustive scan grows as C(d, k)
        for trial in range(4):
            x = _random_complex(rng, D.n)
            for k in (1, 2, 3):
                report = ss.mismatch(D, x, k)
                coeffs = report.minimizing_coeffs
                digest.add(label, trial, k, report.value, coeffs.support, coeffs.values)
    return digest


def mismatch_kept(ss):
    digest = Digest()
    rng = np.random.default_rng(29)
    D = ss.build_overcomplete_dft(16, 2)
    for trial in range(12):
        if trial % 2:
            x = _random_complex(rng, D.n)
        else:
            cols = rng.choice(D.d, size=2, replace=False)
            x = D.matrix[:, cols] @ _random_complex(rng, 2) + 0.05 * _random_complex(rng, D.n)
        report = ss.mismatch(D, x, 2)
        coeffs = report.minimizing_coeffs
        digest.add(trial, report.value, coeffs.support, coeffs.values)
    return digest


def drip_exact(ss):
    digest = Digest()
    rng = np.random.default_rng(17)
    for trial in range(3):
        M = _random_complex(rng, 10, 12)
        D = ss.Dictionary(M / np.linalg.norm(M, axis=0))
        Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        A = ss.SensingMatrix(Q + 0.002 * rng.standard_normal((10, 10)) / np.sqrt(10))
        for k in (1, 2, 4):
            digest.add(trial, k, ss.drip_exact(A, D, k).delta_lower)
    for label, D in _dictionaries(ss).items():
        if D.d <= 20:
            A = ss.draw_gaussian_sensing(D.n - 2, D.n, 3)
            digest.add(label, ss.drip_exact(A, D, 2).delta_lower)
    return digest


def build_projector(ss):
    digest = Digest()
    rng = np.random.default_rng(19)
    for label, D in _dictionaries(ss).items():
        for t in (1, 2, 5, 9):
            for _ in range(10):
                cols = rng.choice(D.d, size=t, replace=False)
                P = ss.build_projector(D.columns(tuple(int(c) for c in cols)))
                digest.add(label, cols, P.basis)
    base = _random_complex(rng, 8, 3)
    hostile = [
        np.zeros((8, 2)),
        np.column_stack([base, base[:, 0]]),
        np.column_stack([base, base[:, 1] + 1e-13 * base[:, 2]]),
        base[:, :1] * np.array([[1.0, 1e-12]]),
        _random_complex(rng, 4, 7),  # wide
    ]
    for cols in hostile:
        digest.add(ss.build_projector(cols).basis)
    return digest


# (file name, text) of the sweep configs cli_outputs runs
CLI_CONFIGS = (
    ("clustered.cfg", "scenario = dft-clustered\nn = 16\nk = 2\nm_grid = 8, 12\ntrials = 2\n"
                      "algorithms = sscosamp-omp, sscosamp-cosamp, cosamp, omp, l1\n"
                      f"noise_norm = 0.01\nmaster_seed = {SEED}\n"),
    ("identity.cfg", "scenario = rescaled-identity\nn = 16\nk = 2\nm_grid = 8, 12\n"
                     "trials = 2\nalgorithms = sscosamp-threshold, sscosamp-l1, cosamp\n"
                     f"master_seed = {SEED}\n"),
)
CLI_CALLS = [
    *(["sweep", "--config", name, *flags, "--aggregate-out", "aggregate.csv"]
      for name, _ in CLI_CONFIGS
      for flags in (["--out", "sweep.csv"], ["--format", "json"], ["--seed", "101"])),
    ["project-eval", "--n", "16", "--k", "2", "--trials", "3", "--seed", str(SEED),
     "--out", "quality.csv"],
    ["project-eval", "--dict", "rescaled-identity", "--n", "8", "--k", "2", "--patterns",
     "uniform,hybrid", "--backends", "threshold,omp,exhaustive", "--trials", "2"],
    ["drip", "--n", "16", "--m", "8", "--k", "2", "--trials", "50", "--seed", "3"],
    ["drip", "--dict", "rescaled-identity", "--n", "8", "--m", "6", "--k", "2", "--trials", "25",
     "--format", "json", "--out", "drip.json"],
    ["recover", "--scenario", "dft-separated", "--algorithm", "sscosamp-omp", "--n", "32",
     "--k", "2", "--m", "16", "--seed", "5", "--out", "trace.csv"],
    ["recover", "--scenario", "rescaled-identity", "--algorithm", "cosamp", "--n", "16", "--k",
     "2", "--m", "8", "--noise-norm", "0.01", "--out", "-"],
    ["recover", "--scenario", "dft-hybrid", "--algorithm", "l1", "--n", "16", "--k", "2",
     "--m", "12", "--seed", "9"],
    ["constants", "--delta", "0.029", "--eps1", "0.1", "--eps2", "1.0"],
    ["constants", "--delta", "0.2", "--eps2", "3", "--format", "json", "--out", "c.json"],
]


# (workload, seeds) that perfbench_passes runs one pass of each; the
# benchmark's failures happen on diagnostics seeds, so those are many
PASS_SEEDS = (
    ("diagnostics", (*range(1, 61), 101, 2026)),
    ("identity", (101, 2026)),
    ("separated", (101, 2026)),
)


# (workload, seed) that perfbench_passes also runs with perfbench's tracer installed
TRACED_PASSES = (("identity", 2026), ("separated", 2026))


def perfbench_passes(ss):
    sys.path.insert(1, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing  # noqa: F401  both import sscosamp, already the --src tree's
    import workloads

    digest = Digest()

    def add_pass(name, seed, traced):
        workload = workloads.make_workload(name, out_dir)
        workload.setup(seed)
        with tracing.Tracer().installed() if traced else contextlib.nullcontext():
            res = workload.run_pass(seed)
        counts = (res.attempted, res.failed, sorted(res.failures.items()), res.successes)
        digest.add(name, seed, counts)
        if not traced:
            for output in res.outputs:
                digest.add(*(_csv_text(ss, item) if isinstance(item, ss.SweepResult) else item
                             for item in output))
        print(f"# perfbench {name} seed {seed}{' traced' if traced else ''}: {res.failed} of "
              f"{res.attempted} failed {dict(res.failures)}", file=sys.stderr)

    with tempfile.TemporaryDirectory() as out_dir:
        for name, seeds in PASS_SEEDS:
            for seed in seeds:
                add_pass(name, seed, False)
        for name, seed in TRACED_PASSES:
            add_pass(name, seed, True)
    return digest


def cli_outputs(ss):
    import sscosamp.cli  # noqa: F401  loads ss.cli from the same tree as ss

    digest = Digest()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in CLI_CONFIGS:
                Path(name).write_text(text, encoding="ascii")
            for argv in CLI_CALLS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = ss.cli.main(argv)
                written = sorted(p for p in Path(".").iterdir() if not p.name.endswith(".cfg"))
                digest.add(argv, rc, out.getvalue(), err.getvalue(),
                           [(p.name, p.read_bytes()) for p in written])
                for path in written:
                    path.unlink()
        finally:
            os.chdir(cwd)
    return digest


SECTIONS = (sweep_csv, run_algorithm, identity_gate, projection_study, projection_study_all,
            backend_supports, admm, mismatch, mismatch_kept, drip_exact, build_projector,
            cli_outputs, perfbench_passes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the sscosamp package to digest")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import sscosamp as ss

    print(f"# sscosamp from {Path(ss.__file__).parent}", file=sys.stderr)
    for section in SECTIONS:
        start = time.perf_counter()
        digest = section(ss)
        print(f"{section.__name__:20s} {digest.hexdigest()}")
        print(f"# {section.__name__}: {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
