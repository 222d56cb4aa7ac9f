"""The CLI's exit-code contract, searched with hypothesis over tiny inputs.

Every subcommand is called in-process through ``cli.main`` with flags (and,
for ``sweep``, config keys) drawn at tiny sizes, valid and invalid alike:
k at 0, 1 and d/2, noise from 0 through 1e300 plus NaN and inf, scales,
perturbations and constants up to 1e160, seeds at -1, 0 and 2**64, negative
trial counts.  The contract:

* the exit code is 0, 2 or 3 (an uncaught exception, exit 1, fails the test);
* on 2 or 3, stderr holds no traceback and ends in its one ``error: ...`` or
  ``numerical failure: ...`` line;
* on 0, stderr is empty;
* on 2, stdout is empty;
* an input outside its documented range (a negative seed or trial count,
  k = 0, a NaN, a noise whose measurements overflow) exits 2;
* a sweep that exits 0 or 3 prints every (m, trial, algorithm) row.

The ``@example`` cases are inputs that once exited 1, exited 0 on an
out-of-range value, or exited 3 without the rows of a sweep.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sscosamp.bench import KNOWN_ALGORITHMS, SCENARIOS
from sscosamp.cli import build_sweep_config, main, parse_config_file

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                    suppress_health_check=[HealthCheck.too_slow])
FAILURE_PREFIXES = ("error: ", "numerical failure: ")

# noise norms as typed; from about 1.4e154 the measurements' norm overflows
NOISE = ["0", "1e-300", "0.01", "1e154", "2e154", "1e300", "nan", "inf", "-1"]
BAD_NOISE = {"2e154", "1e300", "nan", "inf", "-1"}
SEEDS = [None, -1, 0, 2**64]
# scale, perturbation and constants values; 1e160 overflows a column norm or
# ||z||, 1.3e154 passes the column-norm check and overflows ||D a||
FLOATS = ["0.1", "0", "-1", "nan", "inf", "1e160", "1.3e154"]
BACKENDS = ("threshold", "omp", "cosamp", "l1", "exhaustive")
PATTERNS = ("uniform", "separated", "clustered", "hybrid")


def _run(argv, must_reject):
    """Run ``main(argv)`` and check the contract; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 2, 3), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
    if rc:
        lines = err.splitlines()
        assert lines and lines[-1].startswith(FAILURE_PREFIXES), (argv, err)
        assert sum(line.startswith(FAILURE_PREFIXES) for line in lines) == 1, (argv, err)
    if rc == 0:
        assert err == "", (argv, err)
    if rc == 2:
        assert out == "", (argv, out)
    if must_reject:
        assert rc == 2, (argv, rc, out, err)
    return rc, out


def _flags(**flags):
    argv = []
    for name, value in flags.items():
        if value is not None:
            argv += [f"--{name.replace('_', '-')}", str(value)]
    return argv


def _sizes(draw, kind, ns, redundancy=4):
    """Draw n and k for a dictionary family; k is 0, 1, 2 or d/2."""
    n = draw(st.sampled_from(ns))
    d = n if kind == "rescaled-identity" else redundancy * n
    return n, draw(st.sampled_from([0, 1, 2, max(d // 2, 1)]))


def _is_bad_float(text):
    return not 0 <= float(text) < math.inf


@st.composite
def sweep_cases(draw):
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    kind = SCENARIOS[scenario].dictionary_kind
    n, k = _sizes(draw, kind, [4, 8])
    entries = {
        "scenario": scenario,
        "n": str(n),
        "m_grid": draw(st.sampled_from(["1", "2, 4", str(n), "4, 2"])),
        "trials": draw(st.sampled_from(["-1", "0", "1", "2"])),
        "algorithms": ", ".join(draw(st.lists(st.sampled_from(KNOWN_ALGORITHMS), min_size=1,
                                              max_size=3, unique=True))),
    }
    optional = {
        "k": st.just(str(k)),
        "noise_norm": st.sampled_from(NOISE),
        "master_seed": st.sampled_from(SEEDS[1:]).map(str),
        "snr_threshold_db": st.sampled_from(["100", "-inf", "nan"]),
        "tikhonov_bound_factor": st.sampled_from(["10", "1e-300", "0", "inf"]),
        "max_iters": st.sampled_from(["-1", "0", "3"]),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            entries[key] = draw(values)
    seed = draw(st.sampled_from([None, -2, 0, 2**64]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    master_seed = seed if seed is not None else int(entries.get("master_seed", 0))
    must_reject = (master_seed < 0 or int(entries["trials"]) < 1
                   or entries.get("k") == "0" or entries.get("noise_norm") in BAD_NOISE)
    return entries, seed, fmt, must_reject


def _sweep_entries(algorithms, **extra):
    return {"scenario": "rescaled-identity", "n": "16", "k": "2", "m_grid": "8",
            "trials": "2", "algorithms": algorithms, **extra}


@CONTRACT
@given(sweep_cases())
@example((_sweep_entries("omp", noise_norm="2e154"), None, "csv", True))
@example((_sweep_entries("l1", noise_norm="2e154"), None, "json", True))
@example((_sweep_entries("omp"), -2, "csv", True))
@example((_sweep_entries("omp", master_seed="-1"), None, "csv", True))
@example(({"scenario": "dft-separated", "n": "36", "k": "16", "m_grid": "20", "trials": "3",
           "algorithms": "omp"}, None, "csv", False))  # every instance draw fails
def test_sweep_contract(case):
    entries, seed, fmt, must_reject = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in entries.items())
        rc, out = _run(["sweep", "--config", path, "--format", fmt, *_flags(seed=seed)],
                       must_reject)
        if rc == 2:
            return
        cfg = build_sweep_config(parse_config_file(path), seed_override=seed)
    if fmt == "json":
        rows = [(row["m"], row["trial"], row["algorithm"]) for row in json.loads(out)]
    else:
        rows = [(int(row["m"]), int(row["trial"]), row["algorithm"])
                for row in csv.DictReader(io.StringIO(out))]
    assert rows == [(m, trial, alg) for m in cfg.m_grid for trial in range(cfg.trials)
                    for alg in cfg.algorithms]


@st.composite
def recover_cases(draw):
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    n, k = _sizes(draw, SCENARIOS[scenario].dictionary_kind, [4, 8])
    noise = draw(st.sampled_from(NOISE))
    seed = draw(st.sampled_from(SEEDS))
    argv = ["recover", *_flags(
        scenario=scenario, algorithm=draw(st.sampled_from(KNOWN_ALGORITHMS)), n=n, k=k,
        m=draw(st.sampled_from([1, n // 2, n])), noise_norm=noise,
        max_iters=draw(st.sampled_from([-1, 0, 3])), seed=seed,
        out=draw(st.sampled_from([None, "-"])))]
    return argv, k == 0 or noise in BAD_NOISE or (seed is not None and seed < 0)


RECOVER_32 = ["recover", "--m", "24", "--n", "32", "--k", "2"]


@CONTRACT
@given(recover_cases())
@example((RECOVER_32 + ["--seed", "-1"], True))
@example((RECOVER_32 + ["--algorithm", "omp", "--noise-norm", "1e300"], True))
@example((RECOVER_32 + ["--algorithm", "l1", "--noise-norm", "1e300"], True))
@example((["recover", "--scenario", "dft-hybrid", "--algorithm", "sscosamp-threshold",
           "--n", "4", "--k", "8", "--m", "1"], False))
@example((["recover", "--scenario", "dft-clustered", "--algorithm", "omp", "--n", "4",
           "--k", "1", "--m", "1", "--noise-norm", "1e154"], False))
def test_recover_contract(case):
    _run(*case)


@st.composite
def project_eval_cases(draw):
    kind = draw(st.sampled_from(["dft", "rescaled-identity"]))
    redundancy = draw(st.sampled_from([1, 2]))
    n, k = _sizes(draw, kind, [2, 4, 8], redundancy)
    trials = draw(st.sampled_from([-3, 0, 1, 2]))
    seed = draw(st.sampled_from(SEEDS))
    perturbation = draw(st.sampled_from(FLOATS))
    argv = ["project-eval", *_flags(
        dict=kind, n=n, redundancy=redundancy, scale=draw(st.sampled_from(FLOATS)), k=k,
        patterns=",".join(draw(st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=2,
                                        unique=True))),
        backends=",".join(draw(st.lists(st.sampled_from(BACKENDS), min_size=1, max_size=3,
                                        unique=True))),
        trials=trials, seed=seed, perturbation=perturbation)]
    must_reject = (k == 0 or trials < 0 or (seed is not None and seed < 0)
                   or _is_bad_float(perturbation))
    return argv, must_reject


PROJECT_8 = ["project-eval", "--n", "8", "--k", "2", "--backends", "threshold"]


@CONTRACT
@given(project_eval_cases())
@example((["project-eval", "--dict", "dft", "--n", "4", "--redundancy", "2", "--k", "0",
           "--patterns", "uniform", "--backends", "threshold", "--trials", "1"], True))
@example((PROJECT_8 + ["--trials", "-3"], True))
@example((PROJECT_8 + ["--trials", "1", "--seed", "-1"], True))
@example((PROJECT_8 + ["--trials", "1", "--perturbation", "-1"], True))
@example((PROJECT_8 + ["--trials", "1", "--perturbation", "nan"], True))
def test_project_eval_contract(case):
    _run(*case)


@st.composite
def drip_cases(draw):
    kind = draw(st.sampled_from(["dft", "rescaled-identity"]))
    redundancy = draw(st.sampled_from([1, 2]))
    n, k = _sizes(draw, kind, [2, 4, 8], redundancy)
    trials = draw(st.sampled_from([-1, 0, 1, 5]))
    seed = draw(st.sampled_from(SEEDS))
    argv = ["drip", *_flags(
        dict=kind, n=n, redundancy=redundancy, scale=draw(st.sampled_from(FLOATS)),
        m=draw(st.sampled_from([0, 1, n // 2, n, n + 1])), k=k, trials=trials, seed=seed,
        format=draw(st.sampled_from(["csv", "json"])))]
    return argv, k == 0 or trials < 1 or (seed is not None and seed < 0)


@CONTRACT
@given(drip_cases())
@example((["drip", "--m", "8", "--k", "2", "--trials", "5", "--seed", "-1"], True))
def test_drip_contract(case):
    _run(*case)


@st.composite
def constants_cases(draw):
    values = {name: draw(st.sampled_from(FLOATS + ["0.029", "0.99", "1"]))
              for name in ("delta", "eps1", "eps2")}
    argv = ["constants", *_flags(**values, format=draw(st.sampled_from(["text", "json"])))]
    return argv, any(math.isnan(float(value)) for value in values.values())


@CONTRACT
@given(constants_cases())
@example((["constants", "--delta", "0.1", "--eps1", "nan"], True))
@example((["constants", "--delta", "0.1", "--eps2", "nan"], True))
def test_constants_contract(case):
    _run(*case)
