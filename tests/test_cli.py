"""Command-line interface: config parsing, subcommands, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import sscosamp
from sscosamp import InvalidInputError, SweepConfig, projections, run_sweep
from sscosamp.bench import format_snr
from sscosamp.cli import _SWEEP_KEYS, build_sweep_config, main, parse_config_file

from _fixtures import fail_first_call

SWEEP_CONFIG = """\
# tiny smoke sweep
scenario = rescaled-identity
n = 32
k = 2
m_grid = 16          # single point
trials = 2
algorithms = sscosamp-threshold
master_seed = 7
"""


def _write_config(tmp_path, text=SWEEP_CONFIG, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_file(tmp_path):
    path = _write_config(tmp_path)
    entries = parse_config_file(path)
    assert entries["scenario"] == "rescaled-identity"
    assert entries["m_grid"] == "16"
    assert entries["trials"] == "2"
    assert "#" not in "".join(entries.values())


def test_parse_config_file_rejects_malformed(tmp_path):
    for text in ["scenario rescaled-identity\n", "scenario =\n",
                 "a = 1\na = 2\n", "= 3\n"]:
        path = _write_config(tmp_path, text=text, name="bad.cfg")
        with pytest.raises(InvalidInputError):
            parse_config_file(path)
    with pytest.raises(InvalidInputError):
        parse_config_file(str(tmp_path / "missing.cfg"))


def test_build_sweep_config():
    entries = {"scenario": "dft-separated", "trials": "5", "m_grid": "32, 64"}
    cfg = build_sweep_config(entries)
    assert cfg.trials == 5
    assert cfg.m_grid == (32, 64)
    assert build_sweep_config(entries, seed_override=99).master_seed == 99
    with pytest.raises(InvalidInputError):
        build_sweep_config({"scenario": "dft-separated", "bogus": "1"})
    with pytest.raises(InvalidInputError):
        build_sweep_config({"trials": "5"})
    with pytest.raises(InvalidInputError):
        build_sweep_config({"scenario": "dft-separated", "trials": "lots"})


def test_sweep_config_keys_are_the_sweep_config_fields():
    # the keys and their parsers come from SweepConfig's fields and annotations
    assert set(_SWEEP_KEYS) == {f.name for f in dataclasses.fields(SweepConfig)}
    assert _SWEEP_KEYS["noise_norm"] is float and _SWEEP_KEYS["scenario"] is str


def test_constants_text_output(capsys):
    rc = main(["constants", "--delta", "0.029", "--eps1", "0.1", "--eps2", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "C1 = 0.4969072935" in out
    assert "C2 = 12.6677334980" in out
    assert "contractive = True" in out


def test_constants_json_output(capsys):
    rc = main(["constants", "--delta", "0.0", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["C1"] == 0.0
    assert payload["C2"] == 8.0
    assert payload["is_contractive"] is True


def _no_json_constant(token):
    raise AssertionError(f"not JSON: {token}")


@pytest.mark.parametrize("flags, expected", [
    (["--delta", "0.1", "--eps1", "inf"], {"C1": "inf", "C2": "inf", "eps1": "inf"}),
    (["--delta", "0.1", "--eps1", "1e308", "--eps2", "1e308"],
     {"C1": "inf", "C2": "inf", "eps1": 1e308}),
    (["--delta", "0.0", "--eps1", "inf"], {"C1": "nan", "eps2": 0.0}),
], ids=["infinite-eps", "overflowing-C1", "nan-C1"])
def test_constants_json_writes_non_finite_values_as_tokens(capsys, flags, expected):
    # C1 used to be written as Infinity or NaN, which JSON does not have
    assert main(["constants", *flags, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_no_json_constant)
    assert {key: payload[key] for key in expected} == expected
    assert payload["is_contractive"] is False


def test_constants_invalid_delta_exits_2(capsys):
    rc = main(["constants", "--delta", "1.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_outputs_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "scenario,algorithm,m,trial,seed,snr_db,success,iterations,wall_ms,stop_reason"
    assert len(lines) == 3


def test_sweep_seed_override_changes_rows(tmp_path):
    cfg = _write_config(tmp_path)
    base, seeded = tmp_path / "base.csv", tmp_path / "seeded.csv"
    assert main(["sweep", "--config", cfg, "--out", str(base)]) == 0
    assert main(["sweep", "--config", cfg, "--seed", "123", "--out", str(seeded)]) == 0
    assert base.read_bytes() != seeded.read_bytes()
    # overriding with the configured seed reproduces the original bytes
    again = tmp_path / "again.csv"
    assert main(["sweep", "--config", cfg, "--seed", "7", "--out", str(again)]) == 0
    assert base.read_bytes() == again.read_bytes()


def test_sweep_json_format_and_aggregate(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "rows.json"
    agg = tmp_path / "agg.csv"
    rc = main(["sweep", "--config", cfg, "--format", "json",
               "--out", str(out), "--aggregate-out", str(agg)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 2
    for row in payload:
        assert row["wall_ms"] == 0.0
        assert row["stop_reason"]
        float(row["snr_db"])  # numeric token
    agg_lines = agg.read_text().splitlines()
    assert agg_lines[0] == ("scenario,algorithm,m,trials,success_rate,"
                            "mean_snr_db,mean_iterations,mean_wall_ms")
    assert len(agg_lines) == 2


def test_sweep_missing_config_exits_2(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_unknown_config_key_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, text="scenario = dft-separated\nbogus = 3\n")
    rc = main(["sweep", "--config", path])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_project_eval_writes_quality_csv(tmp_path):
    out = tmp_path / "quality.csv"
    rc = main(["project-eval", "--dict", "dft", "--n", "8", "--redundancy", "2",
               "--k", "2", "--patterns", "uniform", "--backends",
               "threshold,exhaustive", "--trials", "2", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "backend,pattern,trial,eps1,eps2,opt_residual"
    assert len(lines) == 5
    exhaustive = [line for line in lines[1:] if line.startswith("exhaustive,")]
    assert exhaustive and all(line.split(",")[3] == "0.000000000" for line in exhaustive)


def test_project_eval_l1_completes(tmp_path):
    # a fixed ADMM penalty left this study exiting 3 ("ADMM did not converge")
    out = tmp_path / "quality.csv"
    rc = main(["project-eval", "--dict", "dft", "--n", "16", "--redundancy", "2",
               "--k", "2", "--patterns", "separated,clustered", "--backends", "l1",
               "--trials", "12", "--seed", "2026", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 24


_L1_STUDY = ["project-eval", "--dict", "dft", "--n", "16", "--redundancy", "2", "--k", "2",
             "--backends", "l1", "--seed", "40"]
_FAILING_STUDY = _L1_STUDY + ["--patterns", "separated,clustered"]


def test_project_eval_admm_failure_reports_iteration_and_diagnostics(capsys, monkeypatch):
    # at a 1000-iteration cap separated trial 4's L1 solve fails in both runs
    monkeypatch.setattr(projections, "ADMM_MAX_ITERS", 1000)
    rc = main(_FAILING_STUDY + ["--trials", "12"])
    assert rc == 3
    captured = capsys.readouterr()
    rows = [line.split(",")[1:3] for line in captured.out.splitlines()[1:]]
    assert rows == [["separated", str(t)] for t in range(4)]
    assert captured.err == (
        "numerical failure: basis_pursuit_denoise: ADMM did not converge (iteration 1000; "
        "dual_residual=2.9777138142352073e-06; primal_residual=9.819884472587632e-06; "
        "rho=8.0; sigma=3.78408682879862e-07)\n"
    )


def test_project_eval_failure_keeps_the_rows_scored_before_it(tmp_path, monkeypatch):
    # separated trial 4's L1 solve fails at a 1000-iteration cap; every row
    # before it is written as the studies that stop short of it write that row
    monkeypatch.setattr(projections, "ADMM_MAX_ITERS", 1000)
    failed, separated = (tmp_path / name for name in ("f.csv", "s.csv"))
    assert main(_FAILING_STUDY + ["--trials", "12", "--out", str(failed)]) == 3
    assert main(_L1_STUDY + ["--patterns", "separated", "--trials", "4",
                             "--out", str(separated)]) == 0
    assert failed.read_text().splitlines() == separated.read_text().splitlines()
    assert len(failed.read_text().splitlines()) == 1 + 4


def test_project_eval_l1_study_answers_every_vector_at_the_default_cap(tmp_path):
    # seed 40's clustered trial 11 used to end this study with exit 3
    out = tmp_path / "quality.csv"
    assert main(_FAILING_STUDY + ["--trials", "12", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 24


def test_project_eval_support_sampler_failure_exits_3(capsys):
    # the hybrid sampler cannot fill d = k = 8; its failure used to escape
    # without the rows and end in an AttributeError
    rc = main(["project-eval", "--dict", "dft", "--n", "4", "--redundancy", "2", "--k", "8",
               "--patterns", "hybrid", "--backends", "threshold", "--trials", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["backend,pattern,trial,eps1,eps2,opt_residual"]
    assert captured.err.startswith("numerical failure: hybrid support sampling")


def test_drip_csv_output(capsys):
    rc = main(["drip", "--dict", "dft", "--n", "8", "--redundancy", "1",
               "--m", "8", "--k", "2", "--trials", "50", "--seed", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    entries = dict(line.split(",", 1) for line in lines)
    assert entries["order_k"] == "2"
    assert entries["n"] == "8"
    assert float(entries["delta_lower"]) >= 0.0


def test_drip_json_output(capsys):
    rc = main(["drip", "--dict", "rescaled-identity", "--n", "8", "--scale", "10",
               "--m", "6", "--k", "2", "--trials", "25", "--seed", "2",
               "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order_k"] == 2
    assert payload["d"] == 8
    assert payload["delta_lower"] >= 0.0
    assert isinstance(payload["is_valid_rip"], bool)


def test_recover_prints_trace_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    argv = ["recover", "--scenario", "dft-separated", "--algorithm", "sscosamp-omp",
            "--n", "32", "--k", "2", "--m", "24", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "algorithm=sscosamp m=24 n=32 k=2"
    assert lines[1] == "iter,residual_norm,support"
    assert lines[-1].startswith("stop_reason=")
    assert "snr_db=" in lines[-1]
    csv_lines = out.read_text().splitlines()
    assert csv_lines[0] == "iter,residual_norm,error_to_truth,pruned_support"
    assert len(csv_lines) >= 2
    # identical invocation prints identical output
    assert main(argv) == 0
    assert capsys.readouterr().out == text


def test_recover_unknown_scenario_exits_2(capsys):
    rc = main(["recover", "--scenario", "nope", "--m", "24"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_usage_raises_systemexit():
    with pytest.raises(SystemExit):
        main(["sweep"])  # missing required --config
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit):
        main([])


def test_sweep_out_dash_writes_stdout(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("scenario,algorithm,m,trial,seed,snr_db,success,"
                        "iterations,wall_ms,stop_reason")
    assert len(lines) == 3
    assert main(["project-eval", "--n", "8", "--k", "1", "--patterns", "uniform",
                 "--backends", "threshold", "--trials", "1"]) == 0
    assert capsys.readouterr().out.startswith("backend,pattern,trial,eps1,eps2,opt_residual")
    assert not (tmp_path / "-").exists()


def test_sweep_lapack_failure_writes_row_and_exits_3(tmp_path, capsys, monkeypatch):
    fail_first_call(monkeypatch, np.linalg, "lstsq")
    cfg = _write_config(tmp_path, text=SWEEP_CONFIG.replace("sscosamp-threshold", "omp"))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "numerical failure: 1 of 2 runs" in capsys.readouterr().err
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2
    assert [row.endswith(",numerical_failure") for row in rows] == [True, False]


@pytest.mark.parametrize("algorithm, owner, attr", [
    ("omp", np.linalg, "lstsq"),
    ("sscosamp-threshold", np.linalg, "svd"),
    ("sscosamp-threshold", scipy.linalg.lapack, "zgeqp3"),
])
def test_recover_lapack_failure_exits_3(capsys, monkeypatch, algorithm, owner, attr):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic LAPACK breakdown")

    monkeypatch.setattr(owner, attr, broken)
    if attr == "svd":
        # the update fit answers well-conditioned systems by QR and reaches
        # the SVD when that attempt reports a LAPACK error
        monkeypatch.setattr(scipy.linalg.lapack, "zgeqrf", lambda a: (a, None, None, -1))
    rc = main(["recover", "--scenario", "rescaled-identity", "--algorithm", algorithm,
               "--n", "32", "--k", "2", "--m", "16"])
    assert rc == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_recover_out_dash_writes_trace_csv_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["recover", "--scenario", "dft-separated", "--n", "32", "--k", "2",
                 "--m", "24", "--seed", "5", "--out", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "iter,residual_norm,error_to_truth,pruned_support" in lines
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("algorithm, expected", [
    ("sscosamp-omp", ("3", "residual_tol", "308.691276")),
    ("cosamp", ("2", "residual_tol", "304.589890")),
])
def test_recover_matches_sweep_trial_0(capsys, algorithm, expected):
    # recover and run_sweep draw their instances with the same builder
    assert main(["recover", "--scenario", "dft-separated", "--algorithm", algorithm,
                 "--n", "32", "--k", "2", "--m", "24", "--seed", "5"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    fields = dict(item.split("=") for item in last.split())
    printed = (fields["iterations"], fields["stop_reason"], fields["snr_db"])
    result = run_sweep(SweepConfig(scenario="dft-separated", n=32, k=2, m_grid=(24,),
                                   trials=1, algorithms=(algorithm,), master_seed=5))
    (row,) = result.rows
    assert printed == (str(row.iterations), row.stop_reason, format_snr(row.snr_db))
    assert printed == expected


def test_recover_unknown_algorithm_exits_2(capsys):
    assert main(["recover", "--algorithm", "nope", "--m", "24"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_nan_noise_norm_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, text=SWEEP_CONFIG + "noise_norm = nan\n")
    assert main(["sweep", "--config", path]) == 2
    assert "noise_norm must be finite" in capsys.readouterr().err


def _error_line_of_exit_2(argv, capsys):
    """Run ``argv``; check exit 2, an empty stdout and one stderr line; return it."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("message, expected", [
    ("Unable to allocate 1.50 GiB for an array with shape (5000, 20000) and data type "
     "complex128", "error: out of memory: Unable to allocate 1.50 GiB for an array with shape "
     "(5000, 20000) and data type complex128"),
    ("", "error: out of memory"),
], ids=["numpy", "bare"])
def test_memory_error_exits_2_with_one_line(monkeypatch, capsys, message, expected):
    # it used to escape main with a traceback and exit 1; injected, never allocated
    def exhausted(n, redundancy):
        raise MemoryError(message)

    monkeypatch.setattr(sscosamp.bench, "build_overcomplete_dft", exhausted)
    argv = ["recover", "--scenario", "dft-separated", "--n", "32", "--k", "2", "--m", "16"]
    assert _error_line_of_exit_2(argv, capsys) == expected


@pytest.mark.parametrize("argv", [
    ["drip", "--m", "8", "--k", "2", "--trials", "5", "--seed", "-1"],
    ["recover", "--m", "24", "--n", "32", "--k", "2", "--seed", "-1"],
    ["project-eval", "--n", "8", "--k", "2", "--trials", "1", "--backends", "threshold",
     "--seed", "-1"],
], ids=["drip", "recover", "project-eval"])
def test_negative_seed_exits_2(argv, capsys):
    # np.random.SeedSequence used to raise "expected non-negative integer": exit 1
    assert "seed must be >= 0, got -1" in _error_line_of_exit_2(argv, capsys)


def test_sweep_negative_seed_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path)
    argv = ["sweep", "--config", path, "--seed", "-2"]
    assert "master_seed must be >= 0, got -2" in _error_line_of_exit_2(argv, capsys)
    path = _write_config(tmp_path, text=SWEEP_CONFIG.replace("master_seed = 7", "master_seed = -1"))
    argv = ["sweep", "--config", path]
    assert "master_seed must be >= 0, got -1" in _error_line_of_exit_2(argv, capsys)


@pytest.mark.parametrize("flags, message", [
    (["--dict", "dft", "--n", "4", "--redundancy", "2", "--k", "0", "--patterns", "uniform",
      "--trials", "1"], "k must be >= 1"),
    (["--n", "8", "--k", "2", "--trials", "-3"], "trials must be >= 0"),
    (["--n", "8", "--k", "2", "--trials", "1", "--perturbation", "-1"], "perturbation_rel"),
    (["--n", "8", "--k", "2", "--trials", "1", "--perturbation", "nan"], "perturbation_rel"),
    (["--n", "8", "--k", "2", "--trials", "1", "--perturbation", "inf"], "perturbation_rel"),
], ids=["k-0", "negative-trials", "negative-perturbation", "nan-perturbation",
        "inf-perturbation"])
def test_project_eval_bad_sizes_exit_2(flags, message, capsys):
    # k = 0 used to exit 1 (ZeroDivisionError), trials = -3 to print a bare
    # header and a negative perturbation to flip its sign, all with exit 0
    argv = ["project-eval", "--backends", "threshold", *flags]
    assert message in _error_line_of_exit_2(argv, capsys)


@pytest.mark.parametrize("flags, message", [
    (["--backends", ""], "backends must be non-empty"),
    (["--patterns", " , "], "patterns must be non-empty"),
], ids=["backends", "patterns"])
def test_project_eval_empty_lists_exit_2(flags, message, capsys):
    # both used to write only the CSV header and exit 0
    argv = ["project-eval", "--n", "8", "--k", "2", "--trials", "1", *flags]
    assert message in _error_line_of_exit_2(argv, capsys)


@pytest.mark.parametrize("argv", [
    "constants --delta 0.1 --out {tmp}/missing/c.txt",
    "sweep --config {cfg} --out {tmp}/rows.csv --aggregate-out {tmp}/missing/a.csv",
    "sweep --config {cfg} --out {tmp}",
    "recover --m 8 --n 16 --k 2 --out {tmp}/missing/t.csv",
    "drip --m 4 --n 8 --k 2 --trials 3 --out {tmp}",
    "project-eval --trials 1 --backends threshold --out {tmp}/missing/q.csv",
], ids=["constants", "sweep-aggregate", "sweep", "recover", "drip", "project-eval"])
def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys, argv):
    # each used to exit 1 with a FileNotFoundError or IsADirectoryError
    # traceback; recover then printed its whole trace before exiting 2
    line = _error_line_of_exit_2(argv.format(tmp=tmp_path, cfg=_write_config(tmp_path)).split(),
                                 capsys)
    assert str(tmp_path) in line


def test_sweep_to_a_directory_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    # the sweep used to run every trial before it found that --out is a directory
    def no_sweep(*args):
        raise AssertionError("the sweep may not run")

    monkeypatch.setattr("sscosamp.cli.run_sweep", no_sweep)
    argv = ["sweep", "--config", _write_config(tmp_path), "--out", str(tmp_path)]
    assert "Is a directory" in _error_line_of_exit_2(argv, capsys)


def test_outputs_are_created_before_the_work_and_never_truncated(tmp_path, capsys):
    kept, new = tmp_path / "kept.txt", tmp_path / "new.txt"
    kept.write_text("earlier output\n")
    for path in (kept, new):
        _error_line_of_exit_2(["constants", "--delta", "1.5", "--out", str(path)], capsys)
    assert kept.read_text() == "earlier output\n"
    assert new.read_text() == ""  # a run that fails after the check leaves an empty file


@pytest.mark.parametrize("argv, message", [
    ("drip --dict rescaled-identity --n 4 --m 4 --k 2 --trials 3 --scale 1e160",
     "dictionary column norms overflow"),
    ("project-eval --dict rescaled-identity --n 4 --k 1 --scale 1e160 --trials 1 "
     "--backends threshold", "dictionary column norms overflow"),
    ("project-eval --n 8 --k 2 --backends threshold --trials 1 --perturbation 1e160",
     "the norm of z overflows"),
    ("project-eval --n 8 --k 2 --backends threshold,l1 --trials 1 --perturbation 1e160",
     "the norm of z overflows"),
    ("drip --dict rescaled-identity --n 10002 --m 4 --k 2 --trials 3",
     "requested rescaled identity too large (10002x10002)"),
    ("drip --dict rescaled-identity --n 4 --m 4 --k 2 --trials 20 --scale 1.3e154",
     "the norm of a sampled signal D a overflows"),
], ids=["drip-scale", "project-eval-scale", "perturbation", "perturbation-l1", "identity-cap",
        "drip-signal-norm"])
def test_overflowing_or_oversized_inputs_exit_2(argv, message, capsys):
    # each used to exit 0 with RuntimeWarnings (the last with threshold,l1 exit 3)
    assert _error_line_of_exit_2(argv.split(), capsys) == f"error: {message}"


def test_constants_nan_exits_2(capsys):
    # it used to print C1 = nan and exit 0
    argv = ["constants", "--delta", "0.1", "--eps1", "nan"]
    assert "eps1 and eps2 must be >= 0" in _error_line_of_exit_2(argv, capsys)


@pytest.mark.parametrize("algorithm", ["omp", "l1"])
def test_noise_that_overflows_the_norm_of_y_exits_2(tmp_path, capsys, algorithm):
    # snr_db's log10(signal / inf) and ADMM's NaN ball radius used to exit 1
    text = (SWEEP_CONFIG.replace("n = 32", "n = 16").replace("m_grid = 16", "m_grid = 8")
            .replace("sscosamp-threshold", algorithm) + "noise_norm = 2e154\n")
    path = _write_config(tmp_path, text=text)
    assert "norm overflows" in _error_line_of_exit_2(["sweep", "--config", path], capsys)
    argv = ["recover", "--algorithm", algorithm, "--noise-norm", "1e300", "--m", "24",
            "--n", "32", "--k", "2"]
    assert "norm overflows" in _error_line_of_exit_2(argv, capsys)


def _cli_subprocess(argv, cwd):
    src = str(Path(sscosamp.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "sscosamp.cli", *argv], capture_output=True,
                          text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)


def test_overflowing_noise_prints_only_the_error_line():
    # numpy's overflow RuntimeWarning used to come before the error line;
    # warnings do not reach capsys, so this runs the CLI in a subprocess
    argv = ["recover", "--algorithm", "omp", "--noise-norm", "1e300", "--m", "24", "--n", "32",
            "--k", "2"]
    proc = _cli_subprocess(argv, None)
    assert proc.returncode == 2
    assert proc.stderr == "error: y contains non-finite entries or its norm overflows\n"


def test_overflowing_norms_print_no_warning(tmp_path):
    # snr_db, L1Backend.support and the baselines' records took norms that
    # overflow, and numpy's RuntimeWarning reached stderr
    argv = ["recover", "--scenario", "dft-clustered", "--algorithm", "omp", "--n", "4", "--k",
            "1", "--m", "1", "--noise-norm", "1e154"]
    proc = _cli_subprocess(argv, tmp_path)
    assert proc.returncode == 0 and "snr_db=-inf" in proc.stdout
    assert proc.stderr == ""
    (tmp_path / "l1.cfg").write_text(
        "scenario = rescaled-identity\nn = 16\nk = 2\nm_grid = 8\ntrials = 2\n"
        "algorithms = sscosamp-l1, l1\nnoise_norm = 1e154\n", encoding="ascii")
    proc = _cli_subprocess(["sweep", "--config", "l1.cfg"], tmp_path)
    assert proc.returncode == 3
    assert proc.stderr == "numerical failure: 2 of 4 runs\n"


def test_sweep_with_an_unreachable_norm_bound_fails_every_row(tmp_path, capsys):
    # tikhonov_lsq cannot bracket a ridge parameter for a 1e-300 ball
    text = (SWEEP_CONFIG.replace("sscosamp-threshold", "sscosamp-threshold, cosamp")
            + "tikhonov_bound_factor = 1e-300\n")
    path = _write_config(tmp_path, text=text)
    assert main(["sweep", "--config", path]) == 3
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 4
    assert all(row.endswith(",nan,0,0,0.000,numerical_failure") for row in rows)
    assert captured.err == "numerical failure: 4 of 4 runs\n"


def test_sweep_k_0_exits_2_naming_the_key(tmp_path, capsys, monkeypatch):
    # it used to draw its instances and then fail with "snr_db undefined for
    # zero reference signal"
    def no_trials(*args):
        raise AssertionError("no trial may run")

    monkeypatch.setattr("sscosamp.bench.draw_instance", no_trials)
    path = _write_config(tmp_path, text=SWEEP_CONFIG.replace("k = 2", "k = 0")
                         .replace("sscosamp-threshold", "l1"))
    assert main(["sweep", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "k must be >= 1" in err
    assert "snr_db" not in err
