"""Command-line interface.

Subcommands
-----------
sweep         Monte-Carlo m-sweep from a config file, writing long-format CSV.
project-eval  Measure backend projection quality (eps1/eps2) on small instances.
drip          Monte-Carlo isometry-constant estimate for a drawn instance.
recover       Run one recovery instance end-to-end and print the trace.
constants     Evaluate the convergence constants C1, C2 from flags.

Config files are flat ``key = value`` lines; ``#`` starts a comment.  Exit
codes: 0 success, 2 configuration/usage error or an output that cannot be
written, 3 numerical failure.  Every output file is opened (and created) before
the work starts.  On a numerical failure ``project-eval`` still writes the
rows scored before it.
"""

import argparse
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from .analysis import drip_estimate, snr_db, theorem1_constants
from .bench import (
    IDENTITY_SCALE,
    SCENARIOS,
    STOP_NUMERICAL_FAILURE,
    SweepConfig,
    build_dictionary,
    draw_instance,
    format_snr,
    open_output,
    run_algorithm,
    run_projection_study,
    run_sweep,
    trace_to_csv,
    write_aggregate_csv,
    write_quality_csv,
    write_sweep_csv,
)
from .errors import (
    InstanceTooLargeError,
    InvalidInputError,
    NumericalFailureError,
)
from .model import draw_gaussian_sensing

__all__ = ["main", "parse_config_file"]


def parse_config_file(path):
    """Read a flat key=value config file into a string-to-string dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InvalidInputError(f"cannot read config file {path}: {exc}") from exc
    entries = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise InvalidInputError(f"{path}:{lineno}: empty key or value")
        if key in entries:
            raise InvalidInputError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _csv_list(value):
    return tuple(item.strip() for item in value.split(",") if item.strip())


_SWEEP_KEYS = {f.name: f.type for f in fields(SweepConfig)} | {
    "m_grid": lambda v: tuple(int(x) for x in _csv_list(v)),
    "algorithms": _csv_list,
}


def build_sweep_config(entries, seed_override=None):
    """Convert parsed config entries into a SweepConfig."""
    unknown = sorted(set(entries) - set(_SWEEP_KEYS))
    if unknown:
        raise InvalidInputError(f"unknown config keys: {', '.join(unknown)}")
    if "scenario" not in entries:
        raise InvalidInputError("config must set 'scenario'")
    kwargs = {}
    for key, value in entries.items():
        try:
            kwargs[key] = _SWEEP_KEYS[key](value)
        except ValueError as exc:
            raise InvalidInputError(f"config key {key!r}: {exc}") from exc
    if seed_override is not None:
        kwargs["master_seed"] = seed_override
    return SweepConfig(**kwargs)


def _cmd_sweep(args):
    entries = parse_config_file(args.config)
    cfg = build_sweep_config(entries, seed_override=args.seed)
    result = run_sweep(cfg)
    if args.format == "json":
        payload = [
            {**asdict(r), "snr_db": format_snr(r.snr_db), "success": int(r.success),
             "wall_ms": round(r.wall_ms, 3) if args.timing else 0.0}
            for r in result.rows
        ]
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        write_sweep_csv(result, args.out, include_timing=args.timing)
    if args.aggregate_out:
        write_aggregate_csv(result, args.aggregate_out, include_timing=args.timing)
    failed = sum(r.stop_reason == STOP_NUMERICAL_FAILURE for r in result.rows)
    if failed:
        print(f"numerical failure: {failed} of {len(result.rows)} runs", file=sys.stderr)
        return 3
    return 0


def _write_text(path, text):
    with open_output(path) as fh:
        fh.write(text)


def _cmd_project_eval(args):
    dictionary = build_dictionary(args.dict, args.n, args.redundancy, args.scale)
    try:
        rows = run_projection_study(
            dictionary,
            args.k,
            patterns=_csv_list(args.patterns),
            backends=_csv_list(args.backends),
            trials=args.trials,
            seed=args.seed,
            perturbation_rel=args.perturbation,
        )
    except NumericalFailureError as exc:
        # keep the rows scored before the failure; main reports it and exits 3
        write_quality_csv(exc.rows, args.out)
        raise
    write_quality_csv(rows, args.out)
    return 0


def _cmd_drip(args):
    if args.seed < 0:
        raise InvalidInputError(f"--seed must be >= 0, got {args.seed}")
    root = np.random.SeedSequence(args.seed)
    seed_a, seed_trials = root.spawn(2)
    dictionary = build_dictionary(args.dict, args.n, args.redundancy, args.scale)
    A = draw_gaussian_sensing(args.m, args.n, seed_a)
    est = drip_estimate(A, dictionary, args.k, args.trials, seed_trials)
    payload = {
        "order_k": est.order_k,
        "delta_lower": round(est.delta_lower, 12),
        "trials": est.trials,
        "is_valid_rip": est.is_valid_rip,
        "m": args.m,
        "n": args.n,
        "d": dictionary.d,
    }
    if args.format == "json":
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"{key},{payload[key]}" for key in sorted(payload)]
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_recover(args):
    cfg = SweepConfig(
        scenario=args.scenario, n=args.n, k=args.k, m_grid=(args.m,), trials=1,
        algorithms=(args.algorithm,), noise_norm=args.noise_norm,
        master_seed=args.seed, max_iters=args.max_iters,
    )
    dictionary = SCENARIOS[cfg.scenario].build_dictionary(cfg.n)
    A, x, meas, norm_bound, _ = draw_instance(cfg, dictionary, args.m, 0)
    trace = run_algorithm(args.algorithm, A, dictionary, meas, cfg.k, norm_bound, cfg.max_iters)
    out = [f"algorithm={trace.algorithm} m={args.m} n={args.n} k={args.k}"]
    out.append("iter,residual_norm,support")
    for rec in trace.records:
        support = ";".join(str(i) for i in rec.pruned_support)
        out.append(f"{rec.iteration},{rec.residual_norm:.12e},{support}")
    out.append(
        f"stop_reason={trace.stop_reason} iterations={trace.iterations_run} "
        f"snr_db={format_snr(snr_db(x, trace.x_hat))}"
    )
    _write_text(None, "\n".join(out) + "\n")
    if args.out:
        trace_to_csv(trace, args.out, x_true=x)
    return 0


def _cmd_constants(args):
    consts = theorem1_constants(args.delta, args.eps1, args.eps2)
    if args.format == "json":
        payload = {**asdict(consts), "is_contractive": consts.is_contractive}
        payload = {key: value if np.isfinite(value) else format_snr(value)  # JSON has no inf
                   for key, value in payload.items()}
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _write_text(
            args.out,
            f"C1 = {consts.C1:.10f}\nC2 = {consts.C2:.10f}\n"
            f"contractive = {consts.is_contractive}\n",
        )
    return 0


def _add_dictionary_flags(parser):
    parser.add_argument("--dict", default="dft", choices=["dft", "rescaled-identity"],
                        help="dictionary family")
    parser.add_argument("--n", type=int, default=16, help="signal length")
    parser.add_argument("--redundancy", type=int, default=2,
                        help="dictionary redundancy factor (dft)")
    parser.add_argument("--scale", type=float, default=IDENTITY_SCALE,
                        help="large-column scale (rescaled-identity)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sscosamp",
        description="Sparse recovery in redundant dictionaries: benchmarks and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo m-sweep from a config file")
    p_sweep.add_argument("--config", required=True, help="flat key=value config file")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="override the config's master_seed")
    p_sweep.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p_sweep.add_argument("--aggregate-out", default=None,
                         help="also write per-(algorithm, m) summaries here")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--timing", action="store_true",
                         help="emit measured wall times (breaks byte-reproducibility)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_proj = sub.add_parser("project-eval",
                            help="measure backend projection quality on small instances")
    _add_dictionary_flags(p_proj)
    p_proj.add_argument("--k", type=int, default=2, help="projection sparsity")
    p_proj.add_argument("--patterns", default="separated,clustered",
                        help="comma-separated support patterns")
    p_proj.add_argument("--backends", default="threshold,omp,cosamp,l1",
                        help="comma-separated backend names")
    p_proj.add_argument("--trials", type=int, default=20)
    p_proj.add_argument("--seed", type=int, default=0)
    p_proj.add_argument("--perturbation", type=float, default=0.1,
                        help="relative off-model perturbation of test vectors")
    p_proj.add_argument("--out", default="-")
    p_proj.set_defaults(func=_cmd_project_eval)

    p_drip = sub.add_parser("drip", help="estimate an isometry constant by sampling")
    _add_dictionary_flags(p_drip)
    p_drip.add_argument("--m", type=int, required=True, help="number of measurements")
    p_drip.add_argument("--k", type=int, default=8, help="isometry order")
    p_drip.add_argument("--trials", type=int, default=1000)
    p_drip.add_argument("--seed", type=int, default=0)
    p_drip.add_argument("--out", default="-")
    p_drip.add_argument("--format", choices=["csv", "json"], default="csv")
    p_drip.set_defaults(func=_cmd_drip)

    p_rec = sub.add_parser("recover", help="run one instance and print the trace")
    p_rec.add_argument("--scenario", default="dft-separated",
                       help=f"one of {sorted(SCENARIOS)}")
    p_rec.add_argument("--algorithm", default="sscosamp-omp")
    p_rec.add_argument("--n", type=int, default=64)
    p_rec.add_argument("--k", type=int, default=4)
    p_rec.add_argument("--m", type=int, required=True)
    p_rec.add_argument("--noise-norm", type=float, default=0.0, dest="noise_norm")
    p_rec.add_argument("--max-iters", type=int, default=0, dest="max_iters",
                       help="0 uses the scenario default")
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--out", default=None, help="also write the trace CSV here")
    p_rec.set_defaults(func=_cmd_recover)

    p_const = sub.add_parser("constants", help="evaluate the convergence constants")
    p_const.add_argument("--delta", type=float, required=True,
                         help="isometry constant of order 4k")
    p_const.add_argument("--eps1", type=float, default=0.0)
    p_const.add_argument("--eps2", type=float, default=0.0)
    p_const.add_argument("--out", default="-")
    p_const.add_argument("--format", choices=["text", "json"], default="text")
    p_const.set_defaults(func=_cmd_constants)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for path in (args.out, getattr(args, "aggregate_out", None)):
            if path not in (None, "-"):
                open(path, "a").close()
        return args.func(args)
    except (InvalidInputError, InstanceTooLargeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        facts = [f"iteration {exc.iteration}"] if exc.iteration is not None else []
        facts += [f"{key}={value}" for key, value in sorted(exc.diagnostics.items())]
        detail = f" ({'; '.join(facts)})" if facts else ""
        print(f"numerical failure: {exc}{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
