"""Benchmark for sscosamp: the acceptance gate's sweep traffic plus diagnostics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload separated --seed 2026 --seconds 30 --trace 0

One process, one client, closed loop: each operation starts when the
previous one has finished.  BLAS runs on one thread.  Throughput is scaled
to a reference machine speed, read by a probe between segments of the
timed work.  With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the spans are written under
``.perfbench-out/``.  The lines before it record the environment and every
metric with its unit.  See README.md.
"""

import os

# Pin BLAS before numpy loads; setup probes inherit the environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
READY = "ready"
# Time of the speed probe on the reference machine, a 2-core Intel Xeon VM
# (KVM, 2.1 GHz): trials_per_s is scaled to that speed.
PROBE_REF_S = 2.4e-3
PROBE_REPEATS = 3
PROBE_INTERVAL_S = 0.1  # least program time between two readings


# Import sscosamp from this checkout's sources, never from elsewhere.
if not (SRC / "sscosamp" / "__init__.py").is_file():
    sys.exit(f"perfbench: no sscosamp sources under {SRC}")
sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402
import sscosamp  # noqa: E402
from sscosamp import bench  # noqa: E402

if Path(sscosamp.__file__).resolve().parent != SRC / "sscosamp":
    sys.exit(f"perfbench: imported sscosamp from {sscosamp.__file__}, not {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2026,
                        help="input seed; 2026 is the acceptance gate's master_seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time the untraced passes take; a traced run times "
                             "one pass untraced and one traced, however long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def environment():
    """What the numbers depend on, recorded with every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def time_setup(args):
    """Median wall time of fresh processes from launch to the first timed
    operation: interpreter start, imports, inputs and warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != READY or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}, said {line!r})")
        times.append(elapsed)
    return statistics.median(times)


class SpeedProbe:
    """Fixed work outside sscosamp that reads how fast the machine runs now.

    The speed of this VM drifts by tens of percent over seconds, and the
    program slows with it.  The probe mixes the kinds of work the program
    spends its time on: a pure-Python loop, tiny complex QRs and a dense
    complex product.  Calling it returns the seconds it took: the sum over
    the three parts of the median of PROBE_REPEATS timings each.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.tiny = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
        self.dense = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self.readings = []

    def _loop(self):
        total = 0
        for i in range(8000):
            total += i * i % 7
        return total

    def _qrs(self):
        for _ in range(40):
            np.linalg.qr(self.tiny)

    def _product(self):
        for _ in range(4):
            self.dense @ self.dense

    def __call__(self):
        seconds = 0.0
        for part in (self._loop, self._qrs, self._product):
            times = []
            for _ in range(PROBE_REPEATS):
                start = time.perf_counter()
                part()
                times.append(time.perf_counter() - start)
            seconds += statistics.median(times)
        self.readings.append(seconds)
        return seconds


def timed_pass(workload, seed, units=None):
    start = time.perf_counter()
    result = workload.run_pass(seed, units)
    result.seconds = time.perf_counter() - start
    return result


class SpeedClock:
    """Times the program's work between readings of the speed probe.

    ``checkpoint`` is called between units and before each sweep instance.
    Once PROBE_INTERVAL_S has passed since the last reading, or when forced,
    it closes the segment of work since that reading: the segment's seconds
    go to ``seconds`` and, scaled by PROBE_REF_S over the mean of the
    readings before and after it, to ``ref_seconds``.  Probe time is in
    neither.
    """

    def __init__(self, probe):
        self.probe = probe
        self.seconds = self.ref_seconds = 0.0
        self.reading = probe()
        self.mark = time.perf_counter()

    def checkpoint(self, force=False):
        segment = time.perf_counter() - self.mark
        if segment < PROBE_INTERVAL_S and not force:
            return
        reading = self.probe()
        self.seconds += segment
        self.ref_seconds += segment * PROBE_REF_S / ((self.reading + reading) / 2.0)
        self.reading = reading
        self.mark = time.perf_counter()


@contextlib.contextmanager
def checkpoint_each_instance(clock):
    """Give the clock a checkpoint before ``run_sweep`` draws each instance,
    so that a long sweep unit is split into segments too."""
    original = bench.draw_gaussian_sensing

    def draw(*args, **kwargs):
        clock.checkpoint()
        return original(*args, **kwargs)

    bench.draw_gaussian_sensing = draw
    try:
        yield
    finally:
        bench.draw_gaussian_sensing = original


def timed_passes(workload, seed, seconds, probe):
    """Repeat whole passes while another fits in ``seconds`` (at least one).

    A pass's ``seconds`` and ``ref_seconds`` are the SpeedClock's, so the
    probe's own time is in neither.
    """
    clock = SpeedClock(probe)
    passes = []
    start = time.perf_counter()
    with checkpoint_each_instance(clock):
        while True:
            seconds_before, ref_before = clock.seconds, clock.ref_seconds
            result = workloads.PassResult()
            for unit in workload.units():
                result.add(workload.run_pass(seed, [unit]))
                clock.checkpoint()
            clock.checkpoint(force=True)
            result.seconds = clock.seconds - seconds_before
            result.ref_seconds = clock.ref_seconds - ref_before
            passes.append(result)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                return passes


def end_to_end(passes, setup_s):
    first = passes[0]
    completed = sum(p.attempted - p.failed for p in passes)
    return {
        "trials_per_s": (completed / sum(p.ref_seconds for p in passes), "1/s"),
        "success_rate": (first.successes / first.scored, "share"),
        "completed_share": (1.0 - first.failed / first.attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(workload, seed):
    """One untraced and one traced pass, interleaved unit by unit.

    Per-layer metrics therefore describe one pass, the same work on every
    commit.  Returns both passes, the spans and trace.overhead_share: the
    traced units' time over the same units' untraced time, minus 1.  Each
    unit runs untraced right before it runs traced, so the machine's speed
    drift between two whole passes stays out of the share.
    """
    plain, traced = workloads.PassResult(), workloads.PassResult()
    tracer = tracing.Tracer()
    for unit in workload.units():
        plain.add(timed_pass(workload, seed, [unit]))
        with tracer.installed():
            traced.add(timed_pass(workload, seed, [unit]))
    return [plain, traced], tracer.spans, traced.seconds / plain.seconds - 1.0


def per_layer(spans, dictionary_build_s, overhead_share):
    metrics = tracing.layer_metrics(spans)
    metrics["model.dictionary_build_s"] = (dictionary_build_s, "s")
    metrics["trace.overhead_share"] = (overhead_share, "share")
    return metrics


def report(metrics, passes, problems, env, extra=None):
    """Print the readable lines, then the result object as the last line."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_share {failed / attempted!r} share  (pass 1 failures by type: "
          f"{dict(passes[0].failures) or 'none'})")
    for line in extra or ():
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make_workload(args.workload, str(OUT_DIR))
    if args.setup_probe:
        workload.setup(args.seed)
        print(READY, flush=True)
        return 0

    env = environment()
    setup_s = None if args.trace else time_setup(args)
    workload.setup(args.seed)
    if args.trace:
        passes, spans, overhead = traced_run(workload, args.seed)
        metrics = per_layer(spans, workloads.dictionary_build_s(workload), overhead)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        tracing.write_spans(spans, f"{stem}.spans.jsonl")
        with open(f"{stem}.layers.json", "w", encoding="ascii") as fh:
            json.dump({"environment": env,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                      fh, indent=1, sort_keys=True)
        extra = [f"spans: {len(spans)} written to {stem}.spans.jsonl"]
    else:
        probe = SpeedProbe()
        passes = timed_passes(workload, args.seed, args.seconds, probe)
        metrics = end_to_end(passes, setup_s)
        seconds = sum(p.seconds for p in passes)
        completed = sum(p.attempted - p.failed for p in passes)
        extra = [f"passes {len(passes)}, operations per pass {passes[0].attempted}, "
                 f"timed {seconds:.3f} s, unscaled {completed / seconds!r} operations/s",
                 f"speed probe: {len(probe.readings)} readings, median "
                 f"{statistics.median(probe.readings)!r} s, reference {PROBE_REF_S!r} s"]
    problems = workload.check(passes, args.seed)
    report(metrics, passes, problems, env, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
