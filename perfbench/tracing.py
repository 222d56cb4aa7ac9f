"""Span tracing of calls into the sscosamp layers, installed from outside.

The package binds names with ``from .x import y``, so a wrapper only takes
effect where the caller looks the name up.  ``install_patches`` therefore
replaces each function in every module that calls it, and the backend
classes' ``support`` methods on the classes themselves.  Nothing in the
package is edited; ``Tracer.installed`` restores every original on exit.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``info`` holds what the call's
observer saw (an error type, an iteration count, a column count, ...).
Spans stay in memory until ``write_spans`` is called after the run.
"""

import contextlib
import json
import math
import time

import numpy as np

from sscosamp import analysis, bench, linalg, projections, recovery

# Backend class -> the algorithm-name suffix run_sweep uses for it.
_BACKEND_NAMES = {
    projections.ThresholdBackend: "threshold",
    projections.OMPBackend: "omp",
    projections.CoSaMPBackend: "cosamp",
    projections.L1Backend: "l1",
    projections.ExhaustiveBackend: "exhaustive",
}

# The recovery algorithms the workloads run.
RECOVERY_ALGORITHMS = ("sscosamp-threshold", "sscosamp-omp", "sscosamp-cosamp",
                       "cosamp", "omp")

# Pieces of instance drawing inside run_sweep; one instance ends with measure.
_INSTANCE_SPANS = ("model.draw_gaussian_sensing", "model.draw_coefficients",
                   "model.synthesize", "model.measure")

# Percentiles tried for a recovery timing tail, highest first.  One is
# reported only when at least TAIL_MIN_BEYOND samples lie above it.
TAIL_PERCENTILES = (99, 90, 75, 50)
TAIL_MIN_BEYOND = 10

# ||beta|| within this relative distance of the bound counts as "on" it.
BOUND_ACTIVE_RTOL = 1e-6


class Tracer:
    """Collects nested spans from wrapped calls in one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, observe=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a callable of ``(args, kwargs)``; ``observe``
        maps ``(args, kwargs, result)`` to the span's ``info``.  An exception
        is recorded as ``{"error": <type name>}`` and re-raised.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [label, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the package for the duration of the block."""
        saved = install_patches(self)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _sscosamp_name(args, kwargs):
    cfg = _arg(args, kwargs, 3, "cfg")
    return "recovery.sscosamp-" + _BACKEND_NAMES.get(type(cfg.identify_backend), "other")


def _observe_trace(args, kwargs, trace):
    return {"iterations": trace.iterations_run, "stop": trace.stop_reason}


def _observe_tikhonov(args, kwargs, beta):
    bound = float(_arg(args, kwargs, 3, "norm_bound"))
    active = math.isfinite(bound) and abs(float(np.linalg.norm(beta)) - bound) <= BOUND_ACTIVE_RTOL * bound
    return {"active": active}


def _observe_projector(args, kwargs, result):
    return {"cols": int(np.shape(_arg(args, kwargs, 0, "cols"))[1])}


def _observe_oracle(args, kwargs, result):
    z = np.asarray(_arg(args, kwargs, 1, "z"), dtype=np.complex128)
    return {"key": hash((z.tobytes(), int(_arg(args, kwargs, 2, "k"))))}


def install_patches(tracer):
    """Wrap every traced name where its callers look it up.

    Returns ``(owner, attr, original)`` triples for restoring.
    """
    wrapped = {}

    def once(fn, name, observe=None):
        # one wrapper per original, shared by every module that imports it
        if fn not in wrapped:
            wrapped[fn] = tracer.wrap(fn, name, observe)
        return wrapped[fn]

    targets = [
        # linalg
        ((linalg, recovery), "tikhonov_lsq", "linalg.tikhonov_lsq", _observe_tikhonov),
        ((recovery, projections, analysis), "build_projector", "linalg.build_projector",
         _observe_projector),
        # projections
        ((projections,), "basis_pursuit_denoise", "projections.basis_pursuit_denoise", None),
        ((projections,), "optimal_projection", "projections.optimal_projection", _observe_oracle),
        ((projections,), "evaluate_projection_quality",
         "projections.evaluate_projection_quality", None),
        ((projections.ThresholdBackend,), "support", "projections.threshold", None),
        ((projections.OMPBackend,), "support", "projections.omp", None),
        ((projections.CoSaMPBackend,), "support", "projections.cosamp", None),
        ((projections.L1Backend,), "support", "projections.l1", None),
        # recovery entry points, as run_sweep calls them
        ((bench,), "sscosamp", _sscosamp_name, _observe_trace),
        ((bench,), "cosamp_baseline", "recovery.cosamp", _observe_trace),
        ((bench,), "omp_baseline", "recovery.omp", _observe_trace),
        # analysis
        ((bench,), "snr_db", "analysis.snr_db", None),
        ((analysis,), "drip_exact", "analysis.drip_exact", None),
        ((analysis,), "mismatch", "analysis.mismatch", None),
        # model: dictionary builds and instance drawing inside run_sweep
        ((bench,), "build_overcomplete_dft", "model.build_dictionary", None),
        ((bench,), "build_rescaled_identity", "model.build_dictionary", None),
        ((bench,), "draw_gaussian_sensing", "model.draw_gaussian_sensing", None),
        ((bench.ScenarioSpec,), "draw_coefficients", "model.draw_coefficients", None),
        ((bench,), "synthesize", "model.synthesize", None),
        ((bench,), "measure", "model.measure", None),
        # bench
        ((bench,), "run_sweep", "bench.run_sweep", None),
    ]
    saved = []
    for owners, attr, name, observe in targets:
        for owner in owners:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, once(original, name, observe))
    return saved


def self_times(spans):
    """Per-span duration minus the time its direct child spans cover."""
    selfs = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def _tail(durations_ms):
    """(percentile, value) of the highest listed percentile with at least
    TAIL_MIN_BEYOND samples above it; (100, max) when none qualifies and
    (0, 0.0) without samples."""
    n = len(durations_ms)
    if not n:
        return 0, 0.0
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct, float(np.percentile(durations_ms, pct))
    return 100, float(max(durations_ms))


def layer_metrics(spans):
    """Per-layer metrics from a span list: ``{name: (value, unit)}``."""
    selfs = self_times(spans)
    by_name = {}
    for span, self_s in zip(spans, selfs):
        by_name.setdefault(span[0], []).append((span, self_s))

    def group(name):
        return by_name.get(name, [])

    def calls(name):
        return len(group(name))

    def self_total(name):
        return float(sum(s for _, s in group(name)))

    def share(name, predicate):
        rows = group(name)
        return sum(1 for span, _ in rows if predicate(span[4] or {})) / len(rows) if rows else 0.0

    out = {}
    for layer in ("projections.cosamp", "projections.omp", "projections.threshold",
                  "projections.l1", "projections.basis_pursuit_denoise",
                  "linalg.tikhonov_lsq", "linalg.build_projector",
                  "projections.optimal_projection", "analysis.drip_exact",
                  "analysis.mismatch"):
        out[f"{layer}.calls"] = (calls(layer), "count")
        out[f"{layer}.self_s"] = (self_total(layer), "s")
    for layer in ("projections.l1", "projections.basis_pursuit_denoise"):
        out[f"{layer}.failed_share"] = (share(layer, lambda info: "error" in info), "share")
    out["linalg.tikhonov_lsq.bound_active_share"] = (
        share("linalg.tikhonov_lsq", lambda info: info.get("active", False)), "share")
    cols = [span[4]["cols"] for span, _ in group("linalg.build_projector") if span[4]]
    out["linalg.build_projector.mean_cols"] = (float(np.mean(cols)) if cols else 0.0, "cols")
    keys = [span[4]["key"] for span, _ in group("projections.optimal_projection") if span[4]]
    out["projections.optimal_projection.distinct_share"] = (
        len(set(keys)) / len(keys) if keys else 0.0, "share")
    out["projections.evaluate_projection_quality.self_s"] = (
        self_total("projections.evaluate_projection_quality"), "s")
    out["analysis.snr_db.self_s"] = (self_total("analysis.snr_db"), "s")

    for alg in RECOVERY_ALGORITHMS:
        name = f"recovery.{alg}"
        rows = group(name)
        durations = [(span[2] - span[1]) * 1e3 for span, _ in rows]
        done = [span[4] for span, _ in rows if span[4] and "error" not in span[4]]
        pct, tail = _tail(durations)
        out[f"{name}.calls"] = (len(rows), "count")
        out[f"{name}.self_s"] = (self_total(name), "s")
        out[f"{name}.ms_p50"] = (float(np.median(durations)) if durations else 0.0, "ms")
        out[f"{name}.ms_tail"] = (tail, "ms")
        out[f"{name}.tail_pct"] = (pct, "pct")
        out[f"{name}.iterations_mean"] = (
            float(np.mean([d["iterations"] for d in done])) if done else 0.0, "iter")
        out[f"{name}.max_iters_share"] = (
            sum(d["stop"] == "max_iters" for d in done) / len(done) if done else 0.0, "share")

    out["model.instance.calls"] = (calls("model.measure"), "count")
    out["model.instance.self_s"] = (float(sum(self_total(n) for n in _INSTANCE_SPANS)), "s")
    out["bench.run_sweep.self_s"] = (self_total("bench.run_sweep"), "s")
    return out


def write_spans(spans, path):
    """Write spans as JSON lines: name, start, end (s), parent index, info."""
    with open(path, "w", encoding="ascii") as fh:
        for name, start, end, parent, info in spans:
            fh.write(json.dumps([name, start, end, parent, info]) + "\n")
