"""Traced runs: wrap each layer's public functions from outside the library,
keep spans in memory, and turn one pass's spans and counts into the
per-layer metrics.

A span is [name, start, end, parent index]; a layer's self time is the sum
of its spans' durations minus the durations of their direct children.
Functions are wrapped under the name each caller looks them up by
(``pipelines`` and ``estimators`` import by name), so one call makes one
span.  Hot leaf callables (driver advances, field evaluations, cocycle
steps) are counted, not timed.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import Counter

ESTIMATOR_FNS = ("forward_floquet", "warmup_direction", "separation_estimate",
                 "oseledets_qr", "backward_entire_orbit", "lambda1_via_kappa")
# warmup_direction's steps are taken inside its forward_floquet call
STEPPED_FNS = tuple(fn for fn in ESTIMATOR_FNS if fn != "warmup_direction")
REPORTING_FNS = ("write_result", "write_series", "emit_plot_data")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Spans, counts and peaks of one traced pass; ``install`` patches the
    library in place and ``uninstall`` restores every original."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.peaks = Counter()
        self.missing = []
        self._open = []
        self._saved = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.peaks.clear()

    # -- wrappers ------------------------------------------------------------

    def timed(self, name, fn, after=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _piece_field(self, fn):
        counts, field_eval = self.counts, self.counted

        def wrapper(*args, **kwargs):
            counts["odes.pieces"] += 1
            return field_eval("odes.field_evals", fn(*args, **kwargs))

        return wrapper

    def _step(self, fn):
        spans, open_, counts = self.spans, self._open, self.counts

        def wrapper(*args, **kwargs):
            for idx in reversed(open_):
                if spans[idx][0].startswith("estimators."):
                    counts["steps:" + spans[idx][0]] += 1
                    break
            return fn(*args, **kwargs)

        return wrapper

    def _cache_len(self, args, _out):
        cache = getattr(args[0], "_cache", None)
        if cache is not None:
            self.peaks["drivers.markov_cache_len"] = max(
                self.peaks["drivers.markov_cache_len"], len(cache))

    def _bytes(self, args, _out):
        self.counts["reporting.bytes_written"] += os.path.getsize(args[-1])  # the path is the last argument

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        from poscocycle import drivers, estimators, matrices, odes, pipelines, torus

        self.missing.clear()
        span = lambda name, after=None: (lambda fn: self.timed(name, fn, after))  # noqa: E731
        self._patch(pipelines, "run_command", span("pipelines"))
        self._patch(torus, "validate_against_closed_form", span("torus.validate"))
        for fn in ESTIMATOR_FNS + ("pullback_convergence",):
            self._patch(pipelines, fn, span(f"estimators.{fn}"))
        for fn in ("forward_floquet", "warmup_direction", "backward_entire_orbit"):
            self._patch(estimators, fn, span(f"estimators.{fn}"))
        for fn in ("warmup_direction", "separation_estimate"):
            self._patch(torus, fn, span(f"estimators.{fn}"))
        self._patch(estimators, "propagate", span("odes.propagate"))
        self._patch(odes, "propagate", span("odes.propagate"))
        self._patch(pipelines, "batch_means", span("stats.batch_means"))
        self._patch(estimators, "batch_means", span("stats.batch_means"))
        for fn in REPORTING_FNS:
            self._patch(pipelines, fn, span(f"reporting.{fn}", self._bytes))
        self._patch(drivers, "_prf", span("drivers.rng"))
        self._patch(drivers.MarkovShift, "chain_state", span("drivers.chain_state", self._cache_len))
        for cls in _subclasses(matrices.MatrixModel):
            if "emit" in vars(cls) and cls is not matrices.MatrixModel:
                self._patch(cls, "emit", span("matrices.emit"))
        for name in ("IidShift", "MarkovShift", "TorusRotation"):
            self._patch(getattr(drivers, name), "advance",
                        lambda fn: self.counted("drivers.advance", fn))
        for cls in _subclasses(odes.OdeModel):
            if "piece_field" in vars(cls):
                self._patch(cls, "piece_field", self._piece_field)
        for cls in (estimators.MatrixCocycle, estimators.OdeCocycle):
            for attr in ("step", "step_matrix"):
                self._patch(cls, attr, self._step)

    def install_alloc(self, peaks: list):
        """Patch separation_estimate alone so each call appends its
        tracemalloc peak (MB) to ``peaks``; used in a pass of its own."""
        from poscocycle import pipelines, torus

        def make(fn):
            def wrapper(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()

            return wrapper

        for owner in (pipelines, torus):
            self._patch(owner, "separation_estimate", make)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> Counter:
        out = Counter()
        spans = self.spans
        for name, start, end, parent in spans:
            out[name] += end - start
            if parent >= 0:
                out[spans[parent][0]] -= end - start
        return out

    def span_stats(self):
        """(calls, inclusive seconds) per span name."""
        calls, total = Counter(), Counter()
        for name, start, end, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
        return calls, total


def pass_counts(tracer: Tracer, requested_steps: int) -> dict:
    """Exact per-pass counts; these must repeat across passes on one input.
    ``requested_steps`` is the horizon steps the pass's calls asked for."""
    calls, _ = tracer.span_stats()
    c = tracer.counts
    out = {
        "drivers.rng_calls": calls["drivers.rng"],
        "drivers.advance_calls": c["drivers.advance"],
        "drivers.chain_state_calls": calls["drivers.chain_state"],
        "drivers.markov_cache_len": tracer.peaks["drivers.markov_cache_len"],
        "matrices.emit_calls": calls["matrices.emit"],
        "odes.propagate_calls": calls["odes.propagate"],
        "odes.pieces": c["odes.pieces"],
        "odes.field_evals": c["odes.field_evals"],
        "reporting.bytes_written": c["reporting.bytes_written"],
        "trace.spans": len(tracer.spans),
    }
    out["matrices.emits_per_step"] = (out["matrices.emit_calls"] / requested_steps
                                      if out["matrices.emit_calls"] else 0.0)
    out["odes.field_evals_per_step"] = (out["odes.field_evals"] / out["odes.propagate_calls"]
                                        if out["odes.propagate_calls"] else 0.0)
    for fn in ESTIMATOR_FNS:
        out[f"estimators.{fn}_calls"] = calls[f"estimators.{fn}"]
    for fn in STEPPED_FNS:
        out[f"estimators.{fn}_steps"] = c[f"steps:estimators.{fn}"]
    return out


# span name -> per-layer metric holding its self time as a share of the pass
SELF_PCT = {
    "drivers.rng": "drivers.rng_self_pct",
    "drivers.chain_state": "drivers.chain_state_self_pct",
    "matrices.emit": "matrices.emit_self_pct",
    "odes.propagate": "odes.propagate_self_pct",
    "torus.validate": "torus.validate_self_pct",
    "stats.batch_means": "stats.batch_means_self_pct",
    "pipelines": "pipelines.self_pct",
    **{f"estimators.{fn}": f"estimators.{fn}_self_pct" for fn in ESTIMATOR_FNS},
    **{f"reporting.{fn}": f"reporting.{fn}_self_pct" for fn in REPORTING_FNS},
}


def pass_times(tracer: Tracer, pass_wall: float) -> dict:
    """Timed per-layer values of one traced pass."""
    selfs = tracer.self_times()
    calls, total = tracer.span_stats()
    out = {metric: 100.0 * selfs[name] / pass_wall for name, metric in SELF_PCT.items()}
    out["drivers.rng_us"] = 1e6 * total["drivers.rng"] / calls["drivers.rng"] if calls["drivers.rng"] else 0.0
    return out

