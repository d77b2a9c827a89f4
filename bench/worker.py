"""One benchmark process: a set-up probe, or a workload's timed passes.

Started by run.py in a fresh interpreter with the BLAS pinned to one thread
and ``src`` on the path.  Prints one JSON object on its last stdout line.

  worker.py setup --workload W --out DIR
  worker.py run   --workload W --out DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import TORUS_BATTERY, WORKLOADS

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
# Import time follows the machine's speed only in part: over 55 probes,
# log(import time) against log(kernel time) had slope 0.49.
SETUP_SCALE_EXPONENT = 0.5


def _import_library():
    t0 = time.perf_counter()
    import poscocycle.cli  # noqa: F401  (the CLI's import graph, scipy.stats included)
    from poscocycle import config, pipelines, reporting, torus
    return (config, pipelines, reporting, torus), time.perf_counter() - t0


def _load_configs(config, workload, out):
    t0 = time.perf_counter()
    cfgs = {}
    for name in workload.configs:
        cfgs[name] = config.load_config(out / "configs" / f"{name}.json")
        config.build_model(cfgs[name])
        config.build_driver(cfgs[name])
    return cfgs, time.perf_counter() - t0


def setup(args):
    workload = WORKLOADS[args.workload](args.seed)
    (config, *_), import_s = _import_library()
    _, validate_s = _load_configs(config, workload, Path(args.out))
    import speed  # after the timed part: it imports numpy

    scale = speed.scale_now()
    print(json.dumps({"import_s": import_s, "validate_s": validate_s, "scale": scale,
                      "setup_s": (import_s + validate_s) * scale ** SETUP_SCALE_EXPONENT}))


def _non_finite(obj, path="results"):
    """First path holding a non-finite number (the writer spells them as strings)."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            bad = _non_finite(v, f"{path}.{k}")
            if bad:
                return bad
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            bad = _non_finite(v, f"{path}[{i}]")
            if bad:
                return bad
    elif obj in ("nan", "inf", "-inf") or (isinstance(obj, float) and not math.isfinite(obj)):
        return path
    return None


def _torus_doc(report):
    return {"results": {
        "rho": report.rho, "passed": report.passed,
        "items": [{"name": n, "passed": ok, "detail": d} for n, ok, d in report.items],
        "sigma_estimates": [float(s) for s in report.sigma_estimates],
        "direction_errors": [float(e) for e in report.direction_errors],
        "propagator_errors": [float(e) for e in report.propagator_errors],
        "divergence_means": [float(m) for m in report.divergence.means],
    }}


def _digest(doc):
    body = {k: v for k, v in doc.items() if k != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


class Runner:
    """Runs passes of one workload and checks every output."""

    def __init__(self, lib, workload, cfgs, out):
        self.config, self.pipelines, self.reporting, self.torus = lib
        self.workload, self.cfgs, self.out = workload, cfgs, out
        self.attempted = 0
        self.failures = []   # (pass index, op label, reason)
        self.digests = {}    # op label -> digest of its first pass
        self.checks = []     # checks of the first complete pass
        self.docs = {}       # result documents of that pass
        self.calls = []      # (pass index, op label, start, end), perf_counter seconds
        self.passes = 0

    def _call(self, op):
        if op.command == TORUS_BATTERY:
            return _torus_doc(self.torus.validate_against_closed_form(**op.kwargs))
        op_dir = self.out / "ops" / op.label
        self.pipelines.run_command(op.command, self.cfgs[op.config], out_dir=str(op_dir))
        doc = json.loads((op_dir / "results.json").read_text())
        self.reporting.validate_result(doc)
        return doc

    def run_pass(self):
        """One pass over the workload's ops; returns its summed call wall time."""
        wall, docs, failed = 0.0, {}, {}
        for op in self.workload.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                doc = self._call(op)
            except Exception as exc:  # noqa: BLE001 -- any failure counts against the op
                failed[op.label] = f"{type(exc).__name__}: {exc}"
                continue
            finally:
                t1 = time.perf_counter()
                wall += t1 - t0
                self.calls.append((self.passes, op.label, t0, t1))
            bad = _non_finite(doc["results"])
            digest = _digest(doc)
            if bad:
                failed[op.label] = f"non-finite value at {bad}"
            elif self.digests.setdefault(op.label, digest) != digest:
                failed[op.label] = "result differs from the first pass"
            docs[op.label] = doc
        if len(docs) == len(self.workload.ops):
            checks = self.workload.check(docs)
            for c in checks:
                if c.counted and not c.ok and c.label not in failed:
                    failed[c.label] = f"check {c.name}: {c.value:.3e} > {c.limit:.3e}"
            if not self.checks:
                self.checks = checks
                self.docs = docs
        self.failures += [(self.passes, label, why) for label, why in failed.items()]
        self.passes += 1
        return wall

    def scaled(self, sampler):
        """Per pass, each call's time in reference seconds."""
        out = [{} for _ in range(self.passes)]
        for pass_no, label, t0, t1 in self.calls:
            out[pass_no][label] = (t1 - t0) * sampler.scale(t0, t1)
        return out


def _environment(args):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": args.cpus_usable, "pinned_to_cpus": 1,
            "machine": platform.machine(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "seed": args.seed, "run_seconds": args.seconds}


def _end_to_end(runner, sampler, seconds):
    """Untraced passes for ``seconds`` (at least MIN_PASSES)."""
    raw = []
    t_end = time.perf_counter() + seconds
    while len(raw) < MIN_PASSES or time.perf_counter() < t_end:
        raw.append(runner.run_pass())
    per_pass = runner.scaled(sampler)
    # a pass built from each call's median over the run's passes
    labels = {label for calls in per_pass for label in calls}
    wall_s = sum(statistics.median(p[label] for p in per_pass if label in p) for label in labels)
    return {"wall_s": wall_s, "walls": [sum(p.values()) for p in per_pass], "raw_walls": raw,
            "kernel_ms": 1e3 * statistics.median(k for _, k in sampler.readings),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _layer_metrics(runner, sampler, seconds, import_s, validate_s):
    """Alternate untraced and traced passes (even and odd pass numbers),
    then one allocation pass."""
    import tracing

    tracer = tracing.Tracer()
    requested = sum(op.steps for op in runner.workload.ops)
    times, counts = [], []
    t_end = time.perf_counter() + seconds
    while runner.passes < 4 or time.perf_counter() < t_end:
        runner.run_pass()
        tracer.reset()
        tracer.install()
        try:
            wall = runner.run_pass()
        finally:
            tracer.uninstall()
        times.append(tracing.pass_times(tracer, wall))
        counts.append(tracing.pass_counts(tracer, requested))
    passes = [sum(p.values()) for p in runner.scaled(sampler)]
    peaks = []
    tracer.install_alloc(peaks)
    try:
        runner.run_pass()
    finally:
        tracer.uninstall()

    metrics = dict(counts[0])
    for name in times[0]:
        metrics[name] = statistics.median(t[name] for t in times)
    metrics["estimators.separation_alloc_peak_mb"] = max(peaks, default=0.0)
    base = statistics.median(passes[0::2])
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(passes[1::2]) - base) / base
    metrics["config.import_s"] = import_s
    metrics["config.validate_s"] = validate_s
    torus_docs = [runner.docs[op.label]["results"] for op in runner.workload.ops
                  if op.command == TORUS_BATTERY and op.label in runner.docs]
    metrics["torus.sigma_abs_err"] = max((abs(s - 2.0) for r in torus_docs for s in r["sigma_estimates"]),
                                         default=0.0)
    metrics["torus.w_err"] = max((e for r in torus_docs for e in r["direction_errors"]), default=0.0)
    # results.json carries its own wall time, so its byte count may differ by a digit
    exact = [{k: v for k, v in c.items() if k != "reporting.bytes_written"} for c in counts]
    return {"metrics": metrics, "counts_repeat": all(c == exact[0] for c in exact),
            "count_passes": counts, "missing_targets": tracer.missing}


def run(args):
    workload = WORKLOADS[args.workload](args.seed)
    out = Path(args.out)
    t0 = time.perf_counter()
    import scipy.stats  # noqa: F401  (timed alone: most of the library's import)
    scipy_import_s = time.perf_counter() - t0
    lib, import_s = _import_library()
    cfgs, validate_s = _load_configs(lib[0], workload, out)
    runner = Runner(lib, workload, cfgs, out)
    result = {"env": _environment(args)}
    import speed

    with speed.Sampler() as sampler:
        if args.trace:
            result.update(_layer_metrics(runner, sampler, args.seconds,
                                         scipy_import_s + import_s, validate_s))
            result["metrics"]["stats.scipy_import_s"] = scipy_import_s
        else:
            result.update(_end_to_end(runner, sampler, args.seconds))
    result.update(attempted=runner.attempted, failures=runner.failures,
                  digests=runner.digests,
                  checks=[{"label": c.label, "name": c.name, "value": c.value, "limit": c.limit,
                           "ok": c.ok, "counted": c.counted} for c in runner.checks])
    print(json.dumps(result))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    usable = sorted(os.sched_getaffinity(0))
    # one CPU for the whole process, so a call and the kernel readings
    # around it run on the same core
    os.sched_setaffinity(0, usable[:1])
    args.cpus_usable = len(usable)
    (setup if args.mode == "setup" else run)(args)


if __name__ == "__main__":
    sys.exit(main())
