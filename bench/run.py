"""Benchmark entry point: one workload, one seed, one run.

  python3 bench/run.py --workload small-matrix --seed 1 --seconds 15 --trace 0

Run from anywhere; the library is imported from ``src`` next to this
directory, so nothing needs installing.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json (set-up probes, then untraced timed
passes in a fresh process); with ``--trace 1`` it reports the per-layer
metrics from a traced run.  Human-readable lines come first; the last
stdout line is one JSON object {correct, attempted, failed, metrics}.  A
full report (environment, digests, checks) is written under .bench_out/.
Exits non-zero, printing no result, when the library cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_PINS)
    return env


def _worker(args, deadline):
    """Run worker.py in a fresh interpreter; returns its last-line JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(args[:3]))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=_child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args[:3])} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:3])} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _prepare(workload, seed, trace):
    if not (ROOT / "src" / "poscocycle" / "__init__.py").is_file():
        raise BenchError(f"library source not found under {ROOT / 'src'}")
    out = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "configs").mkdir(parents=True)
    for name, cfg in WORKLOADS[workload](seed).configs.items():
        (out / "configs" / f"{name}.json").write_text(json.dumps(cfg, indent=1))
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    spec = _spec()
    out = _prepare(args.workload, args.seed, args.trace)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out)]
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"]
    values = {}
    if args.trace:
        res = _worker(["run", *common, "--seconds", str(args.seconds), "--trace", "1"], deadline)
        values = res["metrics"]
        wanted = spec["per_layer"]
        if res["missing_targets"]:
            lines.append("trace targets not found (their counts read 0): " + ", ".join(res["missing_targets"]))
        lines.append(f"counts repeat exactly across {len(res['count_passes'])} traced passes: "
                     f"{res['counts_repeat']}")
    else:
        probes = [_worker(["setup", *common], deadline) for _ in range(SETUP_PROBES)]
        res = _worker(["run", *common, "--seconds", str(args.seconds), "--trace", "0"], deadline)
        walls = res["walls"]
        failed = len(res["failures"])
        values = {"wall_s": res["wall_s"],
                  "setup_s": statistics.median(p["setup_s"] for p in probes),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "success_rate": 1.0 - failed / res["attempted"]}
        wanted = spec["end_to_end"]
        q1, q3 = _quartiles(walls)
        lines.append(f"passes {len(walls)}: reference s per pass median {statistics.median(walls):.4f} "
                     f"(q1 {q1:.4f}, q3 {q3:.4f}); sum of per-call medians {values['wall_s']:.4f}; "
                     f"measured s per pass median {statistics.median(res['raw_walls']):.4f}; "
                     f"kernel median {res['kernel_ms']:.3f} ms")
        lines.append("setup probes, measured import + validate/build s (reference s per s): "
                     + ", ".join(f"{p['import_s']:.3f}+{p['validate_s']:.4f} ({p['scale']:.3f})"
                                 for p in probes))
        res["setup_probes"] = probes
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError("benchmark produced no value for " + ", ".join(missing))

    failed = len(res["failures"])
    correct = failed == 0 and res.get("counts_repeat", True)
    env = res["env"]
    lines.append("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for label, digest in sorted(res["digests"].items()):
        lines.append(f"digest {label}: {digest[:16]}")
    for c in res["checks"]:
        tag = ("PASS" if c["ok"] else "FAIL") + ("" if c["counted"] else " (diagnostic, not counted)")
        lines.append(f"check [{tag}] {c['label']}: {c['name']} = {c['value']:.3e} (limit {c['limit']:.3e})")
    for pass_no, label, why in res["failures"][:20]:
        lines.append(f"failed: pass {pass_no} {label}: {why}")
    lines.append(f"error_rate = {failed / res['attempted']:.6g} ({failed} of {res['attempted']} operations failed)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    res["metrics"] = values
    (out / "report.json").write_text(json.dumps(res, indent=1, sort_keys=True))
    lines.append(f"report: {out.relative_to(ROOT) / 'report.json'}")
    print("\n".join(lines))
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        measure(args)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
