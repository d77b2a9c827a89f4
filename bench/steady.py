"""Steadiness check: repeat every workload over several seeds and report,
for each metric, the median, the quartiles and the quartile spread as a
share of the median, against the bounds in BENCHMARK.json.

  python3 bench/steady.py                      # 10 seeds x every workload
  python3 bench/steady.py --runs 5 --workloads ode-piecewise
  python3 bench/steady.py --sets 2             # two sets; compares their medians too

A spread must stay below a third of its bound (setup_s is exempt: its
bound applies only between sets).  With two sets, each metric's second
median must not be worse than the first by more than the bound.  Runs go
one at a time, workloads interleaved, seeds first-seed, first-seed + 1, ...
The summary is also written to .bench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, seed, seconds, trace):
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed_s"] = time.monotonic() - t0
    return res


def _summary(values, bound, better):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "bound": bound, "better": better, "values": values}


def _worse_by(first, second, better):
    """Relative worsening of the second median against the first."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="seeds per workload and set (>= 2)")
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown or args.runs < 2:
        p.error(f"unknown workloads {sorted(unknown)}" if unknown else "--runs must be >= 2")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sets, all_runs = [], []
    for s in range(args.sets):
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                res = _run(w, seed, args.seconds, 0)
                runs[w].append(res)
                vals = "  ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: correct={res['correct']} {vals}  "
                      f"error_rate={res['failed'] / res['attempted']:.4g}  ({res['elapsed_s']:.0f} s)",
                      flush=True)
        all_runs.append(runs)
        sets.append({w: {name: _summary([r["metrics"][name]["value"] for r in rs],
                                        m["bound"], m["better"])
                         for name, m in metrics.items()}
                     for w, rs in runs.items()})

    ok = True
    print(f"\n{'workload':15} {'metric':13} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound/3':>7}  verdict")
    for w in workloads:
        for name in metrics:
            for s, summary in enumerate(sets):
                st = summary[w][name]
                steady = name == "setup_s" or st["spread"] <= st["bound"] / 3
                ok &= steady
                print(f"{w:15} {name:13} {s + 1:>3} {st['median']:11.5g} {st['q1']:11.5g} "
                      f"{st['q3']:11.5g} {st['spread']:7.2%} {st['bound'] / 3:7.2%}  "
                      f"{'ok' if steady else 'TOO WIDE'}")
            if len(sets) == 2:
                a, b = sets[0][w][name], sets[1][w][name]
                worse = _worse_by(a["median"], b["median"], a["better"])
                ok &= worse <= a["bound"]
                print(f"{'':15} {'':13} set 2 vs 1: worse by {worse:+.2%} (bound {a['bound']:.0%})"
                      f"  {'ok' if worse <= a['bound'] else 'DRIFT'}")
    elapsed = [r["elapsed_s"] for runs in all_runs for rs in runs.values() for r in rs]
    n_runs = 4 + 22 * len(names)
    print(f"\nmean run {statistics.mean(elapsed):.1f} s, longest {max(elapsed):.1f} s; "
          f"at that mean, 4 + 22 runs per workload ({n_runs}) take about "
          f"{n_runs * statistics.mean(elapsed):.0f} s")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(sets, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
