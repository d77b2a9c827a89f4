"""CPU time per step of the estimator loops, best of 5 runs of 2000 steps.

  python3 tools/step_cost.py                 # this checkout
  python3 tools/step_cost.py --src OTHER/src # another checkout, for before/after pairs
  python3 tools/step_cost.py --peak          # tracemalloc peaks of separation instead

Each matrix loop runs on a fresh uniform-entries cocycle (entries in
[0.5, 2)) on a discrete i.i.d. shift, so block emission is included.
"forward x2" walks two probes as one (N, 2) block; compare it with two
one-probe "forward" steps.  "forward x2 rec" is that walk with a history
row at every step, as ``estimate`` walks its warmed and raw probes.
"adjoint" is ``_adjoint_sweep`` alone, the dual walk of "separation": its
warm-up over the 50 steps past the horizon, then the walk back to step 0
that carries the complement frame, so "separation" less "adjoint" is the
principal warm-up and walk.  The "ode" rows are forward steps of the
piecewise-constant cooperative ODE (N = 3, diagonal in [-1, 0.5),
off-diagonal in [0, 1), unit cells) at dt = 0.1 on a continuous i.i.d.
shift, with one probe and with two; "ode qr" is ``oseledets_qr`` and
"ode sep" ``separation_estimate`` (warm-up 50) on the same ODE; "ode
cfg" and "ode sep cfg" are those loops on the model that
``config.build_model`` makes for the ``ode-piecewise-uniform`` kind with
the same ranges, whose cells come in block draws.  The "ode read" rows
time one read of 2000 flow maps through ``OdeCocycle.step_blocks``, the
layer that a separation reading its maps afresh would pay twice where the
store pays once, forward from the base point and backward to it, in us per
map, on each of the two ODE models.  Those reads start at an integer
position, where dt puts two step ends in ten within ``odes._NEAR`` dt of a
cell edge, for ``OdeModel.inner_breaks`` to judge; "ode read off" and "ode
read cfg off" read the two models from position 0.37, where no step end
comes that near an edge, so each pair differs by what that judgement costs
and by the one step a cell that crosses an edge there.  A chunk is walked
in step order whichever way a read goes, so on the user sampler's model,
whose memo holds one cell, a backward read draws each cell once, as a
forward read does, save one more draw at each chunk cut inside a cell;
the "ode read off" rows show it.  "kappa" and "kappa
cfg" time one ``lambda1_via_kappa`` over the 2000 step directions of a
forward walk (taken untimed), on each of the two ODE models.  The
"output" rows time one whole ``estimate`` through ``run_command`` (the
same uniform-entries model at N = 3, seed 1, T = 2000, files written
included), with ``output.series`` on and off, in ms per run.  The "write"
rows time ``format_result`` alone, the text of one results.json, in ms: on
that series-on estimate document (a 2000-row history) and on an ``orbit``
document of depth 1000 over a three-state Markov chain (1001 directions).
The "check" rows time one whole ``check`` through ``run_command`` (seed 1,
files written included), in ms per run: uniform entries in [0.5, 2) at
N = 3 (100 samples) and N = 24 (1000 samples), random Leslie rates at
N = 3 with lag 3 (300 samples), and the piecewise-constant ODE above
(300 base points).
The "torus"
rows time the DOP853 layer on the torus oracle's smooth pieces: a read of
512 flow maps at the battery's dt = 0.25 from its first base point, in us
per map, at rtol 1e-6 and 1e-10 (DOP853 integrates a chunk's maps as one
batch), and the battery's propagator item at that base point: one batched
``integrate`` over its eight horizons 1.25, ..., 10 at rtol 1e-10, in ms.
"torus sep read" is the read of the battery's separation item at that base
point, the maps of steps [-200, 400) at rtol 1e-6 through
``OdeCocycle.step_blocks``, in us per map and in DOP853 batch steps (the
runs of ``_dop853``'s ``step += 1`` line, counted in an untimed traced
read), which depend on where the chunk cuts fall unless the read is one
DOP853 stream.  "torus battery" is one whole
``validate_against_closed_form(seed=0, n_omegas=1)``, the benchmark's
torus pass, in ms and in DOP853 batch steps, counted as above; "torus
battery x5" is the same at the CLI default of five base points, whose
warm-up and separation reads are one stream, one read after another, with
at most two windows per read in flight.  "torus kappa" is the
battery's exact means at the first base point, ``kappa_mean_exact`` at
the horizons 125, 250, 500 and 1000, in ms: one call with the sequence of
horizons, or one call per horizon on a checkout whose
``kappa_mean_exact`` takes one.
The "expm" rows time ``odes.expm`` on matrices 0.1 A, A a cell of the
piecewise-constant ODE above (the exponent of one dt-step), in us per
matrix: one matrix per call, and stacks of 26, about the new constant
pieces of one chunk of 256 steps.  The "cold estimate" row runs the CLI
``estimate`` on the ode-piecewise-uniform config above (seed 1, T = 100,
dt = 0.1) in a fresh process, as a user runs it: on every CPU of this
process's start and with BLAS threads left at their default; it prints
the fastest and slowest wall time of 5 runs, in s, and the largest peak
resident set of the child, in MB.
The process pins itself to one CPU and BLAS to one thread; alternate the
checkouts and take each one's range, since the CPU speed of a shared
machine drifts.

With ``--peak`` it prints instead the ``tracemalloc`` peak of one
``separation_estimate`` run (warm-up 50) at 2000 and at 8000 steps, in
bytes, after an untraced run has done the first run's lazy imports: the
"separation" rows on the uniform-entries cocycles, the "ode sep" row on
the N = 3 piecewise-constant ODE above.  A matrix peak holds fixed-size
chunk buffers and no per-step state, so it does not grow with the
horizon; the ODE's replay stores its flow maps, one N x N map and a log
scale per step, so its peak grows with the horizon by that much.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
USER_ENV = {k: v for k, v in os.environ.items() if k not in THREADS}  # BLAS threads at their default
for var in THREADS:
    os.environ[var] = "1"

HORIZON = 2000  # steps per run
DEPTH = 1000  # pullback depth of the orbit document
MARKOV = {"driver": {"kind": "markov-shift",
                     "transition": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]},
          "model": {"kind": "markov-list",
                    "matrices": [[[1.2, 0.4, 0.9], [0.3, 1.5, 0.6], [0.8, 0.2, 1.1]],
                                 [[0.5, 1.3, 0.2], [1.0, 0.7, 1.4], [0.6, 0.9, 0.3]],
                                 [[1.8, 0.2, 0.5], [0.4, 0.9, 1.2], [0.7, 1.6, 0.4]]]}}
CHECKS = {
    "N=3": ({"kind": "uniform-entries", "n": 3, "lo": 0.5, "hi": 2.0}, {}),
    "N=24": ({"kind": "uniform-entries", "n": 24, "lo": 0.5, "hi": 2.0}, {"n_samples": 1000}),
    "leslie": ({"kind": "leslie", "n": 3, "m": {"dist": "uniform", "lo": 0.3, "hi": 1.8},
                "b": {"dist": "uniform", "lo": 0.4, "hi": 0.95}}, {"n_samples": 300, "lag": 3}),
    "ode": ({"kind": "ode-piecewise-uniform", "n": 3, "diag": [-1.0, 0.5], "offdiag": [0.0, 1.0]},
            {"n_samples": 300}),
}
TORUS_MAPS = 512  # flow maps per torus read
DIVERGENCE_HORIZONS = (125.0, 250.0, 500.0, 1000.0)  # the torus battery's default
SEP_READ = (-200, 400)  # the torus battery's separation maps: its 200 steps and a 200-step warm-up each side
STACK = 26  # matrices per stacked expm call: about the new constant pieces of one 256-step chunk
COLD = ["-c", "import resource, sys; from poscocycle.cli import main; code = main(sys.argv[1:]); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)"]
REPEATS = 5  # runs per loop and size; the fastest is kept


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    p.add_argument("--peak", action="store_true",
                   help="print the tracemalloc peak bytes of separation_estimate at two horizons, "
                        "matrix and ODE")
    args = p.parse_args(argv)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    if cpus:
        os.sched_setaffinity(0, {min(cpus)})
    sys.path.insert(0, args.src)
    import numpy as np
    from poscocycle.config import build_model, validate_config
    from poscocycle.drivers import IidShift, TorusRotation
    from poscocycle.estimators import (MatrixCocycle, OdeCocycle, _adjoint_sweep, forward_floquet,
                                       lambda1_via_kappa, oseledets_qr, separation_estimate)
    from poscocycle.matrices import UniformEntriesModel
    from poscocycle.odes import PiecewiseConstantOdeModel, cooperative_sampler, expm, integrate
    from poscocycle.pipelines import run_command
    from poscocycle.reporting import format_result
    from poscocycle.torus import TorusExampleModel, validate_against_closed_form

    def matrix(n):
        return MatrixCocycle(UniformEntriesModel(n, 0.5, 2.0)), IidShift().initial(1)

    def ode(n):
        model = PiecewiseConstantOdeModel(n, cooperative_sampler(n, -1.0, 0.5, 0.0, 1.0))
        return OdeCocycle(model, dt=0.1), IidShift(time="continuous").initial(1)

    def ode_cfg(n):
        _, model = build_model({"model": dict(CHECKS["ode"][0], n=n)})
        return OdeCocycle(model, dt=0.1), IidShift(time="continuous").initial(1)

    def ode_off(n):
        coc, omega = ode(n)
        return coc, omega.advance(0.37)

    def ode_cfg_off(n):
        coc, omega = ode_cfg(n)
        return coc, omega.advance(0.37)

    T = HORIZON
    if args.peak:
        for name, make, n in (("separation", matrix, 3), ("separation", matrix, 24), ("ode sep", ode, 3)):
            coc, omega = make(n)
            separation_estimate(coc, omega, T * coc.dt, warmup=50)
            for steps in (T, 4 * T):
                tracemalloc.start()
                separation_estimate(coc, omega, steps * coc.dt, warmup=50)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                print(f"{name:<10} N={n:<3} T={steps:<5} {peak:9d} peak bytes")
        return

    def forward(k, every=0):
        def run(coc, om):
            forward_floquet(coc, om, np.ones((coc.n, k)) if k > 1 else np.ones(coc.n), T * coc.dt,
                            record_every=every)
        return run

    loops = [
        ("forward", matrix, forward(1), (3, 24)),
        ("forward x2", matrix, forward(2), (3, 24)),
        ("forward x2 rec", matrix, forward(2, every=1), (3, 24)),
        ("qr", matrix, lambda coc, om: oseledets_qr(coc, om, T), (3, 24)),
        ("separation", matrix, lambda coc, om: separation_estimate(coc, om, T, warmup=50), (3, 24)),
        ("adjoint", matrix, lambda coc, om: _adjoint_sweep(coc, coc.replay(om, 0, T + 50), T, 50, 0), (3, 24)),
        ("ode", ode, forward(1), (3,)),
        ("ode x2", ode, forward(2), (3,)),
        ("ode qr", ode, lambda coc, om: oseledets_qr(coc, om, T * coc.dt), (3,)),
        ("ode sep", ode, lambda coc, om: separation_estimate(coc, om, T * coc.dt, warmup=50), (3,)),
        ("ode cfg", ode_cfg, forward(1), (3,)),
        ("ode sep cfg", ode_cfg, lambda coc, om: separation_estimate(coc, om, T * coc.dt, warmup=50), (3,)),
    ]
    for name, make in (("kappa", ode), ("kappa cfg", ode_cfg)):
        coc, omega = make(3)
        directions = np.vstack([np.ones(3), forward_floquet(coc, omega, np.ones(3), T * coc.dt,
                                                            record_every=1).directions])
        loops.append((name, make, lambda coc, om, d=directions: lambda1_via_kappa(coc, om, d), (3,)))
    for name, make in (("ode read", ode), ("ode read off", ode_off), ("ode read cfg", ode_cfg),
                       ("ode read cfg off", ode_cfg_off)):
        for backward in (False, True):
            loops.append((f"{name} {'bwd' if backward else 'fwd'}", make,
                          lambda coc, om, b=backward, lo=-T * backward:
                          sum(len(maps) for maps, _ in coc.step_blocks(om, lo, lo + T, b)), (3,)))
    for name, make, run, sizes in loops:
        for n in sizes:
            best = float("inf")
            for _ in range(REPEATS):
                coc, omega = make(n)
                t0 = time.process_time()
                run(coc, omega)
                best = min(best, time.process_time() - t0)
            print(f"{name:<20} N={n:<3} {1e6 * best / T:7.1f} us/{'map' if name.startswith('ode read') else 'step'}")

    def best_of(run):
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.process_time()
            run()
            best = min(best, time.process_time() - t0)
        return best

    with tempfile.TemporaryDirectory() as out:
        for series in (True, False):
            cfg = validate_config({"seed": 1, "model": {"kind": "uniform-entries", "n": 3, "lo": 0.5, "hi": 2.0},
                                   "estimator": {"horizon": T}, "output": {"series": series}})
            best = best_of(lambda: run_command("estimate", cfg, out_dir=out))
            print(f"output     series {'on ' if series else 'off'} {1e3 * best:7.1f} ms/estimate")
            if series:
                docs = {"estimate": run_command("estimate", cfg, out_dir=out)}
        cfg = validate_config({"seed": 1, **MARKOV, "estimator": {"depth": DEPTH}})
        docs["orbit"] = run_command("orbit", cfg, out_dir=out)
        for name, (model, est) in CHECKS.items():
            cfg = validate_config({"seed": 1, "model": model, "estimator": est})
            best = best_of(lambda: run_command("check", cfg, out_dir=out))
            print(f"check      {name:<10} {1e3 * best:7.1f} ms")
    for name, doc in docs.items():
        best = best_of(lambda: format_result(doc))
        print(f"write      {name:<10} {1e3 * best:7.2f} ms")

    sample, rng = cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0), np.random.default_rng(1)
    cells = 0.1 * np.stack([sample(rng) for _ in range(T // STACK * STACK)])
    for size in (1, STACK):
        best = best_of(lambda: [expm(cells[i:i + size]) for i in range(0, len(cells), size)])
        print(f"expm       stack {size:<4} {1e6 * best / len(cells):7.1f} us/matrix")
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "ode.json"
        config.write_text(json.dumps({"seed": 1, "model": CHECKS["ode"][0],
                                      "estimator": {"horizon": 100.0, "dt": 0.1}}))
        env = {**USER_ENV, "PYTHONPATH": os.pathsep.join([args.src, *filter(None, [USER_ENV.get("PYTHONPATH")])])}
        walls, rss = [], 0
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            run = subprocess.run([sys.executable, *COLD, "estimate", "--config", str(config), "--out", out], env=env,
                                 capture_output=True, text=True, check=True,
                                 preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None)
            walls.append(time.perf_counter() - t0)
            rss = max(rss, int(run.stdout.split()[-1]))  # KiB on Linux
        print(f"cold estimate          {min(walls):7.3f}-{max(walls):.3f} s  {rss / 1024:5.1f} MB")

    torus, omega = TorusExampleModel(), TorusRotation().initial(0)
    for rtol in (1e-6, 1e-10):
        coc = OdeCocycle(torus, dt=0.25, rtol=rtol)
        best = best_of(lambda: sum(len(maps) for maps, _ in coc.step_blocks(omega, 0, TORUS_MAPS)))
        print(f"torus maps rtol {rtol:.0e} {1e6 * best / TORUS_MAPS:7.1f} us/map")
    coc = OdeCocycle(torus, dt=0.25, rtol=1e-6)
    lo, hi = SEP_READ

    def sep_read():
        return sum(len(maps) for maps, _ in coc.step_blocks(omega, lo, hi))

    best = best_of(sep_read)
    print(f"torus sep read         {1e6 * best / (hi - lo):7.1f} us/map  {batch_steps(sep_read)} batch steps")
    horizons = np.linspace(1.25, 10.0, 8).tolist()
    best = best_of(lambda: integrate(torus, omega, np.array([1.0, 0.3]), horizons, rtol=1e-10))
    print(f"torus integrate x8     {1e3 * best:7.1f} ms")
    for n_omegas, label in ((1, ""), (5, " x5")):
        def battery(n_omegas=n_omegas):
            return validate_against_closed_form(seed=0, n_omegas=n_omegas)

        best = best_of(battery)
        print(f"{'torus battery' + label:<22} {1e3 * best:7.1f} ms     {batch_steps(battery)} batch steps")
    try:  # one call with the sequence, or one per horizon where kappa_mean_exact takes one
        torus.kappa_mean_exact(omega, DIVERGENCE_HORIZONS)
        calls = [DIVERGENCE_HORIZONS]
    except TypeError:
        calls = DIVERGENCE_HORIZONS
    best = best_of(lambda: [torus.kappa_mean_exact(omega, T) for T in calls])
    print(f"torus kappa            {1e3 * best:7.2f} ms")


def batch_steps(run):
    """The DOP853 batch steps of ``run()``: the runs of the ``step += 1``
    line of ``odes._dop853``, counted by a line trace of its frames."""
    from poscocycle import odes

    lines, first = inspect.getsourcelines(odes._dop853)
    target, code, count = first + [line.strip() for line in lines].index("step += 1"), odes._dop853.__code__, [0]

    def local(frame, event, arg):
        count[0] += event == "line" and frame.f_lineno == target
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        run()
    finally:
        sys.settrace(None)
    return count[0]


if __name__ == "__main__":
    main()
