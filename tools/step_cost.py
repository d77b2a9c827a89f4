"""CPU time per step of the matrix estimator loops, best of 5 runs of 2000 steps.

  python3 tools/step_cost.py                 # this checkout
  python3 tools/step_cost.py --src OTHER/src # another checkout, for before/after pairs
  python3 tools/step_cost.py --peak          # tracemalloc peak of separation instead

Each loop runs on a fresh uniform-entries cocycle (entries in [0.5, 2)) on
a discrete i.i.d. shift, so block emission is included.  The process pins
itself to one CPU and BLAS to one thread; alternate the checkouts and take
each one's range, since the CPU speed of a shared machine drifts.

With ``--peak`` it prints instead the ``tracemalloc`` peak of one
``separation_estimate`` run, in bytes per step, after an untraced run has
done the first run's lazy imports.  The peak holds fixed-size chunk
buffers next to the per-step state, so it falls with the horizon towards
the per-step share.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HORIZON = 2000  # steps per run
REPEATS = 5  # runs per loop and size; the fastest is kept


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    p.add_argument("--peak", action="store_true",
                   help="print the tracemalloc peak bytes per step of separation_estimate")
    args = p.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, args.src)
    import numpy as np
    from poscocycle.drivers import IidShift
    from poscocycle.estimators import (MatrixCocycle, forward_floquet, oseledets_qr,
                                       separation_estimate)
    from poscocycle.matrices import UniformEntriesModel

    T = HORIZON
    if args.peak:
        for n in (3, 24):
            coc = MatrixCocycle(UniformEntriesModel(n, 0.5, 2.0))
            separation_estimate(coc, IidShift().initial(1), T, warmup=50)
            tracemalloc.start()
            separation_estimate(coc, IidShift().initial(1), T, warmup=50)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            print(f"separation N={n:<3} {peak / T:9.1f} peak bytes/step ({peak} bytes, T = {T})")
        return
    loops = {
        "forward": lambda coc, om: forward_floquet(coc, om, np.ones(coc.n), T),
        "qr": lambda coc, om: oseledets_qr(coc, om, T),
        "separation": lambda coc, om: separation_estimate(coc, om, T, warmup=50),
    }
    for name, run in loops.items():
        for n in (3, 24):
            best = float("inf")
            for _ in range(REPEATS):
                coc = MatrixCocycle(UniformEntriesModel(n, 0.5, 2.0))
                t0 = time.process_time()
                run(coc, IidShift().initial(1))
                best = min(best, time.process_time() - t0)
            print(f"{name:<10} N={n:<3} {1e6 * best / T:7.1f} us/step")


if __name__ == "__main__":
    main()
