"""Age-structured populations under random vital rates.

A Leslie matrix pushes a population vector one season forward: fertilities
sit in the first row, survival probabilities on the subdiagonal.  With
random (but positive) rates drawn fresh each season, the population's
long-run fate is governed by the top Lyapunov exponent of the matrix
cocycle, and the age profile aligns with a random principal direction.

Run:  python demos/leslie_populations.py
"""

import numpy as np

from poscocycle import (IidShift, LeslieModel, MatrixCocycle, check_D,
                        cocycle_product, forward_floquet, leslie_model,
                        warmup_direction)

N = 4
driver = IidShift()
omega = driver.initial(20260809)

print("=== random Leslie model, N =", N, "===")
model = LeslieModel(N,
                    lambda rng: rng.uniform(0.3, 1.8, N),     # fertilities
                    lambda rng: rng.uniform(0.4, 0.95, N - 1))  # survivals
print("one season:\n", np.round(model.emit(omega), 3))

# A single Leslie matrix has zeros, so one step cannot mix all age classes;
# the N-season composite map is strictly positive, which is what the
# focusing checks need.  Verify both facts on samples.
lag1, lagN = (next(r for r in check_D(model, driver, seed=1, n_samples=40, lag=lag) if r.condition == "D2.i")
              for lag in (1, N))
print(f"strict positivity at lag 1: {lag1.verdict}   at lag {N}: {lagN.verdict}")

# Long-run growth rate and the (random) stable age profile.
cocycle = MatrixCocycle(model)
w0 = warmup_direction(cocycle, omega, depth=60)
track = forward_floquet(cocycle, omega, w0, horizon=4000, record_every=1)
print(f"top exponent estimate: {track.lambda1:+.4f} per season "
      f"({'growth' if track.lambda1 > 0 else 'decline'})")
print("age profile at the end of the run:", np.round(track.w, 4))

# Sanity anchor: constant rates m = (1,1), b = (1) give the Fibonacci
# recursion, whose growth rate is the golden ratio.
fib = leslie_model([1.0, 1.0], [1.0])
fib_track = forward_floquet(MatrixCocycle(fib), driver.initial(0),
                            warmup_direction(MatrixCocycle(fib), driver.initial(0), 60), 100)
phi = (1 + np.sqrt(5)) / 2
print(f"\nFibonacci check: lambda1 = {fib_track.lambda1:.12f} vs ln(phi) = {np.log(phi):.12f}")

# The composite over N seasons shows how quickly the zero pattern fills in.
D, ls = cocycle_product(model, omega, N)
print(f"\n{N}-season composite (unit scale, log-scale {ls:.3f}):\n", np.round(D, 4))
