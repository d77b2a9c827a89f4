"""Entire positive orbits by pullback.

Pushing a positive probe forward from m steps in the past approximates, at
time 0, the unique direction through which an entire (two-sided) positive
orbit passes; doubling the depth changes the answer at the level of the
focusing contraction, which is how convergence is diagnosed.

Run:  python demos/pullback_orbit.py
"""

import numpy as np

from poscocycle import (IidShift, MatrixCocycle, UniformEntriesModel, pullback_convergence,
                        warmup_direction)

driver = IidShift()
omega = driver.initial(99)
cocycle = MatrixCocycle(UniformEntriesModel(3, 0.5, 2.0))

orbit, _ = pullback_convergence(cocycle, omega, depth=20)
print("time   log |v(n)|    direction")
for j, n in enumerate(orbit.ns):
    if n in (-20, -15, -10, -5, -2, -1, 0):
        print(f"{n:4d}   {orbit.log_norms[j]:+10.4f}    {np.round(orbit.directions[j], 5)}")

print("\nthe records satisfy the one-step identity exactly:")
j = 10
S = cocycle.model.emit(omega.advance(orbit.ns[j]))
lhs = S @ orbit.directions[j]
rhs = np.exp(orbit.step_log_rho[j]) * orbit.directions[j + 1]
print(f"  |S v(n) - rho v(n+1)| = {np.linalg.norm(lhs - rhs):.2e}")

print("\ndepth-doubling convergence of the time-0 direction:")
for depth in (5, 10, 20, 40):
    _, distance = pullback_convergence(cocycle, omega, depth)
    print(f"  depth {depth:3d} vs {2 * depth:3d}: {distance:.3e}")

# the dual route gives the complementary object: the direction defining the
# invariant hyperplane that carries no positive vectors
ws = warmup_direction(cocycle.dual(), omega, 60)
print("\ndual principal direction:", np.round(ws, 6))
print("pairing with the pullback direction:", float(orbit.directions[-1] @ ws))
