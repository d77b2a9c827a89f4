"""Products of random strictly positive matrices: two routes to the top
exponent, the spectral gap, and the loss of memory of initial directions.

Run:  python demos/random_products_separation.py
"""

import numpy as np

from poscocycle import (IidShift, MatrixCocycle, UniformEntriesModel, focusing_certificate,
                        forward_floquet, oseledets_qr, separation_estimate,
                        warmup_direction)

driver = IidShift()
omega = driver.initial(515)
model = UniformEntriesModel(3, 0.5, 2.0)
cocycle = MatrixCocycle(model)

# route 1: power iteration along the orbit with per-step renormalization
w0 = warmup_direction(cocycle, omega, 50)
track = forward_floquet(cocycle, omega, w0, horizon=10_000)
# route 2: QR re-orthonormalization of a full frame (the classical spectrum)
exponents = oseledets_qr(cocycle, omega, 10_000)
print("forward-iteration top exponent :", round(track.lambda1, 6))
print("QR spectrum                    :", np.round(exponents, 6))

# the separation rate: growth gap between the principal direction and the
# invariant complementary plane
sep = separation_estimate(cocycle, omega, 10_000, warmup=50)
print(f"separation rate sigma          : {sep.sigma_hat:.6f} "
      f"(QR gap {exponents[0] - exponents[1]:.6f})")

# every strictly positive matrix focuses the cone: the image of any positive
# vector is sandwiched around the diagonal direction within a ratio kappa
S = model.emit(omega)
cert = focusing_certificate(S)
print(f"\none-step focusing ratio kappa  : {cert.kappa:.3f} (dual {cert.kappa_star:.3f})")

# consequence: any two positive initial directions converge at rate ~ sigma
rng = np.random.default_rng(0)
u = rng.uniform(0.1, 1.0, 3)
v = rng.uniform(0.1, 1.0, 3)
u /= np.linalg.norm(u)
v /= np.linalg.norm(v)
state = omega
print("\nstep   |u - v| between renormalized trajectories")
for k in range(1, 16):
    S = model.emit(state)
    u = S @ u
    u /= np.linalg.norm(u)
    v = S @ v
    v /= np.linalg.norm(v)
    state = state.advance(1)
    if k in (1, 2, 4, 8, 15):
        print(f"{k:4d}   {np.linalg.norm(u - v):.3e}")
print(f"empirical decay ~ exp(-sigma k) with sigma = {sep.sigma_hat:.2f}")
