"""The analytic flow over an irrational torus rotation: every quantity the
estimators produce has a closed form here, which makes the model the gold
oracle for the whole pipeline.

The coefficient matrix is [[a, 1], [1, a]] with a(w1, w2) = -1/(w1+w2)^2
along the rotation orbit (w1 + t, w2 + rho t) mod 1.  The symmetric part
exp(tB) factors out, so:

* the principal direction is (1,1)/sqrt(2) at every base point,
* the growth ratio of span(1,-1) against span(1,1) is exactly exp(-2t),
  i.e. the separation rate is exactly 2,
* the top exponent itself drifts to -infinity: the scalar coefficient is
  not integrable over the torus, and finite-horizon averages keep sinking
  (slowly, and with heavy-tailed fluctuations) as the horizon grows.

Run:  python demos/torus_oracle.py
"""

import numpy as np

from poscocycle import OdeCocycle, TorusRotation, integrate, separation_estimate, warmup_direction
from poscocycle.torus import TorusExampleModel, validate_against_closed_form

# the rotation number belongs to the driver; the model reads it off each base point
driver = TorusRotation()
model = TorusExampleModel()
print(f"rotation number rho = {driver.rho:.12f} (float approximation of sqrt(2)-1)")

omega = driver.initial(7)
print("base point:", np.round(omega.position, 6))

# closed form vs the generic adaptive integrator
u0 = np.array([1.0, 0.25])
for t in (1.0, 5.0, 10.0):
    d_num, ls_num = integrate(model, omega, u0, t, rtol=1e-10)
    d_ex, ls_ex = model.apply(omega, t, u0)
    print(f"t = {t:5.1f}: log-scale closed form {ls_ex:+.10f}, generic {ls_num:+.10f}, "
          f"direction gap {np.linalg.norm(d_num - d_ex):.2e}")

# the separation rate from the generic frame estimator
cocycle = OdeCocycle(model, dt=0.25, rtol=1e-6)
est = separation_estimate(cocycle, omega, horizon=50.0, warmup=200)
print(f"\nseparation rate estimate: {est.sigma_hat:.6f}  (exact value 2)")
w = warmup_direction(OdeCocycle(model, dt=0.25, rtol=1e-10), omega, 200)
print(f"principal direction after warm-up: {np.round(w, 10)}  (exact (1,1)/sqrt 2)")

# finite-horizon averages of the quadratic form sink without stabilizing:
# the true mean is -infinity.  Exact piecewise integration, no quadrature.
print("\nfinite-horizon averages of <A w, w> (exact piecewise integrals):")
for T in (125.0, 250.0, 500.0, 1000.0, 4000.0):
    print(f"  T = {T:6.0f}: {model.kappa_mean_exact(omega, T):9.3f}"
          f"   envelope K - log T = {model.kappa_mean_envelope(T, driver.rho):7.3f}")
print("note: the sequence drifts downward on log-horizon scales but is not")
print("monotone for a fixed base point; single close passes push it far below")
print("the envelope, never far above it.")

# one-call validation battery
print()
print(validate_against_closed_form(n_omegas=5, seed=7).summary())
