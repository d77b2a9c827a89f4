"""Assumption batteries for matrix and ODE models.

Sign conditions are decided exactly on samples (with witnesses on failure);
moment conditions can only be estimated, so they come back as sample means
with confidence intervals, never as unqualified verdicts.

Run:  python demos/assumption_checks.py
"""

from poscocycle import (ConstantMatrixModel, ConstantOdeModel, IidShift,
                        PiecewiseConstantOdeModel, UniformEntriesModel, check_D,
                        check_O, cooperative_sampler, irreducibility_quantities)


def show(reports):
    for r in (reports if isinstance(reports, list) else [reports]):
        line = f"  {r.condition:34s} {r.verdict}"
        if r.verdict == "empirical":
            line += f"  mean {r.estimate:+.4f} +/- {r.ci:.4f}"
        if r.verdict == "fails":
            line += f"  witness {r.witnesses[0]}"
        print(line)


driver = IidShift()

print("=== i.i.d. strictly positive 3x3 entries on [0.5, 2] ===")
model = UniformEntriesModel(3, 0.5, 2.0)
show(check_D(model, driver, seed=0, n_samples=200))

print("\n=== a singular constant matrix trips the injectivity check ===")
show(check_D(ConstantMatrixModel([[1.0, 1.0], [1.0, 1.0]]), driver, 0, 5)[:3])

print("\n=== a negative entry is witnessed, not averaged away ===")
show(check_D(ConstantMatrixModel([[1.0, -0.25], [1.0, 1.0]]), driver, 0, 5)[:1])

cdriver = IidShift(time="continuous")
print("\n=== cooperative piecewise-constant field ===")
ode = PiecewiseConstantOdeModel(3, cooperative_sampler(3, -1.0, 1.0, 0.1, 1.0))
show(check_O(ode, cdriver, seed=0, n_samples=300))

st = cdriver.initial(0)
q = irreducibility_quantities(ode, st)
print(f"  chain delta = {q.delta:.4f}; column lower bound {q.beta_lower:.4e}; "
      f"upper bound {q.beta_upper:.4e} (grid {q.grid_points} points)")

print("\n=== a non-cooperative field fails with a witness ===")
show(check_O(ConstantOdeModel([[0.0, -1.0], [1.0, 0.0]]), cdriver, 0, 5)[0])
