"""Analytic two-dimensional flow over an irrational torus rotation, used as
the gold oracle for the generic integrator and the estimators.

The coefficient is A(w) = [[a(w), 1], [1, a(w)]] with a(w1, w2) =
-1/(w1 + w2)^2, driven by the rotation (w1 + t, w2 + rho t) mod 1.  The
propagator factors into a scalar integral of ``a`` times the symmetric flow
exp(t B), B = [[0, 1], [1, 0]], so everything of interest has a closed form:

* the scalar integral is elementary between torus wrap times, where the
  coefficient is discontinuous;
* the principal direction is (1, 1)/sqrt(2) for every base point;
* the ratio of growth on span(1, -1) to growth on span(1, 1) is exactly
  exp(-2t): the separation rate is 2 while both exponents diverge to -inf.

The bookkeeping around the integrator is plain float arithmetic where a
step sees a few wraps (the field, the wrap times a step's breakpoints
come from), and array arithmetic where it walks many: the coordinate sums
of all smooth pieces of a DOP853 batch, and the exact integrals and means,
whose wrap-free pieces are summed left to right by ``np.add.accumulate``,
the order of a loop over them.  Each gives the bits of the one-state,
one-piece-at-a-time forms.

The validation battery runs the generic integrator and estimators against
these closed forms.  Its warm-up and separation reads at every base point
are one DOP853 stream, with at most two windows per read in flight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .drivers import TorusRotation, TorusState, _torus_point, _two_sum
from .estimators import DivergenceDiagnostic, OdeCocycle, _separation, _step_count, _warmed, stored_replays
from .matrices import _count
from .odes import OdeModel, _positive, integrate

# sandwich constant kappa = kappa* for the time-1 focusing of this flow
FOCUSING_RATIO_BOUND = 1.0 / math.tanh(1.0)

PRINCIPAL_DIRECTION = np.array([1.0, 1.0]) / math.sqrt(2.0)
SEPARATION_RATE = 2.0

# the validation battery's defaults: the horizon of its separation item and
# the dt of its cocycles
BATTERY_HORIZON = 50.0
BATTERY_DT = 0.25
# the window the battery's separation-rate estimates must fall in
SIGMA_WINDOW = (SEPARATION_RATE - 0.1, SEPARATION_RATE + 0.1)


def coefficient(w1: float, w2: float) -> float:
    """Scalar coefficient a at a torus position."""
    return -1.0 / (w1 + w2) ** 2


class TorusExampleModel(OdeModel):
    """The torus field as an ODE model, with its closed forms.  The model
    holds no rotation: the rotation number and the wrap times are those of
    ``state.system``, the ``TorusRotation`` a base point belongs to."""

    def __init__(self):
        super().__init__(2)

    def field(self, state: TorusState, t: float) -> np.ndarray:
        # the position of ``state.advance(t)``, with no state built
        hi, lo = _two_sum(state.elapsed, state.elapsed_lo, float(t))
        a = coefficient(*_torus_point(*state.anchor, state.system.rho, hi + lo))
        return np.array([[a, 1.0], [1.0, a]])

    def breakpoints(self, state: TorusState, t0: float, t1: float) -> np.ndarray:
        ts = state.system.wrap_times(state, t1).tolist()
        return np.array([tau for tau in ts if t0 < tau < t1], dtype=float)

    def piece_fields(self, states, t0s, t1s):
        # positions move linearly inside a wrap-free piece: the coordinate
        # sum is c + v (tau - mid) past the midpoint mid, v = 1 + rho, and c
        # is ``sum(state.advance(mid).position)`` taken elementwise
        mids = 0.5 * (t0s + t1s)
        hi, lo, a1, a2, rho = np.array([(s.elapsed, s.elapsed_lo, *s.anchor, s.system.rho) for s in states]).T
        hi, lo = _two_sum(hi, lo, mids)
        w1, w2 = _torus_point(a1, a2, rho, hi + lo)
        c, v = w1 + w2, 1.0 + rho

        def fields(pieces, taus):
            out = np.empty((len(taus), 2, 2))
            out[:, 0, 0] = out[:, 1, 1] = -1.0 / (c[pieces] + v[pieces] * (taus - mids[pieces])) ** 2
            out[:, 0, 1] = out[:, 1, 0] = 1.0
            return out

        return fields

    # -- closed forms ------------------------------------------------------

    def _a_integrals(self, state: TorusState, ts: np.ndarray) -> np.ndarray:
        """Exact integrals of a along the orbit over [0, T] for each T > 0
        of ``ts``, in one pass over the wraps of the longest.

        The wraps cut the orbit into pieces, each with its exact starting
        coordinate sum (the wrapped coordinate is exactly 0 at a wrap, so
        the sum is the other one).  On a wrap-free piece a(theta_tau w) =
        -1/(c + (1+rho) tau)^2 with antiderivative 1/((1+rho)(c + (1+rho)
        tau)).  The pieces' terms are summed left to right, as a loop over
        them sums; the integral to T is the running sum of the pieces up to
        its last wrap plus its own last partial piece.  A tie of the two
        coordinates' wraps makes a piece of length 0, whose term is exactly
        +0.0 and moves no sum.
        """
        v = 1.0 + state.system.rho
        t1, t2 = state.system.coordinate_wrap_times(state, float(ts.max(initial=0.0)))
        taus = np.array(t1 + t2, dtype=float)
        order = np.argsort(taus, kind="stable")  # ties: the first coordinate's wrap first
        taus = taus[order]
        hi, lo = _two_sum(state.elapsed, state.elapsed_lo, taus)
        w1, w2 = _torus_point(*state.anchor, state.system.rho, hi + lo)
        # the coordinate sum from the origin and from each wrap on
        c = np.concatenate([[sum(state.position)], np.where(order < len(t1), w2, w1)])
        starts = np.concatenate([[0.0], taus])
        terms = 1.0 / (v * (c[:-1] + v * (taus - starts[:-1]))) - 1.0 / (v * c[:-1])
        running = np.add.accumulate(np.concatenate([[0.0], terms]))
        m = np.searchsorted(taus, ts, side="right")  # the wraps in (0, T]
        return running[m] + (1.0 / (v * (c[m] + v * (ts - starts[m]))) - 1.0 / (v * c[m]))

    def a_integral(self, state: TorusState, t: float) -> float:
        """Exact integral of a along the orbit over [0, t] (t of either sign)."""
        if t == 0:
            return 0.0
        if t < 0:
            return -self.a_integral(state.advance(t), -t)
        return float(self._a_integrals(state, np.array([t], dtype=float))[0])

    def apply(self, state: TorusState, t: float, u):
        """Closed-form solution from u: (unit direction, log growth of |.|_2)."""
        u = np.asarray(u, dtype=float)
        ch, sh = math.cosh(t), math.sinh(t)
        v = np.array([ch * u[0] + sh * u[1], sh * u[0] + ch * u[1]])
        growth = self.a_integral(state, t) + math.log(np.linalg.norm(v) / np.linalg.norm(u))
        return v / np.linalg.norm(v), growth

    def kappa_mean_exact(self, state: TorusState, horizon):
        """Exact finite-horizon time average of the quadratic form
        <A w, w> = 1 + a along the principal direction w, over [0, horizon].

        ``horizon`` may be a 1-D sequence of horizons: the means come back
        as an array, bit for bit one call per horizon, from one pass over
        the wraps of the longest.  A horizon that is not finite and > 0
        raises ValueError naming it (``horizon[1] = 0.0``)."""
        ts = _positive("horizon", horizon)
        means = 1.0 + self._a_integrals(state, np.atleast_1d(ts)) / ts
        return float(means[0]) if ts.ndim == 0 else means

    @staticmethod
    def kappa_mean_envelope(horizon: float, rho: float) -> float:
        """Upper envelope K - log T of ``kappa_mean_exact`` at horizon T on
        the rotation ``rho``, with K = 2 - gamma - rho log(rho) / (1 + rho)
        (about 1.681 at the default rho).  The means diverge to -inf like
        -log T and swing far below the envelope on close corner passes,
        never far above it; the derivation, which spaces the wrap points
        evenly, is in the comment of acceptance criterion 03
        (tests/test_acceptance.py).  Even spacing needs a badly approximable
        rho, such as the default sqrt(2) - 1: for rho near a fraction with a
        small denominator (0.3, pi - 3) the wrap points cluster and the means
        sit above the envelope at horizons of 1000."""
        return 2.0 - np.euler_gamma - rho * math.log(rho) / (1.0 + rho) - math.log(horizon)


# ---------------------------------------------------------------------------
# validation against the generic pipeline


@dataclass
class TorusValidationReport:
    """Outcome of running the generic machinery on the analytic model;
    ``sigma_estimates``, ``direction_errors`` and ``propagator_errors``
    hold one number per base point, the last the worst of its times."""

    rho: float
    kappa_bound: float
    items: list = field(default_factory=list)  # (name, passed, detail)
    sigma_estimates: list = field(default_factory=list)
    direction_errors: list = field(default_factory=list)
    propagator_errors: list = field(default_factory=list)
    divergence: DivergenceDiagnostic | None = None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    def add(self, name, ok, detail=""):
        self.items.append((name, bool(ok), detail))

    def summary(self) -> str:
        lines = [f"torus example validation (rho = {self.rho:.12g}, kappa bound = {self.kappa_bound:.12g})"]
        for name, ok, detail in self.items:
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        return "\n".join(lines)


def validate_against_closed_form(rho=None, seed=0, n_omegas=5, horizon=BATTERY_HORIZON, dt=BATTERY_DT,
                                 divergence_horizons=(125.0, 250.0, 500.0, 1000.0),
                                 divergence_threshold=-10.0) -> TorusValidationReport:
    """Drive the generic integrator and estimators over the analytic model on
    ``TorusRotation(rho)`` and compare at ``n_omegas`` base points: (a)
    propagator log scales and directions at 8 times up to 10 (DOP853 at
    rtol 1e-10, within 1e-8; all 8 x ``n_omegas`` (base point, time) pairs
    go through one batched ``integrate``, and ``propagator_errors`` keeps
    the worst error of each base point), (b) the principal direction after a
    50-time-unit pullback warm-up (within 1e-6), (c) the separation rate
    (DOP853 at rtol 1e-6) against ``SIGMA_WINDOW``, (d) the exact means of
    the quadratic form against their -log T envelope (``divergence`` keeps
    the trend diagnostic of the first base point).

    Items (b) and (c) read stored flow maps, those of every base point
    filled by one ``stored_replays`` call: one DOP853 stream of the reads'
    windows, each at its read's rtol, one read after another, with at most
    two windows per read in flight, so the slow members near a torus corner
    that end each read step at once.  The numbers are bit for bit
    ``warmup_direction`` and ``separation_estimate`` per base point.
    Item (a) stays a batch of its own: its members carry one column, the
    flow maps two, and a DOP853 stream steps blocks of one shape."""
    n_omegas = _count("n_omegas", n_omegas, 1)
    for name, value in (("dt", dt), ("horizon", horizon)):
        _positive(name, float(value))
    if not len(divergence_horizons):
        raise ValueError(f"divergence_horizons must hold at least one horizon, got {divergence_horizons!r}")
    _positive("divergence_horizons", divergence_horizons)
    n_steps, warm_steps = _step_count("separation_estimate", horizon, dt), int(round(50.0 / dt))
    driver = TorusRotation(rho)
    model = TorusExampleModel()
    report = TorusValidationReport(rho=driver.rho, kappa_bound=FOCUSING_RATIO_BOUND)

    # (a) propagator agreement on sampled (omega, t): all pairs as one batch
    times = np.linspace(1.25, 10.0, 8).tolist()
    states = [driver.initial(seed + k) for k in range(n_omegas)]
    pairs = [(state, t) for state in states for t in times]
    u0 = np.array([1.0, 0.3])
    d_nums, ls_nums = integrate(model, [s for s, _ in pairs], u0, [t for _, t in pairs], rtol=1e-10)
    errors = []
    for (state, t), d_num, ls_num in zip(pairs, d_nums, ls_nums.tolist()):
        d_ex, ls_ex = model.apply(state, t, u0)
        err = abs(ls_num - ls_ex) / max(1.0, abs(ls_ex))
        errors.append(max(err, float(np.linalg.norm(d_num - d_ex))))
    report.propagator_errors = [max(errors[i:i + len(times)]) for i in range(0, len(errors), len(times))]
    worst = max(report.propagator_errors)
    report.add("propagator-agreement", worst <= 1e-8,
               f"worst relative log-scale / direction error {worst:.3e} over {n_omegas} base points, t <= 10.0")

    # (b) principal direction after pullback warm-up and (c) separation rate
    # via the generic frame estimator: the flow maps of both items at every
    # base point, stored from one DOP853 stream
    cocycle, sep_cocycle = OdeCocycle(model, dt=dt, rtol=1e-10), OdeCocycle(model, dt=dt, rtol=1e-6)
    replays = stored_replays(model, [*((state, -warm_steps, 0, cocycle.rtol) for state in states),
                                     *((state, -warm_steps, n_steps + warm_steps, sep_cocycle.rtol)
                                       for state in states)], dt)
    for blocks in replays[:n_omegas]:
        w = _warmed(cocycle, blocks(-warm_steps, 0), range(-warm_steps, 0))
        report.direction_errors.append(float(np.linalg.norm(w - PRINCIPAL_DIRECTION)))
    worst_dir = max(report.direction_errors)
    report.add("principal-direction", worst_dir <= 1e-6,
               f"worst |w - (1,1)/sqrt2| = {worst_dir:.3e} at warm-up time 50.0")
    for blocks in replays[n_omegas:]:
        report.sigma_estimates.append(_separation(sep_cocycle, blocks, n_steps, warm_steps, 0).sigma_hat)
    ok_sigma = all(SIGMA_WINDOW[0] <= sigma <= SIGMA_WINDOW[1] for sigma in report.sigma_estimates)
    report.add("separation-rate", ok_sigma,
               f"sigma estimates {np.round(report.sigma_estimates, 4).tolist()} vs window {SIGMA_WINDOW}")

    # (d) divergence of the quadratic form: exact means under their -log T envelope
    means = [model.kappa_mean_exact(state, divergence_horizons).tolist() for state in states]
    diag = DivergenceDiagnostic.from_means(divergence_horizons, means[0], divergence_threshold)
    report.divergence = diag
    excess = max(m - model.kappa_mean_envelope(T, driver.rho)
                 for row in means for m, T in zip(row, divergence_horizons))
    report.add("lambda1-divergence", excess <= 0.0,
               f"means {np.round(diag.means, 3).tolist()} at horizons {list(divergence_horizons)}; "
               f"worst mean minus envelope K - log T over {n_omegas} base points: {excess:.3f} (<= 0); "
               f"trend flag: {diag.diverging}")
    return report
