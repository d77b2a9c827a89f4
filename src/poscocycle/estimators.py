"""Numerical estimators for positive cocycles: forward principal-direction
iteration, backward pullback orbits, dual directions, exponential separation,
a QR Lyapunov-spectrum oracle, and ergodic (Birkhoff) averaging.

Estimators operate on a small cocycle protocol that wraps either a matrix
model (one step = one matrix multiply) or an ODE model (one step = the flow
over a fixed dt: exact on pieces where the coefficient is constant,
adaptive integration elsewhere); ``AdjointCocycle`` is the dual of either.
All step maps are returned scale-separated as (array, log_scale), so
arbitrarily fast decay or growth never leaves floating-point range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, PositivityViolation
from .matrices import MatrixModel
from .odes import OdeModel, propagate
from .stats import batch_means


# ---------------------------------------------------------------------------
# cocycle protocol


class MatrixCocycle:
    """Discrete cocycle: one step applies the emitted matrix.

    For a model that draws blocks (``cells_per_draw`` > 1) the cocycle keeps
    the last block, aligned to a multiple of ``cells_per_draw`` and read-only,
    so forward and backward sweeps fetch each block once.
    """

    def __init__(self, model: MatrixModel):
        self.model = model
        self.n = model.n
        self.dt = 1
        self.cone_tol = 1e-12
        self._block = (None, None)  # ((system, seed, first index), maps)

    def _emit(self, state):
        K = self.model.cells_per_draw
        if K == 1:
            return self.model.emit(state)
        i = state.index
        start = i - i % K
        key = (state.system, state.seed, start)
        if self._block[0] != key:
            maps = self.model.emit_block(state.advance(start - i), K)
            maps.flags.writeable = False
            self._block = (key, maps)
        return self._block[1][i - start]

    def step(self, state, U):
        return self._emit(state) @ U, 0.0

    def step_matrix(self, state):
        return self._emit(state), 0.0

    def advance(self, state, steps=1):
        return state.advance(steps * self.dt)

    def dual(self):
        return AdjointCocycle(self)


class OdeCocycle:
    """Continuous cocycle sampled at a fixed step dt: ``propagate`` takes the
    exact flow on constant pieces and adaptive DOP853 at ``rtol`` elsewhere."""

    def __init__(self, model: OdeModel, dt: float = 0.1, rtol: float = 1e-10):
        self.model = model
        self.n = model.n
        self.dt = float(dt)
        self.rtol = rtol
        self.cone_tol = 1e-9

    def step(self, state, U):
        return propagate(self.model, state, U, self.dt, rtol=self.rtol)

    def step_matrix(self, state):
        return propagate(self.model, state, np.eye(self.n), self.dt, rtol=self.rtol)

    def advance(self, state, steps=1):
        return state.advance(steps * self.dt)

    def dual(self):
        return AdjointCocycle(self)


class AdjointCocycle:
    """Dual of a primal cocycle over the reversed driver: one step at omega is
    the transpose of the primal step at the previous base point, so that
    <S(theta_-1 omega) u, u*> = <u, S*(omega) u*>."""

    def __init__(self, primal):
        self.primal = primal
        self.model = primal.model
        self.n = primal.n
        self.dt = primal.dt
        self.cone_tol = primal.cone_tol

    def step(self, state, U):
        M, ls = self.step_matrix(state)
        return M @ U, ls

    def step_matrix(self, state):
        M, ls = self.primal.step_matrix(state.advance(-self.dt))
        return M.T.copy(), ls

    def advance(self, state, steps=1):
        return state.advance(-steps * self.dt)

    def dual(self):
        return self.primal


# ---------------------------------------------------------------------------
# forward iteration


@dataclass
class FloquetTrack:
    """Running principal direction: unit w, accumulated log growth, horizon."""

    w: np.ndarray
    log_growth: float
    horizon: float
    lambda1: float
    history: list = field(default_factory=list)  # (time, step ln rho, w copy)


def _enforce_cone(u, tol, t):
    """Check that u lies in the nonnegative orthant up to ``tol``; clip
    roundoff-level excursions so the returned direction is a member."""
    i = int(np.argmin(u))
    if u[i] < -tol:
        raise PositivityViolation(
            f"trajectory left the cone at t = {t:.6g}: coordinate {i} = {u[i]:.3e}",
            witness=(t, i, float(u[i])))
    return np.maximum(u, 0.0)


def forward_floquet(cocycle, omega, u0, horizon, record_every=0, check_cone=True):
    """Iterate u <- (one-step map) u with renormalization, accumulating ln rho.

    Returns a FloquetTrack whose ``lambda1`` is the finite-horizon growth-rate
    estimate log_growth / horizon.  With ``check_cone`` it raises
    PositivityViolation when the iterate leaves the nonnegative orthant by
    more than the cocycle's ``cone_tol``.
    """
    n_steps = int(round(horizon / cocycle.dt))
    if n_steps < 1:
        raise ValueError("horizon must cover at least one step")
    u = np.asarray(u0, dtype=float).copy()
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise ValueError("u0 must be nonzero")
    u /= nrm
    if check_cone:
        u = _enforce_cone(u, cocycle.cone_tol, 0.0)
    state = omega
    log_growth = 0.0
    history = []
    for k in range(n_steps):
        v, ls = cocycle.step(state, u)
        r = float(np.linalg.norm(v))
        if r == 0.0:
            log_growth = -math.inf
            u = v
            break
        if not math.isfinite(r):
            raise EstimationError(f"forward iterate not finite after step {k} (norm {r})")
        u = v / r
        if check_cone:
            u = _enforce_cone(u, cocycle.cone_tol, (k + 1) * cocycle.dt)
            u /= np.linalg.norm(u)
        ln_rho = math.log(r) + ls
        log_growth += ln_rho
        state = cocycle.advance(state)
        if record_every and (k + 1) % record_every == 0:
            history.append(((k + 1) * cocycle.dt, ln_rho, u.copy()))
    T = n_steps * cocycle.dt
    return FloquetTrack(w=u, log_growth=log_growth, horizon=T,
                        lambda1=log_growth / T, history=history)


def warmup_direction(cocycle, omega, depth, probe=None):
    """Pullback-converged principal direction at ``omega``: push a positive
    probe forward from depth steps in the past (depth 0 returns the probe)."""
    if probe is None:
        probe = np.full(cocycle.n, 1.0 / math.sqrt(cocycle.n))
    if int(depth) == 0:
        probe = np.asarray(probe, dtype=float)
        return probe / np.linalg.norm(probe)
    start = cocycle.advance(omega, -int(depth))
    track = forward_floquet(cocycle, start, probe, depth * cocycle.dt)
    return track.w


def dual_floquet(cocycle, omega, horizon):
    """Principal direction of the adjoint cocycle at ``omega``.

    The adjoint covers the time-reversed driver, so its pullback warm-up uses
    base points in the primal's forward orbit.
    """
    return warmup_direction(cocycle.dual(), omega, int(round(horizon / cocycle.dt)))


# ---------------------------------------------------------------------------
# backward (pullback) entire orbits


@dataclass
class EntireOrbit:
    """Approximate entire positive orbit from a depth-m pullback.

    directions[j] is the unit vector at time ns[j]; log_norms[j] the log of
    the orbit value there under the normalization |v(0)| = 1; step_log_rho[j]
    the one-step log growth from ns[j] to ns[j+1] (length depth).
    """

    ns: list
    directions: list
    log_norms: list
    step_log_rho: list

    def value(self, j):
        return math.exp(self.log_norms[j]) * self.directions[j]


def backward_entire_orbit(cocycle, omega, depth, probe=None) -> EntireOrbit:
    """Push a probe from depth steps in the past up to ``omega``, recording the
    normalized directions; under focusing this approximates the unique entire
    positive orbit through the current base point."""
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if probe is None:
        probe = np.full(cocycle.n, 1.0 / math.sqrt(cocycle.n))
    u0 = np.asarray(probe, dtype=float)
    track = forward_floquet(cocycle, cocycle.advance(omega, -depth), u0, depth * cocycle.dt,
                            record_every=1, check_cone=False)
    if track.log_growth == -math.inf:
        raise EstimationError("pullback probe was annihilated; model is not positivity-preserving")
    ns = list(range(-depth, 1))
    directions = [u0 / np.linalg.norm(u0)] + [u for _, _, u in track.history]
    log_rhos = [ln_rho for _, ln_rho, _ in track.history]
    # normalize so that the time-0 value is the unit direction
    log_norms = [0.0] * len(ns)
    acc = 0.0
    for j in range(len(ns) - 2, -1, -1):
        acc -= log_rhos[j]
        log_norms[j] = acc
    return EntireOrbit(ns=ns, directions=directions, log_norms=log_norms, step_log_rho=log_rhos)


def pullback_convergence(cocycle, omega, depth, probe=None):
    """Distance at time 0 between pullback approximations of depth and 2*depth."""
    a = backward_entire_orbit(cocycle, omega, depth, probe)
    b = backward_entire_orbit(cocycle, omega, 2 * depth, probe)
    return float(np.linalg.norm(a.directions[-1] - b.directions[-1]))


# ---------------------------------------------------------------------------
# exponential separation


@dataclass
class SeparationEstimate:
    """Top-exponent / complementary-growth estimates and the gap between them.

    sigma_hat may be +inf (the invariant complement was annihilated exactly);
    in that case lambda2_hat is -inf.  Otherwise
    lambda2_hat = lambda1_hat - sigma_hat by construction.
    """

    lambda1_hat: float
    lambda2_hat: float
    sigma_hat: float
    w: np.ndarray
    w_star: np.ndarray
    f1_basis: np.ndarray  # (N, N-1) orthonormal, spans the pairing-null hyperplane at start
    projection_norm_history: list  # (time, ln |projection onto F along E|)
    horizon: float


def _orth_complement(v):
    """Orthonormal basis of the hyperplane orthogonal to v, as columns."""
    n = v.size
    M = np.eye(n)
    M[:, 0] = v
    Q, _ = np.linalg.qr(M)
    return Q[:, 1:]


def _projection_norm(w, w_star):
    """Spectral norm of the projection onto span(w_star)^perp along span(w)."""
    denom = float(w @ w_star)
    P = np.eye(w.size) - np.outer(w, w_star) / denom
    return float(np.linalg.norm(P, 2))


def separation_estimate(cocycle, omega, horizon, warmup=50, proj_samples=0,
                        min_pairing=1e-8) -> SeparationEstimate:
    """Estimate (lambda1, lambda2, sigma) by propagating the principal
    direction together with an orthonormal frame of the dual-null hyperplane.

    Two sweeps over one stream of step maps: a forward sweep warms up and
    tracks the principal direction, a backward adjoint sweep produces the
    dual direction at every step time.  The frame spanning the invariant
    complement is re-anchored to the dual-null hyperplane after every step;
    without that re-anchoring, roundoff injects a dominant component that
    grows at rate sigma and silently caps the measurable separation near
    ln(1/eps) / horizon.

    The restricted operator norm is tracked exactly through an accumulated,
    rescaled R-product, and sigma comes from the growth *ratio*, which stays
    finite even when both exponents diverge to -inf.  ``proj_samples`` > 0
    additionally records ln |projection onto the complement along the
    principal direction| at that many evenly spaced times (the temperedness
    observable).
    """
    n_steps = int(round(horizon / cocycle.dt))
    if n_steps < 1:
        raise ValueError("horizon must cover at least one step")
    warmup = int(warmup)

    # one stream of step maps covering [-warmup, horizon + warmup)
    maps = []
    state = cocycle.advance(omega, -warmup)
    for _ in range(n_steps + 2 * warmup):
        M, ls = cocycle.step_matrix(state)
        maps.append((M, ls))
        state = cocycle.advance(state)

    # forward sweep: warm up, then record the principal direction at every step time
    w = np.full(cocycle.n, 1.0 / math.sqrt(cocycle.n))
    w_path = []
    log_growth = 0.0
    for k in range(warmup + n_steps):
        if k == warmup:
            w_path.append(w.copy())
        M, ls = maps[k]
        v = M @ w
        r = float(np.linalg.norm(v))
        if r == 0.0:
            raise EstimationError("principal direction annihilated; no positive growth to separate")
        if not math.isfinite(r):
            raise EstimationError(f"principal direction not finite after step {k - warmup} (norm {r})")
        w = v / r
        if k >= warmup:
            log_growth += math.log(r) + ls
            w_path.append(w.copy())

    # backward adjoint sweep: dual direction at step times 0..n_steps; with
    # no warm-up the probe itself is the dual direction at n_steps
    z = np.full(cocycle.n, 1.0 / math.sqrt(cocycle.n))
    z_path = [None] * n_steps + [z.copy()]
    for k in range(len(maps) - 1, warmup - 1, -1):
        z = maps[k][0].T @ z
        nrm = float(np.linalg.norm(z))
        if nrm == 0.0:
            raise EstimationError("dual probe annihilated during the adjoint sweep")
        if not math.isfinite(nrm):
            raise EstimationError(f"dual probe not finite after the adjoint of step {k - warmup} (norm {nrm})")
        z /= nrm
        idx = k - warmup
        if idx <= n_steps:
            z_path[idx] = z.copy()

    w_star0 = z_path[0]
    pairing = float(w_path[0] @ w_star0)
    if abs(pairing) < min_pairing:
        raise EstimationError(
            f"principal and dual directions nearly orthogonal (pairing {pairing:.3e}); "
            "projection onto the invariant complement is ill-conditioned")

    B0 = _orth_complement(w_star0)
    Q = B0.copy()
    R_acc = np.eye(cocycle.n - 1)
    log_restricted = 0.0
    restricted_dead = False
    for k in range(n_steps):
        if restricted_dead:
            break
        M, ls = maps[warmup + k]
        V = M @ Q
        nV = float(np.linalg.norm(V))
        if not math.isfinite(nV):
            raise EstimationError(f"complement frame not finite after step {k} (norm {nV})")
        # a roundoff-level image means the complement was annihilated: flag
        # rather than extrapolate a huge finite rate
        if nV <= 1e-13 * float(np.linalg.norm(M)):
            restricted_dead = True
            break
        zk = z_path[k + 1]
        V -= np.outer(zk, zk @ V)  # re-anchor to the dual-null hyperplane
        Q, R = _qr_positive(V)
        R_acc = R @ R_acc
        s = float(np.linalg.norm(R_acc, 2))
        if s == 0.0:
            restricted_dead = True
        else:
            R_acc /= s
            log_restricted += math.log(s) + ls

    proj_history = []
    if proj_samples:
        sample_every = max(1, n_steps // proj_samples)
        for k in range(0, n_steps + 1, sample_every):
            proj_history.append((k * cocycle.dt,
                                 math.log(_projection_norm(w_path[k], z_path[k]))))

    T = n_steps * cocycle.dt
    lambda1 = log_growth / T
    if restricted_dead:
        sigma = math.inf
        lambda2 = -math.inf
    else:
        sigma = (log_growth - log_restricted) / T
        lambda2 = lambda1 - sigma
    return SeparationEstimate(lambda1_hat=lambda1, lambda2_hat=lambda2, sigma_hat=sigma,
                              w=w_path[-1], w_star=w_star0, f1_basis=B0,
                              projection_norm_history=proj_history, horizon=T)


# ---------------------------------------------------------------------------
# QR spectrum oracle


def _qr_positive(V):
    """QR factors of V with the diagonal of R made nonnegative."""
    Q, R = np.linalg.qr(V)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs, signs[:, None] * R


def oseledets_qr(cocycle, omega, horizon):
    """Full Lyapunov spectrum via QR re-orthonormalization of an N-frame.

    Returns the exponents sorted in nonincreasing order; coinciding values
    are reported as computed, with no attempt to disambiguate subspaces.
    """
    n_steps = int(round(horizon / cocycle.dt))
    if n_steps < 1:
        raise ValueError("horizon must cover at least one step")
    n = cocycle.n
    Q = np.eye(n)
    sums = np.zeros(n)
    state = omega
    with np.errstate(divide="ignore"):
        for k in range(n_steps):
            V, ls = cocycle.step(state, Q)
            Q, R = _qr_positive(V)
            d = np.diag(R)
            if not math.isfinite(d.max()):
                raise EstimationError(f"QR frame not finite after step {k} (R diagonal {d})")
            sums += np.where(d > 0, np.log(np.maximum(d, 1e-300)), -np.inf) + ls
            state = cocycle.advance(state)
    T = n_steps * cocycle.dt
    return np.sort(sums / T)[::-1]


# ---------------------------------------------------------------------------
# ergodic averages


@dataclass
class BirkhoffEstimate:
    mean: float
    ci: float
    batch_means: np.ndarray
    n_samples: int
    dt: float


def _orbit_samples(observable, omega, horizon, dt):
    """observable(state) along the orbit over [0, horizon], as (samples, dt).

    Discrete drivers sample every step; continuous drivers sample the
    midpoint of each dt-cell (dt defaults to 0.05).
    """
    discrete = getattr(omega.system, "time", "discrete") == "discrete"
    if discrete:
        dt = 1.0
    else:
        dt = 0.05 if dt is None else float(dt)
    n = int(round(horizon / dt))
    return np.array([observable(omega.advance(k if discrete else (k + 0.5) * dt))
                     for k in range(n)]), dt


def birkhoff_average(observable, omega, horizon, batches=8, dt=None) -> BirkhoffEstimate:
    """Time average of observable(state) over [0, horizon] with a batch-means CI,
    sampled as in ``_orbit_samples``."""
    if batches < 2:
        raise ValueError("batches must be >= 2")
    samples, dt = _orbit_samples(observable, omega, horizon, dt)
    m, hw, blocks = batch_means(samples, batches)
    return BirkhoffEstimate(mean=float(samples.mean()), ci=hw, batch_means=blocks,
                            n_samples=samples.size, dt=dt)


@dataclass
class DivergenceDiagnostic:
    """Finite-horizon means at doubling horizons plus the trend verdict.

    ``diverging`` is set when the means decrease strictly across all listed
    horizons and the final mean lies below the threshold; finite data can
    only ever trend toward -inf, so no estimator here emits -inf itself.
    The strict-decrease rule is not expected to fire on the torus oracle's
    statistic, whose means swing one-sidedly below a -log T envelope.
    """

    horizons: list
    means: list
    threshold: float
    strictly_decreasing: bool
    below_threshold: bool
    diverging: bool

    @classmethod
    def from_means(cls, horizons, means, threshold):
        means = [float(m) for m in means]
        dec = all(means[i + 1] < means[i] for i in range(len(means) - 1))
        below = means[-1] < threshold
        return cls(horizons=list(horizons), means=means, threshold=float(threshold),
                   strictly_decreasing=dec, below_threshold=below,
                   diverging=dec and below)


def divergence_diagnostic(observable, omega, horizons, threshold=-10.0, dt=None) -> DivergenceDiagnostic:
    """Means of the observable over [0, T] for each horizon T (single pass),
    assembled into a trend verdict against the threshold."""
    horizons = sorted(float(T) for T in horizons)
    if len(horizons) < 2:
        raise ValueError("need at least two horizons")
    samples, dt = _orbit_samples(observable, omega, horizons[-1], dt)
    cums = np.cumsum(samples)
    means = []
    for T in horizons:
        m = int(round(T / dt))
        means.append(cums[m - 1] / m)
    return DivergenceDiagnostic.from_means(horizons, means, threshold)


# ---------------------------------------------------------------------------
# the quadratic-form route to the top exponent


@dataclass
class KappaRouteEstimate:
    estimate: float
    ci: float
    horizon: float
    dt: float


def lambda1_via_kappa(cocycle: OdeCocycle, omega, horizon, warmup=50, batches=8) -> KappaRouteEstimate:
    """Top exponent of a cooperative flow as the time average of the quadratic
    form <A(t) w(t), w(t)> along the warmed principal direction.

    Piecewise trapezoid quadrature: at every grid point the coefficient is
    evaluated just left and just right of the point, so coefficient jumps at
    cell boundaries do not bias the integral (grid cells should align with
    the coefficient's discontinuity spacing).
    """
    dt = cocycle.dt
    n_steps = int(round(horizon / dt))
    if n_steps < batches:
        raise ValueError("horizon too short for the requested batch count")
    w = warmup_direction(cocycle, omega, warmup)
    track = forward_floquet(cocycle, omega, w, horizon, record_every=1, check_cone=False)
    ws = [w] + [u for _, _, u in track.history]
    nudge = 1e-9 * dt
    state = omega
    model = cocycle.model

    cell_integrals = np.empty(n_steps)
    for k in range(n_steps):
        kappa_right = float(ws[k] @ model.field(state, nudge) @ ws[k])          # right limit at t_k
        state = cocycle.advance(state)
        kappa_left = float(ws[k + 1] @ model.field(state, -nudge) @ ws[k + 1])  # left limit at t_{k+1}
        cell_integrals[k] = 0.5 * (kappa_right + kappa_left) * dt
    total = float(cell_integrals.sum())
    _, hw, _ = batch_means(cell_integrals / dt, batches)
    return KappaRouteEstimate(estimate=total / horizon, ci=hw, horizon=horizon, dt=dt)
