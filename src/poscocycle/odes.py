"""Continuous-time linear cocycles u' = A(theta_t w) u with merely piecewise
continuous coefficients, cooperative / type-K structure checks, and the
constructive irreducibility quantities.

Trajectories are Caratheodory solutions: ``propagate`` never steps across a
coefficient discontinuity.  A piece on which the coefficient is constant
(``OdeModel.piece_matrix``) gets the exact flow expm(h A), by scaling and
squaring; ``expm`` loads scipy.linalg on its first call, so runs without a
constant piece never load scipy.  Every other piece is integrated with the
adaptive Runge-Kutta method DOP853 of Dormand and Prince (order 8, with
Hairer's combined 5th- and 3rd-order error estimate).  Both renormalize the
state as they go, accumulating the log of the extracted scale, so decaying
or exploding trajectories never leave floating-point range.

``flow_maps`` builds the one-step flow maps of a run of base points at once:
it asks for the breakpoints of the whole window and for ``piece_matrix``
once per constant piece, and the steps inside one piece share its expm.  A
model's ``piece_matrix`` must therefore hold on the whole piece it is asked
about.  ``flow_maps`` takes and returns the last constant piece's flow, so
the chunks of one read share the flow of a piece that straddles them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import EstimationError
from .stats import mean_ci

# DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, 1993, Sec. II.10),
# bit for bit the values of scipy.integrate._ivp.dop853_coefficients; that
# module is not imported because it loads all of scipy.integrate.  The
# 13th stage of the published pair, A(t + h) Y_new, has weight 0 in both
# error rows, so it is evaluated only after a step is accepted, as the next
# step's first stage.
_STAGES = 12
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0])
_A = np.array([row + [0.0] * (_STAGES - len(row)) for row in [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636]]])
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259])
# error rows: E5 (5th-order) and E3 (3rd-order)
_E = np.array([
    [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294],
    [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
     0.02265179219836082]])
_EPS = float(np.finfo(float).eps)
# ``flow_maps`` judges a step whose end lies within this share of dt of a
# breakpoint by the step's own knots
_NEAR = 1e-6


# ---------------------------------------------------------------------------
# models


class OdeModel:
    """Coefficient family A(theta_t w) plus its discontinuity structure."""

    def __init__(self, n: int):
        self.n = int(n)

    def field(self, state, t: float) -> np.ndarray:
        """Coefficient matrix at local time t past the base point."""
        raise NotImplementedError

    def breakpoints(self, state, t0: float, t1: float) -> np.ndarray:
        """Discontinuity times of the coefficient in (t0, t1); sorted."""
        return np.empty(0)

    def piece_field(self, state, t0: float, t1: float):
        """Callable tau -> A valid on the smooth piece (t0, t1)."""
        return lambda tau: self.field(state, tau)

    def piece_matrix(self, state, t0: float, t1: float):
        """The coefficient on the piece (t0, t1) when it is constant there,
        else None.  A constant piece is propagated exactly; ``flow_maps``
        asks once per piece of a whole chunk and gives every step inside
        it this matrix's flow."""
        return None


class ConstantOdeModel(OdeModel):
    def __init__(self, matrix):
        A = np.array(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        super().__init__(A.shape[0])
        A.flags.writeable = False
        self.matrix = A

    def field(self, state, t: float) -> np.ndarray:
        return self.matrix

    def piece_matrix(self, state, t0, t1):
        return self.matrix


class PiecewiseConstantOdeModel(OdeModel):
    """Coefficient constant on unit intervals, drawn i.i.d. per interval.

    Pair with a continuous-time ``IidShift`` driver; the draw for the
    interval containing local time t comes from the stream cell at
    floor(position + t).  The last cell's matrix is kept (read-only), so
    the steps and field evaluations of one sweep through a cell share one
    draw.
    """

    def __init__(self, n, sampler):
        super().__init__(n)
        self.sampler = sampler
        self._last = None  # ((seed, cell index), matrix)

    def _matrix_at(self, state, t: float) -> np.ndarray:
        cell = state.advance(t)
        key = (cell.seed, cell.index)
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        A = np.array(self.sampler(cell.rng()), dtype=float)
        if A.shape != (self.n, self.n):
            raise ValueError(f"sampler returned shape {A.shape}, expected {(self.n, self.n)}")
        A.flags.writeable = False
        self._last = (key, A)
        return A

    def field(self, state, t: float) -> np.ndarray:
        return self._matrix_at(state, t)

    def breakpoints(self, state, t0: float, t1: float) -> np.ndarray:
        # a cell boundary within a few ulps of the position at either end is
        # rounding of the position (and of dt), not a boundary inside (t0, t1)
        p = state.pos + state.pos_lo
        snap = 8.0 * _EPS * max(1.0, abs(p) + abs(t1))
        ks = np.arange(math.floor(p + t0 + snap) + 1, math.ceil(p + t1 - snap))
        ts = ks - p
        return ts[(ts > t0) & (ts < t1)]

    def piece_matrix(self, state, t0, t1):
        return self._matrix_at(state, 0.5 * (t0 + t1))


def cooperative_sampler(n, diag_lo, diag_hi, off_lo, off_hi):
    """Sampler for random cooperative coefficients: off-diagonal entries are
    drawn from [off_lo, off_hi] with off_lo >= 0, diagonal from [diag_lo, diag_hi]."""
    if off_lo < 0:
        raise ValueError("cooperative off-diagonal range must be nonnegative")

    def sample(rng):
        A = rng.uniform(off_lo, off_hi, size=(n, n))
        A[np.diag_indices(n)] = rng.uniform(diag_lo, diag_hi, size=n)
        return A

    return sample


class CallableOdeModel(OdeModel):
    """Thin adapter for ad-hoc fields: field_fn(state, t), breakpoints_fn(state, t0, t1)."""

    def __init__(self, n, field_fn, breakpoints_fn=None):
        super().__init__(n)
        self._field = field_fn
        self._breaks = breakpoints_fn

    def field(self, state, t: float) -> np.ndarray:
        return np.asarray(self._field(state, t), dtype=float)

    def breakpoints(self, state, t0, t1) -> np.ndarray:
        if self._breaks is None:
            return np.empty(0)
        return np.asarray(self._breaks(state, t0, t1), dtype=float)


# ---------------------------------------------------------------------------
# integration


def _integrate_piece(fieldfn, t0, t1, Y, rtol):
    """Adaptive DOP853 over one smooth piece; returns (Y_unit, log_scale, n_steps).

    Y is an (N, k) block of columns evolved simultaneously, with the stages
    kept in one preallocated (12, N, k) array; each component's error is
    weighed against 1e-12 + rtol times its size.  After every accepted step
    the block is rescaled to max-abs 1 and the log scale accumulated.  A
    non-finite error estimate (a field or state with NaN or inf) raises
    ``EstimationError`` instead of shrinking the step for ever.
    """
    span = t1 - t0
    nu = 1e-12 * span
    lo, hi = t0 + nu, t1 - nu

    def eval_field(tau):
        return fieldfn(min(max(tau, lo), hi))

    s0 = float(np.abs(Y).max())
    if s0 == 0.0:
        return Y, -np.inf, 0
    Y = Y / s0
    log_scale = math.log(s0)

    shape = Y.shape
    K = np.empty((_STAGES,) + shape)
    Kf = K.reshape(_STAGES, -1)
    t = t0
    A0 = eval_field(t0)
    norm_a = max(float(np.abs(A0).sum(axis=0).max()), float(np.abs(eval_field(0.5 * (t0 + t1))).sum(axis=0).max()))
    h = min(span, 0.1 / max(norm_a, 1e-6))
    np.matmul(A0, Y, out=K[0])
    n_steps = 0
    rejected = False
    min_h = 1e-14 * max(1.0, abs(t0), abs(t1))
    done_tol = 4.0 * _EPS * max(1.0, abs(t1))

    while t1 - t > done_tol:
        h = min(h, t1 - t)
        # underflow means the controller collapsed, not merely a short remainder
        if h < min_h and h < 0.99 * (t1 - t):
            raise EstimationError(
                f"step-size underflow at t = {t:.6g} inside the smooth piece ({t0:.6g}, {t1:.6g})")
        for i in range(1, _STAGES):
            Yi = Y + h * (_A[i, :i] @ Kf[:i]).reshape(shape)
            np.matmul(eval_field(t + _C[i] * h), Yi, out=K[i])
        Y8 = Y + h * (_B @ Kf).reshape(shape)
        e5, e3 = (_E @ Kf) / (1e-12 + rtol * np.maximum(np.abs(Y), np.abs(Y8))).reshape(-1)
        n5, n3 = float(e5 @ e5), float(e3 @ e3)
        err = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * Y.size)
        if not math.isfinite(err):
            raise EstimationError(
                f"non-finite error estimate at t = {t:.6g} inside the smooth piece ({t0:.6g}, {t1:.6g})")
        if err <= 1.0:
            t += h
            Y = Y8
            s = float(np.abs(Y).max())
            if s == 0.0:
                return Y, -np.inf, n_steps
            if s != 1.0:
                Y = Y / s
                log_scale += math.log(s)
            n_steps += 1
            np.matmul(eval_field(t), Y, out=K[0])
            factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
            if rejected:
                factor = min(1.0, factor)
            rejected = False
        else:
            factor = max(0.2, 0.9 * err ** -0.125)
            rejected = True
        h *= factor
    return Y, log_scale, n_steps


def expm(A):
    """scipy.linalg.expm, imported on the first exact piece: importing
    scipy.linalg takes about 0.3 s, which runs without one never pay."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(A)


def _exact_flow(A, t0, t1):
    """expm(h A) over the piece (t0, t1) as (unit max-abs matrix, log scale).

    E = expm(h A / 2^s) with the smallest s making |h A / 2^s|_1 <= 4, then
    s squarings, each preceded by pulling out the max-abs scale: the work is
    logarithmic in |A| h and no entry overflows or underflows.
    """
    h = t1 - t0
    norm = h * float(np.abs(A).sum(axis=0).max())
    if not math.isfinite(norm):
        raise EstimationError(f"non-finite coefficient on the piece ({t0:.6g}, {t1:.6g})")
    s = math.ceil(math.log2(norm / 4.0)) if norm > 4.0 else 0
    E = expm((h / 2.0 ** s) * A)
    log_scale = 0.0
    for squaring in range(s + 1):
        m = float(np.abs(E).max())
        E /= m
        log_scale += math.log(m)
        if squaring < s:
            E = E @ E
            log_scale *= 2.0
    return E, log_scale


def _exact_piece(A, t0, t1, Y):
    """Exact flow of the constant piece (t0, t1) applied to Y; returns
    (Y_unit, log_scale)."""
    E, log_scale = _exact_flow(A, t0, t1)
    Y = E @ Y
    s = float(np.abs(Y).max())
    if s == 0.0:
        return Y, -np.inf
    return Y / s, log_scale + math.log(s)


def _knots(model, omega, t):
    """0, the coefficient's breakpoints inside (0, t) and t, strictly
    increasing, as a list.

    A breakpoint within a few ulps of 0 or t is dropped: it is a boundary
    that rounding moved off a step end, and keeping it would split off a
    sliver piece that costs a flow of its own and moves nothing.
    """
    snap = 8.0 * _EPS * max(1.0, t)
    bps = np.asarray(model.breakpoints(omega, 0.0, t), dtype=float)
    inner = bps[(bps > snap) & (bps < t - snap)]
    return [0.0, *sorted(set(inner.tolist())), float(t)]


def propagate(model: OdeModel, omega, Y, t, rtol=1e-10):
    """Evolve the columns of Y over [0, t], splitting at coefficient breakpoints.

    Pieces with a constant coefficient (``model.piece_matrix``) take the
    exact flow; the rest take adaptive DOP853 at ``rtol``.
    Returns (Y_out, log_scale) with max-abs(Y_out) = 1 and the true solution
    equal to exp(log_scale) * Y_out.
    """
    if t < 0:
        raise ValueError("propagate requires t >= 0")
    Y = np.array(Y, dtype=float)
    squeeze = Y.ndim == 1
    if squeeze:
        Y = Y[:, None]
    if not np.any(Y):
        raise ValueError("initial condition must be nonzero")
    if t == 0:
        s = float(np.abs(Y).max())
        out = Y / s
        return (out[:, 0] if squeeze else out), math.log(s)
    knots = _knots(model, omega, t)
    log_scale = 0.0
    for a, b in zip(knots, knots[1:]):
        A = model.piece_matrix(omega, a, b)
        if A is not None:
            Y, ls = _exact_piece(A, a, b, Y)
        else:
            Y, ls, _ = _integrate_piece(model.piece_field(omega, a, b), a, b, Y, rtol)
        log_scale += ls
        if not np.isfinite(ls):
            break
    return (Y[:, 0] if squeeze else Y), log_scale


def flow_maps(model: OdeModel, states, dt, rtol=1e-10, last=None):
    """The flow maps over [0, dt] from the base points ``states``, each
    ``dt`` after the one before, as (maps (k, N, N), log_scales (k,),
    last): the maps are bit for bit ``propagate`` of the identity from each
    base point.

    The chunk is walked against its own breakpoints: ``model.breakpoints``
    is asked once for the window [0, k dt] from ``states[0]``, and
    ``model.piece_matrix`` once per constant piece of it that holds a whole
    step.  Such a step takes the piece's unit flow over dt, which is what
    ``propagate`` returns for it: E @ I is E, and max |E| is 1.  ``last``
    is (a copy of A, its unit flow) for the last constant piece walked,
    taken from and returned to the caller, so a piece whose matrix equals
    it, within the chunk or at the start of the next, takes no expm of its
    own.  A step across a breakpoint, or on a smooth piece, calls
    ``propagate``.  A step whose end lies within ``_NEAR`` dt of a
    breakpoint or of the window's ends is judged by its own ``_knots``,
    since rounding places the window's breakpoints and the step's a few
    ulps apart.
    """
    k = len(states)
    span = k * dt
    near = _NEAR * dt
    edges = np.unique(np.concatenate(
        ([0.0, span], np.asarray(model.breakpoints(states[0], 0.0, span), dtype=float))))
    starts = dt * np.arange(k)
    ends = starts + dt

    def edges_in(a, b):  # the number of edges in (a, b] per step
        return np.searchsorted(edges, b, side="right") - np.searchsorted(edges, a, side="right")

    across = edges_in(starts + near, ends - near) > 0
    doubtful = (edges_in(starts - near, ends + near) > 0) & ~across
    pieces = np.searchsorted(edges, starts + 0.5 * dt, side="right") - 1
    maps, log_scales = np.empty((k, model.n, model.n)), np.empty(k)
    piece = flow = None  # the piece of the last whole step, and its unit flow (None if smooth)
    eye = np.eye(model.n)
    for j, (state, i, cross, doubt) in enumerate(zip(states, pieces.tolist(), across.tolist(),
                                                     doubtful.tolist())):
        if not cross:
            if i != piece:
                piece, A = i, model.piece_matrix(states[0], float(edges[i]), float(edges[i + 1]))
                if A is not None and (last is None or not np.array_equal(last[0], A)):
                    last = (A.copy(), _exact_flow(A, 0.0, dt))  # a model may refill A
                flow = None if A is None else last[1]
            if flow is not None and not (doubt and len(_knots(model, state, dt)) > 2):
                maps[j], log_scales[j] = flow
                continue
        maps[j], log_scales[j] = propagate(model, state, eye, dt, rtol=rtol)
    return maps, log_scales, last


def integrate(model: OdeModel, omega, u0, t, rtol=1e-10):
    """Solve u' = A(theta_t w)u from u0 over [0, t].

    Returns (direction, log_scale): direction is the unit (ell-2) final
    direction and log_scale = ln(|u(t)| / |u0|), the accumulated growth, so
    u(t) = exp(log_scale) * |u0| * direction.
    """
    u0 = np.asarray(u0, dtype=float)
    n0 = float(np.linalg.norm(u0))
    if n0 == 0.0:
        raise ValueError("u0 must be nonzero")
    v, ls = propagate(model, omega, u0, t, rtol=rtol)
    nv = float(np.linalg.norm(v))
    return v / nv, ls + math.log(nv) - math.log(n0)


# ---------------------------------------------------------------------------
# structure checks


def check_O1(model: OdeModel, driver, seed, n_samples):
    """Cooperativity: off-diagonal entries nonnegative at sampled (base point,
    time), 17 evenly spaced times in [0, 1] per base point."""
    from .matrices import AssumptionReport

    t_grid = np.linspace(0.0, 1.0, 17)
    omega = driver.initial(seed)
    witnesses = []
    n = model.n
    off = ~np.eye(n, dtype=bool)
    for k in range(n_samples):
        base = omega.advance(float(k))
        for t in t_grid:
            A = model.field(base, float(t))
            bad = (A < 0.0) & off
            if np.any(bad):
                i, j = map(int, next(zip(*np.where(bad))))
                witnesses.append((k, float(t), i, j, float(A[i, j])))
                break
        if len(witnesses) >= 5:
            break
    return AssumptionReport(condition="O1", verdict="fails" if witnesses else "holds",
                            witnesses=witnesses,
                            detail=f"{n_samples} base points x {len(t_grid)} grid times")


def check_O2(model: OdeModel, driver, seed, n_samples):
    """Integrability estimate: mean +/- CI of the max entry."""
    from .matrices import AssumptionReport

    omega = driver.initial(seed)
    vals = []
    for k in range(n_samples):
        A = model.field(omega.advance(float(k)), 0.0)
        vals.append(float(A.max()))
    m, hw = mean_ci(vals)
    return AssumptionReport(condition="O2", verdict="empirical",
                            estimate=m, ci=hw,
                            detail="sample moments cannot certify integrability")


# ---------------------------------------------------------------------------
# irreducibility quantities


@dataclass
class IrreducibilityQuantities:
    """Constructive lower-bound data for the time-1 map of a cooperative system.

    a_tilde[i]    = min over t in [0,1] of the running integral of a_ii
    a_bar[i][j]   = min over s in [0,1] of the tail integral of a_ij
    beta_i[i]     = chain product lower bound for column i of the time-1 map
    beta_lower    = min_i beta_i
    beta_upper    = exp of the integral of the summed row maxima (an upper bound)
    beta_tilde_i  = the all-offdiagonals variant (no chain needed)
    """

    a_tilde: np.ndarray
    a_bar: np.ndarray
    delta: float
    beta_i: np.ndarray
    beta_lower: float
    beta_upper: float
    beta_tilde_i: np.ndarray
    beta_tilde_lower: float
    chains: list
    grid_points: int


def _cumulative_integrals(model, omega):
    """Cumulative entrywise integrals F_ij(t) of the coefficient over [0,1]
    on a grid refined until the summed entry minima move by less than 1e-8;
    returns (grid, vals, F): the coefficient at each grid point, and F, both
    of shape (len(grid), N, N)."""
    knots = _knots(model, omega, 1.0)
    m = 32
    prev_min = None
    while True:
        grid = np.unique(np.concatenate([
            np.linspace(a, b, max(2, int(np.ceil((b - a) * m)) + 1))
            for a, b in zip(knots[:-1], knots[1:])]))
        vals = np.stack([model.field(omega, float(max(min(t, 1.0 - 1e-13), 1e-13))) for t in grid])
        dt = np.diff(grid)[:, None, None]
        incr = 0.5 * (vals[1:] + vals[:-1]) * dt
        F = np.concatenate([np.zeros((1, model.n, model.n)), np.cumsum(incr, axis=0)])
        cur_min = float(F.min(axis=0).sum())
        if prev_min is not None and abs(cur_min - prev_min) < 1e-8:
            return grid, vals, F
        if m > 1 << 14:
            return grid, vals, F
        prev_min = cur_min
        m *= 2


def _chain_search(W):
    """Per-start chains covering all indices, maximizing the minimum edge
    weight; greedy first, exhaustive fallback for small N."""
    n = W.shape[0]
    chains = []
    for i in range(n):
        best = _greedy_chain(W, i)
        if best is None and n <= 8:
            best_val = -np.inf
            for perm in permutations([j for j in range(n) if j != i]):
                path = (i,) + perm
                val = min(W[path[k], path[k + 1]] for k in range(n - 1))
                if val > best_val:
                    best_val, best = val, list(path)
        if best is None:
            raise EstimationError(f"no covering chain with positive off-diagonal mass from index {i}")
        chains.append(best)
    return chains


def _greedy_chain(W, start):
    n = W.shape[0]
    path = [start]
    used = {start}
    while len(path) < n:
        cur = path[-1]
        cand = [(W[cur, j], j) for j in range(n) if j not in used]
        w, j = max(cand)
        if w <= 0.0:
            return None
        path.append(j)
        used.add(j)
    return path


def irreducibility_quantities(model: OdeModel, omega, delta=None, chains=None) -> IrreducibilityQuantities:
    """Compute the chain lower bounds for the time-1 map of a cooperative system.

    ``chains`` maps each start index i to a permutation (j1 = i, ..., jN); when
    absent, chains are found by maximizing the minimum off-diagonal entry along
    the path (entries minimized over a refining time grid on [0,1]), and
    ``delta`` defaults to that minimum.  delta must be strictly positive.
    """
    n = model.n
    grid, vals, F = _cumulative_integrals(model, omega)
    a_tilde = F.min(axis=0).diagonal().copy()          # min_t int_0^t a_ii
    a_bar = F[-1][None, :, :] - F.max(axis=0)          # min_s int_s^1 a_ij
    a_bar = a_bar[0]

    # pointwise minima of each entry over the grid, for chain discovery
    entry_min = vals.min(axis=0)

    if chains is None:
        W = entry_min.copy()
        np.fill_diagonal(W, -np.inf)
        chains = _chain_search(W)
    else:
        chains = [list(c) for c in chains]
        for i, c in enumerate(chains):
            if c[0] != i or sorted(c) != list(range(n)):
                raise ValueError(f"chain for index {i} must start at {i} and cover all indices")

    if delta is None:
        delta = min(min(entry_min[c[k], c[k + 1]] for k in range(n - 1)) for c in chains)
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError("delta must be strictly positive")

    beta_i = np.empty(n)
    for i, c in enumerate(chains):
        terms = []
        acc = a_tilde[c[0]]
        fact = 1.0
        for k in range(n):
            if k > 0:
                acc += a_bar[c[k], c[k]]
                fact *= delta / k
            terms.append(math.exp(acc) * fact)
        beta_i[i] = min(terms)

    # entry (j, i) of the time-1 map is bounded below by the i-th diagonal
    # growth, the j-th diagonal tail decay, and one off-diagonal transfer
    beta_tilde_i = np.empty(n)
    for i in range(n):
        others = [math.exp(a_tilde[i] + a_bar[j, j]) * delta for j in range(n) if j != i]
        beta_tilde_i[i] = min(math.exp(a_tilde[i]), min(others))

    # upper bound: integral of the summed row maxima
    row_max_int = np.trapezoid(vals.max(axis=2).sum(axis=1), grid)
    beta_upper = float(np.exp(row_max_int))

    return IrreducibilityQuantities(
        a_tilde=a_tilde, a_bar=a_bar, delta=delta, beta_i=beta_i,
        beta_lower=float(beta_i.min()), beta_upper=beta_upper,
        beta_tilde_i=beta_tilde_i, beta_tilde_lower=float(beta_tilde_i.min()),
        chains=chains, grid_points=len(grid))


def l1_growth_bound(model: OdeModel, omega, t) -> float:
    """exp of the integral over [0, t] of the summed row maxima of the
    coefficient (adaptive Simpson to 1e-10 per piece): an upper bound for
    the ell-1 growth of positive solutions."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 1.0
    knots = _knots(model, omega, t)
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        total += _adaptive_simpson(
            lambda tau: float(model.field(omega, float(tau)).max(axis=1).sum()),
            a + 1e-13 * (b - a), b - 1e-13 * (b - a), 1e-10)
    return float(np.exp(total)) if total < 700 else math.inf


def _adaptive_simpson(f, a, b, tol, depth=24):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4 * frm + fb)
    if depth <= 0 or abs(left + right - whole) < 15 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_simpson_rec(f, a, m, fa, flm, fm, left, tol / 2, depth - 1)
            + _simpson_rec(f, m, b, fm, frm, fb, right, tol / 2, depth - 1))


# ---------------------------------------------------------------------------
# type-K conjugacy


class TypeKFlipModel(OdeModel):
    """Sign-conjugated coefficient: flips the off blocks of a type-K field so
    the result is cooperative; solutions correspond exactly under the sign
    flip of the last l coordinates."""

    def __init__(self, b_model: OdeModel, k: int, l: int):
        if k + l != b_model.n or k < 1 or l < 1:
            raise ValueError(f"need k + l = {b_model.n} with k, l >= 1")
        super().__init__(b_model.n)
        self.b_model = b_model
        self.k = k
        self.l = l
        self.flip = np.concatenate([np.ones(k), -np.ones(l)])

    def _flipped(self, B):
        _check_type_k(B, self.k)
        return (self.flip[:, None] * B) * self.flip[None, :]

    def field(self, state, t: float) -> np.ndarray:
        return self._flipped(self.b_model.field(state, t))

    def breakpoints(self, state, t0, t1):
        return self.b_model.breakpoints(state, t0, t1)

    def piece_field(self, state, t0, t1):
        inner = self.b_model.piece_field(state, t0, t1)
        return lambda tau: self._flipped(inner(tau))

    def piece_matrix(self, state, t0, t1):
        B = self.b_model.piece_matrix(state, t0, t1)
        return None if B is None else self._flipped(B)


def _check_type_k(B, k):
    n = B.shape[0]
    off = ~np.eye(n, dtype=bool)
    same = np.zeros((n, n), dtype=bool)
    same[:k, :k] = True
    same[k:, k:] = True
    bad_same = (B < 0.0) & off & same
    bad_cross = (B > 0.0) & ~same
    if np.any(bad_same) or np.any(bad_cross):
        bad = bad_same | bad_cross
        i, j = map(int, next(zip(*np.where(bad))))
        raise ValueError(f"type-K sign pattern violated at entry ({i}, {j}) = {B[i, j]}")
