"""Continuous-time linear cocycles u' = A(theta_t w) u with merely piecewise
continuous coefficients, cooperative / type-K structure checks, and the
constructive irreducibility quantities of the time-1 map, whose
``beta_upper`` is the one upper bound on the growth of positive solutions.

Trajectories are Caratheodory solutions: ``propagate`` never steps across a
coefficient discontinuity.  A piece on which the coefficient is constant
(``OdeModel.piece_matrix``) gets the exact flow expm(h A), by scaling and
squaring; ``expm`` is numpy's diagonal Pade approximant of degree 13 over a
stack of matrices, and the module loads no scipy.  The constant pieces of
one ``propagate`` call, or of one ``flow_maps`` window, are exponentiated
in one stacked call (``_with_flows``).  Every other piece is integrated
with the adaptive Runge-Kutta method DOP853 of Dormand and Prince (order 8,
with Hairer's combined 5th- and 3rd-order error estimate).  Both
renormalize the state as they go, accumulating the log of the extracted
scale, so decaying or exploding trajectories never leave floating-point
range.

There is one DOP853, ``_dop853``, which steps the members of a stream of
batches in lockstep, each along its own chain of pieces with its own step
size and its batch's rtol.  At most BLOCK_CELLS members are live; a
waiting member takes the slot of one that finishes, so a batch's slow
members step alongside the next batches', and at most ``ahead`` batches
are in flight.  The coefficient of all smooth pieces of a batch comes from
one ``OdeModel.piece_fields`` call, evaluated at the stage times of its
live members at once.  ``propagate`` and ``integrate`` take one time or a
1-D sequence of times, from one base point or from as many: every (base
point, time) pair is a member of a stream of one batch, and a single time
is the batch of one.

A piecewise-constant model keeps the last block of cells it drew: a user
sampler's one cell, or the BLOCK_CELLS cells of one counter-addressed draw.

``flow_maps`` builds the one-step flow maps of a stream of windows, each a
run of steps from its first base point at its own rtol, a window at a
time: it asks for the breakpoints of the whole window and for
``piece_matrix`` once per constant piece, and the steps inside one piece
share its flow.  A model's ``piece_matrix`` must therefore hold on the
whole piece it is asked about.  The steps left over, those across a
breakpoint or on a smooth piece, go through ``_dop853`` as the window's
batch, bit for bit what ``propagate`` gives each alone, and the batches of
all the windows are one stream, so a read's DOP853 cost does not depend
on where its chunk cuts fall.  Several reads are one stream of their
windows, one read after another, with at most two windows per read in
flight (``ahead`` twice the reads), so the reads' slowest members step at
once rather than one read after another.  A window is a function of its
steps: nothing is carried from one window to the next, so a piece that
two chunks of a read share takes one exponential in each.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain, permutations, starmap

import numpy as np
from numpy.linalg import _umath_linalg

from .drivers import BLOCK_CELLS, _two_sum, advance_steps, step_sums
from .errors import EstimationError
from .matrices import AssumptionReport, _count
from .stats import mean_ci

# DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, 1993, Sec. II.10),
# bit for bit the values of scipy.integrate._ivp.dop853_coefficients; that
# module is not imported because it loads all of scipy.integrate.  The
# 13th stage of the published pair, A(t + h) Y_new, has weight 0 in both
# error rows, so it is no stage here: a step's first stage is A(t) Y at its
# own start.
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
_A_ROWS = [_A[i, :i] for i in range(_STAGES)]  # stage i's weights on the stages before it
_C_COLUMN = _C[:, None]
_EPS = float(np.finfo(float).eps)
# ``flow_maps`` asks ``OdeModel.inner_breaks`` about a step whose end lies
# within this share of dt of a breakpoint of its window
_NEAR = 1e-6


# ---------------------------------------------------------------------------
# models


class OdeModel:
    """Coefficient family A(theta_t w) plus its discontinuity structure.

    ``inner_breaks`` tells ``flow_maps`` which of a chunk's steps near a
    breakpoint hold one inside: its answer must equal, bit for bit, whether
    the step's own ``_knots`` hold more than its two ends, and the default
    asks exactly that, step by step.  A model whose breakpoints have a
    closed form may answer for the whole array at once."""

    def __init__(self, n: int):
        self.n = int(n)

    def field(self, state, t: float) -> np.ndarray:
        """Coefficient matrix at local time t past the base point."""
        raise NotImplementedError

    def breakpoints(self, state, t0: float, t1: float) -> np.ndarray:
        """Discontinuity times of the coefficient in (t0, t1); sorted."""
        return np.empty(0)

    def inner_breaks(self, first, steps, dt) -> np.ndarray:
        """For each j of the integer array ``steps``, whether the step of
        ``dt`` from ``advance_steps(first, j, dt)`` holds a breakpoint that
        ``_knots`` keeps, as a bool array.  ``flow_maps`` asks once per
        chunk, about the steps it may take whole; this one loops."""
        return np.array([len(_knots(self, advance_steps(first, j, dt), dt)) > 2 for j in steps.tolist()],
                        dtype=bool)

    def piece_fields(self, states, t0s, t1s):
        """The coefficient on the smooth pieces (t0s[p], t1s[p]) past the
        base points states[p], as a callable f(pieces, taus) -> (len, N, N)
        whose entry i is A at local time taus[i] on piece pieces[i] (both
        arrays).  Entry i must depend on pieces[i] and taus[i] alone, every
        operation elementwise, so a member of a batch gets bit for bit the
        matrices it gets alone.  The kappa route asks for one-sided limits,
        each on a sliver piece around its time.  This one stacks ``field``."""
        field = self.field

        def fields(pieces, taus):
            return np.stack([field(states[p], tau) for p, tau in zip(pieces.tolist(), taus.tolist())])

        return fields

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
    floor(position + t), read through ``cells`` (here ``sampler`` of the
    cell's ``rng``).  The last block drawn is kept, read-only; a read outside
    it draws the aligned ``draw_cells`` cells that hold its cell, so one
    sweep shares a draw per block and memory holds one block.
    """

    draw_cells = 1

    def __init__(self, n, sampler):
        super().__init__(n)
        self.sampler = sampler
        self._block = (None, 0, ())  # (seed, first cell index, the cells' matrices)

    def cells(self, state, count):
        """The matrices of the ``count`` cells from the cell of ``state``, (count, N, N)."""
        states = [state, *(replace(state, pos=float(state.index + j), pos_lo=0.0) for j in range(1, count))]
        A = np.array([self.sampler(cell.rng()) for cell in states], dtype=float)
        if A.shape != (count, self.n, self.n):
            raise ValueError(f"sampler returned shape {A.shape[1:]}, expected {(self.n, self.n)}")
        return A

    def _matrix(self, state, i):
        """The matrix of cell i of the stream of ``state``, through the memo."""
        seed, first, A = self._block
        if seed != state.seed or not 0 <= i - first < len(A):
            first = i - i % self.draw_cells
            A = self.cells(state if state.index == first else replace(state, pos=float(first), pos_lo=0.0),
                           self.draw_cells)
            A.flags.writeable = False
            self._block = (state.seed, first, A)
        return A[i - first]

    def field(self, state, t: float) -> np.ndarray:
        # the cell of ``state.advance(t)``, with no state built
        hi, lo = _two_sum(state.pos, state.pos_lo, float(t))
        return self._matrix(state, math.floor(hi + lo))

    def breakpoints(self, state, t0: float, t1: float) -> np.ndarray:
        # a cell boundary within a few ulps of the position at either end is
        # rounding of the position (and of dt), not a boundary inside (t0, t1)
        p = state.pos + state.pos_lo
        snap = 8.0 * _EPS * max(1.0, abs(p) + abs(t1))
        ks = np.arange(math.floor(p + t0 + snap) + 1, math.ceil(p + t1 - snap))
        ts = ks - p
        return ts[(ts > t0) & (ts < t1)]

    def inner_breaks(self, first, steps, dt):
        # ``breakpoints(state, 0, dt)``, then ``_knots``' snap, elementwise on
        # the positions that advance_steps names.  The edges kept are k0,
        # k0 + 1, ... below ``stop``, and k0 lies more than ``snap`` past the
        # position, so past ``_knots``' snap at 0 too: a step holds an inner
        # edge iff it holds k0, one that holds several (dt > 1) included
        hi, lo = step_sums(first.pos, first.pos_lo, steps, dt)
        p = hi + lo
        snap = 8.0 * _EPS * np.maximum(1.0, np.abs(p) + abs(dt))
        k0, stop = np.floor(p + 0.0 + snap) + 1.0, np.ceil(p + dt - snap)
        knot_snap = 8.0 * _EPS * max(1.0, dt)
        ts = k0 - p
        return (k0 < stop) & (ts > knot_snap) & (ts < dt - knot_snap)  # also inside (0, dt), as knot_snap > 0

    def piece_fields(self, states, t0s, t1s):
        # a piece lies in the cell of its midpoint, ``advance(mid).index`` taken
        # elementwise; a run of pieces in one cell reads the memo once
        hi, lo = _two_sum(np.array([s.pos for s in states]), np.array([s.pos_lo for s in states]),
                          0.5 * (t0s + t1s))
        keys = list(zip([s.seed for s in states], np.floor(hi + lo).astype(np.int64).tolist()))
        starts = [p for p in range(len(keys)) if p == 0 or keys[p] != keys[p - 1]]
        mats = np.stack([self._matrix(states[p], keys[p][1]) for p in starts])
        A = mats[np.repeat(np.arange(len(starts)), np.diff([*starts, len(keys)]))]
        return lambda pieces, taus: A[pieces]

    def piece_matrix(self, state, t0, t1):
        return self.field(state, 0.5 * (t0 + t1))


class PiecewiseUniformOdeModel(PiecewiseConstantOdeModel):
    """The cells of ``cooperative_sampler``'s law (its ``sampler``), a block
    of them one ``ShiftState.uniforms`` draw: a cell does not depend on the
    block it is drawn in."""

    draw_cells = BLOCK_CELLS

    def __init__(self, n, diag_lo, diag_hi, off_lo, off_hi):
        super().__init__(n, cooperative_sampler(n, diag_lo, diag_hi, off_lo, off_hi))
        diag = np.eye(n, dtype=bool).ravel()
        self._lo = np.where(diag, float(diag_lo), float(off_lo))
        self._width = np.where(diag, float(diag_hi) - float(diag_lo), float(off_hi) - float(off_lo))

    def cells(self, state, count):
        # lo + (hi - lo) U, as Generator.uniform maps each uniform
        return (state.uniforms(0, self.n * self.n, count) * self._width + self._lo).reshape(count, self.n, self.n)


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


def _underflow(t, t0, t1):
    return EstimationError(f"step-size underflow at t = {t:.6g} inside the smooth piece ({t0:.6g}, {t1:.6g})")


class _Batch:
    """One batch of a ``_dop853`` stream: its rtol; per member a chain of
    pieces, its smooth pieces numbered, and a first block; the coefficient
    of all its smooth pieces from one ``piece_fields`` call; and per member
    the next piece, the log scale of the pieces done, the result and the
    counts."""

    def __init__(self, model, states, chains, Y, rtol):
        smooth = [(j, a, b) for j, chain in enumerate(chains) for a, b, flow in chain if flow is None]
        self.fields = model.piece_fields([states[j] for j, _, _ in smooth], np.array([a for _, a, _ in smooth]),
                                         np.array([b for _, _, b in smooth])) if smooth else None
        numbers = iter(range(len(smooth)))
        self.chains = [[(a, b, flow, None if flow is not None else next(numbers)) for a, b, flow in chain]
                       for chain in chains]
        m = len(chains)
        self.rtol = float(rtol)
        self.Y, self.admitted, self.undone = Y, 0, m  # members admitted; members not done
        self.at, self.total = [0] * m, [0.0] * m
        self.out, self.counts = np.empty(np.shape(Y)), np.zeros((2, m), dtype=np.intp)

    def result(self):
        return self.out, np.array(self.total, dtype=float), self.counts[0], self.counts[1]


def _coefficient(parts, taus):
    """The coefficient at the times ``taus`` (r, m) as (r, m, N, N), columns
    s:e from one call per part (fields, s, e, pieces), ``pieces`` the
    part's pieces tiled r times: a part is the members of one batch."""
    r = len(taus)
    As = [fields(pieces, taus[:, s:e].ravel()) for fields, s, e, pieces in parts]
    As = [A.reshape(r, e - s, *A.shape[1:]) for A, (_, s, e, _) in zip(As, parts)]
    return As[0] if len(As) == 1 else np.concatenate(As, axis=1)


def _dop853(model, batches, ahead):
    """Adaptive DOP853 over a stream of batches, each (states, chains, Y,
    rtol) with Y (m, N, k), the same N and k throughout; yields each
    batch's (Y_unit (m, N, k), log_scales (m,), accepted (m,), rejected
    (m,)), the last two the step counts of each member, in draw order, once
    every member of the batch is done.

    Member j of a batch evolves the (N, k) block Y[j] along ``chains[j]``,
    the pieces (a, b, flow) of local time past ``states[j]`` in order
    (``_pieces``).  A constant piece takes its exact ``flow``; a smooth one
    takes adaptive steps, with the coefficient of a batch's smooth pieces
    from one ``model.piece_fields`` call.  Every member keeps its own t, h,
    accept/reject state, log scale and its batch's rtol; one that finishes
    a piece starts its next on the next step, and one that finishes its
    chain leaves.

    At most BLOCK_CELLS members are live, in slots, and step in lockstep;
    the members still stepping are a contiguous prefix of the slots and
    each step works on views of it.  Waiting members take the freed slots
    in draw order, behind the live prefix, so the slots stay sorted by
    batch and a step makes one ``fields`` call per live batch
    (``_coefficient``).  The next batch is drawn once the last one drawn is
    wholly admitted and fewer than ``ahead`` batches are drawn and not yet
    yielded: a batch's slow members step alongside the next batches', and
    at most ``ahead`` batches are in flight.  A member's rejected count
    runs from the step that admitted it.  Its 12 stages are
    contiguous, so the stacked matmuls make the BLAS calls that the member
    alone makes, and its result depends neither on its batch nor on the
    stream.  The step-size controller runs per member in Python floats.

    Each component's error is weighed against 1e-12 + rtol times its size,
    rtol a per-slot column, so the weights are elementwise.  After every
    accepted step a block is rescaled to max-abs 1 and the log scale
    accumulated; a block that reaches 0 ends its member at -inf.  A
    non-finite error estimate (a field or state with NaN or inf) raises
    ``EstimationError`` naming the member's piece and time instead of
    shrinking the step for ever.
    """
    source, pending, more = iter(batches), deque(), True  # the batches drawn and not yet yielded
    yielded = cap = live = step = 0  # batches yielded, slots, live slots, steps taken
    # slot j holds member member[j] of batch owner[j], admitted at step
    # since[j], on its smooth piece piece[j], and S[j] its scalars: first
    # those a step updates (t, h, the piece's log scale, whether the last
    # step was rejected, the accepted steps), then the piece's ends, the
    # clamp bounds of field times, the underflow h, the end tolerance and
    # its batch's rtol
    Y = S = None
    member = piece = owner = since = np.zeros(0, dtype=np.intp)

    def batch(j):
        return pending[owner[j] - yielded]

    def start(j):
        """Walk member ``member[j]`` to its next smooth piece of positive
        length and set up slot j for it; False once the chain is done."""
        bj, i = batch(j), int(member[j])
        for a, b, flow, p in bj.chains[i][bj.at[i]:]:
            bj.at[i] += 1
            y = Y[j]
            if flow is not None:
                y = flow[0] @ y
                s = float(np.abs(y).max())
                if s == 0.0:
                    Y[j], bj.total[i] = y, -math.inf
                    return False
                Y[j] = y / s
                bj.total[i] += flow[1] + math.log(s)
                continue
            s0 = float(np.abs(y).max())
            if s0 == 0.0:
                bj.total[i] = -math.inf
                return False
            Y[j] = y / s0
            nu = 1e-12 * (b - a)
            t[j], ls[j], rejected[j], piece[j] = a, math.log(s0), 0.0, p
            t0[j], t1[j], lo[j], hi[j] = a, b, a + nu, b - nu
            min_h[j], tol[j] = 1e-14 * max(1.0, abs(a), abs(b)), 4.0 * _EPS * max(1.0, abs(b))
            if b - a > tol[j]:
                return True
            bj.total[i] += ls[j]  # a sliver: no step
        return False

    def finish(j):
        bj, i = batch(j), member[j]
        good = int(accepted[j])
        bj.out[i], bj.counts[:, i] = Y[j], (good, step - since[j] - good)
        bj.undone -= 1

    def parts(sel, r):
        """The ``_coefficient`` parts of the slots ``sel``, sorted by batch."""
        owners, pieces = owner[sel], piece[sel]
        cuts = [0, *(np.flatnonzero(owners[1:] != owners[:-1]) + 1).tolist(), len(owners)]
        return [(pending[owners[s] - yielded].fields, s, e, np.tile(pieces[s:e], r)) for s, e in zip(cuts, cuts[1:])]

    def first_h(started):
        """Give the slots ``started``, which start a piece, their first h."""
        new = np.array(started)
        ends = np.stack([t0[new], 0.5 * (t0[new] + t1[new])])
        A = _coefficient(parts(new, 2), np.minimum(np.maximum(ends, lo[new]), hi[new]))
        norms = np.abs(A.reshape(-1, *A.shape[2:])).sum(axis=1).max(axis=1).reshape(2, -1).T.tolist()
        for j, (n0, n_mid) in zip(started, norms):
            span = t1[j] - t0[j]
            h[j] = min(span, 0.1 / max(max(n0, n_mid), 1e-6))
            if h[j] < min_h[j] and h[j] < 0.99 * span:
                raise _underflow(t[j], t0[j], t1[j])

    def regroup(live, done):
        """Step the members in the slots ``done`` on to their next piece and
        move the members still stepping to the front; returns the new
        number of live slots and the slots that start a piece."""
        started, going = [], np.ones(live, dtype=bool)
        for j in done:
            if start(j):
                started.append(j)
            else:
                going[j] = False
                finish(j)
        if not going.all():
            keep = np.flatnonzero(going)
            for arr in (Y, S, member, piece, owner, since):
                arr[:len(keep)] = arr[keep]
            started = np.searchsorted(keep, started).tolist()
            live = len(keep)
        return live, started

    started, stale = [], True
    while True:
        # admit the waiting members of the last batch drawn into free slots,
        # and draw the next batch once it is wholly admitted
        while True:
            last = pending[-1] if pending else None
            if last is not None and last.admitted < len(last.chains):
                if live == cap:
                    break
                i, last.admitted, stale = last.admitted, last.admitted + 1, True
                member[live], owner[live], since[live], accepted[live] = i, yielded + len(pending) - 1, step, 0.0
                rtol[live] = last.rtol
                Y[live] = last.Y[i]
                if start(live):
                    started.append(live)
                    live += 1
                else:
                    finish(live)
            elif more and len(pending) < ahead:
                got = next(source, None)
                if got is None:
                    more = False
                    continue
                pending.append(_Batch(model, *got))
                if cap < min(BLOCK_CELLS, live + len(got[1])):  # room for all of it, up to BLOCK_CELLS slots
                    cap, stale = min(BLOCK_CELLS, live + len(got[1])), True
                    if Y is None:
                        Y, S = np.empty((0, *np.shape(got[2])[1:])), np.zeros((0, 12))
                    Y, S, member, piece, owner, since = (
                        np.concatenate([arr[:live], np.zeros((cap - live, *arr.shape[1:]), arr.dtype)])
                        for arr in (Y, S, member, piece, owner, since))
                    t, h, ls, rejected, accepted, t0, t1, lo, hi, min_h, tol, rtol = S.T
                    K = np.empty((cap, _STAGES, Y[0].size))
                    K4 = K.reshape(cap, _STAGES, *Y.shape[1:])
                    comb = np.empty_like(Y)  # a stage's argument, then the candidate step
                    comb_flat = comb.reshape(cap, -1)
            else:
                break
        if started:
            first_h(started)
            started = []
        if pending and not pending[0].undone:
            yielded += 1
            yield pending.popleft().result()
            continue  # and draw again
        if not live:
            return
        if stale:  # the views of the live slots, taken again after every change of them
            stale = False
            y, Sl, tl, hl, lol, hil = Y[:live], S[:live], t[:live], h[:live], lo[:live], hi[:live]
            hb, rb = hl[:, None, None], rtol[:live, None, None]
            comb3, combl, Kl = comb[:live], comb_flat[:live], K[:live]
            stages = list(zip(_A_ROWS[1:], [K[:live, :i] for i in range(1, _STAGES)],
                              [K4[:live, i] for i in range(1, _STAGES)]))
            step_parts = parts(slice(0, live), _STAGES)
            n, k = y.shape[1:]
        A = _coefficient(step_parts, np.minimum(np.maximum(tl + _C_COLUMN * hl, lol), hil))
        np.matmul(A[0], y, out=K4[:live, 0])
        for Ai, (weights, before, Ki) in zip(A[1:], stages):
            np.matmul(weights, before, out=combl)
            comb3 *= hb
            comb3 += y
            np.matmul(Ai, comb3, out=Ki)
        np.matmul(_B, Kl, out=combl)
        comb3 *= hb
        comb3 += y
        e = np.matmul(_E, Kl) / (1e-12 + rb * np.maximum(np.abs(y), np.abs(comb3))).reshape(live, 1, -1)

        # the controller, per member in Python floats (err ** -0.125 and the
        # logs as libm gives them)
        ok, scale, rows, done = [], [], [], []
        for j, ((n5, n3), s, (tj, hj, lsj, rej, acc, t0j, t1j, _, _, min_hj, tolj, _)) in enumerate(zip(
                np.vecdot(e, e).tolist(), np.abs(comb3).max(axis=(1, 2)).tolist(), Sl.tolist())):
            err = 0.0 if n5 == 0.0 and n3 == 0.0 else hj * n5 / math.sqrt((n5 + 0.01 * n3) * (n * k))
            if not math.isfinite(err):
                raise EstimationError(f"non-finite error estimate at t = {tj:.6g} inside the smooth piece "
                                      f"({t0j:.6g}, {t1j:.6g})")
            ok.append(err <= 1.0)
            if err <= 1.0:
                # the block is rescaled to max-abs 1; one that reached 0 ends its member at -inf
                tj, acc = tj + hj, acc + 1.0
                scale.append(s if s != 0.0 else 1.0)
                if s == 0.0:
                    bj = batch(j)
                    lsj, bj.at[member[j]] = -math.inf, len(bj.chains[member[j]])
                elif s != 1.0:
                    lsj += math.log(s)
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
                hj *= min(1.0, factor) if rej else factor
                rej = 0.0
            else:
                scale.append(1.0)
                hj *= max(0.2, 0.9 * err ** -0.125)
                rej = 1.0
            if s == 0.0 and err <= 1.0 or t1j - tj <= tolj:
                done.append(j)
            else:
                hj = min(hj, t1j - tj)
                # underflow means the controller collapsed, not merely a short remainder
                if hj < min_hj and hj < 0.99 * (t1j - tj):
                    raise _underflow(tj, t0j, t1j)
            rows.append((tj, hj, lsj, rej, acc))
        Sl[:, :5] = rows
        np.copyto(y, comb3 / np.array(scale)[:, None, None], where=np.array(ok)[:, None, None])
        step += 1
        if done:
            for j in done:
                batch(j).total[member[j]] += ls[j]
            live, started = regroup(live, done)
            stale = True


# the coefficients b_0, ..., b_13 of the diagonal Pade approximant of
# degree 13 to exp (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def expm(A):
    """The exponentials of the stack A (p, N, N), by the diagonal Pade
    approximant r13 = (V - U)^-1 (V + U) of degree 13, without scaling: its
    backward error is below unit roundoff while |A|_1 <= theta_13 = 5.37
    (Higham 2005), which ``_exact_flow`` ensures.  A diagonal matrix takes
    ``np.exp`` of its diagonal, as scipy.linalg.expm does, so exp(0) is I
    exactly.  Each exponential depends on its own matrix alone, bit for bit."""
    A = np.asarray(A, dtype=float)
    p, n, _ = A.shape
    off = A.reshape(p, n * n).copy()
    off[:, ::n + 1] = 0.0
    full = off.any(axis=1)  # not diagonal
    E = np.zeros_like(A)
    E.reshape(p, n * n)[~full, ::n + 1] = np.exp(A.reshape(p, n * n)[~full, ::n + 1])
    if full.any():
        M = A[full]
        b = _PADE13
        M2 = M @ M
        M4 = M2 @ M2
        M6 = M4 @ M2
        U = M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2) + b[7] * M6 + b[5] * M4 + b[3] * M2
        V = M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2) + b[6] * M6 + b[4] * M4 + b[2] * M2
        U.reshape(len(M), n * n)[:, ::n + 1] += b[1]
        V.reshape(len(M), n * n)[:, ::n + 1] += b[0]
        U = M @ U
        # np.linalg.solve's gufunc under its error state, without its wrapper
        with np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
            E[full] = _umath_linalg.solve(V - U, V + U, signature="dd->d")
    return E


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _exact_flow(A, t0, t1):
    """expm(h A) over the pieces (t0, t1) of the stack A (p, N, N), h = t1 -
    t0 per matrix, as (unit max-abs matrices (p, N, N), log scales (p,)).

    E = expm(h A / 2^s) with, per matrix, the smallest s making
    |h A / 2^s|_1 <= 4, then s squarings, each preceded by pulling out the
    max-abs scale: the work is logarithmic in |A| h and no entry overflows
    or underflows.  The matrices are exponentiated in one ``expm`` call;
    the rare ones with s > 0 are squared one by one.
    """
    h = t1 - t0
    norm = h * np.abs(A).sum(axis=1).max(axis=1)
    bad = np.flatnonzero(~np.isfinite(norm))
    if len(bad):
        raise EstimationError(f"non-finite coefficient on the piece ({t0[bad[0]]:.6g}, {t1[bad[0]]:.6g})")
    s = np.array([math.ceil(math.log2(x / 4.0)) if x > 4.0 else 0 for x in norm.tolist()], dtype=np.intc)
    E = expm(np.ldexp(h, -s)[:, None, None] * A)
    m = np.abs(E).max(axis=(1, 2))
    E /= m[:, None, None]
    log_scales = [math.log(x) for x in m.tolist()]
    for i in np.flatnonzero(s).tolist():
        Ei = E[i]
        for _ in range(s[i]):
            Ei = Ei @ Ei
            log_scales[i] *= 2.0
            mi = float(np.abs(Ei).max())
            Ei /= mi
            log_scales[i] += math.log(mi)
        E[i] = Ei
    return E, log_scales


def _knots(model, omega, t):
    """0, the coefficient's breakpoints inside (0, t) and t, strictly
    increasing, as a list.

    A breakpoint within a few ulps of 0 or t is dropped: it is a boundary
    that rounding moved off a step end, and keeping it would split off a
    sliver piece that costs a flow of its own and moves nothing.
    """
    snap = 8.0 * _EPS * max(1.0, t)
    end = t - snap
    inner = [b for b in map(float, model.breakpoints(omega, 0.0, t)) if snap < b < end]
    if len(inner) > 1 and not all(map(float.__lt__, inner, inner[1:])):  # unsorted or repeated
        inner = sorted(set(inner))
    return [0.0, *inner, float(t)]


def _pieces(model, omega, t):
    """The pieces of [0, t] from ``omega`` between its ``_knots``, as
    (a, b, A): A is a copy of ``model.piece_matrix`` when the coefficient
    is constant on the piece (a model may refill the array it returns),
    else None.  [0, 0] is one smooth sliver, which ``_dop853`` only
    rescales."""
    if t == 0:
        return [(0.0, 0.0, None)]
    knots = _knots(model, omega, t)
    pieces = []
    for a, b in zip(knots, knots[1:]):
        A = model.piece_matrix(omega, a, b)
        pieces.append((a, b, None if A is None else np.array(A, dtype=float)))
    return pieces


def _with_flows(chains, pieces=()):
    """The chains of ``_pieces``, each constant piece (a, b, A) as (a, b,
    its ``_exact_flow``), and the flows (E (len, N, N), log scales) of the
    constant ``pieces`` (a, b, A) besides: all of them from one stacked
    ``_exact_flow`` call, ``pieces`` first, and none without a constant
    piece."""
    todo = [*pieces, *(piece for chain in chains for piece in chain if piece[2] is not None)]
    if not todo:
        return chains, (None, [])
    a, b, A = zip(*todo)
    E, log_scales = _exact_flow(np.stack(A), np.array(a), np.array(b))
    flows = zip(E[len(pieces):], log_scales[len(pieces):])
    chains = [[(a, b, None if A is None else next(flows)) for a, b, A in chain] for chain in chains]
    return chains, (E[:len(pieces)], log_scales[:len(pieces)])


def _positive(name, value) -> np.ndarray:
    """``value``, a number or a 1-D sequence of them, as a float array; a
    number that is not finite and > 0 raises ValueError naming it, as
    ``name`` or ``name[i]``."""
    xs = np.asarray(value, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"{name} must be a number or a 1-D sequence of numbers, got shape {xs.shape}")
    for i, x in enumerate(xs.ravel().tolist()):
        if not (math.isfinite(x) and x > 0.0):
            where = name if xs.ndim == 0 else f"{name}[{i}]"
            raise ValueError(f"{where} must be finite and > 0, got {where} = {x!r}")
    return xs


def propagate(model: OdeModel, omega, Y, t, rtol=1e-10):
    """Evolve the columns of Y over [0, t], splitting at coefficient breakpoints.

    Pieces with a constant coefficient (``model.piece_matrix``) take the
    exact flow; the rest take adaptive DOP853 at ``rtol``, which must be
    finite and > 0.  Returns (Y_out, log_scale) with max-abs(Y_out) = 1 and
    the true solution equal to exp(log_scale) * Y_out.

    ``t`` may be a 1-D sequence of times, and ``omega`` either one base
    point or a list (or tuple) of one per time: each (base point, time) pair
    is one member of a single ``_dop853`` batch, and for a sequence the
    result is (Y_outs, log_scales), stacked along a first axis, each member
    bit for bit what the pair gives alone.  A scalar ``t`` is the batch of
    one member.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"t must be a time or a 1-D sequence of times, got shape {ts.shape}")
    times = ts.ravel().tolist()
    for i, tj in enumerate(times):
        where = "t" if ts.ndim == 0 else f"t[{i}]"
        if not math.isfinite(tj):
            raise ValueError(f"propagate requires finite times, got {where} = {tj!r}")
        if tj < 0:
            raise ValueError(f"propagate requires t >= 0, got {where} = {tj!r}")
    rtol = float(_positive("rtol", rtol))
    if not isinstance(omega, (list, tuple)):
        omega = [omega] * len(times)
    elif len(omega) != len(times):
        raise ValueError(f"{len(omega)} base points for {len(times)} times")
    Y = np.array(Y, dtype=float)
    squeeze = Y.ndim == 1
    bad = np.argwhere(~np.isfinite(Y))
    if len(bad):
        raise ValueError(f"initial condition must be finite: entry {bad[0].tolist()} is {Y[tuple(bad[0])]}")
    if squeeze:
        Y = Y[:, None]
    if not np.any(Y):
        raise ValueError("initial condition must be nonzero")
    chains, _ = _with_flows([_pieces(model, w, tj) for w, tj in zip(omega, times)])
    batch = (omega, chains, np.broadcast_to(Y, (len(times), *Y.shape)), rtol)
    Ys, log_scales, _, _ = next(_dop853(model, [batch], 1))
    if squeeze:
        Ys = Ys[:, :, 0]
    return (Ys[0], float(log_scales[0])) if ts.ndim == 0 else (Ys, log_scales)


def flow_maps(model: OdeModel, windows, dt, ahead=2):
    """The flow maps over [0, dt] of the windows ``(first, k, rtol)``, the
    ``k`` steps of ``dt`` from ``first`` at ``rtol``, yielded per window in
    order as (maps (k, N, N), log_scales (k,)): map j of a window is bit for
    bit ``propagate`` of the identity from ``advance_steps(first, j, dt)``
    at the window's rtol, so the maps depend on their steps alone, not on
    any window before.

    Each window is walked against its own breakpoints (``_walk``), and the
    steps it propagates go through ``_dop853`` as one batch.  The batches of
    the windows are one DOP853 stream, entered at the first window that
    propagates a step: a window's slow members step alongside the next
    windows', and at most ``ahead`` windows are in flight, walked and not
    yet yielded.  The windows before the first that propagates a step are
    yielded as they are walked; a stream of windows whose steps all lie
    whole on constant pieces never enters DOP853.
    """
    walks = ((_walk(model, first, k, dt), rtol) for first, k, rtol in windows)
    for window, rtol in walks:
        if window[2]:
            break
        yield window[:2]
    else:
        return
    walked, eye = deque(), np.eye(model.n)  # the windows drawn into the stream and not yet yielded

    def draw(window, rtol):
        maps, log_scales, todo, states, chains = window
        walked.append((maps, log_scales, todo))
        return states, chains, np.broadcast_to(eye, (len(todo), model.n, model.n)), rtol

    stream = _dop853(model, starmap(draw, chain([(window, rtol)], walks)), ahead)
    del window
    for Ys, scales, _, _ in stream:
        maps, log_scales, todo = walked.popleft()
        maps[todo], log_scales[todo] = Ys, scales
        yield maps, log_scales


def _walk(model, first, k, dt):
    """One window of ``flow_maps``, walked: (maps, log_scales, todo,
    states, chains), the maps of the ``k`` steps from ``first`` filled but
    for the steps ``todo`` to propagate, their base points and their
    ``_pieces`` chains with flows.

    ``model.breakpoints`` is asked once for the window [0, k dt] from
    ``first``, and ``model.piece_matrix`` once per constant piece of it
    that holds a whole step.  Such a step takes the piece's unit flow over
    dt, which is what ``propagate`` returns for it: E @ I is E, and max |E|
    is 1.  A step across a breakpoint, or on a smooth piece, is propagated.
    Rounding places the window's breakpoints and a step's own a few ulps
    apart, so the steps on a constant piece with an end within ``_NEAR`` dt
    of a breakpoint or of the window's ends are judged by one
    ``model.inner_breaks`` call after the walk, and those that hold a
    breakpoint of their own are propagated too.  Only the propagated steps
    get a base point.  One stacked ``_exact_flow`` call then gives the
    flows of the constant pieces and of the propagated steps' constant
    pieces, and the whole steps are filled by indexing.
    """
    span = k * dt
    near = _NEAR * dt
    edges = np.unique(np.concatenate(
        ([0.0, span], np.asarray(model.breakpoints(first, 0.0, span), dtype=float))))
    starts = dt * np.arange(k)
    ends = starts + dt

    def edges_in(a, b):  # the number of edges in (a, b] per step
        return np.searchsorted(edges, b, side="right") - np.searchsorted(edges, a, side="right")

    across = edges_in(starts + near, ends - near) > 0
    doubtful = (edges_in(starts - near, ends + near) > 0) & ~across
    pieces = np.searchsorted(edges, starts + 0.5 * dt, side="right") - 1
    maps, log_scales = np.empty((k, model.n, model.n)), np.empty(k)
    # the piece of the last whole step, and the slot of its flow in ``new``
    # (None on a smooth piece)
    piece = slot = None
    new, whole, slots = [], [], []  # the constant pieces; the whole steps and their slots
    doubts = []  # the places in ``whole`` of the doubtful steps
    todo, states, chains = [], [], []  # the steps to propagate, their base points and pieces

    def propagated(j):
        todo.append(j)
        states.append(advance_steps(first, j, dt))
        chains.append(_pieces(model, states[-1], dt))

    for j, i, cross, doubt in zip(range(k), pieces.tolist(), across.tolist(), doubtful.tolist()):
        if not cross and i != piece:
            piece, A = i, model.piece_matrix(first, float(edges[i]), float(edges[i + 1]))
            if A is not None:
                new.append((0.0, dt, np.array(A, dtype=float)))  # a model may refill A
            slot = None if A is None else len(new) - 1
        if cross or slot is None:
            propagated(j)
        else:
            if doubt:
                doubts.append(len(whole))
            whole.append(j)
            slots.append(slot)
    if doubts:
        split = np.asarray(doubts)[model.inner_breaks(first, np.asarray(whole)[doubts], dt)].tolist()
        for d in split:
            propagated(whole[d])
        for d in reversed(split):
            del whole[d], slots[d]
    chains, (E, ls) = _with_flows(chains, new)
    if whole:
        maps[whole], log_scales[whole] = E[slots], np.array(ls)[slots]
    return maps, log_scales, todo, states, chains


def _unit_scaled(U):
    """U (N, k), each finite nonzero column whose 2-norm would overflow or
    lose digits divided in place by its largest absolute entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.vecdot(U, U, axis=0)
    far = ~((np.finfo(float).tiny <= squares) & (squares < math.inf)) & U.any(axis=0) & np.isfinite(U).all(axis=0)
    U[:, far] /= np.abs(U[:, far]).max(axis=0, initial=0.0)
    return U


def integrate(model: OdeModel, omega, u0, t, rtol=1e-10):
    """Solve u' = A(theta_t w)u from u0 over [0, t].

    Returns (direction, log_scale): direction is the unit (ell-2) final
    direction and log_scale = ln(|u(t)| / |u0|), the accumulated growth, so
    u(t) = exp(log_scale) * |u0| * direction.

    As in ``propagate``, ``t`` may be a 1-D sequence of times with ``omega``
    one base point or a list of as many; the (base point, time) pairs are
    then integrated as one DOP853 batch, and the directions (len(t), N) and
    log scales (len(t),) are bit for bit those of one call per pair.
    """
    u0 = np.array(u0, dtype=float)
    n0 = float(np.linalg.norm(_unit_scaled(u0[:, None])[:, 0]))
    if n0 == 0.0:
        raise ValueError("u0 must be nonzero")
    scalar = np.ndim(t) == 0
    v, ls = propagate(model, omega, u0, [t] if scalar else t, rtol=rtol)
    # a norm and a log per row, in the bits a batch of one takes them
    nv = [float(np.linalg.norm(row)) for row in v]
    d = v / np.array(nv)[:, None]
    ls = np.array([lj + math.log(nj) - math.log(n0) for lj, nj in zip(ls.tolist(), nv)])
    return (d[0], float(ls[0])) if scalar else (d, ls)


# ---------------------------------------------------------------------------
# structure checks


def check_O(model: OdeModel, driver, seed, n_samples) -> list[AssumptionReport]:
    """The O1 and O2 reports on one walk over ``n_samples`` base points.

    O1, cooperativity: off-diagonal entries nonnegative at 17 evenly spaced
    times in [0, 1] per base point, up to the fifth failing base point.
    O2, integrability: mean +/- CI of the max entry at time 0 of every base
    point."""
    n_samples = _count("n_samples", n_samples, 1)
    t_grid = np.linspace(0.0, 1.0, 17)
    omega = driver.initial(seed)
    witnesses, vals = [], []
    off = ~np.eye(model.n, dtype=bool)
    for k in range(n_samples):
        base = omega.advance(float(k))
        for t in t_grid:
            A = model.field(base, float(t))
            if t == 0.0:
                vals.append(float(A.max()))
            if len(witnesses) >= 5:
                break
            bad = (A < 0.0) & off
            if np.any(bad):
                i, j = map(int, next(zip(*np.where(bad))))
                witnesses.append((k, float(t), i, j, float(A[i, j])))
                break
    m, hw = mean_ci(vals)
    return [AssumptionReport(condition="O1", verdict="fails" if witnesses else "holds",
                             witnesses=witnesses, detail=f"{n_samples} base points x {len(t_grid)} grid times"),
            AssumptionReport(condition="O2", verdict="empirical", estimate=m, ci=hw,
                             detail="sample moments cannot certify integrability")]


# ---------------------------------------------------------------------------
# irreducibility quantities


@dataclass
class IrreducibilityQuantities:
    """Constructive bounds for the time-1 map of a cooperative system.

    a_tilde[i]    = min over t in [0,1] of the running integral of a_ii
    a_bar[i][j]   = min over s in [0,1] of the tail integral of a_ij
    beta_i[i]     = chain product lower bound for column i of the time-1 map
    beta_lower    = min_i beta_i
    beta_upper    = exp of the integral over [0,1] of the summed row maxima,
                    its trapezoid sum raised by the last refinement's change:
                    the package's one upper bound on the ell-1 growth of
                    nonnegative solutions, so on every entry of the time-1 map
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
    on a grid refined by halving until both the summed entry minima of F
    and the trapezoid integral of the summed row maxima move by less than
    1e-8; returns (grid, vals, F, row_max_int): the coefficient at each grid
    point and F, both of shape (len(grid), N, N), and an upper estimate of
    the integral of the summed row maxima.

    Each piece between the ``_knots`` has a grid of its own, with both ends,
    so a breakpoint appears twice; the coefficient there is the piece's
    one-sided limit, taken 1e-13 (b - a) inside the piece (a, b).  No
    trapezoid spans a jump, and the rule is exact on a constant piece.

    Each pass halves every interval of the last, so on a smooth piece the
    trapezoid error of the last pass is about a third of the change that
    pass made; row_max_int adds the whole change to the last sum, so on
    smooth pieces it lies above the integral whichever way the row maxima
    curve."""
    knots = _knots(model, omega, 1.0)
    base = [math.ceil((b - a) * 32) for a, b in zip(knots, knots[1:])]
    k, prev = 0, None
    while True:
        grid, vals = [], []
        for a, b, n in zip(knots, knots[1:], base):
            ts = np.linspace(a, b, (n << k) + 1)
            lo, hi = a + 1e-13 * (b - a), b - 1e-13 * (b - a)
            grid.append(ts)
            vals += [model.field(omega, max(min(t, hi), lo)) for t in ts.tolist()]
        grid, vals = np.concatenate(grid), np.stack(vals)
        incr = 0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)[:, None, None]
        F = np.concatenate([np.zeros((1, model.n, model.n)), np.cumsum(incr, axis=0)])
        cur = np.array([F.min(axis=0).sum(), np.trapezoid(vals.max(axis=2).sum(axis=1), grid)])
        if prev is not None and (np.all(np.abs(cur - prev) < 1e-8) or k == 10):
            return grid, vals, F, float(cur[1] + abs(cur[1] - prev[1]))
        prev, k = cur, k + 1


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


def irreducibility_quantities(model: OdeModel, omega, delta=None) -> IrreducibilityQuantities:
    """Compute the chain lower bounds for the time-1 map of a cooperative system.

    Each start index i gets a chain, a permutation (j1 = i, ..., jN) found by
    maximizing the minimum off-diagonal entry along the path (entries
    minimized over a refining time grid on [0,1]), and ``delta`` defaults to
    that minimum.  delta must be strictly positive.
    """
    n = model.n
    grid, vals, F, row_max_int = _cumulative_integrals(model, omega)
    a_tilde = F.min(axis=0).diagonal().copy()          # min_t int_0^t a_ii
    a_bar = F[-1][None, :, :] - F.max(axis=0)          # min_s int_s^1 a_ij
    a_bar = a_bar[0]

    # pointwise minima of each entry over the grid, for chain discovery
    entry_min = vals.min(axis=0)

    W = entry_min.copy()
    np.fill_diagonal(W, -np.inf)
    chains = _chain_search(W)

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

    beta_upper = float(np.exp(row_max_int))

    return IrreducibilityQuantities(
        a_tilde=a_tilde, a_bar=a_bar, delta=delta, beta_i=beta_i,
        beta_lower=float(beta_i.min()), beta_upper=beta_upper,
        beta_tilde_i=beta_tilde_i, beta_tilde_lower=float(beta_tilde_i.min()),
        chains=chains, grid_points=len(grid))


# ---------------------------------------------------------------------------
# type-K conjugacy


class TypeKFlipModel(OdeModel):
    """Sign-conjugated coefficient: flips the off blocks of a type-K field,
    blocks k and N - k, so the result is cooperative; solutions correspond
    exactly under the sign flip of the last N - k coordinates."""

    def __init__(self, b_model: OdeModel, k: int):
        if not 1 <= k < b_model.n:
            raise ValueError(f"type-K block size k must satisfy 1 <= k < N = {b_model.n}, got k = {k}")
        super().__init__(b_model.n)
        self.b_model = b_model
        self.k = k
        self.flip = np.concatenate([np.ones(k), -np.ones(b_model.n - k)])

    def _flipped(self, B):
        """B, one matrix or a stack, with its off blocks' signs flipped."""
        _check_type_k(B, self.k)
        return (self.flip[:, None] * B) * self.flip[None, :]

    def field(self, state, t: float) -> np.ndarray:
        return self._flipped(self.b_model.field(state, t))

    def breakpoints(self, state, t0, t1):
        return self.b_model.breakpoints(state, t0, t1)

    def inner_breaks(self, first, steps, dt):
        return self.b_model.inner_breaks(first, steps, dt)

    def piece_fields(self, states, t0s, t1s):
        inner = self.b_model.piece_fields(states, t0s, t1s)
        return lambda pieces, taus: self._flipped(inner(pieces, taus))

    def piece_matrix(self, state, t0, t1):
        B = self.b_model.piece_matrix(state, t0, t1)
        return None if B is None else self._flipped(B)


def _check_type_k(B, k):
    """Raise on the first entry of B, one matrix or a stack of them, that
    breaks the type-K sign pattern of blocks k and N - k."""
    n = B.shape[-1]
    off = ~np.eye(n, dtype=bool)
    same = np.zeros((n, n), dtype=bool)
    same[:k, :k] = True
    same[k:, k:] = True
    bad = ((B < 0.0) & off & same) | ((B > 0.0) & ~same)
    if np.any(bad):
        where = next(zip(*np.where(bad)))
        i, j = map(int, where[-2:])
        raise ValueError(f"type-K sign pattern violated at entry ({i}, {j}) = {B[where]}")
