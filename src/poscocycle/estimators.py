"""Numerical estimators for positive cocycles: forward principal-direction
iteration, pullback (entire) orbits, pullback-converged directions of a
cocycle or of its dual, exponential separation, a QR Lyapunov-spectrum
oracle, the quadratic-form (kappa) route to the top exponent, and the trend
verdict on finite-horizon means.

Estimators read a cocycle over a matrix model, an ODE model (the flow
over a fixed dt) or the ``AdjointCocycle`` of either through one stream of
its maps: ``step_blocks(omega, lo, hi)`` serves the scale-separated maps of
steps [lo, hi) as chunks (maps (k, N, N), log_scales (k,)), naming step k's
base point ``advance(omega, k)``, exactly k dt on, however a read reaches
it.  A ``replay`` is ``step_blocks`` bound to omega; only ``OdeCocycle``
stores its flow maps instead, built once by ``stored_replays``, whose one
``odes.flow_maps`` stream may fill the stores of several reads at once:
their windows one read after another, with at most two windows per read in
flight.
Each step loop walks the maps of a chunk in place and frees the chunk
before the next is built.  ``forward_floquet`` and ``oseledets_qr`` do per
step only what the next step needs (the product, then the column norms and
the renormalised block, or the QR); each chunk is then closed at once: one
test per chunk on the iterates, a careful re-walk from the first step that
needs care (an annihilated column, a non-finite iterate, a clipped cone
excursion), then the logs, running sums and history rows, summed step
after step as a per-step loop sums them, so the results are bit-identical.
``oseledets_qr`` reads only |diag R|, so its QR (``_qr``) factors the
step's product in place and applies no signs.  Every vector orbit walks
through ``_forward``, which checks the orthant: so do both directions of
``separation_estimate``, the dual one over the transposed maps, latest
step first, with the complement frame on its closed chunks.  QR (dgeqrf,
dorgqr) and spectral norms (dgesdd) call the LAPACK gufuncs of
``numpy.linalg`` without the wrappers, so the module loads no scipy, and
neither does ``odes``.

Each command walks its steps once: ``forward_floquet`` takes a block of
probes as columns and applies each step map to the block, so the warmed and
the raw probe of an estimate share one pass, the pullbacks of depth d and
2d share their last d steps (``pullback_convergence``), and the kappa route
reads the directions of the tracked probe instead of walking its orbit
again, a chunk of steps at a time (one ``row_fields`` call and one ``einsum``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain

import numpy as np
from numpy.linalg import _umath_linalg

from .drivers import BLOCK_CELLS, advance_steps
from .errors import EstimationError, PositivityViolation
from .matrices import MatrixModel, _count
from .odes import OdeModel, _positive, _unit_scaled, flow_maps
from .stats import batch_means


# ---------------------------------------------------------------------------
# cocycle protocol


class _Cocycle:
    """Shared protocol: step k from omega has the one base point
    ``advance(omega, k)``; the dual is the adjoint.  ``step_blocks(omega,
    lo, hi, backward=False)`` yields the maps of steps [lo, hi) in chunks of
    at most BLOCK_CELLS, in step order, or with ``backward`` latest first."""

    def advance(self, state, steps=1):
        return advance_steps(state, steps, self.dt)

    def dual(self):
        return AdjointCocycle(self)

    def replay(self, omega, lo, hi):
        """A source of the maps of steps [lo, hi) from ``omega`` that may be
        read more than once, as ``blocks(a, b, backward=False)``: a cocycle
        is fixed by its one-step maps, so a read is ``step_blocks`` afresh
        and nothing is stored."""
        return partial(self.step_blocks, omega)


class MatrixCocycle(_Cocycle):
    """Discrete cocycle: one step applies the emitted matrix.  Its chunks
    are the model's ``chunks``, emitted afresh on every read, so a sweep
    emits exactly the cells it reads and a changed model is seen at once."""

    def __init__(self, model: MatrixModel):
        self.model = model
        self.n = model.n
        self.dt = 1
        self.cone_tol = 1e-12

    def step_blocks(self, omega, lo, hi, backward=False):
        for maps in self.model.chunks(self.advance(omega, lo), hi - lo, backward):
            yield maps, np.zeros(len(maps))
            del maps  # freed before the next chunk is emitted


class OdeCocycle(_Cocycle):
    """Continuous cocycle sampled at a fixed step dt: the exact flow on
    constant pieces and adaptive DOP853 at ``rtol`` elsewhere.  A chunk of
    up to BLOCK_CELLS flow maps, cut at lo + multiples of BLOCK_CELLS, is
    one window of ``flow_maps`` from its first base point, as a matrix
    chunk is one emission: it depends on its steps alone, not on the chunk
    read before it."""

    def __init__(self, model: OdeModel, dt: float = 0.1, rtol: float = 1e-10):
        """``dt`` and ``rtol`` must be finite and > 0."""
        self.model = model
        self.n = model.n
        self.dt = float(_positive("dt", dt))
        self.rtol = float(_positive("rtol", rtol))
        self.cone_tol = 1e-9

    def step_blocks(self, omega, lo, hi, backward=False):
        """One ``flow_maps`` stream over the chunks: the steps that a chunk
        propagates share DOP853 steps with the next chunk's, and at most
        two chunks are in flight."""
        return flow_maps(self.model, _windows(omega, lo, hi, self.dt, self.rtol, backward), self.dt)

    def replay(self, omega, lo, hi):
        """The maps of steps [lo, hi) stored in one (hi - lo, N, N) array:
        ``stored_replays`` of the one read.  One read of the N = 3
        piecewise-constant flow maps at dt = 0.1 from an integer start
        costs 1.5-1.6 us per map with block-drawn cells and 5.0-5.2 with a
        user sampler's, an emitted N = 3 map 0.2-0.3 us."""
        return stored_replays(self.model, [(omega, lo, hi, self.rtol)], self.dt)[0]


def _windows(omega, lo, hi, dt, rtol, backward=False):
    """The ``flow_maps`` windows of steps [lo, hi) from ``omega`` at
    ``rtol``, cut at lo + multiples of BLOCK_CELLS, each from its own first
    base point, latest first with ``backward``."""
    cuts = range(lo, hi, BLOCK_CELLS)
    return ((advance_steps(omega, a, dt), min(BLOCK_CELLS, hi - a), rtol)
            for a in (reversed(cuts) if backward else cuts))


def stored_replays(model: OdeModel, reads, dt):
    """The replays of the reads ``(omega, lo, hi, rtol)`` of ``model``'s flow
    maps over ``dt``, each as ``OdeCocycle(model, dt, rtol).replay(omega,
    lo, hi)`` gives it, bit for bit, all filled from one ``flow_maps``
    stream of the reads' windows, one read after another: a read's slow
    DOP853 members step alongside the next chunks', its own or the next
    read's, with at most two chunks per read, 2 len(reads) in all, walked
    and not yet stored.
    Each read's maps are stored in one (hi - lo, N, N) array, cut as
    ``step_blocks`` cuts them, and a replay reads them from there
    (``_stored``)."""
    stores = [(np.empty((hi - lo, model.n, model.n)), np.empty(hi - lo)) for _, lo, hi, _ in reads]
    slots = ((maps[a:a + BLOCK_CELLS], ls[a:a + BLOCK_CELLS]) for maps, ls in stores
             for a in range(0, len(ls), BLOCK_CELLS))
    windows = chain.from_iterable(_windows(omega, lo, hi, dt, rtol) for omega, lo, hi, rtol in reads)
    stream = flow_maps(model, windows, dt, ahead=2 * len(reads))
    for (maps, ls), (chunk, scales) in zip(slots, stream, strict=True):
        maps[:], ls[:] = chunk, scales
    return [_stored(maps, ls, lo) for (maps, ls), (_, lo, _, _) in zip(stores, reads)]


def _stored(maps, ls, lo):
    """A replay of the stored maps of steps [lo, lo + len(maps)): a read
    yields views of at most BLOCK_CELLS maps, cut at lo + multiples of
    BLOCK_CELLS."""
    def blocks(a, b, backward=False):
        cuts = range(a - lo, b - lo, BLOCK_CELLS)
        for c in reversed(cuts) if backward else cuts:
            yield maps[c:b - lo][:BLOCK_CELLS], ls[c:b - lo][:BLOCK_CELLS]
    return blocks


class AdjointCocycle(_Cocycle):
    """Dual of a primal cocycle over the reversed driver: one step at omega is
    the transpose of the primal step at the previous base point, so that
    <S(theta_-1 omega) u, u*> = <u, S*(omega) u*>."""

    def __init__(self, primal):
        self.primal = primal
        self.n = primal.n
        self.dt = primal.dt
        self.cone_tol = primal.cone_tol

    def step_blocks(self, omega, lo, hi, backward=False):
        """Adjoint step s is the primal step -s - 1, transposed: the primal's
        chunks of [-hi, -lo), read the other way, each reversed."""
        return _transposed(self.primal.step_blocks(omega, -hi, -lo, not backward))

    def advance(self, state, steps=1):
        return self.primal.advance(state, -steps)

    def dual(self):
        return self.primal


def _transposed(chunks):
    """Primal chunks as adjoint chunks: views of each, reversed and
    transposed, so a step applies the primal map's transpose, uncopied."""
    for maps, ls in chunks:
        yield maps[::-1].transpose(0, 2, 1), ls[::-1]
        del maps, ls  # freed before the next primal chunk is built


# ---------------------------------------------------------------------------
# the step loops' LAPACK kernels: numpy's own gufuncs behind np.linalg.qr and
# np.linalg.norm(., 2), so bit-identical to them, minus the wrapper overhead


def _norm(x):
    """Euclidean (Frobenius) norm, summed as np.linalg.norm sums it."""
    x = x.ravel(order="K")
    return math.sqrt(x @ x)


def _spectral_norm(A):
    """Largest singular value, as np.linalg.norm(A, 2) computes it (dgesdd);
    a failed SVD comes back as NaN and raises LinAlgError."""
    with np.errstate(invalid="ignore"):
        s = float(_umath_linalg.svd(A)[0])
    if not math.isfinite(s):
        raise np.linalg.LinAlgError(f"LAPACK dgesdd failed (largest singular value {s})")
    return s


def _qr(V):
    """Householder QR of V (m >= n), as np.linalg.qr computes it: Q (m, n)
    in C order, and V itself, which dgeqrf factors in place (R is the upper
    triangle of its top n rows).

    No signs are applied to make diag R nonnegative, since a QR step loop
    that reads only |diag R| does not need them: negating a column of V
    leaves dlarfg's Householder vector and tau unchanged and negates that
    column of R, and so does every later column update; gemm negates a
    column of its product exactly.  A loop over the unsigned Q is therefore
    the signed loop up to column signs, and its |diag R| is equal bit for
    bit."""
    return _umath_linalg.qr_reduced(V, _umath_linalg.qr_r_raw(V)), V


# ---------------------------------------------------------------------------
# forward iteration


@dataclass
class FloquetTrack:
    """Running principal direction: unit w, accumulated log growth, horizon,
    and the rows recorded every ``record_every`` steps: their ``times``, the
    log growth since the previous row (``log_rho``) and the unit direction
    there (``directions``, one row each)."""

    w: np.ndarray
    log_growth: float
    horizon: float
    lambda1: float
    times: np.ndarray
    log_rho: np.ndarray
    directions: np.ndarray


def _step_count(name, horizon, dt):
    """The number of steps of length ``dt`` that ``horizon`` covers; a
    non-finite horizon or one that rounds to no step raises ValueError."""
    if not math.isfinite(horizon):
        raise ValueError(f"{name} requires a finite horizon, got horizon = {float(horizon)!r}")
    n_steps = int(round(horizon / dt))
    if n_steps < 1:
        raise ValueError("horizon must cover at least one step")
    return n_steps


def _enforce_cone(U, tol, t):
    """Check that the columns of U lie in the nonnegative orthant up to
    ``tol``; clip roundoff-level excursions so the returned directions are
    members."""
    i, j = np.unravel_index(U.argmin(), U.shape)
    if U[i, j] < -tol:
        raise PositivityViolation(
            f"trajectory left the cone at t = {t:.6g}: coordinate {i} = {U[i, j]:.3e}",
            witness=(t, int(i), float(U[i, j])))
    return np.maximum(U, 0.0)


def _column_norms(V):
    return np.sqrt(np.vecdot(V, V, axis=0))


def _row_sums(ln, since, done, every):
    """The history rows that a chunk's steps complete, rows of ``every``
    steps: ``ln`` holds the steps' ln rho (m, k), ``since`` the sum of the
    ``done`` steps of the current row walked before the chunk (None at a
    row's start).  A row's ln rho is its steps' summed in order, as a
    per-step loop sums them.  Returns the rows (q, k) and the sum carried
    into the next chunk."""
    rows = []
    if since is not None and len(ln):
        head = ln[:every - done].copy()
        head[0] += since
        since = np.add.accumulate(head, axis=0, out=head)[-1]
        if done + len(head) == every:
            rows.append(since[None])
            since = None
        ln = ln[len(head):]
    q = len(ln) // every
    rows.append(np.add.accumulate(ln[:q * every].reshape(q, every, ln.shape[1]), axis=1)[:, -1])
    if len(ln) > q * every:
        since = np.add.accumulate(ln[q * every:], axis=0)[-1]
    return np.concatenate(rows), since


def forward_floquet(cocycle, omega, u0, horizon, record_every=0):
    """Iterate u <- (one-step map) u with renormalization, accumulating ln rho.

    ``u0`` is one probe (N,) or a block of probes as columns (N, k), each
    with finite entries.  The columns walk the steps together, each step map
    applied to the block once, and each column is renormalised and
    cone-checked on its own.  A probe returns one FloquetTrack, a block a
    list of k, one per column, each equal up to rounding to the track of its
    column alone.  A track's ``lambda1`` is the finite-horizon growth-rate
    estimate log_growth / horizon.  A column whose image is exactly 0 gets
    log growth -inf, that zero image as ``w`` and no further rows; the
    others go on.  An iterate that leaves the nonnegative orthant by more
    than the cocycle's ``cone_tol`` raises PositivityViolation.

    A step applies the map and writes the column norms and the renormalised
    block into the chunk's rows.  At chunk close one test finds the first
    step that needs care (a norm 0 or not finite, or an entry below 0),
    from which the chunk is walked again step by step with the checks; then
    the logs, the log growth and the history rows are taken, each summed
    step after step as a per-step loop sums them.
    """
    n_steps = _step_count("forward_floquet", horizon, cocycle.dt)
    record_every = _count("record_every", record_every, 0)
    return _forward(cocycle, cocycle.step_blocks(omega, 0, n_steps), range(n_steps), u0, record_every)


def _forward(cocycle, chunks, steps, u0, record_every=0, close=None):
    """``forward_floquet`` over ``chunks``, the maps of the range ``steps``
    in at most BLOCK_CELLS maps each (``step_blocks``, a ``replay`` read or,
    stepping down, its ``_transposed`` read).  A non-finite map is named by
    its step, a cone witness by the time of its iterate (s + 1 after a step
    s up, s after a step s down), the rows' ``times`` from the first step.
    ``close`` gets each closed chunk's maps, log scales and iterates
    (walked + 1, N, k), unless every column was annihilated."""
    U = np.array(u0, dtype=float)
    bad = np.argwhere(~np.isfinite(U))
    if len(bad):
        raise ValueError(f"u0 must be finite: entry {bad[0].tolist()} is {U[tuple(bad[0])]}")
    single = U.ndim == 1
    if single:
        U = U[:, None]
    nrm = _column_norms(_unit_scaled(U))
    if not nrm.all():
        raise ValueError("u0 must be nonzero")
    tol, dt, (n, k), n_steps = cocycle.cone_tol, cocycle.dt, U.shape, len(steps)
    up = steps.step > 0  # the iterate after a step s is at time s + up
    U = _enforce_cone(U / nrm, tol, (steps[0] + up - steps.step) * dt)
    growth, since = np.zeros(k), None
    # per chunk: its rows' ln rho (rows, k) and directions (rows, N, k)
    ln_rows, u_rows = [np.empty((0, k))], [np.empty((0, n, k))]
    # an annihilated column is done: its zero image is its w, and from then
    # on it walks as a copy of a live column, whose rows it does not keep
    gone, w = np.zeros(k, dtype=bool), np.empty((k, n))
    n_rows = np.full(k, n_steps // record_every if record_every else 0)
    size = min(n_steps, BLOCK_CELLS)
    norms = np.empty((size, k))  # a chunk's step norms, one row per step
    path = np.empty((size + 1, n, k))  # the iterate before the chunk, then one per step
    path[0] = U
    first = 0  # the index in ``steps`` of the chunk's first step
    for maps, ls in chunks:
        walked = len(maps)
        with np.errstate(all="ignore"):
            for M, U, r, out in zip(maps, path, norms, path[1:]):
                V = M @ U
                np.sqrt(np.vecdot(V, V, axis=0), out=r)
                np.divide(V, r, out=out)
        # from the first step that needs care on, the chunk walks again
        r = norms[:walked]
        care = ~((0.0 < r) & (r < math.inf)).all(axis=1) | (path[1:walked + 1] < 0.0).any(axis=(1, 2))
        for i in range(care.argmax() if care.any() else walked, walked):
            V = maps[i] @ path[i]
            r = np.sqrt(np.vecdot(V, V, axis=0))
            bad = r[~np.isfinite(r)]
            if bad.size:
                raise EstimationError(f"forward iterate not finite after step {steps[first + i]} (norm {bad[0]})")
            if not r.all():
                dead = (r == 0.0) & ~gone
                w[dead] = V[:, dead].T
                n_rows[dead] = (first + i) // record_every if record_every else 0
                gone |= r == 0.0
                if gone.all():
                    walked = i
                    break
                live = np.flatnonzero(~gone)[0]
                V[:, gone], r[gone] = V[:, live, None], r[live]
            U = V / r
            if not U.min() >= 0.0:
                U = _enforce_cone(U, tol, (steps[first + i] + up) * dt)
                U /= _column_norms(U)
            norms[i], path[i + 1] = r, U
        if close and not gone.all():
            close(maps, ls, path[:walked + 1])
        del maps, M  # freed before the next chunk is built
        # close the chunk's walked steps: ln rho per step, growth and rows
        ln = norms[:walked]
        np.log(ln, out=ln)
        ln += ls[:walked, None]
        if record_every:
            rows, since = _row_sums(ln, since, first % record_every, record_every)
            ln_rows.append(rows)
            u_rows.append(path[record_every - first % record_every:walked + 1:record_every].copy())
        path[0] = path[walked]
        if gone.all():
            break
        ln[0] += growth
        np.add.accumulate(ln, axis=0, out=ln)
        growth = ln[-1].copy()
        first += walked
    log_growth = np.where(gone, -math.inf, growth)
    w[~gone] = path[0].T[~gone]
    T = n_steps * dt
    log_rho = np.concatenate(ln_rows).T
    times = record_every * np.arange(1, log_rho.shape[1] + 1) * dt
    directions = np.concatenate(u_rows).transpose(2, 0, 1).copy()
    tracks = [FloquetTrack(w=w[j], log_growth=float(log_growth[j]), horizon=T,
                           lambda1=float(log_growth[j]) / T, times=times[:n_rows[j]],
                           log_rho=log_rho[j, :n_rows[j]], directions=directions[j, :n_rows[j]])
              for j in range(k)]
    return tracks[0] if single else tracks


def warmup_direction(cocycle, omega, depth):
    """Pullback-converged principal direction at ``omega``: push the uniform
    probe forward from depth steps in the past (depth 0 returns the probe).
    Over ``cocycle.dual()`` it is the dual direction, whose pullback warm-up
    uses base points in the primal's forward orbit.  A probe annihilated on
    the way raises EstimationError."""
    depth = _count("depth", depth, 0)
    return _warmed(cocycle, cocycle.step_blocks(omega, -depth, 0), range(-depth, 0))


def _warmed(cocycle, chunks, steps):
    """The uniform probe walked over ``chunks`` by ``_forward``."""
    probe = np.full(cocycle.n, 1.0 / math.sqrt(cocycle.n))
    if not steps:
        return probe / np.linalg.norm(probe)
    track = _forward(cocycle, chunks, steps, probe)
    if track.log_growth == -math.inf:
        raise EstimationError("warm-up probe annihilated; no principal direction to converge to")
    return track.w


# ---------------------------------------------------------------------------
# pullback (entire) orbits


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


def _pullback(cocycle, omega, lo, probes, depth, record_every=0):
    """The tracks of the columns of ``probes`` pushed over ``depth`` steps
    from step ``lo`` of ``omega``, each of which must survive."""
    tracks = _forward(cocycle, cocycle.step_blocks(omega, lo, lo + depth), range(lo, lo + depth), probes,
                      record_every)
    if any(track.log_growth == -math.inf for track in tracks):
        raise EstimationError("pullback probe was annihilated; model is not positivity-preserving")
    return tracks


def pullback_convergence(cocycle, omega, depth):
    """The depth-``depth`` entire orbit through ``omega`` and its distance at
    time 0 from the pullback of depth 2 * depth, as (EntireOrbit, float).
    Under focusing the orbit approximates the unique entire positive orbit
    through ``omega``.

    The uniform probe is pushed from ``depth`` steps in the past.  A deeper
    copy walks its first ``depth`` steps alone, then the probe joins it as a
    second column: 2 * depth steps in all.  A pullback that leaves the
    nonnegative orthant raises PositivityViolation, timed from ``omega``.
    """
    depth = _count("depth", depth, 1)
    u0 = np.full(cocycle.n, 1.0 / math.sqrt(cocycle.n))
    [deep] = _pullback(cocycle, omega, -2 * depth, u0[:, None], depth)
    track, deeper = _pullback(cocycle, omega, -depth, np.column_stack([u0, deep.w]), depth, record_every=1)
    log_rhos = track.log_rho.tolist()
    # normalize so that the time-0 value is the unit direction
    log_norms = list(accumulate(reversed(log_rhos), operator.sub, initial=0.0))[::-1]
    orbit = EntireOrbit(ns=list(range(-depth, 1)), directions=[u0 / np.linalg.norm(u0), *track.directions],
                        log_norms=log_norms, step_log_rho=log_rhos)
    return orbit, float(np.linalg.norm(orbit.directions[-1] - deeper.w))


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
    M = np.eye(v.size)
    M[:, 0] = v
    Q, _ = np.linalg.qr(M)
    return Q[:, 1:]


def _projection_norm(w, w_star):
    """Spectral norm of the projection onto span(w_star)^perp along span(w)."""
    return _spectral_norm(np.eye(w.size) - np.outer(w, w_star) / float(w @ w_star))


def _adjoint_sweep(cocycle, blocks, n_steps, warmup, sample_every):
    """The dual direction z, walked by ``_forward`` over the transposed maps
    of ``blocks`` latest step first, from the uniform probe over [n_steps,
    n_steps + warmup), then over [0, n_steps) with the complement frame Y
    from a basis of the hyperplane that z annihilates at n_steps.  Per
    chunk the frame forms B_k = P_k M_k^T, P_k = I - z_k z_k^T, and walks
    Y <- B_k Y / |B_k Y|_F: up to those scales, the transpose of the
    restricted product P_n M_(n-1) ... P_1 M_0 B0 (n = n_steps, B0 a basis
    of the hyperplane at step 0), whose log spectral norm is the sum of
    their logs plus log |Y|_2.  Returns z at step 0, z at the multiples of
    ``sample_every`` up to n_steps as rows, and that log norm, or None when
    the frame was annihilated."""
    z = _warmed(cocycle, _transposed(blocks(n_steps, n_steps + warmup, backward=True)),
                range(n_steps + warmup - 1, n_steps - 1, -1))
    z_samples = np.empty((n_steps // sample_every + 1 if sample_every else 0, cocycle.n))
    Y, log_norm, k = None, 0.0, n_steps  # k: the step of the chunk's first iterate

    def close(maps, ls, path):
        nonlocal Y, log_norm, k
        hi, k = k, k - len(maps)  # path holds z at steps hi, hi - 1, ..., k
        if sample_every:
            hits = path[hi % sample_every::sample_every, :, 0]
            z_samples[hi // sample_every - len(hits) + 1:hi // sample_every + 1] = hits[::-1]
        Y = _orth_complement(path[0, :, 0]) if Y is None else Y
        if log_norm is None:
            return
        B = path[1:] * (path[1:].transpose(0, 2, 1) @ maps)
        np.subtract(maps, B, out=B)
        norms, y = [], Y
        with np.errstate(all="ignore"):
            for Bk in B:
                V = Bk @ y
                norms.append(_norm(V))
                y = V / norms[-1]
        # |B_k Y|_F <= |M_k|_F |Y|_F, |Y|_F 1 after a rescaling: a ratio at
        # roundoff level means the complement was annihilated, which ends the
        # frame rather than extrapolate a huge rate; a non-finite norm raises
        r, tiny = np.array(norms), 1e-13 * np.sqrt(np.einsum("kij,kij->k", maps, maps))
        tiny[0] *= _norm(Y)
        ok = (tiny < r) & (r < math.inf)
        if not ok.all():
            i = int(ok.argmin())
            if not math.isfinite(r[i]):
                raise EstimationError(f"complement frame not finite after the adjoint of step {hi - 1 - i} "
                                      f"(norm {r[i]})")
            log_norm = None
            return
        log_norm = float(np.add.accumulate(np.concatenate([[log_norm], np.log(r) + ls]))[-1])  # step after step
        Y = y

    track = _forward(cocycle, _transposed(blocks(0, n_steps, backward=True)), range(n_steps - 1, -1, -1), z,
                     close=close)
    if track.log_growth == -math.inf:
        raise EstimationError("dual probe annihilated during the adjoint sweep")
    if log_norm is not None:
        log_norm += math.log(_spectral_norm(Y))
    return track.w, z_samples, log_norm


def separation_estimate(cocycle, omega, horizon, warmup=50, proj_samples=0) -> SeparationEstimate:
    """Estimate (lambda1, lambda2, sigma) from the growth of the principal
    direction and of the invariant complement, the hyperplane that the dual
    direction annihilates.

    ``cocycle.replay`` serves the maps of [-warmup, T + warmup) to the
    walks of ``_forward``, so all are cone-checked and checked at chunk
    close: the principal direction over [0, T), warmed up over [-warmup, 0)
    as ``warmup_direction`` warms it (lambda1 and w are that
    ``forward_floquet`` walk's bit for bit), then the dual direction over
    the transposed maps, latest step first, warmed up over [T, T + warmup),
    whose walk over [0, T) carries the complement frame
    (``_adjoint_sweep``).  Nothing is kept per step: each read takes the
    maps afresh, save an ``OdeCocycle``'s, whose T + 2 warmup flow maps are
    built once, by one DOP853 stream with two chunks in flight, and
    stored.  The frame is projected onto the dual-null hyperplane at every
    step; without that, roundoff injects a dominant component that grows
    at rate sigma and silently caps the measurable separation near
    ln(1/eps) / horizon.  Sigma comes from the growth *ratio*, which stays
    finite even when both exponents diverge to -inf.  ``proj_samples`` > 0
    additionally records ln |projection onto the complement along the
    principal direction| (the temperedness observable) at t = 0 and after
    every s = max(1, n // proj_samples) steps, n the step count: n // s + 1
    points, so n = 10 with ``proj_samples`` = 6 gives s = 1 and 11 points,
    from the principal walk's rows and the dual directions there.
    """
    if cocycle.n < 2:
        raise ValueError(f"separation needs N >= 2, got N = {cocycle.n}: the invariant complement of a "
                         "one-dimensional system is {0}")
    n_steps = _step_count("separation_estimate", horizon, cocycle.dt)
    warmup = _count("warmup", warmup, 0)
    proj_samples = _count("proj_samples", proj_samples, 0)
    sample_every = max(1, n_steps // proj_samples) if proj_samples else 0
    return _separation(cocycle, cocycle.replay(omega, -warmup, n_steps + warmup), n_steps, warmup, sample_every)


def _separation(cocycle, blocks, n_steps, warmup, sample_every):
    """``separation_estimate`` over ``blocks``, a replay of the maps of
    [-warmup, n_steps + warmup), with a projection sample every
    ``sample_every`` steps, or none when it is 0."""
    w = _warmed(cocycle, blocks(-warmup, 0), range(-warmup, 0))
    track = _forward(cocycle, blocks(0, n_steps), range(n_steps), w, sample_every)
    if track.log_growth == -math.inf:
        raise EstimationError("principal direction annihilated; no positive growth to separate")
    w_star0, z_samples, log_restricted = _adjoint_sweep(cocycle, blocks, n_steps, warmup, sample_every)
    pairing = float(w @ w_star0)
    if abs(pairing) < 1e-8:
        raise EstimationError(f"principal and dual directions nearly orthogonal (pairing {pairing:.3e}); "
                              "projection onto the invariant complement is ill-conditioned")
    proj_history = [(t, math.log(_projection_norm(u, z)))
                    for t, u, z in zip([0.0, *track.times.tolist()], [w, *track.directions], z_samples)]
    dead = log_restricted is None
    sigma = math.inf if dead else (track.log_growth - log_restricted) / track.horizon
    lambda2 = -math.inf if dead else track.lambda1 - sigma
    return SeparationEstimate(lambda1_hat=track.lambda1, lambda2_hat=lambda2, sigma_hat=sigma,
                              w=track.w, w_star=w_star0, f1_basis=_orth_complement(w_star0),
                              projection_norm_history=proj_history, horizon=track.horizon)


# ---------------------------------------------------------------------------
# QR spectrum oracle


def oseledets_qr(cocycle, omega, horizon):
    """Full Lyapunov spectrum via QR re-orthonormalization of an N-frame.

    Returns the exponents sorted in nonincreasing order; coinciding values
    are reported as computed, with no attempt to disambiguate subspaces.

    A step is the QR of M Q, whose R diagonal is stored; each chunk is then
    closed at once, in place on those rows: the finiteness check (naming
    the first bad step), the logs (an exact 0 gives -inf) and the running
    sums, added step after step as a per-step loop adds them.
    """
    n_steps = _step_count("oseledets_qr", horizon, cocycle.dt)
    n = cocycle.n
    Q = np.eye(n)
    sums = np.zeros(n)
    diag = np.empty((min(n_steps, BLOCK_CELLS), n))  # a chunk's R diagonals, one row per step
    first = 0  # the chunk's first step
    for maps, ls in cocycle.step_blocks(omega, 0, n_steps):
        d = diag[:len(maps)]
        for i, M in enumerate(maps):
            Q, F = _qr(M @ Q)
            d[i] = F.diagonal()
        del maps, M  # freed before the next chunk is built
        np.abs(d, out=d)
        finite = np.isfinite(d).all(axis=1)
        if not finite.all():
            k = int(finite.argmin())
            raise EstimationError(f"QR frame not finite after step {first + k} (R diagonal {d[k]})")
        zero = d == 0.0
        np.log(np.maximum(d, 1e-300, out=d), out=d)
        d[zero] = -np.inf
        d += ls[:, None]
        d[0] += sums
        np.add.accumulate(d, axis=0, out=d)
        sums = d[-1].copy()
        first += len(d)
    T = n_steps * cocycle.dt
    return np.sort(sums / T)[::-1]


# ---------------------------------------------------------------------------
# divergence trends


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


# ---------------------------------------------------------------------------
# the quadratic-form route to the top exponent


@dataclass
class KappaRouteEstimate:
    estimate: float
    ci: float
    horizon: float
    dt: float


def lambda1_via_kappa(cocycle: OdeCocycle, omega, directions, batches=8) -> KappaRouteEstimate:
    """Top exponent of a cooperative flow as the time average of the quadratic
    form <A(t) w(t), w(t)> along the principal direction w.

    ``directions`` holds w at the step times 0..n from ``omega``, (n + 1, N):
    a warmed probe and the rows of its ``forward_floquet`` track, recorded
    every step, so the route reads the orbit the growth-rate route walked
    instead of walking it again.  Piecewise trapezoid quadrature over
    [0, n dt] takes the coefficient just right of t_k and just left of
    t_(k+1), nu = 1e-9 dt off, so jumps at cell boundaries (grid cells
    should align with them) do not bias the integral.  A chunk of at most
    BLOCK_CELLS steps takes these limits from one ``model.row_fields``
    call, on the rows of sliver pieces of width 2 nu around their times
    (``model.piece_rows``), so no piece holds a jump, and their quadratic
    forms as one ``einsum``.
    """
    dt = cocycle.dt
    ws = np.asarray(directions, dtype=float)
    n_steps = len(ws) - 1
    if n_steps < 1:
        raise ValueError("directions must cover at least one step")
    horizon = n_steps * dt
    nu = 1e-9 * dt
    kappas = np.empty((n_steps, 2))  # per step k: the right limit at t_k, the left limit at t_(k+1)
    for lo in range(0, n_steps, BLOCK_CELLS):
        k = min(BLOCK_CELLS, n_steps - lo)
        points = (dt * np.arange(k)[:, None] + [nu, dt - nu]).ravel()  # past the chunk's first base point
        rows = cocycle.model.piece_rows([cocycle.advance(omega, lo)] * (2 * k), points - nu, points + nu)
        w = np.stack([ws[lo:lo + k], ws[lo + 1:lo + k + 1]], axis=1).reshape(2 * k, -1)
        kappas[lo:lo + k] = np.einsum("pi,pij,pj->p", w, cocycle.model.row_fields(rows, points), w).reshape(k, 2)
    cell_integrals = 0.5 * (kappas[:, 0] + kappas[:, 1]) * dt
    total = float(cell_integrals.sum())
    # as on the growth-rate route, fewer steps than batches give no interval
    hw = batch_means(cell_integrals / dt, batches)[1] if n_steps >= batches else math.nan
    return KappaRouteEstimate(estimate=total / horizon, ci=hw, horizon=horizon, dt=dt)
