"""Ergodic base systems: seeded sampling of a base point and its evolution.

Three drivers are provided:

* ``IidShift`` -- a two-sided i.i.d. stream.  Randomness at integer index n
  is a pure function of (seed, purpose, n), so the shift is exactly
  invertible and any index can be queried in O(1) without storing history.
  Discrete by default; the continuous variant suspends the stream over unit
  intervals (the emission index is floor(time)).
* ``MarkovShift`` -- a stationary two-sided Markov chain.  Forward steps use
  the transition matrix, negative indices use the time-reversed chain, so
  the extension to negative time is exactly stationary.
* ``TorusRotation`` -- the flow (w1 + t, w2 + rho*t) mod 1 on (0,1]^2.
  Elapsed time is accumulated with compensated (two-sum) arithmetic so the
  semigroup law drifts by well under 1e-12 over |t| <= 1e3.

A stream cell is served in one of two ways:

* ``cell_uniforms`` (``ShiftState.uniforms``) keys Philox4x64 once per
  (seed, purpose) and gives cell n the fixed counter block
  [(n + 2^62) s, (n + 2^62 + 1) s) of s = ceil(width / 4) outputs, in the
  counter-based design of Salmon et al. (SC'11, "Parallel random numbers: as
  easy as 1, 2, 3").  Consecutive cells are consecutive counters, so a block
  of cells is one vectorised draw, and row j of a block is bit-identical to
  cell n + j drawn alone.  The uniform-entries, iid-list and Markov matrix
  families, the cells of the ``ode-piecewise-uniform`` ODE kind and the
  Markov chain use it.
* ``_prf`` builds a Generator keyed on (seed, purpose, n) for one cell.
  Only user samplers (sampled, Leslie, and piecewise-constant ODE models
  built on a sampler) draw from ``ShiftState.rng``, its purpose-0 cell,
  and so does the torus base point.

States are immutable values carrying a reference to their system; advancing
returns a new state.  ``advance_steps`` adds k steps of dt exactly, as k
single steps do, and ``step_sums`` gives a continuous position that sum
for a whole array of k at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
# third entropy word of a cell_uniforms key; _prf's third word is
# index + 2^62, which stays below 2^63 for |index| < 2^62
_CELL_TAG = _MASK64
BLOCK_CELLS = 256  # cells per chunk of matrix maps, and the Markov checkpoint spacing


def _prf(seed: int, purpose: int, index: int) -> np.random.Generator:
    """Deterministic generator for a (seed, purpose, index) cell of the stream."""
    entropy = [int(seed) & _MASK64, purpose, (int(index) + (1 << 62)) & _MASK64]
    key = np.random.SeedSequence(entropy).generate_state(2, _U64)
    return np.random.Generator(np.random.Philox(key=key))


@functools.lru_cache(maxsize=1024)
def _cell_key(seed: int, purpose: int) -> np.ndarray:
    key = np.random.SeedSequence([seed, purpose, _CELL_TAG]).generate_state(2, _U64)
    key.flags.writeable = False
    return key


def cell_uniforms(seed: int, purpose: int, index: int, count: int, width: int) -> np.ndarray:
    """Uniforms on [0, 1) of the cells index .. index + count - 1, as a
    (count, width) array whose row j is cell index + j.

    Philox is keyed once per (seed, purpose); cell i owns the counter block
    [(i + 2^62) s, (i + 2^62 + 1) s) with s = ceil(width / 4), so a cell's
    values do not depend on the block it is drawn in.
    """
    s = -(-int(width) // 4)
    key = _cell_key(int(seed) & _MASK64, int(purpose))
    # Philox increments its counter before each output block
    counter = (int(index) + (1 << 62)) * s - 1
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return gen.random(int(count) * s * 4).reshape(int(count), s * 4)[:, :width]


def _two_sum(hi: float, lo: float, t: float) -> tuple[float, float]:
    """Add t to the compensated pair (hi, lo)."""
    s = hi + t
    bb = s - hi
    err = (hi - (s - bb)) + (t - bb)
    lo += err
    # renormalize
    hi2 = s + lo
    lo2 = lo - (hi2 - s)
    return hi2, lo2


def _exact_product(steps, dt):
    """steps * dt rounded, and its rounding error, elementwise: the error is
    Dekker's (Numer. Math. 18 (1971) 224-242), each factor split in halves
    whose partial products are exact."""
    p = steps * dt
    ca, cb = 134217729.0 * steps, 134217729.0 * dt  # 2^27 + 1
    ah, bh = ca - (ca - steps), cb - (cb - dt)
    al, bl = steps - ah, dt - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def advance_steps(state, steps: int, dt):
    """The base point ``steps`` steps of ``dt`` from ``state``, bit for bit
    where ``steps`` single advances by +-dt reach: the product steps * dt,
    then its rounding error, each added by the driver's compensated sum, so
    the sum is exact."""
    p, e = _exact_product(steps, dt)
    state = state.advance(p)
    return state.advance(e) if e else state


def step_sums(hi, lo, steps, dt):
    """The compensated pairs (hi, lo) + j dt for each j of the integer array
    ``steps``, as two arrays: bit for bit the pair that ``advance_steps``
    gives a continuous-time state at (hi, lo), since the product, its error
    and ``_two_sum`` are elementwise IEEE operations."""
    p, e = _exact_product(np.asarray(steps, dtype=float), dt)
    hi, lo = _two_sum(hi, lo, p)
    moved = e != 0.0  # advance_steps adds no zero error
    hi2, lo2 = _two_sum(hi, lo, e)
    return np.where(moved, hi2, hi), np.where(moved, lo2, lo)


def _frac01(x):
    """Fractional part mapped into (0, 1], elementwise, in plain float
    arithmetic on a float: x % 1 is x - floor(x) bit for bit (fmod is
    exact, and a negative x's + 1 rounds the same sum), and f + (f == 0)
    is np.where(f == 0, 1, f)."""
    f = x % 1.0
    return f + (f == 0.0)


def _torus_point(a1, a2, rho, t):
    """The torus point at elapsed time t from the anchor (a1, a2) on the
    rotation ``rho``, elementwise."""
    return _frac01(a1 + t), _frac01(a2 + rho * t)


@dataclass(frozen=True)
class ShiftState:
    """Point of an i.i.d. or Markov stream: a seed plus a stream position.

    ``pos`` is an integer index for discrete time, a real for the continuous
    suspension (stored compensated as pos + pos_lo).
    """

    system: Any
    seed: int
    pos: float
    pos_lo: float = 0.0

    @property
    def index(self) -> int:
        return int(np.floor(self.pos + self.pos_lo))

    def advance(self, t):
        return self.system.advance(self, t)

    def rng(self) -> np.random.Generator:
        return _prf(self.seed, 0, self.index)

    def uniforms(self, purpose: int, width: int, count: int = 1) -> np.ndarray:
        """``cell_uniforms`` of this state's cell and the count - 1 after it."""
        return cell_uniforms(self.seed, purpose, self.index, count, width)


@dataclass(frozen=True)
class TorusState:
    """Torus point, stored as an anchor plus compensated elapsed time."""

    system: Any
    anchor: tuple[float, float]
    elapsed: float = 0.0
    elapsed_lo: float = 0.0

    @property
    def position(self) -> tuple[float, float]:
        return _torus_point(*self.anchor, self.system.rho, self.elapsed + self.elapsed_lo)

    def advance(self, t):
        return self.system.advance(self, t)


class IidShift:
    """Two-sided i.i.d. stream; discrete steps or a continuous suspension."""

    def __init__(self, time: str = "discrete"):
        if time not in ("discrete", "continuous"):
            raise ValueError("time must be 'discrete' or 'continuous'")
        self.time = time

    def initial(self, seed: int) -> ShiftState:
        return ShiftState(system=self, seed=int(seed), pos=0.0 if self.time == "continuous" else 0)

    def advance(self, state: ShiftState, t) -> ShiftState:
        if self.time == "discrete":
            ti = int(t)
            if ti != t:
                raise ValueError(f"discrete driver requires integer time, got {t!r}")
            return ShiftState(state.system, state.seed, state.pos + ti)
        hi, lo = _two_sum(state.pos, state.pos_lo, float(t))
        return ShiftState(state.system, state.seed, hi, lo)


class MarkovShift:
    """Stationary two-sided Markov chain over state indices 0..k-1.

    The transition matrix must be row-stochastic and irreducible.  The
    time-0 state is drawn from the stationary distribution; negative
    indices extend the chain with the time-reversed transition matrix,
    which keeps the two-sided process exactly stationary.

    Each step inverts the row's cdf at one cell uniform, as
    ``Generator.choice(p=row)`` does (purpose 1: the time-0 state, 2: the
    forward chain, 3: the reversed chain).  The chain is walked outward from
    0 in segments of BLOCK_CELLS steps, one block draw each, and the state
    at every multiple of BLOCK_CELLS is kept per seed and side (the cuts of
    ``MatrixModel.chunks`` fall on the same multiples).  A query walks from
    the last checkpoint between 0 and its first index, so memory is
    O(|range| / BLOCK_CELLS) per seed and a sweep walks each segment once.
    """

    def __init__(self, transition: np.ndarray):
        P = np.asarray(transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition must be a square matrix")
        if np.any(P < 0) or not np.allclose(P.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("transition must be row-stochastic")
        self.transition = P
        self.n_states = P.shape[0]
        self.stationary = self._stationary(P)
        pi = self.stationary
        # reversed chain: P_rev[i, j] = pi[j] P[j, i] / pi[i]
        self.reversed_transition = (P.T * pi[None, :]) / pi[:, None]
        self.time = "discrete"
        self._cdf_start = choice_cdf(pi)
        self._cdfs = {1: choice_cdf(P), -1: choice_cdf(self.reversed_transition)}
        # (seed, side) -> chain states at distances 0, K, 2K, ... from index 0
        self._checkpoints: dict[tuple[int, int], list[int]] = {}

    @staticmethod
    def _stationary(P: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eig(P.T)
        i = int(np.argmin(np.abs(vals - 1.0)))
        pi = np.real(vecs[:, i])
        pi = np.abs(pi)
        s = pi.sum()
        if s <= 0 or np.any(pi <= 1e-14 * s):
            raise ValueError("transition matrix does not look irreducible (degenerate stationary vector)")
        return pi / s

    def initial(self, seed: int) -> ShiftState:
        return ShiftState(system=self, seed=int(seed), pos=0)

    def advance(self, state: ShiftState, t) -> ShiftState:
        ti = int(t)
        if ti != t:
            raise ValueError(f"discrete driver requires integer time, got {t!r}")
        return ShiftState(state.system, state.seed, state.pos + ti)

    def chain_states(self, state: ShiftState, count: int) -> np.ndarray:
        """Chain states at the positions index .. index + count - 1 of ``state``."""
        seed, a = state.seed, state.index
        b = a + int(count)
        # indices a..min(b, 0)-1 are distances 1-min(b, 0)..-a on the reversed side
        back = self._side_states(seed, -1, 1 - min(b, 0), 1 - a)[::-1] if a < 0 else []
        ahead = self._side_states(seed, 1, max(a, 0), b) if b > 0 else []
        return np.array(back + ahead, dtype=np.intp)

    def _side_states(self, seed, side, lo, hi) -> list[int]:
        """States at distances lo..hi-1 from index 0 on one side (side 1:
        indices lo..hi-1, side -1: indices -lo..-(hi-1))."""
        K = BLOCK_CELLS
        cps = self._checkpoints.get((seed, side))
        if cps is None:
            u0 = cell_uniforms(seed, 1, 0, 1, 1)[0, 0]
            cps = self._checkpoints[(seed, side)] = [int(np.searchsorted(self._cdf_start, u0, side="right"))]
        out = []
        m = lo
        j = min(lo // K, len(cps) - 1)
        while m < hi:
            m0 = j * K
            seg = self._walk(seed, side, m0, cps[j], min(K, hi - 1 - m0))
            if len(seg) == K + 1 and len(cps) == j + 1:
                cps.append(seg[-1])
            if m - m0 < len(seg):
                out.extend(seg[m - m0:])
                m = m0 + len(seg)
            j += 1
        return out

    def _walk(self, seed, side, m0, c, steps) -> list[int]:
        """States at distances m0..m0+steps on one side, from state c at m0."""
        if steps == 0:
            return [c]
        if side > 0:
            u = cell_uniforms(seed, 2, m0, steps, 1)[:, 0]
        else:  # the step from index -m to -m - 1 uses cell -m
            u = cell_uniforms(seed, 3, 1 - m0 - steps, steps, 1)[::-1, 0]
        # nxt[k][i]: the state after step k from state i
        nxt = np.stack([np.searchsorted(row, u, side="right") for row in self._cdfs[side]],
                       axis=1).tolist()
        out = [c]
        for row in nxt:
            c = row[c]
            out.append(c)
        return out


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The cdf ``Generator.choice(p=...)`` inverts with
    ``searchsorted(cdf, u, side="right")``: cumulative sums along the last
    axis, each normalised to end at 1."""
    cdf = np.cumsum(p, axis=-1)
    return cdf / cdf[..., -1:]


class TorusRotation:
    """Irrational rotation flow on (0,1]^2 with slope vector (1, rho).

    ``rho`` defaults to sqrt(2) - 1; like any float it is a rational
    approximation of the irrational rotation number, good to ~1e-16, which
    is immaterial at simulation horizons.
    """

    def __init__(self, rho: float | None = None):
        self.rho = float(np.sqrt(2.0) - 1.0) if rho is None else float(rho)
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {rho!r}")
        self.time = "continuous"

    def initial(self, seed: int) -> TorusState:
        rng = _prf(seed, 0, 0)
        w = 1.0 - rng.random(2)  # uniform on (0, 1]
        return TorusState(system=self, anchor=(float(w[0]), float(w[1])))

    def advance(self, state: TorusState, t) -> TorusState:
        hi, lo = _two_sum(state.elapsed, state.elapsed_lo, float(t))
        return TorusState(state.system, state.anchor, hi, lo)

    def coordinate_wrap_times(self, state: TorusState, t: float) -> tuple[list, list]:
        """The times tau in (0, t] where the first and where the second
        coordinate crosses an integer, each an ascending list.  A crossing
        within 1e-12 past the start is the start's own position, not a crossing."""
        if t <= 0:
            return [], []
        w1, w2 = state.position
        eps = 1e-12
        # the integers k, k + 1, ... below stop, each less w: the ceil(stop - k)
        # values of np.arange(k, stop) - w, formed as numpy forms them
        k1, k2 = math.ceil(w1 + eps), math.ceil(w2 + eps)
        t1 = [(k1 + i) - w1 for i in range(math.ceil(w1 + t + eps - k1))]
        t2 = [((k2 + i) - w2) / self.rho for i in range(math.ceil(w2 + self.rho * t + eps - k2))]
        return [tau for tau in t1 if 0.0 < tau <= t], [tau for tau in t2 if 0.0 < tau <= t]

    def wrap_times(self, state: TorusState, t: float) -> np.ndarray:
        """Sorted times tau in (0, t] where either coordinate crosses an integer.

        These are exactly the discontinuity times of any coefficient that is
        a function of the torus position.
        """
        t1, t2 = self.coordinate_wrap_times(state, t)
        return np.array(sorted(t1 + t2), dtype=float)
