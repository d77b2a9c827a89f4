"""Ergodic base systems: seeded sampling of a base point and its evolution.

Three drivers are provided:

* ``IidShift`` -- a two-sided i.i.d. stream.  Randomness at integer index n
  is a counter-mode PRF (Philox keyed on (seed, purpose, n)), so the shift
  is exactly invertible and any index can be queried in O(1) without
  storing history.  Discrete by default; the continuous variant suspends
  the stream over unit intervals (the emission index is floor(time)).
* ``MarkovShift`` -- a stationary two-sided Markov chain.  Forward steps use
  the transition matrix, negative indices use the time-reversed chain, so
  the extension to negative time is exactly stationary.
* ``TorusRotation`` -- the flow (w1 + t, w2 + rho*t) mod 1 on (0,1]^2.
  Elapsed time is accumulated with compensated (two-sum) arithmetic so the
  semigroup law drifts by well under 1e-12 over |t| <= 1e3.

States are immutable values carrying a reference to their system; advancing
returns a new state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def _prf(seed: int, purpose: int, index: int) -> np.random.Generator:
    """Deterministic generator for a (seed, purpose, index) cell of the stream."""
    entropy = [int(seed) & _MASK64, purpose, (int(index) + (1 << 62)) & _MASK64]
    key = np.random.SeedSequence(entropy).generate_state(2, _U64)
    return np.random.Generator(np.random.Philox(key=key))


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


def _frac01(x: float) -> float:
    """Fractional part mapped into (0, 1]."""
    f = x - np.floor(x)
    return 1.0 if f == 0.0 else float(f)


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

    def rng(self, purpose: int = 0) -> np.random.Generator:
        return _prf(self.seed, purpose, self.index)


@dataclass(frozen=True)
class TorusState:
    """Torus point, stored as an anchor plus compensated elapsed time."""

    system: Any
    anchor: tuple[float, float]
    elapsed: float = 0.0
    elapsed_lo: float = 0.0

    @property
    def position(self) -> tuple[float, float]:
        t = self.elapsed + self.elapsed_lo
        return (_frac01(self.anchor[0] + t), _frac01(self.anchor[1] + self.system.rho * t))

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
            return replace(state, pos=state.pos + ti)
        hi, lo = _two_sum(state.pos, state.pos_lo, float(t))
        return replace(state, pos=hi, pos_lo=lo)


class MarkovShift:
    """Stationary two-sided Markov chain over state indices 0..k-1.

    The transition matrix must be row-stochastic and irreducible.  The
    time-0 state is drawn from the stationary distribution; negative
    indices extend the chain with the time-reversed transition matrix,
    which keeps the two-sided process exactly stationary.
    """

    def __init__(self, transition: np.ndarray):
        P = np.asarray(transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition matrix must be square")
        if np.any(P < 0) or not np.allclose(P.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("transition matrix must be row-stochastic")
        self.transition = P
        self.n_states = P.shape[0]
        self.stationary = self._stationary(P)
        pi = self.stationary
        # reversed chain: P_rev[i, j] = pi[j] P[j, i] / pi[i]
        self.reversed_transition = (P.T * pi[None, :]) / pi[:, None]
        self.time = "discrete"
        self._cache: dict[tuple[int, int], int] = {}

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
        return replace(state, pos=state.pos + ti)

    def chain_state(self, state: ShiftState) -> int:
        """Chain state at the stream position of ``state``."""
        seed, n = state.seed, state.index
        key = (seed, n)
        if key in self._cache:
            return self._cache[key]
        # nearest cached index toward 0 on the same side
        c = int(_prf(seed, 1, 0).choice(self.n_states, p=self.stationary))
        self._cache[(seed, 0)] = c
        if n >= 0:
            k0, c0 = 0, c
            for k in range(n, 0, -1):
                if (seed, k) in self._cache:
                    k0, c0 = k, self._cache[(seed, k)]
                    break
            for k in range(k0, n):
                c0 = int(_prf(seed, 2, k).choice(self.n_states, p=self.transition[c0]))
                self._cache[(seed, k + 1)] = c0
            return c0
        k0, c0 = 0, c
        for k in range(n, 0):
            if (seed, k) in self._cache:
                k0, c0 = k, self._cache[(seed, k)]
                break
        for k in range(k0, n, -1):
            c0 = int(_prf(seed, 3, k).choice(self.n_states, p=self.reversed_transition[c0]))
            self._cache[(seed, k - 1)] = c0
        return c0


class TorusRotation:
    """Irrational rotation flow on (0,1]^2 with slope vector (1, rho).

    ``rho`` defaults to sqrt(2) - 1; like any float it is a rational
    approximation of the irrational rotation number, good to ~1e-16, which
    is immaterial at simulation horizons.
    """

    def __init__(self, rho: float | None = None):
        self.rho = float(np.sqrt(2.0) - 1.0) if rho is None else float(rho)
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        self.time = "continuous"

    def initial(self, seed: int) -> TorusState:
        rng = _prf(seed, 0, 0)
        w = 1.0 - rng.random(2)  # uniform on (0, 1]
        return TorusState(system=self, anchor=(float(w[0]), float(w[1])))

    def advance(self, state: TorusState, t) -> TorusState:
        hi, lo = _two_sum(state.elapsed, state.elapsed_lo, float(t))
        return replace(state, elapsed=hi, elapsed_lo=lo)

    def wrap_times(self, state: TorusState, t: float) -> np.ndarray:
        """Sorted times tau in (0, t] where either coordinate crosses an integer.

        These are exactly the discontinuity times of any coefficient that is
        a function of the torus position.
        """
        if t <= 0:
            return np.empty(0)
        w1, w2 = state.position
        eps = 1e-12
        k1 = np.arange(np.ceil(w1 + eps), w1 + t + eps)
        t1 = k1 - w1
        k2 = np.arange(np.ceil(w2 + eps), w2 + self.rho * t + eps)
        t2 = (k2 - w2) / self.rho
        ts = np.concatenate([t1, t2])
        ts = ts[(ts > 0.0) & (ts <= t)]
        ts.sort()
        return ts
