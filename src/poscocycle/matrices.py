"""Discrete-time positive matrix cocycles, their products, the D1-D3
assumption battery, focusing certificates, and random Leslie
(age-structured) models.

A matrix model emits the one-step map as a pure function of the driver
state.  Long products are stored as (unit-norm direction matrix, accumulated
log scale) so that decaying cocycles never underflow; the norm used for the
direction matrix is the operator ell-1 norm (max column sum).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .drivers import BLOCK_CELLS, choice_cdf
from .errors import EstimationError
from .stats import mean_ci

RCOND_THRESHOLD = 1e-12  # reciprocal-condition cutoff for the injectivity check


def _count(name, value, least):
    """A count argument as an int; a bool, a non-integer or a value below
    ``least`` raises ValueError naming the argument ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {name} = {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# models


class MatrixModel:
    """Base class: a family of N x N matrices indexed by driver states.

    ``emit`` gives one map, ``emit_block`` consecutive maps, and ``chunks``
    cuts a run of steps into ``emit_block`` draws: the one place the
    estimators, ``cocycle_product`` and the assumption checks read maps from.
    """

    def __init__(self, n: int):
        self.n = int(n)

    def emit(self, state) -> np.ndarray:
        raise NotImplementedError

    def emit_block(self, state, count: int) -> np.ndarray:
        """The maps at state, state.advance(1), ..., as a (count, N, N) array."""
        return np.stack([self.emit(state.advance(j)) for j in range(count)])

    def chunks(self, state, count: int, backward: bool = False):
        """The maps of the ``count`` steps from ``state`` as ``emit_block``
        chunks in step order, or with ``backward`` latest chunk first.
        Exactly ``count`` cells are emitted, at most BLOCK_CELLS per chunk.

        Cuts fall on multiples of BLOCK_CELLS: ``MarkovShift`` walks its
        chain in segments between checkpoints BLOCK_CELLS apart, so an
        aligned chunk walks one segment where an unaligned one would walk two.
        """
        i = state.index
        edges = [i, *range(i - i % BLOCK_CELLS + BLOCK_CELLS, i + count, BLOCK_CELLS), i + count]
        cuts = list(zip(edges[:-1], edges[1:])) if count > 0 else []
        for a, b in (reversed(cuts) if backward else cuts):
            yield self.emit_block(state.advance(a - i), b - a)


class BlockMatrixModel(MatrixModel):
    """A family whose ``emit_block`` is one counter-addressed draw for the
    whole block (``drivers.cell_uniforms``), so each of its ``chunks`` is
    one draw; ``emit`` is the one-cell case."""

    def emit(self, state) -> np.ndarray:
        return self.emit_block(state, 1)[0]


class ConstantMatrixModel(MatrixModel):
    def __init__(self, matrix):
        S = np.asarray(matrix, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("matrix must be square")
        super().__init__(S.shape[0])
        self.matrix = S

    def emit(self, state) -> np.ndarray:
        return self.matrix


def _matrix_list(matrices) -> tuple[list, np.ndarray]:
    mats = [np.asarray(S, dtype=float) for S in matrices]
    n = mats[0].shape[0] if mats and mats[0].ndim else 0
    if not n or any(S.shape != (n, n) for S in mats):
        raise ValueError("matrices must be a nonempty list of square matrices of one shape")
    return mats, np.stack(mats)


class IidChoiceModel(BlockMatrixModel):
    """Draw one matrix per step from a finite list, i.i.d. with given weights."""

    def __init__(self, matrices, weights=None):
        self.matrices, self._stack = _matrix_list(matrices)
        super().__init__(self._stack.shape[1])
        if weights is None:
            self.weights = np.full(len(self.matrices), 1.0 / len(self.matrices))
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(self.matrices),) or not (np.all(w >= 0) and 0 < w.sum() < np.inf):
                raise ValueError("weights must be nonnegative, one per matrix")
            self.weights = w / w.sum()
        self._cdf = choice_cdf(self.weights)

    def emit_block(self, state, count: int) -> np.ndarray:
        u = state.uniforms(0, 1, count)[:, 0]
        return self._stack[np.searchsorted(self._cdf, u, side="right")]


class MarkovMatrixModel(BlockMatrixModel):
    """Emit matrices[c] where c is the Markov driver's chain state."""

    def __init__(self, matrices):
        self.matrices, self._stack = _matrix_list(matrices)
        super().__init__(self._stack.shape[1])

    def emit_block(self, state, count: int) -> np.ndarray:
        c = state.system.chain_states(state, count)
        if c.max() >= len(self.matrices):
            raise ValueError(f"driver chain state {int(c.max())} has no matrix (have {len(self.matrices)})")
        return self._stack[c]


class SampledMatrixModel(MatrixModel):
    """Entries drawn per step by a user sampler: sampler(rng) -> (N, N) array."""

    def __init__(self, n, sampler):
        super().__init__(n)
        self.sampler = sampler

    def emit(self, state) -> np.ndarray:
        S = np.asarray(self.sampler(state.rng()), dtype=float)
        if S.shape != (self.n, self.n):
            raise ValueError(f"sampler returned shape {S.shape}, expected {(self.n, self.n)}")
        return S


class UniformEntriesModel(BlockMatrixModel):
    """All N^2 entries i.i.d. Uniform(lo, hi) per step."""

    def __init__(self, n: int, lo: float, hi: float):
        if not 0 <= lo < hi:
            raise ValueError(f"need 0 <= lo < hi, got lo = {lo!r}, hi = {hi!r}")
        super().__init__(n)
        self.lo = float(lo)
        self.hi = float(hi)

    def emit_block(self, state, count: int) -> np.ndarray:
        U = state.uniforms(0, self.n * self.n, count)
        # lo + (hi - lo) U, as Generator.uniform maps each uniform, in place
        U *= self.hi - self.lo
        U += self.lo
        return U.reshape(count, self.n, self.n)


def leslie_matrix(m, b) -> np.ndarray:
    """Leslie matrix: fertilities m on the first row, survival rates b on the subdiagonal."""
    m = np.asarray(m, dtype=float)
    b = np.asarray(b, dtype=float)
    n = m.size
    if b.size != n - 1:
        raise ValueError(f"need {n - 1} survival rates for {n} age classes, got {b.size}")
    S = np.zeros((n, n))
    S[0, :] = m
    S[np.arange(1, n), np.arange(n - 1)] = b
    return S


class LeslieModel(MatrixModel):
    """Random Leslie matrices with per-step draws of fertilities and survivals.

    ``m_sampler(rng)`` must return N positive fertilities, ``b_sampler(rng)``
    N-1 positive survival rates; a nonpositive draw raises.
    """

    def __init__(self, n, m_sampler, b_sampler):
        super().__init__(n)
        self.m_sampler = m_sampler
        self.b_sampler = b_sampler

    def emit(self, state) -> np.ndarray:
        rng = state.rng()
        m = np.asarray(self.m_sampler(rng), dtype=float)
        b = np.asarray(self.b_sampler(rng), dtype=float)
        if m.size != self.n or b.size != self.n - 1:
            raise ValueError("sampler sizes do not match the model dimension")
        if np.any(m <= 0) or np.any(b <= 0):
            raise ValueError("Leslie parameters must be strictly positive")
        return leslie_matrix(m, b)


def leslie_model(m, b) -> LeslieModel:
    """A LeslieModel with constant fertilities ``m`` and survival rates ``b``."""
    m = np.asarray(m, dtype=float)
    b = np.asarray(b, dtype=float)
    return LeslieModel(m.size, lambda rng: m, lambda rng: b)


def matrix_from_csv(path) -> np.ndarray:
    """Load a matrix from plain text: a header line "N", the dimension, then N rows."""
    with Path(path).open() as fh:
        lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    if not lines or lines[0] != "N":
        raise ValueError(f"{path}: expected header 'N' on the first line")
    try:
        n = int(lines[1])
    except (IndexError, ValueError):
        raise ValueError(f"{path}: expected the dimension after the 'N' header") from None
    rows = lines[2:]
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} matrix rows, found {len(rows)}")
    S = np.array([[float(v) for v in row.split(",")] for row in rows])
    if S.shape != (n, n):
        raise ValueError(f"{path}: matrix block is not {n} x {n}")
    return S


# ---------------------------------------------------------------------------
# products and duals


def opnorm1(A: np.ndarray) -> float:
    """Operator ell-1 norm: max absolute column sum."""
    return float(np.abs(A).sum(axis=0).max())


def cocycle_product(model: MatrixModel, omega, n: int):
    """n-fold product of one-step maps along the orbit, scale-separated.

    Returns (direction, log_scale) with the product equal to
    exp(log_scale) * direction and opnorm1(direction) = 1.  n = 0 yields
    (identity, 0).  A product that collapses to the zero matrix is reported
    as (zeros, -inf).
    """
    P = np.eye(model.n)
    log_scale = 0.0
    for maps in model.chunks(omega, _count("n", n, 0)):
        for S in maps:
            P = S @ P
            s = opnorm1(P)
            if s == 0.0:
                return P, -np.inf
            P /= s
            log_scale += np.log(s)
    return P, log_scale


# ---------------------------------------------------------------------------
# assumption checks


@dataclass
class AssumptionReport:
    """Verdict for one sampled condition.

    verdict is "holds" / "fails" for sign conditions that are decidable on
    samples, or "empirical" for moment conditions, which can only ever be
    estimated: those carry a mean and a 95% CI half-width and are never
    reported as an unqualified "holds".
    """

    condition: str
    verdict: str
    estimate: float | None = None
    ci: float | None = None
    witnesses: list = field(default_factory=list)
    detail: str = ""

    def __post_init__(self):
        if self.verdict == "fails" and not self.witnesses:
            raise ValueError("a failing report must carry a witness")


def _log(x, ls=0.0):
    """ln of exp(ls) x, taken as ls + ln x so that no scale overflows."""
    with np.errstate(divide="ignore"):
        return ls + np.log(x)


def _scaled(ls, x):
    """exp(ls) x, an entry or a sum of a sampled map as a witness: +-inf past
    the float range, and a zero stays zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x == 0.0, x, np.exp(ls) * x)


def _sample_maps(model, driver, seed, n_samples, lag):
    """Time-`lag` maps over non-overlapping windows along one orbit, scale
    separated: an (n_samples, N, N) stack D and log scales ls, the maps being
    exp(ls) D; at lag 1 the maps themselves, with log scale 0."""
    omega = driver.initial(seed)
    if lag == 1:
        return np.concatenate(list(model.chunks(omega, n_samples))), np.zeros(n_samples)
    D, ls = zip(*(cocycle_product(model, omega.advance(k * lag), lag) for k in range(n_samples)))
    return np.stack(D), np.array(ls)


def _entries(D, ls, mask):
    """(sample, i, j, entry) of the first five entries of the maps exp(ls) D
    where ``mask`` holds, in sample and then row-major order."""
    return [(int(k), int(i), int(j), float(_scaled(ls[k], D[k, i, j]))) for k, i, j in np.argwhere(mask)[:5]]


def check_D(model, driver, seed, n_samples, lag: int = 1) -> list[AssumptionReport]:
    """The D1-D3 battery on ``n_samples`` time-``lag`` maps, drawn once.

    D1: positivity (exact), injectivity (reciprocal condition number) and
    the log-moment integrability estimate.  D2: strict positivity with the
    column/row log-ratio moment estimates, and the coarser sufficient
    condition on the global entry ratio.  D3: row/column sum positivity with
    the ln- moment estimates, and the sufficient condition on the global
    minimum entry.  Each per-sample statistic is one axis reduction of the
    stack of the scale-separated maps exp(ls) D: the log moments are ls plus
    a log of D, the log ratios read D alone, and a witness is scaled back,
    so no scale overflows at a long lag.  A non-finite map raises
    EstimationError.
    """
    n_samples, lag = _count("n_samples", n_samples, 1), _count("lag", lag, 1)
    D, ls = _sample_maps(model, driver, seed, n_samples, lag)
    bad = ~np.isfinite(D)
    if bad.any():
        k, i, j = map(int, np.argwhere(bad)[0])
        raise EstimationError(f"sampled map {k} (lag {lag}) has the non-finite entry ({i}, {j}) = {D[k, i, j]}")
    entry_min = D.min(axis=(1, 2))

    neg = _entries(D, ls, D < 0.0)
    reports = [AssumptionReport(condition="D1.i", verdict="fails" if neg else "holds",
                                witnesses=neg, detail=f"{n_samples} sampled maps, lag {lag}")]
    sv = np.linalg.svd(D, compute_uv=False)
    rcond = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(n_samples), where=sv[:, 0] > 0)
    singular = [(int(k), float(rcond[k])) for k in np.flatnonzero(rcond <= RCOND_THRESHOLD)[:5]]
    reports.append(AssumptionReport(condition="D1.ii", verdict="fails" if singular else "holds",
                                    witnesses=singular, detail=f"rcond threshold {RCOND_THRESHOLD:g}"))
    # the largest absolute entry is a norm of every map, signed or not
    m, hw = mean_ci(np.maximum(_log(np.abs(D).max(axis=(1, 2)), ls), 0.0))
    reports.append(AssumptionReport(
        condition="D1.iii", verdict="empirical", estimate=m, ci=hw,
        detail="mean of ln+ of the largest absolute entry; sample moments cannot certify integrability"))

    nonpos = _entries(D, ls, D <= 0.0)
    if nonpos:
        reports += [AssumptionReport(condition=cond, verdict="fails", witnesses=nonpos,
                                     detail="strict positivity violated" + extra)
                    for cond, extra in (("D2.i", ""), ("D2.ii", ""),
                                        ("D2.iii", "; combined with the row variant below"))]
    else:
        col_min, col_max = D.min(axis=1), D.max(axis=1)  # (n_samples, N): the extrema of each column
        col_ratio = np.log(col_max) - np.log(col_min)
        row_ratio = np.log(D.max(axis=2)) - np.log(D.min(axis=2))
        kappas = (model.n * (col_max[:5] / col_min[:5]).max(axis=1)).tolist()
        for cond, arr, extra in (("D2.i", np.maximum(_log(col_ratio), 0.0), ""),
                                 ("D2.ii", np.maximum(_log(row_ratio), 0.0), ""),
                                 ("D2.iii", col_ratio, "; combined with the row variant below")):
            means = arr.mean(axis=0)
            worst = int(np.argmax(means))
            m, hw = mean_ci(arr[:, worst])
            reports.append(AssumptionReport(
                condition=cond, verdict="empirical", estimate=m, ci=hw, witnesses=[("kappa_samples", kappas)],
                detail=f"worst index {worst}; per-index means {np.round(means, 6).tolist()}" + extra))
        m, hw = mean_ci(row_ratio.max(axis=1))
        reports.append(AssumptionReport(condition="D2.iii.rows", verdict="empirical",
                                        estimate=m, ci=hw, detail="row log-ratio, worst index per sample"))
        glob = np.log(D.max(axis=(1, 2))) - np.log(entry_min)
        m1, h1 = mean_ci(np.maximum(glob, 0.0))
        m2, h2 = mean_ci(glob)
        reports.append(AssumptionReport(condition="D2.sufficient.global-log-ratio",
                                        verdict="empirical", estimate=m2, ci=h2,
                                        detail=f"ln+ variant mean {m1:.6g} +/- {h1:.6g}"))

    for cond, vals in (("D3.i", D.sum(axis=2).min(axis=1)), ("D3.ii", D.sum(axis=1).min(axis=1))):
        low = [(int(k), float(_scaled(ls[k], vals[k]))) for k in np.flatnonzero(vals <= 0.0)[:5]]
        if low:
            reports.append(AssumptionReport(condition=cond, verdict="fails", witnesses=low))
        else:
            m, hw = mean_ci(np.maximum(-_log(vals, ls), 0.0))
            nu = np.round(_scaled(ls[:5], vals[:5]), 9).tolist()
            reports.append(AssumptionReport(condition=cond, verdict="empirical", estimate=m, ci=hw,
                                            witnesses=[("nu_samples", nu)],
                                            detail="mean of ln- of the min row/column sum"))
    if np.all(entry_min > 0.0):
        m, hw = mean_ci(np.maximum(-_log(entry_min, ls), 0.0))
        reports.append(AssumptionReport(condition="D3.sufficient.global-min",
                                        verdict="empirical", estimate=m, ci=hw,
                                        detail="mean of ln- of the global min entry"))
    else:
        k = int(np.argmin(entry_min))
        reports.append(AssumptionReport(condition="D3.sufficient.global-min", verdict="fails",
                                        witnesses=[(k, float(_scaled(ls[k], entry_min[k])))]))
    return reports


@dataclass
class FocusingCertificate:
    """Constructive sandwich certificate for a strictly positive matrix.

    For every nonzero u >= 0:  beta(u) * e  <=  S u  <=  kappa * beta(u) * e
    componentwise, with e the normalized all-ones vector.  kappa_star is the
    same construction for the transpose (the adjoint one-step map).
    """

    kappa: float
    kappa_star: float
    e: np.ndarray
    beta: object  # callable: vector -> float


def focusing_certificate(S) -> FocusingCertificate:
    """Explicit (e, beta, kappa) for a strictly positive matrix."""
    S = np.asarray(S, dtype=float)
    if np.any(S <= 0.0):
        i, j = np.unravel_index(int(np.argmin(S)), S.shape)
        raise ValueError(f"focusing certificate needs strictly positive entries; S[{i},{j}] = {S[i, j]}")
    n = S.shape[0]
    e = np.full(n, 1.0 / np.sqrt(n))
    col_min, col_max = S.min(axis=0), S.max(axis=0)

    def beta(u):
        u = np.asarray(u, dtype=float)
        return float(np.sqrt(n) * (u * col_min).sum())

    kappa = float(n * (col_max / col_min).max())
    kappa_star = float(n * (S.max(axis=1) / S.min(axis=1)).max())
    return FocusingCertificate(kappa=kappa, kappa_star=kappa_star, e=e, beta=beta)
