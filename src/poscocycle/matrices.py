"""Discrete-time positive matrix cocycles, their duals, per-matrix statistics,
assumption checkers, and random Leslie (age-structured) models.

A matrix model emits the one-step map as a pure function of the driver
state.  Long products are stored as (unit-norm direction matrix, accumulated
log scale) so that decaying cocycles never underflow; the norm used for the
direction matrix is the operator ell-1 norm (max column sum).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .drivers import BLOCK_CELLS, choice_cdf
from .errors import EstimationError
from .stats import mean_ci

RCOND_THRESHOLD = 1e-12  # reciprocal-condition cutoff for the injectivity check


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
        chunks in step order; with ``backward``, of the ``count`` steps
        before ``state``, latest chunk first.  Exactly ``count`` cells are
        emitted, at most BLOCK_CELLS per chunk.

        Cuts fall on multiples of BLOCK_CELLS: ``MarkovShift`` walks its
        chain in segments between checkpoints BLOCK_CELLS apart, so an
        aligned chunk walks one segment where an unaligned one would walk two.
        """
        i = state.index
        lo = i - count if backward else i
        edges = [lo, *range(lo - lo % BLOCK_CELLS + BLOCK_CELLS, lo + count, BLOCK_CELLS), lo + count]
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


def leslie_model(m_sampler, b_sampler, n=None) -> LeslieModel:
    """Build a LeslieModel from samplers or constant parameter vectors."""
    if callable(m_sampler):
        if n is None:
            raise ValueError("n is required when samplers are callables")
        return LeslieModel(n, m_sampler, b_sampler)
    m = np.asarray(m_sampler, dtype=float)
    b = np.asarray(b_sampler, dtype=float)
    return LeslieModel(m.size, lambda rng: m, lambda rng: b)


def matrix_from_csv(path) -> np.ndarray:
    """Load a matrix from plain text: a header line "N", the dimension, then N rows."""
    with Path(path).open() as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
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
    if n < 0:
        raise ValueError("n must be >= 0")
    P = np.eye(model.n)
    log_scale = 0.0
    for maps in model.chunks(omega, int(n)):
        for S in maps:
            P = S @ P
            s = opnorm1(P)
            if s == 0.0:
                return P, -np.inf
            P /= s
            log_scale += np.log(s)
    return P, log_scale


# ---------------------------------------------------------------------------
# statistics and assumption checks


@dataclass(frozen=True)
class MatrixStats:
    """Columnwise / rowwise extrema and the derived scalar statistics."""

    col_min: np.ndarray   # min of column i
    col_max: np.ndarray
    row_min: np.ndarray   # min of row i
    row_max: np.ndarray
    row_sum_min: float    # min over rows of the row sum
    col_sum_min: float
    entry_min: float
    entry_max: float


def matrix_stats(S) -> MatrixStats:
    S = np.asarray(S, dtype=float)
    return MatrixStats(
        col_min=S.min(axis=0),
        col_max=S.max(axis=0),
        row_min=S.min(axis=1),
        row_max=S.max(axis=1),
        row_sum_min=float(S.sum(axis=1).min()),
        col_sum_min=float(S.sum(axis=0).min()),
        entry_min=float(S.min()),
        entry_max=float(S.max()),
    )


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


def _lnplus(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.maximum(np.log(x), 0.0)


def _lnminus(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.maximum(-np.log(x), 0.0)


def _sample_maps(model, driver, seed, n_samples, lag):
    """Time-`lag` maps over non-overlapping windows along one orbit."""
    omega = driver.initial(seed)
    if lag == 1:
        return [S for maps in model.chunks(omega, n_samples) for S in maps]
    out = []
    for k in range(n_samples):
        D, ls = cocycle_product(model, omega.advance(k * lag), lag)
        out.append(np.exp(ls) * D)
    return out


def check_D1(model, driver, seed, n_samples, lag: int = 1) -> list[AssumptionReport]:
    """Positivity (exact), injectivity (reciprocal condition number), and
    the log-moment integrability estimate for the sampled maps."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    samples = _sample_maps(model, driver, seed, n_samples, lag)
    for k, S in enumerate(samples):
        bad = ~np.isfinite(S)
        if np.any(bad):
            i, j = map(int, np.argwhere(bad)[0])
            raise EstimationError(f"sampled map {k} (lag {lag}) has the non-finite entry ({i}, {j}) = {S[i, j]}")
    reports = []

    neg = [(k, i, j, S[i, j])
           for k, S in enumerate(samples)
           for i, j in zip(*np.where(S < 0.0))]
    reports.append(AssumptionReport(
        condition="D1.i", verdict="fails" if neg else "holds",
        witnesses=neg[:5], detail=f"{len(samples)} sampled maps, lag {lag}"))

    bad = []
    for k, S in enumerate(samples):
        sv = np.linalg.svd(S, compute_uv=False)
        rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
        if rcond <= RCOND_THRESHOLD:
            bad.append((k, rcond))
    reports.append(AssumptionReport(
        condition="D1.ii", verdict="fails" if bad else "holds",
        witnesses=bad[:5], detail=f"rcond threshold {RCOND_THRESHOLD:g}"))

    # the largest absolute entry is a norm of every map, signed or not
    vals = _lnplus([np.abs(S).max() for S in samples])
    m, hw = mean_ci(vals)
    reports.append(AssumptionReport(
        condition="D1.iii", verdict="empirical", estimate=m, ci=hw,
        detail="mean of ln+ of the largest absolute entry; sample moments cannot certify integrability"))
    return reports


def check_D2(model, driver, seed, n_samples, lag: int = 1) -> list[AssumptionReport]:
    """Strict positivity plus the column/row log-ratio moment estimates, and
    the coarser sufficient condition on the global entry ratio."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    samples = _sample_maps(model, driver, seed, n_samples, lag)
    stats = [matrix_stats(S) for S in samples]
    reports = []

    nonpos = [(k, i, j, S[i, j])
              for k, S in enumerate(samples)
              for i, j in zip(*np.where(S <= 0.0))]

    def _moment_report(cond, per_sample_ratios, transform, extra=""):
        if nonpos:
            return AssumptionReport(condition=cond, verdict="fails", witnesses=nonpos[:5],
                                    detail="strict positivity violated" + extra)
        arr = transform(np.asarray(per_sample_ratios))  # (n_samples, N)
        means = arr.mean(axis=0)
        worst = int(np.argmax(means))
        m, hw = mean_ci(arr[:, worst])
        kappas = [float(model.n * (st.col_max / st.col_min).max()) for st in stats[:5]]
        return AssumptionReport(condition=cond, verdict="empirical", estimate=m, ci=hw,
                                witnesses=[("kappa_samples", kappas)],
                                detail=f"worst index {worst}; per-index means {np.round(means, 6).tolist()}" + extra)

    col_ratio = [np.log(st.col_max) - np.log(st.col_min) for st in stats] if not nonpos else []
    row_ratio = [np.log(st.row_max) - np.log(st.row_min) for st in stats] if not nonpos else []

    reports.append(_moment_report("D2.i", col_ratio, _lnplus))
    reports.append(_moment_report("D2.ii", row_ratio, _lnplus))
    reports.append(_moment_report("D2.iii", col_ratio, lambda a: a,
                                  extra="; combined with the row variant below"))
    if not nonpos:
        arr = np.asarray(row_ratio)
        m, hw = mean_ci(arr.max(axis=1))
        reports.append(AssumptionReport(condition="D2.iii.rows", verdict="empirical",
                                        estimate=m, ci=hw, detail="row log-ratio, worst index per sample"))
        glob = np.log([st.entry_max for st in stats]) - np.log([st.entry_min for st in stats])
        m1, h1 = mean_ci(np.maximum(glob, 0.0))
        m2, h2 = mean_ci(glob)
        reports.append(AssumptionReport(condition="D2.sufficient.global-log-ratio",
                                        verdict="empirical", estimate=m2, ci=h2,
                                        detail=f"ln+ variant mean {m1:.6g} +/- {h1:.6g}"))
    return reports


def check_D3(model, driver, seed, n_samples, lag: int = 1) -> list[AssumptionReport]:
    """Row/column sum positivity with the ln- moment estimates, plus the
    sufficient condition on the global minimum entry."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    samples = _sample_maps(model, driver, seed, n_samples, lag)
    stats = [matrix_stats(S) for S in samples]
    reports = []

    for cond, values in (("D3.i", [st.row_sum_min for st in stats]),
                         ("D3.ii", [st.col_sum_min for st in stats])):
        vals = np.asarray(values)
        bad = [(k, v) for k, v in enumerate(vals) if v <= 0.0]
        if bad:
            reports.append(AssumptionReport(condition=cond, verdict="fails", witnesses=bad[:5]))
        else:
            m, hw = mean_ci(_lnminus(vals))
            reports.append(AssumptionReport(condition=cond, verdict="empirical", estimate=m, ci=hw,
                                            witnesses=[("nu_samples", np.round(vals[:5], 9).tolist())],
                                            detail="mean of ln- of the min row/column sum"))

    mins = np.asarray([st.entry_min for st in stats])
    if np.all(mins > 0.0):
        m, hw = mean_ci(_lnminus(mins))
        reports.append(AssumptionReport(condition="D3.sufficient.global-min",
                                        verdict="empirical", estimate=m, ci=hw,
                                        detail="mean of ln- of the global min entry"))
    else:
        k = int(np.argmin(mins))
        reports.append(AssumptionReport(condition="D3.sufficient.global-min", verdict="fails",
                                        witnesses=[(k, float(mins[k]))]))
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
    st = matrix_stats(S)
    n = S.shape[0]
    e = np.full(n, 1.0 / np.sqrt(n))
    col_min = st.col_min.copy()

    def beta(u):
        u = np.asarray(u, dtype=float)
        return float(np.sqrt(n) * (u * col_min).sum())

    kappa = float(n * (st.col_max / st.col_min).max())
    kappa_star = float(n * (st.row_max / st.row_min).max())
    return FocusingCertificate(kappa=kappa, kappa_star=kappa_star, e=e, beta=beta)


def verify_nstep_positivity(model: MatrixModel, driver, seed, n_samples):
    """Check that the N-fold product (N the dimension) is entrywise strictly
    positive for each sampled base point.  Returns the list of offending
    (sample, min entry) pairs, empty when all pass."""
    steps = model.n
    bad = []
    omega = driver.initial(seed)
    for k in range(n_samples):
        base = omega.advance(k * steps)
        D, ls = cocycle_product(model, base, steps)
        if not np.isfinite(ls) or D.min() <= 0.0:
            bad.append((k, float(D.min())))
    return bad
