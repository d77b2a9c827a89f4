import functools
import math
import signal
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from poscocycle import drivers, odes
from poscocycle.config import build_model
from poscocycle.drivers import BLOCK_CELLS, IidShift, TorusRotation, advance_steps
from poscocycle.errors import EstimationError
from poscocycle.estimators import OdeCocycle, forward_floquet, separation_estimate
from poscocycle.odes import (CallableOdeModel, ConstantOdeModel,
                             PiecewiseConstantOdeModel, PiecewiseUniformOdeModel, TypeKFlipModel, check_O,
                             cooperative_sampler, integrate,
                             irreducibility_quantities, propagate)
from poscocycle.torus import TorusExampleModel


def cont_state(seed=0):
    return IidShift(time="continuous").initial(seed)


def coop_pw_model(n=3, seed_dummy=None):
    return PiecewiseConstantOdeModel(n, cooperative_sampler(n, -1.0, 1.0, 0.0, 1.0))


class TestIntegrate:
    def test_zero_field(self):
        model = ConstantOdeModel(np.zeros((2, 2)))
        d, ls = integrate(model, cont_state(), np.array([3.0, 4.0]), 5.0)
        assert np.allclose(d, [0.6, 0.8]) and ls == 0.0

    def test_eigenvector_growth(self):
        model = ConstantOdeModel([[0.0, 1.0], [1.0, 0.0]])
        u0 = np.array([1.0, 1.0]) / np.sqrt(2)
        d, ls = integrate(model, cont_state(), u0, 1.0)
        assert np.allclose(d, u0, atol=1e-12)
        assert abs(ls - 1.0) < 1e-9

    def test_scalar_exponential(self):
        model = ConstantOdeModel(np.diag([-1.0, 2.0]))
        d, ls = integrate(model, cont_state(), np.array([0.0, 1.0]), 3.0)
        assert abs(ls - 6.0) < 1e-8

    def test_matches_expm_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            A = rng.uniform(-1.0, 1.0, (3, 3))
            u0 = rng.uniform(0.5, 1.5, 3)
            t = rng.uniform(0.5, 3.0)
            d, ls = integrate(ConstantOdeModel(A), cont_state(), u0, t)
            exact = expm(t * A) @ u0
            assert np.linalg.norm(d - exact / np.linalg.norm(exact)) < 1e-9
            assert abs(ls - np.log(np.linalg.norm(exact) / np.linalg.norm(u0))) < 1e-8

    def test_deep_decay_no_underflow(self):
        model = ConstantOdeModel(np.diag([-80.0, -90.0]))
        d, ls = integrate(model, cont_state(), np.array([1.0, 1.0]), 10.0)
        # dominant coordinate decays like e^{-800}; the norm ratio loses ln sqrt(2)
        assert np.isfinite(ls) and abs(ls - (-800.0 - np.log(np.sqrt(2.0)))) < 1e-4

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.floats(0.01, 4.0), st.floats(0.01, 4.0), st.integers(0, 10**6))
    def test_splitting_law(self, n, t1, t2, seed):
        # propagating over t1 + t2 is propagating over t1, then over t2 from
        # theta_t1 omega.  Piecewise-constant cells take the exact flow, so
        # the bound is from rounding, first order in u, for a positive start:
        # - a piece of length h <= 1 is applied as expm(h A), whose backward
        #   error is at most u |h A|_1 <= u n (Al-Mohy & Higham 2009); the
        #   column sums of A lie in [-1, n], so a generator perturbation moves
        #   a positive solution by at most its size times e^{n + 1}, entrywise;
        # - the product with Y, its rescale, at most one squaring and the
        #   log-scale sums add (n + 1)(T + 7) u per piece, and rescaled
        #   positions move each piece's ends by 4 (T + 1) u, worth n of that;
        # - positive vectors carry entrywise relative errors through later
        #   nonnegative flows unchanged, so the errors of all pieces of the
        #   three runs (at most ceil(t) + 1 each) add, and the max-abs
        #   directions differ by at most twice as much.
        u, T = np.finfo(float).eps / 2, t1 + t2
        model = coop_pw_model(n)
        st0 = cont_state(seed)
        Y, ls = propagate(model, st0, np.ones(n), T)
        Y1, ls1 = propagate(model, st0, np.ones(n), t1)
        Y2, ls2 = propagate(model, st0.advance(t1), Y1, t2)
        pieces = sum(math.ceil(t) + 1 for t in (t1, t2, T))
        bound = u * pieces * (n * math.exp(n + 1) + (n + 1) * (T + 7) + 4 * n * (T + 1))
        assert abs(ls1 + ls2 - ls) <= bound
        assert np.abs(Y2 - Y).max() <= 2 * bound

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.01, 4.0), st.floats(0.01, 4.0), st.integers(0, 10**6))
    def test_splitting_law_torus(self, t1, t2, seed):
        # the same law on the torus field, whose smooth pieces take DOP853
        # at rtol 1e-10: the bound is from rtol.  A step is accepted when
        # the RMS of its error estimate over (1e-12 + rtol |y_i|) is at most
        # 1, with the state rescaled to max-abs 1, so, taking the estimate
        # for the error, it moves y by at most N (rtol + 1e-12) |y|_2, N = 2.
        # The flow is a scalar times exp(t B), B = [[0, 1], [1, 0]], which
        # stretches no positive vector by less than 1/sqrt(2) of its own
        # norm, so a relative error in the state grows by at most sqrt(2) in
        # the log scale.  The steps of the three runs add, the max-abs
        # directions differ by at most twice as much, and rounding is far
        # below rtol.  Each run is propagate's one-member DOP853 batch,
        # which returns its accepted step count.
        m, steps = TorusExampleModel(), []

        def run(state, u, t):
            Y, ls, accepted, _ = next(odes._dop853(m, [([state], [odes._pieces(m, state, t)], u[None, :, None],
                                                          1e-10)], 1))
            steps.append(int(accepted[0]))
            return Y[0, :, 0], float(ls[0])

        st0, u0 = TorusRotation().initial(seed), np.array([1.0, 0.3])
        Y, ls = run(st0, u0, t1 + t2)
        Y1, ls1 = run(st0, u0, t1)
        Y2, ls2 = run(st0.advance(t1), Y1, t2)
        bound = math.sqrt(2) * 2 * (1e-10 + 1e-12) * sum(steps)
        assert abs(ls1 + ls2 - ls) <= bound
        assert np.abs(Y2 - Y).max() <= 2 * bound

    def test_zero_initial_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            integrate(ConstantOdeModel(np.eye(2)), cont_state(), np.zeros(2), 1.0)

    @pytest.mark.parametrize("piece", ["constant", "smooth"])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_nonfinite_initial_rejected(self, piece, bad):
        # used to return NaN with no error on a constant piece, and on a
        # smooth one to blame the field ("non-finite error estimate")
        model, omega = ((ConstantOdeModel([[0.0, 1.0], [1.0, 0.0]]), cont_state()) if piece == "constant"
                        else (TorusExampleModel(), TorusRotation().initial(0)))
        with pytest.raises(ValueError, match=rf"^initial condition must be finite: entry \[0\] is {bad}$"):
            integrate(model, omega, [bad, 1.0], 1.0)
        with pytest.raises(ValueError, match=rf"^initial condition must be finite: entry \[1, 0\] is {bad}$"):
            propagate(model, omega, [[1.0, 0.0], [bad, 1.0]], 1.0)
        # the entries are checked, not the norm, which overflows here
        Y, log_scale = propagate(model, omega, [1e200, 1e200], 1.0)
        assert np.isfinite(Y).all() and math.isfinite(log_scale)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_initial_far_from_unit_norm(self, scale):
        # its 2-norm used to overflow (log scale -inf) or underflow ("u0 must
        # be nonzero"); it is taken on the vector over its largest entry
        model = ConstantOdeModel([[0.0, 1.0], [1.0, 0.0]])
        d, log_scale = integrate(model, cont_state(), [scale, scale], 1.0)
        d1, log_scale1 = integrate(model, cont_state(), [1.0, 1.0], 1.0)
        assert np.array_equal(d, d1) and log_scale == log_scale1

    def test_positivity_preserved_under_cooperativity(self):
        model = coop_pw_model()
        st = cont_state(7)
        rng = np.random.default_rng(2)
        for _ in range(10):
            u0 = rng.uniform(0.0, 1.0, 3)
            if not np.any(u0):
                continue
            for t in (0.5, 1.5, 4.0):
                d, _ = integrate(model, st, u0, t)
                assert d.min() > -1e-9


def adaptive_twin(model):
    """The same field and breakpoints with no piece_matrix: every piece takes DOP853."""
    return CallableOdeModel(model.n, model.field, model.breakpoints)


def flow_gap(exact, adaptive):
    """Max-abs gap of two scale-separated flows, relative to the first."""
    (Me, le), (Md, ld) = exact, adaptive
    return float(np.abs(Me - math.exp(ld - le) * Md).max() / np.abs(Me).max())


def typek_sampler(rng):
    M = rng.uniform(0.0, 1.0, (4, 4))
    M[np.diag_indices(4)] = rng.uniform(-1.0, 1.0, 4)
    M[:2, 2:] *= -1
    M[2:, :2] *= -1
    return M


class TestExactFlow:
    """Constant pieces take expm(h A); DOP853 over the same field is the oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dop853_on_cooperative_cells(self, n):
        model = PiecewiseConstantOdeModel(n, cooperative_sampler(n, -2.0, 1.0, 0.0, 1.5))
        twin = adaptive_twin(model)
        for seed in (0, 5, 11):
            # base points off the integer grid, so pieces straddle cell breakpoints
            st = cont_state(seed).advance(0.37 + 0.21 * seed)
            for t in (0.1, 0.3, 2.5):
                exact = propagate(model, st, np.eye(n), t)
                adaptive = propagate(twin, st, np.eye(n), t, rtol=1e-10)
                assert flow_gap(exact, adaptive) <= 1e-8, (n, seed, t)

    def test_typek_matches_dop853_twin(self):
        b_model = PiecewiseConstantOdeModel(4, typek_sampler)
        a_model = TypeKFlipModel(b_model, 2)
        twin = TypeKFlipModel(adaptive_twin(b_model), 2)
        assert a_model.piece_matrix(cont_state(), 0.0, 0.5) is not None
        assert twin.piece_matrix(cont_state(), 0.0, 0.5) is None
        for seed in (1, 8):
            st = cont_state(seed).advance(0.62)
            for t in (0.3, 2.5):
                exact = propagate(a_model, st, np.eye(4), t)
                adaptive = propagate(twin, st, np.eye(4), t, rtol=1e-10)
                assert flow_gap(exact, adaptive) <= 1e-8, (seed, t)

    def test_one_draw_and_one_expm_per_cell(self, monkeypatch):
        # expms holds the size of each stacked expm call
        draws, expms, stacked = [], [], odes.expm
        inner = cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0)

        def sampler(rng):
            draws.append(1)
            return inner(rng)

        def counted_expm(M):
            expms.append(len(M))
            return stacked(M)

        monkeypatch.setattr(odes, "expm", counted_expm)
        model = PiecewiseConstantOdeModel(3, sampler)
        forward_floquet(OdeCocycle(model, dt=0.1), cont_state(4), np.ones(3), 10.0)
        # cells 0..9, each crossed by ten dt-steps of one length; a cell
        # boundary that rounding moves a few ulps inside a step splits off
        # no sliver piece with flows of its own
        state, grazing = cont_state(4), 0
        for _ in range(100):
            p = state.pos + state.pos_lo
            grazing += math.ceil(p + 0.1) - math.floor(p) - 1
            state = state.advance(0.1)
        assert grazing >= 1  # the run has such a step
        # the 100 steps are one chunk: one stacked call for its 10 cells
        assert len(draws) == 10 and expms == [10]

    def test_cell_boundaries_fall_on_step_ends(self):
        # dt = 0.1 is not a binary fraction, so positions drift off the cell
        # grid by rounding that grows with the position; none of it is a
        # breakpoint inside a step
        model = coop_pw_model()
        state = cont_state(6)
        for _ in range(10000):
            assert model.breakpoints(state, 0.0, 0.1).size == 0, state
            state = state.advance(0.1)
        # a boundary genuinely inside the step is kept
        bps = model.breakpoints(cont_state(6).advance(999.95), 0.0, 0.1)
        assert bps.size == 1 and abs(bps[0] - 0.05) < 1e-12

    def test_typek_flip_shares_expm(self, monkeypatch):
        expms, stacked = [], odes.expm  # the size of each stacked expm call

        def counted_expm(M):
            expms.append(len(M))
            return stacked(M)

        class CopyingModel(PiecewiseConstantOdeModel):
            def piece_matrix(self, state, t0, t1):
                return super().piece_matrix(state, t0, t1).copy()  # a fresh writeable array

        monkeypatch.setattr(odes, "expm", counted_expm)
        counts = []
        # 1000 steps in chunks of 256: three chunk boundaries fall inside
        # cells, each of which takes one expm in either chunk; one stacked
        # call per chunk
        for model in (PiecewiseConstantOdeModel(4, typek_sampler),
                      TypeKFlipModel(PiecewiseConstantOdeModel(4, typek_sampler), 2),
                      CopyingModel(4, typek_sampler)):
            expms.clear()
            for _ in OdeCocycle(model, dt=0.1).step_blocks(cont_state(4), 0, 1000):
                pass
            counts.append((sum(expms), len(expms)))
        assert counts == [(103, 4)] * 3

    def test_field_read_only(self):
        pw = coop_pw_model()
        const = ConstantOdeModel(np.eye(2))
        for model in (pw, const):
            A = model.field(cont_state(2), 0.5)
            assert not A.flags.writeable
            with pytest.raises(ValueError):
                A[0, 0] = 1.0

    def test_stiff_constant_needs_no_integration(self, monkeypatch):
        # the one-member batch applies the exact flow and takes no step
        dop853 = odes._dop853

        def no_steps(*args):
            for Y, ls, accepted, rejected in dop853(*args):
                if accepted.any() or rejected.any():
                    raise AssertionError("a constant piece reached the adaptive integrator")
                yield Y, ls, accepted, rejected

        monkeypatch.setattr(odes, "_dop853", no_steps)
        Y, ls = propagate(ConstantOdeModel(np.diag([-1e6, -2e6])), cont_state(), np.ones(2), 10.0)
        assert abs(ls - (-1e7)) <= 1e-12 * 1e7
        assert Y.tolist() == [1.0, 0.0]

    def test_nonfinite_coefficient_names_piece(self):
        def sampler(rng):
            A = rng.uniform(0.0, 1.0, (2, 2))
            A[0, 1] = np.nan
            return A

        model = PiecewiseConstantOdeModel(2, sampler)
        with pytest.raises(EstimationError, match=r"non-finite coefficient on the piece \(0, 0\.6\)"):
            propagate(model, cont_state().advance(0.4), np.eye(2), 1.0)


U_ROUND = np.finfo(float).eps / 2


def pade13_error_bound(A):
    """A bound on |r - e^A|_1 for a computed diagonal Pade approximant r =
    q^-1 p of degree 13 to e^A, a = |A|_1 <= theta_13 (Higham, SIAM J.
    Matrix Anal. Appl. 26 (2005) 1179), p and q normalised to p(0) = q(0)
    = I, with gamma_k = k u / (1 - k u):
    - truncation: r13(A) = e^(A + dA) with |dA|_1 <= u a, so r13(A) lies
      within u a e^(a + u a) of e^A;
    - rounding: an entry of p or q takes at most 5 N + 7 roundings (N, 2 N
      and 3 N for A^2, A^4 and A^6, N for each of the two products after,
      and the sums of at most four terms and I), so each is computed
      within gamma_(5N+7) times its series with absolute coefficients at
      a, at most e^(a/2), and so at most e^a times its own norm (its
      eigenvalues lie near e^(+-lambda/2), |lambda| <= a); LU with partial
      pivoting adds a backward error of at most N gamma_3N relative; and
      q^-1 p moves by at most kappa_1(q) times the sum of these relative
      errors, relative to |r|_1.
    It is derived, not fitted to what numpy or scipy return."""
    n, a = len(A), float(np.abs(A).sum(axis=0).max())
    b = odes._PADE13
    q = sum(b[j] / b[0] * np.linalg.matrix_power(-A, j) for j in range(14))

    def gamma(k):
        return k * U_ROUND / (1 - k * U_ROUND)

    r_norm = float(np.abs(expm(A)).sum(axis=0).max())
    rounding = np.linalg.cond(q, 1) * (2 * gamma(5 * n + 7) * math.exp(a) + n * gamma(3 * n))
    return U_ROUND * a * math.exp(a + U_ROUND * a) + rounding * r_norm


def scaled(A, norm):
    """A scaled to |A|_1 = norm."""
    return A * (norm / np.abs(A).sum(axis=-2).max(axis=-1))[..., None, None]


class TestExpm:
    """``odes.expm``, the stacked Pade-13, against scipy.linalg.expm.  At
    these norms scipy takes one Pade step of degree at most 13, without
    squaring, whose denominator approximates e^(-A/2) as q13 does, so its
    error obeys the bound of ``pade13_error_bound`` too, and the two lie
    within twice it of each other."""

    def assert_matches_scipy(self, stack):
        got = odes.expm(stack)
        for A, E in zip(stack, got):
            gap = float(np.abs(E - expm(A)).sum(axis=0).max())
            assert gap <= 2 * pade13_error_bound(A), (gap, A)

    def test_cooperative_tenths(self):
        # 200 matrices 0.1 A, A cooperative at N = 3, as one stack
        rng = np.random.default_rng(0)
        sample = cooperative_sampler(3, -2.0, 1.0, 0.0, 1.5)
        self.assert_matches_scipy(0.1 * np.stack([sample(rng) for _ in range(200)]))

    def test_norms_up_to_four(self):
        # general signs, 1-norms from 0.01 up to exactly 4, the largest
        # that ``_exact_flow`` hands on
        rng = np.random.default_rng(1)
        norms = np.concatenate([np.geomspace(0.01, 4.0, 40), [4.0] * 10])
        for n in (2, 3, 5):
            self.assert_matches_scipy(scaled(rng.standard_normal((50, n, n)), norms))

    def test_non_normal_and_large(self):
        rng = np.random.default_rng(2)
        jordan = np.diag([-1.0, -1.0, -1.0, -1.0]) + np.diag([1.0, 1.0, 1.0], 1)
        shear = np.array([[-3.0, 1e3], [0.0, -2.5]])
        upper = np.triu(rng.uniform(-1.0, 1.0, (6, 6)), 1) * 50 + np.diag(rng.uniform(-2.0, 0.0, 6))
        for A in (jordan, shear, upper):
            self.assert_matches_scipy(scaled(np.stack([A, A.T]), np.array([1.0, 4.0])))
        sample = cooperative_sampler(24, -1.0, 0.5, 0.0, 1.0)
        big = np.stack([*(0.1 * sample(rng) for _ in range(3)), rng.standard_normal((24, 24))])
        self.assert_matches_scipy(scaled(big, np.array([0.5, 2.0, 4.0, 4.0])))

    def test_diagonal_is_exact(self):
        # exp of the diagonal, so exp(0) is I exactly and not an ulp off
        D = np.stack([np.zeros((3, 3)), np.diag([-4.0, 0.0, 1.5])])
        assert np.array_equal(odes.expm(D), np.stack([np.eye(3), np.diag(np.exp([-4.0, 0.0, 1.5]))]))
        assert np.array_equal(odes.expm(D), expm(D))

    def test_singular_denominator_raises(self, monkeypatch):
        # the solve keeps np.linalg.solve's error state: with every Pade
        # coefficient 0, V - U is the zero matrix and the solve raises
        monkeypatch.setattr(odes, "_PADE13", (0.0,) * 14)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            odes.expm(np.ones((2, 3, 3)))

    def test_stack_is_its_members(self):
        # a member's exponential does not depend on the stack around it,
        # and neither does its exact flow, squarings included
        rng = np.random.default_rng(3)
        sample = cooperative_sampler(3, -2.0, 1.0, 0.0, 1.5)
        stack = np.stack([*(sample(rng) for _ in range(8)), np.zeros((3, 3)), np.diag([1.0, -2.0, 0.5]),
                          scaled(rng.standard_normal((3, 3)), 4.0)])
        E = odes.expm(stack)
        for i in range(len(stack)):
            assert np.array_equal(E[i], odes.expm(stack[i:i + 1])[0]), i
        t0, t1 = np.zeros(len(stack)), np.linspace(0.1, 30.0, len(stack))  # up to s = 6 squarings
        F, ls = odes._exact_flow(stack, t0, t1)
        for i in range(len(stack)):
            Fi, lsi = odes._exact_flow(stack[i:i + 1], t0[i:i + 1], t1[i:i + 1])
            assert np.array_equal(F[i], Fi[0]) and ls[i] == lsi[0], i

    def test_nonfinite_member_names_its_piece(self):
        # a stack of pieces from three base points; the one NaN coefficient
        # is named by its own piece, (0.6, 1) of the third
        class OneBadCell(PiecewiseConstantOdeModel):
            def piece_matrix(self, state, t0, t1):
                A = super().piece_matrix(state, t0, t1)
                return A * np.nan if state.advance(0.5 * (t0 + t1)).index == 3 else A

        model = OneBadCell(2, cooperative_sampler(2, -1.0, 1.0, 0.0, 1.0))
        bases = [cont_state().advance(x) for x in (0.4, 1.4, 2.4)]
        propagate(model, bases[:2], np.eye(2), [1.0, 1.0])
        with pytest.raises(EstimationError, match=r"non-finite coefficient on the piece \(0\.6, 1\)"):
            propagate(model, bases, np.eye(2), [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("model", [
        {"kind": "ode-piecewise-uniform", "n": 3, "diag": [-1.0, 0.5], "offdiag": [0.0, 1.0]},
        {"kind": "ode-piecewise-uniform", "n": 2, "diag": [-0.5, 0.5], "offdiag": [0.1, 1.0]},
    ], ids=["n3", "n2"])
    def test_metzler_flow_maps_nonnegative(self, model):
        # the flow of a cooperative (Metzler) piece is a nonnegative matrix;
        # the ode-piecewise configs' maps keep that in floating point
        _, m = build_model({"model": model})
        coc = OdeCocycle(m, dt=0.1)
        for seed in (100, 200, 300):
            for backward in (False, True):
                for maps, _ in coc.step_blocks(cont_state(seed), 0, 1000, backward):
                    assert (maps >= 0.0).all(), seed


class TestCells:
    """A piecewise-constant model reads its cells through ``cells`` and keeps
    the last block drawn."""

    def test_block_cell_does_not_depend_on_its_block(self):
        model = PiecewiseUniformOdeModel(3, -1.0, 0.5, 0.0, 1.0)
        at = lambda i: cont_state(3).advance(i + 0.5)  # noqa: E731
        whole = model.cells(at(-40), 400)
        for i, count in [(-40, 1), (-3, 7), (0, 256), (200, 100), (255, 2)]:
            assert np.array_equal(model.cells(at(i), count), whole[i + 40:i + 40 + count])
        # flow maps over cells -30..270, across cell 0 and a block edge: a
        # forward read, a backward read and reads cut at other chunk edges
        start, steps = cont_state(3).advance(-30.0), 3000

        def read(model, lo, hi, backward=False):
            chunks = list(OdeCocycle(model, dt=0.1).step_blocks(start, lo, hi, backward))
            return np.concatenate([maps for maps, _ in (chunks[::-1] if backward else chunks)])

        forward = read(PiecewiseUniformOdeModel(3, -1.0, 0.5, 0.0, 1.0), 0, steps)
        assert np.array_equal(read(model, 0, steps, backward=True), forward)
        for cut in (1, 100, 300):
            parts = [read(model, 0, cut), read(model, cut, steps)]
            assert np.array_equal(np.concatenate(parts), forward), cut
        assert model._block[2].shape == (BLOCK_CELLS, 3, 3)  # the memo holds one block

    def test_user_sampler_draws_each_cell_from_its_rng(self):
        inner, draws = cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0), []

        def sampler(rng):
            draws.append(1)
            return inner(rng)

        model = PiecewiseConstantOdeModel(3, sampler)
        expected = [inner(cont_state(5).advance(i + 0.5).rng()) for i in range(-3, 3)]
        assert np.array_equal(model.cells(cont_state(5).advance(-2.5), 6), np.stack(expected))
        draws.clear()
        for i, A in zip(range(-3, 3), expected):
            for t in (0.25, 0.75):
                assert np.array_equal(model.field(cont_state(5), i + t), A)
        assert len(draws) == 6  # one draw per cell: a miss draws the one cell asked for

    def test_block_stream_agrees_with_user_sampler_stream(self):
        # the config kind's cells and the cooperative sampler's are one law
        # drawn from two streams: over seeds 1-20 at N = 3, T = 100, dt =
        # 0.1, the mean lambda1 and sigma estimates of the two differ by under
        # 4 standard errors of the difference (Welch)
        stats = []
        for model in (PiecewiseConstantOdeModel(3, cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0)),
                      PiecewiseUniformOdeModel(3, -1.0, 0.5, 0.0, 1.0)):
            coc = OdeCocycle(model, dt=0.1)
            seps = [separation_estimate(coc, cont_state(seed), 100.0) for seed in range(1, 21)]
            stats.append(np.array([[sep.lambda1_hat, sep.sigma_hat] for sep in seps]))
        user, block = stats
        z = (user.mean(axis=0) - block.mean(axis=0)) / np.sqrt(
            (user.var(axis=0, ddof=1) + block.var(axis=0, ddof=1)) / len(user))
        assert (np.abs(z) < 4.0).all(), z

    def test_config_kind_draws_no_generator(self, monkeypatch):
        calls = []
        prf = drivers._prf
        monkeypatch.setattr(drivers, "_prf", lambda *args: calls.append(args) or prf(*args))
        model = PiecewiseUniformOdeModel(3, -1.0, 0.5, 0.0, 1.0)
        check_O(model, IidShift(time="continuous"), 1, 50)
        forward_floquet(OdeCocycle(model, dt=0.1), cont_state(1), np.ones(3), 10.0)
        assert calls == []


class TestDop853:
    """The adaptive integrator for smooth pieces."""

    def test_tableau_matches_scipy(self):
        # the library inlines the tableau; only the test loads scipy.integrate
        from scipy.integrate._ivp import dop853_coefficients as ref

        n = odes._STAGES
        assert np.array_equal(odes._C, ref.C[:n])
        assert np.array_equal(odes._A, ref.A[:n, :n])
        assert np.array_equal(odes._B, ref.B)
        assert np.array_equal(odes._E, np.stack([ref.E5[:n], ref.E3[:n]]))
        # the dropped 13th error weight, on A(t + h) Y_new, is zero
        assert ref.E5[n] == ref.E3[n] == 0.0

    def test_tableau_consistency(self):
        assert np.abs(odes._A.sum(axis=1) - odes._C).max() <= 1e-14
        assert abs(odes._B.sum() - 1.0) <= 1e-14
        assert np.abs(odes._E.sum(axis=1)).max() <= 1e-14
        assert np.all(np.triu(odes._A) == 0.0)

    def test_nan_field_raises_instead_of_hanging(self):
        def on_alarm(signum, frame):
            raise TimeoutError("the integrator hung on a NaN field")

        model = CallableOdeModel(2, lambda state, t: [[-1.0, np.nan], [1.0, -1.0]])
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(10)
        try:
            with pytest.raises(EstimationError,
                               match=r"non-finite error estimate at t = 0 inside the smooth piece \(0, 0\.1\)"):
                integrate(model, cont_state(), np.ones(2), 0.1)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_zero_member_ends_alone(self):
        # a member whose block is 0 gets -inf and no step; the others get
        # bit for bit what they get alone
        m = TorusExampleModel()
        states = [TorusRotation().initial(seed) for seed in (1, 2, 3)]
        Y = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)])
        out, ls, accepted, rejected = next(odes._dop853(m, [(states, [odes._pieces(m, s, 1.0) for s in states],
                                                             Y, 1e-10)], 1))
        assert ls[1] == -np.inf and not out[1].any() and accepted[1] == rejected[1] == 0
        for j in (0, 2):
            M, log_scale = propagate(m, states[j], np.eye(2), 1.0)
            assert np.array_equal(out[j], M) and ls[j] == log_scale and accepted[j] > 0

    def test_knots_drop_rounding_slivers(self):
        eps = np.finfo(float).eps
        model = CallableOdeModel(1, lambda state, t: [[0.0]],
                                 lambda state, t0, t1: [eps / 8, 2 * eps, 0.05, 0.1 - 2 * eps, 0.1])
        assert odes._knots(model, cont_state(), 0.1) == [0.0, 0.05, 0.1]
        wide = CallableOdeModel(1, lambda state, t: [[0.0]], lambda state, t0, t1: [1e-12, 10.0 - 1e-12])
        assert odes._knots(wide, cont_state(), 10.0) == [0.0, 1e-12, 10.0 - 1e-12, 10.0]

    def test_knots_are_the_array_formula(self):
        # the knots, filtered in plain floats, are bit for bit those of the
        # array formula kept here, on torus steps that hold zero to a few
        # wraps and on cell steps whose ends fall on, a few ulps off and
        # near cell edges
        def ref_knots(model, omega, t):
            snap = 8.0 * np.finfo(float).eps * max(1.0, t)
            bps = np.asarray(model.breakpoints(omega, 0.0, t), dtype=float)
            inner = bps[(bps > snap) & (bps < t - snap)]
            return [0.0, *sorted(set(inner.tolist())), float(t)]

        rng, torus = np.random.default_rng(8), TorusExampleModel()
        cells = PiecewiseUniformOdeModel(3, -1.0, 0.5, 0.0, 1.0)
        cases = [(torus, TorusRotation(rho).initial(int(seed)).advance(x), t)
                 for rho in (None, 0.3, 0.7071) for seed, x, t in zip(
                     rng.integers(0, 10**6, 300).tolist(), rng.uniform(-100.0, 100.0, 300).tolist(),
                     (10.0 ** rng.uniform(-4.0, 0.5, 300)).tolist())]
        for i, dt in product(range(-50, 50), (0.1, 1 / 3, 0.25, 1.0, 2.5)):
            for pos in (float(i), i + 4 * math.ulp(i), i - 3e-7, i + rng.uniform()):
                cases += [(cells, cont_state(4).advance(pos).advance(-j * dt), dt) for j in range(2)]
        wraps = [len(ref_knots(model, omega, t)) - 2 for model, omega, t in cases]
        assert {0, 1, 2} <= set(wraps[:900]) and {0, 1, 2, 3} <= set(wraps[900:]), wraps
        for model, omega, t in cases:
            got, ref = odes._knots(model, omega, t), ref_knots(model, omega, t)
            assert all(type(k) is float for k in got) and got == ref, (omega, t)
            assert np.array(got).view(np.int64).tolist() == np.array(ref).view(np.int64).tolist()

    def test_knots_sort_and_merge_breakpoints(self):
        # unsorted, repeated and end-snapped breakpoints split a step exactly
        # as the clean sorted list does
        eps = np.finfo(float).eps

        def fieldfn(state, t):
            return [[-1.0, 1.0 + t], [1.0, -t]]

        messy = CallableOdeModel(2, fieldfn, lambda state, t0, t1: [0.07, 0.03, 0.07, 0.1 - eps,
                                                                    0.03, eps / 4, 0.05, 0.0])
        clean = CallableOdeModel(2, fieldfn, lambda state, t0, t1: [0.03, 0.05, 0.07])
        assert odes._knots(messy, cont_state(), 0.1) == [0.0, 0.03, 0.05, 0.07, 0.1]
        Y, ls = propagate(messy, cont_state(), np.eye(2), 0.1)
        Y_clean, ls_clean = propagate(clean, cont_state(), np.eye(2), 0.1)
        assert np.array_equal(Y, Y_clean) and ls == ls_clean


def looping(model):
    """``model`` answering ``inner_breaks`` by the ``OdeModel`` default,
    one ``_knots`` call per step."""
    model.inner_breaks = functools.partial(odes.OdeModel.inner_breaks, model)
    return model


def assert_same_flow_maps(model, scalar, first, k, dt):
    [(maps, ls)] = odes.flow_maps(model, [(first, k, 1e-10)], dt)
    [(maps_s, ls_s)] = odes.flow_maps(scalar, [(first, k, 1e-10)], dt)
    assert np.array_equal(maps, maps_s) and np.array_equal(ls, ls_s), (first, k, dt)


# stream positions: integers, integers a few ulps off, integers off by up
# to a _NEAR share of a step (a cell edge inside a step, near its end), and
# any value up to 1e6 in size, negative ones too
POSITIONS = st.one_of(
    st.integers(-10**6, 10**6).map(float),
    st.builds(lambda i, n: i + n * math.ulp(i), st.integers(-10**6, 10**6).map(float), st.integers(-4, 4)),
    st.builds(lambda i, x: i + x, st.integers(-1000, 1000), st.floats(-3e-7, 3e-7)),
    st.floats(-1e6, 1e6))
DTS = st.sampled_from([0.1, 1 / 3, 0.25, 1.0, 2.5])


class TestInnerBreaks:
    """A chunk's steps near a breakpoint are judged by one
    ``OdeModel.inner_breaks`` call, which must give the bits of each step's
    own ``_knots``; ``flow_maps`` through the array answer of a
    piecewise-constant model is bit for bit ``flow_maps`` through the
    looping default."""

    @settings(max_examples=300, deadline=None)
    @given(POSITIONS, st.sampled_from([0.0, 0.1, 1 / 3]), DTS,
           st.lists(st.integers(-10**5, 10**5), min_size=1, max_size=20))
    def test_array_answer_is_the_knots(self, pos, extra, dt, js):
        # ``extra`` leaves a rounding error in the compensated position;
        # a run of 30 steps from the first j crosses a few cell edges
        model = PiecewiseUniformOdeModel(3, -1.0, 0.5, 0.0, 1.0)
        first = cont_state(1).advance(pos).advance(extra)
        steps = np.concatenate([js, js[0] + np.arange(30)])
        knots = [len(odes._knots(model, advance_steps(first, j, dt), dt)) > 2 for j in steps.tolist()]
        assert model.inner_breaks(first, steps, dt).tolist() == knots

    @settings(max_examples=60, deadline=None)
    @given(POSITIONS, DTS, st.integers(1, 60))
    def test_flow_maps_match_the_looping_default(self, pos, dt, k):
        first = cont_state(2).advance(pos)
        assert_same_flow_maps(PiecewiseUniformOdeModel(3, -1.0, 0.5, 0.0, 1.0),
                              looping(PiecewiseUniformOdeModel(3, -1.0, 0.5, 0.0, 1.0)), first, k, dt)

    def test_near_edge_steps_propagated_alike(self):
        # a cell edge 1e-10 past a step's start lies inside it by its own
        # knots but within _NEAR dt of the window's edge: the array answer
        # propagates it, as the looping default does
        model = PiecewiseUniformOdeModel(3, -1.0, 0.5, 0.0, 1.0)
        first = cont_state(2).advance(4.0 - 1e-10)
        assert model.inner_breaks(first, np.arange(3), 0.1).tolist() == [True, False, False]
        for dt in (0.1, 1.0, 2.5):
            assert_same_flow_maps(model, looping(PiecewiseUniformOdeModel(3, -1.0, 0.5, 0.0, 1.0)), first, 40, dt)

    def test_typek_flip_answers_through_its_model(self):
        # the flip's breakpoints are its inner model's, and so is its array
        # answer; its flow maps are those of the looping default
        b_model = PiecewiseConstantOdeModel(4, typek_sampler)
        asked, answer = [], b_model.inner_breaks

        def spied(first, steps, dt):
            asked.append(len(steps))
            return answer(first, steps, dt)

        b_model.inner_breaks = spied
        model = TypeKFlipModel(b_model, 2)
        scalar = looping(TypeKFlipModel(PiecewiseConstantOdeModel(4, typek_sampler), 2))
        for pos in (0.0, 4.0 - 1e-10, 0.37):
            for dt in (0.1, 0.3, 2.5):
                assert_same_flow_maps(model, scalar, cont_state(4).advance(pos), 50, dt)
        assert sum(asked) > 0


class TestBatchedIntegrate:
    """``integrate`` over many (base point, time) pairs: one DOP853 batch,
    each pair bit for bit what it gets alone."""

    @staticmethod
    def assert_pairs_alone(model, omegas, u0, times, rtol=1e-10):
        d, ls = integrate(model, omegas, u0, times, rtol=rtol)
        assert d.shape == (len(times), model.n) and ls.shape == (len(times),)
        pairs = zip(omegas, times) if isinstance(omegas, list) else ((omegas, t) for t in times)
        for j, (omega, t) in enumerate(pairs):
            d_j, ls_j = integrate(model, omega, u0, t, rtol=rtol)
            assert np.array_equal(d[j], d_j) and ls[j] == ls_j, j

    def test_torus_pairs_across_wraps(self):
        m = TorusExampleModel()
        states = [TorusRotation().initial(seed) for seed in (0, 1, 2) for _ in range(3)]
        times = [0.4, 3.7, 9.9] * 3
        assert all(len(m.breakpoints(s, 0.0, 3.7)) > 0 for s in states[:3])  # the horizons cross wraps
        self.assert_pairs_alone(m, states, np.array([1.0, 0.3]), times)

    def test_callable_breakpoints_inside_horizons(self):
        def field(state, t):
            return [[-1.0 + math.sin(t), 1.0], [0.5 + 0.1 * math.floor(t / 0.7), -0.2 * t]]

        model = CallableOdeModel(2, field, lambda state, t0, t1: [b for b in np.arange(0.7, t1, 0.7) if b > t0])
        self.assert_pairs_alone(model, cont_state(), np.array([0.2, 1.0]), [0.5, 1.5, 2.9, 1.4])

    def test_piecewise_constant_chains_without_smooth_piece(self):
        model = coop_pw_model()
        states = [cont_state(seed).advance(0.35 * seed) for seed in range(4)]
        self.assert_pairs_alone(model, states, np.ones(3), [0.6, 2.3, 3.0, 1.0])

    def test_zero_time_members(self):
        m = TorusExampleModel()
        states = [TorusRotation().initial(seed) for seed in range(4)]
        self.assert_pairs_alone(m, states, np.array([3.0, -4.0]), [0.0, 2.5, 0.0, 1.0])
        self.assert_pairs_alone(coop_pw_model(), cont_state(), np.ones(3), [1.5, 0.0])

    def test_propagate_blocks(self):
        m = TorusExampleModel()
        states = [TorusRotation().initial(seed) for seed in range(3)]
        Ys, ls = propagate(m, states, np.eye(2), [1.0, 0.0, 2.0])
        assert Ys.shape == (3, 2, 2)
        for j, t in enumerate([1.0, 0.0, 2.0]):
            Y, log_scale = propagate(m, states[j], np.eye(2), t)
            assert np.array_equal(Ys[j], Y) and ls[j] == log_scale

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_time_rejected(self, bad):
        model = ConstantOdeModel(-np.eye(2))
        with pytest.raises(ValueError, match=rf"finite times, got t = {bad}"):
            propagate(model, cont_state(), np.ones(2), bad)
        with pytest.raises(ValueError, match=rf"finite times, got t\[1\] = {bad}"):
            integrate(model, cont_state(), np.ones(2), [1.0, bad])

    def test_bad_batches_rejected(self):
        model = ConstantOdeModel(-np.eye(2))
        with pytest.raises(ValueError, match=r"t >= 0, got t\[0\] = -1.0"):
            integrate(model, cont_state(), np.ones(2), [-1.0])
        with pytest.raises(ValueError, match="2 base points for 3 times"):
            integrate(model, [cont_state(), cont_state(1)], np.ones(2), [1.0, 2.0, 3.0])
        # a list of base points with one time is a count mismatch too, in
        # propagate as in integrate (it used to raise AttributeError)
        for solve in (integrate, propagate):
            with pytest.raises(ValueError, match="^2 base points for 1 times$"):
                solve(model, [cont_state(), cont_state(1)], np.ones(2), 1.0)
        with pytest.raises(ValueError, match="1-D sequence"):
            integrate(model, cont_state(), np.ones(2), [[1.0]])

    @pytest.mark.parametrize("call, name", [
        (lambda bad: OdeCocycle(ConstantOdeModel(-np.eye(2)), dt=bad), "dt"),
        (lambda bad: OdeCocycle(ConstantOdeModel(-np.eye(2)), rtol=bad), "rtol"),
        (lambda bad: propagate(TorusExampleModel(), TorusRotation().initial(0), np.eye(2), 1.0, rtol=bad), "rtol"),
        (lambda bad: integrate(TorusExampleModel(), TorusRotation().initial(0), np.ones(2), [1.0], rtol=bad),
         "rtol"),
    ], ids=["cocycle-dt", "cocycle-rtol", "propagate-rtol", "integrate-rtol"])
    @pytest.mark.parametrize("bad", [0.0, -1e-6, math.nan, math.inf])
    def test_bad_dt_and_rtol_named(self, call, name, bad):
        # dt = 0 used to raise ZeroDivisionError in a step count, dt = nan a
        # float conversion error, rtol = nan an EstimationError blaming the
        # field, and rtol < 0 ran
        with pytest.raises(ValueError, match=rf"^{name} must be finite and > 0, got {name} = {bad!r}$"):
            call(bad)


class TestDop853Stream:
    """``_dop853`` over a stream of batches: at most BLOCK_CELLS members are
    live, waiting members take the slots that others free, and every member
    gets, bit for bit and with the same step counts, what it gets alone."""

    def test_members_admitted_mid_run_get_what_they_get_alone(self, monkeypatch):
        # three batches of 150 torus members, each over its own time in
        # (0.05, 2), some across wraps: the first two fill the BLOCK_CELLS
        # slots, and the rest of the second and all of the third wait for
        # slots that others free mid-run.  A batch is drawn only once the
        # batch two before it has been yielded
        m, rng = TorusExampleModel(), np.random.default_rng(5)
        batches = []
        for _ in range(3):
            states = [TorusRotation().initial(int(seed)) for seed in rng.integers(0, 10**6, 150)]
            chains = [odes._pieces(m, state, t) for state, t in zip(states, rng.uniform(0.05, 2.0, 150).tolist())]
            batches.append((states, chains, rng.uniform(0.1, 1.0, (150, 2, 2)), 1e-6))
        assert any(len(chain) > 1 for _, chains, _, _ in batches for chain in chains)  # a wrap splits a chain
        live, results, draws = [], [], []
        coefficient = odes._coefficient

        def counted(parts, taus):
            if len(taus) == odes._STAGES:
                live.append(taus.shape[1])
            return coefficient(parts, taus)

        def source():
            for batch in batches:
                draws.append(len(results))  # the batches yielded when this one is drawn
                yield batch

        monkeypatch.setattr(odes, "_coefficient", counted)
        for result in odes._dop853(m, source(), 2):
            results.append(result)
        monkeypatch.undo()
        assert max(live) == BLOCK_CELLS and len(results) == 3
        assert all(i - yielded <= 1 for i, yielded in enumerate(draws)), draws
        for (states, chains, Y, rtol), got in zip(batches, results):
            for j, (state, chain) in enumerate(zip(states, chains)):
                alone = next(odes._dop853(m, [([state], [chain], Y[j:j + 1], rtol)], 1))
                for a, b in zip(got, alone):
                    assert np.array_equal(a[j], b[0]), j

    def test_batches_at_two_rtols_in_one_stream(self, monkeypatch):
        # three batches of 60 torus members, the same (base point, time)
        # pairs at rtol 1e-6 and then at 1e-10, six batches in one stream
        # with ahead = 4.  At most four batches are drawn and not yet
        # yielded, and four are once; the results come in draw order, and every member gets
        # what it gets alone at its batch's rtol, bit for bit and with the
        # same step counts.  The slow members of both rtols step together:
        # the stream takes fewer steps than the two rtols' streams apart
        m, rng = TorusExampleModel(), np.random.default_rng(11)
        batches = []
        for _ in range(3):
            states = [TorusRotation().initial(int(seed)) for seed in rng.integers(0, 10**6, 60)]
            chains = [odes._pieces(m, state, t) for state, t in zip(states, rng.uniform(0.05, 2.0, 60).tolist())]
            batches.append((states, chains, rng.uniform(0.1, 1.0, (60, 2, 2))))
        rtols, ahead = (1e-6, 1e-10), 4
        steps, coefficient = [0], odes._coefficient

        def counted(parts, taus):
            steps[0] += len(taus) == odes._STAGES
            return coefficient(parts, taus)

        def source(rtols, draws, delivered):
            for i, (batch, rtol) in enumerate((batch, rtol) for rtol in rtols for batch in batches):
                draws.append(i + 1 - len(delivered))  # the batches drawn and not yet yielded, this one too
                yield *batch, rtol

        monkeypatch.setattr(odes, "_coefficient", counted)
        apart = []
        for rtol in rtols:
            steps[0], delivered = 0, []
            delivered.extend(odes._dop853(m, source([rtol], [], delivered), 2))
            assert len(delivered) == 3
            apart.append(steps[0])
        steps[0], draws, delivered = 0, [], []
        for out in odes._dop853(m, source(rtols, draws, delivered), ahead):
            delivered.append(out)
        monkeypatch.undo()
        assert len(delivered) == 6 and max(draws) == ahead, draws
        assert steps[0] < sum(apart), (steps[0], apart)
        for i, out in enumerate(delivered):
            (states, chains, Y), rtol = batches[i % 3], rtols[i // 3]
            for j, (state, chain) in enumerate(zip(states, chains)):
                alone = next(odes._dop853(m, [([state], [chain], Y[j:j + 1], rtol)], 1))
                for a, b in zip(out, alone):
                    assert np.array_equal(a[j], b[0]), (i, j)
        # the two rtols give different maps, so no member was served the other rtol
        assert not np.array_equal(delivered[0][0], delivered[3][0])


class TestGrowthBound:
    # beta_upper, the bound exp of the integral over [0, 1] of the summed row
    # maxima, dominates the ell-1 growth of nonnegative solutions at t = 1
    def test_zero_field_exact(self):
        model = ConstantOdeModel(np.zeros((2, 2)))
        assert irreducibility_quantities(model, cont_state(), delta=1.0).beta_upper == 1.0
        d, ls = integrate(model, cont_state(), np.array([0.3, 0.7]), 1.0)
        assert np.exp(ls) == 1.0  # equality for positive u0

    def test_constant_symmetric_bound(self):
        model = ConstantOdeModel([[0.0, 1.0], [1.0, 0.0]])
        bound = irreducibility_quantities(model, cont_state()).beta_upper
        assert abs(bound - np.exp(2.0)) < 1e-8
        # realized growth of the l1 norm is e for the Perron direction
        u0 = np.array([0.5, 0.5])
        M, ls = propagate(model, cont_state(), np.eye(2), 1.0)
        u1 = np.exp(ls) * (M @ u0)
        assert np.abs(u1).sum() <= bound * u0.sum() * (1 + 1e-6)

    def test_dominates_realized_growth_random(self):
        model = coop_pw_model()
        st = cont_state(3)
        rng = np.random.default_rng(4)
        bound = irreducibility_quantities(model, st).beta_upper
        for _ in range(5):
            u0 = rng.uniform(0.0, 2.0, 3) + 1e-3
            d, ls = integrate(model, st, u0, 1.0)
            realized = np.exp(ls) * np.linalg.norm(u0) * np.abs(d).sum()
            assert realized <= bound * u0.sum() * (1 + 1e-6)

    def test_smooth_field_bound(self):
        # entries that stay nonnegative keep each running-integral minimum at
        # F(0) = 0, so the refinement must also watch the row maxima: with
        # f = 5 sin(pi t) the summed row maxima f + delta integrate to
        # 10 / pi + delta, and a grid that stops early under-estimates that
        # concave integral
        delta = 1e-3

        def field(state, t):
            f = 5.0 * math.sin(math.pi * t)
            return [[f, f], [delta, 0.0]]

        model = CallableOdeModel(2, field)
        q = irreducibility_quantities(model, cont_state(), delta=delta)
        exact = 10.0 / math.pi + delta
        assert math.log(q.beta_upper) >= exact - 4 * q.grid_points * np.finfo(float).eps * exact
        u0 = np.array([1.0, 0.0])
        d, ls = integrate(model, cont_state(), u0, 1.0)
        assert np.exp(ls) * np.abs(d).sum() <= q.beta_upper

    def test_torus_example_bound(self):
        m = TorusExampleModel()
        st = TorusRotation().initial(5)
        bound = irreducibility_quantities(m, st).beta_upper
        u0 = np.array([1.0, 1.0])
        d, ls = integrate(m, st, u0, 1.0, rtol=1e-8)
        realized = np.exp(ls) * np.linalg.norm(u0) * np.abs(d).sum()
        assert realized <= bound * u0.sum() * (1 + 1e-6)


class TestStructureChecks:
    def test_torus_model_cooperative(self):
        rep = check_O(TorusExampleModel(), TorusRotation(), 0, 5)[0]
        assert rep.verdict == "holds"

    def test_negative_offdiagonal_witnessed(self):
        model = ConstantOdeModel([[0.0, -1.0], [1.0, 0.0]])
        rep = check_O(model, IidShift(time="continuous"), 0, 3)[0]
        assert rep.verdict == "fails"
        assert rep.witnesses[0][2:4] == (0, 1)

    def test_diagonal_vacuous(self):
        rep = check_O(ConstantOdeModel(np.diag([-5.0, 3.0])), IidShift(time="continuous"), 0, 3)[0]
        assert rep.verdict == "holds"

    def test_rejects_no_samples(self):
        # used to report O1 "holds" over no base point and a NaN O2 estimate
        with pytest.raises(ValueError, match="^n_samples must be an integer >= 1, got n_samples = 0$"):
            check_O(ConstantOdeModel([[1.0, 2.0], [0.5, -3.0]]), IidShift(time="continuous"), 0, 0)

    def test_o2_constant_zero_width(self):
        rep = check_O(ConstantOdeModel([[1.0, 2.0], [0.5, -3.0]]), IidShift(time="continuous"), 0, 6)[1]
        assert rep.estimate == 2.0 and rep.ci == 0.0

    def test_o2_torus_is_one(self):
        rep = check_O(TorusExampleModel(), TorusRotation(), 0, 10)[1]
        assert rep.estimate == 1.0 and rep.ci == 0.0  # off-diagonal 1 dominates a < 0

    def test_o2_ci_shrinks(self):
        model = PiecewiseConstantOdeModel(2, lambda rng: rng.uniform(0.0, 1.0, (2, 2)))
        driver = IidShift(time="continuous")
        small = check_O(model, driver, 0, 50)[1]
        big = check_O(model, driver, 0, 800)[1]
        assert big.ci < small.ci

    def test_not_cooperative_keeps_five_witnesses_and_every_mean(self):
        # every base point fails O1 at t = 0; O1 stops at the fifth, and O2
        # still reads the time-0 field of all 12, each at its own base point
        seen = []

        class Counting(PiecewiseConstantOdeModel):
            def field(self, omega, t):
                seen.append((omega.pos, t))
                return super().field(omega, t)

        model = Counting(2, lambda rng: np.array([[0.0, -1.0], [1.0, rng.uniform(1.0, 2.0)]]))
        driver = IidShift(time="continuous")
        o1, o2 = check_O(model, driver, 0, 12)
        assert o1.verdict == "fails" and [w[0] for w in o1.witnesses] == [0, 1, 2, 3, 4]
        assert all(w[1:4] == (0.0, 0, 1) for w in o1.witnesses)
        assert seen == [(float(k), 0.0) for k in range(12)]
        means = [model.field(driver.initial(0).advance(float(k)), 0.0).max() for k in range(12)]
        assert o2.estimate == np.mean(means) and o2.ci > 0.0


class TestIrreducibility:
    def test_constant_ones_closed_form(self):
        model = ConstantOdeModel(np.ones((2, 2)))
        q = irreducibility_quantities(model, cont_state(), delta=1.0)
        assert abs(q.a_tilde[0]) < 1e-9 and abs(q.a_tilde[1]) < 1e-9
        assert np.abs(q.a_bar).max() < 1e-9
        assert abs(q.beta_i[0] - 1.0) < 1e-8
        assert abs(q.beta_upper - np.exp(2.0)) < 1e-6
        assert abs(q.beta_tilde_lower - 1.0) < 1e-8

    def test_negative_diagonal(self):
        model = ConstantOdeModel(np.array([[-2.0, 1.0], [1.0, -2.0]]))
        q = irreducibility_quantities(model, cont_state(), delta=1.0)
        assert abs(q.a_tilde[0] - (-2.0)) < 1e-8  # integral decreasing: min at t = 1
        assert abs(q.beta_upper - np.exp(2.0)) < 1e-6  # row max is the off-diagonal 1

    def test_delta_positive_required(self):
        model = ConstantOdeModel(np.ones((2, 2)))
        with pytest.raises(ValueError, match="delta"):
            irreducibility_quantities(model, cont_state(), delta=0.0)

    def test_field_evaluated_only_by_the_grid_refinement(self):
        # the chain search and the upper bound read the coefficient values
        # of the final grid; the field is not evaluated there a second time
        calls = []

        class Counted(ConstantOdeModel):
            def field(self, state, t):
                calls.append(t)
                return super().field(state, t)

        refine, refined = odes._cumulative_integrals, []

        def recorded(*args):
            out = refine(*args)
            refined.append(len(calls))
            return out

        with mock.patch.object(odes, "_cumulative_integrals", recorded):
            irreducibility_quantities(Counted([[0.2, 1.0], [0.5, -0.3]]), cont_state())
        assert refined == [len(calls)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_beta_upper_exact_on_constant_pieces(self, seed):
        # the trapezoid rule is exact on each constant piece when no
        # trapezoid spans a jump: beta_upper is exp(sum of (b - a) times the
        # summed row maxima) up to the rounding of a sum over the grid, and
        # the refinement stops at its first check
        model = PiecewiseConstantOdeModel(3, cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0))
        st = cont_state(seed).advance(0.3)
        knots = [0.0, *model.breakpoints(st, 0.0, 1.0).tolist(), 1.0]
        assert len(knots) == 3
        exact = sum((b - a) * model.field(st, 0.5 * (a + b)).max(axis=1).sum() for a, b in zip(knots, knots[1:]))
        q = irreducibility_quantities(model, st)
        assert abs(math.log(q.beta_upper) - exact) <= 4 * q.grid_points * np.finfo(float).eps * max(1.0, abs(exact))
        assert q.grid_points < 100  # two pieces at 64 points per unit time, not the 2^15 cap

    def test_torus_a_tilde_below_exact(self):
        # a = -1/(c + (1 + rho) tau)^2 is concave on each wrap-free piece, so
        # the trapezoid rule there under-estimates its integral; a is
        # negative, so a_tilde, the least running integral, is the one over
        # [0, 1] and lies at or below the exact value
        m = TorusExampleModel()
        for seed in range(5):
            st = TorusRotation().initial(seed)
            q = irreducibility_quantities(m, st)
            assert np.all(q.a_tilde <= m.a_integral(st, 1.0))

    def test_auto_chain_finds_delta(self):
        A = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [1.5, 0.0, 0.0]])
        model = ConstantOdeModel(A)
        q = irreducibility_quantities(model, cont_state())
        assert q.delta >= 1.5
        assert all(sorted(c) == [0, 1, 2] for c in q.chains)

    def test_fundamental_matrix_dominates_beta(self):
        # the chain lower bounds certify entrywise bounds for the time-1 map
        A = np.array([[0.2, 1.0, 0.4], [0.5, -0.3, 1.2], [0.8, 0.6, 0.1]])
        model = ConstantOdeModel(A)
        st = cont_state()
        q = irreducibility_quantities(model, st)
        M, ls = propagate(model, st, np.eye(model.n), 1.0)
        U = np.exp(ls) * M
        assert U.min() >= q.beta_lower * (1 - 1e-8)
        assert U.max() <= q.beta_upper * (1 + 1e-8)
        assert U.min() >= q.beta_tilde_lower * (1 - 1e-8)

    def test_beta_bounds_hold_under_strong_decay(self):
        # a near-dead row must show up in the per-column certificates, not be
        # averaged away: column i of the time-1 map dominates beta_i entrywise
        A = np.array([[0.0, 0.05], [0.05, -30.0]])
        model = ConstantOdeModel(A)
        st = cont_state()
        q = irreducibility_quantities(model, st)
        M, ls = propagate(model, st, np.eye(model.n), 1.0)
        U = np.exp(ls) * M
        col_mins = U.min(axis=0)
        assert np.all(col_mins >= q.beta_tilde_i * (1 - 1e-8))
        assert np.all(col_mins >= q.beta_i * (1 - 1e-8))


class TestTypeK:
    def test_sign_flip(self):
        B = ConstantOdeModel([[0.0, -1.0], [-1.0, 0.0]])
        A = TypeKFlipModel(B, 1)
        assert A.field(cont_state(), 0.0).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_involution(self):
        rng = np.random.default_rng(12)
        B = rng.normal(size=(4, 4))
        B[:2, 2:] = -np.abs(B[:2, 2:])
        B[2:, :2] = -np.abs(B[2:, :2])
        B[:2, :2] = np.abs(B[:2, :2])
        B[2:, 2:] = np.abs(B[2:, 2:])
        A = TypeKFlipModel(ConstantOdeModel(B), 2)
        flip = A.flip
        assert np.array_equal(flip[:, None] * A.field(cont_state(), 0.0) * flip[None, :], B)

    def test_p1_violation_witnessed(self):
        B = ConstantOdeModel([[0.0, 1.0], [-1.0, 0.0]])  # positive cross-block entry
        A = TypeKFlipModel(B, 1)
        with pytest.raises(ValueError, match="type-K"):
            A.field(cont_state(), 0.0)

    def test_trajectory_conjugacy_exact(self):
        # flipped type-K trajectories must match the cooperative ones bit for bit
        def sampler(rng):
            M = rng.uniform(0.0, 1.0, (4, 4))
            M[np.diag_indices(4)] = rng.uniform(-1.0, 1.0, 4)
            M[:2, 2:] *= -1
            M[2:, :2] *= -1
            return M

        b_model = PiecewiseConstantOdeModel(4, sampler)
        a_model = TypeKFlipModel(b_model, 2)
        st = cont_state(33)
        flip = a_model.flip
        u0 = np.array([0.5, 1.0, -0.7, -0.2])
        db, lsb = integrate(b_model, st, u0, 3.0)
        da, lsa = integrate(a_model, st, flip * u0, 3.0)
        assert lsa == lsb
        assert np.array_equal(da, flip * db)

    def test_dimension_validation(self):
        # the flipped block is the last N - k coordinates: both blocks
        # must be nonempty, so 1 <= k < N, and the size of the second is
        # derived from N
        for k in (-1, 0, 3, 4):
            with pytest.raises(ValueError, match=rf"1 <= k < N = 3, got k = {k}$"):
                TypeKFlipModel(ConstantOdeModel(np.eye(3)), k)
        for k in (1, 2):
            assert TypeKFlipModel(ConstantOdeModel(np.eye(3)), k).flip.tolist() == [1.0] * k + [-1.0] * (3 - k)


class TestCallableModel:
    def test_breakpoints_respected(self):
        # coefficient jumps at t = 1: -I before, +I after
        def fieldfn(state, t):
            return np.eye(2) if t > 1.0 else -np.eye(2)

        model = CallableOdeModel(2, fieldfn, lambda state, t0, t1: [1.0] if t0 < 1.0 < t1 else [])
        d, ls = integrate(model, cont_state(), np.array([1.0, 0.0]), 2.0)
        assert abs(ls) < 1e-9  # one unit of decay then one of growth
