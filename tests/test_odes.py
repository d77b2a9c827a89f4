import math
import signal

import numpy as np
import pytest
from scipy.linalg import expm

from poscocycle import odes
from poscocycle.drivers import IidShift
from poscocycle.errors import EstimationError
from poscocycle.estimators import OdeCocycle, forward_floquet
from poscocycle.odes import (CallableOdeModel, ConstantOdeModel,
                             PiecewiseConstantOdeModel, check_O1, check_O2,
                             cooperative_sampler, integrate,
                             irreducibility_quantities, kappa_functional,
                             l1_growth_bound, propagate, typek_to_cooperative)
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

    def test_splitting_law(self):
        model = coop_pw_model()
        st = cont_state(42)
        u0 = np.array([1.0, 0.5, 0.25])
        full_d, full_ls = integrate(model, st, u0, 6.0)
        d1, ls1 = integrate(model, st, u0, 2.3)
        d2, ls2 = integrate(model, st.advance(2.3), d1, 6.0 - 2.3)
        assert abs((ls1 + ls2) - full_ls) < 1e-8 * max(1.0, abs(full_ls))
        assert np.linalg.norm(d2 - full_d) < 1e-8

    def test_zero_initial_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            integrate(ConstantOdeModel(np.eye(2)), cont_state(), np.zeros(2), 1.0)

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
    def test_matches_dp5_on_cooperative_cells(self, n):
        model = PiecewiseConstantOdeModel(n, cooperative_sampler(n, -2.0, 1.0, 0.0, 1.5))
        twin = adaptive_twin(model)
        for seed in (0, 5, 11):
            # base points off the integer grid, so pieces straddle cell breakpoints
            st = cont_state(seed).advance(0.37 + 0.21 * seed)
            for t in (0.1, 0.3, 2.5):
                exact = propagate(model, st, np.eye(n), t)
                adaptive = propagate(twin, st, np.eye(n), t, rtol=1e-10)
                assert flow_gap(exact, adaptive) <= 1e-8, (n, seed, t)

    def test_typek_matches_dp5_twin(self):
        b_model = PiecewiseConstantOdeModel(4, typek_sampler)
        a_model = typek_to_cooperative(b_model, 2, 2)
        twin = typek_to_cooperative(adaptive_twin(b_model), 2, 2)
        assert a_model.piece_matrix(cont_state(), 0.0, 0.5) is not None
        assert twin.piece_matrix(cont_state(), 0.0, 0.5) is None
        for seed in (1, 8):
            st = cont_state(seed).advance(0.62)
            for t in (0.3, 2.5):
                exact = propagate(a_model, st, np.eye(4), t)
                adaptive = propagate(twin, st, np.eye(4), t, rtol=1e-10)
                assert flow_gap(exact, adaptive) <= 1e-8, (seed, t)

    def test_one_draw_and_one_expm_per_cell(self, monkeypatch):
        draws, expms = [], []
        inner = cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0)

        def sampler(rng):
            draws.append(1)
            return inner(rng)

        def counted_expm(M):
            expms.append(1)
            return expm(M)

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
        assert len(draws) == 10 and len(expms) == 10

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
        expms = []

        def counted_expm(M):
            expms.append(1)
            return expm(M)

        monkeypatch.setattr(odes, "expm", counted_expm)
        counts = []
        for model in (PiecewiseConstantOdeModel(4, typek_sampler),
                      typek_to_cooperative(PiecewiseConstantOdeModel(4, typek_sampler), 2, 2)):
            expms.clear()
            forward_floquet(OdeCocycle(model, dt=0.1), cont_state(4), np.ones(4), 10.0,
                            check_cone=False)
            counts.append(len(expms))
        assert counts[1] == counts[0] == 10

    def test_field_read_only(self):
        pw = coop_pw_model()
        const = ConstantOdeModel(np.eye(2))
        for model in (pw, const):
            A = model.field(cont_state(2), 0.5)
            assert not A.flags.writeable
            with pytest.raises(ValueError):
                A[0, 0] = 1.0

    def test_stiff_constant_needs_no_integration(self, monkeypatch):
        def no_dp5(*args, **kwargs):
            raise AssertionError("a constant piece reached the adaptive integrator")

        monkeypatch.setattr(odes, "_integrate_piece", no_dp5)
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

    def test_knots_drop_rounding_slivers(self):
        eps = np.finfo(float).eps
        model = CallableOdeModel(1, lambda state, t: [[0.0]],
                                 lambda state, t0, t1: [eps / 8, 2 * eps, 0.05, 0.1 - 2 * eps, 0.1])
        assert odes._knots(model, cont_state(), 0.1).tolist() == [0.0, 0.05, 0.1]
        wide = CallableOdeModel(1, lambda state, t: [[0.0]], lambda state, t0, t1: [1e-12, 10.0 - 1e-12])
        assert odes._knots(wide, cont_state(), 10.0).tolist() == [0.0, 1e-12, 10.0 - 1e-12, 10.0]


class TestGrowthBound:
    def test_zero_field_exact(self):
        model = ConstantOdeModel(np.zeros((2, 2)))
        assert l1_growth_bound(model, cont_state(), 3.0) == 1.0
        d, ls = integrate(model, cont_state(), np.array([0.3, 0.7]), 3.0)
        assert np.exp(ls) == 1.0  # equality for positive u0

    def test_constant_symmetric_bound(self):
        model = ConstantOdeModel([[0.0, 1.0], [1.0, 0.0]])
        bound = l1_growth_bound(model, cont_state(), 1.0)
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
        for t in (0.5, 1.0, 2.0):
            bound = l1_growth_bound(model, st, t)
            for _ in range(5):
                u0 = rng.uniform(0.0, 2.0, 3) + 1e-3
                d, ls = integrate(model, st, u0, t)
                realized = np.exp(ls) * np.linalg.norm(u0) * np.abs(d).sum()
                assert realized <= bound * u0.sum() * (1 + 1e-6)

    def test_torus_example_bound(self):
        m = TorusExampleModel()
        st = m.initial(5)
        for t in (0.5, 1.0, 2.0):
            bound = l1_growth_bound(m.ode_model, st, t)
            u0 = np.array([1.0, 1.0])
            d, ls = integrate(m.ode_model, st, u0, t, rtol=1e-8)
            realized = np.exp(ls) * np.linalg.norm(u0) * np.abs(d).sum()
            assert realized <= bound * u0.sum() * (1 + 1e-6)


class TestStructureChecks:
    def test_torus_model_cooperative(self):
        m = TorusExampleModel()
        rep = check_O1(m.ode_model, m.driver, 0, 5)
        assert rep.verdict == "holds"

    def test_negative_offdiagonal_witnessed(self):
        model = ConstantOdeModel([[0.0, -1.0], [1.0, 0.0]])
        rep = check_O1(model, IidShift(time="continuous"), 0, 3)
        assert rep.verdict == "fails"
        assert rep.witnesses[0][2:4] == (0, 1)

    def test_diagonal_vacuous(self):
        rep = check_O1(ConstantOdeModel(np.diag([-5.0, 3.0])), IidShift(time="continuous"), 0, 3)
        assert rep.verdict == "holds"

    def test_o2_constant_zero_width(self):
        rep = check_O2(ConstantOdeModel([[1.0, 2.0], [0.5, -3.0]]), IidShift(time="continuous"), 0, 6)
        assert rep.estimate == 2.0 and rep.ci == 0.0

    def test_o2_torus_is_one(self):
        m = TorusExampleModel()
        rep = check_O2(m.ode_model, m.driver, 0, 10)
        assert rep.estimate == 1.0 and rep.ci == 0.0  # off-diagonal 1 dominates a < 0

    def test_o2_ci_shrinks(self):
        model = PiecewiseConstantOdeModel(2, lambda rng: rng.uniform(0.0, 1.0, (2, 2)))
        driver = IidShift(time="continuous")
        small = check_O2(model, driver, 0, 50)
        big = check_O2(model, driver, 0, 800)
        assert big.ci < small.ci


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

    def test_bad_chain_rejected(self):
        model = ConstantOdeModel(np.ones((3, 3)))
        with pytest.raises(ValueError, match="chain"):
            irreducibility_quantities(model, cont_state(), delta=1.0, chains=[[0, 1, 1], [1, 0, 2], [2, 0, 1]])

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


class TestKappaFunctional:
    def test_diagonal(self):
        assert kappa_functional(np.diag([4.0, 7.0]), np.array([1.0, 0.0])) == 4.0

    def test_top_eigenvector(self):
        rng = np.random.default_rng(9)
        A = rng.uniform(-1, 1, (4, 4))
        A = A + A.T
        vals, vecs = np.linalg.eigh(A)
        w = vecs[:, -1]
        assert abs(kappa_functional(A, w) - vals[-1]) < 1e-12

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError, match="unit"):
            kappa_functional(np.eye(2), np.array([1.0, 1.0]))


class TestTypeK:
    def test_sign_flip(self):
        B = ConstantOdeModel([[0.0, -1.0], [-1.0, 0.0]])
        A = typek_to_cooperative(B, 1, 1)
        assert A.field(cont_state(), 0.0).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_involution(self):
        rng = np.random.default_rng(12)
        B = rng.normal(size=(4, 4))
        B[:2, 2:] = -np.abs(B[:2, 2:])
        B[2:, :2] = -np.abs(B[2:, :2])
        B[:2, :2] = np.abs(B[:2, :2])
        B[2:, 2:] = np.abs(B[2:, 2:])
        A = typek_to_cooperative(ConstantOdeModel(B), 2, 2)
        flip = A.flip
        assert np.array_equal(flip[:, None] * A.field(cont_state(), 0.0) * flip[None, :], B)

    def test_p1_violation_witnessed(self):
        B = ConstantOdeModel([[0.0, 1.0], [-1.0, 0.0]])  # positive cross-block entry
        A = typek_to_cooperative(B, 1, 1)
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
        a_model = typek_to_cooperative(b_model, 2, 2)
        st = cont_state(33)
        flip = a_model.flip
        u0 = np.array([0.5, 1.0, -0.7, -0.2])
        db, lsb = integrate(b_model, st, u0, 3.0)
        da, lsa = integrate(a_model, st, flip * u0, 3.0)
        assert lsa == lsb
        assert np.array_equal(da, flip * db)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="k"):
            typek_to_cooperative(ConstantOdeModel(np.eye(3)), 2, 2)


class TestCallableModel:
    def test_breakpoints_respected(self):
        # coefficient jumps at t = 1: -I before, +I after
        def fieldfn(state, t):
            return np.eye(2) if t > 1.0 else -np.eye(2)

        model = CallableOdeModel(2, fieldfn, lambda state, t0, t1: [1.0] if t0 < 1.0 < t1 else [])
        d, ls = integrate(model, cont_state(), np.array([1.0, 0.0]), 2.0)
        assert abs(ls) < 1e-9  # one unit of decay then one of growth
