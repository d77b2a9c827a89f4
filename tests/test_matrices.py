import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poscocycle.drivers import BLOCK_CELLS, IidShift, MarkovShift
from poscocycle.estimators import MatrixCocycle
from poscocycle.matrices import (ConstantMatrixModel, IidChoiceModel, LeslieModel,
                                 MarkovMatrixModel, MatrixModel, check_D, cocycle_product,
                                 focusing_certificate, leslie_matrix, leslie_model,
                                 matrix_from_csv, opnorm1, UniformEntriesModel)
from poscocycle.errors import EstimationError
from poscocycle.stats import mean_ci


def _report(reports, cond):
    return next(r for r in reports if r.condition == cond)


class TestCocycleProduct:
    def test_identity_cocycle(self):
        model = ConstantMatrixModel(np.eye(4))
        D, ls = cocycle_product(model, IidShift().initial(0), 100)
        assert np.array_equal(D, np.eye(4)) and ls == 0.0

    def test_all_ones_power(self):
        # oracle: direct 5-fold multiply
        J = np.ones((3, 3))
        expected = np.linalg.matrix_power(J, 5)
        model = ConstantMatrixModel(J)
        D, ls = cocycle_product(model, IidShift().initial(0), 5)
        assert np.allclose(np.exp(ls) * D, expected, rtol=1e-13)
        assert abs(opnorm1(D) - 1.0) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 300), st.integers(1, 300), st.integers(0, 10**6))
    def test_splitting_law(self, n, m, k, seed):
        # the product over m + k steps is the product over the last k after
        # the product over the first m.  Rounding bounds, first order in u
        # (the slack covers the higher orders), for entries in [lo, hi]:
        # - a step S @ P and its division by the max column sum perturb P
        #   entrywise by at most (n + 1) u, and nonnegative products pass
        #   entrywise relative errors on unchanged, so a run of L steps is
        #   c X (1 + d), |d| <= L (n + 1) u, for the exact product X and a
        #   scalar c; the final normalisation leaves opnorm1 within (n + 1) u
        #   of 1, and so does the combined side's extra product and division.
        #   The two directions thus differ entrywise by at most
        #   (4 L + 5)(n + 1) u relative, under 4 (L + 2)(n + 2) u;
        # - the log scales are the logs of the same normalisations, within
        #   (L + 1)(n + 1) u of log opnorm1(X) per side; each one-step log
        #   growth lies in [log(n lo), log(n hi)], at most lam in size, and
        #   costs 2u lam for its log and u j lam for the j-th running sum,
        #   under u lam (L + 4)^2 over the three runs and the final sums.
        lo, hi, u = 0.5, 2.0, np.finfo(float).eps / 2
        model = UniformEntriesModel(n, lo, hi)
        omega = IidShift().initial(seed)
        L = m + k
        D_full, ls_full = cocycle_product(model, omega, L)
        D_m, ls_m = cocycle_product(model, omega, m)
        D_k, ls_k = cocycle_product(model, omega.advance(m), k)
        combined = D_k @ D_m
        s = opnorm1(combined)
        lam = max(abs(np.log(n * lo)), abs(np.log(n * hi)))
        assert abs((ls_k + ls_m + np.log(s)) - ls_full) <= u * (2 * (L + 2) * (n + 2) + lam * (L + 4) ** 2)
        assert np.all(np.abs(combined / s - D_full) <= 4 * (L + 2) * (n + 2) * u * D_full)

    @pytest.mark.parametrize("n", [2.7, True, -1])
    def test_non_integer_or_negative_length_rejected(self, n):
        # a fractional length used to multiply int(n) maps without a word
        with pytest.raises(ValueError, match=f"^n must be an integer >= 0, got n = {n!r}$"):
            cocycle_product(UniformEntriesModel(3, 0.5, 2.0), IidShift().initial(0), n)

    def test_decaying_product_no_underflow(self):
        model = ConstantMatrixModel(1e-3 * np.eye(2))
        D, ls = cocycle_product(model, IidShift().initial(0), 200)
        assert np.isfinite(ls) and abs(ls - 200 * np.log(1e-3)) < 1e-9

    def test_positivity_preserved_exactly(self):
        model = UniformEntriesModel(3, 0.0, 1.0)
        omega = IidShift().initial(5)
        D, _ = cocycle_product(model, omega, 50)
        assert np.all(D >= 0.0)

    def test_splitting_law_long_product(self):
        model = UniformEntriesModel(3, 0.5, 2.0)
        omega = IidShift().initial(23)
        m, k = 4000, 6000
        D_full, ls_full = cocycle_product(model, omega, m + k)
        D_m, ls_m = cocycle_product(model, omega, m)
        D_k, ls_k = cocycle_product(model, omega.advance(m), k)
        combined = D_k @ D_m
        s = opnorm1(combined)
        assert abs((ls_k + ls_m + np.log(s)) - ls_full) < 1e-10 * max(1.0, abs(ls_full))


def _adjoint_map(model, omega):
    """The adjoint cocycle's one-step map at omega."""
    [(maps, _)] = MatrixCocycle(model).dual().step_blocks(omega, 0, 1)
    return maps[0]


class TestDualStep:
    def test_symmetric_constant(self):
        S = np.array([[2.0, 1.0], [1.0, 3.0]])
        model = ConstantMatrixModel(S)
        assert np.array_equal(_adjoint_map(model, IidShift().initial(0)), S)

    def test_transpose(self):
        model = ConstantMatrixModel([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(_adjoint_map(model, IidShift().initial(0)),
                              np.array([[1.0, 0.0], [2.0, 1.0]]))

    def test_pairing_identity(self):
        rng = np.random.default_rng(11)
        mats = [rng.uniform(0.1, 2.0, (4, 4)) for _ in range(3)]
        model = IidChoiceModel(mats)
        omega = IidShift().initial(8)
        S_star = _adjoint_map(model, omega)
        S_prev = model.emit(omega.advance(-1))
        for _ in range(50):
            u = rng.normal(size=4)
            u_star = rng.normal(size=4)
            lhs = u @ (S_star @ u_star)
            rhs = (S_prev @ u) @ u_star
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(u_star) * 10


class TestCheckD:
    def test_report_order(self):
        reports = check_D(ConstantMatrixModel([[2.0, 1.0], [1.0, 2.0]]), IidShift(), 0, 4)
        assert [r.condition for r in reports] == [
            "D1.i", "D1.ii", "D1.iii", "D2.i", "D2.ii", "D2.iii", "D2.iii.rows",
            "D2.sufficient.global-log-ratio", "D3.i", "D3.ii", "D3.sufficient.global-min"]
        # a nonpositive entry leaves the D2 moments out
        reports = check_D(ConstantMatrixModel([[1.0, 0.0], [1.0, 1.0]]), IidShift(), 0, 4)
        assert [r.condition for r in reports] == [
            "D1.i", "D1.ii", "D1.iii", "D2.i", "D2.ii", "D2.iii", "D3.i", "D3.ii", "D3.sufficient.global-min"]

    def test_non_finite_map_raises(self):
        with pytest.raises(EstimationError, match=r"sampled map 0 \(lag 1\) has the non-finite entry \(0, 1\)"):
            check_D(ConstantMatrixModel([[1.0, np.inf], [1.0, 1.0]]), IidShift(), 0, 5)

    @pytest.mark.parametrize("lag", [1, 3])
    def test_each_cell_emitted_once(self, lag):
        cells = []

        class Counting(UniformEntriesModel):
            def emit_block(self, state, count):
                cells.append(count)
                return super().emit_block(state, count)

        check_D(Counting(3, 0.5, 2.0), IidShift(), 0, 40, lag=lag)
        assert sum(cells) == 40 * lag

    def test_matches_per_map_statistics(self):
        # the axis reductions of the stack against each map's own statistics
        model, n, count = UniformEntriesModel(24, 0.0, 2.0), 24, 30
        maps = [model.emit(IidShift().initial(4).advance(k)) for k in range(count)]
        reports = check_D(model, IidShift(), 4, count)
        kappas = [float(n * (S.max(axis=0) / S.min(axis=0)).max()) for S in maps[:5]]
        assert _report(reports, "D2.i").witnesses == [("kappa_samples", kappas)]
        ratios = np.array([np.log(S.max(axis=0)) - np.log(S.min(axis=0)) for S in maps])
        worst = int(np.argmax(ratios.mean(axis=0)))
        assert _report(reports, "D2.iii").estimate == mean_ci(ratios[:, worst])[0]
        rows = [round(float(S.sum(axis=1).min()), 9) for S in maps[:5]]
        assert _report(reports, "D3.i").witnesses == [("nu_samples", rows)]
        cols = np.array([S.sum(axis=0).min() for S in maps])
        assert (_report(reports, "D3.ii").estimate, _report(reports, "D3.ii").ci) == mean_ci(np.maximum(-np.log(cols), 0.0))

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError, match="n_samples"):
            check_D(ConstantMatrixModel(np.eye(2)), IidShift(), 0, 0)

    @pytest.mark.parametrize("lag", [0, 2.5])
    def test_rejects_bad_lag(self, lag):
        # lag 0 used to check identity maps, and 2.5 was named as the
        # product's length n
        with pytest.raises(ValueError, match=f"^lag must be an integer >= 1, got lag = {lag}$"):
            check_D(UniformEntriesModel(3, 0.5, 2.0), IidShift(), 0, 5, lag=lag)

    def test_long_lag_does_not_overflow(self):
        # a lag-250 product of N = 24 maps has a log scale near 850, past
        # the range of exp: it used to overflow to inf and raise.  The ln+
        # moment is the log scale plus the log of the direction's largest
        # entry, and the row sums, too large for a float, are witnessed as inf
        model, lag = UniformEntriesModel(24, 0.5, 2.0), 250
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = check_D(model, IidShift(), 0, 5, lag=lag)
        products = [cocycle_product(model, IidShift().initial(0).advance(k * lag), lag) for k in range(5)]
        lnplus = [ls + np.log(D.max()) for D, ls in products]
        assert min(lnplus) > 800
        assert _report(reports, "D1.i").verdict == "holds"
        assert abs(_report(reports, "D1.iii").estimate - np.mean(lnplus)) <= 1e-12 * np.mean(lnplus)
        assert _report(reports, "D3.i").estimate == 0.0
        assert _report(reports, "D3.i").witnesses == [("nu_samples", [np.inf] * 5)]


class TestCheckD1:
    def test_singular_constant(self):
        reports = check_D(ConstantMatrixModel([[1.0, 1.0], [1.0, 1.0]]), IidShift(), 0, 5)
        assert _report(reports, "D1.i").verdict == "holds"
        assert _report(reports, "D1.ii").verdict == "fails"
        assert _report(reports, "D1.ii").witnesses

    def test_nonsingular_constant(self):
        reports = check_D(ConstantMatrixModel([[2.0, 1.0], [1.0, 1.0]]), IidShift(), 0, 7)
        assert _report(reports, "D1.i").verdict == "holds"
        assert _report(reports, "D1.ii").verdict == "holds"
        r3 = _report(reports, "D1.iii")
        assert r3.verdict == "empirical"
        assert abs(r3.estimate - np.log(2.0)) < 1e-14 and r3.ci == 0.0

    def test_negative_entry_witnessed(self):
        reports = check_D(ConstantMatrixModel([[1.0, -0.5], [1.0, 1.0]]), IidShift(), 0, 3)
        r = _report(reports, "D1.i")
        assert r.verdict == "fails"
        assert r.witnesses[0][1:3] == (0, 1)

    def test_moment_of_negative_map(self):
        # ln+ of the largest absolute entry, 2 here, and not of the largest
        # entry, whose log is undefined when it is negative
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = check_D(ConstantMatrixModel([[-1.0, -0.5], [-0.2, -2.0]]), IidShift(), 1, 5)
        r3 = _report(reports, "D1.iii")
        assert abs(r3.estimate - np.log(2.0)) < 1e-14 and r3.ci == 0.0


class TestCheckD2D3:
    def test_constant_positive_exact_moments(self):
        model = ConstantMatrixModel([[2.0, 1.0], [1.0, 2.0]])
        reports = check_D(model, IidShift(), 0, 6)
        for cond in ("D2.i", "D2.ii", "D2.iii"):
            r = _report(reports, cond)
            assert r.verdict == "empirical" and r.ci == 0.0
        assert abs(_report(reports, "D2.iii").estimate - np.log(2.0)) < 1e-14
        assert _report(reports, "D3.i").verdict == "empirical"
        assert _report(reports, "D3.i").estimate == 0.0  # min row sum is 3 > 1

    def test_extrema_of_two_by_two(self):
        # columns (1, 3) and (2, 4), rows (1, 2) and (3, 4): kappa = 2 max(3/1, 4/2),
        # the min row sum 3, the min column sum 4, entries from 1 to 4
        reports = check_D(ConstantMatrixModel([[1.0, 2.0], [3.0, 4.0]]), IidShift(), 0, 3)
        assert _report(reports, "D2.i").witnesses == [("kappa_samples", [6.0, 6.0, 6.0])]
        assert _report(reports, "D2.iii").estimate == np.log(3.0) - np.log(1.0)  # the worse column, 0
        assert _report(reports, "D2.iii.rows").estimate == np.log(2.0) - np.log(1.0)  # the worse row, 0
        assert _report(reports, "D3.i").witnesses == [("nu_samples", [3.0, 3.0, 3.0])]
        assert _report(reports, "D3.ii").witnesses == [("nu_samples", [4.0, 4.0, 4.0])]
        assert _report(reports, "D2.sufficient.global-log-ratio").estimate == np.log(4.0) - np.log(1.0)
        assert _report(reports, "D3.sufficient.global-min").estimate == 0.0

    def test_all_ones_extrema(self):
        # every entry, column and row extremum is 1, every row and column sum 3
        reports = check_D(ConstantMatrixModel(np.ones((3, 3))), IidShift(), 0, 4)
        assert _report(reports, "D2.i").witnesses == [("kappa_samples", [3.0] * 4)]
        assert _report(reports, "D2.sufficient.global-log-ratio").estimate == 0.0
        assert _report(reports, "D3.i").witnesses == _report(reports, "D3.ii").witnesses == [("nu_samples", [3.0] * 4)]

    def test_diagonal_extrema(self):
        # the identity: entries from 0 to 1, every row and column sum 1
        reports = check_D(ConstantMatrixModel(np.eye(2)), IidShift(), 0, 3)
        assert _report(reports, "D2.i").witnesses[0] == (0, 0, 1, 0.0)
        assert _report(reports, "D3.i").estimate == _report(reports, "D3.ii").estimate == 0.0
        assert _report(reports, "D3.sufficient.global-min").witnesses == [(0, 0.0)]

    def test_zero_entry_fails_with_witness(self):
        model = ConstantMatrixModel([[1.0, 0.0], [1.0, 1.0]])
        r = _report(check_D(model, IidShift(), 0, 4), "D2.i")
        assert r.verdict == "fails" and r.witnesses[0] == (0, 0, 1, 0.0)

    def test_leslie_lag(self):
        model = leslie_model([1.0, 1.0, 1.0], [1.0, 1.0])
        driver = IidShift()
        assert _report(check_D(model, driver, 0, 4, lag=1), "D2.i").verdict == "fails"
        reports = check_D(model, driver, 0, 4, lag=3)
        assert _report(reports, "D2.i").verdict == "empirical"

    def test_d3_fails_on_zero_row(self):
        model = ConstantMatrixModel([[0.0, 0.0], [1.0, 1.0]])
        reports = check_D(model, IidShift(), 0, 3)
        r = _report(reports, "D3.i")
        assert r.verdict == "fails" and r.witnesses == [(0, 0.0), (1, 0.0), (2, 0.0)]
        assert _report(reports, "D3.sufficient.global-min").witnesses == [(0, 0.0)]


class TestFocusing:
    def test_all_ones_certificate(self):
        cert = focusing_certificate(np.ones((3, 3)))
        assert cert.kappa == 3.0 and cert.kappa_star == 3.0
        assert abs(cert.beta(np.array([1.0, 0.0, 0.0])) - np.sqrt(3)) < 1e-15

    def test_formula_substitution(self):
        cert = focusing_certificate([[2.0, 1.0], [1.0, 2.0]])
        assert cert.kappa == 4.0

    def test_sandwich_random(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            S = rng.uniform(0.05, 3.0, (4, 4))
            cert = focusing_certificate(S)
            for _ in range(50):
                u = rng.uniform(0.0, 1.0, 4)
                if not np.any(u):
                    continue
                # beta(u) e <= S u <= kappa beta(u) e, up to rounding of S u
                su, b = S @ u, cert.beta(u)
                tol = 1e-12 * max(1.0, float(np.abs(su).max()))
                assert np.all(su >= b * cert.e - tol) and np.all(su <= cert.kappa * b * cert.e + tol)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            focusing_certificate([[1.0, 0.0], [1.0, 1.0]])


class TestLeslie:
    def test_matrix_layout(self):
        S = leslie_matrix([1.0, 2.0, 3.0], [0.5, 0.6])
        assert S[0].tolist() == [1, 2, 3]
        assert S[1, 0] == 0.5 and S[2, 1] == 0.6
        assert S[1, 1] == S[2, 2] == 0.0

    def test_three_step_positivity(self):
        model = leslie_model([1.0, 1.0, 1.0], [1.0, 1.0])
        D, ls = cocycle_product(model, IidShift().initial(0), 3)
        assert np.all(D > 0) and np.isfinite(ls)

    def test_fibonacci_growth(self):
        # oracle: positive root of x^2 - x - 1 from the characteristic polynomial
        phi = np.roots([1.0, -1.0, -1.0]).max()
        model = leslie_model([1.0, 1.0], [1.0])
        D, ls = cocycle_product(model, IidShift().initial(0), 60)
        rate_tail = None
        D2, ls2 = cocycle_product(model, IidShift().initial(0), 61)
        rate_tail = ls2 - ls
        assert abs(rate_tail - np.log(phi)) < 1e-12

    def test_nonpositive_draw_rejected(self):
        model = LeslieModel(2, lambda rng: np.array([1.0, 0.0]), lambda rng: np.array([1.0]))
        with pytest.raises(ValueError, match="positive"):
            model.emit(IidShift().initial(0))

    def test_random_nstep_positivity(self):
        model = LeslieModel(4, lambda rng: rng.uniform(0.5, 1.5, 4), lambda rng: rng.uniform(0.5, 0.9, 3))
        assert _report(check_D(model, IidShift(), 3, 25, lag=4), "D2.i").verdict != "fails"

    def test_nstep_zero_names_its_window(self):
        # Fibonacci rates for steps 0-3, then the newborns stop breeding: the
        # two-step product over window 2 (steps 4 and 5) is the identity
        class Weaned(MatrixModel):
            def emit(self, state):
                return leslie_matrix([1.0, 1.0] if state.index < 4 else [0.0, 1.0], [1.0])

        r = _report(check_D(Weaned(2), IidShift(), 0, 4, lag=2), "D2.i")
        assert r.verdict == "fails" and r.witnesses[0] == (2, 0, 1, 0.0)


class TestBlockEmission:
    """emit_block row j is the map at index + j, bit for bit."""

    def _families(self):
        rng = np.random.default_rng(4)
        mats = [rng.uniform(0.1, 2.0, (3, 3)) for _ in range(3)]
        markov = MarkovShift([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.1, 0.5]])
        return [(UniformEntriesModel(3, 0.5, 2.0), IidShift()),
                (IidChoiceModel(mats, [0.2, 0.5, 0.3]), IidShift()),
                (MarkovMatrixModel(mats), markov)]

    @pytest.mark.parametrize("start", [-300, -128, 0, 200])
    def test_block_rows_match_emit(self, start):
        for model, driver in self._families():
            K = BLOCK_CELLS
            st = driver.initial(9).advance(start)
            block = model.emit_block(st, K)
            assert block.shape == (K, 3, 3)
            for j in range(K):
                assert np.array_equal(block[j], model.emit(st.advance(j))), (type(model), j)

    def test_uniform_entries_range(self):
        # distinct values: neighbouring cells' counter blocks do not overlap
        S = UniformEntriesModel(4, 0.5, 2.0).emit_block(IidShift().initial(1), 256)
        assert S.min() >= 0.5 and S.max() < 2.0 and len(np.unique(S)) == S.size

    def test_cocycle_product_across_blocks(self):
        # one product over 600 maps equals the direct product of emitted maps
        model = UniformEntriesModel(3, 0.5, 2.0)
        omega = IidShift().initial(3).advance(-250)
        P = np.eye(3)
        for k in range(600):
            P = model.emit(omega.advance(k)) @ P
            P /= opnorm1(P)
        D, _ = cocycle_product(model, omega, 600)
        assert np.allclose(D, P, rtol=1e-12, atol=0)


class TestModelsAndIo:
    def test_markov_model_emits_by_chain_state(self):
        driver = MarkovShift([[0.0, 1.0], [1.0, 0.0]])
        mats = [np.eye(2), 2 * np.eye(2)]
        model = MarkovMatrixModel(mats)
        st = driver.initial(0)
        seen = {float(model.emit(st.advance(n))[0, 0]) for n in range(8)}
        assert seen == {1.0, 2.0}

    def test_iid_choice_weights_validated(self):
        with pytest.raises(ValueError, match="weights"):
            IidChoiceModel([np.eye(2)], weights=[-1.0])

    def test_csv_roundtrip(self, tmp_path):
        p = tmp_path / "mat.csv"
        p.write_text("N\n2\n1.5,2.0\n0.25,1.0\n")
        S = matrix_from_csv(p)
        assert S.tolist() == [[1.5, 2.0], [0.25, 1.0]]

    def test_csv_indented_comment(self, tmp_path):
        p = tmp_path / "mat.csv"
        p.write_text("# header comment\nN\n2\n1.5,2.0\n  # an indented note between rows\n0.25,1.0\n")
        assert matrix_from_csv(p).tolist() == [[1.5, 2.0], [0.25, 1.0]]

    def test_csv_errors(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("3\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            matrix_from_csv(p)
