import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from poscocycle.drivers import TorusRotation, _two_sum
from poscocycle.odes import integrate
from poscocycle.estimators import OdeCocycle, separation_estimate, warmup_direction
from poscocycle.torus import (BATTERY_DT, BATTERY_HORIZON, FOCUSING_RATIO_BOUND, PRINCIPAL_DIRECTION,
                              SEPARATION_RATE, SIGMA_WINDOW, TorusExampleModel, validate_against_closed_form)

DRIVER = TorusRotation()  # the default rotation, sqrt(2) - 1

# -- references: the float-by-float forms the oracle's bookkeeping must
# reproduce bit for bit


def ref_advance(state, t):
    """``TorusRotation.advance`` through ``dataclasses.replace``."""
    hi, lo = _two_sum(state.elapsed, state.elapsed_lo, float(t))
    return replace(state, elapsed=hi, elapsed_lo=lo)


def ref_position(state):
    def frac01(x):
        f = x - np.floor(x)
        return 1.0 if f == 0.0 else float(f)

    t = state.elapsed + state.elapsed_lo
    return frac01(state.anchor[0] + t), frac01(state.anchor[1] + state.system.rho * t)


def ref_coordinate_wrap_times(state, t):
    """The wrap times of (0, t] per coordinate, with ``np.arange``."""
    if t <= 0:
        return np.empty(0), np.empty(0)
    w1, w2 = ref_position(state)
    rho, eps = state.system.rho, 1e-12
    t1 = np.arange(np.ceil(w1 + eps), w1 + t + eps) - w1
    t2 = (np.arange(np.ceil(w2 + eps), w2 + rho * t + eps) - w2) / rho
    return t1[(t1 > 0.0) & (t1 <= t)], t2[(t2 > 0.0) & (t2 <= t)]


def ref_a_integral(state, t):
    """The integral of a over [0, t] as a loop over the tagged wrap-free pieces."""
    if t == 0:
        return 0.0
    if t < 0:
        return -ref_a_integral(ref_advance(state, t), -t)
    w1, w2 = ref_position(state)
    t1, t2 = ref_coordinate_wrap_times(state, t)
    events = sorted([(tau, 1) for tau in t1.tolist()] + [(tau, 2) for tau in t2.tolist()])
    pieces, start, c = [], 0.0, w1 + w2
    for tau, which in events:
        if tau > start:
            pieces.append((start, tau, c))
        pos = ref_position(ref_advance(state, tau))
        c = pos[1] if which == 1 else pos[0]
        start = tau
    if t > start:
        pieces.append((start, t, c))
    v, total = 1.0 + state.system.rho, 0.0
    for start, end, c in pieces:
        total += 1.0 / (v * (c + v * (end - start))) - 1.0 / (v * c)
    return total


def stub_stored_reads(monkeypatch):
    """Stub the battery's items (b) and (c), which read stored flow maps:
    no map is built, every warm-up gives the principal direction and every
    separation estimate the exact rate."""
    from types import SimpleNamespace

    from poscocycle import torus

    monkeypatch.setattr(torus, "stored_replays", lambda model, reads, dt: [lambda *args: ()] * len(reads))
    monkeypatch.setattr(torus, "_warmed", lambda *args: PRINCIPAL_DIRECTION)
    monkeypatch.setattr(torus, "_separation", lambda *args: SimpleNamespace(sigma_hat=SEPARATION_RATE))


def per_item_battery(n_omegas, seed):
    """Items (a) to (c) of the battery at its defaults, one public call per
    item, base point and time: their numbers per base point, and the
    items' (name, passed, detail)."""
    model, times, u0 = TorusExampleModel(), np.linspace(1.25, 10.0, 8).tolist(), np.array([1.0, 0.3])
    states = [DRIVER.initial(seed + k) for k in range(n_omegas)]
    ref = {"propagator_errors": [], "direction_errors": [], "sigma_estimates": []}
    for state in states:
        errors = []
        for t in times:
            d_num, ls_num = integrate(model, state, u0, t, rtol=1e-10)
            d_ex, ls_ex = model.apply(state, t, u0)
            errors.append(max(abs(ls_num - ls_ex) / max(1.0, abs(ls_ex)), float(np.linalg.norm(d_num - d_ex))))
        ref["propagator_errors"].append(max(errors))
        w = warmup_direction(OdeCocycle(model, dt=BATTERY_DT, rtol=1e-10), state, 200)
        ref["direction_errors"].append(float(np.linalg.norm(w - PRINCIPAL_DIRECTION)))
        ref["sigma_estimates"].append(separation_estimate(OdeCocycle(model, dt=BATTERY_DT, rtol=1e-6), state,
                                                          BATTERY_HORIZON, warmup=200).sigma_hat)
    worst, worst_dir = max(ref["propagator_errors"]), max(ref["direction_errors"])
    sigmas = ref["sigma_estimates"]
    ref["items"] = [
        ("propagator-agreement", worst <= 1e-8,
         f"worst relative log-scale / direction error {worst:.3e} over {n_omegas} base points, t <= 10.0"),
        ("principal-direction", worst_dir <= 1e-6, f"worst |w - (1,1)/sqrt2| = {worst_dir:.3e} at warm-up time 50.0"),
        ("separation-rate", all(SIGMA_WINDOW[0] <= x <= SIGMA_WINDOW[1] for x in sigmas),
         f"sigma estimates {np.round(sigmas, 4).tolist()} vs window {SIGMA_WINDOW}")]
    return ref


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


ROTATIONS = st.sampled_from([None, 0.3, 0.7071])
# a base point moved by +-x, then by a share of x that rounds on its own,
# so that its compensated elapsed time carries a low part
BASE_POINTS = st.builds(lambda rho, seed, x: TorusRotation(rho).initial(seed).advance(x).advance(0.1 * x),
                        ROTATIONS, st.integers(0, 2**16), st.floats(-1000.0, 1000.0))
TIMES = st.floats(-13.0, 3.0).map(lambda e: 10.0 ** e)


class TestClosedForm:
    def test_time_zero_identity(self):
        m = TorusExampleModel()
        for u in np.eye(2):
            d, ls = m.apply(DRIVER.initial(0), 0.0, u)
            assert np.array_equal(d, u) and ls == 0.0

    def test_a_integral_vs_quadrature(self):
        m = TorusExampleModel()
        st = DRIVER.initial(3)

        def a_of(tau):
            w1, w2 = st.advance(tau).position
            return -1.0 / (w1 + w2) ** 2

        for t in (0.4, 1.3, 4.0, 7.7):
            wraps = DRIVER.wrap_times(st, t)
            val, err = quad(a_of, 0.0, t, points=list(wraps), limit=300)
            assert abs(val - m.a_integral(st, t)) < 1e-10 * max(1.0, abs(val))

    def test_a_integral_group_property(self):
        m = TorusExampleModel()
        st = DRIVER.initial(9)
        total = m.a_integral(st, 5.0)
        split = m.a_integral(st, 2.1) + m.a_integral(st.advance(2.1), 5.0 - 2.1)
        assert abs(total - split) < 1e-11 * abs(total)
        assert abs(m.a_integral(st, 5.0) + m.a_integral(st.advance(5.0), -5.0)) < 1e-11

    def test_propagator_no_wrap_piece(self):
        # on a wrap-free stretch the coefficient integral is elementary
        m = TorusExampleModel()
        st0 = DRIVER.initial(4)
        st = type(st0)(system=DRIVER, anchor=(0.3, 0.3))
        t = 0.05
        v = 1.0 + DRIVER.rho
        exact = 1.0 / (v * (0.6 + v * t)) - 1.0 / (v * 0.6)
        assert abs(m.a_integral(st, t) - exact) < 1e-14

    def test_rotation_read_off_the_base_point(self):
        # one model serves every rotation: on TorusRotation(0.3) base points
        # it breaks at that driver's wrap times, and its closed-form integral
        # is quadrature of a along the 0.3 orbit
        m = TorusExampleModel()
        driver = TorusRotation(0.3)
        for seed in (0, 5):
            st = driver.initial(seed)

            def a_of(tau):
                w1, w2 = st.advance(tau).position
                return -1.0 / (w1 + w2) ** 2

            wraps = driver.wrap_times(st, 10.0)
            assert np.array_equal(m.breakpoints(st, 0.0, 10.0), wraps[wraps < 10.0])
            edges = np.concatenate([[0.0], wraps, [10.0]])
            val = sum(quad(a_of, t0, t1, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                      for t0, t1 in zip(edges[:-1], edges[1:]) if t1 > t0)
            assert abs(val - m.a_integral(st, 10.0)) < 1e-10 * max(1.0, abs(val))

    def test_separation_ratio_exact(self):
        for t in (0.5, 2.0, 10.0):
            ch, sh = math.cosh(t), math.sinh(t)
            etb = np.array([[ch, sh], [sh, ch]])
            minus = np.array([1.0, -1.0]) / math.sqrt(2)
            plus = np.array([1.0, 1.0]) / math.sqrt(2)
            ratio = np.linalg.norm(etb @ minus) / np.linalg.norm(etb @ plus)
            # the float reference loses ~eps*cosh(t)*e^{2t} to cancellation
            assert abs(ratio - math.exp(-SEPARATION_RATE * t)) < 1e-6 * ratio

    def test_focusing_constant_is_coth_one(self):
        assert abs(FOCUSING_RATIO_BOUND - math.cosh(1.0) / math.sinh(1.0)) < 1e-15
        # the one-step flow of B sandwiches the basis images within that ratio
        e = np.ones(2) / np.sqrt(2)
        etb = np.array([[math.cosh(1), math.sinh(1)], [math.sinh(1), math.cosh(1)]])
        for i in range(2):
            img = etb[:, i]
            beta = img.min() * np.sqrt(2)
            assert np.all(beta * e <= img * (1 + 1e-12))
            assert np.all(img <= FOCUSING_RATIO_BOUND * beta * e * (1 + 1e-12))


class TestBitForBit:
    """The driver's and the model's bookkeeping against the references above."""

    @settings(max_examples=300, deadline=None)
    @given(BASE_POINTS, TIMES, st.floats(0.0, 1.0))
    def test_wrap_times_and_breakpoints(self, state, t, share):
        t1, t2 = state.system.coordinate_wrap_times(state, t)
        r1, r2 = ref_coordinate_wrap_times(state, t)
        assert (bits(t1), bits(t2)) == (bits(r1), bits(r2))
        ts = np.sort(np.concatenate([r1, r2]))
        assert bits(state.system.wrap_times(state, t)) == bits(ts)
        t0 = share * t
        assert bits(TorusExampleModel().breakpoints(state, t0, t)) == bits(ts[(ts > t0) & (ts < t)])

    @settings(max_examples=200, deadline=None)
    @given(BASE_POINTS, TIMES, st.booleans())
    def test_advance_position_and_field(self, state, t, back):
        t = -t if back else t
        moved, ref = state.advance(t), ref_advance(state, t)
        assert type(moved) is type(ref) and moved.system is ref.system and moved.anchor == ref.anchor
        assert bits([moved.elapsed, moved.elapsed_lo]) == bits([ref.elapsed, ref.elapsed_lo])
        assert bits(moved.position) == bits(ref_position(ref))
        w1, w2 = ref_position(ref)
        a = -1.0 / (w1 + w2) ** 2
        assert bits(TorusExampleModel().field(state, t)) == bits([[a, 1.0], [1.0, a]])

    @settings(max_examples=100, deadline=None)
    @given(BASE_POINTS, TIMES, st.booleans())
    def test_a_integral(self, state, t, back):
        t = -t if back else t
        assert bits(TorusExampleModel().a_integral(state, t)) == bits(ref_a_integral(state, t))

    @settings(max_examples=100, deadline=None)
    @given(BASE_POINTS, st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1.0), st.floats(1e-9, 0.5)),
                                 min_size=1, max_size=12))
    def test_piece_fields(self, base, specs):
        # pieces (t0, t1) past base points near ``base``: the coordinate sum
        # at each midpoint is sum(state.advance(mid).position)
        states = [base.advance(x) for x, _, _ in specs]
        t0s = np.array([a for _, a, _ in specs])
        t1s = t0s + np.array([h for _, _, h in specs])
        mids = 0.5 * (t0s + t1s)
        c = np.array([sum(ref_position(ref_advance(s, mid))) for s, mid in zip(states, mids.tolist())])
        v = np.array([1.0 + s.system.rho for s in states])
        pieces = np.repeat(np.arange(len(specs)), 3)
        taus = (t0s[pieces] + np.tile([0.0, 0.5, 1.0], len(specs)) * (t1s - t0s)[pieces])
        expected = -1.0 / (c[pieces] + v[pieces] * (taus - mids[pieces])) ** 2
        out = TorusExampleModel().piece_fields(states, t0s, t1s)(pieces, taus)
        assert bits(out[:, 0, 0]) == bits(expected) and bits(out[:, 1, 1]) == bits(expected)
        assert np.all(out[:, 0, 1] == 1.0) and np.all(out[:, 1, 0] == 1.0)

    @settings(max_examples=40, deadline=None)
    @given(BASE_POINTS, st.lists(TIMES, min_size=1, max_size=6))
    def test_kappa_mean_sequence_is_its_scalar_calls(self, state, horizons):
        m = TorusExampleModel()
        means = m.kappa_mean_exact(state, horizons)
        assert bits(means) == bits([m.kappa_mean_exact(state, T) for T in horizons])
        assert bits(means) == bits([1.0 + ref_a_integral(state, T) / T for T in horizons])

    def test_kappa_mean_names_a_bad_horizon(self):
        m, state = TorusExampleModel(), DRIVER.initial(0)
        for horizon, where in ((0.0, "horizon = 0.0"), (math.inf, "horizon = inf"),
                               ([50.0, 0.0], r"horizon\[1\] = 0.0"), ((1.0, 2.0, -5.0), r"horizon\[2\] = -5.0"),
                               ([1.0, math.nan], r"horizon\[1\] = nan")):
            with pytest.raises(ValueError, match=where):
                m.kappa_mean_exact(state, horizon)


class TestGenericAgreement:
    def test_integrator_matches_closed_form(self):
        m = TorusExampleModel()
        rng = np.random.default_rng(0)
        for seed in range(3):
            st = DRIVER.initial(seed)
            u0 = rng.uniform(0.2, 1.0, 2)
            for t in (0.7, 3.3, 9.5):
                d_num, ls_num = integrate(m, st, u0, t, rtol=1e-10)
                d_ex, ls_ex = m.apply(st, t, u0)
                assert abs(ls_num - ls_ex) <= 1e-8 * max(1.0, abs(ls_ex))
                assert np.linalg.norm(d_num - d_ex) <= 1e-8

    def test_kappa_mean_grid_vs_exact(self):
        m = TorusExampleModel()
        st = DRIVER.initial(11)
        exact = m.kappa_mean_exact(st, 50.0)
        # midpoints of the dt = 0.002 cells of [0, 50]
        w = PRINCIPAL_DIRECTION
        grid = np.mean([w @ m.field(st, (k + 0.5) * 0.002) @ w for k in range(25_000)])
        # grid sampling undershoots the singular passes; same scale though
        assert grid < -1.0 and exact < -1.0
        assert abs(grid - exact) < 0.5 * abs(exact)

    def test_kappa_mean_exact_vs_piecewise_quadrature(self):
        # the closed form at a horizon of acceptance criterion 03, against
        # adaptive quadrature of a on each wrap-free piece of the orbit
        m = TorusExampleModel()
        T = 250.0
        for seed in (2026, 7):
            st = DRIVER.initial(seed)

            def a_of(tau):
                w1, w2 = st.advance(tau).position
                return -1.0 / (w1 + w2) ** 2

            edges = np.concatenate([[0.0], DRIVER.wrap_times(st, T), [T]])
            total = sum(quad(a_of, t0, t1, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                        for t0, t1 in zip(edges[:-1], edges[1:]) if t1 > t0)
            exact = m.kappa_mean_exact(st, T)
            assert abs((1.0 + total / T) - exact) < 1e-10 * abs(exact)


class TestValidationReport:
    def test_full_validation(self):
        rep = validate_against_closed_form(n_omegas=3, seed=0)
        by_name = {name: (ok, detail) for name, ok, detail in rep.items}
        assert by_name["propagator-agreement"][0]
        assert by_name["principal-direction"][0]
        assert by_name["separation-rate"][0]
        assert all(1.9 <= s <= 2.1 for s in rep.sigma_estimates)
        assert all(e <= 1e-6 for e in rep.direction_errors)
        # one worst propagator error per base point; the item judges their maximum
        assert len(rep.propagator_errors) == 3 and max(rep.propagator_errors) <= 1e-8
        assert f"{max(rep.propagator_errors):.3e}" in by_name["propagator-agreement"][1]
        assert rep.kappa_bound == FOCUSING_RATIO_BOUND
        # exact means of the quadratic form under their -log T envelope
        assert by_name["lambda1-divergence"][0]
        assert rep.passed
        assert "PASS] propagator-agreement" in rep.summary()

    def test_no_base_point_rejected(self):
        # with no base point items (a) to (c) would loop over nothing and pass
        with pytest.raises(ValueError, match="n_omegas"):
            validate_against_closed_form(n_omegas=0)
        # a fraction or a bool is no count of base points
        for bad in (1.5, True):
            with pytest.raises(ValueError, match="n_omegas"):
                validate_against_closed_form(n_omegas=bad)

    def test_propagator_item_is_one_batch(self, monkeypatch):
        # the 8 x n_omegas (base point, time) pairs of item (a) make one
        # DOP853 call; items (b) and (c) are stubbed so that only (a) steps
        from poscocycle import odes

        calls = []
        dop853 = odes._dop853

        def counting(model, batches, ahead):
            def counted():
                for states, chains, Y, rtol in batches:
                    calls.append(len(chains))
                    yield states, chains, Y, rtol
            return dop853(model, counted(), ahead)

        monkeypatch.setattr(odes, "_dop853", counting)
        stub_stored_reads(monkeypatch)
        rep = validate_against_closed_form(n_omegas=2, seed=0)
        assert calls == [16]
        assert len(rep.propagator_errors) == 2 and rep.passed

    def test_divergence_item_one_call_per_base_point(self, monkeypatch):
        # item (d) takes each base point's means at all its horizons in one
        # call; items (b) and (c) are stubbed as above
        calls, kappa = [], TorusExampleModel.kappa_mean_exact

        def counted(self, state, horizon):
            calls.append(np.shape(horizon))
            return kappa(self, state, horizon)

        monkeypatch.setattr(TorusExampleModel, "kappa_mean_exact", counted)
        stub_stored_reads(monkeypatch)
        rep = validate_against_closed_form(n_omegas=3, seed=0)
        assert calls == [(4,)] * 3 and rep.passed

    @pytest.mark.parametrize("kwargs, where", [
        ({"dt": 0}, "dt = 0.0"), ({"dt": -0.25}, "dt = -0.25"), ({"dt": math.nan}, "dt = nan"),
        ({"horizon": 0.0}, "horizon = 0.0"), ({"horizon": math.inf}, "horizon = inf"),
        ({"divergence_horizons": (125.0, 0.0)}, r"divergence_horizons\[1\] = 0.0"),
        ({"divergence_horizons": (-5.0,)}, r"divergence_horizons\[0\] = -5.0"),
        ({"divergence_horizons": (125.0, 250.0, math.nan)}, r"divergence_horizons\[2\] = nan"),
        ({"divergence_horizons": (math.inf,)}, r"divergence_horizons\[0\] = inf"),
    ])
    def test_bad_times_named_before_any_integration(self, monkeypatch, kwargs, where):
        from poscocycle import odes

        def entered(*args):
            raise AssertionError("a DOP853 stream was entered")

        monkeypatch.setattr(odes, "_dop853", entered)
        with pytest.raises(ValueError, match=f"must be finite and > 0, got {where}"):
            validate_against_closed_form(n_omegas=1, seed=0, **kwargs)

    def test_separation_reads_are_one_stream(self, monkeypatch):
        # item (c) at seed 0 builds the maps of [-200, 400) once, as one
        # DOP853 stream over the chunks cut at -200, 56 and 312: 346 batch
        # steps, each with one _coefficient call at its stage times.  Read
        # as one batch per chunk, [-200, 0), [0, 256) and [256, 400) took
        # 121, 344 and 136 steps, 601 in all, most with one member live
        from poscocycle import odes

        steps, coefficient = [0], odes._coefficient

        def counted(parts, taus):
            steps[0] += len(taus) == odes._STAGES
            return coefficient(parts, taus)

        monkeypatch.setattr(odes, "_coefficient", counted)
        est = separation_estimate(OdeCocycle(TorusExampleModel(), dt=BATTERY_DT, rtol=1e-6), DRIVER.initial(0),
                                  BATTERY_HORIZON, warmup=round(50.0 / BATTERY_DT))
        assert steps[0] == 346
        assert SIGMA_WINDOW[0] <= est.sigma_hat <= SIGMA_WINDOW[1]

    def test_stored_reads_are_the_per_item_calls(self):
        # at two base points the battery's items (b) and (c) read their
        # maps from one stream, and its numbers and item details are bit
        # for bit those of one warmup_direction, separation_estimate and
        # integrate call per item, base point and time
        rep, ref = validate_against_closed_form(n_omegas=2, seed=3), per_item_battery(n_omegas=2, seed=3)
        for name in ("propagator_errors", "direction_errors", "sigma_estimates"):
            assert bits(getattr(rep, name)) == bits(ref[name]), name
        assert rep.items[:3] == ref["items"] and rep.passed

    @pytest.mark.parametrize("n_omegas", [1, 5])
    def test_battery_batch_steps(self, monkeypatch, n_omegas):
        # the seed-0 battery takes 597 DOP853 batch steps at one base point:
        # item (a) 246 as a batch of its own, items (b) and (c) 351 as one
        # stream, against 345 and 346 as two; and 1519 at five.  The stream
        # walks the reads' windows one read after another, a warm-up read
        # and a separation read per base point, and keeps at most two
        # windows per read walked and not yet stored
        from poscocycle import estimators, odes

        steps, coefficient, windows, flow_maps = [0], odes._coefficient, estimators._windows, estimators.flow_maps
        walked, stored, ahead = [0], [0], []

        def counted(parts, taus):
            steps[0] += len(taus) == odes._STAGES
            return coefficient(parts, taus)

        def walking(*args):
            for window in windows(*args):
                walked[0] += 1
                ahead.append(walked[0] - stored[0])  # the windows walked and not yet stored
                yield window

        def storing(*args, **kwargs):
            for chunk in flow_maps(*args, **kwargs):
                stored[0] += 1
                yield chunk

        monkeypatch.setattr(odes, "_coefficient", counted)
        monkeypatch.setattr(estimators, "_windows", walking)
        monkeypatch.setattr(estimators, "flow_maps", storing)
        assert validate_against_closed_form(n_omegas=n_omegas, seed=0).passed
        assert steps[0] == {1: 597, 5: 1519}[n_omegas]
        reads = 2 * n_omegas
        assert walked == stored == [4 * n_omegas] and max(ahead) <= 2 * reads, (walked, stored, ahead)

    def test_principal_direction_constant(self):
        assert np.allclose(PRINCIPAL_DIRECTION, np.array([1.0, 1.0]) / np.sqrt(2))
        # the battery's window is derived from the exact rate, bit for bit (1.9, 2.1)
        assert SEPARATION_RATE == 2.0 and SIGMA_WINDOW == (1.9, 2.1)

    def test_quadratic_form_along_principal_direction(self):
        # <A w, w> with w = (1,1)/sqrt(2) collapses to 1 + a at every base point
        m = TorusExampleModel()
        for seed in range(5):
            st = DRIVER.initial(seed)
            A = m.field(st, 0.0)
            w1, w2 = st.position
            expected = 1.0 - 1.0 / (w1 + w2) ** 2
            w = PRINCIPAL_DIRECTION
            assert abs(float(w @ A @ w) - expected) < 1e-12 * abs(expected)
