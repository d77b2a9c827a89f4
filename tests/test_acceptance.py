"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np

from poscocycle.config import validate_config
from poscocycle.drivers import IidShift, TorusRotation
from poscocycle.estimators import (MatrixCocycle, OdeCocycle, forward_floquet,
                                   lambda1_via_kappa, oseledets_qr, pullback_convergence,
                                   separation_estimate, warmup_direction)
from poscocycle.matrices import (ConstantMatrixModel, LeslieModel, check_D, leslie_model,
                                 UniformEntriesModel)
from poscocycle.odes import (ConstantOdeModel, PiecewiseConstantOdeModel,
                             TypeKFlipModel, cooperative_sampler, integrate)
from poscocycle.pipelines import run_command
from poscocycle.reporting import format_result
from poscocycle.torus import TorusExampleModel
from poscocycle.estimators import DivergenceDiagnostic

SEED = 2026
DRIVER = TorusRotation()  # the torus oracle's default rotation, sqrt(2) - 1


def record(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def disc_state(seed=SEED):
    return IidShift().initial(seed)


def cont_state(seed=SEED):
    return IidShift(time="continuous").initial(seed)


def test_criterion_01_torus_separation_rate():
    model = TorusExampleModel()
    sigmas = []
    t0 = time.perf_counter()
    for k in range(5):
        coc = OdeCocycle(model, dt=0.25, rtol=1e-6)
        est = separation_estimate(coc, DRIVER.initial(SEED + k), 50.0, warmup=200)
        sigmas.append(est.sigma_hat)
    elapsed = time.perf_counter() - t0
    ok = all(1.9 <= s <= 2.1 for s in sigmas) and elapsed < 10.0
    record(1, ok, f"sigma estimates {np.round(sigmas, 4).tolist()} at T=50 over 5 base points, "
                  f"runtime {elapsed:.2f} s (< 10 s)")


def test_criterion_02_torus_principal_direction():
    model = TorusExampleModel()
    target = np.array([1.0, 1.0]) / math.sqrt(2)
    errs = []
    for k in range(5):
        coc = OdeCocycle(model, dt=0.25, rtol=1e-10)
        w = warmup_direction(coc, DRIVER.initial(SEED + k), int(50.0 / 0.25))
        errs.append(float(np.linalg.norm(w - target)))
    ok = max(errs) <= 1e-6
    record(2, ok, f"max |w - (1,1)/sqrt2| = {max(errs):.3e} after 50 time units of warm-up")


def test_criterion_03_torus_divergence_trend():
    # The exact finite-horizon means m(T) = 1 + (1/T) int_0^T a of the quadratic
    # form (piecewise integration, no quadrature error) diverge to -inf like
    # -log T.  They are held under the closed-form envelope m(T) <= K - log T
    # at every horizon, for five base points, none dropped.
    #
    # Derivation of K.  Along a wrap-free piece the coordinate sum s = w1 + w2
    # grows at speed v = 1 + rho, so the piece contributes
    # 1/(v s_end) - 1/(v s_start) to int a.  Each piece contributes <= 0, so the
    # first and the last piece can be dropped from an upper bound.
    # * End terms: each remaining piece ends at a wrap, where one coordinate is 1,
    #   so s_end >= 1.  There are about v T wraps in [0, T], so these terms add
    #   at most 1 to m(T).
    # * Start terms: after a wrap the sum is the other coordinate.  After the
    #   ~T wraps of coordinate 1 it is w2 + rho (k - w1) mod 1, an orbit of the
    #   rotation by rho; after the ~rho T wraps of coordinate 2 it is
    #   w1 + (k - w2)/rho mod 1, an orbit of the rotation by 1/rho, and
    #   1/rho = rho mod 1 for rho = sqrt(2) - 1.  n evenly spaced points j/n,
    #   j = 1..n, give sum 1/x = n H_n ~ n (log n + gamma), the smallest sum of
    #   any shifted even grid.  Weighted by 1/(v T) the two families give
    #   log T + gamma + rho log(rho) / (1 + rho).
    # So m(T) <= 2 - gamma - rho log(rho)/(1 + rho) - log T, K = 2 - 0.319 = 1.681
    # (TorusExampleModel.kappa_mean_envelope).  The even-spacing step is
    # asymptotic and no proven constant is known; a discrepancy bound for the
    # orbit points adds a log log T term, too loose at T <= 1000 to catch real
    # faults.  A close pass by the torus corner makes one 1/s_start huge: the
    # means swing far below the envelope, never far above it.
    #
    # Measured with the exact means on this ladder: SEED gives -6.355, -7.214,
    # -6.095, -7.02.  Over base points 0..299, 39 decrease strictly and 10 lie
    # below -10 throughout, none both, so a trend statement (strict decrease,
    # all below -10) fails almost everywhere; the envelope itself passes -10
    # only at T ~ 1.2e5.  max m(T) + log T is 1.06 there, and 1.38 over 40
    # base points on T = 2^7 .. 2^15 (minimum -295).  The trend flag of
    # DivergenceDiagnostic is printed but not asserted.
    model = TorusExampleModel()
    horizons = [125.0, 250.0, 500.0, 1000.0]
    means = [[model.kappa_mean_exact(DRIVER.initial(SEED + k), T) for T in horizons] for k in range(5)]
    excess = [max(m - model.kappa_mean_envelope(T, DRIVER.rho) for m, T in zip(row, horizons)) for row in means]
    diag = DivergenceDiagnostic.from_means(horizons, means[0], -10.0)
    ok = max(excess) <= 0.0
    record(3, ok, f"worst mean minus envelope K - log T per base point {np.round(excess, 3).tolist()} "
                  f"(<= 0) at {horizons}; base point {SEED} means {np.round(means[0], 3).tolist()}, "
                  f"trend flag: {diag.diverging}")


def test_criterion_04_closed_form_vs_generic_integrator():
    model = TorusExampleModel()
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(20):
        st = DRIVER.initial(SEED + k)
        u0 = rng.uniform(0.2, 1.0, 2)
        for t in (0.9, 2.7, 5.5, 10.0):
            d_num, ls_num = integrate(model, st, u0, t, rtol=1e-10)
            d_ex, ls_ex = model.apply(st, t, u0)
            worst = max(worst, abs(ls_num - ls_ex) / max(1.0, abs(ls_ex)))
    ok = worst <= 1e-8
    record(4, ok, f"worst relative log-scale error {worst:.3e} over 20 base points, t <= 10")


def test_criterion_05_deterministic_perron_oracles():
    cases = []
    for S in (np.array([[2.0, 1.0], [1.0, 1.0]]),
              np.array([[2.0, 1.0, 0.5], [0.5, 1.5, 1.0], [1.0, 0.5, 2.0]])):
        vals, vecs = np.linalg.eig(S)
        i = int(np.argmax(vals.real))
        perron_val = float(vals.real[i])
        perron_vec = np.abs(vecs[:, i].real)
        perron_vec /= np.linalg.norm(perron_vec)
        cases.append((ConstantMatrixModel(S), math.log(perron_val), perron_vec))
    phi = float(np.roots([1.0, -1.0, -1.0]).max())  # characteristic polynomial oracle
    fib = leslie_model([1.0, 1.0], [1.0])
    S_fib = np.array([[1.0, 1.0], [1.0, 0.0]])
    vals, vecs = np.linalg.eig(S_fib)
    i = int(np.argmax(vals.real))
    v = np.abs(vecs[:, i].real)
    cases.append((fib, math.log(phi), v / np.linalg.norm(v)))

    worst_l, worst_w = 0.0, 0.0
    for model, log_root, w_true in cases:
        coc = MatrixCocycle(model)
        w0 = warmup_direction(coc, disc_state(), 80)
        track = forward_floquet(coc, disc_state(), w0, 60)
        worst_l = max(worst_l, abs(track.lambda1 - log_root))
        worst_w = max(worst_w, float(np.linalg.norm(track.w - w_true)))
    ok = worst_l <= 1e-6 and worst_w <= 1e-8
    record(5, ok, f"lambda1 error {worst_l:.2e} (<= 1e-6), direction error {worst_w:.2e} (<= 1e-8) "
                  "on constant 2x2, 3x3, and Fibonacci Leslie")


def test_criterion_06_cross_method_exponents():
    horizon = 10_000
    worst_l, worst_gap = 0.0, 0.0
    for k in range(10):
        coc = MatrixCocycle(UniformEntriesModel(3, 0.5, 2.0))
        omega = disc_state(SEED + 100 + k)
        exps = oseledets_qr(coc, omega, horizon)
        w0 = warmup_direction(coc, omega, 50)
        track = forward_floquet(coc, omega, w0, horizon)
        sep = separation_estimate(coc, omega, horizon, warmup=50)
        worst_l = max(worst_l, abs(track.lambda1 - exps[0]))
        gap_qr = exps[0] - exps[1]
        worst_gap = max(worst_gap, abs(sep.sigma_hat - gap_qr) / gap_qr)
    ok = worst_l <= 1e-3 and worst_gap <= 0.10
    record(6, ok, f"max |forward - QR| = {worst_l:.2e} (<= 1e-3), "
                  f"max relative sigma vs QR gap = {worst_gap:.2%} (<= 10%) at T=1e4, 10 models")


def test_criterion_07_kappa_route_identity():
    models = [
        ConstantOdeModel([[0.0, 1.0], [1.0, 0.0]]),
        ConstantOdeModel(np.diag([3.0, 3.0]) + np.ones((2, 2))),
        PiecewiseConstantOdeModel(2, cooperative_sampler(2, -0.5, 0.5, 0.1, 1.0)),
        PiecewiseConstantOdeModel(3, cooperative_sampler(3, -1.0, 0.5, 0.0, 1.0)),
        PiecewiseConstantOdeModel(4, cooperative_sampler(4, -0.5, 0.2, 0.2, 0.8)),
    ]
    details = []
    ok = True
    for j, model in enumerate(models):
        coc = OdeCocycle(model, dt=0.05, rtol=1e-8)
        omega = cont_state(SEED + j)
        w0 = warmup_direction(coc, omega, 80)
        ff = forward_floquet(coc, omega, w0, 60.0, record_every=1)
        kr = lambda1_via_kappa(coc, omega, np.vstack([w0, ff.directions]))
        diff = abs(kr.estimate - ff.lambda1)
        tol = max(1e-3, 3 * kr.ci)
        ok = ok and diff <= tol
        details.append(f"{diff:.2e}<= {tol:.2e}")
    record(7, ok, "quadratic-form route vs forward iteration on 5 cooperative models: "
                  + "; ".join(details))


def test_criterion_08_focusing_sandwich():
    rng = np.random.default_rng(8)
    n = 4
    e = np.full(n, 1.0 / math.sqrt(n))
    violations = 0
    for _ in range(1000):
        S = rng.uniform(0.05, 5.0, (n, n))
        col_min = S.min(axis=0)
        kappa = n * (S.max(axis=0) / col_min).max()
        U = rng.uniform(0.0, 1.0, (100, n))
        U[rng.random(100) < 0.3, rng.integers(0, n)] = 0.0  # boundary vectors too
        U = U[U.sum(axis=1) > 0]
        beta = math.sqrt(n) * (U * col_min).sum(axis=1)
        img = U @ S.T
        lo = beta[:, None] * e[None, :]
        hi = kappa * lo
        tol = 1e-12 * np.maximum(1.0, np.abs(img).max())
        violations += int(np.sum((img < lo - tol) | (img > hi + tol)))
    ok = violations == 0
    record(8, ok, f"{violations} componentwise violations over 1000 matrices x 100 positive vectors")


def test_criterion_09_leslie_nstep_positivity():
    # check_D at lag N reads the products over the windows [kN, (k + 1)N):
    # D2.i fails on an entry <= 0, and a non-finite product raises
    bad = {}
    for n in (2, 3, 5):
        model = LeslieModel(n, lambda rng, n=n: rng.uniform(0.2, 2.0, n),
                            lambda rng, n=n: rng.uniform(0.2, 0.95, n - 1))
        d2 = next(r for r in check_D(model, IidShift(), SEED + n, 100, lag=n) if r.condition == "D2.i")
        if d2.verdict == "fails":
            bad[n] = d2.witnesses[:3]
    ok = not bad
    record(9, ok, f"N-step products strictly positive for N in (2,3,5), 100 windows each "
                  f"(check_D D2.i at lag N); violations: {bad}")


def test_criterion_10_invariance_suite():
    checks = {}

    # cocycle splitting, matrix (<= 1e-10)
    from poscocycle.matrices import cocycle_product, opnorm1
    model = UniformEntriesModel(3, 0.5, 2.0)
    omega = disc_state(41)
    D_full, ls_full = cocycle_product(model, omega, 90)
    D_a, ls_a = cocycle_product(model, omega, 40)
    D_b, ls_b = cocycle_product(model, omega.advance(40), 50)
    comb = D_b @ D_a
    s = opnorm1(comb)
    checks["matrix-splitting"] = (abs(ls_a + ls_b + math.log(s) - ls_full)
                                  <= 1e-10 * max(1.0, abs(ls_full)))

    # cocycle splitting, ODE (<= 1e-8)
    ode = PiecewiseConstantOdeModel(3, cooperative_sampler(3, -1.0, 1.0, 0.0, 1.0))
    st = cont_state(42)
    u0 = np.array([1.0, 0.4, 0.2])
    d_full, l_full = integrate(ode, st, u0, 7.0)
    d1, l1 = integrate(ode, st, u0, 3.1)
    d2, l2 = integrate(ode, st.advance(3.1), d1, 7.0 - 3.1)
    checks["ode-splitting"] = (abs(l1 + l2 - l_full) <= 1e-8 * max(1.0, abs(l_full))
                               and np.linalg.norm(d2 - d_full) <= 1e-8)

    # pairing invariance of the dual-null hyperplane (<= 1e-6 relative).
    # The residual floor is max(eps, e^{-sigma depth}) * e^{sigma t}: roundoff
    # injects a dominant component every multiply and the dual direction
    # converges only at rate sigma, so horizons and warm-up depths are sized
    # per model (sigma ~ 2 for the wide-entry zoo member, ~ 0.09 for the
    # diagonally dominant one).
    def weak_sampler(rng):
        S = rng.uniform(0.01, 0.05, (3, 3))
        S[np.diag_indices(3)] = rng.uniform(0.9, 1.1, 3)
        return S

    from poscocycle.matrices import SampledMatrixModel
    zoo = [(UniformEntriesModel(3, 0.5, 2.0), 8, 100, 43),
           (SampledMatrixModel(3, weak_sampler), 20, 400, 47)]
    worst = 0.0
    for mdl, steps, depth, mseed in zoo:
        coc = MatrixCocycle(mdl)
        om = disc_state(mseed)
        ws0 = warmup_direction(coc.dual(), om, depth)
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = rng.normal(size=3)
            u -= (u @ ws0) * ws0
            v, state = u.copy(), om
            for _ in range(steps):
                v = coc.model.emit(state) @ v
                state = state.advance(1)
            ws_t = warmup_direction(coc.dual(), state, depth)
            worst = max(worst, abs(v @ ws_t) / np.linalg.norm(v))
    checks["pairing-invariance"] = worst <= 1e-6

    # positivity preservation under cooperativity
    pos_ok = True
    for t in (0.5, 2.0, 5.0):
        d, _ = integrate(ode, st, np.array([1.0, 0.0, 0.5]), t)
        pos_ok = pos_ok and d.min() >= -1e-9
    checks["ode-positivity"] = pos_ok

    # type-K conjugacy, exact
    def sampler(rng):
        M = rng.uniform(0.0, 1.0, (4, 4))
        M[np.diag_indices(4)] = rng.uniform(-1.0, 1.0, 4)
        M[:2, 2:] *= -1
        M[2:, :2] *= -1
        return M

    b_model = PiecewiseConstantOdeModel(4, sampler)
    a_model = TypeKFlipModel(b_model, 2)
    stk = cont_state(44)
    u0k = np.array([0.5, 1.0, -0.7, -0.2])
    db, lsb = integrate(b_model, stk, u0k, 4.0)
    da, lsa = integrate(a_model, stk, a_model.flip * u0k, 4.0)
    checks["type-k-conjugacy"] = bool(lsa == lsb and np.array_equal(da, a_model.flip * db))

    # temperedness of the projections (slope <= 1e-2)
    sep = separation_estimate(coc, disc_state(45), 1000, warmup=50, proj_samples=100)
    ts = np.array([t for t, _ in sep.projection_norm_history])
    vs = np.array([v for _, v in sep.projection_norm_history])
    sel = ts >= ts.max() / 2
    slope = abs(np.polyfit(ts[sel], vs[sel], 1)[0])
    checks["temperedness"] = slope <= 1e-2

    ok = all(checks.values())
    record(10, ok, "; ".join(f"{k}: {'ok' if v else 'VIOLATED'}" for k, v in checks.items()))


def test_criterion_11_pullback_depth_stability():
    worst = 0.0
    for k in range(5):
        coc = MatrixCocycle(UniformEntriesModel(3, 0.8, 1.25))
        worst = max(worst, pullback_convergence(coc, disc_state(SEED + 300 + k), 20)[1])
    ok = worst <= 1e-8
    record(11, ok, f"max direction distance between depth-20 and depth-40 pullbacks: {worst:.2e}")


def test_criterion_12_determinism(tmp_path):
    cfg = validate_config({
        "seed": 7,
        "model": {"kind": "uniform-entries", "n": 3, "lo": 0.5, "hi": 2.0},
        "estimator": {"horizon": 300, "warmup": 40},
        "output": {"series": True},
    })
    run_command("estimate", cfg, out_dir=tmp_path / "a")
    run_command("estimate", cfg, out_dir=tmp_path / "b")
    ta = json.loads((tmp_path / "a" / "results.json").read_text())
    tb = json.loads((tmp_path / "b" / "results.json").read_text())
    ta.pop("timing"), tb.pop("timing")
    ok = format_result(ta).encode() == format_result(tb).encode()
    record(12, ok, "identical config + seed give byte-identical results.json (timing excluded)")
