"""Run pipelines behind the CLI subcommands: build the configured objects,
estimate, and assemble the (deterministic) result document."""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import build_driver, build_model
from .errors import ConfigError
from .estimators import (DivergenceDiagnostic, MatrixCocycle, OdeCocycle,
                         backward_entire_orbit, forward_floquet, lambda1_via_kappa,
                         oseledets_qr, separation_estimate, warmup_direction)
from .matrices import check_D1, check_D2, check_D3, verify_nstep_positivity
from .odes import check_O1, check_O2
from .reporting import emit_plot_data, report_to_dict, write_result, write_series
from .stats import batch_means

COMMANDS = ("check", "estimate", "separate", "orbit", "oseledets", "example-torus", "leslie-demo")


def _setup(cfg):
    """The configured (kind, cocycle, initial base point, estimator block, seed)."""
    kind, model = build_model(cfg)
    driver = build_driver(cfg)
    est = cfg["estimator"]
    seed = cfg["seed"]
    if kind == "matrix":
        cocycle = MatrixCocycle(model)
    else:
        ode_model = model.ode_model if kind == "torus" else model
        cocycle = OdeCocycle(ode_model, dt=float(est["dt"]), rtol=float(est["rtol"]))
    return kind, cocycle, driver.initial(seed), est, seed


def _estimate_doc(value, ci, horizon, seed, **extra):
    doc = {"value": value, "ci": ci, "horizon": horizon, "seed": seed}
    doc.update(extra)
    return doc


def run_command(command, cfg, out_dir=None):
    """Execute one pipeline; writes results.json (and optional series files)
    under the output directory and returns the result document."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    t_start = time.perf_counter()
    seed = cfg["seed"]
    out = Path(out_dir if out_dir is not None else cfg["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)

    runner = {
        "check": _run_check,
        "estimate": _run_estimate,
        "separate": _run_separate,
        "orbit": _run_orbit,
        "oseledets": _run_oseledets,
        "example-torus": _run_torus,
        "leslie-demo": _run_leslie_demo,
    }[command]
    results, series = runner(cfg)

    doc = {
        "tool": {"name": "poscocycle", "version": __version__},
        "command": command,
        "seed": seed,
        "config": _echo_config(cfg),
        "results": results,
        "timing": {"wall_seconds": time.perf_counter() - t_start},
    }
    write_result(doc, out / "results.json")
    if series is not None and cfg["output"]["series"]:
        n_dim = len(series[0][2])
        write_series(series, n_dim, out / f"series-seed{seed}.csv")
        if results.get("history"):
            emit_plot_data(doc, out / f"plot-seed{seed}.csv")
    return doc


def _echo_config(cfg):
    echo = {k: cfg[k] for k in ("seed", "driver", "model", "estimator", "output")}
    return echo


def _run_check(cfg):
    kind, model = build_model(cfg)
    driver = build_driver(cfg)
    est = cfg["estimator"]
    n_samples = int(est["n_samples"])
    seed = cfg["seed"]
    if kind == "matrix":
        lag = int(est["lag"])
        reports = (check_D1(model, driver, seed, n_samples, lag=lag)
                   + check_D2(model, driver, seed, n_samples, lag=lag)
                   + check_D3(model, driver, seed, n_samples, lag=lag))
    else:
        ode_model = model.ode_model if kind == "torus" else model
        reports = [check_O1(ode_model, driver, seed, n_samples),
                   check_O2(ode_model, driver, seed, n_samples)]
    return {"assumption_reports": [report_to_dict(r) for r in reports]}, None


def _run_estimate(cfg):
    kind, cocycle, omega, est, seed = _setup(cfg)
    horizon = float(est["horizon"])
    warmup = int(est["warmup"])

    every = int(est["record_every"])
    w0 = warmup_direction(cocycle, omega, warmup)
    track = forward_floquet(cocycle, omega, w0, horizon, record_every=every)
    probe = np.asarray(est["u0"], dtype=float) if est["u0"] else np.eye(cocycle.n)[0]
    raw = forward_floquet(cocycle, omega, probe, horizon, record_every=every)

    ln_rhos = np.array([h[1] for h in track.history])  # log growth over each row's every * dt
    _, ci, _ = batch_means(ln_rhos / (every * cocycle.dt), int(est["batches"])) if len(ln_rhos) >= int(est["batches"]) else (0, math.nan, None)

    divergence = None
    horizons = [float(T) for T in est["divergence_horizons"]]
    if horizons and max(horizons) <= horizon and track.history:
        cum = np.cumsum(ln_rhos)
        times = np.array([h[0] for h in track.history])
        if min(horizons) < times[0]:
            raise ConfigError(f"divergence horizon {min(horizons):g} precedes the first history row "
                              f"at t = {times[0]:g} (record_every {every} x dt {cocycle.dt:g})")
        # the mean over [0, t] at the last row t <= T (rows come every `every` steps)
        rows = np.searchsorted(times, horizons, side="right") - 1
        means = [float(cum[j] / times[j]) for j in rows]
        divergence = DivergenceDiagnostic.from_means(horizons, means, float(est["divergence_threshold"]))

    results = {
        "lambda1": _estimate_doc(track.lambda1, ci, horizon, seed,
                                 diverging=bool(divergence.diverging) if divergence else False),
        "w": track.w,
        "w_initial": w0,
        "log_growth": track.log_growth,
    }
    if divergence:
        results["divergence"] = dataclasses.asdict(divergence)
    if kind == "ode":
        kr = lambda1_via_kappa(cocycle, omega, horizon, warmup=warmup, batches=int(est["batches"]))
        results["lambda1_kappa_route"] = _estimate_doc(kr.estimate, kr.ci, horizon, seed)

    series = []
    history = []
    cum = 0.0
    for (t, ln_rho, w), (_, _, uraw) in zip(track.history, raw.history):
        cum += ln_rho
        series.append((t, ln_rho, w, None))
        history.append({"t": t, "lambda1_running": cum / t,
                        "direction_distance": float(np.linalg.norm(uraw - w))})
    # the per-step history is bulky; persist it only when series output is on
    results["history"] = history if cfg["output"]["series"] else []
    return results, series


def _run_separate(cfg):
    _, cocycle, omega, est, seed = _setup(cfg)
    horizon = float(est["horizon"])
    proj_samples = int(est["proj_samples"]) or min(64, int(round(horizon / cocycle.dt)))
    sep = separation_estimate(cocycle, omega, horizon, warmup=int(est["warmup"]),
                              proj_samples=proj_samples)
    results = {
        "lambda1": _estimate_doc(sep.lambda1_hat, None, horizon, seed),
        "lambda2": _estimate_doc(sep.lambda2_hat, None, horizon, seed),
        "sigma": _estimate_doc(sep.sigma_hat, None, horizon, seed),
        "w": sep.w,
        "w_star": sep.w_star,
        "f1_basis": sep.f1_basis,
        "projection_norm_history": [[t, v] for t, v in sep.projection_norm_history],
    }
    series = [(t, math.nan, np.full(cocycle.n, math.nan), v)
              for t, v in sep.projection_norm_history]
    return results, series


def _run_orbit(cfg):
    _, cocycle, omega, est, seed = _setup(cfg)
    depth = int(est["depth"])
    orbit = backward_entire_orbit(cocycle, omega, depth)
    # the depth-doubling drift of estimators.pullback_convergence, reusing ``orbit``
    deeper = backward_entire_orbit(cocycle, omega, 2 * depth)
    conv = float(np.linalg.norm(orbit.directions[-1] - deeper.directions[-1]))
    results = {
        "depth": depth,
        "ns": orbit.ns,
        "directions": [d for d in orbit.directions],
        "log_norms": orbit.log_norms,
        "step_log_rho": orbit.step_log_rho,
        "convergence_distance": conv,
        "seed": seed,
    }
    return results, None


def _run_oseledets(cfg):
    _, cocycle, omega, est, seed = _setup(cfg)
    horizon = float(est["horizon"])
    exps = oseledets_qr(cocycle, omega, horizon)
    return {"exponents": exps, "horizon": horizon, "seed": seed}, None


def _run_torus(cfg):
    from .torus import validate_against_closed_form

    est = cfg["estimator"]
    blk = cfg["model"]
    window = blk.get("sigma_window") or (1.9, 2.1)
    report = validate_against_closed_form(
        rho=blk.get("rho"), seed=cfg["seed"],
        horizon=float(est["horizon"]), dt=float(est["dt"]),
        sigma_window=(float(window[0]), float(window[1])),
        divergence_horizons=tuple(float(T) for T in est["divergence_horizons"]),
        divergence_threshold=float(est["divergence_threshold"]))
    results = {
        "rho": report.rho,
        "kappa_bound": report.kappa_bound,
        "passed": report.passed,
        "items": [{"name": n, "passed": ok, "detail": d} for n, ok, d in report.items],
        "sigma_estimates": report.sigma_estimates,
        "direction_errors": report.direction_errors,
        "divergence": dataclasses.asdict(report.divergence),
        "seed": cfg["seed"],
    }
    return results, None


def _run_leslie_demo(cfg):
    if cfg["model"]["kind"] != "leslie":
        raise ConfigError("leslie-demo needs 'model.kind' = 'leslie'")
    kind, model = build_model(cfg)
    driver = build_driver(cfg)
    est = cfg["estimator"]
    seed = cfg["seed"]
    bad = verify_nstep_positivity(model, driver, seed, int(est["n_samples"]))
    results, series = _run_estimate(cfg)
    results["nstep_positivity"] = {"steps": model.n, "violations": bad,
                                   "n_samples": int(est["n_samples"]), "seed": seed}
    return results, series
