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
                         forward_floquet, lambda1_via_kappa, oseledets_qr,
                         pullback_convergence, separation_estimate, warmup_direction)
from .matrices import check_D
from .odes import check_O
from .reporting import write_result
from .stats import batch_means

COMMANDS = ("check", "estimate", "separate", "orbit", "oseledets", "example-torus")


def _setup(cfg):
    """The configured (kind, cocycle, initial base point, estimator block, seed)."""
    kind, model = build_model(cfg)
    driver = build_driver(cfg)
    est = cfg["estimator"]
    seed = cfg["seed"]
    if kind == "matrix":
        cocycle = MatrixCocycle(model)
    else:
        cocycle = OdeCocycle(model, dt=float(est["dt"]), rtol=float(est["rtol"]))
    return kind, cocycle, driver.initial(seed), est, seed


def _estimate_doc(value, ci, horizon, seed, **extra):
    doc = {"value": value, "ci": ci, "horizon": horizon, "seed": seed}
    doc.update(extra)
    return doc


def run_command(command, cfg, out_dir=None):
    """Execute one pipeline; writes its one output file, results.json, under
    the output directory and returns the result document."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    t_start = time.perf_counter()
    out = Path(out_dir if out_dir is not None else cfg["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)

    runner = {
        "check": _run_check,
        "estimate": _run_estimate,
        "separate": _run_separate,
        "orbit": _run_orbit,
        "oseledets": _run_oseledets,
        "example-torus": _run_torus,
    }[command]
    results = runner(cfg)

    doc = {
        "tool": {"name": "poscocycle", "version": __version__},
        "command": command,
        "seed": cfg["seed"],
        "config": {k: cfg[k] for k in ("seed", "driver", "model", "estimator", "output")},
        "results": results,
        "timing": {"wall_seconds": time.perf_counter() - t_start},
    }
    write_result(doc, out / "results.json")
    return doc


def _run_check(cfg):
    kind, model = build_model(cfg)
    est = cfg["estimator"]
    sample = (model, build_driver(cfg), cfg["seed"], int(est["n_samples"]))
    reports = check_D(*sample, lag=int(est["lag"])) if kind == "matrix" else check_O(*sample)
    return {"assumption_reports": [dataclasses.asdict(r) for r in reports]}


def _thinned(track, every):
    """A track recorded every step, as recorded every ``every`` steps: a
    row's ln rho is its steps' summed in order from 0.0, as
    ``forward_floquet`` sums them."""
    rows = len(track.times) // every
    end = rows * every
    return dataclasses.replace(
        track, times=track.times[every - 1:end:every], directions=track.directions[every - 1:end:every],
        log_rho=np.cumsum(track.log_rho[:end].reshape(rows, every), axis=1)[:, -1])


def _run_estimate(cfg):
    kind, cocycle, omega, est, seed = _setup(cfg)
    horizon = float(est["horizon"])
    every = int(est["record_every"])
    batches = int(est["batches"])

    w0 = warmup_direction(cocycle, omega, int(est["warmup"]))
    probe = np.asarray(est["u0"], dtype=float) if est["u0"] else np.eye(cocycle.n)[0]
    # the warmed and the raw probe walk as one block; the kappa route reads
    # the warmed direction at every step
    track, raw = forward_floquet(cocycle, omega, np.column_stack([w0, probe]), horizon,
                                 record_every=1 if kind == "ode" else every)
    if kind == "ode":
        kr = lambda1_via_kappa(cocycle, omega, np.vstack([w0, track.directions]), batches)
        track, raw = _thinned(track, every), _thinned(raw, every)

    ln_rhos, times = track.log_rho, track.times  # log growth over each row's every * dt
    _, ci, _ = batch_means(ln_rhos / (every * cocycle.dt), batches) if len(ln_rhos) >= batches else (0, math.nan, None)
    running = np.cumsum(ln_rhos) / times

    divergence = None
    horizons = [float(T) for T in est["divergence_horizons"]]
    if horizons and max(horizons) <= horizon and len(times):
        if min(horizons) < times[0]:
            raise ConfigError(f"divergence horizon {min(horizons):g} precedes the first history row "
                              f"at t = {times[0]:g} (record_every {every} x dt {cocycle.dt:g})")
        # the mean over [0, t] at the last row t <= T (rows come every `every` steps)
        rows = np.searchsorted(times, horizons, side="right") - 1
        divergence = DivergenceDiagnostic.from_means(horizons, running[rows],
                                                     float(est["divergence_threshold"]))

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
        results["lambda1_kappa_route"] = _estimate_doc(kr.estimate, kr.ci, horizon, seed)

    if cfg["output"]["series"]:
        # one column per quantity, one entry per row of the tracked probe;
        # the raw probe's distance is NaN from the step that annihilated it on
        both = min(len(raw.times), len(times))
        distance = np.full(len(times), math.nan)
        distance[:both] = np.linalg.norm(raw.directions[:both] - track.directions[:both], axis=1)
        results["history"] = {"t": times, "ln_rho": ln_rhos, "lambda1_running": running,
                              "direction_distance": distance, "w": track.directions}
    return results


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
    return results


def _run_orbit(cfg):
    _, cocycle, omega, est, seed = _setup(cfg)
    depth = int(est["depth"])
    orbit, conv = pullback_convergence(cocycle, omega, depth)
    results = {
        "depth": depth,
        "ns": orbit.ns,
        # float arrays, each written in one format (a list is written one float at a time)
        "directions": np.array(orbit.directions),
        "log_norms": np.array(orbit.log_norms),
        "step_log_rho": np.array(orbit.step_log_rho),
        "convergence_distance": conv,
        "seed": seed,
    }
    return results


def _run_oseledets(cfg):
    _, cocycle, omega, est, seed = _setup(cfg)
    horizon = float(est["horizon"])
    exps = oseledets_qr(cocycle, omega, horizon)
    return {"exponents": exps, "horizon": horizon, "seed": seed}


def _run_torus(cfg):
    from .torus import validate_against_closed_form

    if cfg["model"]["kind"] != "torus-example":
        raise ConfigError(f"example-torus needs 'model.kind' = 'torus-example', got {cfg['model']['kind']!r}")
    est = cfg["estimator"]
    report = validate_against_closed_form(
        rho=cfg["driver"]["rho"], seed=cfg["seed"],
        horizon=float(est["horizon"]), dt=float(est["dt"]),
        divergence_horizons=tuple(float(T) for T in est["divergence_horizons"]),
        divergence_threshold=float(est["divergence_threshold"]))
    results = {
        "rho": report.rho,
        "kappa_bound": report.kappa_bound,
        "passed": report.passed,
        "items": [{"name": n, "passed": ok, "detail": d} for n, ok, d in report.items],
        "sigma_estimates": report.sigma_estimates,
        "direction_errors": report.direction_errors,
        "propagator_errors": report.propagator_errors,
        "divergence": dataclasses.asdict(report.divergence),
        "seed": cfg["seed"],
    }
    return results
