"""Run configuration: one plain-text JSON file describing driver, model,
estimator parameters, and output; validated with messages that name the
offending key.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .drivers import IidShift, MarkovShift, TorusRotation
from .errors import ConfigError
from . import matrices as mx
from . import odes


DRIVER_KINDS = ("iid-shift", "markov-shift", "torus-rotation")
MATRIX_MODEL_KINDS = ("constant", "iid-list", "markov-list", "uniform-entries", "leslie", "csv")
ODE_MODEL_KINDS = ("ode-constant", "ode-piecewise-uniform", "torus-example")

ESTIMATOR_DEFAULTS = {
    "horizon": 100.0,
    "dt": 0.1,
    "warmup": 50,
    "batches": 8,
    "rtol": 1e-8,
    "proj_samples": 0,
    "depth": 20,
    "u0": None,
    "record_every": 1,
    "lag": 1,
    "n_samples": 100,
    "divergence_horizons": [125.0, 250.0, 500.0, 1000.0],
    "divergence_threshold": -10.0,
}
# a torus-example config runs the torus battery at that battery's own horizon and dt
TORUS_ESTIMATOR_DEFAULTS = {"horizon": 50.0, "dt": 0.25}
# the integer estimator keys, each with the least value it takes
INTEGER_KEYS = {"warmup": 0, "proj_samples": 0, "record_every": 1, "lag": 1, "depth": 1,
                "n_samples": 1, "batches": 2}


def _number(v, above=-math.inf):
    """Whether v is a finite number (not a bool) greater than ``above``."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and above < v < math.inf


def _require(block, key, where):
    if key not in block:
        raise ConfigError(f"missing key '{where}.{key}'")
    return block[key]


def _unknown_keys(block, allowed, where):
    extra = set(block) - set(allowed)
    if extra:
        raise ConfigError(f"unknown key '{where}.{sorted(extra)[0]}'")


def load_config(path) -> dict:
    return validate_config(read_config(path))


def read_config(path) -> dict:
    """The JSON object of a config file, not yet validated."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def validate_config(cfg: dict) -> dict:
    _unknown_keys(cfg, ("seed", "driver", "model", "estimator", "output"), "config")
    out = {}
    out["seed"] = seed = cfg.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")

    driver_blk = cfg.get("driver")
    model_blk = _require(cfg, "model", "config")
    if not isinstance(model_blk, dict):
        raise ConfigError("'model' must be an object")
    kind = _require(model_blk, "kind", "model")
    if kind not in MATRIX_MODEL_KINDS + ODE_MODEL_KINDS:
        raise ConfigError(f"unknown 'model.kind' {kind!r}")

    if driver_blk is None:
        driver_blk = _default_driver_block(kind, model_blk)
    if not isinstance(driver_blk, dict):
        raise ConfigError("'driver' must be an object")
    out["driver"] = _validate_driver(driver_blk)
    out["model"] = _validate_model(model_blk, out["driver"])

    est = dict(ESTIMATOR_DEFAULTS)
    if kind == "torus-example":
        est.update(TORUS_ESTIMATOR_DEFAULTS)
    est_blk = cfg.get("estimator", {})
    if not isinstance(est_blk, dict):
        raise ConfigError("'estimator' must be an object")
    _unknown_keys(est_blk, ESTIMATOR_DEFAULTS, "estimator")
    est.update(est_blk)
    for key in ("horizon", "dt", "rtol"):
        if not _number(est[key], 0.0):
            raise ConfigError(f"'estimator.{key}' must be a finite positive number, got {est[key]!r}")
    if not _number(est["divergence_threshold"]):
        raise ConfigError(f"'estimator.divergence_threshold' must be a finite number, got {est['divergence_threshold']!r}")
    horizons = est["divergence_horizons"]
    if not isinstance(horizons, list) or not all(_number(T, 0.0) for T in horizons):
        raise ConfigError(f"'estimator.divergence_horizons' must be a list of finite positive numbers, got {horizons!r}")
    for key, least in INTEGER_KEYS.items():
        v = est[key]
        if isinstance(v, bool) or not isinstance(v, int) or v < least:
            what = "a positive integer" if least == 1 else f"an integer >= {least}"
            raise ConfigError(f"'estimator.{key}' must be {what}, got {v!r}")
    u0 = est["u0"]  # estimate checks its length, once the model gives N
    if u0 is not None and not (isinstance(u0, list) and all(_number(x) and x >= 0 for x in u0)
                               and any(x > 0 for x in u0)):
        raise ConfigError("'estimator.u0' must be null or a list of finite nonnegative numbers, "
                          f"not all zero, got {u0!r}")
    out["estimator"] = est

    out_blk = cfg.get("output", {})
    if not isinstance(out_blk, dict):
        raise ConfigError("'output' must be an object")
    _unknown_keys(out_blk, ("dir", "series"), "output")
    out["output"] = {"dir": out_blk.get("dir", "."), "series": bool(out_blk.get("series", False))}
    return out


def _default_driver_block(model_kind, model_blk):
    if model_kind == "torus-example":
        return {"kind": "torus-rotation"}
    if model_kind in ODE_MODEL_KINDS:
        return {"kind": "iid-shift", "time": "continuous"}
    if model_kind == "markov-list":
        raise ConfigError("model.kind 'markov-list' needs an explicit 'driver' with a transition matrix")
    return {"kind": "iid-shift", "time": "discrete"}


def _validate_driver(blk) -> dict:
    kind = _require(blk, "kind", "driver")
    if kind not in DRIVER_KINDS:
        raise ConfigError(f"unknown 'driver.kind' {kind!r}")
    if kind == "iid-shift":
        _unknown_keys(blk, ("kind", "time"), "driver")
        time = blk.get("time", "discrete")
        if time not in ("discrete", "continuous"):
            raise ConfigError("'driver.time' must be 'discrete' or 'continuous'")
        return {"kind": kind, "time": time}
    if kind == "markov-shift":
        _unknown_keys(blk, ("kind", "transition"), "driver")
        P = _require(blk, "transition", "driver")
        try:
            MarkovShift(P)
        except ValueError as exc:
            raise ConfigError(f"'driver.transition': {exc}") from None
        return {"kind": kind, "transition": P, "time": "discrete"}
    _unknown_keys(blk, ("kind", "rho"), "driver")
    rho = blk.get("rho")
    if rho is not None and not (0.0 < float(rho) < 1.0):
        raise ConfigError("'driver.rho' must lie in (0, 1)")
    return {"kind": kind, "rho": rho, "time": "continuous"}


def _validate_model(blk, driver) -> dict:
    kind = blk["kind"]
    is_matrix = kind in MATRIX_MODEL_KINDS
    if is_matrix and driver["time"] != "discrete":
        raise ConfigError(f"'model.kind' {kind!r} needs a discrete driver, got a continuous one")
    if not is_matrix and driver["time"] != "continuous":
        raise ConfigError(f"'model.kind' {kind!r} needs a continuous driver, got a discrete one")
    if kind == "torus-example" and driver["kind"] != "torus-rotation":
        raise ConfigError("'model.kind' 'torus-example' needs a 'torus-rotation' driver")
    if kind == "markov-list" and driver["kind"] != "markov-shift":
        raise ConfigError("'model.kind' 'markov-list' needs a 'markov-shift' driver")

    def matlist(key):
        mats = _require(blk, key, "model")
        try:
            arrs = [np.asarray(m, dtype=float) for m in mats]
        except (TypeError, ValueError):
            raise ConfigError(f"'model.{key}' must be a list of numeric matrices") from None
        return arrs

    if kind == "constant":
        _unknown_keys(blk, ("kind", "matrix"), "model")
        np.asarray(_require(blk, "matrix", "model"), dtype=float)
    elif kind == "iid-list":
        _unknown_keys(blk, ("kind", "matrices", "weights"), "model")
        matlist("matrices")
    elif kind == "markov-list":
        _unknown_keys(blk, ("kind", "matrices"), "model")
        matlist("matrices")
    elif kind == "uniform-entries":
        _unknown_keys(blk, ("kind", "n", "lo", "hi"), "model")
        n, lo, hi = int(_require(blk, "n", "model")), float(_require(blk, "lo", "model")), float(_require(blk, "hi", "model"))
        if not 0 <= lo < hi:
            raise ConfigError("'model.lo' / 'model.hi' must satisfy 0 <= lo < hi")
    elif kind == "leslie":
        _unknown_keys(blk, ("kind", "n", "m", "b"), "model")
        int(_require(blk, "n", "model"))
        for key in ("m", "b"):
            _validate_dist(_require(blk, key, "model"), f"model.{key}")
    elif kind == "csv":
        _unknown_keys(blk, ("kind", "path"), "model")
        _require(blk, "path", "model")
    elif kind == "ode-constant":
        _unknown_keys(blk, ("kind", "matrix"), "model")
        np.asarray(_require(blk, "matrix", "model"), dtype=float)
    elif kind == "ode-piecewise-uniform":
        _unknown_keys(blk, ("kind", "n", "diag", "offdiag"), "model")
        int(_require(blk, "n", "model"))
        for key in ("diag", "offdiag"):
            rng = _require(blk, key, "model")
            if not (isinstance(rng, (list, tuple)) and len(rng) == 2):
                raise ConfigError(f"'model.{key}' must be a [lo, hi] pair")
        if blk["offdiag"][0] < 0:
            raise ConfigError("'model.offdiag' lower bound must be >= 0 for a cooperative field")
    elif kind == "torus-example":
        _unknown_keys(blk, ("kind", "rho", "sigma_window"), "model")
        rho = blk.get("rho")
        if rho is not None and not (_number(rho, 0.0) and rho < 1.0):
            raise ConfigError(f"'model.rho' must lie in (0, 1), got {rho!r}")
        win = blk.get("sigma_window")
        if win is not None:
            if not (isinstance(win, (list, tuple)) and len(win) == 2 and win[0] < win[1]):
                raise ConfigError("'model.sigma_window' must be a [lo, hi] pair with lo < hi")
    return dict(blk)


def _validate_dist(d, where):
    if not isinstance(d, dict) or "dist" not in d:
        raise ConfigError(f"'{where}' must be an object with a 'dist' key")
    if d["dist"] == "uniform":
        _unknown_keys(d, ("dist", "lo", "hi"), where)
        lo, hi = float(_require(d, "lo", where)), float(_require(d, "hi", where))
        if not 0 < lo <= hi:
            raise ConfigError(f"'{where}' uniform bounds must satisfy 0 < lo <= hi")
    elif d["dist"] == "constant":
        _unknown_keys(d, ("dist", "values"), where)
        vals = np.asarray(_require(d, "values", where), dtype=float)
        if np.any(vals <= 0):
            raise ConfigError(f"'{where}.values' must be strictly positive")
    else:
        raise ConfigError(f"'{where}.dist' must be 'uniform' or 'constant'")


# ---------------------------------------------------------------------------
# builders


def build_driver(cfg: dict):
    blk = cfg["driver"]
    if blk["kind"] == "iid-shift":
        return IidShift(time=blk["time"])
    if blk["kind"] == "markov-shift":
        return MarkovShift(blk["transition"])
    return TorusRotation(blk["rho"])


def build_model(cfg: dict):
    """Returns ("matrix" | "ode", model object)."""
    blk = cfg["model"]
    kind = blk["kind"]
    if kind == "constant":
        return "matrix", mx.ConstantMatrixModel(blk["matrix"])
    if kind == "iid-list":
        return "matrix", mx.IidChoiceModel(blk["matrices"], blk.get("weights"))
    if kind == "markov-list":
        return "matrix", mx.MarkovMatrixModel(blk["matrices"])
    if kind == "uniform-entries":
        return "matrix", mx.UniformEntriesModel(int(blk["n"]), float(blk["lo"]), float(blk["hi"]))
    if kind == "leslie":
        n = int(blk["n"])
        return "matrix", mx.LeslieModel(n, _dist_sampler(blk["m"], n), _dist_sampler(blk["b"], n - 1))
    if kind == "csv":
        return "matrix", mx.ConstantMatrixModel(mx.matrix_from_csv(blk["path"]))
    if kind == "ode-constant":
        return "ode", odes.ConstantOdeModel(blk["matrix"])
    if kind == "ode-piecewise-uniform":
        n = int(blk["n"])
        dlo, dhi = map(float, blk["diag"])
        olo, ohi = map(float, blk["offdiag"])
        return "ode", odes.PiecewiseConstantOdeModel(n, odes.cooperative_sampler(n, dlo, dhi, olo, ohi))
    if kind == "torus-example":
        from .torus import TorusCoefficientField
        return "ode", TorusCoefficientField(blk.get("rho"))
    raise ConfigError(f"unknown 'model.kind' {kind!r}")


def _dist_sampler(d, size):
    if d["dist"] == "constant":
        vals = np.asarray(d["values"], dtype=float)
        if vals.size != size:
            raise ConfigError(f"constant distribution needs {size} values, got {vals.size}")
        return lambda rng: vals
    lo, hi = float(d["lo"]), float(d["hi"])
    return lambda rng: rng.uniform(lo, hi, size)
