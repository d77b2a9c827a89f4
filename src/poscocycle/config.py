"""Run configuration: one plain-text JSON file describing driver, model,
estimator parameters, and output.

A config is checked by building it.  The tables below give each driver and
model kind the keys it accepts and a builder; a builder reads every value
through one reader, so a missing key, or a value that the reader's
conversion or the library constructor rejects, is a ConfigError naming the
key.
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
from .torus import BATTERY_DT, BATTERY_HORIZON, TorusExampleModel

_REQUIRED = object()  # the default of a key that has none

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
# the integer estimator keys, each with the least value it takes
INTEGER_KEYS = {"warmup": 0, "proj_samples": 0, "record_every": 1, "lag": 1, "depth": 1,
                "n_samples": 1, "batches": 2}


def _number(v, above=-math.inf):
    """Whether v is a finite number (not a bool) greater than ``above``."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and above < v < math.inf


def _real(v, above=-math.inf):
    if not _number(v, above):
        raise ValueError(f"must be a finite {'positive ' if above == 0 else ''}number, got {v!r}")
    return float(v)


def _integer(v, least=1):
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise ValueError(f"must be {'a positive integer' if least == 1 else f'an integer >= {least}'}, got {v!r}")
    return v


def _interval(v):
    if not (isinstance(v, list) and len(v) == 2 and all(map(_number, v)) and v[0] <= v[1]):
        raise ValueError(f"must be a [lo, hi] pair of finite numbers with lo <= hi, got {v!r}")
    return float(v[0]), float(v[1])


def _reader(blk, where, keys):
    """read(key, convert): ``convert`` of the value of ``key`` in the config
    object ``blk`` at ``where``, or of its default in ``keys``.  A missing
    required key, or a value that ``convert`` rejects with a TypeError,
    ValueError or OSError, is a ConfigError naming the key; a message that
    starts with the key's own name ("rho must lie in (0, 1)") reads with
    the key's path in its place."""
    def read(key, convert=lambda v: v):
        path = f"{where}.{key}"
        value = blk.get(key, keys[key])
        if value is _REQUIRED:
            raise ConfigError(f"missing key '{path}'")
        try:
            return convert(value)
        except (TypeError, ValueError, OSError) as exc:
            msg = str(exc).removeprefix(f"{key} ")
            raise ConfigError(f"'{path}' {msg}" if msg.startswith("must ") else f"'{path}': {msg}") from None
    return read


def _kind(blk, where, kinds):
    """The kind of the config object ``blk``: one of ``kinds``."""
    if not isinstance(blk, dict):
        raise ConfigError(f"'{where}' must be an object")
    if "kind" not in blk:
        raise ConfigError(f"missing key '{where}.kind'")
    if not isinstance(blk["kind"], str) or blk["kind"] not in kinds:
        raise ConfigError(f"unknown '{where}.kind' {blk['kind']!r}")
    return blk["kind"]


def _unknown_keys(block, allowed, where):
    extra = set(block) - set(allowed)
    if extra:
        raise ConfigError(f"unknown key '{where}.{sorted(extra)[0]}'")


# ---------------------------------------------------------------------------
# the kinds


def _iid_list(read):
    matrices = read("matrices", lambda m: mx.IidChoiceModel(m).matrices)
    return read("weights", lambda w: mx.IidChoiceModel(matrices, w))


def _uniform_entries(read):
    n, lo = read("n", _integer), read("lo", _real)
    return read("hi", lambda hi: mx.UniformEntriesModel(n, lo, _real(hi)))


def _leslie(read):
    n = read("n", _integer)
    return mx.LeslieModel(n, read("m", lambda d: _dist_sampler(d, n)), read("b", lambda d: _dist_sampler(d, n - 1)))


def _dist_sampler(d, size):
    """A sampler of ``size`` positive values from a distribution object."""
    keys = set(d) if isinstance(d, dict) else set()
    if keys == {"dist", "lo", "hi"} and d["dist"] == "uniform" and _number(d["lo"], 0.0) and _number(d["hi"]) \
            and d["lo"] <= d["hi"]:
        lo, hi = float(d["lo"]), float(d["hi"])
        return lambda rng: rng.uniform(lo, hi, size)
    if keys == {"dist", "values"} and d["dist"] == "constant" and isinstance(d["values"], list) \
            and len(d["values"]) == size and all(_number(v, 0.0) for v in d["values"]):
        vals = np.array(d["values"], dtype=float)
        return lambda rng: vals
    raise ValueError(f"must be {{'dist': 'uniform', 'lo': lo, 'hi': hi}} with 0 < lo <= hi, or {{'dist': "
                     f"'constant', 'values': [...]}} with {size} positive numbers, got {d!r}")


def _piecewise_uniform(read):
    n, diag = read("n", _integer), read("diag", _interval)
    return read("offdiag", lambda off: odes.PiecewiseUniformOdeModel(n, *diag, *_interval(off)))


_TIME = {"matrix": "discrete", "ode": "continuous"}  # the time of each family's drivers
_ANY_DISCRETE = ("iid-shift", "markov-shift")

# driver kind -> (the keys it accepts besides "kind", each with its default,
# _REQUIRED for none; a builder of the driver from a reader of those keys).
# validate_config sets an iid-shift's time to its model's when none is given.
DRIVERS = {
    "iid-shift": ({"time": "discrete"}, lambda read: read("time", IidShift)),
    "markov-shift": ({"transition": _REQUIRED}, lambda read: read("transition", MarkovShift)),
    "torus-rotation": ({"rho": None}, lambda read: read("rho", lambda rho: TorusRotation(
        None if rho is None else _real(rho)))),
}

# model kind -> (family; the driver kinds it runs on, the first of them its
# default; the keys it accepts besides "kind", as in DRIVERS; a builder)
MODELS = {
    "constant": ("matrix", _ANY_DISCRETE, {"matrix": _REQUIRED},
                 lambda read: read("matrix", mx.ConstantMatrixModel)),
    "iid-list": ("matrix", _ANY_DISCRETE, {"matrices": _REQUIRED, "weights": None}, _iid_list),
    "markov-list": ("matrix", ("markov-shift",), {"matrices": _REQUIRED},
                    lambda read: read("matrices", mx.MarkovMatrixModel)),
    "uniform-entries": ("matrix", _ANY_DISCRETE, {"n": _REQUIRED, "lo": _REQUIRED, "hi": _REQUIRED},
                        _uniform_entries),
    "leslie": ("matrix", _ANY_DISCRETE, {"n": _REQUIRED, "m": _REQUIRED, "b": _REQUIRED}, _leslie),
    "csv": ("matrix", _ANY_DISCRETE, {"path": _REQUIRED},
            lambda read: read("path", lambda p: mx.ConstantMatrixModel(mx.matrix_from_csv(p)))),
    "ode-constant": ("ode", ("iid-shift", "torus-rotation"), {"matrix": _REQUIRED},
                     lambda read: read("matrix", odes.ConstantOdeModel)),
    "ode-piecewise-uniform": ("ode", ("iid-shift",), {"n": _REQUIRED, "diag": _REQUIRED, "offdiag": _REQUIRED},
                              _piecewise_uniform),
    "torus-example": ("ode", ("torus-rotation",), {}, lambda read: TorusExampleModel()),
}


def build_driver(cfg: dict):
    blk = cfg["driver"]
    keys, build = DRIVERS[blk["kind"]]
    return build(_reader(blk, "driver", keys))


def build_model(cfg: dict):
    """Returns ("matrix" | "ode", model object)."""
    blk = cfg["model"]
    family, _, keys, build = MODELS[blk["kind"]]
    return family, build(_reader(blk, "model", keys))


# ---------------------------------------------------------------------------
# validation


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
    """The config with its defaults filled in, once its driver and model
    build and its estimator values fit them."""
    _unknown_keys(cfg, ("seed", "driver", "model", "estimator", "output"), "config")
    out = {}
    out["seed"] = seed = cfg.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")

    if "model" not in cfg:
        raise ConfigError("missing key 'config.model'")
    model_blk = cfg["model"]
    kind = _kind(model_blk, "model", MODELS)
    family, drivers, keys, _ = MODELS[kind]
    _unknown_keys(model_blk, ["kind", *keys], "model")
    driver_blk = cfg.get("driver")
    if driver_blk is None:
        driver_blk = {"kind": drivers[0]}
    dkind = _kind(driver_blk, "driver", DRIVERS)
    _unknown_keys(driver_blk, ["kind", *DRIVERS[dkind][0]], "driver")
    if dkind not in drivers:
        raise ConfigError(f"'driver.kind' must be {' or '.join(map(repr, drivers))} for 'model.kind' "
                          f"{kind!r}, got {dkind!r}")
    if dkind == "iid-shift":
        driver_blk = {"time": _TIME[family], **driver_blk}
    driver = build_driver({"driver": driver_blk})
    if driver.time != _TIME[family]:
        raise ConfigError(f"'model.kind' {kind!r} needs a {_TIME[family]} driver, got a {driver.time} one")
    out["driver"] = {"kind": dkind, **{k: driver_blk.get(k, v) for k, v in DRIVERS[dkind][0].items()},
                     "time": driver.time}
    out["model"] = dict(model_blk)
    _, model = build_model(out)
    if kind == "markov-list" and len(model.matrices) != driver.n_states:
        raise ConfigError(f"'model.matrices' must hold {driver.n_states} matrices, one per state of the "
                          f"driver's chain, got {len(model.matrices)}")

    est = dict(ESTIMATOR_DEFAULTS)
    if kind == "torus-example":  # the torus battery's own horizon and dt
        est.update(horizon=BATTERY_HORIZON, dt=BATTERY_DT)
    est_blk = cfg.get("estimator", {})
    if not isinstance(est_blk, dict):
        raise ConfigError("'estimator' must be an object")
    _unknown_keys(est_blk, ESTIMATOR_DEFAULTS, "estimator")
    est.update(est_blk)
    read = _reader(est, "estimator", est)
    for key in ("horizon", "dt", "rtol"):
        read(key, lambda v: _real(v, 0.0))
    dt = est["dt"] if family == "ode" else 1
    if est["horizon"] / dt <= 0.5:  # rounds to no step
        raise ConfigError(f"'estimator.horizon' must be long enough for one step of {dt:g}, got {est['horizon']!r}")
    read("divergence_threshold", _real)
    horizons = est["divergence_horizons"]
    if not isinstance(horizons, list) or not all(_number(T, 0.0) for T in horizons):
        raise ConfigError(f"'estimator.divergence_horizons' must be a list of finite positive numbers, got {horizons!r}")
    for key, least in INTEGER_KEYS.items():
        read(key, lambda v: _integer(v, least))
    u0 = est["u0"]
    if u0 is not None and not (isinstance(u0, list) and all(_number(x) and x >= 0 for x in u0)
                               and any(x > 0 for x in u0)):
        raise ConfigError("'estimator.u0' must be null or a list of finite nonnegative numbers, "
                          f"not all zero, got {u0!r}")
    if u0 is not None and len(u0) != model.n:
        raise ConfigError(f"'estimator.u0' must hold {model.n} numbers, got {u0!r}")
    out["estimator"] = est

    out_blk = cfg.get("output", {})
    if not isinstance(out_blk, dict):
        raise ConfigError("'output' must be an object")
    _unknown_keys(out_blk, ("dir", "series"), "output")
    out["output"] = {"dir": out_blk.get("dir", "."), "series": bool(out_blk.get("series", False))}
    return out
