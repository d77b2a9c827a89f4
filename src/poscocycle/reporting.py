"""Deterministic result serialization and plot-data emission.

results.json is written by one recursive writer that dispatches on the exact
type of each value: keys sorted by their string form, floats at 17
significant digits, non-finite floats as the strings "inf" / "-inf" / "nan",
strings ASCII-escaped, numpy arrays and scalars through ``.tolist()``.
Identical runs produce byte-identical files (timing aside).
"""

from __future__ import annotations

import csv
import functools
import importlib.resources
import json
import math

import numpy as np

from .errors import EstimationError


_str = json.encoder.encode_basestring_ascii


def _float(v):
    if math.isfinite(v):
        return format(v, ".17g")
    return '"nan"' if v != v else '"inf"' if v > 0 else '"-inf"'


def _dict(v):
    return "{" + ",".join(f"{_str(str(k))}:{_json(v[k])}" for k in sorted(v, key=str)) + "}"


def _list(v):
    return "[" + ",".join(map(_json, v)) + "]"


# exact types only: bool is an int, and numpy's float64 is a float
_WRITERS = {float: _float, int: str, bool: lambda v: "true" if v else "false", str: _str,
            type(None): lambda v: "null", dict: _dict, list: _list, tuple: _list}


def _json(v):
    """The JSON text of one value; numpy values are written as their .tolist()."""
    write = _WRITERS.get(type(v))
    if write is None:
        if not isinstance(v, (np.ndarray, np.generic)):
            raise TypeError(f"cannot serialize {type(v).__name__}")
        return _json(v.tolist())
    return write(v)


def format_result(result: dict) -> str:
    return _json(result) + "\n"


def write_result(result: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_result(result))


def results_schema() -> dict:
    text = importlib.resources.files("poscocycle").joinpath("schemas/results.schema.json").read_text()
    return json.loads(text)


@functools.cache
def _validator():
    """The schema's validator, built once, after checking the schema itself."""
    import jsonschema

    schema = results_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_result(result: dict) -> None:
    """Validate a result document as parsed from results.json against the
    shipped schema (needs jsonschema); raises jsonschema.ValidationError,
    as ``jsonschema.validate`` does."""
    import jsonschema

    error = jsonschema.exceptions.best_match(_validator().iter_errors(result))
    if error is not None:
        raise error


def report_to_dict(report) -> dict:
    """AssumptionReport -> plain dict."""
    return {
        "condition": report.condition,
        "verdict": report.verdict,
        "estimate": report.estimate,
        "ci": report.ci,
        "witnesses": list(report.witnesses),
        "detail": report.detail,
    }


def write_series(rows, n_dim, path) -> None:
    """Time-series CSV with the fixed schema t, ln_rho, w_1..w_N, ln_proj_norm.

    rows: iterable of (t, ln_rho, w (array), ln_proj_norm or None).
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "ln_rho"] + [f"w_{i + 1}" for i in range(n_dim)] + ["ln_proj_norm"])
        for t, ln_rho, w, ln_proj in rows:
            writer.writerow([f"{t:.17g}", f"{ln_rho:.17g}"]
                            + [f"{wi:.17g}" for wi in w]
                            + [f"{ln_proj:.17g}" if ln_proj is not None else "nan"])


def emit_plot_data(result: dict, path) -> None:
    """Tidy CSV for external plotting: running top-exponent estimate vs time
    and the distance between a raw probe's direction and the warmed principal
    direction (plot it on a log axis)."""
    history = result.get("results", {}).get("history")
    if not history:
        raise EstimationError("result carries no history series; rerun with series output enabled")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "lambda1_running", "direction_distance"])
        for row in history:
            writer.writerow([f"{row['t']:.17g}", f"{row['lambda1_running']:.17g}",
                             f"{row['direction_distance']:.17g}"])
