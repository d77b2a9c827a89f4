"""Deterministic result serialization and plot-data emission.

results.json is written in one pass by a recursive serializer: keys sorted,
floats at 17 significant digits, non-finite floats as the strings "inf" /
"-inf" / "nan".  Identical runs produce byte-identical files (timing aside).
"""

from __future__ import annotations

import csv
import importlib.resources
import json
import math

import numpy as np

from .errors import EstimationError


def _scrub(obj):
    """Convert numpy containers/scalars into plain Python values."""
    if isinstance(obj, np.ndarray):
        return [_scrub(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _scrub(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    return obj


def _write_value(v, parts):
    # numpy values are written as the plain values _scrub would make of them
    if isinstance(v, np.ndarray):
        v = v.tolist()
    elif isinstance(v, np.generic):
        v = v.item()
    if v is None:
        parts.append("null")
    elif isinstance(v, bool):
        parts.append("true" if v else "false")
    elif isinstance(v, int):
        parts.append(str(v))
    elif isinstance(v, float):
        if math.isnan(v):
            parts.append('"nan"')
        elif math.isinf(v):
            parts.append('"inf"' if v > 0 else '"-inf"')
        else:
            parts.append(format(v, ".17g"))
    elif isinstance(v, str):
        parts.append(json.dumps(v))
    elif isinstance(v, dict):
        parts.append("{")
        for i, k in enumerate(sorted(v, key=str)):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _write_value(v[k], parts)
        parts.append("}")
    elif isinstance(v, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(v):
            if i:
                parts.append(",")
            _write_value(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(v).__name__}")


def format_result(result: dict) -> str:
    parts = []
    _write_value(result, parts)
    return "".join(parts) + "\n"


def write_result(result: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_result(result))


def results_schema() -> dict:
    text = importlib.resources.files("poscocycle").joinpath("schemas/results.schema.json").read_text()
    return json.loads(text)


def validate_result(result: dict) -> None:
    """Validate a result document against the shipped schema (needs jsonschema)."""
    import jsonschema

    jsonschema.validate(_scrub(result), results_schema())


def report_to_dict(report) -> dict:
    """AssumptionReport -> plain dict."""
    return {
        "condition": report.condition,
        "verdict": report.verdict,
        "estimate": report.estimate,
        "ci": report.ci,
        "witnesses": _scrub([list(w) if isinstance(w, tuple) else w for w in report.witnesses]),
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
