"""Deterministic result serialization: results.json, a run's one output file.

results.json is written by one recursive writer that dispatches on the exact
type of each value: keys sorted by their string form, floats at 17
significant digits, non-finite floats as the strings "inf" / "-inf" / "nan",
strings ASCII-escaped.  A finite float64 array (such as a per-step history
column) is written in one ``%`` formatting of a template built from its
shape's brackets, one ``%.17g`` per element: the same text as its elements
written one by one, in one call.  An integer array (such as a history's
step column) is written the same way, one ``%d`` per element.  Any other
numpy array (one holding a non-finite value, a bool array, or one of
another dtype) and numpy scalars are written as their ``.tolist()``.
Every float round-trips exactly, and identical runs produce
byte-identical files (timing aside).
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math

import numpy as np


_str = json.encoder.encode_basestring_ascii


def _float(v):
    if math.isfinite(v):
        return format(v, ".17g")
    return '"nan"' if v != v else '"inf"' if v > 0 else '"-inf"'


def _dict(v):
    return "{" + ",".join(f"{_str(str(k))}:{_json(v[k])}" for k in sorted(v, key=str)) + "}"


def _list(v):
    return "[" + ",".join(map(_json, v)) + "]"


def _array(v):
    if v.dtype == np.float64 and np.isfinite(v).all():
        text = "%.17g"  # '%.17g' % x is format(x, '.17g'), the text _float writes
    elif v.dtype.kind in "iu":
        text = "%d"  # '%d' % x is str(x) for an int, the text _WRITERS[int] writes
    else:
        return _json(v.tolist())
    for n in reversed(v.shape):
        text = "[" + ",".join([text] * n) + "]"
    return text % tuple(v.ravel().tolist())


# exact types only: bool is an int, and numpy's float64 is a float
_WRITERS = {float: _float, int: str, bool: lambda v: "true" if v else "false", str: _str,
            type(None): lambda v: "null", dict: _dict, list: _list, tuple: _list, np.ndarray: _array}


def _json(v):
    """The JSON text of one value; numpy values other than plain arrays
    are written as their .tolist()."""
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

