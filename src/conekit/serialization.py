"""File formats for forms, metrics, link specifications, and reports.

Everything is plain structured text: JSON for objects and certificates,
CSV for tables.  Writes are atomic (temp file plus rename) and CSV bodies
are deterministic for a fixed seed, so reruns produce byte-identical
tables; volatile metadata such as timestamps lives in a separate manifest.
"""

import json
import os
import sys

import numpy as np

from .exterior import AlternatingForm, MetricTensor
from .products import SphereFactor

__all__ = [
    "atomic_write_text",
    "write_json",
    "read_json",
    "write_csv",
    "form_to_dict",
    "form_from_dict",
    "metric_to_dict",
    "metric_from_dict",
    "factor_from_dict",
    "whole_number",
    "real_number",
    "load_form",
    "load_metric",
]


def _fmt(x) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return np.format_float_scientific(float(x), unique=True)


def atomic_write_text(path: str, text: str):
    """Write via a temp file in the same directory, then rename.  The temp
    file is named after the target and the process id and created
    exclusively, so two processes never share one; it is removed if the
    write fails.  A temp file that a killed process of the same id left
    behind makes the write raise FileExistsError instead of being reused."""
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class _NumpyEncoder(json.JSONEncoder):
    def default(self, obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer, np.bool_)):
            return obj.item()
        return super().default(obj)


def write_json(path: str, payload: dict):
    atomic_write_text(path, json.dumps(payload, indent=2, cls=_NumpyEncoder) + "\n")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_csv(path: str, header: list, rows):
    """Deterministically formatted CSV table."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def form_to_dict(phi: AlternatingForm) -> dict:
    return {
        "n": phi.n,
        "m": phi.m,
        "coefficients": {
            ",".join(str(i) for i in I): c for I, c in sorted(phi.coeffs.items())
        },
    }


def form_from_dict(data: dict) -> AlternatingForm:
    """Form from {"n", "m", "coefficients": {"i,j,...": c}}; a field of the
    wrong type or a non-finite coefficient raises ValueError naming it."""
    n, m = whole_number(data["n"], "n"), whole_number(data["m"], "m")
    coefficients = data["coefficients"]
    if not isinstance(coefficients, dict):
        raise ValueError(
            f"spec field 'coefficients' must be a JSON object, got {coefficients!r}"
        )
    coeffs = {}
    for key, val in coefficients.items():
        try:
            index = tuple(int(s) for s in key.split(","))
        except ValueError:
            raise ValueError(
                f"spec field 'coefficients' key {key!r} is not comma-separated indices"
            ) from None
        coeffs[index] = real_number(val, f"coefficients[{key}]")
    return AlternatingForm(n, m, coeffs)


def metric_to_dict(g: MetricTensor) -> dict:
    return {"n": g.n, "matrix": g.matrix.tolist()}


def metric_from_dict(data: dict) -> MetricTensor:
    """Metric from {"matrix": rows, "n": optional size}; an entry that is not
    a finite number, or an "n" that disagrees with the matrix, raises
    ValueError naming the field."""
    rows = data["matrix"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"spec field 'matrix' must be a JSON array of arrays, got {rows!r}")
    g = MetricTensor([[real_number(x, "matrix") for x in row] for row in rows])
    if "n" in data and whole_number(data["n"], "n") != g.n:
        raise ValueError(
            f"spec field 'n' is {data['n']!r} but the metric matrix is {g.n} x {g.n}"
        )
    return g


def whole_number(value, field: str) -> int:
    """A spec field as an int: a JSON integer, or a float with no fractional
    part.  Booleans and anything else raise ValueError rather than being
    truncated."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"spec field {field!r} must be a whole number, got {value!r}")
    return int(value)


def real_number(value, field: str) -> float:
    """A spec field as a float: a finite JSON number.  Booleans, strings, the
    NaN and Infinity literals and integers beyond the float range raise
    ValueError rather than being converted."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and (
        abs(value) <= sys.float_info.max
    ):
        return float(value)
    raise ValueError(f"spec field {field!r} must be a finite number, got {value!r}")


def factor_from_dict(data: dict) -> SphereFactor:
    """Link factor from a specification entry: {"type": "sphere", "dim": k}
    is a round sphere.  Any other entry raises ValueError naming the
    supported types."""
    if not isinstance(data, dict):
        raise ValueError(f"a factor must be a JSON object, got {data!r}")
    kind = data.get("type")
    if kind != "sphere":
        raise ValueError(f"unknown factor type {kind!r}: the supported types are 'sphere', "
                         "and 'product_hypersurface' inside a product's 'factors'")
    return SphereFactor.round(whole_number(data["dim"], "dim"))


def _read_named(data, base_dir: str):
    """A spec field's JSON value, or, when it is a string, the JSON file it
    names relative to ``base_dir``; a file that cannot be read raises
    ValueError naming its path, so a job exits 2 on it."""
    if not isinstance(data, str):
        return data
    path = os.path.join(base_dir, data)
    try:
        return read_json(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc.strerror or exc}") from None


def load_form(data, base_dir: str = ".") -> AlternatingForm:
    """The spec's form; the zero form, whose comass ``comass`` refuses,
    raises ValueError here, so that validate rejects it too."""
    phi = form_from_dict(_read_named(data, base_dir))
    if phi.is_zero():
        raise ValueError("spec field 'form' is the zero form, whose comass is degenerate")
    return phi


def load_metric(data, base_dir: str = ".") -> MetricTensor:
    return metric_from_dict(_read_named(data, base_dir))
