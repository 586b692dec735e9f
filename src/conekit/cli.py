"""Batch command-line front door.

Each invocation runs one job described by a JSON specification file and
writes its artifacts (a JSON report, CSV tables, certificates) into the
output directory.  Once the job has returned, a manifest records the
seed, tolerances, exit code, wall time and numpy/scipy versions, also
when the job failed.  Exit codes: 0 success, 2 precondition or parse failure
(including a spec that is not a JSON object, or a field of the wrong type),
3 numeric non-convergence.  The commands only orchestrate library
operations; no numbers are produced here.
"""

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np
import scipy

from . import gluing, lawlor, obstruction, products, serialization as ser
from .comass import comass as _comass

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NONCONVERGENCE = 3


def _manifest(args, out_dir: str, exit_code: int, wall_s: float):
    ser.write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "command": args.command,
            "spec": os.path.abspath(args.spec),
            "seed": args.seed,
            "tol": args.tol,
            "grid": args.grid,
            "control": args.control,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "exit_code": exit_code,
            "wall_s": wall_s,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    )


def _build_product(spec: dict, base_dir: str):
    """The product of the spec's factors.  A ``samples`` key, in the spec
    or in a ``product_hypersurface`` entry, is accepted and ignored: no
    product is sampled."""
    factors = []
    for entry in _array(spec, "factors"):
        if isinstance(entry, dict) and entry.get("type") == "product_hypersurface":
            inner = products.minimal_product(
                [products.SphereFactor.round(ser.whole_number(d, "dims"))
                 for d in _array(entry, "dims")]
            )
            factors.append(products.hypersurface_factor(inner))
        else:
            factors.append(ser.factor_from_dict(entry, base_dir))
    return products.minimal_product(factors)


def cmd_comass(spec, args, out_dir, base_dir):
    phi = ser.load_form(spec["form"], base_dir)
    g = ser.load_metric(spec["metric"], base_dir)
    res = _comass(phi, g, seed=args.seed)
    ser.write_json(
        os.path.join(out_dir, "report.json"),
        {
            "command": "comass",
            "value": res.value,
            "method": res.method,
            "restarts_used": res.restarts_used,
            "iterations": res.iterations,
            "converged": res.converged,
            "restarts_at_max": res.restarts_at_max,
            "residual": res.residual,
            "maximizer": res.maximizer.matrix.tolist(),
        },
    )
    return EXIT_OK


def cmd_glue_sweep(spec, args, out_dir, base_dir):
    phi = ser.load_form(spec["form"], base_dir)
    g1 = ser.load_metric(spec["metric1"], base_dir)
    g2 = ser.load_metric(spec["metric2"], base_dir)
    grid = np.linspace(0.0, 1.0, args.grid)
    report = gluing.verify_gluing_bound(phi, g1, g2, grid, comass_opts={"seed": args.seed})
    ser.write_csv(
        os.path.join(out_dir, "glue_sweep.csv"),
        ["s", "comass", "ccgp_bound", "improved_bound"],
        report.rows(),
    )
    ser.write_json(
        os.path.join(out_dir, "report.json"),
        {
            "command": "glue-sweep",
            "worst_violation": report.worst_violation,
            "endpoint_comasses": list(report.endpoint_comasses),
            "endpoint_methods": list(report.endpoint_methods),
            "unconverged_points": report.unconverged_points,
            "passed": report.worst_violation <= args.tol,
        },
    )
    return EXIT_OK if report.worst_violation <= args.tol else EXIT_NONCONVERGENCE


def _array(spec: dict, key: str, default=None) -> list:
    """spec[key], or default when it is missing and one is given; anything
    but a JSON array raises ValueError, since a string would be iterated
    character by character."""
    value = spec[key] if default is None else spec.get(key, default)
    if not isinstance(value, list):
        raise ValueError(f"spec field {key!r} must be a JSON array, got {value!r}")
    return value


def _table_lanes(spec: dict, control: str) -> list:
    """(k, alpha, control) lanes of a vanishing table, k outermost.  Each
    lane's curvature model is built here, so a bad k, alpha or control
    raises ValueError before any descent runs."""
    ks = [ser.whole_number(k, "ks") for k in _array(spec, "ks")]
    alphas = [ser.real_number(a, "alphas") for a in _array(spec, "alphas")]
    controls = _array(spec, "controls", [control])
    lanes = [(k, a, c) for k in ks for a in alphas for c in controls]
    for k, alpha, c in lanes:
        lawlor._control_model(c, alpha, k)
    return lanes


def cmd_vanishing_table(spec, args, out_dir, base_dir):
    rows = []
    for k, alpha, control in _table_lanes(spec, args.control):
        # theta comes from the public vanishing_angle, the entry point
        # perfbench/tracer.py records; only a lane without a hit is
        # descended again, to name how it ended
        theta = lawlor.vanishing_angle(control, alpha, k)
        end = ("hit" if theta is not None
               else lawlor._angle(lawlor._control_model(control, alpha, k))[1])
        rows.append((k, alpha, control, theta, theta is not None, end))
    ser.write_csv(
        os.path.join(out_dir, "vanishing_table.csv"),
        ["k", "alpha", "control", "theta", "converged", "end"],
        rows,
    )
    ser.write_json(
        os.path.join(out_dir, "report.json"),
        {"command": "vanishing-table", "rows": len(rows)},
    )
    return EXIT_OK


def cmd_certify_cone(spec, args, out_dir, base_dir):
    link = _build_product(spec, base_dir)
    model = products.curvature_model(link)
    radius = products.normal_radius(link)
    data = lawlor.LinkData(model, radius.value)
    verdict = lawlor.check_area_minimizing(data, args.control)
    ser.write_json(
        os.path.join(out_dir, "report.json"),
        {
            "command": "certify-cone",
            "inputs": "exact",
            "k": link.k,
            "alpha": model.alpha,
            "p2": model.p2,
            "normal_radius": radius.value,
            "radius_binding": radius.binding,
            "control": verdict.control,
            "theta": verdict.theta_used,
            "descent_end": verdict.end,
            "descent_start": {"t": verdict.t_start, "order": verdict.series_order},
            "R_half": verdict.R_half,
            "margin": verdict.margin,
            "passes": verdict.passes,
            "status": verdict.status,
        },
    )
    if verdict.status == "boundary-inconclusive":
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_obstruct(spec, args, out_dir, base_dir):
    link = _build_product(spec, base_dir)
    out = obstruction.constant_calibration_obstruction(link, tol=args.tol)
    cert = out["report"]["certificate"]
    payload = {
        "command": "obstruct",
        "obstructed": out["obstructed"],
        "lambda1": out["report"]["lambda1"],
        "gauss_points": out["report"]["gauss_points"],
        "verdict": cert.verdict,
        "method": cert.method,
    }
    if cert.direction is not None:
        payload["direction"] = cert.direction.tolist()
        payload["margin"] = cert.margin
    if cert.convex_weights is not None:
        payload["convex_weights"] = cert.convex_weights.tolist()
        payload["dual_residual"] = cert.residual
    ser.write_json(os.path.join(out_dir, "certificate.json"), payload)
    if cert.verdict == "boundary":
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_replicate(spec, args, out_dir, base_dir):
    base = ser.factor_from_dict(spec["base"], base_dir)
    result = products.replication_search(
        base, ser.whole_number(spec["n_max"], "n_max"), args.control
    )
    rows = [
        (n, v.status, v.theta_used, v.R_half, v.passes)
        for n, v in result["verdicts"]
    ]
    ser.write_csv(
        os.path.join(out_dir, "replication.csv"),
        ["n", "status", "theta", "R_half", "passes"],
        rows,
    )
    ser.write_json(
        os.path.join(out_dir, "report.json"),
        {"command": "replicate", "n_pass": result["n_pass"]},
    )
    return EXIT_OK


def _round_curvature(link):
    """Build the curvature model of a round product, as certify-cone does,
    so that a product out of range fails validation.  A product with a
    factor that is not round is left alone: only obstruct takes one."""
    if all(f.is_round for f in link.factors):
        products.curvature_model(link)


def cmd_validate(spec, args, out_dir, base_dir):
    diagnostics = []
    fatal = False

    def check(label, fn):
        nonlocal fatal
        try:
            fn()
            diagnostics.append({"item": label, "ok": True})
        except Exception as exc:  # diagnostics, not crashes
            diagnostics.append({"item": label, "ok": False, "error": str(exc)})
            fatal = True

    if "form" in spec:
        check("form", lambda: ser.load_form(spec["form"], base_dir))
    for key in ("metric", "metric1", "metric2"):
        if key in spec:
            check(key, lambda key=key: ser.load_metric(spec[key], base_dir))
    if "factors" in spec:
        check("factors", lambda: _round_curvature(_build_product(spec, base_dir)))
    if "base" in spec:
        check("base", lambda: ser.factor_from_dict(spec["base"], base_dir))
    if "base" in spec or "n_max" in spec:
        # every product a replicate job descends on, up to the largest
        check("n_max", lambda: products.replication_links(
            ser.factor_from_dict(spec["base"], base_dir),
            ser.whole_number(spec["n_max"], "n_max")))
    if any(key in spec for key in ("ks", "alphas", "controls")):
        check("table", lambda: _table_lanes(spec, args.control))
    ser.write_json(
        os.path.join(out_dir, "diagnostics.json"),
        {"command": "validate", "fatal": fatal, "diagnostics": diagnostics},
    )
    for d in diagnostics:
        status = "ok" if d["ok"] else "FATAL"
        print(f"{status}: {d['item']}" + ("" if d["ok"] else f" ({d['error']})"))
    return EXIT_PRECONDITION if fatal else EXIT_OK


COMMANDS = {
    "comass": cmd_comass,
    "glue-sweep": cmd_glue_sweep,
    "vanishing-table": cmd_vanishing_table,
    "certify-cone": cmd_certify_cone,
    "obstruct": cmd_obstruct,
    "replicate": cmd_replicate,
    "validate": cmd_validate,
}


def _tolerance(text: str) -> float:
    """``--tol``: a finite number >= 0, so that argparse exits 2 on NaN,
    an infinity or a negative value instead of a job reading it."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="conekit",
        description="comass, gluing, cone certification, and obstruction jobs",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--spec", required=True, help="job specification JSON")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--control", choices=["F", "c", "custom"])
    parser.add_argument("--tol", type=_tolerance, default=1e-6)
    parser.add_argument("--grid", type=int, default=11)
    return parser


def _default_control(command: str, spec: dict) -> str:
    """The control a job takes when ``--control`` is not given: F for the
    lanes of a vanishing table whose spec names no ``controls`` (in
    vanishing-table and in validate's table item), since a table has no
    link to descend on; custom, the link's own curvature model, otherwise."""
    table = (command in ("vanishing-table", "validate") and "controls" not in spec
             and ("ks" in spec or "alphas" in spec))
    return "F" if table else "custom"


def _run(args, out_dir: str) -> int:
    try:
        spec = ser.read_json(args.spec)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse spec: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if not isinstance(spec, dict):
        print(f"error: spec must be a JSON object, got {type(spec).__name__}",
              file=sys.stderr)
        return EXIT_PRECONDITION
    if args.control is None:
        # resolved here, once, so that the job and its manifest agree
        args.control = _default_control(args.command, spec)
    base_dir = os.path.dirname(os.path.abspath(args.spec))
    try:
        return COMMANDS[args.command](spec, args, out_dir, base_dir)
    except (KeyError, TypeError, ValueError) as exc:
        # a missing field, a field of the wrong JSON type, or a bad value
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    code = None
    try:
        code = _run(args, out_dir)
    finally:
        # an exception the CLI does not map leaves exit_code null
        _manifest(args, out_dir, code, time.perf_counter() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
