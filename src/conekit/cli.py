"""Batch command-line front door.

Each invocation runs one job described by a JSON specification file and
writes its artifacts (a JSON report, CSV tables, certificates) into the
output directory together with a manifest recording the seed and
tolerances.  Exit codes: 0 success, 2 precondition or parse failure,
3 numeric non-convergence.  The commands only orchestrate library
operations; no numbers are produced here.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import gluing, lawlor, obstruction, products, serialization as ser
from .comass import comass as _comass

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NONCONVERGENCE = 3


def _manifest(args, out_dir: str, command: str):
    ser.write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "command": command,
            "spec": os.path.abspath(args.spec),
            "seed": args.seed,
            "tol": args.tol,
            "grid": args.grid,
            "control": args.control,
            "normalization": args.normalization,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
    )


def _build_product(spec: dict, base_dir: str, seed: int):
    factors = []
    for entry in spec["factors"]:
        if entry.get("type") == "product_hypersurface":
            inner = products.minimal_product(
                [products.SphereFactor.round(int(d)) for d in entry["dims"]],
                samples=int(entry.get("samples", 200)),
                seed=seed,
            )
            factors.append(products.hypersurface_factor(inner))
        else:
            factors.append(ser.factor_from_dict(entry, base_dir))
    return products.minimal_product(
        factors, samples=int(spec.get("samples", 200)), seed=seed
    )


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
            "maximizer": res.maximizer.matrix.tolist(),
        },
    )
    return EXIT_OK


def cmd_glue_sweep(spec, args, out_dir, base_dir):
    phi = ser.load_form(spec["form"], base_dir)
    g1 = ser.load_metric(spec["metric1"], base_dir)
    g2 = ser.load_metric(spec["metric2"], base_dir)
    grid = np.linspace(0.0, 1.0, args.grid)
    report = gluing.verify_gluing_bound(
        phi, g1, g2, grid, tol=args.tol, comass_opts={"seed": args.seed}
    )
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
            "unconverged_points": report.unconverged_points,
            "passed": report.worst_violation <= args.tol,
        },
    )
    return EXIT_OK if report.worst_violation <= args.tol else EXIT_NONCONVERGENCE


def cmd_vanishing_table(spec, args, out_dir, base_dir):
    ks = [int(k) for k in spec["ks"]]
    alphas = [float(a) for a in spec["alphas"]]
    controls = spec.get("controls", [args.control])
    rows = []
    for k in ks:
        for alpha in alphas:
            for control in controls:
                theta = lawlor.vanishing_angle(
                    control, alpha, k, normalization=args.normalization
                )
                rows.append((k, alpha, control, theta, theta is not None))
    ser.write_csv(
        os.path.join(out_dir, "vanishing_table.csv"),
        ["k", "alpha", "control", "theta", "converged"],
        rows,
    )
    ser.write_json(
        os.path.join(out_dir, "report.json"),
        {"command": "vanishing-table", "rows": len(rows)},
    )
    return EXIT_OK


def cmd_certify_cone(spec, args, out_dir, base_dir):
    link = _build_product(spec, base_dir, args.seed)
    model = products.curvature_model(link, seed=args.seed + 1)
    radius = products.normal_radius(link, seed=args.seed + 2)
    data = products.as_link_data(link, curvature=model, radius=radius)
    verdict = lawlor.check_area_minimizing(
        data, args.control, normalization=args.normalization
    )
    ser.write_json(
        os.path.join(out_dir, "report.json"),
        {
            "command": "certify-cone",
            "k": link.k,
            "alpha": model.alpha,
            "p2": model.p2,
            "normal_radius": radius.value,
            "radius_binding": radius.binding,
            "control": verdict.control,
            "theta": verdict.theta_used,
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
    link = _build_product(spec, base_dir, args.seed)
    out = obstruction.constant_calibration_obstruction(link, tol=args.tol)
    cert = out["report"]["certificate"]
    payload = {
        "command": "obstruct",
        "obstructed": out["obstructed"],
        "lambda1": out["report"]["lambda1"],
        "gauss_points": out["report"]["gauss_points"],
        "verdict": cert.verdict,
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
        base,
        int(spec["n_max"]),
        args.control,
        seed=args.seed,
        normalization=args.normalization,
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
        check("factors", lambda: _build_product(spec, base_dir, args.seed))
    if "base" in spec:
        check("base", lambda: ser.factor_from_dict(spec["base"], base_dir))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conekit",
        description="comass, gluing, cone certification, and obstruction jobs",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--spec", required=True, help="job specification JSON")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--control", choices=["F", "c", "custom"], default="custom")
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--grid", type=int, default=11)
    parser.add_argument(
        "--normalization", choices=["k-plus-1", "k"], default="k-plus-1"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = ser.read_json(args.spec)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse spec: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    base_dir = os.path.dirname(os.path.abspath(args.spec))
    _manifest(args, out_dir, args.command)
    try:
        return COMMANDS[args.command](spec, args, out_dir, base_dir)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
