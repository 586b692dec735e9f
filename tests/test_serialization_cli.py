"""Tests for file formats and the batch command-line interface."""

import json
import os

import numpy as np
import pytest

from conekit.cli import main
from conekit.exterior import AlternatingForm, MetricTensor
from conekit.serialization import (
    atomic_write_text,
    factor_from_dict,
    form_from_dict,
    form_to_dict,
    load_form,
    metric_from_dict,
    metric_to_dict,
    read_json,
    write_csv,
    write_json,
)


def _write_spec(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def _kahler_spec(tmp_path, extra=None):
    spec = {
        "form": {"n": 4, "m": 2, "coefficients": {"1,2": 1.0, "3,4": 1.0}},
        "metric": {"n": 4, "matrix": np.eye(4).tolist()},
    }
    spec.update(extra or {})
    return _write_spec(tmp_path / "spec.json", spec)


def test_atomic_write_and_overwrite(tmp_path):
    target = tmp_path / "a.txt"
    atomic_write_text(str(target), "one\n")
    atomic_write_text(str(target), "two\n")
    assert target.read_text() == "two\n"
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


def test_csv_bytes_deterministic(tmp_path):
    rows = [(0, 0.1 + 0.2, "F", None, True), (1, 1e-30, "c", 2.5, False)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(str(p1), ["i", "x", "tag", "maybe", "flag"], rows)
    write_csv(str(p2), ["i", "x", "tag", "maybe", "flag"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    body = p1.read_text().splitlines()
    assert body[0] == "i,x,tag,maybe,flag"
    # None renders empty, floats round-trip exactly
    assert body[1].split(",")[3] == ""
    assert float(body[1].split(",")[1]) == 0.1 + 0.2


def test_form_and_metric_round_trip(tmp_path):
    phi = AlternatingForm(5, 2, {(1, 3): 2.0, (4, 5): -0.25})
    assert form_from_dict(form_to_dict(phi)).allclose(phi)
    g = MetricTensor(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(metric_from_dict(metric_to_dict(g)).matrix,
                               g.matrix)
    path = tmp_path / "phi.json"
    write_json(str(path), form_to_dict(phi))
    assert load_form("phi.json", str(tmp_path)).allclose(phi)
    assert read_json(str(path))["n"] == 5


def test_factor_from_dict(tmp_path):
    f = factor_from_dict({"type": "sphere", "dim": 3})
    assert f.is_round and f.dim == 3
    write_json(
        str(tmp_path / "circle.json"),
        {
            "dim": 1,
            "ambient": 1,
            "points": [[1.0, 0.0], [0.0, 1.0]],
            "normals": None,
        },
    )
    sampled = factor_from_dict({"type": "sampled", "path": "circle.json"},
                               str(tmp_path))
    assert sampled.points.shape == (2, 2) and sampled.normals is None
    with pytest.raises(ValueError, match="factor type"):
        factor_from_dict({"type": "torus"})


def test_cli_comass_job(tmp_path):
    spec = _kahler_spec(tmp_path)
    out = tmp_path / "out"
    code = main(["comass", "--spec", spec, "--out", str(out), "--seed", "1"])
    assert code == 0
    report = read_json(str(out / "report.json"))
    assert abs(report["value"] - 1.0) < 1e-8
    assert report["converged"] is True and 0 < report["iterations"] <= 400
    manifest = read_json(str(out / "manifest.json"))
    assert manifest["command"] == "comass" and manifest["seed"] == 1
    assert "timestamp" in manifest


def test_cli_glue_sweep_job_and_idempotence(tmp_path):
    spec = _write_spec(
        tmp_path / "glue.json",
        {
            "form": {"n": 4, "m": 2, "coefficients": {"1,2": 1.0}},
            "metric1": {"n": 4, "matrix": np.eye(4).tolist()},
            "metric2": {"n": 4, "matrix": np.diag([0.25, 4.0, 1, 1]).tolist()},
        },
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["glue-sweep", "--spec", spec, "--out", str(out1)]) == 0
    assert main(["glue-sweep", "--spec", spec, "--out", str(out2)]) == 0
    csv1 = (out1 / "glue_sweep.csv").read_bytes()
    assert csv1 == (out2 / "glue_sweep.csv").read_bytes()
    assert csv1.decode().count("\n") == 12
    report = read_json(str(out1 / "report.json"))
    assert report["passed"] and report["worst_violation"] <= 1e-6
    assert report["unconverged_points"] == 0


def test_cli_glue_sweep_rejects_uncalibrated_endpoint(tmp_path):
    spec = _write_spec(
        tmp_path / "bad.json",
        {
            "form": {"n": 4, "m": 2, "coefficients": {"1,2": 2.0}},
            "metric1": {"n": 4, "matrix": np.eye(4).tolist()},
            "metric2": {"n": 4, "matrix": np.eye(4).tolist()},
        },
    )
    assert main(["glue-sweep", "--spec", spec, "--out",
                 str(tmp_path / "o")]) == 2


def test_cli_vanishing_table(tmp_path):
    spec = _write_spec(
        tmp_path / "table.json",
        {"ks": [2, 4], "alphas": [0.0, 1.0], "controls": ["F", "c"]},
    )
    out = tmp_path / "out"
    assert main(["vanishing-table", "--spec", spec, "--out", str(out)]) == 0
    lines = (out / "vanishing_table.csv").read_text().splitlines()
    assert lines[0] == "k,alpha,control,theta,converged"
    assert len(lines) == 9
    # k = 2 at alpha = 1 has no admissible descent: theta empty, flag False
    empty = [l for l in lines[1:] if l.endswith(",False")]
    assert all(l.split(",")[3] == "" for l in empty)


def test_cli_certify_cone_passes_for_equal_three_spheres(tmp_path):
    spec = _write_spec(
        tmp_path / "simons.json",
        {
            "factors": [
                {"type": "sphere", "dim": 3},
                {"type": "sphere", "dim": 3},
            ],
            "samples": 40,
        },
    )
    out = tmp_path / "out"
    assert main(["certify-cone", "--spec", spec, "--out", str(out)]) == 0
    report = read_json(str(out / "report.json"))
    assert report["passes"] and report["status"] == "passes"
    assert abs(report["alpha"] - np.sqrt(6)) < 1e-6
    assert abs(report["normal_radius"] - np.pi / 4) < 1e-6


def test_cli_certify_cone_inconclusive_for_two_circles(tmp_path):
    spec = _write_spec(
        tmp_path / "clifford.json",
        {
            "factors": [
                {"type": "sphere", "dim": 1},
                {"type": "sphere", "dim": 1},
            ],
            "samples": 40,
        },
    )
    out = tmp_path / "out"
    assert main(["certify-cone", "--spec", spec, "--out", str(out)]) == 0
    report = read_json(str(out / "report.json"))
    assert not report["passes"] and report["status"] == "inconclusive"
    assert report["theta"] is None


def test_cli_obstruct_job(tmp_path):
    spec = _write_spec(
        tmp_path / "obstruct.json",
        {
            "factors": [
                {"type": "product_hypersurface", "dims": [1, 1],
                 "samples": 80},
                {"type": "sphere", "dim": 3},
            ],
            "samples": 50,
        },
    )
    out = tmp_path / "out"
    assert main(["obstruct", "--spec", spec, "--out", str(out)]) == 0
    cert = read_json(str(out / "certificate.json"))
    assert cert["obstructed"] is True and cert["verdict"] == "infeasible"
    assert cert["dual_residual"] <= 1e-9
    weights = np.asarray(cert["convex_weights"])
    assert np.all(weights >= 0.0) and abs(weights.sum() - 1.0) < 1e-9


def test_cli_replicate_job(tmp_path):
    spec = _write_spec(
        tmp_path / "repl.json",
        {"base": {"type": "sphere", "dim": 1}, "n_max": 3},
    )
    out = tmp_path / "out"
    assert main(["replicate", "--spec", spec, "--out", str(out),
                 "--control", "F"]) == 0
    assert read_json(str(out / "report.json"))["n_pass"] is None
    lines = (out / "replication.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[0] == "n,status,theta,R_half,passes"


def test_cli_validate_job(tmp_path):
    good = _kahler_spec(tmp_path)
    assert main(["validate", "--spec", good, "--out",
                 str(tmp_path / "g")]) == 0
    bad = _write_spec(
        tmp_path / "bad.json",
        {"form": "missing.json", "metric": {"n": 2, "matrix": [[1, 0], [0, 1]]}},
    )
    assert main(["validate", "--spec", bad, "--out", str(tmp_path / "b")]) == 2
    diag = read_json(str(tmp_path / "b" / "diagnostics.json"))
    assert diag["fatal"] is True
    by_item = {d["item"]: d["ok"] for d in diag["diagnostics"]}
    assert by_item == {"form": False, "metric": True}


def test_cli_error_exit_codes(tmp_path):
    assert main(["comass", "--spec", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o")]) == 2
    spec = _write_spec(tmp_path / "empty.json", {})
    assert main(["comass", "--spec", spec, "--out", str(tmp_path / "o")]) == 2
