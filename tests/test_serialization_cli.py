"""Tests for file formats and the batch command-line interface."""

import json
import math
import os

import numpy as np
import pytest

from conekit.cli import build_parser, main
from conekit.exterior import AlternatingForm, MetricTensor
from conekit.products import UNIT_TOL, SphereFactor, hypersurface_factor, minimal_product
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
from oracles import hypersurface_draws


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
    # a degree-2 form takes the closed form
    assert report["method"] == "exact" and report["iterations"] == 0
    assert report["converged"] is True and report["residual"] == 0.0
    manifest = read_json(str(out / "manifest.json"))
    assert manifest["command"] == "comass" and manifest["seed"] == 1
    assert "timestamp" in manifest
    assert manifest["exit_code"] == 0 and manifest["wall_s"] >= 0.0
    assert manifest["numpy"] == np.__version__ and "scipy" in manifest


def test_cli_manifest_written_on_precondition_failure(tmp_path):
    bad = _write_spec(tmp_path / "bad.json", {"factors": [{"type": "torus", "dim": 1}]})
    # wrongly typed specs: a JSON array, a number where a list belongs, and
    # a string that iterates into two controls
    array = _write_spec(tmp_path / "array.json", [{"ks": [4]}])
    scalar_ks = _write_spec(tmp_path / "ks.json", {"ks": 3, "alphas": [1.0]})
    text = _write_spec(tmp_path / "text.json", {"ks": [4], "alphas": [1.0], "controls": "Fc"})
    # factor entries that are not JSON objects
    names = _write_spec(tmp_path / "names.json", {"factors": ["sphere", "sphere"]})
    base_name = _write_spec(tmp_path / "base.json", {"base": "sphere", "n_max": 3})
    # integer fields that are not whole numbers, or are booleans
    sphere = {"type": "sphere", "dim": 3}
    not_whole = {
        "ks": {"ks": [2.5], "alphas": [1.0], "controls": ["F"]},
        "ks-bool": {"ks": [True], "alphas": [1.0], "controls": ["F"]},
        "dim": {"factors": [{"type": "sphere", "dim": 3.9}, sphere]},
        "dim-bool": {"factors": [{"type": "sphere", "dim": True}, sphere]},
        "dims": {"factors": [{"type": "product_hypersurface", "dims": [1, 2.5]}, sphere]},
        "n_max": {"base": sphere, "n_max": 3.5},
        "n_max-bool": {"base": sphere, "n_max": True},
        "ks-default-control": {"ks": [2.5], "alphas": [1.0]},
    }
    whole = {name: _write_spec(tmp_path / f"{name}.json", spec)
             for name, spec in not_whole.items()}
    for command, spec_path, out in (
        ("certify-cone", bad, tmp_path / "bad"),
        ("certify-cone", str(tmp_path / "none.json"), tmp_path / "none"),
        ("certify-cone", array, tmp_path / "array"),
        ("vanishing-table", array, tmp_path / "array-table"),
        ("vanishing-table", scalar_ks, tmp_path / "ks"),
        ("vanishing-table", text, tmp_path / "text"),
        ("certify-cone", names, tmp_path / "names-certify"),
        ("obstruct", names, tmp_path / "names-obstruct"),
        ("validate", names, tmp_path / "names-validate"),
        ("replicate", base_name, tmp_path / "base-replicate"),
        ("validate", base_name, tmp_path / "base-validate"),
        ("vanishing-table", whole["ks"], tmp_path / "ks-half"),
        ("vanishing-table", whole["ks-bool"], tmp_path / "ks-bool"),
        *(("certify-cone", whole[name], tmp_path / f"{name}-certify")
          for name in ("dim", "dim-bool")),
        ("obstruct", whole["dims"], tmp_path / "dims-obstruct"),
        ("replicate", whole["n_max"], tmp_path / "n_max-half"),
        ("replicate", whole["n_max-bool"], tmp_path / "n_max-bool"),
        # validate rejects what the job commands reject
        ("validate", whole["n_max"], tmp_path / "n_max-validate"),
        ("vanishing-table", whole["ks-default-control"], tmp_path / "ks-table"),
        ("validate", whole["ks-default-control"], tmp_path / "ks-validate"),
    ):
        assert main([command, "--spec", spec_path, "--out", str(out)]) == 2
        manifest = read_json(str(out / "manifest.json"))
        assert manifest["exit_code"] == 2
        assert manifest["command"] == command


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), pytest.param(10**400, id="huge")])
def test_cli_vanishing_table_rejects_non_finite_alpha(tmp_path, alpha):
    # json writes these as the NaN and Infinity literals, which it reads
    # back, and an integer beyond the float range as its digits
    spec = _write_spec(tmp_path / "table.json",
                       {"ks": [4], "alphas": [alpha], "controls": ["F", "c"]})
    out = tmp_path / "out"
    assert main(["vanishing-table", "--spec", spec, "--out", str(out)]) == 2
    assert read_json(str(out / "manifest.json"))["exit_code"] == 2
    assert not (out / "vanishing_table.csv").exists()


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
    assert report["endpoint_methods"] == ["exact", "exact"]


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
    header = lines[0].split(",")
    assert header == ["k", "alpha", "control", "theta", "converged", "end"]
    assert len(lines) == 9
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    # k = 2 at alpha = 1 has no admissible descent: theta empty, flag False
    empty = [r for r in rows if r["converged"] == "False"]
    assert empty and all(r["theta"] == "" for r in empty)
    assert all(r["end"] == "no-departure" for r in empty)
    assert all(r["end"] == "hit" for r in rows if r["converged"] == "True")


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
    assert report["descent_end"] == "hit"
    assert abs(report["alpha"] - np.sqrt(6)) < 1e-6
    assert abs(report["normal_radius"] - np.pi / 4) < 1e-6
    # the slope divisor is always k + 1: there is no option to choose it
    assert "normalization" not in read_json(str(out / "manifest.json"))
    with pytest.raises(SystemExit) as exc:
        main(["certify-cone", "--spec", spec, "--out", str(out), "--normalization", "k"])
    assert exc.value.code == 2


def test_cli_comass_rejects_mistyped_form_and_metric(tmp_path, capsys):
    form = {"n": 4, "m": 2, "coefficients": {"1,2": 1.0, "3,4": 1.0}}
    metric = {"n": 4, "matrix": np.eye(4).tolist()}
    infinite = np.diag([float("inf"), 1.0, 1.0, 1.0]).tolist()
    cases = {
        "n": ({**form, "n": 4.7}, metric),
        "m": ({**form, "m": True}, metric),
        "coefficients[1,2]": ({**form, "coefficients": {"1,2": "1.5"}}, metric),
        "coefficients[3,4]": ({**form, "coefficients": {"1,2": 1.0, "3,4": float("nan")}},
                              metric),
        "coefficients": ({**form, "coefficients": [1.0, 1.0]}, metric),
        "coefficients key": ({**form, "coefficients": {"1,x": 1.0}}, metric),
        "coefficients huge": ({**form, "coefficients": {"1,2": 10**400}}, metric),
        "matrix": (form, {"n": 4, "matrix": [[1.0, 0.0], [0.0, "2"]]}),
        "metric n": (form, {**metric, "n": 9}),
        "metric inf": (form, {"matrix": infinite}),
    }
    for name, (f, g) in cases.items():
        spec = _write_spec(tmp_path / "spec.json", {"form": f, "metric": g})
        out = tmp_path / name.replace(" ", "-")
        assert main(["comass", "--spec", spec, "--out", str(out)]) == 2, name
        field = {"metric n": "n", "metric inf": "matrix", "coefficients key": "coefficients",
                 "coefficients huge": "coefficients[1,2]"}.get(name, name)
        assert f"spec field {field!r}" in capsys.readouterr().err, name
        assert read_json(str(out / "manifest.json"))["exit_code"] == 2
    # a metric without "n" takes its size from the matrix
    spec = _write_spec(tmp_path / "spec.json",
                       {"form": form, "metric": {"matrix": metric["matrix"]}})
    assert main(["comass", "--spec", spec, "--out", str(tmp_path / "ok")]) == 0


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
    # k = 2 with p2 = -1: no real quadratic departure from h(0) = 1
    assert report["descent_end"] == "no-departure"


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
    # one point and its antipode: the exact pair certificate
    assert cert["method"] == "antipodal" and cert["gauss_points"] == 2
    assert cert["dual_residual"] == 0.0
    weights = np.asarray(cert["convex_weights"])
    assert np.flatnonzero(weights).tolist() == [0, 1]
    assert weights[0] == weights[1] == 0.5


# the hypersurface dimensions of the benchmark's obstruct jobs
HYPERSURFACES = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]


@pytest.mark.parametrize("dims", HYPERSURFACES, ids=[f"S{a}xS{b}" for a, b in HYPERSURFACES])
def test_round_hypersurface_is_one_exact_antipodal_pair(tmp_path, dims):
    factor = hypersurface_factor(minimal_product([SphereFactor.round(d) for d in dims]))
    points, normals = factor.points, factor.normals
    assert points.shape == normals.shape == (2, sum(dims) + 2)
    for rows in (points, normals):
        assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= UNIT_TOL
        assert (-rows[0]).tobytes() == rows[1].tobytes()
    assert np.all(np.sum(points * normals, axis=1) == 0.0)
    # the certificate draws nothing: neither --seed nor a samples key moves a byte
    hyper = {"type": "product_hypersurface", "dims": list(dims)}
    sphere = {"type": "sphere", "dim": 2}
    specs = {"plain": {"factors": [hyper, sphere]},
             "samples": {"factors": [{**hyper, "samples": 240}, sphere], "samples": 60}}
    certs = set()
    for name, spec in specs.items():
        path = _write_spec(tmp_path / f"{name}.json", spec)
        for seed in ("0", "7"):
            out = tmp_path / f"{name}-{seed}"
            assert main(["obstruct", "--spec", path, "--out", str(out), "--seed", seed]) == 0
            certs.add((out / "certificate.json").read_bytes())
    assert len(certs) == 1
    cert = json.loads(certs.pop())
    assert cert["obstructed"] is True and cert["method"] == "antipodal"
    assert cert["gauss_points"] == 2 and cert["convex_weights"] == [0.5, 0.5]
    assert cert["dual_residual"] == 0.0


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_cli_rejects_bad_tol(tmp_path, tol):
    form = {"n": 4, "m": 2, "coefficients": {"1,2": 1.0, "3,4": 1.0}}
    glue = _write_spec(tmp_path / "glue.json", {
        "form": form, "metric1": {"n": 4, "matrix": np.eye(4).tolist()},
        "metric2": {"n": 4, "matrix": (2.0 * np.eye(4)).tolist()}})
    obstruct = _write_spec(tmp_path / "obstruct.json", {"factors": [
        {"type": "product_hypersurface", "dims": [1, 1]}, {"type": "sphere", "dim": 2}]})
    for command, spec in (("glue-sweep", glue), ("obstruct", obstruct)):
        out = tmp_path / command
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", spec, "--out", str(out), f"--tol={tol}", "--grid", "3"])
        assert exc.value.code == 2
        assert not out.exists()
        assert main([command, "--spec", spec, "--out", str(out), "--tol=0", "--grid", "3"]) == 0


def _sampled_spec(tmp_path, name, points, normals, dim, ambient):
    """A spec whose first factor is the sampled file factor name.json and
    whose second is a round S^2."""
    write_json(str(tmp_path / f"{name}.json"),
               {"dim": dim, "ambient": ambient, "points": points, "normals": normals})
    return _write_spec(tmp_path / f"{name}-spec.json", {
        "factors": [{"type": "sampled", "path": f"{name}.json"},
                    {"type": "sphere", "dim": 2}],
        "samples": 20,
    })


def _latitude_circle(theta=0.4, count=40):
    """Points and in-sphere unit normals of a latitude circle in S^2; the
    normals share the sign of their last coordinate."""
    phi = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    c, s = math.cos(theta), math.sin(theta)
    pts = np.column_stack([s * np.cos(phi), s * np.sin(phi), np.full_like(phi, c)])
    nor = np.column_stack([c * np.cos(phi), c * np.sin(phi), np.full_like(phi, -s)])
    return pts, nor


def _torus_draws():
    """Points and normals of 100 random points of the Clifford torus in
    S^3, a Gauss image with no antipodal pair."""
    link = minimal_product([SphereFactor.round(1), SphereFactor.round(1)])
    return hypersurface_draws(link, 100, 1)


def test_cli_obstruct_sampled_factors(tmp_path):
    pts, nor = _latitude_circle()
    spec = _sampled_spec(tmp_path, "circle", pts.tolist(), nor.tolist(), 1, 2)
    out = tmp_path / "circle-out"
    assert main(["obstruct", "--spec", spec, "--out", str(out)]) == 0
    cert = read_json(str(out / "certificate.json"))
    assert cert["obstructed"] is False and cert["verdict"] == "feasible"
    assert cert["method"] == "nearest-point" and cert["gauss_points"] == 40
    direction = np.asarray(cert["direction"])
    assert cert["margin"] == float(np.min(nor @ direction)) > 0.0

    pts, nor = _torus_draws()
    spec = _sampled_spec(tmp_path, "torus", pts.tolist(), nor.tolist(), 2, 3)
    out = tmp_path / "torus-out"
    assert main(["obstruct", "--spec", spec, "--out", str(out),
                 "--tol", "1e-9"]) == 0
    cert = read_json(str(out / "certificate.json"))
    assert cert["obstructed"] is True and cert["verdict"] == "infeasible"
    assert cert["method"] == "nearest-point" and cert["gauss_points"] == 100
    weights = np.asarray(cert["convex_weights"])
    assert np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-12
    assert np.linalg.norm(nor.T @ weights) <= cert["dual_residual"] + 1e-15
    assert cert["dual_residual"] <= 1e-9


def test_cli_obstruct_solver_failure_exits_3(tmp_path, monkeypatch):
    import scipy.optimize

    def stalled(A, b):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(scipy.optimize, "nnls", stalled)
    pts, nor = _torus_draws()
    spec = _sampled_spec(tmp_path, "torus", pts.tolist(), nor.tolist(), 2, 3)
    assert main(["obstruct", "--spec", spec, "--out", str(tmp_path / "o")]) == 3


def test_cli_rejects_non_finite_samples(tmp_path):
    pts, nor = _latitude_circle()
    bad_point, bad_normal = pts.tolist(), nor.tolist()
    bad_point[5][0] = float("nan")
    bad_normal[5][2] = float("nan")
    for name, points, normals in (("nan-point", bad_point, nor.tolist()),
                                  ("nan-normal", pts.tolist(), bad_normal)):
        spec = _sampled_spec(tmp_path, name, points, normals, 1, 2)
        for command in ("validate", "obstruct"):
            out = tmp_path / f"{name}-{command}"
            assert main([command, "--spec", spec, "--out", str(out)]) == 2, (name, command)
        diag = read_json(str(tmp_path / f"{name}-validate" / "diagnostics.json"))
        (item,) = diag["diagnostics"]
        assert item["item"] == "factors" and "finite unit vectors" in item["error"]


# links whose curvature data do not fit a float: S^81 x S^81 (k = 162), the
# F control at k = 1030, and 257 circles, the first count past 256
BEYOND_FLOATS = {
    "certify": ("certify-cone", {"factors": [{"type": "sphere", "dim": 81}] * 2}, [],
                "k = 162"),
    "table": ("vanishing-table", {"ks": [1030], "alphas": [1.0], "controls": ["F"]}, [],
              "k = 1030"),
    "replicate": ("replicate", {"base": {"type": "sphere", "dim": 1}, "n_max": 260},
                  ["--control", "F"], "k = 257"),
}


@pytest.mark.parametrize("name", sorted(BEYOND_FLOATS))
def test_cli_rejects_links_beyond_the_float_range(tmp_path, capsys, name):
    # a precondition failure, exit 2 with a manifest, before any descent;
    # validate rejects the same spec
    command, spec, extra, where = BEYOND_FLOATS[name]
    path = _write_spec(tmp_path / "spec.json", spec)
    out = tmp_path / "out"
    assert main([command, "--spec", path, "--out", str(out), *extra]) == 2
    assert where in capsys.readouterr().err
    assert read_json(str(out / "manifest.json"))["exit_code"] == 2
    assert os.listdir(out) == ["manifest.json"]
    assert main(["validate", "--spec", path, "--out", str(tmp_path / "v"), *extra]) == 2
    diag = read_json(str(tmp_path / "v" / "diagnostics.json"))
    assert [where in d.get("error", "") for d in diag["diagnostics"]].count(True) == 1


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

    # replicate and vanishing-table fields, checked as those commands check them
    sphere = {"type": "sphere", "dim": 3}
    for name, spec, extra, expected in (
        ("repl-ok", {"base": sphere, "n_max": 3}, [], {"base": True, "n_max": True}),
        ("repl-half", {"base": sphere, "n_max": 3.5}, [], {"base": True, "n_max": False}),
        ("repl-one", {"base": sphere, "n_max": 1}, [], {"base": True, "n_max": False}),
        ("repl-missing", {"base": sphere}, [], {"base": True, "n_max": False}),
        ("table-ok", {"ks": [4], "alphas": [1.0], "controls": ["F", "c"]}, [],
         {"table": True}),
        ("table-flag", {"ks": [4], "alphas": [1.0]}, ["--control", "F"], {"table": True}),
        ("table-default", {"ks": [4], "alphas": [1.0]}, [], {"table": True}),
        ("table-custom", {"ks": [4], "alphas": [1.0]}, ["--control", "custom"],
         {"table": False}),
        ("table-half", {"ks": [2.5], "alphas": [1.0]}, ["--control", "F"],
         {"table": False}),
        ("table-zero", {"ks": [0], "alphas": [1.0], "controls": ["F"]}, [],
         {"table": False}),
        ("table-nan", {"ks": [4], "alphas": [float("nan")], "controls": ["c"]}, [],
         {"table": False}),
        ("table-name", {"ks": [4], "alphas": [1.0], "controls": ["G"]}, [],
         {"table": False}),
        ("table-alpha-type", {"ks": [4], "alphas": [True, "1.5"], "controls": ["F"]},
         [], {"table": False}),
        ("table-alpha-str", {"ks": [4], "alphas": ["1.5"], "controls": ["F"]}, [],
         {"table": False}),
    ):
        path = _write_spec(tmp_path / f"{name}.json", spec)
        code = 0 if all(expected.values()) else 2
        assert main(["validate", "--spec", path, "--out", str(tmp_path / name),
                     *extra]) == code, name
        diag = read_json(str(tmp_path / name / "diagnostics.json"))
        assert {d["item"]: d["ok"] for d in diag["diagnostics"]} == expected, name
        if "ks" in spec:
            command = "vanishing-table"
        else:
            command = "replicate"
            extra = ["--control", "F"]
        assert main([command, "--spec", path, "--out", str(tmp_path / f"{name}-run"),
                     *extra]) == code, name


def test_cli_error_exit_codes(tmp_path):
    assert main(["comass", "--spec", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o")]) == 2
    spec = _write_spec(tmp_path / "empty.json", {})
    assert main(["comass", "--spec", spec, "--out", str(tmp_path / "o")]) == 2


def test_cli_parser_is_built_once(tmp_path, capsys):
    assert build_parser() is build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command", "--spec", "x.json"])
        assert exc.value.code == 2
    spec = _kahler_spec(tmp_path)
    assert main(["comass", "--spec", spec, "--out", str(tmp_path / "a"), "--seed", "4"]) == 0
    assert main(["comass", "--spec", spec, "--out", str(tmp_path / "b")]) == 0
    assert read_json(str(tmp_path / "a" / "manifest.json"))["seed"] == 4
    assert read_json(str(tmp_path / "b" / "manifest.json"))["seed"] == 0
