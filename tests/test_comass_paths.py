"""Tests for the two paths of ``comass``: the closed form in degrees
1, 2, n-2, n-1 and n, and the gradient-stopped optimizer everywhere else."""

import importlib
import json
import math

import numpy as np
import pytest

from conekit.cli import main
from conekit.exterior import (
    AlternatingForm,
    MetricTensor,
    _interior_matrix,
    evaluate,
    pullback,
)
from conekit.gluing import glued_metric, verify_gluing_bound
from conekit.serialization import read_json
from oracles import comass_bruteforce, step_rule_comass

# the package attribute conekit.comass is the function, not the module
comass_mod = importlib.import_module("conekit.comass")
gluing_mod = importlib.import_module("conekit.gluing")

EXACT_SHAPES = [(n, m) for n in range(1, 9) for m in range(1, n + 1)
                if m <= 2 or n - m <= 2]
# shapes where both the direct and the Hodge route apply
BOTH_ROUTES = [(n, m) for n, m in EXACT_SHAPES if m <= 2 and n - m <= 2]

SLAG = AlternatingForm(6, 3, {(1, 3, 5): 1.0, (1, 4, 6): -1.0,
                              (2, 3, 6): -1.0, (2, 4, 5): -1.0})
# comass 1 on e1 ^ e3 ^ e5 like SLAG, but not recognized: the optimizer's
SPLIT = AlternatingForm(6, 3, {(1, 3, 5): 1.0, (2, 4, 6): 1.0})


def _random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return MetricTensor(A @ A.T + n * np.eye(n))


def _random_form(rng, n, m):
    return AlternatingForm(n, m, rng.standard_normal(math.comb(n, m)))


@pytest.mark.parametrize("n,m", EXACT_SHAPES)
def test_exact_path_value_and_maximizer(n, m):
    rng = np.random.default_rng(10 * n + m)
    phi, g = _random_form(rng, n, m), _random_spd(rng, n)
    res = comass_mod.comass(phi, g, seed=1)
    assert res.method == "exact" and res.restarts_used == 0
    assert res.iterations == 0 and res.converged and res.residual == 0.0
    V = res.maximizer.matrix
    np.testing.assert_allclose(V.T @ g.matrix @ V, np.eye(m), rtol=0.0, atol=1e-12)
    assert abs(evaluate(phi, res.maximizer) - res.value) <= 1e-12 * res.value
    sampled = comass_bruteforce(phi, g, 2000, seed=2)
    assert sampled <= res.value * (1.0 + 1e-12)
    opt = comass_mod._optimize(phi, g, seed=3)
    assert opt.method == "optimizer" and opt.converged
    assert abs(opt.value - res.value) <= 1e-8 * res.value


@pytest.mark.parametrize("n,m", BOTH_ROUTES)
def test_hodge_route_agrees_with_direct_route(n, m):
    rng = np.random.default_rng(20 * n + m)
    w = rng.standard_normal(math.comb(n, m))
    first = _interior_matrix(w, n, m)
    values = []
    for hodge in (False, True):
        value, U = comass_mod._exact_frame(w, n, m, hodge)
        np.testing.assert_allclose(U.T @ U, np.eye(m), rtol=0.0, atol=1e-12)
        assert abs(comass_mod._eval_batch(first, U[None])[0] - value) <= 1e-12 * value
        values.append(value)
    assert abs(values[0] - values[1]) <= 1e-12 * values[0]


def test_exact_path_declines_optimizer_degrees():
    g = MetricTensor.euclidean(6)
    assert comass_mod._exact(SLAG, g) is None
    assert comass_mod.comass(SLAG, g).method == "recognized"
    assert comass_mod._exact(SPLIT, g) is None
    assert comass_mod.comass(SPLIT, g).method == "optimizer"


@pytest.mark.parametrize("n,m,seed", [(6, 3, 0), (7, 3, 1), (8, 4, 2)])
def test_gradient_stop_matches_step_rule(n, m, seed):
    rng = np.random.default_rng(300 + seed)
    phi, g = _random_form(rng, n, m), _random_spd(rng, n)
    res = comass_mod.comass(phi, g, restarts=16, seed=seed)
    assert res.method == "optimizer" and res.restarts_used == 16
    reference = step_rule_comass(phi, g, restarts=16, seed=seed)
    assert abs(res.value - reference) <= 1e-10 * reference


def test_residual_is_relative_riemannian_gradient():
    rng = np.random.default_rng(5)
    g = _random_spd(rng, 6)
    res = comass_mod._optimize(SLAG, g, seed=0)
    assert res.converged and 0 < res.iterations < 400
    assert 0.0 < res.residual <= 1e-6
    # recompute at the returned frame, in whitened coordinates
    first = _interior_matrix(comass_mod._whitened_vector(SLAG, g), 6, 3)
    U = g.cholesky.T @ res.maximizer.matrix
    G = comass_mod._grad_batch(first, U[None])[0]
    S = U.T @ G
    riem = G - U @ (0.5 * (S + S.T))
    assert abs(np.linalg.norm(riem) / res.value - res.residual) <= 1e-3 * res.residual


def test_tolerance_below_floor_runs_to_max_iters():
    g = MetricTensor.diagonal([2.0, 0.5, 1.0, 1.0, 3.0, 1.0])
    done = comass_mod._optimize(SLAG, g, seed=4)
    cut = comass_mod._optimize(SLAG, g, seed=4, tol=1e-10, max_iters=150)
    assert not cut.converged and cut.iterations == 150
    assert cut.residual > 1e-10
    assert abs(cut.value - done.value) <= 1e-10 * done.value


def test_degree_two_sweep_is_exact():
    kahler = AlternatingForm(6, 2, {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0})
    rng = np.random.default_rng(6)
    g1 = MetricTensor.euclidean(6)
    g2 = _random_spd(rng, 6)
    phi = kahler * (1.0 / comass_mod.comass(kahler, g2).value)
    g1 = MetricTensor(g1.matrix * comass_mod.comass(phi, g1).value)
    grid = np.linspace(0.0, 1.0, 7)
    rep = verify_gluing_bound(phi, g1, g2, grid)
    assert rep.unconverged_points == 0
    assert rep.endpoint_methods == ("exact", "exact")
    for s, value in zip(grid, rep.comass_values):
        res = comass_mod.comass(phi, glued_metric(g1, g2, s))
        assert res.method == "exact" and value == res.value


def test_sweep_bounds_are_the_public_bound_formulas(monkeypatch):
    phi = AlternatingForm(4, 2, {(1, 2): 1.0, (3, 4): 1.0})
    g1 = MetricTensor.euclidean(4)
    g2 = MetricTensor.diagonal([0.25, 4.0, 2.0, 0.5])
    grid = np.linspace(0.0, 1.0, 5)

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return comass_mod.comass(*args, **kwargs)

    monkeypatch.setattr(gluing_mod, "comass", counting)
    rep = verify_gluing_bound(phi, g1, g2, grid)
    assert len(calls) == 2 + len(grid)  # each endpoint once, then the grid
    c1, c2 = rep.endpoint_comasses
    assert (c1, c2) == (comass_mod.comass(phi, g1).value, comass_mod.comass(phi, g2).value)
    for i, s in enumerate(grid):
        assert rep.ccgp_bounds[i] == gluing_mod._ccgp(c1, c2, 1.0 - s, s, phi.m)
        assert rep.improved_bounds[i] == gluing_mod._improved(c1, c2, s)


def _write(path, spec):
    path.write_text(json.dumps(spec))
    return str(path)


def _form_spec(phi):
    return {"n": phi.n, "m": phi.m,
            "coefficients": {",".join(map(str, I)): c for I, c in phi.coeffs.items()}}


def test_cli_reports_optimizer_residual_and_endpoint_method(tmp_path):
    # SPLIT runs the optimizer and SLAG is recognized; under both metrics
    # each has comass 1, taken on e1 ^ e3 ^ e5
    metric1 = {"n": 6, "matrix": np.eye(6).tolist()}
    metric2 = {"n": 6, "matrix": np.diag([2.0, 2.0, 0.5, 0.5, 1.0, 1.0]).tolist()}
    for name, phi, method in (("split", SPLIT, "optimizer"), ("slag", SLAG, "recognized")):
        spec = _write(tmp_path / f"{name}.json", {"form": _form_spec(phi), "metric": metric1})
        out = tmp_path / f"{name}-c"
        assert main(["comass", "--spec", spec, "--out", str(out)]) == 0
        report = read_json(str(out / "report.json"))
        assert report["method"] == method and report["converged"] is True
        assert abs(report["value"] - 1.0) <= 1e-12
        if method == "optimizer":
            assert 0.0 < report["residual"] <= 1e-6
        else:
            assert report["restarts_used"] == 0 and report["iterations"] == 0
            assert 0.0 <= report["residual"] <= 1e-12

        sweep = _write(tmp_path / f"{name}-sweep.json", {
            "form": _form_spec(phi), "metric1": metric1, "metric2": metric2})
        outs = [tmp_path / f"{name}-s1", tmp_path / f"{name}-s2"]
        for out in outs:
            assert main(["glue-sweep", "--spec", sweep, "--out", str(out),
                         "--grid", "5"]) == 0
        report = read_json(str(outs[0] / "report.json"))
        assert report["endpoint_methods"] == [method, method]
        assert report["unconverged_points"] == 0 and report["passed"]
        assert ((outs[0] / "glue_sweep.csv").read_bytes()
                == (outs[1] / "glue_sweep.csv").read_bytes())


# the associative 3-form of R^7: (7,3) is neither a closed-form degree nor a
# recognized shape, so its comass runs the optimizer
ASSOCIATIVE = AlternatingForm(7, 3, {(1, 2, 3): 1.0, (1, 4, 5): 1.0, (1, 6, 7): 1.0,
                                     (2, 4, 6): 1.0, (2, 5, 7): -1.0, (3, 4, 7): -1.0,
                                     (3, 5, 6): -1.0})


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_frozen_ties_return_the_first_warm_start(seed):
    # under g = A^T A, A^* phi calibrates the planes A^-1 e_123 and A^-1 e_145;
    # both warm starts freeze at once with values 1 that differ by rounding,
    # and the first one given is returned, in either order
    A = np.eye(7) + 0.3 * np.random.default_rng(seed).standard_normal((7, 7))
    phi, g = pullback(A, ASSOCIATIVE), MetricTensor(A.T @ A)
    planes = {(0, 1, 2): np.linalg.solve(A, np.eye(7)[:, [0, 1, 2]]),
              (0, 3, 4): np.linalg.solve(A, np.eye(7)[:, [0, 3, 4]])}
    values = {cols: comass_mod.comass(phi, g, restarts=0, warm_starts=[W]).value
              for cols, W in planes.items()}
    assert abs(values[(0, 1, 2)] - values[(0, 3, 4)]) <= 1e-13
    for order in (list(planes), list(planes)[::-1]):
        res = comass_mod.comass(phi, g, restarts=0, warm_starts=[planes[c] for c in order])
        assert res.method == "optimizer" and res.iterations == 0 and res.converged
        assert res.value == values[order[0]]
        image = A @ res.maximizer.matrix
        outside = [i for i in range(7) if i not in order[0]]
        assert np.abs(image[outside]).max() <= 1e-12


# special Lagrangian plus a small random 3-form: the optimizer's restarts all
# run out of iterations before the gradient stop
PERTURBED = AlternatingForm(
    6, 3, SLAG.vector + 1e-3 * np.random.default_rng(5).standard_normal(20))


def test_unconverged_comass_exits_3_with_its_report(tmp_path):
    spec = tmp_path / "perturbed.json"
    spec.write_text(json.dumps({"form": _form_spec(PERTURBED),
                                "metric": {"n": 6, "matrix": np.eye(6).tolist()}}))
    out = tmp_path / "o"
    assert main(["comass", "--spec", str(spec), "--out", str(out)]) == 3
    report = read_json(str(out / "report.json"))
    assert report["method"] == "optimizer" and report["converged"] is False
    assert report["restarts_at_max"] == 32 and report["iterations"] == 400
    assert read_json(str(out / "manifest.json"))["exit_code"] == 3


def test_unconverged_sweep_does_not_pass(tmp_path):
    # scaled below comass 1, so the hypothesis holds, and a --tol the
    # unconverged values meet, so that only convergence fails
    phi = PERTURBED * 0.99
    metric = {"n": 6, "matrix": np.eye(6).tolist()}
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"form": _form_spec(phi), "metric1": metric,
                                "metric2": metric}))
    out = tmp_path / "o"
    assert main(["glue-sweep", "--spec", str(spec), "--out", str(out), "--grid", "2",
                 "--tol", "1e-3"]) == 3
    report = read_json(str(out / "report.json"))
    assert report["worst_violation"] <= 1e-3
    assert report["unconverged_points"] >= 2 and report["passed"] is False
    rep = verify_gluing_bound(phi, MetricTensor.euclidean(6), MetricTensor.euclidean(6),
                              [0.0, 1.0])
    # the endpoints count: two grid points can give at most 2 on their own
    assert rep.unconverged_points == 4
