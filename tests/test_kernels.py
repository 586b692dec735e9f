"""Tests for the batched interior-product kernel and the code built on it."""

import importlib
import json
import math

import numpy as np
import pytest

from conekit.cli import main
from conekit.exterior import (
    AlternatingForm,
    DimensionMismatchError,
    MetricTensor,
    SimpleVector,
    _interior_matrix,
    evaluate,
    multi_indices,
)
from conekit.gluing import verify_gluing_bound
from oracles import _lambda_matrix, contract

# the package attribute conekit.comass is the function, not the module
comass_mod = importlib.import_module("conekit.comass")

SHAPES = [(n, m) for n in range(1, 9) for m in range(1, n + 1)]


def _lambda_loop(phi, V):
    """Reference: lambda_i(e_j) = (-1)^(m+i) phi(v_1, ..., hat v_i, ..., v_m, e_j)."""
    n, m = phi.n, V.shape[1]
    if m == 1:
        return phi.vector[None, :].copy()
    eye = np.eye(n)
    lam = np.zeros((m, n))
    for i in range(1, m + 1):
        sign = (-1.0) ** (m + i)
        facs = [V[:, j] for j in range(m) if j != i - 1]
        for j in range(n):
            lam[i - 1, j] = sign * evaluate(phi, SimpleVector(facs + [eye[j]]))
    return lam


def _contract_loop(eta, phi):
    """Reference: psi_J = phi(eta factors, e_J), one evaluation per J."""
    q = phi.m - eta.m
    eye = np.eye(phi.n)
    out = {}
    for J in multi_indices(phi.n, q):
        out[J] = evaluate(phi, SimpleVector(eta.factors + [eye[j - 1] for j in J]))
    return AlternatingForm(phi.n, q, out)


@pytest.mark.parametrize("R", [1, 64])
@pytest.mark.parametrize("n,m", SHAPES)
def test_batched_eval_and_gradient(n, m, R):
    rng = np.random.default_rng(100 * n + m)
    phi = AlternatingForm(n, m, rng.standard_normal(math.comb(n, m)))
    first = _interior_matrix(phi.vector, n, m)
    U = rng.standard_normal((R, n, m))
    vals = comass_mod._eval_batch(first, U)
    ref = np.array([evaluate(phi, SimpleVector.from_matrix(u)) for u in U])
    np.testing.assert_allclose(vals, ref, rtol=0.0, atol=1e-10)

    grad = comass_mod._grad_batch(first, U)
    assert grad.shape == U.shape
    h = 1e-4
    for i in range(n):
        for a in range(m):
            up, down = U.copy(), U.copy()
            up[:, i, a] += h
            down[:, i, a] -= h
            fd = (comass_mod._eval_batch(first, up)
                  - comass_mod._eval_batch(first, down)) / (2.0 * h)
            np.testing.assert_allclose(grad[:, i, a], fd, rtol=0.0, atol=1e-7)


def test_lambda_matrix_matches_loop_definition():
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        for m in range(1, n + 1):
            phi = AlternatingForm(n, m, rng.standard_normal(math.comb(n, m)))
            V = np.linalg.qr(rng.standard_normal((n, m)))[0]
            np.testing.assert_allclose(
                _lambda_matrix(phi, V), _lambda_loop(phi, V),
                rtol=0.0, atol=1e-12,
            )


def test_contract_matches_loop_definition():
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        for p in range(1, n + 1):
            phi = AlternatingForm(n, p, rng.standard_normal(math.comb(n, p)))
            for r in range(1, p + 1):
                eta = SimpleVector.from_matrix(
                    np.linalg.qr(rng.standard_normal((n, r)))[0]
                )
                psi = contract(eta, phi)
                assert (psi.n, psi.m) == (n, p - r)
                assert psi.allclose(_contract_loop(eta, phi), atol=1e-12)


def test_dimension_beyond_limit_rejected(tmp_path):
    AlternatingForm(16, 2, {(15, 16): 1.0})
    with pytest.raises(DimensionMismatchError):
        AlternatingForm(17, 2, {(1, 2): 1.0})
    with pytest.raises(DimensionMismatchError):
        AlternatingForm.from_vector(17, 1, np.ones(17))
    spec = tmp_path / "n17.json"
    spec.write_text(json.dumps({
        "form": {"n": 17, "m": 2, "coefficients": {"1,2": 1.0}},
        "metric": {"n": 17, "matrix": np.eye(17).tolist()},
    }))
    assert main(["comass", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2


def test_comass_reports_convergence():
    phi = AlternatingForm(4, 1, np.array([1.0, 2.0, -0.5, 0.0]))
    g = MetricTensor.euclidean(4)
    done = comass_mod._optimize(phi, g, restarts=8, seed=0)
    assert done.converged and 0 < done.iterations < 400 and done.restarts_at_max == 0
    assert abs(done.value - math.sqrt(5.25)) < 1e-10
    cut = comass_mod._optimize(phi, g, restarts=8, seed=0, max_iters=3)
    assert not cut.converged and cut.iterations == 3 and cut.restarts_at_max == 8

    # (4, 2) takes the closed form, so the sweep runs on the (6, 3)
    # special Lagrangian form Re dz1 ^ dz2 ^ dz3
    slag = AlternatingForm(6, 3, {(1, 3, 5): 1.0, (1, 4, 6): -1.0,
                                  (2, 3, 6): -1.0, (2, 4, 5): -1.0})
    g6 = MetricTensor.euclidean(6)
    # A^T A for A = diag(sqrt 2, 1 / sqrt 2, 1) in SL(3, C), which fixes the form
    g2 = MetricTensor.diagonal([2.0, 2.0, 0.5, 0.5, 1.0, 1.0])
    grid = [0.0, 0.5, 1.0]
    report = verify_gluing_bound(slag, g6, g2, grid,
                                 comass_opts={"restarts": 4, "max_iters": 3})
    # at s = 0 and 1 the returned restart is the warm-started endpoint
    # maximizer, which meets the gradient stop at once; at s = 1/2 every
    # restart is cut off after three iterations
    assert report.unconverged_points == 1


def test_converged_describes_the_returned_restart(tmp_path):
    # a random (8,4) form: every restart climbs to the same value, the
    # returned one meets the gradient stop, and some slower ones run out of
    # iterations
    rng = np.random.default_rng(5)
    for _ in range(7):
        vec = rng.standard_normal(70)
    phi = AlternatingForm(8, 4, vec)
    res = comass_mod.comass(phi, MetricTensor.euclidean(8), restarts=32, seed=3)
    assert res.converged and res.residual <= 1e-6
    assert 0 < res.restarts_at_max < 32 and res.iterations == 400
    spec = tmp_path / "form84.json"
    spec.write_text(json.dumps({
        "form": {"n": 8, "m": 4, "coefficients": {
            ",".join(map(str, I)): float(c) for I, c in zip(multi_indices(8, 4), vec)}},
        "metric": {"n": 8, "matrix": np.eye(8).tolist()},
    }))
    assert main(["comass", "--spec", str(spec), "--out", str(tmp_path / "o"),
                 "--seed", "3"]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["converged"] is True
    assert report["restarts_at_max"] == res.restarts_at_max
