"""Tests for the recognition step of ``comass``: (6,3) forms of special
Lagrangian type and (8,4) forms of Cayley type take a value with a residual
bound, and every other form reaches the optimizer unchanged."""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conekit.exterior import AlternatingForm, MetricTensor, evaluate, pullback
from conekit.gluing import glued_metric

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import jobs  # noqa: E402

# the package attribute conekit.comass is the function, not the module
comass_mod = importlib.import_module("conekit.comass")

SLAG = AlternatingForm(6, 3, {(1, 3, 5): 1.0, (1, 4, 6): -1.0,
                              (2, 3, 6): -1.0, (2, 4, 5): -1.0})
CAYLEY = AlternatingForm(8, 4, {I: float(c) for I, c in jobs.cayley().items()})
SHAPES = {(6, 3): SLAG, (8, 4): CAYLEY}


def _random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return MetricTensor(A @ A.T + n * np.eye(n))


def _random_form(rng, n, m):
    return AlternatingForm(n, m, rng.standard_normal(math.comb(n, m)))


def _calls(seed):
    """(phi, g) of every (6,3) and (8,4) comass call a glue job of the
    seed's perfbench list makes: the cold comass jobs, and the endpoints
    and grid points of the sweeps."""
    for job in jobs.generate("glue", seed, jobs.cycles_for("glue", 30.0)):
        spec = job["spec"]
        if spec["form"]["m"] == 2:
            continue
        coeffs = {tuple(int(i) for i in key.split(",")): c
                  for key, c in spec["form"]["coefficients"].items()}
        phi = AlternatingForm(spec["form"]["n"], spec["form"]["m"], coeffs)
        if job["command"] == "comass":
            yield phi, MetricTensor(spec["metric"]["matrix"])
            continue
        g1, g2 = (MetricTensor(spec[key]["matrix"]) for key in ("metric1", "metric2"))
        yield phi, g1
        yield phi, g2
        for s in np.linspace(0.0, 1.0, job["ref"]["grid"]):
            yield phi, glued_metric(g1, g2, s)


def test_model_forms_are_the_workload_forms():
    re, im, cayley = comass_mod._models()
    assert cayley.tolist() == CAYLEY.vector.tolist()
    dz = [{j: 1.0, 3 + j: 1j} for j in range(1, 4)]
    omega = jobs._product_of_covectors(dz)
    for part, vector in ((np.real, re), (np.imag, im)):
        expected = AlternatingForm(6, 3, {I: float(part(c)) for I, c in omega.items()})
        assert vector.tolist() == expected.vector.tolist()
    assert re.tolist() == AlternatingForm(6, 3, jobs.special_lagrangian()).vector.tolist()


def test_hitchin_invariant_of_the_model_form():
    re = comass_mod._models()[0]
    K = comass_mod._hitchin_k(re)
    np.testing.assert_array_equal(K @ K, comass_mod._LAMBDA_SL * np.eye(6))
    # twice the complex structure e_j -> e_{j+3}
    J0 = np.block([[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
    np.testing.assert_array_equal(K, 2.0 * J0)


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_glue_list_calls_are_recognized_at_the_optimizer_value(seed):
    count = 0
    for phi, g in _calls(seed):
        res = comass_mod.comass(phi, g)
        assert res.method == "recognized"
        assert (res.restarts_used, res.iterations, res.converged) == (0, 0, True)
        assert 0.0 <= res.residual <= comass_mod.RECOGNITION_TOL * res.value
        # the optimizer returns the first restart within 1e-12 relative of
        # its best, the accuracy of its gradient stop, not the best itself
        opt = comass_mod._optimize(phi, g)
        assert abs(opt.value - res.value) <= 1e-12 * res.value
        assert opt.value <= res.value + res.residual
        count += 1
    # 3 cycles, each of 3 sweeps of 5 grid points and 2 endpoints, 6 cold
    # (6,3) jobs and 1 cold (8,4) job
    assert count == 3 * (3 * 7 + 6 + 1)


@pytest.mark.parametrize("n,m", sorted(SHAPES))
def test_residual_bounds_the_exact_comass(n, m):
    # c A^* phi0 under A^T A has comass exactly c
    rng = np.random.default_rng(10 * n + m)
    for _ in range(6):
        A = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        c = float(rng.uniform(0.5, 2.0))
        phi, g = c * pullback(A, SHAPES[(n, m)]), MetricTensor(A.T @ A)
        res = comass_mod.comass(phi, g)
        assert res.method == "recognized"
        assert abs(res.value - c) <= res.residual <= comass_mod.RECOGNITION_TOL * c
        V = res.maximizer.matrix
        np.testing.assert_allclose(V.T @ g.matrix @ V, np.eye(m), rtol=0.0, atol=1e-12)
        assert abs(evaluate(phi, res.maximizer) - res.value) <= 1e-12


@pytest.mark.parametrize("n,m,seed", [(6, 3, 0), (6, 3, 1), (8, 4, 2), (8, 4, 3)])
def test_random_forms_reach_the_optimizer_unchanged(n, m, seed):
    rng = np.random.default_rng(400 + seed)
    phi, g = _random_form(rng, n, m), _random_spd(rng, n)
    assert comass_mod._recognize(phi, g) is None
    res = comass_mod.comass(phi, g, restarts=8, seed=seed)
    ref = comass_mod._optimize(phi, g, restarts=8, seed=seed)
    assert res.method == "optimizer"
    for field in ("value", "method", "restarts_used", "iterations", "converged",
                  "residual", "restarts_at_max"):
        assert getattr(res, field) == getattr(ref, field), field
    np.testing.assert_array_equal(res.maximizer.matrix, ref.maximizer.matrix)


@pytest.mark.parametrize("n,m", sorted(SHAPES))
def test_perturbed_calibrations_fall_through(n, m):
    rng = np.random.default_rng(50 + n)
    phi = SHAPES[(n, m)] + 1e-3 * _random_form(rng, n, m)
    g = MetricTensor.euclidean(n)
    assert comass_mod._recognize(phi, g) is None
    assert comass_mod.comass(phi, g, restarts=2, max_iters=5).method == "optimizer"


@pytest.mark.parametrize("n,m", sorted(SHAPES))
def test_residual_above_the_threshold_is_rejected(n, m, monkeypatch):
    rng = np.random.default_rng(60 + n)
    noise = _random_form(rng, n, m)
    g = MetricTensor.euclidean(n)
    # a perturbation of 1e-15 stays within the threshold, and its value
    # within the bound of the calibration's
    near = comass_mod._recognize(SHAPES[(n, m)] + 1e-15 * noise, g)
    exact = comass_mod._recognize(SHAPES[(n, m)], g)
    assert near is not None and exact is not None
    assert abs(near.value - exact.value) <= near.residual + exact.residual
    # the same result is refused once the threshold is below its residual
    monkeypatch.setattr(comass_mod, "RECOGNITION_TOL", 0.5 * near.residual / near.value)
    assert comass_mod._recognize(SHAPES[(n, m)] + 1e-15 * noise, g) is None
    assert comass_mod.comass(SHAPES[(n, m)] + 1e-15 * noise, g, restarts=2,
                             max_iters=5).method == "optimizer"


def test_recognition_keeps_other_shapes_away():
    rng = np.random.default_rng(7)
    # a 3-form on R^7 and a 4-form on R^9 have no recognition test, and the
    # split 3-form dx135 + dx246 has Hitchin invariant lambda > 0
    for phi in (_random_form(rng, 7, 3), _random_form(rng, 9, 4),
                AlternatingForm(6, 3, {(1, 3, 5): 1.0, (2, 4, 6): 1.0})):
        assert comass_mod._recognize(phi, MetricTensor.euclidean(phi.n)) is None
