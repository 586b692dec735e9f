"""Tests for comass computation, decomposition, and the adapted metric."""

import math

import numpy as np
import pytest

from conekit.comass import _optimize, comass
from conekit.exterior import (
    AlternatingForm,
    MetricTensor,
    SimpleVector,
    evaluate,
    gram_norm,
)
from oracles import (
    adapted_base_metric,
    adapted_metric,
    calibration_decomposition_check,
    comass_bruteforce,
    comass_via_min,
    decompose,
)


def _random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return MetricTensor(A @ A.T + n * np.eye(n))


def _random_two_form(rng, n):
    return AlternatingForm(n, 2, rng.standard_normal(math.comb(n, 2)))


def test_kahler_comass_is_one():
    phi = AlternatingForm(4, 2, {(1, 2): 1.0, (3, 4): 1.0})
    g = MetricTensor.euclidean(4)
    res = comass(phi, g, seed=0)
    assert abs(res.value - 1.0) < 1e-10
    assert abs(gram_norm(res.maximizer, g) - 1.0) < 1e-9
    assert abs(evaluate(phi, res.maximizer) - res.value) < 1e-9


def test_degree_one_comass_is_dual_norm():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = 5
        c = rng.standard_normal(n)
        phi = AlternatingForm(n, 1, c)
        g = _random_spd(rng, n)
        exact = math.sqrt(float(c @ np.linalg.solve(g.matrix, c)))
        res = comass(phi, g)
        assert res.method == "exact" and abs(res.value - exact) < 1e-12
        assert abs(_optimize(phi, g, restarts=8, seed=1).value - exact) < 1e-8 * exact


def test_degree_two_comass_matches_singular_value_oracle():
    rng = np.random.default_rng(11)
    for trial in range(15):
        n = int(rng.integers(3, 7))
        phi = _random_two_form(rng, n)
        g = _random_spd(rng, n)
        # oracle: top singular value of the whitened skew coefficient matrix
        A = np.zeros((n, n))
        for (i, j), c in phi.coeffs.items():
            A[i - 1, j - 1] = c
            A[j - 1, i - 1] = -c
        Linv = np.linalg.inv(g.cholesky)
        exact = np.linalg.svd(Linv @ A @ Linv.T, compute_uv=False)[0]
        res = _optimize(phi, g, seed=trial)
        assert abs(res.value - exact) < 1e-8 * exact
        assert abs(gram_norm(res.maximizer, g) - 1.0) < 1e-8


def test_comass_metric_scaling_law():
    rng = np.random.default_rng(12)
    phi = _random_two_form(rng, 5)
    g = _random_spd(rng, 5)
    c = comass(phi, g, seed=2).value
    g4 = MetricTensor(4.0 * g.matrix)
    # scaling g by t scales degree-m comass by t^(-m/2)
    assert abs(comass(phi, g4, seed=2).value - c / 4.0) < 1e-8 * c


def test_comass_rejects_zero_form_and_mismatch():
    with pytest.raises(ValueError):
        comass(AlternatingForm(4, 2), MetricTensor.euclidean(4))
    with pytest.raises(ValueError):
        comass(AlternatingForm.basis(4, (1, 2)), MetricTensor.euclidean(5))
    with pytest.raises(ValueError, match="degree at least 1"):
        comass(AlternatingForm(4, 0, {(): 2.0}), MetricTensor.euclidean(4))


SLAG = AlternatingForm(6, 3, {(1, 3, 5): 1.0, (1, 4, 6): -1.0,
                              (2, 3, 6): -1.0, (2, 4, 5): -1.0})


@pytest.mark.parametrize("entry", [comass, _optimize])
@pytest.mark.parametrize("options,match", [
    ({"restarts": 0}, "at least one restart or warm start"),
    ({"restarts": 2.5}, "restarts must be an integer"),
    ({"restarts": -1}, "restarts must be an integer"),
    ({"max_iters": -1}, "max_iters must be an integer"),
    ({"tol": 0.0}, "tol must be a finite number"),
    ({"tol": math.inf}, "tol must be a finite number"),
])
def test_optimizer_options_rejected_up_front(entry, options, match):
    with pytest.raises(ValueError, match=match):
        entry(SLAG, MetricTensor.euclidean(6), **options)


# dx135 + dx246 has comass 1 on the plane e1 ^ e3 ^ e5, like SLAG, but is
# not of special Lagrangian type (its Hitchin invariant is positive), so
# comass runs the optimizer on it
SPLIT = AlternatingForm(6, 3, {(1, 3, 5): 1.0, (2, 4, 6): 1.0})


def test_optimizer_options_at_their_limits():
    g = MetricTensor.euclidean(6)
    warm = [np.eye(6)[:, [0, 2, 4]]]  # the calibrated plane e1 ^ e3 ^ e5
    res = comass(SPLIT, g, restarts=0, warm_starts=warm)
    assert res.method == "optimizer"
    assert res.restarts_used == 1 and abs(res.value - 1.0) <= 1e-12
    still = _optimize(SLAG, g, max_iters=0, seed=1)
    assert still.iterations == 0 and still.restarts_used == 32
    with pytest.raises(ValueError, match="linearly dependent"):
        comass(SPLIT, g, restarts=0, warm_starts=[np.zeros((6, 3))])
    # the recognized path checks the options too, though it does not use them
    res = comass(SLAG, g, restarts=0, warm_starts=warm)
    assert res.method == "recognized" and res.restarts_used == 0
    assert abs(res.value - 1.0) <= 1e-12
    # the exact path checks the options too, though it does not use them
    kahler = AlternatingForm(4, 2, {(1, 2): 1.0, (3, 4): 1.0})
    with pytest.raises(ValueError, match="max_iters"):
        comass(kahler, MetricTensor.euclidean(4), max_iters=-1)


def test_bruteforce_lower_bound_and_convergence():
    rng = np.random.default_rng(13)
    phi = _random_two_form(rng, 4)
    g = _random_spd(rng, 4)
    res = comass(phi, g)
    assert res.method == "exact"
    exact = res.value
    prev = 0.0
    for count in (100, 2000, 50000):
        val = comass_bruteforce(phi, g, count, seed=5)
        assert val <= exact * (1.0 + 1e-9)
        prev = max(prev, val)
    assert prev > 0.98 * exact


def test_bruteforce_exact_in_top_degree():
    # every simple 2-vector in R^2 is a multiple of e1 ^ e2
    phi = AlternatingForm.basis(2, (1, 2))
    g = MetricTensor.euclidean(2)
    assert abs(comass_bruteforce(phi, g, 50, seed=0) - 1.0) < 1e-12


def test_bruteforce_deterministic_in_seed():
    rng = np.random.default_rng(14)
    phi = _random_two_form(rng, 5)
    g = _random_spd(rng, 5)
    a = comass_bruteforce(phi, g, 3000, seed=42)
    b = comass_bruteforce(phi, g, 3000, seed=42)
    assert a == b


def test_comass_via_min_agrees_with_optimizer():
    rng = np.random.default_rng(15)
    for trial in range(5):
        phi = _random_two_form(rng, 4)
        g = _random_spd(rng, 4)
        direct = comass(phi, g, seed=trial).value
        via_min = comass_via_min(phi, g, restarts=8, seed=trial)
        assert abs(direct - via_min) < 1e-6 * direct


def _random_calibrated_pair(rng, n, m):
    """A form and a unit-evaluation simple vector, phi(xi) = 1."""
    while True:
        phi = AlternatingForm(n, m, rng.standard_normal(math.comb(n, m)))
        M = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :m]
        xi = SimpleVector.from_matrix(M)
        val = evaluate(phi, xi)
        if abs(val) > 0.1:
            return phi * (1.0 / val), xi


def test_decompose_kahler_example():
    phi = AlternatingForm(4, 2, {(1, 2): 1.0, (3, 4): 1.0})
    xi = SimpleVector.basis(4, (1, 2))
    d = decompose(phi, xi)
    # W is the coordinate plane spanned by e3, e4
    np.testing.assert_allclose(np.abs(d.W_basis[:2, :]), 0.0, atol=1e-12)
    assert d.tail_coeffs == {(3, 4): 1.0}
    assert d.reassemble().allclose(phi, atol=1e-10)


def test_decompose_roundtrip_random():
    rng = np.random.default_rng(16)
    for trial in range(25):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 7))
        phi, xi = _random_calibrated_pair(rng, n, m)
        d = decompose(phi, xi)
        assert d.reassemble().allclose(phi, atol=1e-10)
        # vanishing condition: no tail index with fewer than two entries
        # beyond the leading block
        for I in d.tail_coeffs:
            assert sum(1 for i in I if i > m) >= 2


def test_decompose_rejects_bad_normalization():
    phi = AlternatingForm(4, 2, {(1, 2): 2.0})
    with pytest.raises(ValueError, match="normalize"):
        decompose(phi, SimpleVector.basis(4, (1, 2)))


def test_adapted_metric_pins_comass():
    rng = np.random.default_rng(17)
    for trial in range(5):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(m + 2, 6))
        phi, xi = _random_calibrated_pair(rng, n, m)
        base = adapted_base_metric(decompose(phi, xi))
        C2 = 2.0 * math.comb(n, m) * comass(phi, base, seed=trial).value + 1.0
        g = adapted_metric(phi, xi, base, C2)
        res = comass(phi, g, seed=trial, warm_starts=[xi.matrix])
        assert abs(res.value - 1.0) < 1e-6
        assert abs(gram_norm(xi, g) - 1.0) < 1e-8


def test_adapted_metric_rejects_small_scale():
    phi = AlternatingForm(4, 2, {(1, 2): 1.0, (3, 4): 1.0})
    xi = SimpleVector.basis(4, (1, 2))
    base = adapted_base_metric(decompose(phi, xi))
    with pytest.raises(ValueError, match="C2"):
        adapted_metric(phi, xi, base, 0.5)


def test_adapted_metric_threshold_bounds_the_comass_from_above():
    # Re(dz1 ^ dz2 ^ dz3) on (x1, x2, x3, y1, y2, y3) calibrates the x-plane
    # with comass 1, so the threshold binom(6, 3) comass / phi(xi) is 20;
    # the coefficient norm 2 puts the checked threshold at 40, wherever an
    # optimizer's lower bound on the comass would have put it
    phi = AlternatingForm(6, 3, {(1, 2, 3): 1.0, (1, 5, 6): -1.0,
                                 (2, 4, 6): 1.0, (3, 4, 5): -1.0})
    xi = SimpleVector.basis(6, (1, 2, 3))
    base = MetricTensor.euclidean(6)
    assert evaluate(phi, xi) == 1.0
    for C2 in (15.0, 30.0, 40.0):
        with pytest.raises(ValueError, match="= 40"):
            adapted_metric(phi, xi, base, C2)
    g = adapted_metric(phi, xi, base, 41.0)
    np.testing.assert_allclose(g.matrix, np.diag([1.0] * 3 + [41.0] * 3), atol=1e-12)


def test_rigidity_check_detects_coupling():
    # dx1 ^ dx2 + dx1 ^ dx3 couples the calibrated plane to e3: the probe
    # plane evaluates above 1, so no metric with comass 1 admits it
    phi = AlternatingForm(3, 2, {(1, 2): 1.0, (1, 3): 1.0})
    xi = SimpleVector.basis(3, (1, 2))
    g = MetricTensor.euclidean(3)
    with pytest.raises(ValueError, match="not a calibration"):
        calibration_decomposition_check(phi, xi, g)


def test_rigidity_check_passes_kahler():
    phi = AlternatingForm(4, 2, {(1, 2): 1.0, (3, 4): 1.0})
    xi = SimpleVector.basis(4, (1, 2))
    out = calibration_decomposition_check(phi, xi, MetricTensor.euclidean(4))
    assert out["is_rigid_W"] is True
    assert out["violating_pair"] is None


def test_rigidity_probe_value():
    # a tiny coupling keeps the comass within the calibration tolerance but
    # is still flagged, with a probe plane evaluating to sqrt(1 + a^2)
    eps = 1e-5
    phi = AlternatingForm(3, 2, {(1, 2): 1.0, (1, 3): eps})
    xi = SimpleVector.basis(3, (1, 2))
    out = calibration_decomposition_check(phi, xi, MetricTensor.euclidean(3))
    assert out["is_rigid_W"] is False
    a = out["coupling"]
    assert abs(abs(a) - eps) < 1e-12
    assert abs(out["probe_value"] - math.sqrt(1.0 + a * a)) < 1e-15
    val = evaluate(phi, out["probe"])
    assert abs(abs(val) - out["probe_value"]) < 1e-12
