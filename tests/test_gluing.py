"""Tests for comass control along convex combinations of metrics."""

import math
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

from conekit.comass import comass
from conekit.exterior import AlternatingForm, MetricTensor, SimpleVector, gram_norm
from conekit.gluing import _ccgp, _improved, glued_metric, verify_gluing_bound
from oracles import (
    T_of_s,
    equality_analysis,
    reciprocal_product_hessian,
    relative_spectrum,
)

CHEAP = {"restarts": 4, "max_iters": 150, "seed": 3}


def _random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return MetricTensor(A @ A.T + n * np.eye(n))


def test_glued_metric_endpoints_and_midpoint():
    g1 = MetricTensor.euclidean(2)
    g2 = MetricTensor.diagonal([4.0, 1.0])
    np.testing.assert_allclose(glued_metric(g1, g2, 0.0).matrix, g1.matrix)
    np.testing.assert_allclose(glued_metric(g1, g2, 1.0).matrix, g2.matrix)
    np.testing.assert_allclose(
        glued_metric(g1, g2, 0.5).matrix, np.diag([2.5, 1.0])
    )
    with pytest.raises(ValueError):
        glued_metric(g1, g2, 1.5)
    with pytest.raises(ValueError):
        glued_metric(g1, MetricTensor.euclidean(3), 0.5)


def test_relative_spectrum_diagonal_case():
    g1 = MetricTensor.euclidean(4)
    g2 = MetricTensor.diagonal([4.0, 9.0, 1.0, 1.0])
    spec = relative_spectrum(g1, g2, SimpleVector.basis(4, (1, 2)))
    np.testing.assert_allclose(np.sort(spec.eigenvalues), [4.0, 9.0])
    assert abs(spec.t_factor - 1.0) < 1e-12
    same = relative_spectrum(g1, g1, SimpleVector.basis(4, (2, 3)))
    np.testing.assert_allclose(same.eigenvalues, [1.0, 1.0])


def test_relative_spectrum_matches_generalized_eigensolver():
    rng = np.random.default_rng(20)
    for _ in range(10):
        n = 5
        g1, g2 = _random_spd(rng, n), _random_spd(rng, n)
        M = rng.standard_normal((n, 2))
        spec = relative_spectrum(g1, g2, SimpleVector.from_matrix(M))
        oracle = scipy.linalg.eigh(
            M.T @ g2.matrix @ M, M.T @ g1.matrix @ M, eigvals_only=True
        )
        np.testing.assert_allclose(np.sort(spec.eigenvalues), np.sort(oracle),
                                   atol=1e-10)


def test_relative_spectrum_rejects_degenerate():
    g = MetricTensor.euclidean(3)
    u = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="degenerate"):
        relative_spectrum(g, g, SimpleVector([u, 2.0 * u]))


def test_T_of_s_product_formula_and_gram_identity():
    g1 = MetricTensor.euclidean(4)
    g2 = MetricTensor.diagonal([4.0, 1.0, 1.0, 1.0])
    Q = SimpleVector.basis(4, (1, 2))
    spec = relative_spectrum(g1, g2, Q)
    assert abs(T_of_s(spec, 0.5) - 2.5) < 1e-12
    assert abs(T_of_s(spec, 0.0) - spec.t_factor**2) < 1e-12
    rng = np.random.default_rng(21)
    for _ in range(10):
        ga, gb = _random_spd(rng, 4), _random_spd(rng, 4)
        Qr = SimpleVector.from_matrix(rng.standard_normal((4, 2)))
        s = float(rng.uniform())
        spec = relative_spectrum(ga, gb, Qr)
        assert abs(
            T_of_s(spec, s) - gram_norm(Qr, glued_metric(ga, gb, s)) ** 2
        ) < 1e-10


def test_gluing_bound_constant_case():
    phi = AlternatingForm.basis(4, (1, 2))
    g = MetricTensor.euclidean(4)
    rep = verify_gluing_bound(phi, g, g, np.linspace(0, 1, 5), comass_opts=CHEAP)
    np.testing.assert_allclose(rep.comass_values, 1.0, atol=1e-9)
    assert rep.worst_violation <= 1e-9


def test_gluing_bound_anisotropic_example():
    phi = AlternatingForm.basis(4, (1, 2))
    g1 = MetricTensor.euclidean(4)
    g2 = MetricTensor.diagonal([0.25, 4.0, 1.0, 1.0])
    rep = verify_gluing_bound(phi, g1, g2, np.linspace(0, 1, 11), comass_opts=CHEAP)
    assert rep.worst_violation <= 1e-9
    # interior comass equals 1/sqrt(T(s)) = 1/sqrt((1 - 0.75 s)(1 + 3 s))
    s = rep.s_grid
    expected = 1.0 / np.sqrt((1.0 - 0.75 * s) * (1.0 + 3.0 * s))
    np.testing.assert_allclose(rep.comass_values, expected, atol=1e-8)


def test_gluing_bound_rejects_hypothesis_violation():
    phi = 2.0 * AlternatingForm.basis(4, (1, 2))
    g = MetricTensor.euclidean(4)
    with pytest.raises(ValueError, match="hypothesis"):
        verify_gluing_bound(phi, g, g, [0.0, 0.5, 1.0], comass_opts=CHEAP)


def test_gluing_random_sweep():
    rng = np.random.default_rng(22)
    worst = -np.inf
    for trial in range(20):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(max(m + 1, 3), 7))
        coeffs = {
            I: float(rng.standard_normal())
            for I in combinations(range(1, n + 1), m)
        }
        phi = AlternatingForm(n, m, coeffs)
        g1, g2 = _random_spd(rng, n), _random_spd(rng, n)
        c1 = comass(phi, g1, restarts=16, seed=trial).value
        phi = phi * (1.0 / c1)
        c2 = comass(phi, g2, restarts=16, seed=trial).value
        g2 = MetricTensor(g2.matrix * c2 ** (2.0 / m))
        rep = verify_gluing_bound(
            phi, g1, g2, np.linspace(0, 1, 11), comass_opts=CHEAP
        )
        worst = max(worst, rep.worst_violation)
        # both closed-form bounds stay above the measurement
        assert np.all(rep.comass_values <= rep.ccgp_bounds + 1e-6)
        assert np.all(rep.comass_values <= rep.improved_bounds + 1e-6)
    assert worst <= 1e-6


def test_ccgp_bound_values():
    phi = AlternatingForm.basis(4, (1, 2))
    g1 = MetricTensor.euclidean(4)
    g2 = MetricTensor.diagonal([0.25, 4.0, 1.0, 1.0])
    rep = verify_gluing_bound(phi, g1, g2, [0.0, 0.5, 1.0], comass_opts=CHEAP)
    c1, c2 = rep.endpoint_comasses
    np.testing.assert_allclose(rep.ccgp_bounds, _ccgp(c1, c2, 1.0 - rep.s_grid, rep.s_grid, 2))
    # dropping one weight returns the remaining endpoint comass
    assert rep.ccgp_bounds[0] == c1 and rep.ccgp_bounds[2] == c2
    assert abs(c1 - 1.0) < 1e-8 and abs(c2 - 1.0) < 1e-8
    assert abs(rep.ccgp_bounds[1] - math.sqrt(2)) < 1e-8


def test_improved_bound_values_and_dominance():
    phi = AlternatingForm.basis(4, (1, 2))
    g1 = MetricTensor.euclidean(4)
    g2 = MetricTensor.diagonal([0.25, 4.0, 1.0, 1.0])
    rep = verify_gluing_bound(phi, g1, g2, [0.5], comass_opts=CHEAP)
    assert abs(rep.improved_bounds[0] - 1.0) < 1e-8
    rng = np.random.default_rng(23)
    for trial in range(5):
        phi = AlternatingForm(4, 2, rng.standard_normal(6))
        ga, gb = _random_spd(rng, 4), _random_spd(rng, 4)
        s = float(rng.uniform())
        c1, c2 = (comass(phi, g, **CHEAP).value for g in (ga, gb))
        bound = _improved(c1, c2, s)
        measured = comass(phi, glued_metric(ga, gb, s), seed=trial).value
        assert measured <= bound + 1e-6


def test_equality_analysis_branches():
    g1 = MetricTensor.euclidean(4)
    g2 = MetricTensor.diagonal([0.25, 4.0, 1.0, 1.0])
    phi = AlternatingForm.basis(4, (1, 2))
    Q = SimpleVector.basis(4, (1, 2))
    assert equality_analysis(phi, g1, g1, Q)["status"] == "calibrated_all_s"
    assert equality_analysis(phi, g1, g2, Q)["status"] == "strictly_interior"
    doubled = SimpleVector([2.0 * Q.factors[0], Q.factors[1]])
    assert equality_analysis(phi, g1, g2, doubled)["status"] == "not_calibrated"


def test_strict_interior_ratio_dip():
    # spectrum {1/4, 4}: strict convexity pushes the interior Gram norm
    # above 1, so the evaluation ratio of the doubly-unit plane dips
    g1 = MetricTensor.euclidean(4)
    g2 = MetricTensor.diagonal([0.25, 4.0, 1.0, 1.0])
    Q = SimpleVector.basis(4, (1, 2))
    spec = relative_spectrum(g1, g2, Q)
    for s in (0.25, 0.5, 0.75):
        T = T_of_s(spec, s)
        assert T > 1.0
        assert abs(gram_norm(Q, glued_metric(g1, g2, s)) ** 2 - T) < 1e-12
        assert 1.0 / math.sqrt(T) < 1.0
    assert T_of_s(spec, 0.0) == 1.0 and T_of_s(spec, 1.0) == 1.0


def test_reciprocal_product_hessian_positive_definite():
    rng = np.random.default_rng(24)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        X = rng.uniform(0.1, 5.0, size=m)
        H = reciprocal_product_hessian(X)
        assert np.linalg.eigvalsh(H)[0] > 0.0
    with pytest.raises(ValueError):
        reciprocal_product_hessian([1.0, -1.0])


def test_report_rows_shape():
    phi = AlternatingForm.basis(3, (1,))
    g = MetricTensor.euclidean(3)
    rep = verify_gluing_bound(phi, g, g, [0.0, 0.5, 1.0], comass_opts=CHEAP)
    rows = list(rep.rows())
    assert len(rows) == 3 and all(len(r) == 4 for r in rows)
