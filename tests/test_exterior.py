"""Unit tests for the multilinear algebra layer."""

import math

import numpy as np
import pytest

from conekit.exterior import (
    AlternatingForm,
    DimensionMismatchError,
    MetricTensor,
    SimpleVector,
    evaluate,
    gram_norm,
    multi_indices,
    pullback,
)
from oracles import contract, wedge


def test_multi_indices_enumeration():
    assert multi_indices(4, 2) == (
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    )
    assert len(multi_indices(6, 3)) == math.comb(6, 3)


def test_form_coefficient_roundtrip():
    phi = AlternatingForm(4, 2, {(1, 2): 2.0, (3, 4): -1.5})
    assert phi.coeff((1, 2)) == 2.0
    assert phi.coeff((1, 3)) == 0.0
    assert phi.coeffs == {(1, 2): 2.0, (3, 4): -1.5}
    back = AlternatingForm.from_vector(4, 2, phi.vector)
    assert back.allclose(phi)
    with pytest.raises(ValueError):
        AlternatingForm(4, 2, {(2, 1): 1.0})
    with pytest.raises(DimensionMismatchError):
        AlternatingForm(4, 2, {(1, 2, 3): 1.0})


def test_form_arithmetic():
    a = AlternatingForm.basis(3, (1, 2))
    b = AlternatingForm.basis(3, (2, 3))
    s = a + 2.0 * b - a
    assert s.allclose(2.0 * b)
    assert (a - a).is_zero()
    assert (-a).coeff((1, 2)) == -1.0
    with pytest.raises(DimensionMismatchError):
        a + AlternatingForm.basis(4, (1, 2))


def test_wedge_bilinear_and_anticommutative():
    rng = np.random.default_rng(0)
    n = 5
    for _ in range(20):
        a = AlternatingForm(n, 1, rng.standard_normal(n))
        b = AlternatingForm(n, 1, rng.standard_normal(n))
        c = AlternatingForm(n, 2, rng.standard_normal(math.comb(n, 2)))
        ab = wedge(a, b)
        ba = wedge(b, a)
        assert ab.allclose(-1.0 * ba)
        left = wedge(a + b, c)
        right = wedge(a, c) + wedge(b, c)
        assert left.allclose(right, atol=1e-10)
    assert wedge(a, a).is_zero(atol=1e-12)


def test_wedge_known_value():
    dx1 = AlternatingForm.basis(3, (1,))
    dx2 = AlternatingForm.basis(3, (2,))
    w = wedge(2.0 * dx2, dx1)
    assert w.coeff((1, 2)) == -2.0


def test_evaluate_matches_determinant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, m = 5, 3
        phi = AlternatingForm(n, m, rng.standard_normal(math.comb(n, m)))
        M = rng.standard_normal((n, m))
        Q = SimpleVector.from_matrix(M)
        # oracle: sum over increasing index sets of coeff * minor determinant
        total = 0.0
        for I, c in phi.coeffs.items():
            total += c * np.linalg.det(M[[i - 1 for i in I], :])
        assert abs(evaluate(phi, Q) - total) < 1e-10


def test_evaluate_alternating_in_factors():
    rng = np.random.default_rng(2)
    phi = AlternatingForm(4, 2, rng.standard_normal(6))
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    val = evaluate(phi, SimpleVector([u, v]))
    assert abs(evaluate(phi, SimpleVector([v, u])) + val) < 1e-12
    assert abs(evaluate(phi, SimpleVector([u, u]))) < 1e-12


def test_contract_definition():
    rng = np.random.default_rng(3)
    n, m = 5, 3
    phi = AlternatingForm(n, m, rng.standard_normal(math.comb(n, m)))
    eta = SimpleVector([rng.standard_normal(n)])
    psi = contract(eta, phi)
    assert psi.m == m - 1
    for J in multi_indices(n, m - 1):
        full = SimpleVector(eta.factors + list(SimpleVector.basis(n, J).factors))
        assert abs(psi.coeff(J) - evaluate(phi, full)) < 1e-12


def test_gram_norm_oracle():
    g = MetricTensor.diagonal([4.0, 9.0, 1.0, 1.0])
    Q = SimpleVector.basis(4, (1, 2))
    assert abs(gram_norm(Q, g) - 6.0) < 1e-12
    rng = np.random.default_rng(4)
    for _ in range(10):
        M = rng.standard_normal((4, 2))
        A = rng.standard_normal((4, 4))
        gg = MetricTensor(A @ A.T + 4.0 * np.eye(4))
        # oracle: volume of the parallelepiped after Cholesky whitening
        L = np.linalg.cholesky(gg.matrix)
        vol = np.sqrt(np.linalg.det((L.T @ M).T @ (L.T @ M)))
        assert abs(gram_norm(SimpleVector.from_matrix(M), gg) - vol) < 1e-10


def test_pullback_rotation_and_chain():
    theta = np.pi / 2
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    dx1 = AlternatingForm.basis(2, (1,))
    # rotating the frame by 90 degrees sends dx1 to -dx2
    assert pullback(R, dx1).allclose(
        AlternatingForm(2, 1, {(2,): -1.0}), atol=1e-12
    )
    rng = np.random.default_rng(5)
    phi = AlternatingForm(4, 2, rng.standard_normal(6))
    A = rng.standard_normal((4, 3))
    B = rng.standard_normal((3, 3))
    assert pullback(A @ B, phi).allclose(pullback(B, pullback(A, phi)), atol=1e-10)


def test_pullback_consistent_with_evaluate():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((5, 3))
    # a degree-0 form is a constant and pulls back to itself
    assert pullback(A, AlternatingForm(5, 0, {(): 2.5})).coeff(()) == 2.5
    for m in (1, 2, 3):
        phi = AlternatingForm(5, m, rng.standard_normal(math.comb(5, m)))
        pb = pullback(A, phi)
        for _ in range(5):
            M = rng.standard_normal((3, m))
            lhs = evaluate(pb, SimpleVector.from_matrix(M))
            rhs = evaluate(phi, SimpleVector.from_matrix(A @ M))
            assert abs(lhs - rhs) < 1e-10


def test_metric_validation():
    with pytest.raises(ValueError, match="not symmetric"):
        MetricTensor(np.array([[1.0, 0.5], [0.3, 1.0]]))
    with pytest.raises(ValueError, match="not positive definite"):
        MetricTensor(np.diag([1.0, -0.1]))
    with pytest.raises(ValueError, match="not positive definite"):
        MetricTensor(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="finite"):
        MetricTensor(np.array([[1e308, 0.5], [0.5, 1.0]]))
    g = MetricTensor.euclidean(3)
    assert g.inner([1, 0, 0], [0, 1, 0]) == 0.0
    L = MetricTensor.diagonal([4.0, 1.0]).cholesky
    np.testing.assert_allclose(L, np.diag([2.0, 1.0]))


def test_simple_vector_shapes():
    Q = SimpleVector.basis(4, (2, 4))
    assert Q.n == 4 and Q.m == 2
    assert Q.matrix[1, 0] == 1.0 and Q.matrix[3, 1] == 1.0
    with pytest.raises(DimensionMismatchError):
        SimpleVector([np.ones(3), np.ones(4)])
    with pytest.raises(DimensionMismatchError):
        SimpleVector([np.ones(2), np.ones(2), np.ones(2)])
