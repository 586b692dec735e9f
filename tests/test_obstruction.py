"""Tests for hemisphere certificates and product-cone obstructions."""

import math

import numpy as np
import pytest

from conekit.exterior import AlternatingForm, MetricTensor
from conekit.obstruction import (
    SpherePointSet,
    constant_calibration_obstruction,
    gauss_image,
    hemisphere_test,
)
from conekit.products import SphereFactor, hypersurface_factor, minimal_product

from oracles import wedge_comass_bound, wedge_comass_check

CHEAP = {"restarts": 8, "max_iters": 200, "seed": 0}


def _cap_points(rng, count, height=0.6):
    """Random unit vectors with last coordinate at least ``height``."""
    pts = []
    while len(pts) < count:
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        if v[-1] >= height:
            pts.append(v)
    return np.asarray(pts)


def test_point_set_validation():
    with pytest.raises(ValueError, match="unit"):
        SpherePointSet(2, np.array([[1.0, 1.0, 0.0]]))
    with pytest.raises(ValueError):
        SpherePointSet(2, np.zeros((0, 3)))
    ps = SpherePointSet(1, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert ps.points.shape == (2, 2)


def test_gauss_image_requirements():
    with pytest.raises(ValueError, match="codimension"):
        gauss_image(SphereFactor.round(2))
    deep = SphereFactor(dim=1, ambient=3, normals=np.eye(2))
    with pytest.raises(ValueError, match="codimension"):
        gauss_image(deep)
    with pytest.raises(ValueError, match="no normals"):
        gauss_image(SphereFactor(dim=2, ambient=3))


def test_hemisphere_infeasible_antipodal_and_simplex():
    anti = SpherePointSet(2, np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    cert = hemisphere_test(anti)
    assert cert.verdict == "infeasible"
    np.testing.assert_allclose(cert.convex_weights, [0.5, 0.5], atol=1e-9)
    assert cert.residual <= 1e-9
    assert cert.method == "antipodal"


def test_hemisphere_test_rejects_a_set_without_an_antipodal_pair():
    # the origin lies in the hull of three points at 120 degrees, but only
    # an exact antipodal pair is a certificate, and no spec yields another set
    ang = 2.0 * np.pi * np.arange(3) / 3.0
    tri = SpherePointSet(1, np.column_stack([np.cos(ang), np.sin(ang)]))
    with pytest.raises(ValueError, match="antipodal"):
        hemisphere_test(tri)


def test_antipodal_pair_fires_in_a_mixed_set():
    # a cap sample holds no antipodal pair; one inserted pair decides the
    # test exactly, also when x has a zero coordinate and -x a -0.0
    rng = np.random.default_rng(32)
    X = _cap_points(rng, 30)
    x = np.array([0.0, 0.6, 0.0, 0.8])
    X = np.insert(X, 7, x, axis=0)
    X = np.insert(X, 22, -x, axis=0)
    assert np.signbit(X[22, 0])
    cert = hemisphere_test(SpherePointSet(3, X))
    assert cert.verdict == "infeasible" and cert.method == "antipodal"
    assert np.flatnonzero(cert.convex_weights).tolist() == [7, 22]
    assert cert.convex_weights[7] == cert.convex_weights[22] == 0.5
    assert cert.residual == 0.0


def test_hypersurface_gauss_image_is_obstructed_exactly():
    link = minimal_product([SphereFactor.round(1), SphereFactor.round(2)])
    image = gauss_image(hypersurface_factor(link))
    assert len(image.points) == 2
    cert = hemisphere_test(image)
    assert cert.verdict == "infeasible" and cert.method == "antipodal"
    assert cert.residual == 0.0
    y = cert.convex_weights
    assert np.flatnonzero(y).tolist() == [0, 1] and y[0] == y[1] == 0.5
    assert np.all(image.points.T @ y == 0.0)


def test_clifford_gauss_image_not_hemispherical():
    link = minimal_product([SphereFactor.round(1), SphereFactor.round(1)])
    image = gauss_image(hypersurface_factor(link))
    cert = hemisphere_test(image)
    assert cert.verdict == "infeasible" and cert.method == "antipodal"
    assert cert.residual == 0.0


def test_gauss_image_size_does_not_grow_with_dimension():
    # the pair is held in the coordinates of the plane of nu, so a product
    # of dimension 10^6 + 1 still gives two points of S^1
    link = minimal_product([SphereFactor.round(10**6), SphereFactor.round(1)])
    image = gauss_image(hypersurface_factor(link))
    assert image.n == 1 and image.points.shape == (2, 2)
    lam1, lam2 = link.lambdas
    assert image.points.tolist() == [[lam2, -lam1], [-lam2, lam1]]
    cert = hemisphere_test(image)
    assert cert.convex_weights.tolist() == [0.5, 0.5] and cert.residual == 0.0


def test_obstruction_torus_cross_sphere():
    torus = minimal_product([SphereFactor.round(1), SphereFactor.round(1)])
    product = minimal_product([hypersurface_factor(torus), SphereFactor.round(3)])
    out = constant_calibration_obstruction(product)
    assert out["obstructed"] is True
    rep = out["report"]
    assert rep["certificate"].verdict == "infeasible"
    assert rep["certificate"].residual == 0.0
    assert rep["certificate"].method == "antipodal"
    assert rep["gauss_points"] == 2
    assert abs(rep["lambda1"] - math.sqrt(2.0 / 5.0)) < 1e-12


def test_obstruction_requires_codimension_one_first_factor():
    link = minimal_product([SphereFactor.round(1), SphereFactor.round(3)])
    with pytest.raises(ValueError, match="codimension"):
        constant_calibration_obstruction(link)


def test_wedge_comass_bound_values():
    assert wedge_comass_bound(1.0, 1, 1.0, 1) == 2.0
    assert wedge_comass_bound(1.0, 2, 1.0, 2) == 6.0
    assert wedge_comass_bound(0.5, 1, 2.0, 3) == 4.0
    with pytest.raises(ValueError):
        wedge_comass_bound(-1.0, 1, 1.0, 1)
    with pytest.raises(ValueError):
        wedge_comass_bound(1.0, 0, 1.0, 1)


def test_wedge_comass_check_examples():
    g2 = MetricTensor.euclidean(2)
    dx = AlternatingForm.basis(2, (1,))
    out = wedge_comass_check(dx, g2, dx, g2, comass_opts=CHEAP)
    assert out["ok"]
    assert abs(out["measured"] - 1.0) < 1e-8
    assert abs(out["bound"] - 2.0) < 1e-12

    g4 = MetricTensor.euclidean(4)
    kahler = AlternatingForm(4, 2, {(1, 2): 1.0, (3, 4): 1.0})
    out = wedge_comass_check(kahler, g4, kahler, g4, comass_opts=CHEAP)
    assert out["ok"]
    assert out["measured"] <= out["bound"] + 1e-6
    assert out["block_comasses"] == pytest.approx((1.0, 1.0), abs=1e-8)


def test_wedge_comass_check_random_pairs():
    rng = np.random.default_rng(31)
    for trial in range(5):
        phi1 = AlternatingForm(3, 1, rng.standard_normal(3))
        phi2 = AlternatingForm(3, 2, rng.standard_normal(3))
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        g1 = MetricTensor(A @ A.T + 3.0 * np.eye(3))
        g2 = MetricTensor(B @ B.T + 3.0 * np.eye(3))
        out = wedge_comass_check(phi1, g1, phi2, g2, comass_opts=CHEAP)
        assert out["ok"]
