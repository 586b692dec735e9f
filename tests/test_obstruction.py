"""Tests for hemisphere certificates and product-cone obstructions."""

import math

import numpy as np
import pytest

from conekit.exterior import AlternatingForm, MetricTensor
from conekit.obstruction import constant_calibration_obstruction, hemisphere_test
from conekit.products import SphereFactor, hypersurface_factor, minimal_product

from oracles import wedge_comass_bound, wedge_comass_check

CHEAP = {"restarts": 8, "max_iters": 200, "seed": 0}


def test_gauss_image_requirements():
    # the first factor of the product is read: round, of codimension 2, or
    # of codimension 1 without normals
    sphere = SphereFactor.round(2)
    deep = SphereFactor(dim=1, ambient=3, normals=((1.0, 0.0), (-1.0, -0.0)))
    bare = SphereFactor(dim=2, ambient=3)
    for first, match in ((sphere, "codimension"), (deep, "codimension"), (bare, "no normals")):
        with pytest.raises(ValueError, match=match):
            constant_calibration_obstruction(minimal_product([first, sphere]))


def test_hemisphere_infeasible_antipodal_and_simplex():
    cert = hemisphere_test(((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)))
    assert cert.verdict == "infeasible" and cert.method == "antipodal"
    assert cert.convex_weights == (0.5, 0.5)
    assert cert.residual == 0.0


def test_hemisphere_test_rejects_a_set_without_an_antipodal_pair():
    # only an exact antipodal pair is a certificate, and no spec yields
    # another pair: nearly antipodal, orthogonal, or of unequal lengths fail
    x = (0.6, 0.8)
    for y in ((-0.6, math.nextafter(-0.8, 0.0)), (-0.8, 0.6), (-0.6, -0.8, 0.0),
              (float("nan"), -0.8)):
        with pytest.raises(ValueError, match="antipodal"):
            hemisphere_test((x, y))


def test_hypersurface_gauss_image_is_obstructed_exactly():
    link = minimal_product([SphereFactor.round(1), SphereFactor.round(2)])
    pair = hypersurface_factor(link).normals
    assert len(pair) == 2
    cert = hemisphere_test(pair)
    assert cert.verdict == "infeasible" and cert.method == "antipodal"
    assert cert.residual == 0.0 and cert.convex_weights == (0.5, 0.5)
    assert [0.5 * a + 0.5 * b for a, b in zip(*pair)] == [0.0, 0.0]


def test_clifford_gauss_image_not_hemispherical():
    link = minimal_product([SphereFactor.round(1), SphereFactor.round(1)])
    cert = hemisphere_test(hypersurface_factor(link).normals)
    assert cert.verdict == "infeasible" and cert.method == "antipodal"
    assert cert.residual == 0.0


def test_gauss_image_size_does_not_grow_with_dimension():
    # the pair is held in the coordinates of the plane of nu, so a product
    # of dimension 10^6 + 1 still gives two points of S^1
    link = minimal_product([SphereFactor.round(10**6), SphereFactor.round(1)])
    pair = hypersurface_factor(link).normals
    lam1, lam2 = map(float, link.lambdas)
    assert pair == ((lam2, -lam1), (-lam2, lam1))
    assert all(type(v) is float for point in pair for v in point)
    cert = hemisphere_test(pair)
    assert cert.convex_weights == (0.5, 0.5) and cert.residual == 0.0


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
