"""Tests for hemisphere certificates and product-cone obstructions."""

import math

import numpy as np
import pytest

from conekit.exterior import AlternatingForm, MetricTensor
from conekit.obstruction import (
    HemisphereCertificate,
    SpherePointSet,
    constant_calibration_obstruction,
    gauss_image,
    hemisphere_test,
)
from conekit.products import SphereFactor, hypersurface_factor, minimal_product

from oracles import (
    hemisphere_by_lp,
    hypersurface_draws,
    wedge_comass_bound,
    wedge_comass_check,
)

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
    with pytest.raises(ValueError, match="normals"):
        gauss_image(SphereFactor.round(2))
    pts = np.array([[1.0, 0.0, 0.0, 0.0]])
    nor = np.array([[0.0, 1.0, 0.0, 0.0]])
    deep = SphereFactor(dim=1, ambient=3, points=pts, normals=nor)
    with pytest.raises(ValueError, match="codimension"):
        gauss_image(deep)


def test_hemisphere_feasible_cap():
    rng = np.random.default_rng(30)
    pts = SpherePointSet(3, _cap_points(rng, 60))
    cert = hemisphere_test(pts)
    assert cert.verdict == "feasible"
    assert abs(np.linalg.norm(cert.direction) - 1.0) < 1e-9
    # re-verify the certificate by direct arithmetic
    margins = pts.points @ cert.direction
    assert float(np.min(margins)) == pytest.approx(cert.margin)
    assert cert.margin > 0.1
    assert cert.method == "nearest-point"


def test_hemisphere_single_point():
    pts = SpherePointSet(2, np.array([[0.0, 0.0, 1.0]]))
    cert = hemisphere_test(pts)
    assert cert.verdict == "feasible"
    # the 2-norm-best direction for one point is the point itself
    np.testing.assert_allclose(cert.direction, [0.0, 0.0, 1.0], atol=1e-6)
    assert cert.margin > 1.0 - 1e-6


def test_hemisphere_infeasible_antipodal_and_simplex():
    anti = SpherePointSet(2, np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    cert = hemisphere_test(anti)
    assert cert.verdict == "infeasible"
    np.testing.assert_allclose(cert.convex_weights, [0.5, 0.5], atol=1e-9)
    assert cert.residual <= 1e-9
    assert cert.method == "antipodal"

    # no antipodal pair among three points at 120 degrees: the nearest hull
    # point, the origin, decides
    ang = 2.0 * np.pi * np.arange(3) / 3.0
    tri = SpherePointSet(1, np.column_stack([np.cos(ang), np.sin(ang)]))
    cert = hemisphere_test(tri)
    assert cert.verdict == "infeasible" and cert.method == "nearest-point"
    y = cert.convex_weights
    assert np.all(y >= 0.0) and abs(y.sum() - 1.0) <= 1e-9
    assert np.linalg.norm(tri.points.T @ y) <= 1e-9


def test_nearest_point_matches_the_linear_programs():
    # generic sets in S^1 .. S^10 with 1 to 399 points, drawn around a random
    # pole at random concentration so that both verdicts occur; none is built
    # near the decision boundary, where the two tests read different norms
    rng = np.random.default_rng(33)
    verdicts = []
    for _ in range(150):
        d = int(rng.integers(2, 12))
        pole = rng.standard_normal(d)
        X = rng.uniform(0.0, 3.0) * pole / np.linalg.norm(pole) \
            + rng.standard_normal((int(rng.integers(1, 400)), d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        cert = hemisphere_test(SpherePointSet(d - 1, X))
        ref = hemisphere_by_lp(X)
        assert cert.method == "nearest-point"
        assert cert.verdict == ref.verdict
        if cert.verdict == "feasible":
            assert cert.margin == float(np.min(X @ cert.direction))
            assert cert.margin >= ref.margin - 1e-12
        else:
            y = cert.convex_weights
            assert np.all(y >= 0.0) and abs(y.sum() - 1.0) <= 1e-12
            assert cert.residual == float(np.linalg.norm(X.T @ y)) <= 1e-12
        verdicts.append(cert.verdict)
    assert verdicts.count("feasible") >= 30 and verdicts.count("infeasible") >= 30


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
    # without the pair the same set is feasible by its nearest hull point
    cert = hemisphere_test(SpherePointSet(3, np.delete(X, 22, axis=0)))
    assert cert.verdict == "feasible" and cert.method == "nearest-point"


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
    # random draws hold no antipodal pair, so the nearest hull point decides
    _, normals = hypersurface_draws(link, 100, 1)
    draws = SpherePointSet(image.n, normals)
    cert = hemisphere_test(draws)
    assert cert.verdict == "infeasible" and cert.method == "nearest-point"
    assert cert.residual <= 1e-9


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


def test_obstruction_inapplicable_to_hemispherical_image():
    # a latitude circle in S^2: its in-sphere unit normals share the sign of
    # their last coordinate, so the Gauss image sits in an open hemisphere
    theta = 0.4
    phi = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    pts = np.column_stack([
        np.sin(theta) * np.cos(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(theta) * np.ones_like(phi),
    ])
    nor = np.column_stack([
        np.cos(theta) * np.cos(phi),
        np.cos(theta) * np.sin(phi),
        -np.sin(theta) * np.ones_like(phi),
    ])
    circle = SphereFactor(dim=1, ambient=2, points=pts, normals=nor)
    product = minimal_product([circle, SphereFactor.round(2)])
    out = constant_calibration_obstruction(product)
    assert out["obstructed"] is False
    assert out["report"]["certificate"].verdict == "feasible"
    assert out["report"]["certificate"].method == "nearest-point"
    cert = out["report"]["certificate"]
    assert np.min(nor @ cert.direction) == cert.margin > 0.0


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
