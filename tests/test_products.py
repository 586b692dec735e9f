"""Tests for scaled sphere products and their exact curvature data."""

import importlib
import json
import math

import numpy as np
import pytest

from conekit import cli, gluing, lawlor, obstruction, products
from conekit.products import (
    NormalRadiusEstimate,
    ProductLink,
    SphereFactor,
    curvature_model,
    hypersurface_factor,
    minimal_product,
    normal_radius,
    replication_search,
)
from oracles import (
    block_slices,
    embedded_pair,
    factor_draws,
    numeric_second_fundamental_form,
)


def _clifford():
    return minimal_product([SphereFactor.round(1), SphereFactor.round(1)])


def _simons():
    return minimal_product([SphereFactor.round(3), SphereFactor.round(3)])


def _point(link, i, samples, seed):
    """Factor coordinates of the i-th of ``samples`` seeded draws."""
    return [pts[i] for pts in factor_draws(link, samples, seed)]


def test_sphere_factor_validation():
    f = SphereFactor.round(3)
    assert f.is_round and f.dim == 3 and f.ambient == 3
    with pytest.raises(ValueError):
        SphereFactor(dim=0, ambient=2)
    with pytest.raises(ValueError):
        SphereFactor(dim=3, ambient=2)
    # a factor holds no sample points; one that carries normals is not round
    assert "points" not in SphereFactor.__dataclass_fields__
    assert not SphereFactor(dim=2, ambient=2, normals=((1.0, 0.0), (-1.0, -0.0))).is_round


def test_minimal_product_assembly():
    link = minimal_product([SphereFactor.round(1), SphereFactor.round(3)])
    assert link.k == 4 and link.ambient_sphere_dim == 5
    np.testing.assert_allclose(link.lambdas, [0.5, math.sqrt(3) / 2])


def test_round_products_draw_no_samples():
    # a product holds its factors and their exact scales and nothing that
    # could hold sample points; the exact curvature data need none
    simons = minimal_product([SphereFactor.round(3)] * 2)
    curvature_model(simons)
    normal_radius(simons)
    assert set(vars(simons)) == {"factors", "lambdas", "k", "ambient_sphere_dim"}
    with pytest.raises(TypeError):
        minimal_product([SphereFactor.round(1)], samples=5)
    # the test sampler draws from one generator factor by factor
    link = minimal_product([SphereFactor.round(3), SphereFactor.round(2)])
    rng = np.random.default_rng(9)
    first = rng.standard_normal((5, 4))
    last = rng.standard_normal((5, 3))
    pts = factor_draws(link, 5, 9)
    unit = np.linalg.norm
    np.testing.assert_array_equal(pts[0], first / unit(first, axis=1, keepdims=True))
    np.testing.assert_array_equal(pts[1], last / unit(last, axis=1, keepdims=True))


def test_clifford_shape_matrix_eigenvalues():
    link = _clifford()
    xs = _point(link, 0, 40, 0)
    b = np.array([1.0, -1.0]) / math.sqrt(2)
    v = np.zeros(4)
    for i, sl in enumerate(block_slices(link)):
        v[sl] = b[i] * xs[i]
    H = numeric_second_fundamental_form(link, xs, v)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(H)), [-1.0, 1.0],
                               atol=1e-6)


def test_unequal_product_principal_curvatures():
    # S^1 x S^3 scaled by (1/2, sqrt(3)/2): the single mixing normal has
    # shape eigenvalues -sqrt(3) on the circle block and 1/sqrt(3) thrice
    link = minimal_product([SphereFactor.round(1), SphereFactor.round(3)])
    lam = link.lambdas
    xs = _point(link, 2, 10, 4)
    b = np.array([lam[1], -lam[0]])
    v = np.zeros(link.ambient_sphere_dim + 1)
    for i, sl in enumerate(block_slices(link)):
        v[sl] = b[i] * xs[i]
    H = numeric_second_fundamental_form(link, xs, v)
    eigs = np.sort(np.linalg.eigvalsh(H))
    expected = [-math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3),
                1 / math.sqrt(3)]
    np.testing.assert_allclose(eigs, expected, atol=1e-6)
    # minimality: every shape matrix is trace free
    assert abs(np.trace(H)) < 1e-6


def test_sff_rejects_bad_normals():
    link = _clifford()
    xs = _point(link, 0, 40, 0)
    with pytest.raises(ValueError, match="unit"):
        numeric_second_fundamental_form(link, xs, np.zeros(4))
    x0 = np.concatenate([lam * x for lam, x in zip(link.lambdas, xs)])
    with pytest.raises(ValueError, match="orthogonal"):
        numeric_second_fundamental_form(link, xs, x0)


def test_curvature_model_clifford():
    model = curvature_model(_clifford())
    assert model.k == 2
    assert model.alpha == math.sqrt(2)
    assert model.p2 == -1.0
    for t in (0.0, 0.3, 0.7):
        assert abs(model.p_fn(t) - (1.0 - t * t)) < 1e-15


def test_curvature_model_equal_three_spheres():
    model = curvature_model(_simons())
    assert model.k == 6
    assert model.alpha == math.sqrt(6)
    assert model.p2 == -3.0
    assert abs(model.p_fn(0.5) - 0.421875) < 1e-15


def test_curvature_model_single_round_factor():
    link = minimal_product([SphereFactor.round(3)])
    model = curvature_model(link)
    assert model.alpha == 0.0 and model.p2 == 0.0 and model.p_fn(0.4) == 1.0


def test_normal_radius_clifford_is_quarter_pi():
    est = normal_radius(_clifford())
    assert isinstance(est, NormalRadiusEstimate)
    assert abs(float(est) - math.pi / 4) < 1e-6
    assert est.binding == "focal"


def test_normal_radius_totally_geodesic_equator():
    link = minimal_product([SphereFactor.round(3)])
    est = normal_radius(link)
    assert float(est) == math.pi / 2 and est.binding == "hemisphere-cap"


def test_hypersurface_factor_round_trip():
    link = _simons()
    factor = hypersurface_factor(link)
    assert factor.dim == link.k and factor.ambient == link.ambient_sphere_dim
    assert not factor.is_round
    # the normals are held in the plane of the two blocks' e_0; embedded
    # there, they are unit, tangent to the sphere at p and at -p, and opposite
    p, embed = embedded_pair(link)
    normals = np.array(factor.normals) @ embed
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
    assert np.all(np.sum(normals * p, axis=1) == 0.0)
    assert np.array_equal(normals[1], -normals[0])
    # nu(p) = (lambda_2 e_0, -lambda_1 e_0)
    lam1, lam2 = link.lambdas
    np.testing.assert_array_equal(normals[0][[0, 4]], [lam2, -lam1])
    triple = minimal_product([SphereFactor.round(1)] * 3)
    with pytest.raises(ValueError, match="two-factor"):
        hypersurface_factor(triple)


def test_replication_search_small_products_fail():
    # a few circles are far too curved relative to their normal radius
    out = replication_search(SphereFactor.round(1), 4, "F")
    assert out["n_pass"] is None
    assert [n for n, _ in out["verdicts"]] == [2, 3, 4]
    assert all(not v.passes for _, v in out["verdicts"])
    with pytest.raises(ValueError):
        replication_search(SphereFactor.round(1), 1)


def test_replication_builds_every_link_before_a_descent(monkeypatch):
    # 256 circles is the largest count whose Taylor data fit a float; a
    # search past it fails before its first descent
    calls = []
    monkeypatch.setattr(products, "check_area_minimizing",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="k = 257"):
        replication_search(SphereFactor.round(1), 260, "F")
    assert calls == []
    links = products.replication_links(SphereFactor.round(1), 256)
    assert [n for n, _ in links] == list(range(2, 257))
    assert all(data.curvature.k == n for n, data in links)


def test_certify_descends_on_the_model_curvature_model_returns(tmp_path, monkeypatch):
    # the contract of perfbench/tracer.py: it swaps the p_fn field of the
    # model products.curvature_model returns, and the certify descent must
    # call that field; it also needs these imported names to stay bound
    comass_fn = importlib.import_module("conekit.comass").comass
    assert cli._comass is comass_fn and gluing.comass is comass_fn
    assert obstruction.comass is comass_fn
    assert products.check_area_minimizing is lawlor.check_area_minimizing
    spec = tmp_path / "s3xs3.json"
    spec.write_text(json.dumps({"factors": [{"type": "sphere", "dim": 3}] * 2}))
    argv = ["certify-cone", "--spec", str(spec), "--control", "custom", "--out"]
    assert cli.main([*argv, str(tmp_path / "plain")]) == 0
    calls = []
    build = products.curvature_model

    def wrapped_model(link):
        model = build(link)
        p_fn = model.p_fn

        def counted(t):
            calls.append(t)
            return p_fn(t)

        object.__setattr__(model, "p_fn", counted)
        return model

    monkeypatch.setattr(products, "curvature_model", wrapped_model)
    assert cli.main([*argv, str(tmp_path / "wrapped")]) == 0
    assert len(calls) > 100
    assert ((tmp_path / "wrapped" / "report.json").read_bytes()
            == (tmp_path / "plain" / "report.json").read_bytes())
