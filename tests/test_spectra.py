"""Exact curvature data of round-sphere products against the
finite-difference, dense-search and explicit-chord oracles they replace."""

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conekit import lawlor, products
from conekit.cli import main
from conekit.lawlor import (
    CurvatureModel,
    LinkData,
    check_area_minimizing,
    second_order_coeffs,
)
from conekit.products import (
    SphereFactor,
    curvature_model,
    minimal_product,
    normal_radius,
)
from oracles import (
    _sff_vectors,
    block_slices,
    build_smooth_profile,
    double_normal_chords,
    factor_draws,
    geodesic_chord,
    integrate_fastest,
    numeric_second_fundamental_form,
    p_by_normal_search,
    p_over_subset_sums,
    shape_spectrum,
    unit_mixing_normals,
)

PRODUCTS = [(1, 1), (1, 3), (2, 3), (3, 3), (1, 2, 3), (1, 1, 1, 1), (2, 2, 4)]


def _link(dims):
    return minimal_product([SphereFactor.round(d) for d in dims])


def _point(link, i, samples=30, seed=0):
    """Factor coordinates of the i-th of ``samples`` seeded draws."""
    return [pts[i] for pts in factor_draws(link, samples, seed)]


def _normal(link, xs, b):
    v = np.zeros(link.ambient_sphere_dim + 1)
    for i, sl in enumerate(block_slices(link)):
        v[sl] = b[i] * xs[i]
    return v


def _t_focal(link):
    return math.tan(normal_radius(link).value)


@pytest.mark.parametrize("dims", PRODUCTS)
def test_spectra_match_finite_difference_eigenvalues(dims):
    link = _link(dims)
    rng = np.random.default_rng(sum(dims))
    for b in unit_mixing_normals(link, rng, 4):
        xs = _point(link, int(rng.integers(30)))
        H = numeric_second_fundamental_form(link, xs, _normal(link, xs, b))
        np.testing.assert_allclose(np.sort(shape_spectrum(link, b)),
                                   np.linalg.eigvalsh(H), atol=1e-6)


@pytest.mark.parametrize("dims", PRODUCTS)
def test_every_row_norm_is_sqrt_k(dims):
    link = _link(dims)
    bs = unit_mixing_normals(link, np.random.default_rng(5), 64)
    norms = [np.linalg.norm(shape_spectrum(link, b)) for b in bs]
    np.testing.assert_allclose(norms, math.sqrt(link.k), rtol=0, atol=1e-12)
    assert curvature_model(link).alpha == math.sqrt(link.k)


def test_cli_simons_alpha_is_sqrt_six(tmp_path):
    spec = tmp_path / "simons.json"
    spec.write_text(json.dumps({"factors": [{"type": "sphere", "dim": 3}] * 2,
                                "samples": 40}))
    out = tmp_path / "out"
    assert main(["certify-cone", "--spec", str(spec), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["alpha"] - math.sqrt(6)) <= 1e-12
    assert report["status"] == "passes"


@pytest.mark.parametrize("dims", [(2, 4), (1, 3, 5)])
def test_cli_certify_report_says_inputs_are_exact(tmp_path, dims):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"factors": [{"type": "sphere", "dim": d}
                                            for d in dims], "samples": 60}))
    out = tmp_path / "out"
    assert main(["certify-cone", "--spec", str(spec), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["inputs"] == "exact"
    assert report["p2"] == -sum(dims) / 2
    assert report["alpha"] == math.sqrt(sum(dims))
    assert report["radius_binding"] == "focal"
    R = math.asin(math.sqrt(min(dims) / sum(dims)))
    assert abs(report["normal_radius"] - R) <= 1e-15


def _stationary_normals(link):
    """The unit mixing normals where log p is stationary: beta_i = b_i /
    lambda_i is sqrt((k - j)/j) on the factors of a proper subset, of
    dimension j, and -sqrt(j/(k - j)) on the rest."""
    k, n = link.k, link.n_factors
    out = []
    for mask in range(1, 2 ** n - 1):
        inside = np.array([mask >> i & 1 for i in range(n)], dtype=bool)
        j = sum(f.dim for f, s in zip(link.factors, inside) if s)
        beta = np.where(inside, math.sqrt((k - j) / j), -math.sqrt(j / (k - j)))
        out.append(beta * link.lambdas)
    return out


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 1, 2)])
def test_p_fn_matches_determinant_oracle(dims):
    # p(t) is the least det(I - t h^v) over the stationary normals, with
    # h^v the finite-difference shape matrix
    link = _link(dims)
    xs = _point(link, 0)
    S, _ = _sff_vectors(link, xs)
    mats = []
    for b in _stationary_normals(link):
        assert abs(np.linalg.norm(b) - 1.0) <= 1e-12 and abs(b @ link.lambdas) <= 1e-12
        H = S @ _normal(link, xs, b)
        mats.append(0.5 * (H + H.T))
    eye = np.eye(link.k)
    model = curvature_model(link)
    for t in np.linspace(0.0, _t_focal(link), 21):
        oracle = float(np.min(np.linalg.det(eye - t * np.asarray(mats))))
        assert abs(model.p_fn(t) - oracle) <= 1e-6


PRODUCT_DRAWS = [tuple(int(d) for d in np.random.default_rng(s).integers(1, 6, n))
                 for s, n in ((0, 2), (1, 3), (2, 3), (3, 4), (4, 4))]


@pytest.mark.parametrize("dims", PRODUCT_DRAWS)
def test_p_fn_is_the_infimum_over_dense_normals(dims):
    # no unit normal of 1e5 random ones goes below the exact p, and the
    # best of them comes within 1e-4 of it
    link = _link(dims)
    model = curvature_model(link)
    ts = np.linspace(0.0, _t_focal(link), 10, endpoint=False)[1:]
    search = p_by_normal_search(link, ts, np.random.default_rng(sum(dims)))
    exact = np.array([model.p_fn(t) for t in ts])
    assert np.all(exact - search <= 1e-12 * np.abs(search))
    assert np.all(search - exact <= 1e-4)


@pytest.mark.parametrize("dims", PRODUCTS + [(1, 5), (2, 2, 2, 3)])
def test_p2_is_minus_half_k(dims):
    link = _link(dims)
    k = link.k
    model = curvature_model(link)
    assert abs(model.p2 + k / 2) <= 1e-15
    # every term (1 + a t)^j (1 - b t)^(k-j) is 1 + 0 t - (k/2) t^2 + ...,
    # in exact arithmetic: a b = 1, a^2 = (k-j)/j, b^2 = j/(k-j)
    for b in _stationary_normals(link):
        j = sum(f.dim for f, x in zip(link.factors, b) if x > 0)
        a2, b2 = Fraction(k - j, j), Fraction(j, k - j)
        assert j * j * a2 == (k - j) ** 2 * b2  # the linear terms cancel
        c2 = (Fraction(j * (j - 1), 2) * a2
              + Fraction((k - j) * (k - j - 1), 2) * b2 - j * (k - j))
        assert c2 == Fraction(-k, 2)
    h = 1e-5
    assert abs((model.p_fn(h) - 1.0) / h ** 2 + k / 2) <= 1e-3 * k


def _round_products(n_factors):
    """Every product of n_factors round spheres of dimension 1..7."""
    return [_link(dims) for dims in
            itertools.combinations_with_replacement(range(1, 8), n_factors)]


def test_single_term_is_the_least_over_subset_sums():
    # p_fn is the term j* = k - k_min, equal to the least term bit for bit
    # wherever a descent reads it, [0, t_focal]
    links = [link for n in (2, 3, 4) for link in _round_products(n)]
    assert len(links) == 322
    for link in links:
        p, ref = curvature_model(link).p_fn, p_over_subset_sums(link)
        for t in np.linspace(0.0, _t_focal(link), 401):
            assert p(t) == ref(t), ([f.dim for f in link.factors], t)


def test_single_term_gives_the_subset_sum_verdicts():
    lanes = 0
    for link in _round_products(2) + _round_products(3):
        model, radius = curvature_model(link), normal_radius(link).value
        verdicts = [check_area_minimizing(LinkData(replace(model, p_fn=p_fn), radius), "custom")
                    for p_fn in (model.p_fn, p_over_subset_sums(link))]
        assert verdicts[0] == verdicts[1], [f.dim for f in link.factors]
        lanes += 1
    assert lanes == 112


@pytest.mark.parametrize("dims", PRODUCTS + [(3,), (1, 5), (2, 2, 2, 3)])
def test_focal_bound_closed_form(dims):
    link = _link(dims)
    k, k_min = sum(dims), min(dims)
    est = normal_radius(link)
    if len(dims) == 1:
        assert est.value == math.pi / 2 and est.binding == "hemisphere-cap"
        return
    expected = math.atan(math.sqrt(k_min / (k - k_min)))
    assert abs(est.value - expected) <= 1e-12 and est.binding == "focal"
    assert abs(est.value - math.asin(min(link.lambdas))) <= 1e-12
    # the largest principal curvature sits on the normal closest to the
    # smallest factor's axis, where the finite-difference shape matrix
    # agrees with it, and no random normal exceeds it
    axes = []
    for i in range(link.n_factors):
        b = -link.lambdas[i] * link.lambdas
        b[i] += 1.0
        axes.append(b / np.linalg.norm(b))
    kappa = max(np.max(np.abs(shape_spectrum(link, b))) for b in axes)
    assert abs(math.atan(1.0 / kappa) - expected) <= 1e-12
    randoms = unit_mixing_normals(link, np.random.default_rng(0), 200)
    assert max(np.max(np.abs(shape_spectrum(link, b))) for b in randoms) <= kappa + 1e-12
    xs = _point(link, 0)
    fd = max(np.max(np.abs(np.linalg.eigvalsh(
        numeric_second_fundamental_form(link, xs, _normal(link, xs, b)))))
        for b in axes)
    assert abs(fd - kappa) <= 1e-6
    # and p closes the band there
    assert abs(curvature_model(link).p_fn(math.tan(est.value))) <= 1e-12


@pytest.mark.parametrize("dims", [(1,) * 12, (1, 2, 3), (3, 3), (2, 2, 2, 2)],
                         ids=["12-circles", "S1xS2xS3", "S3xS3", "S2^4"])
def test_normal_radius_matches_double_normal_oracle(dims):
    # half the shortest chord normal to the link at both ends, over every
    # such chord from a sample point, is the normal radius
    link = _link(dims)
    chords = double_normal_chords(link, _point(link, 3, samples=5, seed=sum(dims)))
    assert max(tangential for *_, tangential in chords) <= 1e-12
    flipped, half, _ = min(chords, key=lambda chord: chord[1])
    assert abs(normal_radius(link).value - half) <= 1e-12
    assert len(flipped) == 1 and link.factors[flipped[0]].dim == min(dims)


NEAR_ANTIPODAL = [(12, 1), (20, 1), (4, 1), (20, 2), (40, 2)]
DELTA = 0.05


def _near_antipodal(copies, turned):
    """Product of circles and two of its points that agree in every factor
    but the first ``turned``, where they are antipodal up to an angle
    DELTA."""
    link = _link((1,) * copies)
    xs = _point(link, 0)
    c, s = math.cos(math.pi - DELTA), math.sin(math.pi - DELTA)
    ys = [np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]]) if i < turned else x
          for i, x in enumerate(xs)]
    return link, xs, ys


@pytest.mark.parametrize("copies, turned", NEAR_ANTIPODAL,
                         ids=[f"{c}-circles-{t}-turned" for c, t in NEAR_ANTIPODAL])
def test_near_antipodal_sample_pair_is_not_a_double_normal(copies, turned):
    # the pair a sampled self-avoidance sweep would take: its chord is
    # shorter than the reach when one factor is turned, but it has a
    # tangential part, while the exactly antipodal pair is a double normal
    # no shorter than the normal radius
    link, xs, ys = _near_antipodal(copies, turned)
    R = normal_radius(link).value
    assert abs(R - math.asin(math.sqrt(1.0 / copies))) <= 1e-12
    half, tangential = geodesic_chord(link, xs, ys)
    expected = 0.5 * math.acos(1.0 - turned * (1.0 + math.cos(DELTA)) / copies)
    assert abs(half - expected) <= 1e-12
    assert tangential > 0.01
    if turned == 1:
        assert half < R - 1e-5
    flipped = [-x if i < turned else x for i, x in enumerate(xs)]
    half, tangential = geodesic_chord(link, xs, flipped)
    assert tangential <= 1e-12 and half >= R - 1e-12
    assert (abs(half - R) <= 1e-12) == (turned == 1)


def test_avoidance_bound_finite_without_binding():
    # the 2-turned pair in 40 circles is a chord of finite half length, below
    # pi/2 and in closed form, yet longer than the reach and not normal, so
    # the focal distance still sets the normal radius
    link, xs, ys = _near_antipodal(40, 2)
    half, tangential = geodesic_chord(link, xs, ys)
    assert half < math.pi / 2
    expected = 0.5 * math.acos(1.0 - 2.0 * (1.0 + math.cos(DELTA)) / 40)
    assert abs(half - expected) <= 1e-12
    assert tangential > 0.01
    est = normal_radius(link)
    assert est.binding == "focal" and est.value < half
    assert abs(est.value - math.atan(math.sqrt(1.0 / 39))) <= 1e-12


SIMONS_TAYLOR = (1.0, 0.0, -3.0, 0.0, 3.0, 0.0, -1.0)  # (1 - t^2)^3


def _nan_after(t_stop):
    return lambda t: (1.0 - t * t) ** 3 if t <= t_stop else float("nan")


def test_ode_failure_raises():
    # p turns NaN at t = 0.25, between the series start (0.157) and the hit
    model = CurvatureModel(6, math.sqrt(6), _nan_after(0.25), SIMONS_TAYLOR)
    with pytest.raises(RuntimeError, match="descent ODE failed at t = 0.25"):
        integrate_fastest(model)
    data = LinkData(model, 0.8)
    with pytest.raises(RuntimeError):
        check_area_minimizing(data, "custom")
    a_min, a_max = second_order_coeffs(6, -3.0)
    late = CurvatureModel(6, math.sqrt(6), _nan_after(0.2), SIMONS_TAYLOR)
    with pytest.raises(RuntimeError):
        build_smooth_profile(late, 0.5 * (a_min + a_max), 0.05, 0.02)


def test_ode_failure_in_early_leg_raises():
    # p turns NaN at t = 0.05, before the series start: the start's own
    # band check raises
    model = CurvatureModel(6, math.sqrt(6), _nan_after(0.05), SIMONS_TAYLOR)
    with pytest.raises(RuntimeError, match="descent ODE failed"):
        integrate_fastest(model)
    with pytest.raises(RuntimeError, match="descent ODE failed"):
        lawlor._angle(model)


def test_cli_ode_failure_exits_three_with_manifest(tmp_path, monkeypatch):
    nan_model = CurvatureModel(6, math.sqrt(6), _nan_after(0.25), SIMONS_TAYLOR)
    monkeypatch.setattr(products, "curvature_model", lambda link, **kw: nan_model)
    spec = tmp_path / "simons.json"
    spec.write_text(json.dumps({"factors": [{"type": "sphere", "dim": 3}] * 2,
                                "samples": 20}))
    out = tmp_path / "out"
    assert main(["certify-cone", "--spec", str(spec), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3 and manifest["command"] == "certify-cone"
    assert manifest["wall_s"] >= 0.0
