"""Closed-form curvature data of round-sphere products against the
finite-difference and per-point oracles they replace."""

import json
import math

import numpy as np
import pytest

from conekit import products
from conekit.cli import main
from conekit.lawlor import (
    CurvatureModel,
    LinkData,
    build_smooth_profile,
    check_area_minimizing,
    integrate_fastest,
    second_order_coeffs,
    vanishing_angle,
)
from conekit.products import (
    SphereFactor,
    _normal_grid,
    _shape_spectra,
    curvature_model,
    minimal_product,
    normal_radius,
)
from oracles import _sff_vectors, numeric_second_fundamental_form

PRODUCTS = [(1, 1), (1, 3), (2, 3), (3, 3), (1, 2, 3), (1, 1, 1, 1), (2, 2, 4)]


def _link(dims, samples=30, seed=0):
    return minimal_product([SphereFactor.round(d) for d in dims],
                           samples=samples, seed=seed)


def _normal(link, xs, b):
    v = np.zeros(link.ambient_sphere_dim + 1)
    for i, sl in enumerate(link.block_slices):
        v[sl] = b[i] * xs[i]
    return v


def _random_unit_normals(link, rng, count):
    lam = link.lambdas
    b = rng.standard_normal((count, link.n_factors))
    b -= np.outer(b @ lam, lam)
    return b / np.linalg.norm(b, axis=1, keepdims=True)


@pytest.mark.parametrize("dims", PRODUCTS)
def test_spectra_match_finite_difference_eigenvalues(dims):
    link = _link(dims)
    rng = np.random.default_rng(sum(dims))
    bs = _random_unit_normals(link, rng, 4)
    table = _shape_spectra(link, bs)
    assert table.shape == (link.k, 4)
    for col, b in enumerate(bs):
        xs = link.point_tuple(int(rng.integers(len(link.factor_points[0]))))
        H = numeric_second_fundamental_form(link, xs, _normal(link, xs, b))
        np.testing.assert_allclose(np.sort(table[:, col]),
                                   np.linalg.eigvalsh(H), atol=1e-6)


@pytest.mark.parametrize("dims", PRODUCTS)
def test_every_row_norm_is_sqrt_k(dims):
    link = _link(dims)
    bs = _normal_grid(link, np.random.default_rng(5), 64)
    norms = np.linalg.norm(_shape_spectra(link, bs), axis=0)
    np.testing.assert_allclose(norms, math.sqrt(link.k), rtol=0, atol=1e-12)
    assert abs(curvature_model(link).alpha - math.sqrt(link.k)) <= 1e-12


def test_cli_simons_alpha_is_sqrt_six(tmp_path):
    spec = tmp_path / "simons.json"
    spec.write_text(json.dumps({"factors": [{"type": "sphere", "dim": 3}] * 2,
                                "samples": 40}))
    out = tmp_path / "out"
    assert main(["certify-cone", "--spec", str(spec), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["alpha"] - math.sqrt(6)) <= 1e-12
    assert report["status"] == "passes"


def _determinant_oracle(link, point_samples, normal_samples, seed):
    """p(t) as the minimum of det(I - t h^v) over finite-difference shape
    matrices on the same normal draws as curvature_model."""
    rng = np.random.default_rng(seed)
    mats = []
    for p_idx in range(point_samples):
        xs = link.point_tuple(p_idx)
        S, _ = _sff_vectors(link, xs)
        for b in _normal_grid(link, rng, normal_samples):
            H = S @ _normal(link, xs, b)
            H = 0.5 * (H + H.T)
            mats.extend([H, -H])
    mats = np.asarray(mats)
    eye = np.eye(link.k)
    return lambda t: float(np.min(np.linalg.det(eye - t * mats)))


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 1, 2)])
def test_p_fn_matches_determinant_oracle(dims):
    link = _link(dims)
    model = curvature_model(link, point_samples=4, normal_samples=16, seed=3)
    oracle = _determinant_oracle(link, 4, 16, 3)
    for t in np.linspace(0.0, 1.0, 21):
        assert abs(model.p_fn(t) - oracle(t)) <= 1e-6


@pytest.mark.parametrize("dims", PRODUCTS + [(3,), (1, 5), (2, 2, 2, 3)])
def test_focal_bound_closed_form(dims):
    link = _link(dims)
    k, k_min = sum(dims), min(dims)
    est = normal_radius(link)
    if len(dims) == 1:
        assert est.focal_bound == math.pi / 2
        return
    expected = math.atan(math.sqrt(k_min / (k - k_min)))
    assert abs(est.focal_bound - expected) <= 1e-12
    # the largest principal curvature sits on an axis-extremal normal of the
    # grid, where the finite-difference shape matrix agrees with it
    bs = _normal_grid(link, np.random.default_rng(0), 0)
    kappa = np.max(np.abs(_shape_spectra(link, bs)))
    assert abs(math.atan(1.0 / kappa) - expected) <= 1e-12
    xs = link.point_tuple(0)
    fd = max(np.max(np.abs(np.linalg.eigvalsh(
        numeric_second_fundamental_form(link, xs, _normal(link, xs, b)))))
        for b in bs)
    assert abs(fd - kappa) <= 1e-6


def _avoidance_oracle(link, avoidance_ratio=0.95):
    """Self-avoidance bound by the per-point loop: an orthonormal basis of
    the mixing normals at each sample by QR, chords projected onto it."""
    n, lam = link.n_factors, link.lambdas
    pts = link.embedded_points()
    avoid = math.pi / 2
    for i in range(len(pts)):
        xs = link.point_tuple(i)
        rows = []
        for r in range(n - 1):
            b = np.zeros(n)
            b[r], b[r + 1] = lam[r + 1], -lam[r]
            rows.append(_normal(link, xs, b))
        B = np.linalg.qr(np.asarray(rows).T)[0].T
        chords = pts[i + 1:] - pts[i]
        norms = np.linalg.norm(chords, axis=1)
        keep = norms > 1e-9
        if not np.any(keep):
            continue
        ratio = np.linalg.norm(chords[keep] @ B.T, axis=1) / norms[keep]
        close = ratio >= avoidance_ratio
        if np.any(close):
            cosang = np.clip(pts[i + 1:][keep][close] @ pts[i], -1.0, 1.0)
            avoid = min(avoid, 0.5 * float(np.min(np.arccos(cosang))))
    return avoid


def _near_antipodal(copies, turned, delta=0.05, samples=30, seed=0):
    """Product of circles whose samples 0 and 1 agree in every factor but
    the first ``turned``, where they are antipodal up to an angle delta."""
    link = _link((1,) * copies, samples=samples, seed=seed)
    c, s = math.cos(math.pi - delta), math.sin(math.pi - delta)
    for i, pts in enumerate(link.factor_points):
        x = pts[0]
        pts[1] = [c * x[0] - s * x[1], s * x[0] + c * x[1]] if i < turned else x
    return link


@pytest.mark.parametrize("copies", [12, 20])
def test_avoidance_bound_binds_on_near_antipodal_pair(copies):
    # the pair's chord has normal ratio about sqrt(1 - 1/copies) >= 0.95;
    # exactly antipodal, half its angle would tie the focal bound, and
    # turning it by delta shortens the chord, so self-avoidance binds
    link = _near_antipodal(copies, 1)
    est = normal_radius(link)
    assert abs(est.avoidance_bound - _avoidance_oracle(link)) <= 1e-12
    assert est.avoidance_bound < est.focal_bound - 1e-5
    assert est.binding == "self-avoidance" and est.value == est.avoidance_bound


@pytest.mark.parametrize("link", [
    _near_antipodal(40, 2),  # normal ratio sqrt(1 - 2/40), chord too long
    _near_antipodal(20, 2),  # normal ratio sqrt(1 - 2/20) < 0.95
    _near_antipodal(4, 1),  # normal ratio sqrt(3)/2 < 0.95
    _link((1,) * 12, samples=60, seed=4),
    _link((1, 2, 3), samples=80, seed=1),
    _link((3, 3), samples=40, seed=0),
    _link((2, 2, 2, 2), samples=50, seed=2),
], ids=["40-circles-2-turned", "20-circles-2-turned", "4-circles-1-turned",
        "12-circles", "S1xS2xS3", "S3xS3", "S2^4"])
def test_avoidance_bound_matches_oracle_when_not_binding(link):
    est = normal_radius(link)
    assert abs(est.avoidance_bound - _avoidance_oracle(link)) <= 1e-12
    assert est.avoidance_bound > est.focal_bound
    assert est.binding == "focal"


def test_avoidance_bound_finite_without_binding():
    link = _near_antipodal(40, 2)
    est = normal_radius(link)
    assert est.avoidance_bound < math.pi / 2
    expected = 0.5 * math.acos(1.0 - 2.0 * (1.0 + math.cos(0.05)) / 40)
    assert abs(est.avoidance_bound - expected) <= 1e-12


def _nan_after(t_stop):
    return lambda t: (1.0 - t * t) ** 3 if t <= t_stop else float("nan")


def test_ode_failure_raises():
    model = CurvatureModel(6, math.sqrt(6), _nan_after(0.1), -3.0)
    with pytest.raises(RuntimeError, match="descent ODE failed"):
        integrate_fastest(model)
    data = LinkData(6, math.sqrt(6), 0.8, model.p_fn, -3.0)
    with pytest.raises(RuntimeError):
        check_area_minimizing(data, "custom")
    a_min, a_max = second_order_coeffs(6, -3.0)
    late = CurvatureModel(6, math.sqrt(6), _nan_after(0.2), -3.0)
    with pytest.raises(RuntimeError):
        build_smooth_profile(late, 0.5 * (a_min + a_max), 0.05, 0.02)


def test_ode_failure_in_early_leg_raises():
    # p turns NaN at t = 0.05, inside the tighter-tolerance leg up to 0.2
    model = CurvatureModel(6, math.sqrt(6), _nan_after(0.05), -3.0)
    with pytest.raises(RuntimeError, match="descent ODE failed"):
        integrate_fastest(model)
    with pytest.raises(RuntimeError, match="descent ODE failed"):
        vanishing_angle("custom", math.sqrt(6), 6, model.p_fn, -3.0)


def test_cli_ode_failure_exits_three_with_manifest(tmp_path, monkeypatch):
    nan_model = CurvatureModel(6, math.sqrt(6), _nan_after(0.1), -3.0)
    monkeypatch.setattr(products, "curvature_model", lambda link, **kw: nan_model)
    spec = tmp_path / "simons.json"
    spec.write_text(json.dumps({"factors": [{"type": "sphere", "dim": 3}] * 2,
                                "samples": 20}))
    out = tmp_path / "out"
    assert main(["certify-cone", "--spec", str(spec), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3 and manifest["command"] == "certify-cone"
    assert manifest["wall_s"] >= 0.0
