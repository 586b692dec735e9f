"""Tests for the descent-profile criterion: controls, ODE, surgery, verdicts."""

import itertools
import math

import numpy as np
import pytest

from conekit import lawlor
from conekit.lawlor import (
    CurvatureModel,
    LinkData,
    check_area_minimizing,
    descent_series,
    second_order_coeffs,
    vanishing_angle,
)
from conekit.products import SphereFactor, curvature_model, minimal_product, normal_radius
from oracles import (
    Profile,
    build_smooth_profile,
    c_control,
    f_control,
    integrate_fastest,
    slope_interval,
    verify_profile,
)

SIMONS_TAYLOR = (1.0, 0.0, -3.0, 0.0, 3.0, 0.0, -1.0)  # (1 - t^2)^3
FLAT_TAYLOR = (1.0, 0.0, 0.0)
CLIFFORD_TAYLOR = (1.0, 0.0, -1.0)  # 1 - t^2


def _simons_model():
    return CurvatureModel(
        6, math.sqrt(6), lambda t: (1 - t * t) ** 3 if abs(t) < 1 else 0.0, SIMONS_TAYLOR,
    )


def test_controls_trivial_values():
    assert f_control(0.0, 0.7, 6) == 1.0
    assert abs(f_control(1.0, math.sqrt(7.0 / 6.0), 6)) < 1e-12
    assert c_control(1.0, 0.0) == 1.0
    assert abs(c_control(2.0, 0.5)) < 1e-12
    # direct arithmetic cross-check of the product formula
    k, alpha, t = 6, 1.0, 0.1
    expect = (1 - alpha * t * math.sqrt(k / (k + 1))) * (
        1 + alpha * t / math.sqrt(k * (k + 1))
    ) ** k
    assert abs(f_control(alpha, t, k) - expect) < 1e-15


def test_c_control_below_f_control():
    ts = np.linspace(0.01, 0.9, 50)
    for k in (2, 4, 6):
        for alpha in (0.5, 1.0):
            gap = f_control(alpha, ts, k) - c_control(alpha, ts)
            assert np.all(gap > 0.0)


def test_controls_decreasing_in_alpha():
    t = 0.3
    for k in (2, 6):
        vals_f = [f_control(a, t, k) for a in (0.0, 0.5, 1.0, 1.5)]
        vals_c = [c_control(a, t) for a in (0.0, 0.5, 1.0, 1.5)]
        assert all(x > y for x, y in zip(vals_f, vals_f[1:]))
        assert all(x > y for x, y in zip(vals_c, vals_c[1:]))


def test_slope_interval_double_root_at_origin():
    model = _simons_model()
    lo, hi = slope_interval(0.0, 1.0, model)
    assert abs(lo) < 1e-12 and abs(hi) < 1e-12


def test_slope_interval_endpoints_satisfy_equality():
    model, K = _simons_model(), 7.0
    t, y = 0.2, 0.8
    lo, hi = slope_interval(t, y, model)
    assert lo <= hi
    p2 = model.p_fn(t) ** 2
    for d in (lo, hi):
        res = (y - t * d / K) ** 2 + (d / K) ** 2 - p2
        assert abs(res) < 1e-10
    # interior slopes are strictly admissible
    mid = 0.5 * (lo + hi)
    res = (y - t * mid / K) ** 2 + (mid / K) ** 2 - p2
    assert res < 0.0


def test_slope_interval_rejects_inadmissible_height():
    model = _simons_model()
    band = math.sqrt(0.2**2 + 1.0) * model.p_fn(0.2)
    with pytest.raises(ValueError):
        slope_interval(0.2, band + 0.01, model)
    with pytest.raises(ValueError):
        slope_interval(0.2, 0.0, model)


def _departs(k, p2):
    try:
        second_order_coeffs(k, p2)
    except ValueError:
        return False
    return True


def test_second_order_coeffs_values():
    # flat case: roots 0 and K(K-2)/2 with K = k + 1
    a_min, a_max = second_order_coeffs(6, 0.0)
    assert (a_min, a_max) == (0.0, 17.5)
    # double root at discriminant zero
    k, K = 6, 7.0
    p2 = -((K - 2.0) ** 2) / 8.0
    a_min, a_max = second_order_coeffs(k, p2)
    assert abs(a_min - a_max) < 1e-12
    assert abs(a_min - K * (K - 2.0) / 4.0) < 1e-12
    with pytest.raises(ValueError, match="discriminant"):
        second_order_coeffs(2, -1.0)
    # a quadratic departure exists iff (k - 1)^2 + 8 p2 >= 0, which for
    # p2 = -alpha^2/2 is Simons' (k - 1)^2 >= 4 alpha^2; alpha = (k - 1)/2
    # sits exactly on the boundary
    for k in range(1, 31):
        for alpha in (0.0, 0.5, 1.0, 2.0, 0.5 * (k - 1), 0.5 * k, math.sqrt(k)):
            for control in ("F", "c"):
                p2 = lawlor._control_model(control, alpha, k).p2
                assert p2 == -0.5 * alpha * alpha
                assert _departs(k, p2) == ((k - 1) ** 2 + 8.0 * p2 >= 0.0), (control, k, alpha)
    # round products have alpha^2 = k, so they depart iff k^2 - 6k + 1 >= 0,
    # that is k >= 6
    for n in (2, 3):
        for dims in itertools.combinations_with_replacement(range(1, 6), n):
            model = curvature_model(minimal_product([SphereFactor.round(d) for d in dims]))
            assert model.p2 == -0.5 * model.k
            assert _departs(model.k, model.p2) == (model.k >= 6), dims
    # the single divisor still certifies the cone over S3 x S3
    link = minimal_product([SphereFactor.round(3)] * 2)
    s3xs3 = LinkData(curvature_model(link), normal_radius(link).value)
    assert check_area_minimizing(s3xs3, "custom").status == "passes"


def test_second_order_coeffs_satisfy_departure_equation():
    # plugging h = 1 - a t^2 into the descent equality must close at order t
    K = 7.0
    for p2 in (-0.5, -1.5, -3.0, -3.5):
        if (K - 2.0) ** 2 + 8.0 * p2 < 0.0:
            with pytest.raises(ValueError, match="discriminant"):
                second_order_coeffs(6, p2)
            continue
        for a in second_order_coeffs(6, p2):
            lhs = -2.0 * a
            rhs = K * (1.0 - math.sqrt(1.0 + 2.0 * p2 + 2.0 * a))
            assert abs(lhs - rhs) < 1e-9


def _rk4_theta(model, K, a_max, t_boot=0.05, dt=2e-5, t_cap=2.0):
    """Independent fixed-step integrator for the fastest-descent equation,
    started from the series of the model's Taylor data at t_boot."""

    def rhs(t, h):
        p = model.p_fn(t)
        disc = max((t * t + 1.0) * p * p - h * h, 0.0)
        return K * (t * h - math.sqrt(disc)) / (t * t + 1.0)

    c = descent_series(model.taylor, K, a_max)
    t, h = t_boot, sum(cn * t_boot**n for n, cn in enumerate(c))
    while t < t_cap:
        k1 = rhs(t, h)
        k2 = rhs(t + dt / 2, h + dt * k1 / 2)
        k3 = rhs(t + dt / 2, h + dt * k2 / 2)
        k4 = rhs(t + dt, h + dt * k3)
        h_new = h + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        if h_new <= 0.0:
            # linear interpolation to the axis crossing
            frac = h / (h - h_new)
            return math.atan(t + frac * dt)
        t, h = t + dt, h_new
    return None


def test_integrator_matches_independent_rk4():
    model = _simons_model()
    prof = integrate_fastest(model)
    a_max = second_order_coeffs(6, -3.0)[1]
    oracle = _rk4_theta(model, 7.0, a_max)
    assert prof.theta is not None and oracle is not None
    assert abs(prof.theta - oracle) < 1e-9


def test_integrator_flat_curvature_profile():
    # zero curvature still has a finite vanishing angle for k >= 2
    model = CurvatureModel(4, 0.0, lambda t: 1.0, FLAT_TAYLOR)
    prof = integrate_fastest(model)
    assert prof.theta is not None and prof.theta > 0.0
    a_max = second_order_coeffs(4, 0.0)[1]
    oracle = _rk4_theta(model, 5.0, a_max)
    assert abs(prof.theta - oracle) < 1e-9


def test_integrator_convergence_under_tolerance_halving():
    model = _simons_model()
    t1 = integrate_fastest(model, atol=1e-10, rtol=1e-10).theta
    t2 = integrate_fastest(model, atol=5e-11, rtol=5e-11).theta
    assert abs(t1 - t2) < 1e-8


def test_integrator_negative_discriminant_returns_none():
    model = CurvatureModel(2, math.sqrt(2), lambda t: max(1 - t * t, 0.0), CLIFFORD_TAYLOR)
    prof = integrate_fastest(model)
    assert prof.vanishing_t is None and prof.theta is None


def test_profile_invariants():
    model = _simons_model()
    prof = integrate_fastest(model)
    assert prof.t_samples[0] == 0.0 and abs(prof.h_values[0] - 1.0) < 1e-12
    before = prof.h_values[:-1]
    assert np.all(before > -1e-12)
    assert abs(prof.h_values[-1]) < 1e-9
    with pytest.raises(ValueError):
        Profile(np.array([0.0, 1.0]), np.array([0.5, 0.0]), None, None)


def test_ode_square_root_operand_nonnegative():
    model = _simons_model()
    prof = integrate_fastest(model)
    t, h = prof.t_samples, prof.h_values
    p = np.array([model.p_fn(x) for x in t])
    operand = (t * t + 1.0) * p * p - h * h
    assert operand.min() > -1e-12


def test_verify_profile_cases():
    model = _simons_model()
    fastest = integrate_fastest(model)
    out = verify_profile(fastest, model)
    assert out["ok"] and out["worst_margin"] <= 1e-8
    assert set(out) == {"ok", "worst_margin"}

    flat_model = CurvatureModel(4, 0.0, lambda t: 1.0, FLAT_TAYLOR)
    ts = np.linspace(0.0, 0.5, 200)
    static = Profile(ts, np.ones_like(ts), None, None)
    static_out = verify_profile(static, flat_model)
    assert static_out["ok"] and abs(static_out["worst_margin"]) < 1e-12

    rising = Profile(ts, 1.0 + ts, None, None)
    assert not verify_profile(rising, flat_model)["ok"]


def test_vanishing_angle_ordering_and_coincidence():
    for k in (4, 6):
        tf = vanishing_angle("F", 1.0, k)
        tc = vanishing_angle("c", 1.0, k)
        assert tc > tf
    t0f = vanishing_angle("F", 0.0, 4)
    t0c = vanishing_angle("c", 0.0, 4)
    assert abs(t0f - t0c) < 1e-9


def test_vanishing_angle_monotone_in_alpha():
    for k in (4, 6):
        thetas = [vanishing_angle("F", a, k) for a in (0.5, 1.0, 1.5)]
        defined = [t for t in thetas if t is not None]
        assert defined == thetas[: len(defined)]
        assert all(x <= y + 1e-12 for x, y in zip(defined, defined[1:]))
    # at k = 4 the alpha = 1.5 control pinches to zero before the descent
    # lands, so no admissible profile reaches the axis
    assert vanishing_angle("F", 1.5, 4) is None
    assert vanishing_angle("c", 1.5, 4) is None


def test_second_order_consistency_of_fastest_descent():
    model = _simons_model()
    prof = integrate_fastest(model)
    a_max = second_order_coeffs(6, -3.0)[1]
    mask = (prof.t_samples > 0.0) & (prof.t_samples < 0.01)
    fitted = (1.0 - prof.h_values[mask]) / prof.t_samples[mask] ** 2
    assert abs(np.median(fitted) - a_max) < 1e-2 * a_max


def test_build_smooth_profile_simons():
    model = _simons_model()
    a_min, a_max = second_order_coeffs(6, -3.0)
    prof = build_smooth_profile(model, 0.5 * (a_min + a_max), 0.05, 0.02)
    out = verify_profile(prof, model)
    assert out["ok"] and out["worst_margin"] <= 1e-6
    # tangential landing: profile meets the axis with vanishing slope
    assert abs(prof.h_values[-1]) < 1e-12
    tail_slope = (prof.h_values[-1] - prof.h_values[-2]) / (
        prof.t_samples[-1] - prof.t_samples[-2]
    )
    assert abs(tail_slope) < 1e-2
    fastest = integrate_fastest(model)
    assert prof.theta > fastest.theta
    assert prof.theta < fastest.theta + 0.05


def test_build_smooth_profile_rejections():
    model = _simons_model()
    a_min, a_max = second_order_coeffs(6, -3.0)
    with pytest.raises(ValueError):
        build_smooth_profile(model, a_min, 0.05, 0.02)
    with pytest.raises(ValueError):
        build_smooth_profile(model, a_max + 1.0, 0.05, 0.02)
    with pytest.raises(ValueError, match="delta"):
        build_smooth_profile(model, 0.5 * (a_min + a_max), 1.2, 0.02)


def test_smooth_profile_angle_decreases_toward_fastest():
    model = _simons_model()
    a_min, a_max = second_order_coeffs(6, -3.0)
    thetas = []
    for frac in (0.25, 0.5, 0.9):
        a = a_min + frac * (a_max - a_min)
        # delta small enough that the cap stays admissible even at frac 0.9,
        # where the quadratic residual turns positive just inside t = 0.05
        thetas.append(build_smooth_profile(model, a, 0.04, 0.005).theta)
    assert thetas[0] > thetas[1] > thetas[2]


def test_check_area_minimizing_verdicts():
    simons = LinkData(_simons_model(), math.pi / 4)
    v = check_area_minimizing(simons, "custom")
    assert v.passes and v.status == "passes" and v.margin > 0.0
    assert v.R_half == math.pi / 8

    clifford = LinkData(
        CurvatureModel(2, math.sqrt(2), lambda t: max(1 - t * t, 0.0), CLIFFORD_TAYLOR),
        math.pi / 4,
    )
    v2 = check_area_minimizing(clifford, "custom")
    assert not v2.passes and v2.status == "inconclusive"
    assert v2.theta_used is None

    with pytest.raises(ValueError, match="normal radius"):
        check_area_minimizing(LinkData(lawlor._control_model("F", 1.0, 4), float("nan")), "F")


def test_check_area_minimizing_equator_threshold():
    # flat link with maximal normal radius: passes exactly when the
    # zero-curvature vanishing angle clears pi/4
    theta0 = vanishing_angle("F", 0.0, 6)
    flat = LinkData(lawlor._control_model("F", 0.0, 6), math.pi / 2)
    verdict = check_area_minimizing(flat, "F")
    assert verdict.passes == (theta0 <= math.pi / 4)


def test_curvature_model_validation():
    with pytest.raises(ValueError, match="p\\(0\\)"):
        CurvatureModel(4, 1.0, lambda t: 1.0 + t + 0.5, (1.0, 0.0, -0.5))
    # NaN and inf at 0 fail the check too, not only the descent
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="p\\(0\\) must equal 1"):
            CurvatureModel(4, 1.0, lambda t, bad=bad: bad, (1.0, 0.0, -0.5))
    with pytest.raises(ValueError, match="p2"):
        CurvatureModel(4, 1.0, lambda t: 1.0, (1.0, 0.0, 0.5))
    with pytest.raises(ValueError):
        CurvatureModel(0, 1.0, lambda t: 1.0, FLAT_TAYLOR)
    for alpha in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha must be finite"):
            CurvatureModel(4, alpha, lambda t: 1.0, FLAT_TAYLOR)
    # Taylor data are required, and p2 is read from them
    with pytest.raises(TypeError):
        CurvatureModel(4, 1.0, lambda t: 1.0)
    assert CurvatureModel(4, 1.0, lambda t: 1.0, (1, 0, -0.5)).p2 == -0.5
