"""The scalar DOP853 descent loop against the ``solve_ivp`` integrator it
replaced, its end reasons and counts, the scalar control closures, and the
series start against the order-2 start it replaced and a tight reference."""

import math

import numpy as np
import pytest

from conekit import lawlor
from conekit.lawlor import (
    DESCENT_ENDS,
    CurvatureModel,
    LinkData,
    check_area_minimizing,
    second_order_coeffs,
    vanishing_angle,
)
from conekit.products import SphereFactor, curvature_model, minimal_product
from oracles import (
    Profile,
    build_smooth_profile,
    c_control,
    control_taylor,
    descend_solve_ivp,
    f_control,
    integrate_fastest,
    order2_start_angle,
    series_reference_angle,
)

KS = range(1, 31)


# the certify products of the benchmark's job pools, with S3 x S3 and S1 x S1
BENCHMARK_PRODUCTS = (
    [(3, 3), (1, 1)]
    + [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (1, 1, 1), (1, 1, 2), (1, 1, 3),
       (1, 2, 2), (1, 1, 1, 1), (1, 1, 1, 2)]
    + [(2, 4), (2, 5), (1, 3, 5), (2, 2, 3), (1, 2, 4), (3, 3, 3), (2, 2, 2, 2),
       (1, 2, 2, 3)]
    + [(5, 5), (3, 3, 4), (3, 3, 5), (2, 2, 4, 4), (2, 3, 3, 3), (1, 3, 4, 4)]
)
# single round spheres, whose flat model still descends for k >= 2
SINGLE_FACTORS = [(2,), (3,), (5,), (8,)]
# (1 - t^2)^6
SIXTH_POWER = (1.0, 0.0, -6.0, 0.0, 15.0, 0.0, -20.0, 0.0, 15.0, 0.0, -6.0, 0.0, 1.0)


def _product_model(dims):
    return curvature_model(minimal_product([SphereFactor.round(d) for d in dims]))


def _cases():
    """(control, model): the F and c controls on k = 1..30 at alpha in
    {0, 1/2, 1, sqrt k}, and custom models, the exact S3 x S3 curvature
    model and (1 - t^2)^6 with its Taylor data."""
    cases = [(control, lawlor._control_model(control, alpha, k))
             for k in KS for alpha in (0.0, 0.5, 1.0, math.sqrt(k))
             for control in ("F", "c")]
    cases.append(("custom", _product_model((3, 3))))
    cases.append(("custom", CurvatureModel(12, math.sqrt(12), lambda t: (1.0 - t * t) ** 6,
                                           SIXTH_POWER)))
    return cases


def _with_oracle(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(lawlor, "_descend", descend_solve_ivp)
        return fn(*args, **kwargs)


def test_theta_matches_solve_ivp_oracle(monkeypatch):
    cases = _cases()
    assert len(cases) >= 200
    ends = set()
    for control, model in cases:
        args = (control, model.alpha, model.k)
        theta, end, _ = lawlor._angle(model)
        theta_ref, end_ref, _ = _with_oracle(monkeypatch, lawlor._angle, model)
        if control == "custom":
            link = LinkData(model, math.pi / 2)
            assert check_area_minimizing(link, control).theta_used == theta
        else:
            assert vanishing_angle(*args) == theta
        assert end == end_ref, args
        assert (theta is None) == (theta_ref is None) == (end != "hit")
        if theta is not None:
            # from the series start the two integrators agree to rounding
            assert abs(theta - theta_ref) <= 1e-12, args
        ends.add(end)
    assert ends == {"hit", "pinch", "no-departure"}


SIMONS_TAYLOR = (1.0, 0.0, -3.0, 0.0, 3.0, 0.0, -1.0)  # (1 - t^2)^3
FLAT_TAYLOR = (1.0, 0.0, 0.0)
CLIFFORD_TAYLOR = (1.0, 0.0, -1.0)  # 1 - t^2


def _simons_p(t):
    return (1 - t * t) ** 3 if abs(t) < 1 else 0.0


def _simons():
    return CurvatureModel(6, math.sqrt(6), _simons_p, SIMONS_TAYLOR)


@pytest.mark.parametrize("model, tol", [
    (_simons(), 1e-9),
    (lawlor._control_model("F", math.sqrt(6), 6), 1e-9),
    (lawlor._control_model("c", 1.0, 4), 1e-9),
    (CurvatureModel(4, 0.0, lambda t: 1.0, FLAT_TAYLOR), 1e-9),
    # pinches before the axis; near the closing band each integrator is
    # about 1e-9 from a solve_ivp run at tolerance 1e-13 (solve_ivp 1.1e-9,
    # the loop 0.93e-9), on opposite sides, so the two differ by 1.7e-9
    (lawlor._control_model("F", 1.5, 4), 2e-9),
], ids=["simons", "F-sqrt6-k6", "c-1-k4", "flat-k4", "F-pinch"])
def test_profile_grid_matches_oracle(monkeypatch, model, tol):
    prof = integrate_fastest(model)
    ref = _with_oracle(monkeypatch, integrate_fastest, model)
    assert prof.end == ref.end and prof.steps == ref.steps
    np.testing.assert_allclose(prof.t_samples, ref.t_samples, rtol=0, atol=1e-9)
    np.testing.assert_allclose(prof.h_values, ref.h_values, rtol=0, atol=tol)


def test_smooth_profile_grid_matches_oracle(monkeypatch):
    model = _simons()
    a_min, a_max = second_order_coeffs(6, -3.0)
    for frac, delta, gap in ((0.5, 0.05, 0.02), (0.9, 0.04, 0.005)):
        a = a_min + frac * (a_max - a_min)
        prof = build_smooth_profile(model, a, delta, gap)
        ref = _with_oracle(monkeypatch, build_smooth_profile, model, a, delta, gap)
        assert abs(prof.theta - ref.theta) <= 1e-9
        np.testing.assert_allclose(prof.t_samples, ref.t_samples, rtol=0, atol=1e-9)
        np.testing.assert_allclose(prof.h_values, ref.h_values, rtol=0, atol=1e-9)


def test_scalar_controls_equal_vectorized():
    ts = np.linspace(0.0, 1.5, 151)
    for k in range(1, 31):
        for alpha in (0.0, 0.5, 1.0, math.sqrt(k), 3.7):
            for control, ref in (("F", f_control(alpha, ts, k)), ("c", c_control(alpha, ts))):
                p = lawlor._control_model(control, alpha, k).p_fn
                got = np.array([p(float(t)) for t in ts])
                assert isinstance(got[0].item(), float)
                np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)


def test_profile_end_reasons_and_counts():
    hit = integrate_fastest(_simons())
    assert hit.end == "hit" and hit.theta is not None
    assert hit.steps > 0 and hit.rhs_calls >= 2 + 12 * hit.steps
    pinch = integrate_fastest(lawlor._control_model("F", 1.5, 4))
    assert pinch.end == "pinch" and pinch.theta is None and pinch.steps > 0
    # no real departure (k = 2, p2 = -1) and a non-descending one (k = 1, p2 = 0)
    for model in (CurvatureModel(2, math.sqrt(2), lambda t: 1.0 - t * t, CLIFFORD_TAYLOR),
                  CurvatureModel(1, 0.0, lambda t: 1.0, FLAT_TAYLOR)):
        flat = integrate_fastest(model)
        assert flat.end == "no-departure" and flat.steps == flat.rhs_calls == 0
        assert flat.t_start is None and flat.series_order is None
    series = integrate_fastest(lawlor._control_model("F", math.sqrt(6), 6))
    assert series.series_order == lawlor.SERIES_ORDER and 0.02 < series.t_start <= 0.2
    capped = integrate_fastest(CurvatureModel(4, 0.0, lambda t: 1.0, FLAT_TAYLOR), t_cap=0.3)
    assert capped.end == "t_cap" and capped.theta is None
    assert capped.t_samples[-1] == 0.3 and capped.h_values[-1] > 0.0
    # a cap at or before the series start (t = 0.2 for F, k = 3, alpha = 1)
    for t_cap in (0.01, -1.0):
        with pytest.raises(ValueError, match="t_cap"):
            integrate_fastest(lawlor._control_model("F", 1.0, 3), t_cap=t_cap)
    with pytest.raises(ValueError, match="descent end"):
        Profile(np.zeros(2), np.ones(2), None, None, "landed")
    assert set(DESCENT_ENDS) == {"hit", "pinch", "no-departure", "t_cap"}


def test_verdict_carries_descent_end():
    simons = LinkData(_simons(), math.pi / 4)
    verdict = check_area_minimizing(simons, "custom")
    assert verdict.end == "hit" and verdict.series_order == lawlor.SERIES_ORDER
    assert verdict.t_start == integrate_fastest(_simons()).t_start > 1e-3
    f_verdict = check_area_minimizing(simons, "F")
    assert f_verdict.series_order == lawlor.SERIES_ORDER and f_verdict.t_start > 1e-3
    clifford = LinkData(CurvatureModel(2, math.sqrt(2), lambda t: 1.0 - t * t,
                                       CLIFFORD_TAYLOR), math.pi / 4)
    flat = check_area_minimizing(clifford, "custom")
    assert flat.end == "no-departure" and flat.t_start is flat.series_order is None
    pinch = LinkData(lawlor._control_model("F", 1.5, 4), 0.5)
    assert check_area_minimizing(pinch, "F").end == "pinch"


def _rough(t):
    """(1 - t^2)^3 up to t = 0.25, past the series start, so the Taylor data
    agree there; then values up to 2e12 that change completely between
    neighbouring floats, so no step is small enough."""
    if t < 0.25:
        return (1 - t * t) ** 3
    return 1.0 + 1e12 * (1.0 - math.cos(1e20 * t))


def test_step_floor_raises_like_solve_ivp(monkeypatch):
    model = CurvatureModel(6, math.sqrt(6), _rough, SIMONS_TAYLOR)
    with pytest.raises(RuntimeError, match="descent ODE failed.*step size"):
        integrate_fastest(model)
    with pytest.raises(RuntimeError, match="descent ODE failed.*step size"):
        _with_oracle(monkeypatch, integrate_fastest, model)


def test_non_finite_error_norm_raises(monkeypatch):
    # a right-hand side without _descent_rhs's own finiteness check, whose
    # slope is inf after t0: the error estimate is inf - inf; solve_ivp
    # rejects such steps until its step floor
    def rhs(t, h):
        return (math.inf if t > 1e-3 else -1.0), 1.0

    with pytest.raises(RuntimeError, match="descent ODE failed.*error norm nan"):
        lawlor._descend(rhs, 1e-3, 0.5, 0.2, 1e-10, 1e-10)
    with pytest.raises(RuntimeError, match="descent ODE failed.*step size"):
        with np.errstate(invalid="ignore", over="ignore"):
            descend_solve_ivp(rhs, 1e-3, 0.5, 0.2, 1e-10, 1e-10)


def test_rtol_floor_matches_solve_ivp(monkeypatch):
    floor = 100 * np.finfo(float).eps
    with pytest.warns(UserWarning, match="rtol"):
        low = integrate_fastest(_simons(), rtol=1e-16)
    assert low.theta == integrate_fastest(_simons(), rtol=floor).theta
    with pytest.warns(UserWarning, match="rtol"):
        ref = _with_oracle(monkeypatch, integrate_fastest, _simons(), rtol=1e-16)
    assert abs(low.theta - ref.theta) <= 1e-9


def _series_lanes():
    """(model, p's coefficients to order 40) for every lane of ``_cases``
    and every benchmark product that descends."""
    lanes = []
    for control, model in _cases():
        if control == "custom":
            taylor = model.taylor
        else:
            taylor = control_taylor(control, model.alpha, model.k, 40)
        lanes.append((model, taylor))
    for dims in BENCHMARK_PRODUCTS + SINGLE_FACTORS:
        model = _product_model(dims)
        lanes.append((model, model.taylor))
    return lanes


def test_series_start_removes_low_bias():
    # the order-2 start leaves h too low by c3 t^3 at t = 1e-3, and the
    # repelling fastest branch turns that into a theta that is too small:
    # the series start is never below it and sits on a tight reference;
    # both starts end the same way on every lane
    hits = 0
    for model, taylor in _series_lanes():
        lane = (model.k, model.alpha)
        fastest = lawlor._fastest(model)
        low, low_end = order2_start_angle(model)
        assert (fastest[2] if fastest else "no-departure") == low_end, lane
        if low_end != "hit":
            continue
        series, run, end, t_end = fastest
        hits += 1
        theta = math.atan(t_end)
        assert len(series) - 1 == lawlor.SERIES_ORDER and 0.02 < run.ts[0] <= 0.2
        assert run.ts[0] < t_end, lane
        assert theta >= low, lane
        ref = series_reference_angle(model, taylor)
        assert abs(theta - ref) <= 1e-11, (*lane, theta - ref)
    assert hits >= 150


def test_series_start_example_f_k3():
    # F, k = 3, alpha = 1: 0.708095 from the order-2 start, moving up as its
    # t_boot shrinks (0.708172, 0.708195, 0.708202 at 3e-4, 1e-4, 3e-5)
    theta = vanishing_angle("F", 1.0, 3)
    assert abs(theta - 0.7082059) < 1e-7
    # tolerances go to lawlor._fastest only, which the profile sampler calls
    with pytest.raises(TypeError):
        vanishing_angle("F", 1.0, 3, rtol=1e-9)
    assert theta - order2_start_angle(lawlor._control_model("F", 1.0, 3))[0] > 1e-4
