"""The Taylor series start of the descent ODE: the recursion against exact
rational arithmetic, its pivots, the Taylor data of the controls and of
round-sphere products, and the checks on Taylor data."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conekit import lawlor, products
from conekit.cli import main
from conekit.lawlor import (
    SERIES_ORDER,
    T_SERIES_MAX,
    CurvatureModel,
    LinkData,
    check_area_minimizing,
    descent_series,
    integrate_fastest,
    second_order_coeffs,
)
from conekit.products import SphereFactor, curvature_model, minimal_product
from oracles import control_taylor
from test_descent import BENCHMARK_PRODUCTS

SIMONS_P = (1, 0, -3, 0, 3, 0, -1)  # (1 - t^2)^3


def _identity_residual(c, p, K, order):
    """Coefficients through ``order`` of (h - t u)^2 + u^2 - p^2 with
    u = h'/K, for h and p given by their coefficients (any number type)."""
    c = list(c) + [0] * (order + 2 - len(c))
    p = list(p) + [0] * (order + 1 - len(p))
    a = [c[n] - n * c[n] / K for n in range(order + 1)]
    u = [(n + 1) * c[n + 1] / K for n in range(order + 1)]
    return [sum(a[i] * a[n - i] + u[i] * u[n - i] - p[i] * p[n - i] for i in range(n + 1))
            for n in range(order + 1)]


def _equation_size(c, p, K, n):
    """Sum of the magnitudes of the products in the order-n equation."""
    a = [x - i * x / K for i, x in enumerate(c)]
    u = [(i + 1) * x / K for i, x in enumerate(c[1:])] + [0]
    p = list(p) + [0] * (n + 1)
    return sum(abs(a[i] * a[n - i]) + abs(u[i] * u[n - i]) + abs(p[i] * p[n - i])
               for i in range(n + 1))


def _fraction_series(p, K, a, order):
    """The series of the branch h = 1 - a t^2 + ... in exact arithmetic.
    The order-n residual is affine in c_n, so each c_n follows from the
    residual at c_n = 0 and at c_n = 1, with no formula for the pivot;
    returns the coefficients and the pivots."""
    c, pivots = [Fraction(1), Fraction(0), -a], []
    for n in range(3, order + 1):
        r0 = _identity_residual(c + [Fraction(0)], p, K, n)[n]
        pivot = _identity_residual(c + [Fraction(1)], p, K, n)[n] - r0
        pivots.append(pivot)
        c.append(-r0 / pivot)
    return c, pivots


def test_simons_series_is_exact_through_order_30():
    # p = (1 - t^2)^3, K = 7, p2 = -3: r = 1 and a_max = 21/2, so every
    # coefficient is rational
    K, a_max = Fraction(7), Fraction(21, 2)
    assert second_order_coeffs(6, -3.0) == (7.0, 10.5)
    exact, pivots = _fraction_series([Fraction(x) for x in SIMONS_P], K, a_max, SERIES_ORDER)
    assert _identity_residual(exact, SIMONS_P, K, SERIES_ORDER) == [0] * (SERIES_ORDER + 1)
    for n, pivot in enumerate(pivots, start=3):
        assert pivot <= 2 - n
        assert pivot == 2 - n * (1 + Fraction(1, 7))
        assert lawlor._series_pivot(n, 7.0, 10.5) == 49 * pivot
    floats = descent_series([float(x) for x in SIMONS_P], 7.0, 10.5)
    assert len(floats) == SERIES_ORDER + 1
    # c_n is a difference of products up to ~60 times its size (c_6), so
    # rounding is measured against the size of its equation over the
    # pivot, and is at most ~5 ulp of c_n itself
    assert floats[:3] == [1.0, 0.0, -10.5]
    for n, pivot in enumerate(pivots, start=3):
        x, q = floats[n], exact[n]
        scale = _equation_size(exact, SIMONS_P, K, n) / abs(pivot)
        assert abs(x - float(q)) <= 1e-15 * float(scale)
        assert abs(x - float(q)) <= 5e-15 * abs(float(q))
    # the odd coefficients of an even p vanish
    assert all(q == 0 for q in exact[1::2])


def _descending_lanes():
    """(taylor, K, a_max) for the F and c controls on k <= 30, alpha in
    {0, 1/8, 1/4, 1/2, 3/4, 1, 3/2, 2, 3, 5, sqrt k}, wherever a real
    descending departure exists."""
    for k in range(1, 31):
        for alpha in (0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, math.sqrt(k)):
            for control in ("F", "c"):
                model = lawlor._control_model(control, alpha, k)
                try:
                    a_max = second_order_coeffs(k, model.p2)[1]
                except ValueError:
                    continue
                if a_max > 0.0:
                    yield model.taylor, k + 1.0, a_max


def test_pivot_bound_over_the_control_grid():
    lanes = 0
    for _, K, a_max in _descending_lanes():
        lanes += 1
        r = 4.0 * a_max / K - (K - 2.0)  # a_max = (K/4) ((K - 2) + r)
        for n in range(3, SERIES_ORDER + 1):
            pivot = lawlor._series_pivot(n, K, a_max) / (K * K)
            assert pivot <= 2 - n
            assert pivot == pytest.approx(2.0 - n * (1.0 + r / K), rel=1e-12)
    assert lanes > 500


def test_float_series_solves_the_identity():
    # each order of the identity closes to rounding, relative to the
    # largest product summed into it
    for taylor, K, a_max in _descending_lanes():
        c = descent_series(taylor, K, a_max)
        res = _identity_residual(c, taylor, K, SERIES_ORDER)
        for n in range(SERIES_ORDER + 1):
            assert abs(res[n]) <= 1e-14 * _equation_size(c, taylor, K, n), (K, a_max, n)


def test_control_taylor_data():
    ts = np.linspace(0.0, 0.2, 21)
    for k in (1, 2, 5, 12, 30):
        for alpha in (0.0, 0.5, math.sqrt(k), 5.0):
            for control in ("F", "c"):
                model = lawlor._control_model(control, alpha, k)
                assert model.taylor[:3] == (1.0, 0.0, model.p2)
                want = control_taylor(control, alpha, k, SERIES_ORDER)
                n = min(len(want), len(model.taylor))
                np.testing.assert_allclose(model.taylor[3:n], want[3:n], rtol=1e-13, atol=0)
                series = lawlor._horner(model.taylor, ts)
                exact = np.array([model.p_fn(t) for t in ts])
                np.testing.assert_allclose(series, exact, rtol=1e-12, atol=1e-14)
            # F is a polynomial of degree k + 1; c carries orders 0..30
            assert len(lawlor._control_model("F", alpha, k).taylor) == max(k + 2, 3)
            assert len(lawlor._control_model("c", alpha, k).taylor) == SERIES_ORDER + 1


def test_product_germ_is_the_largest_subset_sum():
    # on all benchmark products the term j* = k - k_min is p on [0, t_focal]:
    # it matches p_fn there, and no other term's polynomial difference
    # (divided by its triple zero at 0) has a real root in (0, t_focal]
    for dims in BENCHMARK_PRODUCTS:
        link = minimal_product([SphereFactor.round(d) for d in dims])
        model = curvature_model(link)
        k, j_star = link.k, link.k - min(dims)
        t_focal = math.sqrt(min(dims) / j_star)
        germ = np.polynomial.Polynomial(model.taylor)
        expected = (np.polynomial.Polynomial([1.0, math.sqrt((k - j_star) / j_star)]) ** j_star
                    * np.polynomial.Polynomial([1.0, -math.sqrt(j_star / (k - j_star))])
                    ** (k - j_star))
        np.testing.assert_allclose(model.taylor[3:], expected.coef[3:], rtol=1e-12, atol=1e-12)
        ts = np.linspace(0.0, t_focal, 201)
        np.testing.assert_allclose(germ(ts), [model.p_fn(t) for t in ts], rtol=1e-12,
                                   atol=1e-13)
        others = [(j, k - j) for j in range(1, j_star) if _is_subset_sum(dims, j)]
        for j, m in others:
            diff = np.polynomial.Polynomial(products._term_taylor(j, m)) - expected
            roots = (diff // np.polynomial.Polynomial([0, 0, 0, 1])).roots()
            real = roots.real[np.abs(roots.imag) <= 1e-9 * np.abs(roots)]
            assert not np.any((real > 0.0) & (real <= t_focal)), (dims, j)


def _is_subset_sum(dims, j):
    sums = {0}
    for d in dims:
        sums |= {s + d for s in sums}
    return j in sums


def test_single_factor_carries_flat_taylor_data():
    model = curvature_model(minimal_product([SphereFactor.round(3)]))
    assert model.taylor == (1.0, 0.0, 0.0)
    prof = integrate_fastest(model)
    assert prof.series_order == SERIES_ORDER and prof.end == "hit"


def test_profile_follows_the_series_before_the_start():
    simons = CurvatureModel(6, math.sqrt(6), lambda t: (1 - t * t) ** 3, SIMONS_P)
    free = integrate_fastest(simons)
    assert free.series_order == SERIES_ORDER and free.t_start > 0.1
    boot = free.t_samples <= free.t_start
    a = np.array([(1 - t * t) ** 3 for t in free.t_samples[boot]])
    assert np.all(free.h_values[boot] < a * np.sqrt(1 + free.t_samples[boot] ** 2) + 1e-15)
    np.testing.assert_allclose(
        free.h_values[boot],
        lawlor._horner(descent_series(SIMONS_P, 7.0, 10.5), free.t_samples[boot]),
        rtol=0, atol=0)


def test_taylor_data_rejections():
    p = lambda t: (1 - t * t) ** 3  # noqa: E731
    for bad in ((1.0, 0.0), (1.1, 0.0, -3.0), (1.0, 0.1, -3.0), (1.0, 0.0, 1e-12),
                (1.0, 0.0, -3.0, math.nan)):
        with pytest.raises(ValueError, match="Taylor data"):
            CurvatureModel(6, math.sqrt(6), p, bad)
    # consistent at order 2 but not at the start: p_fn and the data disagree
    wrong = CurvatureModel(6, math.sqrt(6), p, (1.0, 0.0, -3.0, 0.0, 3.0))
    with pytest.raises(ValueError, match="Taylor data give p"):
        integrate_fastest(wrong)
    link = LinkData(CurvatureModel(6, math.sqrt(6), p, (1.0, 0.0, -3.0, 1e-9)), math.pi / 4)
    with pytest.raises(ValueError, match="Taylor data give p"):
        check_area_minimizing(link, "custom")


def test_custom_is_not_a_control_of_its_own(tmp_path, capsys):
    # a custom input is a link's curvature model; the angle entry point and
    # a vanishing table, which have no link, take only F and c
    with pytest.raises(ValueError, match="'F' and 'c'"):
        lawlor.vanishing_angle("custom", math.sqrt(6), 6)
    spec = tmp_path / "table.json"
    spec.write_text(json.dumps({"ks": [6], "alphas": [1.0]}))
    out = tmp_path / "out"
    assert main(["vanishing-table", "--spec", str(spec), "--out", str(out),
                 "--control", "custom"]) == 2
    assert "'F' and 'c'" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["exit_code"] == 2
    assert not (out / "vanishing_table.csv").exists()


def test_taylor_data_beyond_the_float_range():
    # the largest F control and circle product whose coefficients fit a
    # float, and the first past each, which name their k
    assert all(math.isfinite(c) for c in lawlor._control_model("F", 1.0, 1029).taylor)
    with pytest.raises(ValueError, match="k = 1030"):
        lawlor._control_model("F", 1.0, 1030)
    circles = [SphereFactor.round(1)] * 256
    assert all(math.isfinite(c) for c in curvature_model(minimal_product(circles)).taylor)
    with pytest.raises(ValueError, match="k = 257"):
        curvature_model(minimal_product(circles + [SphereFactor.round(1)]))


def test_series_start_lies_before_the_descent_end(monkeypatch):
    # F, k = 3, alpha = 1 hits at t = 0.856; a series start placed past the
    # hit is halved to t = 0.5, where h > 0 inside the band, and gives the
    # same angle
    model = lawlor._control_model("F", 1.0, 3)
    free = integrate_fastest(model)
    with monkeypatch.context() as patch:
        patch.setattr(lawlor, "_series_t_boot", lambda coeffs: 1.0)
        halved = integrate_fastest(model)
    assert halved.t_start == 0.5 and halved.end == "hit"
    assert abs(halved.theta - free.theta) <= 1e-12


def test_cli_rejects_inconsistent_product_germ(tmp_path, monkeypatch):
    spec = tmp_path / "s3xs3.json"
    spec.write_text(json.dumps({"factors": [{"type": "sphere", "dim": 3}] * 2}))
    good = tmp_path / "good"
    assert main(["certify-cone", "--spec", str(spec), "--out", str(good)]) == 0
    report = json.loads((good / "report.json").read_text())
    start = report["descent_start"]
    assert start["order"] == SERIES_ORDER and 0.0 < start["t"] <= T_SERIES_MAX
    term = products._term_taylor

    def skewed(j, m):
        out = list(term(j, m))
        out[4] *= 1.0 + 1e-6
        return tuple(out)

    monkeypatch.setattr(products, "_term_taylor", skewed)
    bad = tmp_path / "bad"
    assert main(["certify-cone", "--spec", str(spec), "--out", str(bad)]) == 2
    assert json.loads((bad / "manifest.json").read_text())["exit_code"] == 2
