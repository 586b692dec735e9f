"""End-to-end acceptance gate: frozen oracle values and property sweeps
covering every public pipeline at its contracted tolerances."""

import json
import math
import time
from itertools import combinations

import numpy as np

from conekit.cli import main
from conekit.comass import _optimize, comass
from conekit.exterior import (
    AlternatingForm,
    MetricTensor,
    SimpleVector,
    evaluate,
    gram_norm,
)
from conekit.gluing import verify_gluing_bound
from conekit.lawlor import (
    CurvatureModel,
    LinkData,
    check_area_minimizing,
    descent_series,
    second_order_coeffs,
    vanishing_angle,
    _control_model,
)
from conekit.obstruction import (
    constant_calibration_obstruction,
    hemisphere_test,
)
from conekit.products import (
    SphereFactor,
    curvature_model,
    hypersurface_factor,
    minimal_product,
    normal_radius,
    replication_search,
)
from oracles import (
    adapted_base_metric,
    adapted_metric,
    build_smooth_profile,
    comass_bruteforce,
    decompose,
    integrate_fastest,
    verify_profile,
    wedge_comass_check,
)


def _random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return MetricTensor(A @ A.T + n * np.eye(n))


SIMONS_TAYLOR = (1.0, 0.0, -3.0, 0.0, 3.0, 0.0, -1.0)  # (1 - t^2)^3


def _simons_p(t):
    return (1.0 - t * t) ** 3 if abs(t) < 1.0 else 0.0


def test_comass_optimizer_and_sampler_match_closed_form():
    # 100 random 2-forms, half in R^4 and half in R^6: the optimizer, called
    # directly since comass takes the closed form in degree 2, within
    # relative 1e-4 of the singular-value oracle, sampler within 2% below
    rng = np.random.default_rng(100)
    start = time.time()
    for trial in range(100):
        n = 4 if trial % 2 == 0 else 6
        phi = AlternatingForm(n, 2, rng.standard_normal(math.comb(n, 2)))
        g = _random_spd(rng, n)
        res = comass(phi, g)
        assert res.method == "exact"
        exact = res.value
        opt = _optimize(phi, g, restarts=8, seed=trial).value
        assert abs(opt - exact) <= 1e-4 * exact
        sampled = comass_bruteforce(phi, g, 100000, seed=trial)
        assert sampled <= exact * (1.0 + 1e-9)
        assert sampled >= 0.98 * exact
    assert time.time() - start < 60.0


def test_interpolated_metrics_never_raise_comass():
    # 500 random triples with both endpoint comasses normalized to one:
    # along an 11-point path the measured comass stays at most 1 + 1e-6 and
    # below the endpoint-energy bound sqrt((1-s) c1^2 + s c2^2)
    rng = np.random.default_rng(200)
    grid = np.linspace(0.0, 1.0, 11)
    opts = {"restarts": 2, "max_iters": 100, "tol": 1e-6}
    worst = -np.inf
    for trial in range(500):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(max(m + 1, 3), 7))
        coeffs = {
            I: float(rng.standard_normal())
            for I in combinations(range(1, n + 1), m)
        }
        phi = AlternatingForm(n, m, coeffs)
        g1, g2 = _random_spd(rng, n), _random_spd(rng, n)
        c1 = comass(phi, g1, restarts=16, seed=trial).value
        phi = phi * (1.0 / c1)
        c2 = comass(phi, g2, restarts=16, seed=trial).value
        g2 = MetricTensor(g2.matrix * c2 ** (2.0 / m))
        rep = verify_gluing_bound(
            phi, g1, g2, grid, comass_opts={**opts, "seed": trial}
        )
        assert np.max(rep.comass_values) <= 1.0 + 1e-6
        assert np.all(rep.comass_values <= rep.improved_bounds + 1e-6)
        worst = max(worst, rep.worst_violation)
    assert worst <= 1e-6


def test_decomposition_roundtrip_and_adapted_metric():
    # 100 random unit-evaluation pairs: exact tail vanishing, 1e-10
    # reconstruction, and an adapted metric pinning the comass at one
    rng = np.random.default_rng(300)
    for trial in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 7))
        while True:
            phi = AlternatingForm(n, m, rng.standard_normal(math.comb(n, m)))
            M = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :m]
            xi = SimpleVector.from_matrix(M)
            val = evaluate(phi, xi)
            if abs(val) > 0.1:
                phi = phi * (1.0 / val)
                break
        d = decompose(phi, xi)
        assert d.reassemble().allclose(phi, atol=1e-10)
        for I in d.tail_coeffs:
            assert sum(1 for i in I if i > m) >= 2
        base = adapted_base_metric(d)
        C2 = 2.0 * math.comb(n, m) * comass(phi, base, seed=trial).value + 1.0
        g = adapted_metric(phi, xi, base, C2)
        res = comass(phi, g, seed=trial, warm_starts=[xi.matrix])
        assert abs(res.value - 1.0) <= 1e-4
        assert abs(gram_norm(xi, g) - 1.0) <= 1e-8
        assert abs(evaluate(phi, xi) - 1.0) <= 1e-10


def test_vanishing_angles_converge_and_are_ordered():
    # over the (k, alpha) grid both control angles are stable under
    # tolerance halving, the coarser control always lands later, and every
    # computed descent passes the pointwise inequality audit
    for k in (2, 4, 6):
        for alpha in (0.5, 1.0, 1.5):
            thetas = {}
            for control in ("F", "c"):
                model = _control_model(control, alpha, k)
                prof = integrate_fastest(model, atol=1e-10, rtol=1e-10)
                t1 = prof.theta
                assert vanishing_angle(control, alpha, k) == t1
                t2 = integrate_fastest(model, atol=5e-11, rtol=5e-11).theta
                assert (t1 is None) == (t2 is None)
                if t1 is not None:
                    assert abs(t1 - t2) < 1e-8
                    audit = verify_profile(prof, model)
                    assert audit["worst_margin"] <= 1e-8
                thetas[control] = t1
            if thetas["F"] is not None and thetas["c"] is not None:
                assert thetas["c"] > thetas["F"]


def _cone_verdict(dims, p_exact):
    link = minimal_product([SphereFactor.round(d) for d in dims])
    model = curvature_model(link)
    radius = normal_radius(link)
    data = LinkData(CurvatureModel(link.k, model.alpha, *p_exact), float(radius))
    return check_area_minimizing(data, "custom"), model, radius


def test_cone_verdicts_with_density_stability():
    start = time.time()
    clifford_p = (lambda t: max(1.0 - t * t, 0.0), (1.0, 0.0, -1.0))
    verdict, model, radius = _cone_verdict((3, 3), (_simons_p, SIMONS_TAYLOR))
    assert verdict.passes and verdict.status == "passes"
    assert abs(model.alpha - math.sqrt(6)) < 1e-6
    assert abs(float(radius) - math.pi / 4) < 1e-6
    assert abs(verdict.R_half - math.pi / 8) < 1e-6

    verdict, model, radius = _cone_verdict((1, 1), clifford_p)
    assert not verdict.passes and verdict.status == "inconclusive"
    assert abs(model.alpha - math.sqrt(2)) < 1e-6
    assert abs(float(radius) - math.pi / 4) < 1e-6
    assert time.time() - start < 300.0


def test_surgery_profile_lands_between_branches():
    model = CurvatureModel(6, math.sqrt(6), _simons_p, SIMONS_TAYLOR)
    a_min, a_max = second_order_coeffs(6, -3.0)
    prof = build_smooth_profile(model, 0.5 * (a_min + a_max), 0.05, 0.02)
    audit = verify_profile(prof, model)
    assert audit["ok"] and audit["worst_margin"] <= 1e-6
    # tangential landing on the axis
    assert abs(prof.h_values[-1]) < 1e-12
    tail_slope = (prof.h_values[-1] - prof.h_values[-2]) / (
        prof.t_samples[-1] - prof.t_samples[-2]
    )
    assert abs(tail_slope) < 1e-2
    theta0 = integrate_fastest(model).theta

    # slow-branch oracle: fixed-step RK4 from the series of the branch with
    # the small departure coefficient (its pivots 98 - 42 n never vanish)
    def rk4_theta(a, t_boot=0.05, dt=2e-5, t_cap=2.0):
        def rhs(t, h):
            p = _simons_p(t)
            disc = max((t * t + 1.0) * p * p - h * h, 0.0)
            return 7.0 * (t * h - math.sqrt(disc)) / (t * t + 1.0)

        c = descent_series(SIMONS_TAYLOR, 7.0, a)
        t, h = t_boot, sum(cn * t_boot**n for n, cn in enumerate(c))
        while t < t_cap:
            k1 = rhs(t, h)
            k2 = rhs(t + dt / 2, h + dt * k1 / 2)
            k3 = rhs(t + dt / 2, h + dt * k2 / 2)
            k4 = rhs(t + dt, h + dt * k3)
            hn = h + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            if hn <= 0.0:
                return math.atan(t + h / (h - hn) * dt)
            t, h = t + dt, hn
        return None

    theta_slow = rk4_theta(a_min)
    assert theta0 < prof.theta < theta_slow


def test_hemisphere_obstruction_certificates():
    clifford = minimal_product([SphereFactor.round(1), SphereFactor.round(1)])
    pair = hypersurface_factor(clifford).normals
    assert len(pair) == 2
    cert = hemisphere_test(pair)
    assert cert.verdict == "infeasible"
    assert cert.residual == 0.0
    y = cert.convex_weights
    assert min(y) >= 0.0 and sum(y) == 1.0
    assert [y[0] * a + y[1] * b for a, b in zip(*pair)] == [0.0, 0.0]

    torus = minimal_product([SphereFactor.round(1), SphereFactor.round(1)])
    product = minimal_product([hypersurface_factor(torus), SphereFactor.round(3)])
    out = constant_calibration_obstruction(product)
    assert out["obstructed"] is True


def test_wedge_comass_bound_random_pairs():
    rng = np.random.default_rng(800)
    opts = {"restarts": 8, "max_iters": 200}
    for trial in range(50):
        m1 = int(rng.integers(1, 3))
        m2 = int(rng.integers(1, 3))
        n1 = int(rng.integers(max(m1, 2), 4))
        n2 = int(rng.integers(max(m2, 2), 4))
        phi1 = AlternatingForm(n1, m1, rng.standard_normal(math.comb(n1, m1)))
        phi2 = AlternatingForm(n2, m2, rng.standard_normal(math.comb(n2, m2)))
        g1, g2 = _random_spd(rng, n1), _random_spd(rng, n2)
        out = wedge_comass_check(phi1, g1, phi2, g2,
                                 comass_opts={**opts, "seed": trial})
        assert out["measured"] <= out["bound"] + 1e-6
        # rescaled so each block comass is 1/(m1+m2)!, the wedge comass
        # cannot exceed one
        C1, C2 = out["block_comasses"]
        target = 1.0 / math.factorial(m1 + m2)
        scaled = out["measured"] * (target / C1) * (target / C2)
        assert scaled <= 1.0 + 1e-9


def test_replication_count_is_twelve_and_seed_stable(tmp_path):
    out = replication_search(SphereFactor.round(1), 12, "F")
    assert out["n_pass"] == 12
    statuses = {n: v.passes for n, v in out["verdicts"]}
    assert statuses[11] is False and statuses[12] is True
    # the curvature data are exact, so the CLI seed changes no byte
    spec = tmp_path / "circles.json"
    spec.write_text(json.dumps({"base": {"type": "sphere", "dim": 1}, "n_max": 12}))
    tables = []
    for seed in ("0", "1000"):
        out_dir = tmp_path / seed
        assert main(["replicate", "--spec", str(spec), "--out", str(out_dir),
                     "--control", "F", "--seed", seed]) == 0
        tables.append((out_dir / "replication.csv").read_bytes())
    assert tables[0] == tables[1]
