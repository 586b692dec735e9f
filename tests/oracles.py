"""Code kept only to test the library against, in two kinds.

Second implementations compute a quantity conekit now obtains another way:
the F and c curvature controls in numpy instead of the scalar closures of
``lawlor._control_model``, the descent ODE by scipy's ``solve_ivp`` instead
of the scalar DOP853 loop, the descent from the order-2 start 1 - a_max t^2
at t = 1e-3 that the order-30 series start replaced (the only place that
start lives on), a tight reference descent from an order-40 series, comass
by a constrained minimization, by the step-rule ascent retracted by
LAPACK's QR instead of Gram-Schmidt, and as a seeded random-search lower
bound, shape matrices by finite differences along great-circle curves
instead of the closed-form spectra, p(t) by a dense search over unit
normals and as the least term over all proper subset sums instead of its
single term j* = k - k_min, and the normal radius from explicit chords
between link points instead of arcsin(lambda_min), and the open-hemisphere
decision by two HiGHS linear programs and an NNLS polish instead of one
nearest-point solve.  The wedge and contraction of forms, a sampled
descent profile with its pointwise audit, and the slope interval of the
calibration inequality check the exterior and lawlor kernels from outside.

It also holds the part-(a) and part-(b) machinery that no job runs: the
canonical decomposition of a form along a calibrated plane, the adapted
metrics that pin its comass, the rigidity check, the relative spectrum of
two metrics on a plane with the equality cases of the gluing argument, the
binomial comass bound for wedges on complementary blocks, and smooth
profile surgery tangent to the axis.  A job that reports one of these
would take it back into the library rather than keep a second copy.

It also keeps the seeded sampler of product points that products used
before a round hypersurface factor became one exact antipodal pair: tests
that need random points of a product, or a Gauss image with no antipodal
pair, draw them here.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import linprog, minimize, nnls

from conekit import lawlor
from conekit.comass import (
    _check_pair,
    _eval_batch,
    _grad_batch,
    _orthonormalize,
    _whitened_vector,
    comass,
)
from conekit.exterior import (
    AlternatingForm,
    DimensionMismatchError,
    MetricTensor,
    SimpleVector,
    _contract_frames,
    _interior_matrix,
    _merge_sign,
    evaluate,
    gram_norm,
    multi_indices,
    pullback,
)
from conekit.lawlor import DESCENT_ENDS, CurvatureModel
from conekit.obstruction import HemisphereCertificate
from conekit.products import ProductLink, _require_round


# ---------------------------------------------------------------------------
# exterior algebra


def wedge(phi: AlternatingForm, psi: AlternatingForm) -> AlternatingForm:
    """Exterior product of two forms on the same R^n."""
    if phi.n != psi.n:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {phi.n} vs {psi.n}"
        )
    p, q = phi.m, psi.m
    if p + q > phi.n:
        raise DimensionMismatchError(
            f"degree {p}+{q} exceeds ambient dimension {phi.n}"
        )
    out: dict[tuple[int, ...], float] = {}
    for I, a in phi.coeffs.items():
        for J, b in psi.coeffs.items():
            K, sign = _merge_sign(I, J)
            if K is None:
                continue
            out[K] = out.get(K, 0.0) + sign * a * b
    return AlternatingForm(phi.n, p + q, out)


def contract(eta: SimpleVector, phi: AlternatingForm) -> AlternatingForm:
    """Interior product: the form psi with psi(v...) = phi(eta factors, v...)."""
    if eta.n != phi.n:
        raise DimensionMismatchError(f"ambient dimensions differ: {eta.n} vs {phi.n}")
    r, p = eta.m, phi.m
    if r > p:
        raise DimensionMismatchError(f"cannot contract degree {r} into degree {p}")
    U = eta.matrix[None]
    psi = U[:, :, 0] @ _interior_matrix(phi.vector, phi.n, p)
    psi = _contract_frames(psi, U[:, :, 1:], p - 1)
    return AlternatingForm.from_vector(phi.n, p - r, psi[0])


# ---------------------------------------------------------------------------
# curvature controls


def f_control(alpha: float, t, k: int):
    """Sharper curvature control (1 - a t sqrt(k/(k+1))) (1 + a t / sqrt(k(k+1)))^k.

    Equals 1 at t = 0 and lies below the exact p(t) whenever alpha bounds
    the second fundamental form norm.
    """
    if alpha < 0.0 or k < 1:
        raise ValueError("need alpha >= 0 and k >= 1")
    t = np.asarray(t, dtype=float)
    out = (1.0 - alpha * t * np.sqrt(k / (k + 1.0))) * (
        1.0 + alpha * t / np.sqrt(k * (k + 1.0))
    ) ** k
    return float(out) if out.ndim == 0 else out


def c_control(alpha: float, t):
    """Coarser curvature control (1 - alpha t) exp(alpha t)."""
    if alpha < 0.0:
        raise ValueError("need alpha >= 0")
    t = np.asarray(t, dtype=float)
    out = (1.0 - alpha * t) * np.exp(alpha * t)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# descent ODE


class SolveIvpDescent:
    """A ``solve_ivp`` result in the shape of ``lawlor._Descent``: nodes,
    end, right-hand-side count and dense output."""

    def __init__(self, sol, end):
        self.sol = sol
        self.ts, self.ys = list(sol.t), list(sol.y[0])
        self.end = end
        self.rhs_calls = sol.nfev

    def _at(self, i: int, t):
        """Dense output at t; ``solve_ivp``'s one interpolant finds the
        step itself, so i is not used."""
        return self.sol.sol(t)[0]


def descend_solve_ivp(rhs, t0, h0, t_end, atol, rtol):
    """The descent as conekit integrated it before the scalar loop:
    ``solve_ivp`` with DOP853, terminal hit and pinch events and dense
    output.  Drop-in for ``lawlor._descend``; ``rhs`` returns (slope, band).
    """

    def hit(t, h):
        return h[0]

    def pinch(t, h):
        return rhs(t, h[0])[1]

    for event in (hit, pinch):
        event.terminal = True
        event.direction = -1
    sol = solve_ivp(
        lambda t, h: [rhs(t, h[0])[0]],
        (t0, t_end),
        [h0],
        method="DOP853",
        events=[hit, pinch],
        dense_output=True,
        atol=atol,
        rtol=rtol,
        max_step=0.01,
    )
    if sol.status == -1:
        raise RuntimeError(f"descent ODE failed after t = {sol.t[-1]:.6g}: {sol.message}")
    if sol.t_events[0].size:
        return SolveIvpDescent(sol, ("hit", float(sol.t_events[0][0])))
    if sol.t_events[1].size:
        kind = "hit" if sol.y_events[1][0][0] <= 1e-8 else "pinch"
        return SolveIvpDescent(sol, (kind, float(sol.t_events[1][0])))
    return SolveIvpDescent(sol, None)


def order2_start_angle(model, atol=1e-10, rtol=1e-10):
    """(theta, end) of the fastest descent started as conekit started it
    before the series start: h = 1 - a_max t^2 at t = 1e-3, an early leg to
    t = 0.2 at 1e-3 times the tolerances (rtol at least 3e-14), then the
    main leg to t = 50.  theta is None without a hit; end is one of
    lawlor.DESCENT_ENDS."""
    try:
        _, a_max = lawlor.second_order_coeffs(model.k, model.p2)
    except ValueError:
        return None, "no-departure"
    if a_max <= 0.0:
        return None, "no-departure"
    rhs = lawlor._descent_rhs(model.k + 1.0, model.p_fn)
    run = lawlor._descend(rhs, 1e-3, 1.0 - a_max * 1e-6, 0.2, 1e-3 * atol,
                          max(1e-3 * rtol, 3e-14))
    if run.end is None:
        run = lawlor._descend(rhs, 0.2, run.ys[-1], 50.0, atol, rtol)
    end = run.end[0] if run.end else "t_cap"
    return (math.atan(run.end[1]) if end == "hit" else None), end


def control_taylor(control, alpha, k, order):
    """p's Taylor coefficients through ``order`` for the F control (its
    exact polynomial, from the binomial sum) and the c control
    (alpha^n (1 - n) / n!)."""
    if control == "c":
        return [alpha**n * (1 - n) / math.factorial(n) for n in range(order + 1)]
    lead, b = alpha * math.sqrt(k / (k + 1.0)), alpha / math.sqrt(k * (k + 1.0))
    rise = np.array([math.comb(k, i) * b**i for i in range(k + 1)])
    poly = np.convolve(rise, [1.0, -lead])
    return [1.0, 0.0, -0.5 * alpha * alpha, *poly[3:order + 1]]


def series_reference_angle(model, taylor, order=40, rtol=3e-14):
    """Tight reference vanishing angle: the fastest descent from its
    order-``order`` series (taylor holds p's coefficients that far), taken
    over where the last two terms fall to 1e-17 (at most t = 0.2), and one
    leg at atol 1e-16 and the given rtol."""
    _, a_max = lawlor.second_order_coeffs(model.k, model.p2)
    K = model.k + 1.0
    c = lawlor.descent_series(taylor, K, a_max, order)
    tail = max(abs(c[-2]), abs(c[-1]))
    t0 = min(0.2, (1e-17 / tail) ** (1.0 / (order - 1))) if tail else 0.2
    h0 = sum(cn * t0**n for n, cn in enumerate(c))
    run = lawlor._descend(lawlor._descent_rhs(K, model.p_fn), t0, h0, 50.0, 1e-16, rtol)
    return math.atan(run.end[1]) if run.end and run.end[0] == "hit" else None


# ---------------------------------------------------------------------------
# descent profiles


@dataclass(frozen=True)
class Profile:
    """Sampled descent profile h(t) with its axis-hit location, if any, how
    the descent ended (one of DESCENT_ENDS), its accepted steps and
    right-hand-side calls, and where the ODE took over from the series
    start and that series' order (None without a descent)."""

    t_samples: np.ndarray
    h_values: np.ndarray
    vanishing_t: Optional[float]
    theta: Optional[float]
    end: Optional[str] = None
    steps: int = 0
    rhs_calls: int = 0
    t_start: Optional[float] = None
    series_order: Optional[int] = None

    def __post_init__(self):
        if abs(self.h_values[0] - 1.0) > 1e-9 or self.t_samples[0] != 0.0:
            raise ValueError("profile must start at h(0) = 1")
        if self.end is not None and self.end not in DESCENT_ENDS:
            raise ValueError(f"unknown descent end {self.end!r}")


def dense_output(run, t: np.ndarray) -> np.ndarray:
    """A descent run's dense output at the times t, one step's interpolant
    at a time (``run._at``); a node belongs to the step that ends there."""
    seg = np.clip(np.searchsorted(run.ts, t, side="left") - 1, 0, len(run.ts) - 2)
    out = np.empty_like(t)
    for i in np.unique(seg):
        mask = seg == i
        out[mask] = run._at(int(i), t[mask])
    return out


def integrate_fastest(
    model: CurvatureModel,
    *,
    t_cap: float = 50.0,
    atol: float = 1e-10,
    rtol: float = 1e-10,
    grid_points: int = 4001,
) -> Profile:
    """The fastest descent of ``lawlor._fastest``, sampled on a grid.

    h is sampled from the series on [0, t_start] and from the run's dense
    output after it, on grid_points points up to where the descent
    stopped.  ``end`` records how it stopped: "hit", "pinch",
    "no-departure" (no real quadratic departure, or one that does not
    descend; h = 1 up to t_cap) or "t_cap"; only a hit sets vanishing_t
    and theta.  A t_cap not past the start raises ValueError, a solver
    failure RuntimeError.
    """
    fastest = lawlor._fastest(model, t_cap, atol, rtol)
    if fastest is None:
        t = np.linspace(0.0, t_cap, grid_points)
        return Profile(t, np.ones_like(t), None, None, "no-departure")
    series, run, end, t_end = fastest
    t0 = run.ts[0]
    ts = np.linspace(0.0, t_end, grid_points)
    boot = ts <= t0
    hs = np.empty_like(ts)
    hs[boot] = lawlor._horner(series, ts[boot])
    hs[~boot] = np.clip(dense_output(run, ts[~boot]), 0.0, None)
    t_hit = t_end if end == "hit" else None
    if t_hit is not None:
        hs[-1] = 0.0
    theta = math.atan(t_hit) if t_hit is not None else None
    return Profile(ts, hs, t_hit, theta, end, len(run.ts) - 1, run.rhs_calls,
                   t0, len(series) - 1)


def verify_profile(profile: Profile, model: CurvatureModel) -> dict:
    """Pointwise calibration-inequality audit of a sampled profile.

    Evaluates (h - t h'/K)^2 + (h'/K)^2 - p(t)^2, K = k + 1, with central
    finite differences at interior grid points; ok iff its worst margin is
    at most 1e-6.
    """
    t = profile.t_samples
    h = profile.h_values
    if t.size < 5:
        raise ValueError("profile grid too coarse to audit")
    dh = np.gradient(h, t, edge_order=2)
    p2vals = np.asarray([model.p_fn(x) for x in t], dtype=float) ** 2
    K = model.k + 1.0
    res = (h - t * dh / K) ** 2 + (dh / K) ** 2 - p2vals
    worst = float(np.max(res[1:-1]))
    return {"ok": worst <= 1e-6, "worst_margin": worst}


def slope_interval(t: float, y: float, model: CurvatureModel) -> tuple[float, float]:
    """Admissible slopes h'(t) at height y under the calibration inequality.

    Substituting u = h'/K into the inequality gives the quadratic
    (1+t^2) u^2 - 2 t y u + y^2 - p^2 <= 0, so the admissible slopes form
    the closed interval K (t y -+ sqrt((1+t^2) p^2 - y^2)) / (1+t^2).
    """
    K = model.k + 1.0
    p = model.p_fn(t)
    band = np.sqrt(t * t + 1.0) * p
    if not 0.0 < y <= band + 1e-14:
        raise ValueError(f"height y={y} outside the admissible band (0, {band}]")
    disc = max((t * t + 1.0) * p * p - y * y, 0.0)
    root = np.sqrt(disc)
    lo = K * (t * y - root) / (t * t + 1.0)
    hi = K * (t * y + root) / (t * t + 1.0)
    return float(lo), float(hi)


def build_smooth_profile(
    model: CurvatureModel,
    a: float,
    delta: float,
    theta2_gap: float,
    *,
    grid_points: int = 4001,
) -> Profile:
    """Three-piece admissible profile: quadratic cap, descent, tangential landing.

    Follows 1 - a t^2 on [0, tan(delta)] for a strictly between the
    quadratic departure coefficients, continues by the fastest-descent ODE,
    and replaces the tail with a cubic blend meeting the t-axis with zero
    slope at a point within theta2_gap (in angle) of the raw hit.  The
    quadratic cap is checked against the calibration inequality; a delta
    too large for it is rejected.
    """
    a_min, a_max = lawlor.second_order_coeffs(model.k, model.p2)
    if not a_min < a < a_max:
        raise ValueError(f"a={a} outside the open interval ({a_min}, {a_max})")
    if delta <= 0.0 or theta2_gap <= 0.0:
        raise ValueError("delta and theta2_gap must be positive")
    K = model.k + 1.0
    t1 = np.tan(delta)

    # quadratic cap must satisfy the inequality strictly on (0, tan delta]
    tc = np.linspace(t1 / 400.0, t1, 400)
    hc = 1.0 - a * tc * tc
    dc = -2.0 * a * tc
    pc = np.asarray([model.p_fn(x) for x in tc]) ** 2
    res = (hc - tc * dc / K) ** 2 + (dc / K) ** 2 - pc
    if np.max(res) > 1e-12 or hc[-1] <= 0.0:
        raise ValueError("delta too large: quadratic cap violates the inequality")

    rhs = lawlor._descent_rhs(K, model.p_fn)
    run = lawlor._descend(rhs, t1, 1.0 - a * t1 * t1, 50.0, 1e-10, 1e-10)
    if run.end is None:
        raise ValueError("descent after the quadratic cap never reaches the axis")
    if run.end[0] == "pinch":
        raise ValueError("descent leaves the admissible band before the axis")
    t_hat = run.end[1]

    # tangential landing: cubic Hermite from a point shortly before the raw
    # hit to (t2, 0) with zero slope, t2 past the hit but within the gap
    t2 = np.tan(min(np.arctan(t_hat) + 0.5 * theta2_gap, np.pi / 2 - 1e-9))
    for shrink in range(40):
        w = (t2 - t_hat) * 0.5**shrink
        ta = t_hat - w
        if ta <= t1:
            continue
        ha = float(dense_output(run, np.array([ta]))[0])
        da = rhs(ta, ha)[0]
        tb = t_hat + w
        span = tb - ta
        u = lambda t: (t - ta) / span
        # Hermite basis with target value 0 and slope 0 at tb
        def blend(t):
            x = u(t)
            return ha * (2 * x**3 - 3 * x**2 + 1) + da * span * (x**3 - 2 * x**2 + x)

        def dblend(t):
            x = u(t)
            return (ha * (6 * x**2 - 6 * x) / span) + da * (3 * x**2 - 4 * x + 1)

        tg = np.linspace(ta, tb, 200)
        hg = np.asarray([blend(t) for t in tg])
        dg = np.asarray([dblend(t) for t in tg])
        pg = np.asarray([model.p_fn(t) for t in tg]) ** 2
        rg = (hg - tg * dg / K) ** 2 + (dg / K) ** 2 - pg
        if np.min(hg[:-1]) > 0.0 and np.max(rg) <= 1e-9:
            break
    else:
        raise ValueError("could not fit an admissible tangential landing")
    t_land = tb

    ts = np.linspace(0.0, t_land, grid_points)
    hs = np.empty_like(ts)
    seg1 = ts <= t1
    seg3 = ts >= ta
    seg2 = ~(seg1 | seg3)
    hs[seg1] = 1.0 - a * ts[seg1] ** 2
    hs[seg2] = dense_output(run, ts[seg2])
    hs[seg3] = np.clip([blend(t) for t in ts[seg3]], 0.0, None)
    hs[-1] = 0.0
    return Profile(ts, hs, float(t_land), float(np.arctan(t_land)), "hit",
                   len(run.ts) - 1, run.rhs_calls)


# ---------------------------------------------------------------------------
# comass


def comass_via_min(
    phi: AlternatingForm,
    g: MetricTensor,
    *,
    restarts: int = 12,
    seed: int = 0,
    tol: float = 1e-12,
) -> float:
    """1 / min ||Q||_g over the constraint set {Q simple : phi(Q) = 1}."""
    _check_pair(phi, g)
    if phi.is_zero():
        raise ValueError("constraint set phi(Q)=1 is empty for the zero form")
    n, m = phi.n, phi.m
    first = _interior_matrix(phi.vector, n, m)
    gmat = g.matrix
    rng = np.random.default_rng(seed)

    def _eval1(V):
        return float(_eval_batch(first, V[None])[0])

    def _grad1(V):
        return _grad_batch(first, V[None])[0]

    def objective(x):
        V = x.reshape(n, m)
        G = V.T @ gmat @ V
        det = np.linalg.det(G)
        jac = 2.0 * gmat @ V @ (det * np.linalg.pinv(G))
        return det, jac.ravel()

    def constraint(x):
        return _eval1(x.reshape(n, m)) - 1.0

    def constraint_jac(x):
        return _grad1(x.reshape(n, m)).ravel()

    best_gram2 = np.inf
    for _ in range(restarts):
        V0 = rng.standard_normal((n, m))
        val = _eval1(V0)
        if abs(val) < 1e-8:
            continue
        V0[:, 0] /= val
        res = minimize(
            lambda x: objective(x)[0],
            V0.ravel(),
            jac=lambda x: objective(x)[1],
            constraints=[{"type": "eq", "fun": constraint, "jac": constraint_jac}],
            method="SLSQP",
            options={"maxiter": 300, "ftol": tol},
        )
        if res.success and abs(constraint(res.x)) < 1e-8:
            best_gram2 = min(best_gram2, float(res.fun))
    if not np.isfinite(best_gram2) or best_gram2 <= 0.0:
        raise RuntimeError("constrained minimization failed on all restarts")
    return 1.0 / math.sqrt(best_gram2)


def step_rule_comass(phi, g, *, restarts=16, max_iters=400, tol=1e-10, seed=0):
    """The optimizer as it was before the gradient stop: every restart runs
    until all step sizes fall below ``tol``, each step retracted by
    ``np.linalg.qr``, so it shares no retraction with the library."""
    n, m = phi.n, phi.m
    first = _interior_matrix(_whitened_vector(phi, g), n, m)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((restarts, n, m)))[0]
    f = _eval_batch(first, U)
    U[f < 0.0, :, 0] *= -1.0
    f = np.abs(f)
    step = np.full(restarts, 0.5)
    for _ in range(max_iters):
        grad = _grad_batch(first, U)
        gnorm = np.linalg.norm(grad.reshape(restarts, -1), axis=1)
        gnorm[gnorm == 0.0] = 1.0
        trial = np.linalg.qr(U + (step / gnorm)[:, None, None] * grad)[0]
        ft = _eval_batch(first, trial)
        trial[ft < 0.0, :, 0] *= -1.0
        ft = np.abs(ft)
        better = ft > f
        U[better] = trial[better]
        f[better] = ft[better]
        step[better] *= 1.5
        step[~better] *= 0.5
        np.minimum(step, 1.0, out=step)
        if np.all(step < tol):
            break
    return float(f.max())


def comass_bruteforce(
    phi: AlternatingForm,
    g: MetricTensor,
    sample_count: int,
    seed: int = 0,
    rounds: int = 12,
) -> float:
    """Seeded random-search lower bound: max |phi(Q)| / ||Q||_g over frames
    whose factors are drawn from the unit sphere.

    Zeroth-order and independent of the gradient optimizer: the budget is
    spent in rounds, each mixing fresh uniform sphere draws with draws
    concentrated around the incumbent best frame at a shrinking spread.
    Always a lower bound; converges to the comass as the budget grows.
    The ratio is invariant under a change of basis of the frame, so it is
    evaluated on the g-orthonormal frame L^{-T} Q, Q = L^T V retracted as in
    the optimizer: dividing by the Gram determinant instead overshoots the
    comass by up to 1e-3 relative on nearly degenerate frames, where Q still
    has unit columns and so the ratio stays a lower bound.
    """
    _check_pair(phi, g)
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    n, m = phi.n, phi.m
    first = _interior_matrix(phi.vector, n, m)
    L = g.cholesky
    Linv_T = np.linalg.inv(L).T
    rng = np.random.default_rng(seed)

    def ratios(V):
        return np.abs(_eval_batch(first, Linv_T @ _orthonormalize(L.T @ V)))

    def to_sphere(V):
        return V / np.linalg.norm(V, axis=1, keepdims=True)

    rounds = max(1, min(rounds, sample_count))
    per_round = sample_count // rounds
    leftover = sample_count - per_round * rounds
    best_val = 0.0
    best_frame = None
    spread = 0.5
    for r in range(rounds):
        size = per_round + (leftover if r == rounds - 1 else 0)
        if size == 0:
            continue
        uniform = to_sphere(rng.standard_normal((size, n, m)))
        if best_frame is not None:
            half = size // 2
            local = to_sphere(
                best_frame[None] + spread * rng.standard_normal((half, n, m))
            )
            V = np.concatenate([uniform[: size - half], local], axis=0)
        else:
            V = uniform
        vals = ratios(V)
        top = int(np.argmax(vals))
        if vals[top] > best_val:
            best_val = float(vals[top])
            best_frame = V[top]
        spread *= 0.5
    return best_val


# ---------------------------------------------------------------------------
# canonical decomposition and the adapted metric


@dataclass(frozen=True)
class Decomposition:
    """phi = v_1* ^ ... ^ v_m* + sum a_I v_I* in the dual basis of V + W."""

    V_basis: np.ndarray  # n x m, columns span V
    W_basis: np.ndarray  # n x (n-m), columns span W
    leading_sign: int
    tail_coeffs: dict[tuple[int, ...], float] = field(default_factory=dict)

    @property
    def basis(self) -> np.ndarray:
        return np.column_stack([self.V_basis, self.W_basis])

    def reassemble(self) -> AlternatingForm:
        """Rebuild the form from the decomposition data."""
        n = self.basis.shape[0]
        m = self.V_basis.shape[1]
        dual = np.linalg.inv(self.basis)  # row i is the covector dual to basis col i
        covs = [AlternatingForm(n, 1, {(j + 1,): dual[i, j] for j in range(n)})
                for i in range(n)]

        def dual_wedge(idx):
            out = covs[idx[0] - 1]
            for i in idx[1:]:
                out = wedge(out, covs[i - 1])
            return out

        form = dual_wedge(tuple(range(1, m + 1))) * float(self.leading_sign)
        for I, a in self.tail_coeffs.items():
            form = form + dual_wedge(I) * a
        return form


def _lambda_matrix(phi: AlternatingForm, V: np.ndarray) -> np.ndarray:
    """Rows are the covectors lambda_i(v) = phi(eta_i ^ v) of the decomposition.

    eta_i = (-1)^(m+i) v_1 ^ ... ^ hat v_i ^ ... ^ v_m, so lambda_i is the
    gradient of phi(V) in the i-th factor; for m = 1 it is phi itself.
    """
    first = _interior_matrix(phi.vector, phi.n, phi.m)
    return _grad_batch(first, V[None])[0].T


def _null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of ker A from the SVD, with the rank
    cutoff max(M, N) eps s_max of ``scipy.linalg.null_space``."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * np.amax(s, initial=0.0)))
    return vh[rank:].T


def decompose(phi: AlternatingForm, xi: SimpleVector, *, tol: float = 1e-9) -> Decomposition:
    """Canonical decomposition of phi with respect to xi, phi(xi) = 1.

    Returns the unique complementary subspace W = intersection of ker lambda_i
    together with the tail coefficients a_I, which vanish unless I has at
    least two indices beyond m.
    """
    n, m = phi.n, phi.m
    if xi.n != n or xi.m != m:
        raise ValueError("xi must be a simple m-vector in the form's space")
    val = evaluate(phi, xi)
    if abs(val - 1.0) > tol:
        raise ValueError(
            f"phi(xi) = {val:.12g}, expected 1; normalize phi by 1/phi(xi) first"
        )
    V = xi.matrix
    if np.linalg.matrix_rank(V, tol=1e-10) < m:
        raise ValueError("xi factors are linearly dependent")

    lam = _lambda_matrix(phi, V)
    # pairing lambda_i(v_j) = delta_ij is automatic given phi(xi) = 1
    W = _null_space(lam)
    if W.shape[1] != n - m:
        raise RuntimeError("kernel intersection has wrong dimension")

    B = np.column_stack([V, W])
    leading = evaluate(phi, SimpleVector.from_matrix(B[:, :m]))
    tail: dict[tuple[int, ...], float] = {}
    for I in multi_indices(n, m):
        if I == tuple(range(1, m + 1)):
            continue
        beyond = sum(1 for i in I if i > m)
        b = evaluate(phi, SimpleVector.from_matrix(B[:, [i - 1 for i in I]]))
        if beyond >= 2:
            if b != 0.0:
                tail[I] = float(b)
        elif abs(b) > 1e-8:
            raise RuntimeError(
                f"tail coefficient a_{I} = {b:.3g} violates the vanishing condition"
            )
    return Decomposition(
        V_basis=V.copy(),
        W_basis=W,
        leading_sign=1 if leading > 0 else -1,
        tail_coeffs=tail,
    )


def adapted_base_metric(decomp: Decomposition) -> MetricTensor:
    """A metric making the decomposition basis orthonormal, so V and W are
    perpendicular and the leading simple vector has unit Gram norm."""
    Binv = np.linalg.inv(decomp.basis)
    G = Binv.T @ Binv
    return MetricTensor(0.5 * (G + G.T))


def adapted_metric(
    phi: AlternatingForm,
    xi: SimpleVector,
    base_g: MetricTensor,
    C2: float,
) -> MetricTensor:
    """Scale base_g by C2 on W to pin the comass of phi at phi(xi).

    Requires base_g to make V perpendicular to W with xi of unit Gram norm,
    and C2 > binom(n, m) |phi| / phi(xi), where |phi| is the 2-norm of
    phi's coefficients in base_g-orthonormal coordinates.  Unit simple
    m-vectors have unit norm there, so |phi| bounds comass(phi, base_g)
    from above, and the threshold never falls below binom(n, m) comass /
    phi(xi), as an optimizer's lower bound on the comass could make it.
    """
    n, m = phi.n, phi.m
    theta = evaluate(phi, xi)
    if theta < 1e-6:
        raise ValueError(f"phi(xi) = {theta:.3g} too close to degenerate")
    decomp = decompose(phi * (1.0 / theta), xi)
    B = decomp.basis
    gram = B.T @ base_g.matrix @ B
    cross = gram[:m, m:]
    if np.abs(cross).max() > 1e-8:
        raise ValueError("base metric does not make V perpendicular to W")
    if abs(gram_norm(xi, base_g) - 1.0) > 1e-8:
        raise ValueError("xi does not have unit Gram norm under the base metric")

    norm = float(np.linalg.norm(_whitened_vector(phi, base_g)))
    threshold = math.comb(n, m) * norm / theta
    if C2 <= threshold:
        raise ValueError(
            f"C2 = {C2:g} must exceed binom(n,m)*|phi|/theta = {threshold:g}"
        )

    blocks = gram.copy()
    blocks[:m, m:] = 0.0
    blocks[m:, :m] = 0.0
    blocks[m:, m:] *= float(C2)
    Binv = np.linalg.inv(B)
    G = Binv.T @ blocks @ Binv
    return MetricTensor(0.5 * (G + G.T))


def calibration_decomposition_check(
    phi: AlternatingForm,
    xi: SimpleVector,
    g: MetricTensor,
    *,
    tol: float = 1e-8,
    comass_opts: dict | None = None,
) -> dict:
    """Rigidity of W for a calibration: lambda_i must kill every completion
    direction v_j (i <= m < j) in a g-orthonormal basis extending xi.

    A violating pair yields the probe vector with evaluation sqrt(1 + a^2) > 1,
    a certified comass violation.
    """
    n, m = phi.n, phi.m
    V = xi.matrix
    if np.abs(V.T @ g.matrix @ V - np.eye(m)).max() > 1e-8:
        raise ValueError("xi factors are not g-orthonormal")
    if abs(evaluate(phi, xi) - 1.0) > 1e-8:
        raise ValueError("phi(xi) must equal 1")
    opts = comass_opts or {}
    cm = comass(phi, g, **opts).value
    if cm > 1.0 + 1e-9:
        raise ValueError(f"phi is not a calibration: comass {cm:.9g} > 1")

    # g-orthonormal completion of the frame
    L = g.cholesky
    U = L.T @ V
    full = np.linalg.qr(
        np.column_stack([U, np.eye(n)])
    )[0][:, :n]
    comp = np.linalg.solve(L.T, full[:, m:])  # v_{m+1}, ..., v_n

    lam = _lambda_matrix(phi, V)
    vals = lam @ comp  # (m, n - m)
    bad = np.argwhere(np.abs(vals) > tol)
    if bad.size:
        i, j = int(bad[0, 0]), int(bad[0, 1])
        a = float(vals[i, j])
        mixed = V.copy()
        mixed[:, i] = (V[:, i] + a * comp[:, j]) / math.sqrt(1.0 + a * a)
        return {
            "is_rigid_W": False,
            "violating_pair": (i + 1, m + 1 + j),
            "coupling": a,
            "probe": SimpleVector.from_matrix(mixed),
            "probe_value": math.sqrt(1.0 + a * a),
        }
    return {"is_rigid_W": True, "violating_pair": None}


# ---------------------------------------------------------------------------
# metric gluing: relative spectrum and equality cases


@dataclass(frozen=True)
class RelativeSpectrum:
    """Eigenvalues of g2 on span(Q) in a g1-orthonormal basis, plus the
    scale t with Q = t e_1 ^ ... ^ e_m in that basis."""

    eigenvalues: np.ndarray
    t_factor: float


def relative_spectrum(
    g1: MetricTensor, g2: MetricTensor, Q: SimpleVector
) -> RelativeSpectrum:
    """Spectrum of g2 restricted to span(Q) relative to g1 on the same plane.

    Solves the generalized symmetric eigenproblem A2 x = lambda A1 x of the
    two restricted Gram matrices as the ordinary one of L^-1 A2 L^-T, with
    A1 = L L^T the Cholesky factorization.  The eigenvalues are independent
    of the basis chosen for the plane; t_factor is the g1 Gram norm of Q.
    """
    if Q.n != g1.n or g1.n != g2.n:
        raise ValueError("dimension mismatch between Q and the metrics")
    M = Q.matrix
    A1 = M.T @ g1.matrix @ M
    A2 = M.T @ g2.matrix @ M
    if np.linalg.matrix_rank(M, tol=1e-12) < Q.m:
        raise ValueError("degenerate simple vector: factors are dependent")
    L = np.linalg.cholesky(A1)
    lams = np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, A2).T))
    if np.any(lams <= 0.0):
        raise ValueError("g2 not positive definite on span(Q)")
    t = gram_norm(Q, g1)
    return RelativeSpectrum(eigenvalues=np.asarray(lams, dtype=float), t_factor=t)


def T_of_s(spec: RelativeSpectrum, s: float) -> float:
    """Squared Gram norm of Q under g(s): t^2 prod_i (1 - s + s lambda_i)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s={s} outside [0, 1]")
    return float(spec.t_factor**2 * np.prod(1.0 - s + s * spec.eigenvalues))


def equality_analysis(
    phi: AlternatingForm,
    g1: MetricTensor,
    g2: MetricTensor,
    Q: SimpleVector,
    *,
    tol: float = 1e-8,
) -> dict:
    """Classify a candidate calibrated plane along the metric path.

    calibrated_all_s: phi(Q) = 1, Q is unit under both endpoints, and all
    relative eigenvalues equal 1, so the Gram norm is identically 1 in s
    and Q stays a comass maximizer along the whole path.
    strictly_interior: unit at both endpoints but the spectrum is not all
    ones; strict convexity pushes the squared Gram norm strictly above 1
    for interior s, so the evaluation ratio phi(Q)/|Q| drops below 1 there.
    not_calibrated: anything else.
    """
    val = evaluate(phi, Q)
    n1 = gram_norm(Q, g1)
    n2 = gram_norm(Q, g2)
    out = {"value": val, "gram_g1": n1, "gram_g2": n2}
    if abs(val - 1.0) > tol or abs(n1 - 1.0) > tol or abs(n2 - 1.0) > tol:
        out["status"] = "not_calibrated"
        return out
    spec = relative_spectrum(g1, g2, Q)
    out["spectrum"] = spec.eigenvalues
    if np.allclose(spec.eigenvalues, 1.0, atol=tol):
        out["status"] = "calibrated_all_s"
    else:
        out["status"] = "strictly_interior"
    return out


def reciprocal_product_hessian(X) -> np.ndarray:
    """Hessian of F(X) = 1/(X_1 ... X_m) at an interior point of the
    positive orthant: F (diag(1/X_i^2) + (1/X)(1/X)^T), positive definite."""
    X = np.asarray(X, dtype=float)
    if np.any(X <= 0.0):
        raise ValueError("Hessian formula valid only on the positive orthant")
    F = 1.0 / np.prod(X)
    inv = 1.0 / X
    return F * (np.diag(inv**2) + np.outer(inv, inv))


# ---------------------------------------------------------------------------
# wedges on complementary blocks


def wedge_comass_bound(C1: float, m1: int, C2: float, m2: int) -> float:
    """Comass bound binom(m1+m2, m1) C1 C2 for a wedge of forms living on
    complementary coordinate blocks with block comasses C1, C2."""
    if C1 < 0.0 or C2 < 0.0:
        raise ValueError("comass inputs must be nonnegative")
    if m1 < 1 or m2 < 1:
        raise ValueError("degrees must be >= 1")
    return math.comb(m1 + m2, m1) * C1 * C2


def wedge_comass_check(
    phi1: AlternatingForm,
    g1: MetricTensor,
    phi2: AlternatingForm,
    g2: MetricTensor,
    *,
    comass_opts: dict | None = None,
) -> dict:
    """Measure the comass of phi1 ^ phi2 under the block metric g1 + g2 and
    compare with the binomial bound from the block comasses."""
    opts = comass_opts or {}
    n1, n2 = phi1.n, phi2.n
    P1 = np.concatenate([np.eye(n1), np.zeros((n1, n2))], axis=1)
    P2 = np.concatenate([np.zeros((n2, n1)), np.eye(n2)], axis=1)
    big = wedge(pullback(P1, phi1), pullback(P2, phi2))
    gblock = MetricTensor(
        np.block(
            [
                [g1.matrix, np.zeros((n1, n2))],
                [np.zeros((n2, n1)), g2.matrix],
            ]
        )
    )
    C1 = comass(phi1, g1, **opts).value
    C2 = comass(phi2, g2, **opts).value
    measured = comass(big, gblock, **opts).value
    bound = wedge_comass_bound(C1, phi1.m, C2, phi2.m)
    return {
        "measured": measured,
        "bound": bound,
        "block_comasses": (C1, C2),
        "ok": measured <= bound + 1e-6,
    }


# ---------------------------------------------------------------------------
# random points of products


def factor_draws(link: ProductLink, samples: int, seed: int) -> list:
    """``samples`` points per factor from one generator seeded with
    ``seed``, factor by factor: uniform points of a round factor, a
    subsample (with replacement when the factor has fewer points) of a
    sampled one.  This is the order in which products drew their points
    before a round hypersurface factor became one exact antipodal pair, so
    tests keep the inputs they were written against."""
    rng = np.random.default_rng(seed)
    out = []
    for f in link.factors:
        if f.points is None:
            v = rng.standard_normal((samples, f.ambient + 1))
            out.append(v / np.linalg.norm(v, axis=1, keepdims=True))
        else:
            idx = rng.choice(len(f.points), size=samples,
                             replace=len(f.points) < samples)
            out.append(f.points[idx])
    return out


def hypersurface_draws(link: ProductLink, samples: int, seed: int):
    """Points (lambda_1 x_1, lambda_2 x_2) of a two-factor round product at
    its ``factor_draws``, and the unit normals (lambda_2 x_1, -lambda_1 x_2)
    there: a Gauss image with no antipodal pair."""
    x1, x2 = factor_draws(link, samples, seed)
    lam1, lam2 = link.lambdas
    return (np.concatenate([lam1 * x1, lam2 * x2], axis=1),
            np.concatenate([lam2 * x1, -lam1 * x2], axis=1))


def block_slices(link: ProductLink) -> list:
    """The slices of each factor's coordinates in R^(ambient_sphere_dim + 1)."""
    ends = np.cumsum([0] + [f.ambient + 1 for f in link.factors])
    return [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]


# ---------------------------------------------------------------------------
# second fundamental forms of round products


def _tangent_basis(link: ProductLink, xs: list) -> list:
    """Orthonormal tangent basis of the product at the point with factor
    coordinates xs, as (factor index, unit factor tangent) pairs."""
    basis = []
    for i, x in enumerate(xs):
        # Householder QR completes x to an orthogonal frame; the columns
        # after the first are an orthonormal tangent basis at x
        q, _ = np.linalg.qr(np.column_stack([x, np.eye(x.size)[:, : x.size - 1]]))
        for a in range(1, x.size):
            basis.append((i, q[:, a]))
    return basis


def _curve_point(link: ProductLink, xs, direction, s: float) -> np.ndarray:
    """Point of the unit-speed product curve through xs with initial
    velocity given by per-factor tangents (factor great circles)."""
    d = link.ambient_sphere_dim + 1
    out = np.zeros(d)
    for i, sl in enumerate(block_slices(link)):
        lam = link.lambdas[i]
        w = direction.get(i)
        if w is None:
            out[sl] = lam * xs[i]
        else:
            speed = np.linalg.norm(w)
            ang = speed * s / lam
            out[sl] = lam * (np.cos(ang) * xs[i] + np.sin(ang) * (w / speed))
    return out


def _sff_vectors(link: ProductLink, xs: list, eps: float = 1e-4):
    """Vector-valued second fundamental form at xs: a (k, k, d) array whose
    contraction with a unit normal v gives the k x k shape matrix h^v."""
    basis = _tangent_basis(link, xs)
    k = link.k
    d = link.ambient_sphere_dim + 1
    x0 = _curve_point(link, xs, {}, 0.0)

    def accel(direction):
        p = _curve_point(link, xs, direction, eps)
        m = _curve_point(link, xs, direction, -eps)
        return (p + m - 2.0 * x0) / (eps * eps)

    diag = []
    for i, u in basis:
        diag.append(accel({i: u}))
    S = np.zeros((k, k, d))
    for a in range(k):
        S[a, a] = diag[a]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for a in range(k):
        ia, ua = basis[a]
        for b in range(a + 1, k):
            ib, ub = basis[b]
            if ia == ib:
                combo = {ia: inv_sqrt2 * (ua + ub)}
            else:
                combo = {ia: inv_sqrt2 * ua, ib: inv_sqrt2 * ub}
            cross = accel(combo) - 0.5 * (diag[a] + diag[b])
            S[a, b] = cross
            S[b, a] = cross
    return S, basis


def numeric_second_fundamental_form(
    link: ProductLink, xs, v: np.ndarray
) -> np.ndarray:
    """Shape matrix h^v at a point, by finite differences.

    ``xs`` lists the point's per-factor unit points; ``v`` must be a unit
    vector normal to the link and tangent to the ambient sphere there.
    """
    _require_round(link, "second fundamental form")
    xs = list(xs)
    v = np.asarray(v, dtype=float)
    x0 = _curve_point(link, xs, {}, 0.0)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8 or abs(v @ x0) > 1e-8:
        raise ValueError("v must be a unit vector orthogonal to the point")
    S, basis = _sff_vectors(link, xs)
    slices = block_slices(link)
    for i, u in basis:
        emb = np.zeros(v.size)
        emb[slices[i]] = u
        if abs(v @ emb) > 1e-8:
            raise ValueError("v has a tangential component")
    H = S @ v
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# exact curvature data of round products


def shape_spectrum(link: ProductLink, b) -> np.ndarray:
    """Principal curvatures of h^v for the mixing normal v = (b_i x_i): the
    eigenvalue -b_i / lambda_i with multiplicity k_i, at every point."""
    dims = [f.dim for f in link.factors]
    return np.repeat(-np.asarray(b, dtype=float) / link.lambdas, dims)


def unit_mixing_normals(link: ProductLink, rng, count: int) -> np.ndarray:
    """``count`` random unit b orthogonal to (lambda_i).  The projection is
    applied twice: once leaves a draw nearly parallel to lambda with a
    rounding residue along it that normalization blows up."""
    lam = link.lambdas
    b = rng.standard_normal((count, link.n_factors))
    for _ in range(2):
        b -= np.outer(b @ lam, lam)
    return b / np.linalg.norm(b, axis=1, keepdims=True)


def p_by_normal_search(link: ProductLink, ts, rng, count: int = 100_000) -> np.ndarray:
    """p(t) = min det(I - t h^v) over ``count`` random unit mixing normals,
    each with both signs, for every t in ``ts``: an upper bound that tends
    to p(t) as the normals fill the sphere."""
    b = unit_mixing_normals(link, rng, count)
    beta = np.vstack([b, -b]) / link.lambdas  # h^v has eigenvalues -beta_i
    dims = np.array([f.dim for f in link.factors])
    return np.array([float(np.prod((1.0 + t * beta) ** dims, axis=1).min())
                     for t in ts])


def p_over_subset_sums(link: ProductLink):
    """p(t) of a round product of two or more factors as the least of the
    terms (1 + a t)^j (1 - b t)^(k - j), a = sqrt((k - j) / j),
    b = sqrt(j / (k - j)), over every proper subset sum j of the factor
    dimensions, each evaluated in the library's order of operations."""
    k = link.k
    sums = {0}
    for f in link.factors:
        sums |= {s + f.dim for s in sums}
    terms = [(j, k - j, math.sqrt((k - j) / j), math.sqrt(j / (k - j)))
             for j in sorted(sums - {0, k})]

    def p_fn(t):
        return min((1.0 + a * t) ** j * (1.0 - b * t) ** m for j, m, a, b in terms)

    return p_fn


def _embed(link: ProductLink, xs) -> np.ndarray:
    return np.concatenate([lam * x for lam, x in zip(link.lambdas, xs)])


def geodesic_chord(link: ProductLink, xs, ys):
    """Half the great-circle distance between the link points with factor
    coordinates xs and ys, and the largest norm, at either end, of the
    chord's unit direction projected on the link's tangent space there
    (the part of each factor block orthogonal to that factor's point).  The
    chord is normal to the link at both ends when that norm is 0."""
    p, q = _embed(link, xs), _embed(link, ys)
    c = float(np.clip(p @ q, -1.0, 1.0))
    tangential = 0.0
    for start, end, coords in ((p, q, xs), (q, p, ys)):
        u = end - c * start
        u /= np.linalg.norm(u)
        parts = [u[sl] - (u[sl] @ z) * z for sl, z in zip(block_slices(link), coords)]
        tangential = max(tangential, float(np.linalg.norm(np.concatenate(parts))))
    return 0.5 * math.acos(c), tangential


def double_normal_chords(link: ProductLink, xs) -> list:
    """(flipped factors, half length, tangential part) of the chord from the
    point xs to each point that negates the factors of a nonempty proper
    subset and keeps the rest.  Every normal geodesic from xs lies in the
    span of the factor points, so these are the chords from xs that can be
    normal at both ends; flipping every factor gives the antipode, at half
    length pi/2, which no normal radius of a product exceeds."""
    out = []
    n = link.n_factors
    for mask in range(1, 2 ** n - 1):
        flipped = tuple(i for i in range(n) if mask >> i & 1)
        ys = [-x if i in flipped else x for i, x in enumerate(xs)]
        out.append((flipped, *geodesic_chord(link, xs, ys)))
    return out


# ---------------------------------------------------------------------------
# open-hemisphere decision


def _max_margin_direction(X: np.ndarray):
    """Maximize e subject to <w, x_i> >= e and |w|_inf <= 1."""
    S, d = X.shape
    # variables (w_1..w_d, e); minimize -e
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A = np.concatenate([-X, np.ones((S, 1))], axis=1)
    b = np.zeros(S)
    bounds = [(-1.0, 1.0)] * d + [(None, None)]
    res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"margin program failed: {res.message}")
    return res.x[:d], float(res.x[-1])


def _zero_hull_weights(X: np.ndarray):
    """Minimize |X^T y|_inf over convex weights y."""
    S, d = X.shape
    # variables (y_1..y_S, u); minimize u
    c = np.zeros(S + 1)
    c[-1] = 1.0
    A_rows = []
    for sgn in (1.0, -1.0):
        A_rows.append(np.concatenate([sgn * X.T, -np.ones((d, 1))], axis=1))
    A = np.concatenate(A_rows, axis=0)
    b = np.zeros(2 * d)
    A_eq = np.concatenate([np.ones((1, S)), np.zeros((1, 1))], axis=1)
    res = linprog(
        c,
        A_ub=A,
        b_ub=b,
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * S + [(None, None)],
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"hull program failed: {res.message}")
    y = np.clip(res.x[:S], 0.0, None)
    y /= y.sum()
    return y, float(np.linalg.norm(X.T @ y))


def hemisphere_by_lp(X: np.ndarray, tol: float = 1e-9) -> HemisphereCertificate:
    """The open-hemisphere decision as ``hemisphere_test`` made it on sets
    without an antipodal pair before the nearest-point solve: a box-normalized
    max-margin LP, then either an NNLS 2-norm polish with a 1e6 penalty row
    on the weight sum, or a second LP for the convex weights nearest zero in
    the inf-norm.  Certificates carry method "lp"."""
    w, margin_lp = _max_margin_direction(X)
    wn = np.linalg.norm(w)
    direction = w / wn if wn > 1e-12 else None
    margin = float(np.min(X @ direction)) if direction is not None else -1.0
    if margin_lp > tol and direction is not None and margin > 0.0:
        # the nearest hull point gives the best direction in the 2-norm
        rho = 1e6
        A = np.concatenate([X.T, rho * np.ones((1, len(X)))], axis=0)
        rhs = np.concatenate([np.zeros(X.shape[1]), [rho]])
        y, _ = nnls(A, rhs)
        z = X.T @ y
        zn = np.linalg.norm(z)
        if zn > tol:
            cand = z / zn
            cand_margin = float(np.min(X @ cand))
            if cand_margin > margin:
                direction, margin = cand, cand_margin
        return HemisphereCertificate("feasible", "lp", direction=direction, margin=margin)
    y, residual = _zero_hull_weights(X)
    assert np.all(y >= 0.0) and abs(y.sum() - 1.0) <= 1e-9
    if residual <= tol:
        return HemisphereCertificate(
            "infeasible", "lp", convex_weights=y, residual=residual
        )
    # neither certificate is clean: the configuration sits on the decision
    # boundary at this tolerance
    return HemisphereCertificate(
        "boundary",
        "lp",
        direction=direction,
        margin=margin,
        convex_weights=y,
        residual=residual,
    )
