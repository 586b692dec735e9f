"""Curvature criterion for area-minimizing cones over sphere links.

The cone over a k-dimensional minimal link L is certified area-minimizing
by a scalar profile argument: a function h(t) with h(0) = 1 descending to
zero subject to the calibration inequality

    (h - t h'/(k+1))^2 + (h'/(k+1))^2 <= p(t)^2,

where p(t) = inf det(I - t h^v) encodes the link's second fundamental form.
The polar angle where the fastest admissible descent reaches zero is the
vanishing angle; the criterion fires when it is at most half the normal
radius of the link.

Two printed forms of the descent ODE circulate, differing in whether the
slope terms are divided by k or k+1.  Both are implemented behind the
``normalization`` flag ("k-plus-1" for the k+1 variant obtained by solving the
inequality's quadratic directly, "k" for the k variant); the k+1
variant is the default.

Curvature inputs can be exact (p supplied) or conservative controls built
from a bound alpha on the norm of the second fundamental form:
F(alpha,t,k+1) and the coarser (1-alpha t) e^(alpha t).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

__all__ = [
    "CurvatureModel",
    "Profile",
    "CriterionVerdict",
    "LinkData",
    "f_control",
    "c_control",
    "slope_interval",
    "second_order_coeffs",
    "integrate_fastest",
    "build_smooth_profile",
    "verify_profile",
    "vanishing_angle",
    "check_area_minimizing",
]

NORMALIZATIONS = ("k-plus-1", "k")


def _factor(k: int, normalization: str) -> float:
    """Slope divisor in the calibration inequality / descent ODE."""
    if normalization == "k-plus-1":
        return float(k + 1)
    if normalization == "k":
        return float(k)
    raise ValueError(f"unknown normalization {normalization!r}")


@dataclass(frozen=True)
class CurvatureModel:
    """Curvature data of a k-dimensional link: a bound alpha on the second
    fundamental form, the determinant infimum p(t), and its quadratic
    Taylor coefficient p2 at t = 0."""

    k: int
    alpha: float
    p_fn: Callable[[float], float]
    p2: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("link dimension k must be >= 1")
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if abs(self.p_fn(0.0) - 1.0) > 1e-10:
            raise ValueError("p(0) must equal 1")
        if self.p2 > 1e-8:
            raise ValueError("p2 must be <= 0")
        if self.p2 > 0.0:
            object.__setattr__(self, "p2", 0.0)


@dataclass(frozen=True)
class Profile:
    """Sampled descent profile h(t) with its axis-hit location, if any."""

    t_samples: np.ndarray
    h_values: np.ndarray
    vanishing_t: Optional[float]
    theta: Optional[float]

    def __post_init__(self):
        if abs(self.h_values[0] - 1.0) > 1e-9 or self.t_samples[0] != 0.0:
            raise ValueError("profile must start at h(0) = 1")


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of comparing a vanishing angle with half the normal radius."""

    theta_used: Optional[float]
    control: str
    R_half: float
    passes: bool
    margin: Optional[float]
    status: str


@dataclass(frozen=True)
class LinkData:
    """Minimal inputs the criterion needs about a link."""

    k: int
    alpha: float
    normal_radius: float
    p_fn: Optional[Callable[[float], float]] = None
    p2: Optional[float] = None


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


def slope_interval(
    t: float, y: float, model: CurvatureModel, normalization: str = "k-plus-1"
) -> tuple[float, float]:
    """Admissible slopes h'(t) at height y under the calibration inequality.

    Substituting u = h'/K into the inequality gives the quadratic
    (1+t^2) u^2 - 2 t y u + y^2 - p^2 <= 0, so the admissible slopes form
    the closed interval K (t y -+ sqrt((1+t^2) p^2 - y^2)) / (1+t^2).
    """
    K = _factor(model.k, normalization)
    p = model.p_fn(t)
    band = np.sqrt(t * t + 1.0) * p
    if not 0.0 < y <= band + 1e-14:
        raise ValueError(f"height y={y} outside the admissible band (0, {band}]")
    disc = max((t * t + 1.0) * p * p - y * y, 0.0)
    root = np.sqrt(disc)
    lo = K * (t * y - root) / (t * t + 1.0)
    hi = K * (t * y + root) / (t * t + 1.0)
    return float(lo), float(hi)


def second_order_coeffs(
    k: int, p2: float, normalization: str = "k-plus-1"
) -> tuple[float, float]:
    """Quadratic departure coefficients for h = 1 - a t^2 near t = 0.

    Substituting the series into the descent equality with slope divisor K
    yields a = (K/4) ((K-2) +- sqrt((K-2)^2 + 8 p2)); returns (a_min, a_max).
    """
    K = _factor(k, normalization)
    disc = (K - 2.0) ** 2 + 8.0 * p2
    if disc < 0.0:
        raise ValueError(
            f"negative discriminant: no real quadratic departure for k={k}, p2={p2}"
        )
    root = np.sqrt(disc)
    a_min = (K / 4.0) * ((K - 2.0) - root)
    a_max = (K / 4.0) * ((K - 2.0) + root)
    return float(a_min), float(a_max)


def _fastest_rhs(K: float, p_fn):
    def rhs(t, h):
        p = p_fn(t)
        disc = max((t * t + 1.0) * p * p - h[0] * h[0], 0.0)
        return [K * (t * h[0] - np.sqrt(disc)) / (t * t + 1.0)]

    return rhs


def _descend(K: float, p_fn, t0: float, h0: float, t_end: float, atol: float,
             rtol: float):
    """Fastest descent from h(t0) = h0 toward t_end, stopped where the
    profile reaches the axis or the admissible band collapses onto it.

    Returns the solver result and how it ended: ("hit", t) at an axis hit,
    including the band and the profile reaching zero together; ("pinch", t)
    when the band closes while the profile is still positive, so no
    solution of the slope inequality continues; None at t_end.  A solver
    failure raises RuntimeError rather than reading as "no hit".
    """

    def hit(t, h):
        return h[0]

    def pinch(t, h):
        p = p_fn(t)
        return (t * t + 1.0) * p * p - h[0] * h[0]

    for event in (hit, pinch):
        event.terminal = True
        event.direction = -1
    sol = solve_ivp(
        _fastest_rhs(K, p_fn),
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
        return sol, ("hit", float(sol.t_events[0][0]))
    if sol.t_events[1].size:
        kind = "hit" if sol.y_events[1][0][0] <= 1e-8 else "pinch"
        return sol, (kind, float(sol.t_events[1][0]))
    return sol, None


def integrate_fastest(
    model: CurvatureModel,
    *,
    normalization: str = "k-plus-1",
    t_boot: float = 1e-3,
    t_cap: float = 50.0,
    atol: float = 1e-10,
    rtol: float = 1e-10,
    grid_points: int = 4001,
) -> Profile:
    """Fastest admissible descent from h(0) = 1.

    The start is a degenerate double root (the slope interval at (0,1) is
    the single point 0), so the integration bootstraps with the series
    h = 1 - a_max t^2 on [0, t_boot] before following the ODE, using an
    embedded adaptive Runge-Kutta pair with terminal event detection at
    h = 0.  Absence of a real quadratic departure or of an axis hit below
    t_cap yields vanishing_t = None; a solver failure raises RuntimeError.
    """
    K = _factor(model.k, normalization)
    try:
        _, a_max = second_order_coeffs(model.k, model.p2, normalization)
    except ValueError:
        t = np.linspace(0.0, t_boot, 16)
        return Profile(t, np.ones_like(t), None, None)
    if a_max <= 0.0:
        # non-descending branch (k = 1 with p2 = 0): h never leaves 1
        t = np.linspace(0.0, t_cap, grid_points)
        return Profile(t, np.ones_like(t), None, None)

    h0 = 1.0 - a_max * t_boot * t_boot
    # deviations from the fastest branch grow like a power of t, so errors
    # committed near the degenerate start are amplified the most; integrate
    # the early leg with a much tighter tolerance than requested
    t_split = min(0.2, 0.5 * (t_boot + t_cap))
    legs = []
    end = None
    t0 = t_boot
    if t_split > t_boot:
        early, end = _descend(K, model.p_fn, t0, h0, t_split, 1e-3 * atol,
                              max(1e-3 * rtol, 3e-14))
        legs.append(early)
        t0, h0 = float(early.t[-1]), float(early.y[0, -1])
    if end is None:
        sol, end = _descend(K, model.p_fn, t0, h0, t_cap, atol, rtol)
        legs.append(sol)
    t_hit = end[1] if end is not None and end[0] == "hit" else None
    theta = float(np.arctan(t_hit)) if t_hit is not None else None

    t_end = t_hit if t_hit is not None else float(legs[-1].t[-1])
    ts = np.linspace(0.0, t_end, grid_points)
    hs = np.empty_like(ts)
    boot = ts <= t_boot
    hs[boot] = 1.0 - a_max * ts[boot] ** 2
    rest = ~boot
    if np.any(rest):
        vals = np.empty(int(rest.sum()))
        tr = ts[rest]
        lo = 0.0
        for leg in legs:
            hi = leg.t[-1]
            mask = (tr > lo) & (tr <= hi + 1e-15)
            if np.any(mask):
                vals[mask] = leg.sol(np.minimum(tr[mask], hi))[0]
            lo = hi
        hs[rest] = np.clip(vals, 0.0, None)
    if t_hit is not None:
        hs[-1] = 0.0
    return Profile(ts, hs, t_hit, theta)


def verify_profile(
    profile: Profile, model: CurvatureModel, normalization: str = "k-plus-1"
) -> dict:
    """Pointwise calibration-inequality audit of a sampled profile.

    Evaluates (h - t h'/K)^2 + (h'/K)^2 - p(t)^2 with central finite
    differences at interior grid points, for both slope divisors; ok iff
    the requested normalization's worst margin is at most 1e-6.
    """
    t = profile.t_samples
    h = profile.h_values
    if t.size < 5:
        raise ValueError("profile grid too coarse to audit")
    dh = np.gradient(h, t, edge_order=2)
    p2vals = np.asarray([model.p_fn(x) for x in t], dtype=float) ** 2
    margins = {}
    for name in NORMALIZATIONS:
        K = _factor(model.k, name)
        res = (h - t * dh / K) ** 2 + (dh / K) ** 2 - p2vals
        margins[name] = float(np.max(res[1:-1]))
    worst = margins[normalization]
    return {"ok": worst <= 1e-6, "worst_margin": worst, "margins": margins}


def _control_model(control: str, alpha: float, k: int, p_fn=None, p2=None):
    if control == "F":
        return CurvatureModel(
            k, alpha, lambda t: f_control(alpha, t, k), -0.5 * alpha * alpha
        )
    if control == "c":
        return CurvatureModel(k, alpha, lambda t: c_control(alpha, t), -0.5 * alpha * alpha)
    if control == "custom":
        if p_fn is None or p2 is None:
            raise ValueError("custom control requires p_fn and p2")
        return CurvatureModel(k, alpha, p_fn, p2)
    raise ValueError(f"unknown control {control!r}")


def vanishing_angle(
    control: str,
    alpha: float,
    k: int,
    p_fn=None,
    p2=None,
    *,
    normalization: str = "k-plus-1",
    **integrate_opts,
) -> Optional[float]:
    """Polar angle arctan(t0) where the fastest descent hits zero under the
    chosen curvature input; None when no descent or no hit exists."""
    model = _control_model(control, alpha, k, p_fn, p2)
    prof = integrate_fastest(model, normalization=normalization, **integrate_opts)
    return prof.theta


def build_smooth_profile(
    model: CurvatureModel,
    a: float,
    delta: float,
    theta2_gap: float,
    *,
    normalization: str = "k-plus-1",
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
    a_min, a_max = second_order_coeffs(model.k, model.p2, normalization)
    if not a_min < a < a_max:
        raise ValueError(f"a={a} outside the open interval ({a_min}, {a_max})")
    if delta <= 0.0 or theta2_gap <= 0.0:
        raise ValueError("delta and theta2_gap must be positive")
    K = _factor(model.k, normalization)
    t1 = np.tan(delta)

    # quadratic cap must satisfy the inequality strictly on (0, tan delta]
    tc = np.linspace(t1 / 400.0, t1, 400)
    hc = 1.0 - a * tc * tc
    dc = -2.0 * a * tc
    pc = np.asarray([model.p_fn(x) for x in tc]) ** 2
    res = (hc - tc * dc / K) ** 2 + (dc / K) ** 2 - pc
    if np.max(res) > 1e-12 or hc[-1] <= 0.0:
        raise ValueError("delta too large: quadratic cap violates the inequality")

    sol, end = _descend(K, model.p_fn, t1, 1.0 - a * t1 * t1, 50.0, 1e-10, 1e-10)
    if end is None:
        raise ValueError("descent after the quadratic cap never reaches the axis")
    if end[0] == "pinch":
        raise ValueError("descent leaves the admissible band before the axis")
    t_hat = end[1]

    # tangential landing: cubic Hermite from a point shortly before the raw
    # hit to (t2, 0) with zero slope, t2 past the hit but within the gap
    t2 = np.tan(min(np.arctan(t_hat) + 0.5 * theta2_gap, np.pi / 2 - 1e-9))
    for shrink in range(40):
        w = (t2 - t_hat) * 0.5**shrink
        ta = t_hat - w
        if ta <= t1:
            continue
        ha = float(sol.sol(ta)[0])
        da = float(_fastest_rhs(K, model.p_fn)(ta, [ha])[0])
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
    hs[seg2] = sol.sol(ts[seg2])[0]
    hs[seg3] = np.clip([blend(t) for t in ts[seg3]], 0.0, None)
    hs[-1] = 0.0
    return Profile(ts, hs, float(t_land), float(np.arctan(t_land)))


def check_area_minimizing(
    link: LinkData,
    control: str = "F",
    *,
    normalization: str = "k-plus-1",
    **integrate_opts,
) -> CriterionVerdict:
    """Compare the vanishing angle with half the link's normal radius.

    A pass certifies the cone as area-minimizing; a fail is only ever
    inconclusive.  Margins within 1e-6 of zero are flagged as boundary
    cases too tight to trust numerically.
    """
    if link.normal_radius is None or not np.isfinite(link.normal_radius):
        raise ValueError("link is missing a normal radius")
    theta = vanishing_angle(
        control,
        link.alpha,
        link.k,
        p_fn=link.p_fn,
        p2=link.p2,
        normalization=normalization,
        **integrate_opts,
    )
    R_half = 0.5 * link.normal_radius
    if theta is None:
        return CriterionVerdict(None, control, R_half, False, None, "inconclusive")
    margin = R_half - theta
    passes = theta <= R_half
    if abs(margin) < 1e-6:
        status = "boundary-inconclusive"
    elif passes:
        status = "passes"
    else:
        status = "inconclusive"
    return CriterionVerdict(theta, control, R_half, passes, margin, status)
