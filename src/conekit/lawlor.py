"""Curvature criterion for area-minimizing cones over sphere links.

The cone over a k-dimensional minimal link L is certified area-minimizing
by a scalar profile argument: a function h(t) with h(0) = 1 descending to
zero subject to the calibration inequality

    (h - t h'/(k+1))^2 + (h'/(k+1))^2 <= p(t)^2,

where p(t) = inf det(I - t h^v) encodes the link's second fundamental form.
The polar angle where the fastest admissible descent reaches zero is the
vanishing angle; the criterion fires when it is at most half the normal
radius of the link.

The slope divisor is K = k + 1, the dimension of the cone.  A quadratic
departure h = 1 - a t^2 exists iff (K-2)^2 + 8 p2 >= 0, and with p2 =
-alpha^2/2 that reads (k-1)^2 >= 4 alpha^2: for a hypersurface link with
|A|^2 = alpha^2 this is Simons' stability inequality for the (k+1)-dimensional
cone (Simons, Ann. of Math. 88, 1968).  The divisor K = k would give the
threshold of a cone one dimension lower.

A link's curvature input is one ``CurvatureModel``, passed unchanged from
the product to the descent: the custom control descends on it, and the
conservative controls F(alpha,t,k+1) and the coarser (1-alpha t) e^(alpha t)
are built from its k and its bound alpha on the second fundamental form.

The descent starts from the exact Taylor series of its fastest branch.
With u = h'/K the descent equality reads (h - t u)^2 + u^2 = p^2, a
polynomial identity in the coefficients of h and p with no square root:
h = 1 - a_max t^2 + ..., and for n >= 3 the coefficient of t^n solves one
linear equation whose pivot 2 - n (1 + r/K), r = sqrt((K-2)^2 + 8 p2), is at
most 2 - n.  Every curvature model carries p's Taylor coefficients (the F
and c controls, round-sphere products, and hand-built models), so the series
runs to order 30 and the ODE takes over where its last two terms fall below
1e-17, at most t = 0.2.

From there the descent ODE is integrated in one run, at the requested
tolerances, by a loop over Python floats that follows scipy's DOP853
(Hairer, Norsett and Wanner, Solving Ordinary Differential Equations I,
II.10) rule for rule: the same tableau, error norm and step-size control,
so its results differ from ``solve_ivp``'s only by rounding.  The tableau
is read from scipy's ``dop853_coefficients.py``, loaded by file path: that
file needs only numpy, while importing it as a scipy module would first run
``scipy.integrate``'s package import, which loads scipy.linalg and
scipy.optimize.  The 7th-order dense output is built only for the steps
where an event is located, and event times are found by Brent's method
(Brent, Algorithms for Minimization without Derivatives, 1973) in a port
of scipy's ``brentq`` to Python floats.
Every descent records where it started and the order of its series, how it
ended ("hit", "pinch", "no-departure" or "t_cap") and what it cost
(accepted steps, right-hand-side calls).

The jobs read a descent only through its verdict or its vanishing angle.
Sampled profiles with their pointwise audit, the slope interval and smooth
profile surgery tangent to the axis are kept in ``tests/oracles.py``.
"""

import importlib.util
import math
import sys
import warnings
from dataclasses import dataclass
from itertools import chain
from operator import mul
from pathlib import Path
from typing import Callable, Optional

import numpy as np

__all__ = [
    "CurvatureModel",
    "CriterionVerdict",
    "LinkData",
    "second_order_coeffs",
    "descent_series",
    "vanishing_angle",
    "check_area_minimizing",
]

DESCENT_ENDS = ("hit", "pinch", "no-departure", "t_cap")


def _load_dop853_tableau():
    """scipy's DOP853 coefficient module, executed from its file.

    The file imports only numpy.  Locating it through ``find_spec("scipy")``
    reads scipy's package path without importing anything, whereas a
    ``scipy.integrate`` import would run that package's ``__init__``."""
    path = (Path(importlib.util.find_spec("scipy").origin).parent
            / "integrate" / "_ivp" / "dop853_coefficients.py")
    spec = importlib.util.spec_from_file_location("_dop853_coefficients", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# DOP853 coefficients as Python floats: row s of _A holds the s weights of
# stage s, and rows 13-15 are the extra stages of the dense output
_dop = _load_dop853_tableau()
_STAGES = _dop.N_STAGES
_A = [[float(a) for a in row[:s]] for s, row in enumerate(_dop.A)]
_B = [float(b) for b in _dop.B]
_C = [float(c) for c in _dop.C]
_E3 = [float(e) for e in _dop.E3]
_E5 = [float(e) for e in _dop.E5]
_D = [[float(d) for d in row] for row in _dop.D]
_ERROR_ORDER = 7
_ERROR_EXPONENT = -1.0 / (_ERROR_ORDER + 1)
_MAX_STEP = 0.01
_EVENT_TOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100
_MIN_RTOL = 100.0 * sys.float_info.epsilon

# series start: order of the Taylor series of the fastest branch, the size
# its last two terms may reach at the start, the latest start, the allowed
# mismatch of Taylor data and p_fn, and how often a start may be halved
SERIES_ORDER = 30
_SERIES_TAIL = 1e-17
T_SERIES_MAX = 0.2
_TAYLOR_RTOL = 1e-13
_START_HALVINGS = 40


@dataclass(frozen=True)
class CurvatureModel:
    """Curvature data of a k-dimensional link: a bound alpha on the second
    fundamental form, the determinant infimum p(t), and p's Taylor
    coefficients at 0, starting 1, 0, p2 with p2 <= 0.

    p equals the polynomial of ``taylor`` up to rounding wherever the
    descent can start (a polynomial p, or a series truncated far beyond
    order 30), and the descent starts from its order-30 series."""

    k: int
    alpha: float
    p_fn: Callable[[float], float]
    taylor: tuple

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("link dimension k must be >= 1")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        # written as not (... <= tol) so that NaN and inf fail too
        if not abs(self.p_fn(0.0) - 1.0) <= 1e-10:
            raise ValueError("p(0) must equal 1")
        taylor = tuple(float(c) for c in self.taylor)
        if len(taylor) < 3 or taylor[:2] != (1.0, 0.0):
            raise ValueError("Taylor data must start with 1, 0, p2")
        if taylor[2] > 0.0:
            raise ValueError("Taylor data must have p2 <= 0")
        if not all(math.isfinite(c) for c in taylor):
            raise ValueError("Taylor data must be finite")
        object.__setattr__(self, "taylor", taylor)

    @property
    def p2(self) -> float:
        """Quadratic Taylor coefficient of p at 0."""
        return self.taylor[2]

    def check_taylor(self, t: float):
        """Reject Taylor data that disagrees with p_fn at t by more than
        1e-13 relative."""
        series, value = _horner(self.taylor, t), float(self.p_fn(t))
        if not abs(series - value) <= _TAYLOR_RTOL * abs(value):
            raise ValueError(
                f"Taylor data give p({t:.6g}) = {series!r} but p_fn gives {value!r}"
            )


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of comparing a vanishing angle with half the normal radius,
    how the descent behind the angle ended, and where it started and from
    which series order (None without a descent)."""

    theta_used: Optional[float]
    control: str
    R_half: float
    passes: bool
    margin: Optional[float]
    status: str
    end: str
    t_start: Optional[float] = None
    series_order: Optional[int] = None


@dataclass(frozen=True)
class LinkData:
    """What the criterion needs about a link: its curvature model, which
    also gives k and alpha, and its normal radius."""

    curvature: CurvatureModel
    normal_radius: float


def second_order_coeffs(k: int, p2: float) -> tuple[float, float]:
    """Quadratic departure coefficients for h = 1 - a t^2 near t = 0.

    Substituting the series into the descent equality with slope divisor
    K = k + 1 yields a = (K/4) ((K-2) +- sqrt((K-2)^2 + 8 p2)); returns
    (a_min, a_max).
    """
    K = k + 1.0
    disc = (K - 2.0) ** 2 + 8.0 * p2
    if disc < 0.0:
        raise ValueError(
            f"negative discriminant: no real quadratic departure for k={k}, p2={p2}"
        )
    root = np.sqrt(disc)
    a_min = (K / 4.0) * ((K - 2.0) - root)
    a_max = (K / 4.0) * ((K - 2.0) + root)
    return float(a_min), float(a_max)


def _horner(coeffs, t):
    """Value at t (a float or an array) of the polynomial with these
    coefficients, lowest order first."""
    y = 0.0
    for c in reversed(coeffs):
        y = y * t + c
    return y


def _series_pivot(n: int, K: float, a_max: float) -> float:
    """Coefficient of c_n in the order-n equation of the fastest branch,
    scaled by K^2: 2 K (K - n) - 4 n a_max = K^2 (2 - n (1 + r/K))."""
    return 2.0 * K * (K - n) - 4.0 * n * a_max


def descent_series(taylor, K: float, a_max: float, order: int = SERIES_ORDER) -> list:
    """Taylor coefficients c_0..c_order of the fastest descent at t = 0.

    ``taylor`` holds p's coefficients from order 0 (missing ones are 0),
    K is the slope divisor and a_max the fastest quadratic departure.  The
    descent equality times K^2 is A^2 + U^2 = K^2 p^2 with A = K h - t h',
    U = h', whose coefficients are A_n = (K - n) c_n and U_n = (n+1) c_{n+1}.
    At order n >= 3 it is linear in c_n:

        pivot_n c_n = K^2 [p^2]_n - sum_{i=1}^{n-1} A_i A_{n-i} - sum_{i=2}^{n-2} U_i U_{n-i}

    with pivot_n = 2 K (K - n) - 4 n a_max = K^2 (2 - n (1 + r/K)) and
    2 - n (1 + r/K) <= 2 - n, so the fastest branch is never resonant.  The
    sums are rounded once (``math.fsum``).
    """
    p = list(taylor[: order + 1]) + [0.0] * (order + 1 - len(taylor))
    c = [1.0, 0.0, -a_max]
    A = [K, 0.0, -a_max * (K - 2.0)]
    U = [0.0, -2.0 * a_max]
    KK = K * K
    for n in range(3, order + 1):
        rest = math.fsum(chain(map(mul, A[1:n], A[n - 1:0:-1]),
                               map(mul, U[2:n - 1], U[n - 2:1:-1])))
        cn = (KK * math.fsum(map(mul, p[:n + 1], p[n::-1])) - rest) / _series_pivot(n, K, a_max)
        c.append(cn)
        A.append(cn * (K - n))
        U.append(n * cn)
    return c


def _series_t_boot(coeffs: list) -> float:
    """Where the ODE takes over from the series: where its last two terms
    fall to 1e-17, at most 0.2."""
    order = len(coeffs) - 1
    tail = max(abs(coeffs[-2]), abs(coeffs[-1]))
    t = T_SERIES_MAX if tail == 0.0 else (_SERIES_TAIL / tail) ** (1.0 / (order - 1))
    return min(t, T_SERIES_MAX)


def _series_start(coeffs: list, rhs):
    """(t, h) where the ODE takes over from the series, with h > 0 and the
    band (1+t^2) p^2 - h^2 open, so the start lies before the descent's hit
    or pinch.  The series' own choice of t is halved until it does."""
    t = _series_t_boot(coeffs)
    for _ in range(_START_HALVINGS):
        h = _horner(coeffs, t)
        if h > 0.0 and rhs(t, h)[1] > 0.0:
            return t, h
        t *= 0.5
    raise ValueError(f"series start at t = {t:.6g} gives h = {h!r} outside the open band")


def _descent_rhs(K: float, p_fn):
    """Slope of the fastest descent at (t, h), with the band value
    (1+t^2) p^2 - h^2 whose sign change is the pinch event.  A non-finite
    p or band raises rather than being clamped into the band."""

    def rhs(t, h):
        p = float(p_fn(t))
        q = t * t + 1.0
        disc = q * p * p - h * h
        if not math.isfinite(disc):
            raise RuntimeError(
                f"descent ODE failed at t = {t:.6g}: p = {p!r}, h = {h!r} "
                "give a non-finite right-hand side"
            )
        return K * (t * h - (math.sqrt(disc) if disc > 0.0 else 0.0)) / q, disc

    return rhs


class _Descent:
    """One adaptive DOP853 run: its nodes (ts, ys), the stage slopes of
    every accepted step, how it ended, and the dense output of a step on
    demand (``_at``).

    ``end`` is ("hit", t) or ("pinch", t) when an event stopped the run at
    t, which is then the last node, and None when it reached its end point.
    The 7th-order interpolant of a step, with its three extra stages, is
    built the first time the step is evaluated.
    """

    def __init__(self, rhs, t0: float, h0: float):
        self.rhs = rhs
        self.ts, self.ys = [t0], [h0]
        self.steps = []  # (t_old, h, y_old, y_new, stage slopes K_0..K_12)
        self.end = None
        self.rhs_calls = 0
        self._coeffs = {}

    def _interpolant(self, i: int) -> list:
        F = self._coeffs.get(i)
        if F is None:
            t, h, y, y_new, K = self.steps[i]
            K = list(K)
            for s in range(_STAGES + 1, len(_A)):
                K.append(self.rhs(t + _C[s] * h, y + sum(map(mul, K, _A[s])) * h)[0])
            self.rhs_calls += len(_A) - _STAGES - 1
            dy = y_new - y
            F = [dy, h * K[0] - dy, 2.0 * dy - h * (K[_STAGES] + K[0])]
            F += [h * sum(map(mul, row, K)) for row in _D]
            self._coeffs[i] = F
        return F

    def _at(self, i: int, t):
        """Dense output of step i at t (a float or an array)."""
        t_old, h, y_old = self.steps[i][:3]
        x = (t - t_old) / h
        y = 0.0
        for j, f in enumerate(reversed(self._interpolant(i))):
            y = (y + f) * (x if j % 2 == 0 else 1.0 - x)
        return y + y_old


def _brentq(f, xa: float, xb: float) -> float:
    """Root of f in the bracket [xa, xb] by Brent's method, to xtol = rtol =
    _EVENT_TOL within _BRENT_MAXITER iterations.

    A line-by-line port of scipy's ``brentq`` (``Zeros/brentq.c``) to Python
    floats, with its default iteration cap, its sign test on the sign bits
    and its arithmetic in the same order, so it returns the same float.  Like
    scipy it raises ValueError on a bracket without a sign change; a NaN
    value, or no convergence within the cap, raises RuntimeError.
    """

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise RuntimeError(f"event function is NaN at t = {x!r}")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_EVENT_TOL + _EVENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"event root failed to converge after {_BRENT_MAXITER} iterations, "
                       f"value is {xcur!r}")


def _descend(rhs, t0: float, h0: float, t_end: float, atol: float, rtol: float) -> _Descent:
    """Fastest descent from h(t0) = h0 toward t_end, stopped where the
    profile reaches the axis or the admissible band collapses onto it.

    A scalar DOP853 loop with the tableau, error norm and step-size control
    of scipy's ``solve_ivp(method="DOP853", max_step=0.01)``: its initial
    step selection, safety factor 0.9, step factors within [0.2, 10], no
    growth right after a rejected step, and failure below ten spacings of
    t.  Like ``solve_ivp``, it raises an rtol below 100 eps to 100 eps with
    a warning.  The run ends ("hit", t) at an axis hit, including the band
    and the profile reaching zero together; ("pinch", t) when the band
    closes while the profile is still positive, so no solution of the slope
    inequality continues; None at t_end.  Event times are roots of the
    dense output found by ``_brentq``, the port of scipy's ``brentq``, at
    xtol = rtol = 4 eps.  A non-finite value or a step below the minimum
    raises RuntimeError rather than reading as "no hit".
    """
    if rtol < _MIN_RTOL:
        warnings.warn(f"rtol {rtol!r} is too small; using {_MIN_RTOL!r}", stacklevel=3)
        rtol = _MIN_RTOL
    run = _Descent(rhs, t0, h0)
    t, y = t0, h0
    f, g_pinch = rhs(t, y)
    # initial step (Hairer, Norsett and Wanner, Solving ODEs I, II.4)
    scale = atol + abs(y) * rtol
    d0, d1 = abs(y) / scale, abs(f) / scale
    span = t_end - t
    step0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = abs(rhs(t + step0, y + step0 * f)[0] - f) / scale / step0
    if d1 <= 1e-15 and d2 <= 1e-15:
        step1 = max(1e-6, step0 * 1e-3)
    else:
        step1 = (0.01 / max(d1, d2)) ** (1.0 / (_ERROR_ORDER + 1))
    h_abs = min(100.0 * step0, step1, span, _MAX_STEP)
    calls = 2
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), _MAX_STEP)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(
                    f"descent ODE failed after t = {t:.6g}: required step size "
                    "is less than spacing between numbers"
                )
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            K = [f]
            for s in range(1, _STAGES):
                K.append(rhs(t + _C[s] * h, y + sum(map(mul, K, _A[s])) * h)[0])
            y_new = y + h * sum(map(mul, K, _B))
            f_new, g_new = rhs(t + h, y_new)
            K.append(f_new)
            calls += _STAGES
            scale = atol + max(abs(y), abs(y_new)) * rtol
            err5 = sum(map(mul, K, _E5)) / scale
            err3 = sum(map(mul, K, _E3)) / scale
            e5, e3 = err5 * err5, err3 * err3
            err = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / math.sqrt(e5 + 0.01 * e3)
            if not math.isfinite(err):
                raise RuntimeError(f"descent ODE failed after t = {t:.6g}: error norm {err!r}")
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** _ERROR_EXPONENT)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err ** _ERROR_EXPONENT)
            rejected = True
        run.steps.append((t, h, y, y_new, K))
        run.ts.append(t_new)
        run.ys.append(y_new)
        # terminal events, both crossing downward: h = 0 and the band closing
        i = len(run.steps) - 1
        events = []
        if y >= 0.0 and y_new <= 0.0:
            events.append((lambda s: run._at(i, s), "hit"))
        if g_pinch >= 0.0 and g_new <= 0.0:
            events.append((lambda s: rhs(s, run._at(i, s))[1], "pinch"))
        roots = [(_brentq(g, t, t_new), kind) for g, kind in events]
        if roots:
            t_ev, kind = min(roots, key=lambda r: r[0])
            if kind == "pinch" and run._at(i, t_ev) <= 1e-8:
                kind = "hit"
            run.ts[-1], run.ys[-1] = t_ev, run._at(i, t_ev)
            run.end = (kind, t_ev)
            break
        t, y, f, g_pinch = t_new, y_new, f_new, g_new
    run.rhs_calls += calls
    return run


def _fastest(model: CurvatureModel, t_cap: float = 50.0, atol: float = 1e-10,
             rtol: float = 1e-10):
    """The fastest descent from h(0) = 1: (series, run, end, t_end), or None
    without a real quadratic departure or with one that does not descend.

    series holds h's Taylor coefficients and run is one DOP853 run at atol
    and rtol from where the ODE takes over toward t_cap; end is "hit",
    "pinch" or "t_cap", reached at t_end.  Taylor data that disagree with
    p_fn at the start, and a t_cap not past the start, raise ValueError.
    """
    try:
        _, a_max = second_order_coeffs(model.k, model.p2)
    except ValueError:
        return None
    if a_max <= 0.0:
        # non-descending branch (k = 1 with p2 = 0)
        return None
    K = model.k + 1.0
    series = descent_series(model.taylor, K, a_max)
    rhs = _descent_rhs(K, model.p_fn)
    t0, h0 = _series_start(series, rhs)
    model.check_taylor(t0)
    if not t_cap > t0:
        raise ValueError(f"t_cap = {t_cap!r} must lie past the descent's start at t = {t0:.6g}")
    run = _descend(rhs, t0, h0, t_cap, atol, rtol)
    end, t_end = run.end or ("t_cap", run.ts[-1])
    return series, run, end, t_end


def _f_taylor(alpha: float, k: int) -> tuple:
    """Coefficients of the F control, the polynomial
    (1 - alpha sqrt(k/(k+1)) t) (1 + alpha t / sqrt(k(k+1)))^k of degree k+1,
    whose t and t^2 coefficients are exactly 0 and -alpha^2/2.  A binomial
    term beyond the float range raises ValueError naming k and alpha."""
    lead, b = alpha * math.sqrt(k / (k + 1.0)), alpha / math.sqrt(k * (k + 1.0))
    try:
        binom = [math.comb(k, i) * b**i for i in range(k + 1)] + [0.0]
    except OverflowError:
        raise ValueError(
            f"F control coefficients do not fit a float at k = {k}, alpha = {alpha!r}"
        ) from None
    out = [binom[i] - lead * binom[i - 1] for i in range(1, k + 2)]
    return (1.0, 0.0, -0.5 * alpha * alpha, *out[2:])


def _c_taylor(alpha: float) -> tuple:
    """Coefficients alpha^n (1 - n) / n! of the c control (1 - alpha t) e^(alpha t)
    through order SERIES_ORDER; the rest of the series is below 1e-30 where
    the descent starts."""
    out, term = [1.0, 0.0], alpha
    for n in range(2, SERIES_ORDER + 1):
        term *= alpha / n
        out.append((1 - n) * term)
    out[2] = -0.5 * alpha * alpha
    return tuple(out)


def _control_model(control: str, alpha: float, k: int) -> CurvatureModel:
    """Curvature model of the F or c control at alpha and k: a scalar
    closure for p and its Taylor coefficients.  Any other control raises
    ValueError."""
    if k < 1:
        # before the F coefficients, which divide by k and k + 1
        raise ValueError("link dimension k must be >= 1")
    if control == "F":
        a, s1, s2 = float(alpha), math.sqrt(k / (k + 1.0)), math.sqrt(k * (k + 1.0))

        def f_scalar(t):
            at = a * t
            return (1.0 - at * s1) * (1.0 + at / s2) ** k

        return CurvatureModel(k, alpha, f_scalar, _f_taylor(a, k))
    if control == "c":
        a = float(alpha)

        def c_scalar(t):
            at = a * t
            return (1.0 - at) * math.exp(at)

        return CurvatureModel(k, alpha, c_scalar, _c_taylor(a))
    raise ValueError(f"unknown control {control!r}: the controls are 'F' and 'c'")


def _angle(model: CurvatureModel):
    """(theta, end, (t_start, series_order)) of the fastest descent under
    the model: the vanishing angle (None without a hit), how it ended (one
    of DESCENT_ENDS), and where the ODE took over from which series order
    ((None, None) without a descent)."""
    fastest = _fastest(model)
    if fastest is None:
        return None, "no-departure", (None, None)
    series, run, end, t_end = fastest
    return (math.atan(t_end) if end == "hit" else None), end, (run.ts[0], len(series) - 1)


def vanishing_angle(control: str, alpha: float, k: int) -> Optional[float]:
    """Polar angle arctan(t0) where the fastest descent hits zero under the
    F or c control; None when no descent or no hit exists.

    Runs ``_fastest`` at its default cap and tolerances.  A link's own
    model is descended by ``check_area_minimizing`` under the custom
    control.
    """
    return _angle(_control_model(control, alpha, k))[0]


def check_area_minimizing(link: LinkData, control: str = "F") -> CriterionVerdict:
    """Compare the vanishing angle with half the link's normal radius.

    The custom control descends on the link's curvature model itself; F
    and c on the control built from its alpha and k.  A pass certifies the
    cone as area-minimizing; a fail is only ever inconclusive.  Margins
    within 1e-6 of zero are flagged as boundary cases too tight to trust
    numerically.
    """
    if link.normal_radius is None or not np.isfinite(link.normal_radius):
        raise ValueError("link is missing a normal radius")
    model = link.curvature
    if control != "custom":
        model = _control_model(control, model.alpha, model.k)
    theta, end, origin = _angle(model)
    R_half = 0.5 * link.normal_radius
    if theta is None:
        return CriterionVerdict(None, control, R_half, False, None, "inconclusive", end,
                                *origin)
    margin = R_half - theta
    passes = theta <= R_half
    if abs(margin) < 1e-6:
        status = "boundary-inconclusive"
    elif passes:
        status = "passes"
    else:
        status = "inconclusive"
    return CriterionVerdict(theta, control, R_half, passes, margin, status, end, *origin)
