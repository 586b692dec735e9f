"""Comass control along convex combinations of metrics.

Given two inner products g1, g2 on R^n and a constant-coefficient form phi
whose comass is at most one under both, the comass stays at most one under
every interpolant g(s) = (1-s) g1 + s g2.  The mechanism is the strict
convexity of X -> 1/(X_1 ... X_m) on the positive orthant applied to the
spectrum of g2 restricted to the plane of a candidate maximizer, measured
in a g1-orthonormal basis of that plane.

This module provides the interpolated metric, the relative spectrum and its
Gram-norm product formula, sweep verification with warm-started comass
evaluations, and the two closed-form upper bounds the sweep is checked
against, each one formula of the endpoint comasses.
"""

from dataclasses import dataclass, field

import numpy as np

from .comass import ComassResult, comass
from .exterior import (
    AlternatingForm,
    MetricTensor,
    SimpleVector,
    evaluate,
    gram_norm,
)

__all__ = [
    "RelativeSpectrum",
    "GluingReport",
    "glued_metric",
    "relative_spectrum",
    "T_of_s",
    "verify_gluing_bound",
    "ccgp_bound",
    "improved_bound",
    "equality_analysis",
    "reciprocal_product_hessian",
]


@dataclass(frozen=True)
class RelativeSpectrum:
    """Eigenvalues of g2 on span(Q) in a g1-orthonormal basis, plus the
    scale t with Q = t e_1 ^ ... ^ e_m in that basis."""

    eigenvalues: np.ndarray
    t_factor: float


@dataclass
class GluingReport:
    """Per-grid-point comass measurements and upper bounds for g(s).

    ``unconverged_points`` counts grid points whose returned comass restart
    hit its iteration limit, so their values may sit below the true comass.
    ``endpoint_methods`` says how each endpoint comass was obtained
    ("exact" or "optimizer").
    """

    s_grid: np.ndarray
    comass_values: np.ndarray
    ccgp_bounds: np.ndarray
    improved_bounds: np.ndarray
    worst_violation: float
    unconverged_points: int
    endpoint_comasses: tuple[float, float] = (np.nan, np.nan)
    endpoint_methods: tuple[str, str] = ("", "")
    maximizers: list = field(default_factory=list, repr=False)

    def rows(self):
        """Yield (s, comass, ccgp_bound, improved_bound) tuples."""
        for i, s in enumerate(self.s_grid):
            yield (
                float(s),
                float(self.comass_values[i]),
                float(self.ccgp_bounds[i]),
                float(self.improved_bounds[i]),
            )


def glued_metric(g1: MetricTensor, g2: MetricTensor, s: float) -> MetricTensor:
    """Convex combination (1-s) g1 + s g2, positive definite for s in [0,1]."""
    if g1.n != g2.n:
        raise ValueError("metrics act on different dimensions")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s={s} outside [0, 1]")
    return MetricTensor((1.0 - s) * g1.matrix + s * g2.matrix)


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


def _endpoint_comasses(phi, g1, g2, opts) -> tuple[ComassResult, ComassResult]:
    c1 = comass(phi, g1, **opts)
    c2 = comass(phi, g2, **opts)
    return c1, c2


def _ccgp(c1: float, c2: float, a, b, m: int):
    """1/sqrt(a^m / c1^2 + b^m / c2^2); a zero weight drops its term, since
    0^m = 0.  Takes scalars or arrays of weights."""
    return 1.0 / np.sqrt(a**m / c1**2 + b**m / c2**2)


def _improved(c1: float, c2: float, s):
    """sqrt((1-s) c1^2 + s c2^2) for a scalar or an array of s."""
    return np.sqrt((1.0 - s) * c1**2 + s * c2**2)


def ccgp_bound(
    phi: AlternatingForm,
    g1: MetricTensor,
    g2: MetricTensor,
    a: float,
    b: float,
    comass_opts: dict | None = None,
) -> float:
    """Upper bound 1/sqrt(a^m / c1^2 + b^m / c2^2) for the comass under
    a g1 + b g2, where c_i are the endpoint comasses.

    A zero weight drops its term (the 1/0 convention), so a=1, b=0 returns
    the comass under g1.
    """
    if a < 0.0 or b < 0.0 or (a == 0.0 and b == 0.0):
        raise ValueError("weights must be nonnegative with a positive sum")
    c1, c2 = _endpoint_comasses(phi, g1, g2, comass_opts or {})
    return float(_ccgp(c1.value, c2.value, a, b, phi.m))


def improved_bound(
    phi: AlternatingForm,
    g1: MetricTensor,
    g2: MetricTensor,
    s: float,
    comass_opts: dict | None = None,
) -> float:
    """Upper bound sqrt((1-s) c1^2 + s c2^2) for the comass under g(s)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s={s} outside [0, 1]")
    c1, c2 = _endpoint_comasses(phi, g1, g2, comass_opts or {})
    return float(_improved(c1.value, c2.value, s))


def verify_gluing_bound(
    phi: AlternatingForm,
    g1: MetricTensor,
    g2: MetricTensor,
    s_grid,
    *,
    comass_opts: dict | None = None,
) -> GluingReport:
    """Sweep the interpolated metrics and measure how far the comass
    exceeds the convexity bound; the caller compares ``worst_violation``
    with its own tolerance.

    Requires both endpoint comasses at most 1 + 1e-8; otherwise the
    hypothesis fails and the offending endpoint is reported.  Each grid
    point reuses the previous maximizer as a warm start, since the
    maximizing plane moves continuously in s.  The endpoint comasses feed
    every bound, so they take eight times the restarts of the grid points
    (at least 32) and at least 400 iterations.
    """
    s_grid = np.asarray(sorted(float(s) for s in s_grid), dtype=float)
    if s_grid.size == 0:
        raise ValueError("empty s grid")
    if s_grid[0] < 0.0 or s_grid[-1] > 1.0:
        raise ValueError("s grid must lie inside [0, 1]")
    opts = dict(comass_opts or {})
    endpoint_opts = dict(opts, restarts=max(8 * opts.get("restarts", 32), 32),
                         max_iters=max(opts.get("max_iters", 400), 400))
    c1, c2 = _endpoint_comasses(phi, g1, g2, endpoint_opts)
    for name, c in (("g1", c1), ("g2", c2)):
        if c.value > 1.0 + 1e-8:
            raise ValueError(
                f"hypothesis violated: comass under {name} is {c.value:.12g} > 1"
            )

    comasses = np.empty_like(s_grid)
    maximizers = []
    unconverged = 0
    warm = [c1.maximizer.matrix, c2.maximizer.matrix]
    for i, s in enumerate(s_grid):
        gs = glued_metric(g1, g2, s)
        res = comass(phi, gs, warm_starts=warm, **opts)
        comasses[i] = res.value
        unconverged += not res.converged
        maximizers.append(res.maximizer)
        warm = [res.maximizer.matrix, c2.maximizer.matrix]
    ccgps = _ccgp(c1.value, c2.value, 1.0 - s_grid, s_grid, phi.m)
    improveds = _improved(c1.value, c2.value, s_grid)

    applicable = np.minimum(1.0, np.minimum(ccgps, improveds))
    worst = float(np.max(comasses - applicable))
    return GluingReport(
        s_grid=s_grid,
        comass_values=comasses,
        ccgp_bounds=ccgps,
        improved_bounds=improveds,
        worst_violation=worst,
        unconverged_points=unconverged,
        endpoint_comasses=(c1.value, c2.value),
        endpoint_methods=(c1.method, c2.method),
        maximizers=maximizers,
    )


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
