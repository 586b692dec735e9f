"""Comass control along convex combinations of metrics.

Given two inner products g1, g2 on R^n and a constant-coefficient form phi
whose comass is at most one under both, the comass stays at most one under
every interpolant g(s) = (1-s) g1 + s g2.  The mechanism is the strict
convexity of X -> 1/(X_1 ... X_m) on the positive orthant applied to the
spectrum of g2 restricted to the plane of a candidate maximizer, measured
in a g1-orthonormal basis of that plane.

This module provides the interpolated metric and the sweep behind the
glue-sweep job: warm-started comass evaluations along the path, checked
against two closed-form upper bounds, each one formula of the endpoint
comasses.  The relative spectrum and the classification of equality cases,
which no job reports, are kept in ``tests/oracles.py``.
"""

from dataclasses import dataclass

import numpy as np

from .comass import comass
from .exterior import AlternatingForm, MetricTensor

__all__ = ["GluingReport", "glued_metric", "verify_gluing_bound"]


@dataclass
class GluingReport:
    """Per-grid-point comass measurements and upper bounds for g(s).

    ``unconverged_points`` counts grid points whose returned comass restart
    hit its iteration limit, so their values may sit below the true comass.
    ``endpoint_methods`` says how each endpoint comass was obtained
    ("exact" or "optimizer").  The bounds at each s are ``_ccgp`` and
    ``_improved`` of the endpoint comasses.
    """

    s_grid: np.ndarray
    comass_values: np.ndarray
    ccgp_bounds: np.ndarray
    improved_bounds: np.ndarray
    worst_violation: float
    unconverged_points: int
    endpoint_comasses: tuple[float, float] = (np.nan, np.nan)
    endpoint_methods: tuple[str, str] = ("", "")

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


def _ccgp(c1: float, c2: float, a, b, m: int):
    """1/sqrt(a^m / c1^2 + b^m / c2^2); a zero weight drops its term, since
    0^m = 0.  Takes scalars or arrays of weights."""
    return 1.0 / np.sqrt(a**m / c1**2 + b**m / c2**2)


def _improved(c1: float, c2: float, s):
    """sqrt((1-s) c1^2 + s c2^2) for a scalar or an array of s."""
    return np.sqrt((1.0 - s) * c1**2 + s * c2**2)


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
    c1 = comass(phi, g1, **endpoint_opts)
    c2 = comass(phi, g2, **endpoint_opts)
    for name, c in (("g1", c1), ("g2", c2)):
        if c.value > 1.0 + 1e-8:
            raise ValueError(
                f"hypothesis violated: comass under {name} is {c.value:.12g} > 1"
            )

    comasses = np.empty_like(s_grid)
    unconverged = 0
    warm = [c1.maximizer.matrix, c2.maximizer.matrix]
    for i, s in enumerate(s_grid):
        gs = glued_metric(g1, g2, s)
        res = comass(phi, gs, warm_starts=warm, **opts)
        comasses[i] = res.value
        unconverged += not res.converged
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
    )
