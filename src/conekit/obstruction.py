"""Smooth-calibration obstructions for cones over products with a
codimension-one factor.

If a constant-coefficient form calibrated such a cone, the pairing forced
at each point of the hypersurface factor would push that factor's Gauss
image (its unit normals read as points of the sphere) into an open
hemisphere.  A set holding both x and -x lies in no open hemisphere, since
no direction has positive inner product with both, and weights 1/2 on
such a pair write zero exactly.  The Gauss map of a round hypersurface
product is odd, nu(-x) = -nu(x), so its sampled Gauss images hold such
pairs and are obstructed by this exact certificate.  Any other finite
sample is decided as a linear feasibility problem with a certificate
either way: a direction of positive margin, or nonnegative convex weights
writing zero as a combination of the points.  Certificates are re-verified
by direct arithmetic, so the verdict never rests on solver internals.

Also includes the comass bound for wedges of forms on complementary
blocks, the mechanism for assembling calibrations on product spaces.
"""

from dataclasses import dataclass, field
from math import comb
from typing import Optional

import numpy as np

from .comass import comass
from .exterior import AlternatingForm, MetricTensor, pullback, wedge
from .products import ProductLink, SphereFactor

__all__ = [
    "SpherePointSet",
    "HemisphereCertificate",
    "gauss_image",
    "hemisphere_test",
    "constant_calibration_obstruction",
    "wedge_comass_bound",
    "wedge_comass_check",
]


@dataclass(frozen=True)
class SpherePointSet:
    """Finite set of unit vectors in R^(n+1), read as points of S^n."""

    n: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n + 1 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (S, n+1) array")
        if np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) > 1e-10:
            raise ValueError("points must be unit vectors")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class HemisphereCertificate:
    """Outcome of the open-hemisphere decision with its audit data.

    feasible: ``direction`` has positive inner product with every point
    (worst value in ``margin``).  infeasible: ``convex_weights`` are
    nonnegative, sum to one, and combine the points to zero within
    ``residual``.  boundary: margin and residual both within tolerance of
    zero; both near-certificates are retained.  ``method`` is "antipodal"
    for the exact pair certificate, "lp" when the linear programs decided.
    """

    verdict: str
    method: str
    direction: Optional[np.ndarray] = None
    margin: Optional[float] = None
    convex_weights: Optional[np.ndarray] = None
    residual: Optional[float] = None


def gauss_image(factor: SphereFactor) -> SpherePointSet:
    """Unit normals of a sampled hypersurface link, as sphere points."""
    if factor.normals is None:
        raise ValueError("factor carries no sampled normals")
    if factor.ambient - factor.dim != 1:
        raise ValueError("Gauss image needs a codimension-one factor")
    return SpherePointSet(n=factor.ambient, points=factor.normals)


def _max_margin_direction(X: np.ndarray):
    """Maximize e subject to <w, x_i> >= e and |w|_inf <= 1."""
    from scipy.optimize import linprog

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
    from scipy.optimize import linprog

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


def _antipodal_pair(X: np.ndarray):
    """Indices (i, j), i < j, of the first rows with x_j = -x_i exactly,
    or None.  Rows are keyed by their bytes with -0.0 read as 0.0."""
    first = {}
    for j, (row, neg) in enumerate(zip(X + 0.0, 0.0 - X)):
        i = first.get(neg.tobytes())
        if i is not None:
            return i, j
        first.setdefault(row.tobytes(), j)
    return None


def hemisphere_test(pts: SpherePointSet, tol: float = 1e-9) -> HemisphereCertificate:
    """Decide whether the points lie in a common open hemisphere.

    A pair of exactly antipodal points decides it at once: weights 1/2 on
    the pair give an infeasibility certificate with residual exactly 0
    (method "antipodal").  Otherwise the max-margin direction program runs;
    a positive margin above tol is a feasibility certificate, otherwise
    convex weights combining the points to zero certify infeasibility
    (method "lp").  Every certificate is checked by direct arithmetic
    before being returned.
    """
    X = pts.points
    pair = _antipodal_pair(X)
    if pair is not None:
        y = np.zeros(len(X))
        y[list(pair)] = 0.5
        return HemisphereCertificate(
            "infeasible", "antipodal", convex_weights=y,
            residual=float(np.linalg.norm(X.T @ y)),
        )
    w, margin_lp = _max_margin_direction(X)
    wn = np.linalg.norm(w)
    direction = w / wn if wn > 1e-12 else None
    margin = float(np.min(X @ direction)) if direction is not None else -1.0
    if margin_lp > tol and direction is not None and margin > 0.0:
        from scipy.optimize import nnls

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


def constant_calibration_obstruction(
    product: ProductLink, *, tol: float = 1e-9
) -> dict:
    """Rule out constant-coefficient calibrations of the cone over a
    product whose first factor is a codimension-one link.

    A constant calibration would pair with the planes spanned along the
    first factor at the fixed value +-lambda_1, forcing the factor's Gauss
    image into an open hemisphere; an infeasibility certificate for the
    hemisphere test therefore obstructs every such calibration.  A Gauss
    image holding nu and -nu, as every ``hypersurface_factor`` does, is
    obstructed exactly by that pair.
    """
    first = product.factors[0]
    if first.ambient - first.dim != 1:
        raise ValueError("obstruction needs a codimension-one first factor")
    if first.normals is None:
        raise ValueError("first factor carries no sampled normals")
    image = gauss_image(first)
    cert = hemisphere_test(image, tol=tol)
    report = {
        "lambda1": float(product.lambdas[0]),
        "gauss_points": len(image.points),
        "certificate": cert,
    }
    if cert.verdict == "feasible":
        report["per_sample_margins"] = image.points @ cert.direction
    elif cert.convex_weights is not None:
        report["dual_residual"] = cert.residual
    return {"obstructed": cert.verdict == "infeasible", "report": report}


def wedge_comass_bound(C1: float, m1: int, C2: float, m2: int) -> float:
    """Comass bound binom(m1+m2, m1) C1 C2 for a wedge of forms living on
    complementary coordinate blocks with block comasses C1, C2."""
    if C1 < 0.0 or C2 < 0.0:
        raise ValueError("comass inputs must be nonnegative")
    if m1 < 1 or m2 < 1:
        raise ValueError("degrees must be >= 1")
    return comb(m1 + m2, m1) * C1 * C2


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
