"""Smooth-calibration obstructions for cones over products with a
codimension-one factor.

If a constant-coefficient form calibrated such a cone, the pairing forced
at each point of the hypersurface factor would push that factor's Gauss
image (its unit normals read as points of the sphere) into an open
hemisphere.  A set holding both x and -x lies in no open hemisphere, since
no direction has positive inner product with both, and weights 1/2 on
such a pair write zero exactly.  The Gauss map of a round hypersurface
product is odd, nu(-x) = -nu(x), so one point and its antipode give such
a pair, and ``products.hypersurface_factor`` holds just that pair: its
certificate has two weights and residual 0.  Any other finite sample,
such as a sampled factor read from a file, is decided by the point z of
its convex hull nearest the origin (Wolfe 1976): either z = 0, and its
convex weights write zero as a combination of the points, or z/|z| has
inner product at least |z| with every point.  Certificates are recomputed
by direct arithmetic, so the verdict never rests on solver internals.

The comass bound for wedges of forms on complementary blocks, which no job
reports, is kept in ``tests/oracles.py``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

# unused here, but perfbench/tracer.py's REQUIRED_SITES expects the name
# comass bound in this module
from .comass import comass  # noqa: F401
from .products import ProductLink, SphereFactor

__all__ = [
    "SpherePointSet",
    "HemisphereCertificate",
    "gauss_image",
    "hemisphere_test",
    "constant_calibration_obstruction",
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
        if not np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-10:
            raise ValueError("points must be finite unit vectors")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class HemisphereCertificate:
    """Outcome of the open-hemisphere decision with its audit data.

    feasible: ``direction`` has positive inner product with every point
    (worst value in ``margin``).  infeasible: ``convex_weights`` are
    nonnegative, sum to one, and combine the points to zero within
    ``residual``.  boundary: the nearest hull point is farther than the
    tolerance from zero, yet its direction has no positive margin; both
    near-certificates are retained.  ``method`` is "antipodal" for the
    exact pair certificate, "nearest-point" when the nearest hull point
    decided.
    """

    verdict: str
    method: str
    direction: Optional[np.ndarray] = None
    margin: Optional[float] = None
    convex_weights: Optional[np.ndarray] = None
    residual: Optional[float] = None


def gauss_image(factor: SphereFactor) -> SpherePointSet:
    """Unit normals of a sampled hypersurface link, as sphere points."""
    if factor.ambient - factor.dim != 1:
        raise ValueError("Gauss image needs a codimension-one factor with sampled normals")
    if factor.normals is None:
        raise ValueError("factor carries no sampled normals")
    return SpherePointSet(n=factor.ambient, points=factor.normals)


def _nearest_hull_point(X: np.ndarray):
    """Convex weights y of the point z = X^T y of the hull of the rows of X
    nearest the origin, and z itself.

    One nonnegative least-squares solve of [X^T; 1^T] y = (0, ..., 0, 1):
    writing y = s u with u convex, for every scale s the best u gives the
    nearest point, so y rescaled to sum one is exact (Lawson-Hanson).  y
    is never zero, since any one point alone beats it, and a solver
    failure raises RuntimeError.
    """
    from scipy.optimize import nnls

    A = np.concatenate([X.T, np.ones((1, len(X)))], axis=0)
    rhs = np.zeros(len(A))
    rhs[-1] = 1.0
    y, _ = nnls(A, rhs)
    y /= y.sum()
    return y, X.T @ y


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
    (method "antipodal").  Otherwise the nearest point z of the convex hull
    to the origin decides (method "nearest-point"): within tol of zero, its
    convex weights certify infeasibility; else z/|z| is the direction of
    largest margin, and a positive recomputed margin certifies
    feasibility.  A margin <= 0 past that tolerance is "boundary".
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
    y, z = _nearest_hull_point(X)
    dist = float(np.linalg.norm(z))
    if dist <= tol:
        return HemisphereCertificate(
            "infeasible", "nearest-point", convex_weights=y, residual=dist
        )
    direction = z / dist
    margin = float(np.min(X @ direction))
    if margin > 0.0:
        return HemisphereCertificate(
            "feasible", "nearest-point", direction=direction, margin=margin
        )
    return HemisphereCertificate(
        "boundary", "nearest-point", direction=direction, margin=margin,
        convex_weights=y, residual=dist,
    )


def constant_calibration_obstruction(
    product: ProductLink, *, tol: float = 1e-9
) -> dict:
    """Rule out constant-coefficient calibrations of the cone over a
    product whose first factor is a codimension-one link.

    A constant calibration would pair with the planes spanned along the
    first factor at the fixed value +-lambda_1, forcing the factor's Gauss
    image into an open hemisphere; an infeasibility certificate for the
    hemisphere test therefore obstructs every such calibration.  The pair
    nu, -nu of a ``hypersurface_factor`` is such a certificate, exactly.
    ValueError when the first factor is not a codimension-one link with
    sampled normals.
    """
    image = gauss_image(product.factors[0])
    cert = hemisphere_test(image, tol=tol)
    report = {
        "lambda1": float(product.lambdas[0]),
        "gauss_points": len(image.points),
        "certificate": cert,
    }
    return {"obstructed": cert.verdict == "infeasible", "report": report}
