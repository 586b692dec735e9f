"""Smooth-calibration obstructions for cones over products with a
codimension-one factor.

A smooth calibration of such a cone takes at the vertex a value that is a
constant-coefficient calibration of the cone (Harvey-Lawson 1982).  The
pairing a constant form forces at each point of the hypersurface factor
would push that factor's Gauss image (its unit normals read as points of
the sphere) into an open hemisphere.  A set holding both x and -x lies in
no open hemisphere, since no direction has positive inner product with
both, and weights 1/2 on such a pair write zero exactly.  The Gauss map of
a round hypersurface product is odd, nu(-x) = -nu(x), so one point and its
antipode give such a pair, and ``products.hypersurface_factor`` holds just
that pair: its certificate has two weights and residual 0.  No other set is
decided: float samples of a surface would prove nothing about the surface.

The comass bound for wedges of forms on complementary blocks, which no job
reports, is kept in ``tests/oracles.py``.
"""

from dataclasses import dataclass

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
        # written as not (... <= tol) so that NaN and inf fail too
        if not np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-10:
            raise ValueError("points must be finite unit vectors")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class HemisphereCertificate:
    """Certificate that a point set lies in no open hemisphere: weights 1/2
    on an exactly antipodal pair (verdict "infeasible", method "antipodal"),
    which combine the points to zero within ``residual``, here 0."""

    verdict: str
    method: str
    convex_weights: np.ndarray
    residual: float


def gauss_image(factor: SphereFactor) -> SpherePointSet:
    """The Gauss image of a ``hypersurface_factor``, as two points of S^1.

    They are the normals +-nu(p) in orthonormal coordinates of the plane
    that holds them.  Embedding that plane in the ambient space is a linear
    isometry, which keeps inner products, hence open hemispheres, and
    convex combinations, so the decision and its certificate do not depend
    on these coordinates."""
    if factor.ambient - factor.dim != 1:
        raise ValueError("Gauss image needs a codimension-one factor")
    if factor.normals is None:
        raise ValueError("factor carries no normals; build it with hypersurface_factor")
    return SpherePointSet(n=1, points=factor.normals)


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


def hemisphere_test(pts: SpherePointSet) -> HemisphereCertificate:
    """Certify that the points lie in no common open hemisphere.

    A pair of exactly antipodal points decides it: weights 1/2 on the pair
    combine the points to zero with residual exactly 0 (method
    "antipodal").  A set without such a pair raises ValueError, since no
    spec can produce one.
    """
    X = pts.points
    pair = _antipodal_pair(X)
    if pair is None:
        raise ValueError("no exactly antipodal pair among the points, and "
                         "no other certificate is given")
    y = np.zeros(len(X))
    y[list(pair)] = 0.5
    return HemisphereCertificate("infeasible", "antipodal", y,
                                 float(np.linalg.norm(X.T @ y)))


def constant_calibration_obstruction(product: ProductLink) -> dict:
    """Rule out constant-coefficient calibrations of the cone over a
    product whose first factor is a codimension-one link.

    A constant calibration would pair with the planes spanned along the
    first factor at the fixed value +-lambda_1, forcing the factor's Gauss
    image into an open hemisphere; an infeasibility certificate for the
    hemisphere test therefore obstructs every such calibration.  The pair
    nu, -nu of a ``hypersurface_factor`` is such a certificate, exactly.
    ValueError when the first factor is not a ``hypersurface_factor``.
    """
    image = gauss_image(product.factors[0])
    cert = hemisphere_test(image)
    report = {
        "lambda1": float(product.lambdas[0]),
        "gauss_points": len(image.points),
        "certificate": cert,
    }
    return {"obstructed": cert.verdict == "infeasible", "report": report}
