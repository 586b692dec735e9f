"""Smooth-calibration obstructions for cones over products with a
codimension-one factor.

A smooth calibration of such a cone takes at the vertex a value that is a
constant-coefficient calibration of the cone (Harvey-Lawson 1982), and a
constant calibration would push the Gauss image of the hypersurface factor
(its unit normals read as points of the sphere) into an open hemisphere.
The Gauss map of a round hypersurface product is odd, nu(-x) = -nu(x), so
``products.hypersurface_factor`` holds one point's normal and its
antipode's as the float tuples nu and -nu.  No open hemisphere holds both,
since no direction has positive inner product with both, and weights 1/2
write zero exactly: the certificate has residual 0.  No other input is
decided: float samples of a surface would prove nothing about the surface.

The comass bound for wedges of forms on complementary blocks, which no job
reports, is kept in ``tests/oracles.py``.
"""

import math
from dataclasses import dataclass

# unused here, but perfbench/tracer.py's REQUIRED_SITES expects the name
# comass bound in this module
from .comass import comass  # noqa: F401
from .products import ProductLink

__all__ = ["HemisphereCertificate", "hemisphere_test", "constant_calibration_obstruction"]


@dataclass(frozen=True)
class HemisphereCertificate:
    """Weights 1/2 on an exactly antipodal pair (verdict "infeasible",
    method "antipodal"), which combine it to zero within ``residual``, 0."""

    verdict: str
    method: str
    convex_weights: tuple
    residual: float


def hemisphere_test(pair) -> HemisphereCertificate:
    """Certify that the two points of ``pair`` lie in no open hemisphere.

    They must be exactly antipodal, y = -x coordinate by coordinate; any
    other pair raises ValueError, since no spec can produce one.  The pair
    of a ``hypersurface_factor`` is held in coordinates of the plane it
    spans, and embedding that plane is a linear isometry, which keeps open
    hemispheres and convex combinations, so the certificate holds in the
    ambient space."""
    x, y = pair
    if len(x) != len(y) or any(b != -a for a, b in zip(x, y)):
        raise ValueError("the two points are not exactly antipodal, and "
                         "no other certificate is given")
    return HemisphereCertificate("infeasible", "antipodal", (0.5, 0.5),
                                 math.hypot(*(0.5 * a + 0.5 * b for a, b in zip(x, y))))


def constant_calibration_obstruction(product: ProductLink) -> dict:
    """Rule out constant-coefficient calibrations of the cone over a
    product whose first factor is a codimension-one link: such a
    calibration pairs with the planes along that factor at +-lambda_1,
    which forces its Gauss image into an open hemisphere, and the pair
    nu, -nu of a ``hypersurface_factor`` lies in none.  ValueError when the
    first factor is not a ``hypersurface_factor``."""
    factor = product.factors[0]
    if factor.ambient - factor.dim != 1:
        raise ValueError("Gauss image needs a codimension-one factor")
    if factor.normals is None:
        raise ValueError("factor carries no normals; build it with hypersurface_factor")
    cert = hemisphere_test(factor.normals)
    report = {"lambda1": float(product.lambdas[0]), "gauss_points": len(factor.normals),
              "certificate": cert}
    return {"obstructed": cert.verdict == "infeasible", "report": report}
