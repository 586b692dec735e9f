"""Numerical toolkit for calibrations and area-minimizing cones.

Exterior algebra with constant coefficients, comass computation under
arbitrary inner products, comass control along convex metric paths,
vanishing-angle certification of cones over sphere-product links, and
hemisphere-certificate obstructions to constant-coefficient calibrations.
"""

from .comass import ComassResult, comass
from .exterior import (
    AlternatingForm,
    DimensionMismatchError,
    MetricTensor,
    SimpleVector,
    evaluate,
    gram_norm,
    pullback,
)
from .gluing import GluingReport, glued_metric, verify_gluing_bound
from .lawlor import (
    CriterionVerdict,
    CurvatureModel,
    LinkData,
    check_area_minimizing,
    second_order_coeffs,
    vanishing_angle,
)
from .obstruction import (
    HemisphereCertificate,
    SpherePointSet,
    constant_calibration_obstruction,
    gauss_image,
    hemisphere_test,
)
from .products import (
    NormalRadiusEstimate,
    ProductLink,
    SphereFactor,
    curvature_model,
    hypersurface_factor,
    minimal_product,
    normal_radius,
    replication_search,
)

__version__ = "0.1.0"
