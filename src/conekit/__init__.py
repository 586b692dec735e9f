"""Numerical toolkit for calibrations and area-minimizing cones.

Exterior algebra with constant coefficients, comass computation under
arbitrary inner products, comass control along convex metric paths,
vanishing-angle certification of cones over sphere-product links, and
hemisphere-certificate obstructions to constant-coefficient calibrations.
"""

from .comass import (
    ComassResult,
    Decomposition,
    adapted_base_metric,
    adapted_metric,
    calibration_decomposition_check,
    comass,
    comass_analytic,
    comass_bruteforce,
    decompose,
)
from .exterior import (
    AlternatingForm,
    DimensionMismatchError,
    MetricTensor,
    SimpleVector,
    contract,
    evaluate,
    gram_norm,
    pullback,
    wedge,
)
from .gluing import (
    GluingReport,
    RelativeSpectrum,
    T_of_s,
    ccgp_bound,
    equality_analysis,
    glued_metric,
    improved_bound,
    relative_spectrum,
    verify_gluing_bound,
)
from .lawlor import (
    CriterionVerdict,
    CurvatureModel,
    LinkData,
    Profile,
    build_smooth_profile,
    check_area_minimizing,
    integrate_fastest,
    second_order_coeffs,
    slope_interval,
    vanishing_angle,
    verify_profile,
)
from .obstruction import (
    HemisphereCertificate,
    SpherePointSet,
    constant_calibration_obstruction,
    gauss_image,
    hemisphere_test,
    wedge_comass_bound,
    wedge_comass_check,
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
