"""The package holds what a job, a demo or a tool reaches.

Code that only checks the library lives in ``tests/oracles.py``: reference
implementations, and the part-(a)/(b) machinery that no job runs.  Code
that recomputed what a job path already returns is gone from both."""

import importlib
import types

import conekit
import oracles
from conekit.exterior import SimpleVector
from conekit.gluing import GluingReport
from conekit.obstruction import HemisphereCertificate, constant_calibration_obstruction
from conekit.products import SphereFactor, hypersurface_factor, minimal_product

MODULES = ("cli", "comass", "exterior", "gluing", "lawlor", "obstruction",
           "products", "serialization")

EXPORTED = {
    "AlternatingForm", "ComassResult", "CriterionVerdict", "CurvatureModel",
    "DimensionMismatchError", "GluingReport", "HemisphereCertificate",
    "LinkData", "MetricTensor", "NormalRadiusEstimate", "ProductLink",
    "SimpleVector", "SphereFactor", "check_area_minimizing",
    "comass", "constant_calibration_obstruction", "curvature_model",
    "evaluate", "glued_metric", "gram_norm", "hemisphere_test",
    "hypersurface_factor", "minimal_product", "normal_radius", "pullback",
    "replication_search", "second_order_coeffs", "vanishing_angle",
    "verify_gluing_bound",
}

# moved to tests/oracles.py, by the module that held them
MOVED = {
    "comass": ("comass_bruteforce", "Decomposition", "decompose", "_lambda_matrix",
               "_null_space", "adapted_base_metric", "adapted_metric",
               "calibration_decomposition_check"),
    "gluing": ("RelativeSpectrum", "relative_spectrum", "T_of_s",
               "equality_analysis", "reciprocal_product_hessian"),
    "obstruction": ("wedge_comass_bound", "wedge_comass_check"),
    "lawlor": ("Profile", "integrate_fastest", "verify_profile", "slope_interval",
               "build_smooth_profile"),
    "exterior": ("wedge", "contract"),
}

# recomputed what a job path returns, or decided inputs no spec can express;
# kept nowhere
DELETED = ("comass_analytic", "ccgp_bound", "improved_bound", "_endpoint_comasses",
           "_nearest_hull_point", "hemisphere_by_lp", "hypersurface_draws",
           "SpherePointSet", "gauss_image", "_antipodal_pair")


def _module(name):
    # the package attribute conekit.comass is the function, not the module
    return importlib.import_module(f"conekit.{name}")


def test_package_exports_exactly_the_kept_names():
    public = {name for name, value in vars(conekit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTED
    for name in MODULES:
        module = _module(name)
        for exported in getattr(module, "__all__", ()):
            assert hasattr(module, exported), (name, exported)


def test_moved_names_live_in_the_oracles_only():
    for home, names in MOVED.items():
        for name in names:
            assert hasattr(oracles, name), name
            assert not hasattr(conekit, name), name
            for module in MODULES:
                assert not hasattr(_module(module), name), (module, name)
    assert oracles.Profile.__module__ == "oracles"


def test_deleted_names_are_gone():
    for name in DELETED:
        assert not hasattr(oracles, name) and not hasattr(conekit, name), name
        for module in MODULES:
            assert not hasattr(_module(module), name), (module, name)
    assert not hasattr(SimpleVector, "concat") and not hasattr(SimpleVector, "scale")
    assert "__call__" not in vars(_module("lawlor")._Descent)
    assert "maximizers" not in GluingReport.__dataclass_fields__
    assert list(HemisphereCertificate.__dataclass_fields__) == [
        "verdict", "method", "convex_weights", "residual"]
    # the obstruction is one pair of float tuples: no numpy on its path
    assert not hasattr(_module("obstruction"), "np")


def test_obstruction_report_holds_what_the_job_reads():
    torus = minimal_product([SphereFactor.round(1), SphereFactor.round(1)])
    product = minimal_product([hypersurface_factor(torus), SphereFactor.round(3)])
    report = constant_calibration_obstruction(product)["report"]
    assert set(report) == {"lambda1", "gauss_points", "certificate"}
