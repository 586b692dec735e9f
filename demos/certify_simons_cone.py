"""Certify the cone over S^3(1/sqrt2) x S^3(1/sqrt2) as area-minimizing.

The pipeline reads off the exact curvature data of the round product link
(the bound alpha = sqrt(k), the determinant infimum p(t) with its quadratic
coefficient p2 = -k/2, and the normal radius arcsin(lambda_min)) without
drawing any sample, and compares the vanishing angle of the fastest
admissible descent with half that radius.  The link data carry that
curvature model itself, with p's Taylor coefficients, so the descent starts
from its order-30 series, as in ``conekit certify-cone``.  The same
pipeline is run on the two-circle link, where the quadratic departure has
no real root and the verdict is inconclusive.
"""

import math

from conekit import (
    LinkData,
    SphereFactor,
    check_area_minimizing,
    curvature_model,
    minimal_product,
    normal_radius,
)
from conekit.lawlor import SERIES_ORDER


def report(name, dims):
    link = minimal_product([SphereFactor.round(d) for d in dims])
    model = curvature_model(link)
    radius = normal_radius(link)
    verdict = check_area_minimizing(LinkData(model, radius.value), "custom")
    print(f"--- {name} ---")
    print(f"link dimension k      : {link.k}")
    print(f"curvature bound alpha : {model.alpha:.6f}")
    print(f"p2 (exact, -k/2)      : {model.p2:.6f}")
    print(f"normal radius         : {float(radius):.6f} ({radius.binding})")
    if verdict.series_order is not None:
        print(f"descent start         : t = {verdict.t_start:.4f}, "
              f"series order {verdict.series_order}")
    if verdict.theta_used is not None:
        print(f"vanishing angle       : {verdict.theta_used:.10f}")
        print(f"half normal radius    : {verdict.R_half:.6f}")
        print(f"margin                : {verdict.margin:.6f}")
    else:
        print("vanishing angle       : none (no admissible descent)")
    print(f"verdict               : {verdict.status}")
    print()
    return verdict


if __name__ == "__main__":
    simons = report("S3 x S3 (Simons cone link)", (3, 3))
    assert simons.passes and simons.series_order == SERIES_ORDER
    clifford = report("S1 x S1 (Clifford torus)", (1, 1))
    assert not clifford.passes
    print("expected: the six-dimensional link passes with room to spare,")
    print(f"theta = {simons.theta_used:.5f} < pi/8 = {math.pi / 8:.5f};")
    print("the torus is inconclusive under every scalar-profile control.")
