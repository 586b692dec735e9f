"""Obstruct constant-coefficient calibrations of a product cone.

A constant form calibrating the cone over (S^1 x S^1) x S^3 would force
the Gauss image of the torus factor (its unit normals, read as points of
S^3) into an open hemisphere.  The torus normal field
nu = (x_1, -x_2) / sqrt(2) is odd, so the torus factor is one point and its
antipode, with normals nu and -nu: no open hemisphere holds both, and
weights 1/2 on that pair combine them to exactly zero.
Next to that exact certificate the demo decides random torus normals,
which hold no antipodal pair, by their convex hull's nearest point to the
origin, which one nonnegative least-squares solve finds: its convex
weights combine the normals to zero within a rounding-level residual.
Both certificates are re-checked by direct arithmetic here.
"""

import numpy as np

from conekit import (
    SphereFactor,
    SpherePointSet,
    constant_calibration_obstruction,
    gauss_image,
    hemisphere_test,
    hypersurface_factor,
    minimal_product,
)


def show(label, image, cert):
    combo = image.points.T @ cert.convex_weights
    print(f"{label}: {len(image.points)} points in S^3, {cert.verdict} "
          f"by {cert.method}, {np.count_nonzero(cert.convex_weights)} nonzero "
          f"weights, residual {cert.residual:.3e}, "
          f"recomputed |sum w_i nu_i| = {np.linalg.norm(combo):.3e}")


def random_torus_normals(rng, count):
    """nu = (x_1, -x_2) / sqrt(2) at ``count`` points (x_1, x_2) / sqrt(2)
    of the Clifford torus, x_1 and x_2 uniform on S^1."""
    x1, x2 = (np.column_stack([np.cos(a), np.sin(a)])
              for a in rng.uniform(0.0, 2.0 * np.pi, (2, count)))
    return np.concatenate([x1, -x2], axis=1) / np.sqrt(2.0)


if __name__ == "__main__":
    torus = minimal_product([SphereFactor.round(1), SphereFactor.round(1)])
    image = gauss_image(hypersurface_factor(torus))
    exact = hemisphere_test(image)
    show("exact        ", image, exact)
    assert exact.method == "antipodal" and exact.residual == 0.0

    draws = SpherePointSet(3, random_torus_normals(np.random.default_rng(0), 200))
    nearest = hemisphere_test(draws)
    show("nearest point", draws, nearest)
    assert nearest.method == "nearest-point" and nearest.verdict == "infeasible"

    product = minimal_product([hypersurface_factor(torus), SphereFactor.round(3)])
    out = constant_calibration_obstruction(product)
    print(f"\ncone over (S^1 x S^1) x S^3 obstructed: {out['obstructed']}")
    assert out["obstructed"]
