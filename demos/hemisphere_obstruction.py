"""Obstruct constant-coefficient calibrations of a product cone.

A constant form calibrating the cone over (S^1 x S^1) x S^3 would force
the Gauss image of the torus factor (its unit normals, read as points of
S^3) into an open hemisphere.  The torus normal field
nu = (x_1, -x_2) / sqrt(2) is odd, so the torus factor is one point and its
antipode, with normals nu and -nu: no open hemisphere holds both, and
weights 1/2 on that pair combine them to exactly zero.  The factor holds
the pair as two float tuples, in the coordinates of the plane it spans,
two points of S^1; the certificate is re-checked here by direct
arithmetic, embedded in R^4.
"""

import numpy as np

from conekit import (
    SphereFactor,
    constant_calibration_obstruction,
    hemisphere_test,
    hypersurface_factor,
    minimal_product,
)

if __name__ == "__main__":
    torus = minimal_product([SphereFactor.round(1), SphereFactor.round(1)])
    pair = hypersurface_factor(torus).normals
    cert = hemisphere_test(pair)
    # the plane of nu is spanned by the e_0 of the two circle blocks of R^4
    embedded = np.array(pair) @ np.eye(4)[[0, 2]]
    combo = embedded.T @ np.array(cert.convex_weights)
    print(f"{len(pair)} points {pair}, {cert.verdict} by {cert.method}, "
          f"weights {list(cert.convex_weights)}, residual {cert.residual:.3e}, "
          f"recomputed |sum w_i nu_i| in R^4 = {np.linalg.norm(combo):.3e}")
    assert cert.method == "antipodal" and cert.residual == 0.0
    assert not combo.any()

    product = minimal_product([hypersurface_factor(torus), SphereFactor.round(3)])
    out = constant_calibration_obstruction(product)
    print(f"\ncone over (S^1 x S^1) x S^3 obstructed: {out['obstructed']}")
    assert out["obstructed"]
