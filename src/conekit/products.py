"""Scaled products of sphere links and their differential geometry.

The product of links L_i^{k_i} in S^{N_i}, each factor scaled by
lambda_i = sqrt(k_i / k) with k = sum k_i, is a minimal submanifold of the
unit sphere S^(sum N_i + n - 1).  This module assembles such products and
computes the quantities the cone criterion consumes: the curvature model
(a bound alpha, the determinant infimum p(t) and its Taylor data, whose
quadratic coefficient is p2) and the normal radius.  ``LinkData`` carries
that one model to the descent unchanged.

For a product of round spheres all four are exact and nothing is sampled.
The normal space at (lambda_i x_i) is spanned by the mixing normals
v = (b_i x_i) with sum b_i lambda_i = 0, and the shape operator h^v is
diagonal with eigenvalue -b_i / lambda_i of multiplicity k_i.  So
alpha = sqrt(k) for unit b, p(t) is one closed-form polynomial with
p2 = -k/2, and the normal radius is arcsin(lambda_min).  A product of two
round spheres is a hypersurface of its sphere; ``hypersurface_factor``
records its Gauss image at one point and its antipode, where the odd normal
field takes opposite values, which is all the obstruction needs.  Every
factor is exact: a round sphere, or such a hypersurface.
"""

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .lawlor import CurvatureModel, LinkData, check_area_minimizing

__all__ = [
    "SphereFactor",
    "ProductLink",
    "NormalRadiusEstimate",
    "minimal_product",
    "curvature_model",
    "normal_radius",
    "hypersurface_factor",
    "replication_links",
    "replication_search",
]


@dataclass(frozen=True)
class SphereFactor:
    """One factor link: a round sphere S^dim, or a round hypersurface
    product in S^ambient with its Gauss image in ``normals``, the float
    tuples (nu, -nu) that ``hypersurface_factor`` builds."""

    dim: int
    ambient: int
    normals: Optional[tuple] = None

    def __post_init__(self):
        if self.dim < 1 or self.ambient < self.dim:
            raise ValueError("need 1 <= dim <= ambient")

    @property
    def is_round(self) -> bool:
        return self.normals is None and self.ambient == self.dim

    @staticmethod
    def round(k: int) -> "SphereFactor":
        """The round sphere S^k in R^(k+1) as its own link."""
        return SphereFactor(dim=k, ambient=k)


@dataclass
class ProductLink:
    """A scaled product link: its factors, their scales lambda_i, its
    dimension k and the dimension of the unit sphere it lies in."""

    factors: list
    lambdas: np.ndarray
    k: int
    ambient_sphere_dim: int

    @property
    def n_factors(self) -> int:
        return len(self.factors)


def minimal_product(factors) -> ProductLink:
    """Assemble the scaled product of the given factor links, each scaled
    by lambda_i = sqrt(k_i / k)."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    k = sum(f.dim for f in factors)
    lambdas = np.array([np.sqrt(f.dim / k) for f in factors])
    ambient = sum(f.ambient for f in factors) + len(factors) - 1
    return ProductLink(factors=factors, lambdas=lambdas, k=k, ambient_sphere_dim=ambient)


def _require_round(link: ProductLink, what: str):
    if not all(f.is_round for f in link.factors):
        raise ValueError(f"{what} requires all factors to be round spheres")


def curvature_model(link: ProductLink) -> CurvatureModel:
    """Exact curvature data of a round-sphere product; nothing is sampled.

    A unit mixing normal has shape eigenvalues -beta_i, beta_i = b_i /
    lambda_i with multiplicity k_i, where sum k_i beta_i = 0 and
    sum k_i beta_i^2 = k.  So |h^v| = sqrt(k) for every unit normal, which
    is alpha, and p(t) is the minimum over these beta of
    prod (1 + t beta_i)^k_i.  Where log p is stationary on that sphere,
    k t / (1 + t beta_i) = 2 nu beta_i + eta is one quadratic in beta_i, so
    the beta_i take two values: a on a proper subset of the factors, of
    dimension sum j, and -b on the rest.  The constraints fix
    a = sqrt((k - j) / j) and b = sqrt(j / (k - j)), so p(t) is the least
    of the terms q_j(t) = (1 + a t)^j (1 - b t)^(k - j) over the proper
    subset sums j.  Every term is 1 - (k/2) t^2 + O(t^3), so p2 = -k/2.

    The least term is j* = k - k_min, the largest proper sum.  With
    u = j / k, d/dt log q_j = -k t / (1 + t (1 - 2u) / sqrt(u (1 - u)) - t^2),
    and (1 - 2u) / sqrt(u (1 - u)) strictly decreases in u.  So on
    [0, t_focal), where the denominator of j* is positive, every other
    denominator is larger and q_j* <= q_j.  ``p_fn`` is that one term, and
    its polynomial's coefficients are the model's Taylor data.  It is exact
    for 0 <= t < t_focal; the descent ends by t_focal, because
    p(t_focal) = 0 closes the band, and its series start lies before its
    end, so nothing reads p_fn beyond it.  A product whose Taylor data do
    not fit a float raises ValueError.
    """
    _require_round(link, "curvature model")
    k = link.k
    m = min(f.dim for f in link.factors)
    j = k - m
    if j == 0:
        # single totally geodesic factor: no normal directions, flat model
        return CurvatureModel(k, 0.0, lambda t: 1.0, (1.0, 0.0, 0.0))
    a, b = math.sqrt(m / j), math.sqrt(j / m)

    def p_fn(t):
        return (1.0 + a * t) ** j * (1.0 - b * t) ** m

    # the expansion first: it raises ValueError on a k beyond the float range
    terms = _term_taylor(j, m)
    return CurvatureModel(k, math.sqrt(k), p_fn, (1.0, 0.0, -0.5 * k, *terms[3:]))


@cache
def _term_taylor(j: int, m: int) -> tuple:
    """Coefficients, lowest order first, of the term
    q_j = (1 + a t)^j (1 - b t)^m of ``curvature_model``: the integer
    polynomial (1 + m s)^j (1 - j s)^m, expanded exactly, at
    s = t / sqrt(j m), so each is one rounded integer over sqrt(j m)^n.
    ValueError names k = j + m when an integer or a power of the scale
    exceeds the float range."""
    try:
        scale = math.sqrt(j * m)
        # the top power first, so that a k out of range fails before the
        # expansion, whose cost grows as k^2
        scale ** (j + m)
        coeffs = [1]
        for root, power in ((m, j), (-j, m)):
            for _ in range(power):
                coeffs = [x + root * y for x, y in zip(coeffs + [0], [0] + coeffs)]
        return tuple(float(c) / scale**n for n, c in enumerate(coeffs))
    except OverflowError:
        raise ValueError(f"Taylor coefficients of p do not fit a float at k = {j + m}") from None


@dataclass(frozen=True)
class NormalRadiusEstimate:
    """Normal radius of a round-sphere product and the distance that sets
    it: "focal", or "hemisphere-cap" for a single factor."""

    value: float
    binding: str

    def __float__(self):
        return self.value


def normal_radius(link: ProductLink) -> NormalRadiusEstimate:
    """Exact normal radius arcsin(lambda_min) of a round-sphere product.

    The normal radius, the reach of Federer (Curvature measures, 1959), is
    the smaller of the focal distance and half the shortest geodesic chord
    normal to the link at both ends.  The focal distance is arccot of the
    largest principal curvature sqrt((k - k_min) / k_min), that is
    arctan sqrt(k_min / (k - k_min)) = arcsin(lambda_min).  A normal
    geodesic from (lambda_i x_i) stays in the span of the x_i, so the chords
    normal at both ends join it to the points (+-lambda_i x_i); the shortest
    flips the smallest factor and has length 2 arcsin(lambda_min).  The two
    distances coincide, and the focal one is reported.  A single factor is
    a great sphere, totally geodesic, with normal radius pi/2.
    """
    _require_round(link, "normal radius")
    if link.n_factors == 1:
        return NormalRadiusEstimate(math.pi / 2, "hemisphere-cap")
    k_min = min(f.dim for f in link.factors)
    value = float(np.arctan(np.sqrt(k_min / (link.k - k_min))))
    return NormalRadiusEstimate(value, "focal")


def hypersurface_factor(link: ProductLink) -> SphereFactor:
    """Repackage a codimension-one product (two round factors) as a factor
    carrying its Gauss image at the point p = (lambda_1 e_0, lambda_2 e_0)
    and its antipode, where the unit normal field is
    nu = (lambda_2 x_1, -lambda_1 x_2).

    nu is odd, so the normal at -p is exactly -nu(p).  Both normals lie in
    the plane of the two blocks' e_0, and are stored in that plane's
    orthonormal coordinates as the float tuples +-(lambda_2, -lambda_1):
    two numbers each, whatever the dimension of the product.  Negating a
    float is exact, so the pair is exactly antipodal; it lies in no open
    hemisphere, and it is the whole certificate the obstruction needs, so
    nothing is drawn."""
    _require_round(link, "hypersurface repackaging")
    if link.n_factors != 2:
        raise ValueError("only two-factor products are hypersurfaces in their sphere")
    lam1, lam2 = map(float, link.lambdas)
    return SphereFactor(dim=link.k, ambient=link.ambient_sphere_dim,
                        normals=((lam2, -lam1), (-lam2, lam1)))


def replication_links(base: SphereFactor, n_max: int) -> list:
    """(n, LinkData) of the products of n = 2 .. n_max copies of the base
    link, all built before any descent, so a product out of range raises
    ValueError before the first one; so does n_max < 2."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    links = []
    for n in range(2, n_max + 1):
        link = minimal_product([base] * n)
        links.append((n, LinkData(curvature_model(link), normal_radius(link).value)))
    return links


def replication_search(base: SphereFactor, n_max: int, control: str = "F") -> dict:
    """Smallest number of copies of the base link whose product cone the
    criterion certifies, scanning n = 2 .. n_max.  The curvature data of
    each product is exact, so no samples are drawn."""
    verdicts = [(n, check_area_minimizing(data, control))
                for n, data in replication_links(base, n_max)]
    n_pass = next((n for n, verdict in verdicts if verdict.passes), None)
    return {"n_pass": n_pass, "verdicts": verdicts}
