"""Scaled products of sphere links and their differential geometry.

The product of links L_i^{k_i} in S^{N_i}, each factor scaled by
lambda_i = sqrt(k_i / k) with k = sum k_i, is a minimal submanifold of the
unit sphere S^(sum N_i + n - 1).  This module assembles such products,
samples them, and extracts the quantities the cone criterion consumes:
a curvature bound alpha, the determinant infimum p(t), its quadratic
coefficient p2, and a lower bound for the normal injectivity radius.

For a product of round spheres these come in closed form.  The normal
space at (lambda_i x_i) is spanned by the mixing normals v = (b_i x_i) with
sum b_i lambda_i = 0, and the shape operator h^v is diagonal with
eigenvalue -b_i / lambda_i of multiplicity k_i.  So alpha = sqrt(k) for
unit b, the largest principal curvature is sqrt((k - k_min) / k_min), and
the normal part of a chord follows from factor inner products alone.
General links may be supplied as sampled point/normal data, but curvature
extraction is only implemented for products of round spheres.
"""

from dataclasses import dataclass
from fractions import Fraction
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
    "replication_search",
    "as_link_data",
]

UNIT_TOL = 1e-10


@dataclass(frozen=True)
class SphereFactor:
    """One factor link: a round sphere S^dim, or sampled data in S^ambient.

    Sampled factors carry unit points (rows of ``points``) and, for
    codimension-one links, a unit normal per point (rows of ``normals``).
    """

    dim: int
    ambient: int
    points: Optional[np.ndarray] = None
    normals: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1 or self.ambient < self.dim:
            raise ValueError("need 1 <= dim <= ambient")
        if self.points is not None:
            pts = np.asarray(self.points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != self.ambient + 1:
                raise ValueError("points must be (S, ambient+1)")
            if np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) > UNIT_TOL:
                raise ValueError("sample points must be unit vectors")
            object.__setattr__(self, "points", pts)
        if self.normals is not None:
            nor = np.asarray(self.normals, dtype=float)
            if nor.shape != self.points.shape:
                raise ValueError("normals must align with points")
            if np.max(np.abs(np.linalg.norm(nor, axis=1) - 1.0)) > UNIT_TOL:
                raise ValueError("normals must be unit vectors")
            if np.max(np.abs(np.sum(nor * self.points, axis=1))) > 1e-8:
                raise ValueError("normals must be orthogonal to their points")
            object.__setattr__(self, "normals", nor)

    @property
    def is_round(self) -> bool:
        return self.points is None and self.ambient == self.dim

    @staticmethod
    def round(k: int) -> "SphereFactor":
        """The round sphere S^k in R^(k+1) as its own link."""
        return SphereFactor(dim=k, ambient=k)


@dataclass
class ProductLink:
    """A scaled product link with aligned per-factor sample points."""

    factors: list
    lambdas: np.ndarray
    k: int
    ambient_sphere_dim: int
    factor_points: list
    seed: int

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def block_slices(self) -> list:
        out, at = [], 0
        for f in self.factors:
            out.append(slice(at, at + f.ambient + 1))
            at += f.ambient + 1
        return out

    def embedded_points(self) -> np.ndarray:
        """Unit-norm samples of the product in R^(ambient_sphere_dim + 1)."""
        blocks = [
            lam * pts for lam, pts in zip(self.lambdas, self.factor_points)
        ]
        return np.concatenate(blocks, axis=1)

    def point_tuple(self, i: int) -> list:
        return [pts[i] for pts in self.factor_points]


def _sphere_samples(rng, count: int, ambient: int) -> np.ndarray:
    v = rng.standard_normal((count, ambient + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def minimal_product(
    factors, *, samples: int = 200, seed: int = 0
) -> ProductLink:
    """Assemble the scaled product of the given factor links.

    Scaling factors are sqrt(k_i / k) with exact rational squares, so the
    concatenated samples land on the unit sphere to rounding error.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    k = sum(f.dim for f in factors)
    assert sum(Fraction(f.dim, k) for f in factors) == 1
    lambdas = np.array([np.sqrt(f.dim / k) for f in factors])
    ambient = sum(f.ambient for f in factors) + len(factors) - 1
    rng = np.random.default_rng(seed)
    factor_points = []
    for f in factors:
        if f.points is not None:
            if len(f.points) >= samples:
                idx = rng.choice(len(f.points), size=samples, replace=False)
            else:
                idx = rng.choice(len(f.points), size=samples, replace=True)
            factor_points.append(f.points[idx])
        else:
            factor_points.append(_sphere_samples(rng, samples, f.ambient))
    return ProductLink(
        factors=factors,
        lambdas=lambdas,
        k=k,
        ambient_sphere_dim=ambient,
        factor_points=factor_points,
        seed=seed,
    )


def _require_round(link: ProductLink, what: str):
    if not all(f.is_round for f in link.factors):
        raise ValueError(f"{what} requires all factors to be round spheres")


def _normal_grid(link: ProductLink, rng, count: int) -> np.ndarray:
    """Unit b-vectors orthogonal to (lambda_i): axis-aligned extremals of
    each coordinate plus random directions."""
    n = link.n_factors
    lam = link.lambdas
    if n == 1:
        return np.zeros((0, 1))
    cands = []
    for i in range(n):
        b = -lam[i] * lam
        b[i] += 1.0
        cands.append(b / np.linalg.norm(b))
    raw = rng.standard_normal((count, n))
    raw -= np.outer(raw @ lam, lam)
    norms = np.linalg.norm(raw, axis=1)
    raw = raw[norms > 1e-8] / norms[norms > 1e-8, None]
    return np.vstack([np.asarray(cands), raw])


def _shape_spectra(link: ProductLink, bs: np.ndarray) -> np.ndarray:
    """Principal curvatures of h^v for the mixing normals v = (b_i x_i),
    one column per row of ``bs``: a (k, len(bs)) table.  Eigenvalue
    -b_i / lambda_i has multiplicity k_i, the same at every point."""
    dims = [f.dim for f in link.factors]
    return np.repeat(-np.asarray(bs).T / link.lambdas[:, None], dims, axis=0)


def curvature_model(
    link: ProductLink,
    *,
    point_samples: int = 6,
    normal_samples: int = 32,
    seed: int = 1,
    fit_window: float = 0.05,
) -> CurvatureModel:
    """Curvature data of a round-sphere product from its exact shape spectra.

    The normal grid of ``_normal_grid`` is drawn ``point_samples`` times
    from ``seed`` and each unit b enters with both signs.  p(t) is the
    minimum over that grid of det(I - t h^v) = prod(1 - t mu), taken over
    the closed-form spectra mu; alpha is the largest Frobenius norm of h^v
    on the grid, which is sqrt(k) for every unit normal; p2 comes from a
    quadratic fit of p at t = 0.  No finite differences are involved.
    """
    _require_round(link, "curvature model")
    rng = np.random.default_rng(seed)
    point_samples = min(point_samples, len(link.factor_points[0]))
    if point_samples < 1:
        raise ValueError("no sample points available")
    bs = np.vstack(
        [_normal_grid(link, rng, normal_samples) for _ in range(point_samples)]
    )
    if bs.size == 0:
        # single totally geodesic factor: no normal directions, flat model
        return CurvatureModel(link.k, 0.0, lambda t: 1.0, 0.0)
    mu = _shape_spectra(link, bs)
    mu = np.hstack([mu, -mu])
    alpha = float(np.max(np.linalg.norm(mu, axis=0)))

    def p_fn(t):
        return float((1.0 - t * mu).prod(axis=0).min())

    ts = np.linspace(-fit_window, fit_window, 21)
    ps = np.asarray([p_fn(t) for t in ts])
    p2 = float(np.polyfit(ts, ps, 2)[0])
    p2 = min(p2, 0.0)
    return CurvatureModel(link.k, alpha, p_fn, p2)


@dataclass(frozen=True)
class NormalRadiusEstimate:
    """Lower bound for the normal injectivity radius, recording which of
    the constituent bounds was binding."""

    value: float
    binding: str
    focal_bound: float
    avoidance_bound: float

    def __float__(self):
        return self.value


def normal_radius(
    link: ProductLink,
    *,
    avoidance_ratio: float = 0.95,
) -> NormalRadiusEstimate:
    """Lower bound min(pi/2, focal distance, self-avoidance distance).

    The focal bound is arccot of the largest principal curvature, in closed
    form arctan sqrt(k_min / (k - k_min)): |b_i| / lambda_i peaks on the
    unit normal closest to the smallest factor's axis.  The self-avoidance
    bound is half the spherical distance between sample pairs whose chord
    is predominantly normal to the link (normal component ratio at least
    ``avoidance_ratio``).  The normal space at p_i is the span of the
    block-embedded factor points x_l^i with p_i itself projected out, so
    the normal part of p_j - p_i has squared norm
    sum_l lambda_l^2 (x_l^i . x_l^j)^2 - (p_i . p_j)^2, symmetric in i and
    j, and the chord has squared length 2 - 2 p_i . p_j.  Pairs with a
    chord below 1e-6, where that difference is rounding noise, are skipped.
    """
    _require_round(link, "normal radius")
    dims = [f.dim for f in link.factors]
    k, k_min = link.k, min(dims)
    focal = np.pi / 2 if k == k_min else float(np.arctan(np.sqrt(k_min / (k - k_min))))

    S_count = len(link.factor_points[0])
    dots = np.zeros((S_count, S_count))
    normal_sq = np.zeros((S_count, S_count))
    for lam, X in zip(link.lambdas, link.factor_points):
        G = X @ X.T
        dots += lam * lam * G
        normal_sq += lam * lam * G * G
    normal_sq -= dots * dots
    chord_sq = 2.0 - 2.0 * dots
    close = (chord_sq >= 1e-12) & (normal_sq >= avoidance_ratio**2 * chord_sq)
    avoid = np.pi / 2
    if np.any(close):
        avoid = 0.5 * float(np.arccos(np.clip(dots[close].max(), -1.0, 1.0)))
    value = min(np.pi / 2, focal, avoid)
    if value == focal and focal <= avoid:
        binding = "focal"
    elif value == avoid:
        binding = "self-avoidance"
    else:
        binding = "hemisphere-cap"
    return NormalRadiusEstimate(value, binding, focal, avoid)


def hypersurface_factor(link: ProductLink) -> SphereFactor:
    """Repackage a codimension-one product (two round factors) as a sampled
    factor with its unit normal field nu = (lambda_2 x_1, -lambda_1 x_2)."""
    _require_round(link, "hypersurface repackaging")
    if link.n_factors != 2:
        raise ValueError("only two-factor products are hypersurfaces in their sphere")
    lam = link.lambdas
    pts = link.embedded_points()
    normals = np.concatenate(
        [lam[1] * link.factor_points[0], -lam[0] * link.factor_points[1]], axis=1
    )
    return SphereFactor(
        dim=link.k, ambient=link.ambient_sphere_dim, points=pts, normals=normals
    )


def as_link_data(
    link: ProductLink,
    *,
    curvature: Optional[CurvatureModel] = None,
    radius: Optional[NormalRadiusEstimate] = None,
    **opts,
) -> LinkData:
    """Bundle the criterion inputs, computing anything not supplied."""
    model = curvature if curvature is not None else curvature_model(link, **opts)
    R = radius if radius is not None else normal_radius(link)
    return LinkData(
        k=link.k,
        alpha=model.alpha,
        normal_radius=float(R),
        p_fn=model.p_fn,
        p2=model.p2,
    )


def replication_search(
    base: SphereFactor,
    n_max: int,
    control: str = "F",
    *,
    seed: int = 0,
    samples: int = 200,
    normalization: str = "k-plus-1",
) -> dict:
    """Smallest number of copies of the base link whose product cone the
    criterion certifies, scanning n = 2 .. n_max."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    verdicts = []
    n_pass = None
    for n in range(2, n_max + 1):
        link = minimal_product([base] * n, samples=samples, seed=seed + n)
        data = as_link_data(link, seed=seed + n)
        verdict = check_area_minimizing(data, control, normalization=normalization)
        verdicts.append((n, verdict))
        if verdict.passes and n_pass is None:
            n_pass = n
    return {"n_pass": n_pass, "verdicts": verdicts}
