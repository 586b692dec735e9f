"""Second implementations kept only to test the library against.

Each one computes a quantity conekit now obtains another way: the F and c
curvature controls in numpy instead of the scalar closures of
``lawlor._control_model``, the descent ODE by scipy's ``solve_ivp`` instead
of the scalar DOP853 loop, the descent from the order-2 start 1 - a_max t^2
at t = 1e-3 that the order-30 series start replaced (the only place that
start lives on), a tight reference descent from an order-40 series, comass
by a constrained minimization and by the step-rule ascent retracted by
LAPACK's QR instead of Gram-Schmidt, shape matrices by finite differences
along great-circle curves instead of the closed-form spectra, p(t) by a
dense search over unit normals and as the least term over all proper subset
sums instead of its single term j* = k - k_min, and the normal radius from
explicit chords between link points instead of arcsin(lambda_min), and the
open-hemisphere decision by two HiGHS linear programs and an NNLS polish
instead of one nearest-point solve.
It also keeps the seeded sampler of product points that products used
before a round hypersurface factor became one exact antipodal pair: tests
that need random points of a product, or a Gauss image with no antipodal
pair, draw them here.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import linprog, minimize, nnls

from conekit import lawlor
from conekit.comass import _check_pair, _eval_batch, _grad_batch, _whitened_vector
from conekit.exterior import AlternatingForm, MetricTensor, _interior_matrix
from conekit.obstruction import HemisphereCertificate
from conekit.products import ProductLink, _require_round


# ---------------------------------------------------------------------------
# curvature controls


def f_control(alpha: float, t, k: int):
    """Sharper curvature control (1 - a t sqrt(k/(k+1))) (1 + a t / sqrt(k(k+1)))^k.

    Equals 1 at t = 0 and lies below the exact p(t) whenever alpha bounds
    the second fundamental form norm.
    """
    if alpha < 0.0 or k < 1:
        raise ValueError("need alpha >= 0 and k >= 1")
    t = np.asarray(t, dtype=float)
    out = (1.0 - alpha * t * np.sqrt(k / (k + 1.0))) * (
        1.0 + alpha * t / np.sqrt(k * (k + 1.0))
    ) ** k
    return float(out) if out.ndim == 0 else out


def c_control(alpha: float, t):
    """Coarser curvature control (1 - alpha t) exp(alpha t)."""
    if alpha < 0.0:
        raise ValueError("need alpha >= 0")
    t = np.asarray(t, dtype=float)
    out = (1.0 - alpha * t) * np.exp(alpha * t)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# descent ODE


class SolveIvpDescent:
    """A ``solve_ivp`` result in the shape of ``lawlor._Descent``: nodes,
    end, right-hand-side count and dense output."""

    def __init__(self, sol, end):
        self.sol = sol
        self.ts, self.ys = list(sol.t), list(sol.y[0])
        self.end = end
        self.rhs_calls = sol.nfev

    def __call__(self, t):
        out = self.sol.sol(t)[0]
        return float(out) if np.ndim(t) == 0 else out


def descend_solve_ivp(rhs, t0, h0, t_end, atol, rtol):
    """The descent as conekit integrated it before the scalar loop:
    ``solve_ivp`` with DOP853, terminal hit and pinch events and dense
    output.  Drop-in for ``lawlor._descend``; ``rhs`` returns (slope, band).
    """

    def hit(t, h):
        return h[0]

    def pinch(t, h):
        return rhs(t, h[0])[1]

    for event in (hit, pinch):
        event.terminal = True
        event.direction = -1
    sol = solve_ivp(
        lambda t, h: [rhs(t, h[0])[0]],
        (t0, t_end),
        [h0],
        method="DOP853",
        events=[hit, pinch],
        dense_output=True,
        atol=atol,
        rtol=rtol,
        max_step=0.01,
    )
    if sol.status == -1:
        raise RuntimeError(f"descent ODE failed after t = {sol.t[-1]:.6g}: {sol.message}")
    if sol.t_events[0].size:
        return SolveIvpDescent(sol, ("hit", float(sol.t_events[0][0])))
    if sol.t_events[1].size:
        kind = "hit" if sol.y_events[1][0][0] <= 1e-8 else "pinch"
        return SolveIvpDescent(sol, (kind, float(sol.t_events[1][0])))
    return SolveIvpDescent(sol, None)


def order2_start_angle(model, atol=1e-10, rtol=1e-10):
    """(theta, end) of the fastest descent started as conekit started it
    before the series start: h = 1 - a_max t^2 at t = 1e-3, an early leg to
    t = 0.2 at 1e-3 times the tolerances (rtol at least 3e-14), then the
    main leg to t = 50.  theta is None without a hit; end is one of
    lawlor.DESCENT_ENDS."""
    try:
        _, a_max = lawlor.second_order_coeffs(model.k, model.p2)
    except ValueError:
        return None, "no-departure"
    if a_max <= 0.0:
        return None, "no-departure"
    rhs = lawlor._descent_rhs(model.k + 1.0, model.p_fn)
    run = lawlor._descend(rhs, 1e-3, 1.0 - a_max * 1e-6, 0.2, 1e-3 * atol,
                          max(1e-3 * rtol, 3e-14))
    if run.end is None:
        run = lawlor._descend(rhs, 0.2, run.ys[-1], 50.0, atol, rtol)
    end = run.end[0] if run.end else "t_cap"
    return (math.atan(run.end[1]) if end == "hit" else None), end


def control_taylor(control, alpha, k, order):
    """p's Taylor coefficients through ``order`` for the F control (its
    exact polynomial, from the binomial sum) and the c control
    (alpha^n (1 - n) / n!)."""
    if control == "c":
        return [alpha**n * (1 - n) / math.factorial(n) for n in range(order + 1)]
    lead, b = alpha * math.sqrt(k / (k + 1.0)), alpha / math.sqrt(k * (k + 1.0))
    rise = np.array([math.comb(k, i) * b**i for i in range(k + 1)])
    poly = np.convolve(rise, [1.0, -lead])
    return [1.0, 0.0, -0.5 * alpha * alpha, *poly[3:order + 1]]


def series_reference_angle(model, taylor, order=40, rtol=3e-14):
    """Tight reference vanishing angle: the fastest descent from its
    order-``order`` series (taylor holds p's coefficients that far), taken
    over where the last two terms fall to 1e-17 (at most t = 0.2), and one
    leg at atol 1e-16 and the given rtol."""
    _, a_max = lawlor.second_order_coeffs(model.k, model.p2)
    K = model.k + 1.0
    c = lawlor.descent_series(taylor, K, a_max, order)
    tail = max(abs(c[-2]), abs(c[-1]))
    t0 = min(0.2, (1e-17 / tail) ** (1.0 / (order - 1))) if tail else 0.2
    h0 = sum(cn * t0**n for n, cn in enumerate(c))
    run = lawlor._descend(lawlor._descent_rhs(K, model.p_fn), t0, h0, 50.0, 1e-16, rtol)
    return math.atan(run.end[1]) if run.end and run.end[0] == "hit" else None


# ---------------------------------------------------------------------------
# comass


def comass_via_min(
    phi: AlternatingForm,
    g: MetricTensor,
    *,
    restarts: int = 12,
    seed: int = 0,
    tol: float = 1e-12,
) -> float:
    """1 / min ||Q||_g over the constraint set {Q simple : phi(Q) = 1}."""
    _check_pair(phi, g)
    if phi.is_zero():
        raise ValueError("constraint set phi(Q)=1 is empty for the zero form")
    n, m = phi.n, phi.m
    first = _interior_matrix(phi.vector, n, m)
    gmat = g.matrix
    rng = np.random.default_rng(seed)

    def _eval1(V):
        return float(_eval_batch(first, V[None])[0])

    def _grad1(V):
        return _grad_batch(first, V[None])[0]

    def objective(x):
        V = x.reshape(n, m)
        G = V.T @ gmat @ V
        det = np.linalg.det(G)
        jac = 2.0 * gmat @ V @ (det * np.linalg.pinv(G))
        return det, jac.ravel()

    def constraint(x):
        return _eval1(x.reshape(n, m)) - 1.0

    def constraint_jac(x):
        return _grad1(x.reshape(n, m)).ravel()

    best_gram2 = np.inf
    for _ in range(restarts):
        V0 = rng.standard_normal((n, m))
        val = _eval1(V0)
        if abs(val) < 1e-8:
            continue
        V0[:, 0] /= val
        res = minimize(
            lambda x: objective(x)[0],
            V0.ravel(),
            jac=lambda x: objective(x)[1],
            constraints=[{"type": "eq", "fun": constraint, "jac": constraint_jac}],
            method="SLSQP",
            options={"maxiter": 300, "ftol": tol},
        )
        if res.success and abs(constraint(res.x)) < 1e-8:
            best_gram2 = min(best_gram2, float(res.fun))
    if not np.isfinite(best_gram2) or best_gram2 <= 0.0:
        raise RuntimeError("constrained minimization failed on all restarts")
    return 1.0 / math.sqrt(best_gram2)


def step_rule_comass(phi, g, *, restarts=16, max_iters=400, tol=1e-10, seed=0):
    """The optimizer as it was before the gradient stop: every restart runs
    until all step sizes fall below ``tol``, each step retracted by
    ``np.linalg.qr``, so it shares no retraction with the library."""
    n, m = phi.n, phi.m
    first = _interior_matrix(_whitened_vector(phi, g), n, m)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((restarts, n, m)))[0]
    f = _eval_batch(first, U)
    U[f < 0.0, :, 0] *= -1.0
    f = np.abs(f)
    step = np.full(restarts, 0.5)
    for _ in range(max_iters):
        grad = _grad_batch(first, U)
        gnorm = np.linalg.norm(grad.reshape(restarts, -1), axis=1)
        gnorm[gnorm == 0.0] = 1.0
        trial = np.linalg.qr(U + (step / gnorm)[:, None, None] * grad)[0]
        ft = _eval_batch(first, trial)
        trial[ft < 0.0, :, 0] *= -1.0
        ft = np.abs(ft)
        better = ft > f
        U[better] = trial[better]
        f[better] = ft[better]
        step[better] *= 1.5
        step[~better] *= 0.5
        np.minimum(step, 1.0, out=step)
        if np.all(step < tol):
            break
    return float(f.max())


# ---------------------------------------------------------------------------
# random points of products


def factor_draws(link: ProductLink, samples: int, seed: int) -> list:
    """``samples`` points per factor from one generator seeded with
    ``seed``, factor by factor: uniform points of a round factor, a
    subsample (with replacement when the factor has fewer points) of a
    sampled one.  This is the order in which products drew their points
    before a round hypersurface factor became one exact antipodal pair, so
    tests keep the inputs they were written against."""
    rng = np.random.default_rng(seed)
    out = []
    for f in link.factors:
        if f.points is None:
            v = rng.standard_normal((samples, f.ambient + 1))
            out.append(v / np.linalg.norm(v, axis=1, keepdims=True))
        else:
            idx = rng.choice(len(f.points), size=samples,
                             replace=len(f.points) < samples)
            out.append(f.points[idx])
    return out


def hypersurface_draws(link: ProductLink, samples: int, seed: int):
    """Points (lambda_1 x_1, lambda_2 x_2) of a two-factor round product at
    its ``factor_draws``, and the unit normals (lambda_2 x_1, -lambda_1 x_2)
    there: a Gauss image with no antipodal pair."""
    x1, x2 = factor_draws(link, samples, seed)
    lam1, lam2 = link.lambdas
    return (np.concatenate([lam1 * x1, lam2 * x2], axis=1),
            np.concatenate([lam2 * x1, -lam1 * x2], axis=1))


def block_slices(link: ProductLink) -> list:
    """The slices of each factor's coordinates in R^(ambient_sphere_dim + 1)."""
    ends = np.cumsum([0] + [f.ambient + 1 for f in link.factors])
    return [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]


# ---------------------------------------------------------------------------
# second fundamental forms of round products


def _tangent_basis(link: ProductLink, xs: list) -> list:
    """Orthonormal tangent basis of the product at the point with factor
    coordinates xs, as (factor index, unit factor tangent) pairs."""
    basis = []
    for i, x in enumerate(xs):
        # Householder QR completes x to an orthogonal frame; the columns
        # after the first are an orthonormal tangent basis at x
        q, _ = np.linalg.qr(np.column_stack([x, np.eye(x.size)[:, : x.size - 1]]))
        for a in range(1, x.size):
            basis.append((i, q[:, a]))
    return basis


def _curve_point(link: ProductLink, xs, direction, s: float) -> np.ndarray:
    """Point of the unit-speed product curve through xs with initial
    velocity given by per-factor tangents (factor great circles)."""
    d = link.ambient_sphere_dim + 1
    out = np.zeros(d)
    for i, sl in enumerate(block_slices(link)):
        lam = link.lambdas[i]
        w = direction.get(i)
        if w is None:
            out[sl] = lam * xs[i]
        else:
            speed = np.linalg.norm(w)
            ang = speed * s / lam
            out[sl] = lam * (np.cos(ang) * xs[i] + np.sin(ang) * (w / speed))
    return out


def _sff_vectors(link: ProductLink, xs: list, eps: float = 1e-4):
    """Vector-valued second fundamental form at xs: a (k, k, d) array whose
    contraction with a unit normal v gives the k x k shape matrix h^v."""
    basis = _tangent_basis(link, xs)
    k = link.k
    d = link.ambient_sphere_dim + 1
    x0 = _curve_point(link, xs, {}, 0.0)

    def accel(direction):
        p = _curve_point(link, xs, direction, eps)
        m = _curve_point(link, xs, direction, -eps)
        return (p + m - 2.0 * x0) / (eps * eps)

    diag = []
    for i, u in basis:
        diag.append(accel({i: u}))
    S = np.zeros((k, k, d))
    for a in range(k):
        S[a, a] = diag[a]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for a in range(k):
        ia, ua = basis[a]
        for b in range(a + 1, k):
            ib, ub = basis[b]
            if ia == ib:
                combo = {ia: inv_sqrt2 * (ua + ub)}
            else:
                combo = {ia: inv_sqrt2 * ua, ib: inv_sqrt2 * ub}
            cross = accel(combo) - 0.5 * (diag[a] + diag[b])
            S[a, b] = cross
            S[b, a] = cross
    return S, basis


def numeric_second_fundamental_form(
    link: ProductLink, xs, v: np.ndarray
) -> np.ndarray:
    """Shape matrix h^v at a point, by finite differences.

    ``xs`` lists the point's per-factor unit points; ``v`` must be a unit
    vector normal to the link and tangent to the ambient sphere there.
    """
    _require_round(link, "second fundamental form")
    xs = list(xs)
    v = np.asarray(v, dtype=float)
    x0 = _curve_point(link, xs, {}, 0.0)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8 or abs(v @ x0) > 1e-8:
        raise ValueError("v must be a unit vector orthogonal to the point")
    S, basis = _sff_vectors(link, xs)
    slices = block_slices(link)
    for i, u in basis:
        emb = np.zeros(v.size)
        emb[slices[i]] = u
        if abs(v @ emb) > 1e-8:
            raise ValueError("v has a tangential component")
    H = S @ v
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# exact curvature data of round products


def shape_spectrum(link: ProductLink, b) -> np.ndarray:
    """Principal curvatures of h^v for the mixing normal v = (b_i x_i): the
    eigenvalue -b_i / lambda_i with multiplicity k_i, at every point."""
    dims = [f.dim for f in link.factors]
    return np.repeat(-np.asarray(b, dtype=float) / link.lambdas, dims)


def unit_mixing_normals(link: ProductLink, rng, count: int) -> np.ndarray:
    """``count`` random unit b orthogonal to (lambda_i).  The projection is
    applied twice: once leaves a draw nearly parallel to lambda with a
    rounding residue along it that normalization blows up."""
    lam = link.lambdas
    b = rng.standard_normal((count, link.n_factors))
    for _ in range(2):
        b -= np.outer(b @ lam, lam)
    return b / np.linalg.norm(b, axis=1, keepdims=True)


def p_by_normal_search(link: ProductLink, ts, rng, count: int = 100_000) -> np.ndarray:
    """p(t) = min det(I - t h^v) over ``count`` random unit mixing normals,
    each with both signs, for every t in ``ts``: an upper bound that tends
    to p(t) as the normals fill the sphere."""
    b = unit_mixing_normals(link, rng, count)
    beta = np.vstack([b, -b]) / link.lambdas  # h^v has eigenvalues -beta_i
    dims = np.array([f.dim for f in link.factors])
    return np.array([float(np.prod((1.0 + t * beta) ** dims, axis=1).min())
                     for t in ts])


def p_over_subset_sums(link: ProductLink):
    """p(t) of a round product of two or more factors as the least of the
    terms (1 + a t)^j (1 - b t)^(k - j), a = sqrt((k - j) / j),
    b = sqrt(j / (k - j)), over every proper subset sum j of the factor
    dimensions, each evaluated in the library's order of operations."""
    k = link.k
    sums = {0}
    for f in link.factors:
        sums |= {s + f.dim for s in sums}
    terms = [(j, k - j, math.sqrt((k - j) / j), math.sqrt(j / (k - j)))
             for j in sorted(sums - {0, k})]

    def p_fn(t):
        return min((1.0 + a * t) ** j * (1.0 - b * t) ** m for j, m, a, b in terms)

    return p_fn


def _embed(link: ProductLink, xs) -> np.ndarray:
    return np.concatenate([lam * x for lam, x in zip(link.lambdas, xs)])


def geodesic_chord(link: ProductLink, xs, ys):
    """Half the great-circle distance between the link points with factor
    coordinates xs and ys, and the largest norm, at either end, of the
    chord's unit direction projected on the link's tangent space there
    (the part of each factor block orthogonal to that factor's point).  The
    chord is normal to the link at both ends when that norm is 0."""
    p, q = _embed(link, xs), _embed(link, ys)
    c = float(np.clip(p @ q, -1.0, 1.0))
    tangential = 0.0
    for start, end, coords in ((p, q, xs), (q, p, ys)):
        u = end - c * start
        u /= np.linalg.norm(u)
        parts = [u[sl] - (u[sl] @ z) * z for sl, z in zip(block_slices(link), coords)]
        tangential = max(tangential, float(np.linalg.norm(np.concatenate(parts))))
    return 0.5 * math.acos(c), tangential


def double_normal_chords(link: ProductLink, xs) -> list:
    """(flipped factors, half length, tangential part) of the chord from the
    point xs to each point that negates the factors of a nonempty proper
    subset and keeps the rest.  Every normal geodesic from xs lies in the
    span of the factor points, so these are the chords from xs that can be
    normal at both ends; flipping every factor gives the antipode, at half
    length pi/2, which no normal radius of a product exceeds."""
    out = []
    n = link.n_factors
    for mask in range(1, 2 ** n - 1):
        flipped = tuple(i for i in range(n) if mask >> i & 1)
        ys = [-x if i in flipped else x for i, x in enumerate(xs)]
        out.append((flipped, *geodesic_chord(link, xs, ys)))
    return out


# ---------------------------------------------------------------------------
# open-hemisphere decision


def _max_margin_direction(X: np.ndarray):
    """Maximize e subject to <w, x_i> >= e and |w|_inf <= 1."""
    S, d = X.shape
    # variables (w_1..w_d, e); minimize -e
    c = np.zeros(d + 1)
    c[-1] = -1.0
    A = np.concatenate([-X, np.ones((S, 1))], axis=1)
    b = np.zeros(S)
    bounds = [(-1.0, 1.0)] * d + [(None, None)]
    res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"margin program failed: {res.message}")
    return res.x[:d], float(res.x[-1])


def _zero_hull_weights(X: np.ndarray):
    """Minimize |X^T y|_inf over convex weights y."""
    S, d = X.shape
    # variables (y_1..y_S, u); minimize u
    c = np.zeros(S + 1)
    c[-1] = 1.0
    A_rows = []
    for sgn in (1.0, -1.0):
        A_rows.append(np.concatenate([sgn * X.T, -np.ones((d, 1))], axis=1))
    A = np.concatenate(A_rows, axis=0)
    b = np.zeros(2 * d)
    A_eq = np.concatenate([np.ones((1, S)), np.zeros((1, 1))], axis=1)
    res = linprog(
        c,
        A_ub=A,
        b_ub=b,
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * S + [(None, None)],
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"hull program failed: {res.message}")
    y = np.clip(res.x[:S], 0.0, None)
    y /= y.sum()
    return y, float(np.linalg.norm(X.T @ y))


def hemisphere_by_lp(X: np.ndarray, tol: float = 1e-9) -> HemisphereCertificate:
    """The open-hemisphere decision as ``hemisphere_test`` made it on sets
    without an antipodal pair before the nearest-point solve: a box-normalized
    max-margin LP, then either an NNLS 2-norm polish with a 1e6 penalty row
    on the weight sum, or a second LP for the convex weights nearest zero in
    the inf-norm.  Certificates carry method "lp"."""
    w, margin_lp = _max_margin_direction(X)
    wn = np.linalg.norm(w)
    direction = w / wn if wn > 1e-12 else None
    margin = float(np.min(X @ direction)) if direction is not None else -1.0
    if margin_lp > tol and direction is not None and margin > 0.0:
        # the nearest hull point gives the best direction in the 2-norm
        rho = 1e6
        A = np.concatenate([X.T, rho * np.ones((1, len(X)))], axis=0)
        rhs = np.concatenate([np.zeros(X.shape[1]), [rho]])
        y, _ = nnls(A, rhs)
        z = X.T @ y
        zn = np.linalg.norm(z)
        if zn > tol:
            cand = z / zn
            cand_margin = float(np.min(X @ cand))
            if cand_margin > margin:
                direction, margin = cand, cand_margin
        return HemisphereCertificate("feasible", "lp", direction=direction, margin=margin)
    y, residual = _zero_hull_weights(X)
    assert np.all(y >= 0.0) and abs(y.sum() - 1.0) <= 1e-9
    if residual <= tol:
        return HemisphereCertificate(
            "infeasible", "lp", convex_weights=y, residual=residual
        )
    # neither certificate is clean: the configuration sits on the decision
    # boundary at this tolerance
    return HemisphereCertificate(
        "boundary",
        "lp",
        direction=direction,
        margin=margin,
        convex_weights=y,
        residual=residual,
    )
