"""Comass computation for constant-coefficient forms under an SPD metric.

The optimizer runs multi-restart projected gradient ascent over ordered
m-frames, re-orthonormalized each step; restarts are vectorized and merged by
max, deterministic for a fixed seed.

Every frame evaluation and gradient, here and in the independent checks,
goes through one batched interior-product kernel from ``exterior``:
phi(u_1, ..., u_m) = iota_{u_m} ... iota_{u_1} phi, where each iota is a
gather through a signed index table plus a batched mat-vec, so memory stays
O(R n C(n, m-1)) for R frames.

Independent ground truth comes from a seeded brute-force sampler, from the
reformulation of the comass as 1 / min {Gram norm : phi(Q) = 1}, and from
analytic oracles in degree one (dual norm) and degree two (largest singular
value of the whitened skew coefficient matrix).

Also provides the canonical decomposition of a form with respect to a simple
m-vector it evaluates to 1 on, the adapted metric that renormalizes the
comass to 1, and the rigidity check for calibration forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import minimize

from .exterior import (
    AlternatingForm,
    MetricTensor,
    SimpleVector,
    _contract_frames,
    _interior_matrix,
    evaluate,
    gram_norm,
    multi_indices,
    pullback,
    wedge,
)

__all__ = [
    "ComassResult",
    "Decomposition",
    "comass",
    "comass_bruteforce",
    "comass_via_min",
    "comass_analytic",
    "decompose",
    "adapted_base_metric",
    "adapted_metric",
    "calibration_decomposition_check",
]


@dataclass(frozen=True)
class ComassResult:
    """``iterations`` counts ascent steps; ``converged`` is False when
    ``max_iters`` ran out before every restart's step fell below ``tol``."""

    value: float
    maximizer: SimpleVector
    method: str
    restarts_used: int
    iterations: int
    converged: bool


@dataclass(frozen=True)
class Decomposition:
    """phi = v_1* ^ ... ^ v_m* + sum a_I v_I* in the dual basis of V + W."""

    V_basis: np.ndarray  # n x m, columns span V
    W_basis: np.ndarray  # n x (n-m), columns span W
    leading_sign: int
    tail_coeffs: dict[tuple[int, ...], float] = field(default_factory=dict)

    @property
    def basis(self) -> np.ndarray:
        return np.column_stack([self.V_basis, self.W_basis])

    def reassemble(self) -> AlternatingForm:
        """Rebuild the form from the decomposition data (testing aid)."""
        n = self.basis.shape[0]
        m = self.V_basis.shape[1]
        dual = np.linalg.inv(self.basis)  # row i is the covector dual to basis col i
        covs = [AlternatingForm(n, 1, {(j + 1,): dual[i, j] for j in range(n)})
                for i in range(n)]

        def dual_wedge(idx):
            out = covs[idx[0] - 1]
            for i in idx[1:]:
                out = wedge(out, covs[i - 1])
            return out

        form = dual_wedge(tuple(range(1, m + 1))) * float(self.leading_sign)
        for I, a in self.tail_coeffs.items():
            form = form + dual_wedge(I) * a
        return form


# ---------------------------------------------------------------------------
# batched frame evaluation


def _eval_batch(first: np.ndarray, U: np.ndarray) -> np.ndarray:
    """phi(U) = iota_{u_m} ... iota_{u_1} phi for frames U of shape (R, n, m).

    ``first`` is ``_interior_matrix(phi)``, so the first contraction is one
    matmul shared by the whole batch.
    """
    m = U.shape[2]
    return _contract_frames(U[:, :, 0] @ first, U[:, :, 1:], m - 1)[:, 0]


def _grad_batch(first: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Gradient of phi(U) with respect to the frame entries, shape (R, n, m).

    phi is linear in column a, and moving u_a to the last slot gives
    d phi / d u_a = (-1)^(m-1-a) iota of the other columns, in order.
    """
    R, n, m = U.shape
    if m == 1:
        return np.broadcast_to(first, (R, n, 1)).copy()
    heads = U.transpose(0, 2, 1) @ first  # (R, m, C(n, m-1)): iota_{u_c} phi
    grad = np.empty_like(U)
    for a in range(m):
        rest = [c for c in range(m) if c != a]
        tail = _contract_frames(heads[:, rest[0]], U[:, :, rest[1:]], m - 1)
        grad[:, :, a] = (-1.0) ** (m - 1 - a) * tail
    return grad


def _orthonormalize(U: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(U)
    return q


def _whitened_vector(phi: AlternatingForm, g: MetricTensor) -> np.ndarray:
    """Coefficients of phi pulled back by L^{-T}, so Euclidean frames suffice."""
    Linv_T = np.linalg.inv(g.cholesky).T
    return pullback(Linv_T, phi).vector


def _check_pair(phi: AlternatingForm, g: MetricTensor):
    if phi.n != g.n:
        raise ValueError(f"form on R^{phi.n} but metric on R^{g.n}")
    if phi.m == 0:
        raise ValueError("comass is defined for forms of degree at least 1")


def comass(
    phi: AlternatingForm,
    g: MetricTensor,
    *,
    restarts: int = 32,
    max_iters: int = 400,
    tol: float = 1e-10,
    seed: int = 0,
    warm_starts=None,
) -> ComassResult:
    """max |phi(Q)| over simple m-vectors Q with unit Gram norm under g.

    Multi-restart projected ascent on orthonormal m-frames in whitened
    coordinates, with per-restart step halving.  ``warm_starts`` takes n x m
    factor matrices (in original coordinates) appended to the random restarts.
    """
    _check_pair(phi, g)
    if phi.is_zero():
        raise ValueError("comass of the zero form is degenerate; refusing")
    n, m = phi.n, phi.m
    first = _interior_matrix(_whitened_vector(phi, g), n, m)
    rng = np.random.default_rng(seed)

    starts = [rng.standard_normal((restarts, n, m))] if restarts > 0 else []
    LT = g.cholesky.T
    if warm_starts:
        warm = np.stack([LT @ np.asarray(V, dtype=float) for V in warm_starts])
        starts.append(warm)
    U = _orthonormalize(np.concatenate(starts, axis=0))
    R = U.shape[0]

    f = _eval_batch(first, U)
    neg = f < 0.0
    U[neg, :, 0] *= -1.0
    f = np.abs(f)
    step = np.full(R, 0.5)

    iterations, converged = 0, False
    for iterations in range(1, max_iters + 1):
        grad = _grad_batch(first, U)
        gnorm = np.linalg.norm(grad.reshape(R, -1), axis=1)
        gnorm[gnorm == 0.0] = 1.0
        trial = _orthonormalize(U + (step / gnorm)[:, None, None] * grad)
        ft = _eval_batch(first, trial)
        tneg = ft < 0.0
        trial[tneg, :, 0] *= -1.0
        ft = np.abs(ft)
        better = ft > f
        U[better] = trial[better]
        f[better] = ft[better]
        step[better] *= 1.5
        step[~better] *= 0.5
        np.minimum(step, 1.0, out=step)
        if np.all(step < tol):
            converged = True
            break

    best = int(np.argmax(f))
    V_best = np.linalg.solve(LT, U[best])  # g-orthonormal columns
    return ComassResult(
        value=float(f[best]),
        maximizer=SimpleVector.from_matrix(V_best),
        method="optimizer",
        restarts_used=R,
        iterations=iterations,
        converged=converged,
    )


def comass_bruteforce(
    phi: AlternatingForm,
    g: MetricTensor,
    sample_count: int,
    seed: int = 0,
    rounds: int = 12,
) -> float:
    """Seeded random-search lower bound: max |phi(Q)| / ||Q||_g over frames
    whose factors are drawn from the unit sphere.

    Zeroth-order and independent of the gradient optimizer: the budget is
    spent in rounds, each mixing fresh uniform sphere draws with draws
    concentrated around the incumbent best frame at a shrinking spread.
    Always a lower bound; converges to the comass as the budget grows.
    """
    _check_pair(phi, g)
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    n, m = phi.n, phi.m
    first = _interior_matrix(phi.vector, n, m)
    gmat = g.matrix
    rng = np.random.default_rng(seed)

    def ratios(V):
        vals = np.abs(_eval_batch(first, V))
        grams = np.linalg.det(np.einsum("rna,nk,rkb->rab", V, gmat, V))
        out = np.zeros_like(vals)
        ok = grams > 1e-300
        out[ok] = vals[ok] / np.sqrt(grams[ok])
        return out

    def to_sphere(V):
        return V / np.linalg.norm(V, axis=1, keepdims=True)

    rounds = max(1, min(rounds, sample_count))
    per_round = sample_count // rounds
    leftover = sample_count - per_round * rounds
    best_val = 0.0
    best_frame = None
    spread = 0.5
    for r in range(rounds):
        size = per_round + (leftover if r == rounds - 1 else 0)
        if size == 0:
            continue
        uniform = to_sphere(rng.standard_normal((size, n, m)))
        if best_frame is not None:
            half = size // 2
            local = to_sphere(
                best_frame[None] + spread * rng.standard_normal((half, n, m))
            )
            V = np.concatenate([uniform[: size - half], local], axis=0)
        else:
            V = uniform
        vals = ratios(V)
        top = int(np.argmax(vals))
        if vals[top] > best_val:
            best_val = float(vals[top])
            best_frame = V[top]
        spread *= 0.5
    return best_val


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


def comass_analytic(phi: AlternatingForm, g: MetricTensor) -> float:
    """Closed-form comass for degrees 1 and 2.

    Degree 1: the dual norm sqrt(c^T g^{-1} c).  Degree 2: the largest
    singular value of the whitened skew coefficient matrix L^{-1} A L^{-T}.
    """
    _check_pair(phi, g)
    if phi.m == 1:
        c = phi.vector
        return math.sqrt(float(c @ np.linalg.solve(g.matrix, c)))
    if phi.m == 2:
        n = phi.n
        A = np.zeros((n, n))
        for (i, j), c in phi.coeffs.items():
            A[i - 1, j - 1] = c
            A[j - 1, i - 1] = -c
        Linv = np.linalg.inv(g.cholesky)
        return float(np.linalg.svd(Linv @ A @ Linv.T, compute_uv=False)[0])
    raise ValueError(f"no analytic comass oracle for degree {phi.m}")


# ---------------------------------------------------------------------------
# canonical decomposition and the adapted metric


def _lambda_matrix(phi: AlternatingForm, V: np.ndarray) -> np.ndarray:
    """Rows are the covectors lambda_i(v) = phi(eta_i ^ v) of the decomposition.

    eta_i = (-1)^(m+i) v_1 ^ ... ^ hat v_i ^ ... ^ v_m, so lambda_i is the
    gradient of phi(V) in the i-th factor; for m = 1 it is phi itself.
    """
    first = _interior_matrix(phi.vector, phi.n, phi.m)
    return _grad_batch(first, V[None])[0].T


def decompose(phi: AlternatingForm, xi: SimpleVector, *, tol: float = 1e-9) -> Decomposition:
    """Canonical decomposition of phi with respect to xi, phi(xi) = 1.

    Returns the unique complementary subspace W = intersection of ker lambda_i
    together with the tail coefficients a_I, which vanish unless I has at
    least two indices beyond m.
    """
    n, m = phi.n, phi.m
    if xi.n != n or xi.m != m:
        raise ValueError("xi must be a simple m-vector in the form's space")
    val = evaluate(phi, xi)
    if abs(val - 1.0) > tol:
        raise ValueError(
            f"phi(xi) = {val:.12g}, expected 1; normalize phi by 1/phi(xi) first"
        )
    V = xi.matrix
    if np.linalg.matrix_rank(V, tol=1e-10) < m:
        raise ValueError("xi factors are linearly dependent")

    lam = _lambda_matrix(phi, V)
    # pairing lambda_i(v_j) = delta_ij is automatic given phi(xi) = 1
    W = null_space(lam)
    if W.shape[1] != n - m:
        raise RuntimeError("kernel intersection has wrong dimension")

    B = np.column_stack([V, W])
    leading = evaluate(phi, SimpleVector.from_matrix(B[:, :m]))
    tail: dict[tuple[int, ...], float] = {}
    for I in multi_indices(n, m):
        if I == tuple(range(1, m + 1)):
            continue
        beyond = sum(1 for i in I if i > m)
        b = evaluate(phi, SimpleVector.from_matrix(B[:, [i - 1 for i in I]]))
        if beyond >= 2:
            if b != 0.0:
                tail[I] = float(b)
        elif abs(b) > 1e-8:
            raise RuntimeError(
                f"tail coefficient a_{I} = {b:.3g} violates the vanishing condition"
            )
    return Decomposition(
        V_basis=V.copy(),
        W_basis=W,
        leading_sign=1 if leading > 0 else -1,
        tail_coeffs=tail,
    )


def adapted_base_metric(decomp: Decomposition) -> MetricTensor:
    """A metric making the decomposition basis orthonormal, so V and W are
    perpendicular and the leading simple vector has unit Gram norm."""
    Binv = np.linalg.inv(decomp.basis)
    G = Binv.T @ Binv
    return MetricTensor(0.5 * (G + G.T))


def adapted_metric(
    phi: AlternatingForm,
    xi: SimpleVector,
    base_g: MetricTensor,
    C2: float,
    *,
    comass_opts: dict | None = None,
) -> MetricTensor:
    """Scale base_g by C2 on W to pin the comass of phi at phi(xi).

    Requires base_g to make V perpendicular to W with xi of unit Gram norm,
    and C2 > binom(n, m) * comass(phi, base_g) / phi(xi).
    """
    n, m = phi.n, phi.m
    theta = evaluate(phi, xi)
    if theta < 1e-6:
        raise ValueError(f"phi(xi) = {theta:.3g} too close to degenerate")
    decomp = decompose(phi * (1.0 / theta), xi)
    B = decomp.basis
    gram = B.T @ base_g.matrix @ B
    cross = gram[:m, m:]
    if np.abs(cross).max() > 1e-8:
        raise ValueError("base metric does not make V perpendicular to W")
    if abs(gram_norm(xi, base_g) - 1.0) > 1e-8:
        raise ValueError("xi does not have unit Gram norm under the base metric")

    opts = comass_opts or {}
    base_comass = comass(phi, base_g, **opts).value
    threshold = math.comb(n, m) * base_comass / theta
    if C2 <= threshold:
        raise ValueError(
            f"C2 = {C2:g} must exceed binom(n,m)*comass/theta = {threshold:g}"
        )

    blocks = gram.copy()
    blocks[:m, m:] = 0.0
    blocks[m:, :m] = 0.0
    blocks[m:, m:] *= float(C2)
    Binv = np.linalg.inv(B)
    G = Binv.T @ blocks @ Binv
    return MetricTensor(0.5 * (G + G.T))


def calibration_decomposition_check(
    phi: AlternatingForm,
    xi: SimpleVector,
    g: MetricTensor,
    *,
    tol: float = 1e-8,
    comass_opts: dict | None = None,
) -> dict:
    """Rigidity of W for a calibration: lambda_i must kill every completion
    direction v_j (i <= m < j) in a g-orthonormal basis extending xi.

    A violating pair yields the probe vector with evaluation sqrt(1 + a^2) > 1,
    a certified comass violation.
    """
    n, m = phi.n, phi.m
    V = xi.matrix
    if np.abs(V.T @ g.matrix @ V - np.eye(m)).max() > 1e-8:
        raise ValueError("xi factors are not g-orthonormal")
    if abs(evaluate(phi, xi) - 1.0) > 1e-8:
        raise ValueError("phi(xi) must equal 1")
    opts = comass_opts or {}
    cm = comass(phi, g, **opts).value
    if cm > 1.0 + 1e-9:
        raise ValueError(f"phi is not a calibration: comass {cm:.9g} > 1")

    # g-orthonormal completion of the frame
    L = g.cholesky
    U = L.T @ V
    full = np.linalg.qr(
        np.column_stack([U, np.eye(n)])
    )[0][:, :n]
    comp = np.linalg.solve(L.T, full[:, m:])  # v_{m+1}, ..., v_n

    lam = _lambda_matrix(phi, V)
    vals = lam @ comp  # (m, n - m)
    bad = np.argwhere(np.abs(vals) > tol)
    if bad.size:
        i, j = int(bad[0, 0]), int(bad[0, 1])
        a = float(vals[i, j])
        mixed = V.copy()
        mixed[:, i] = (V[:, i] + a * comp[:, j]) / math.sqrt(1.0 + a * a)
        return {
            "is_rigid_W": False,
            "violating_pair": (i + 1, m + 1 + j),
            "coupling": a,
            "probe": SimpleVector.from_matrix(mixed),
            "probe_value": math.sqrt(1.0 + a * a),
        }
    return {"is_rigid_W": True, "violating_pair": None}
