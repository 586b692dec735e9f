"""Comass computation for constant-coefficient forms under an SPD metric.

``comass`` is the one entry point.  In whitened coordinates (the form
pulled back by L^{-T}, g = L L^T) the comass is the maximum of |psi(U)| over
orthonormal m-frames U.  Degrees 1 and 2 have closed forms: the covector
norm, and the top singular pair of the skew matrix.  The Hodge star maps
unit simple m-vectors to unit simple (n-m)-vectors, so the comass is
Hodge-dual invariant (Federer, Geometric Measure Theory, 1.8) and degrees
n-2, n-1 and n take the same closed forms on *psi.  Every other degree runs
multi-restart projected ascent over ordered m-frames; a restart stops, and
leaves the batch, once its Riemannian gradient on the Stiefel manifold is
small (Absil, Mahony and Sepulchre, Optimization Algorithms on Matrix
Manifolds, 2008).  Restarts are vectorized and merged by max,
deterministic for a fixed seed.

Every frame evaluation and gradient goes through one batched interior-product kernel from ``exterior``:
phi(u_1, ..., u_m) = iota_{u_m} ... iota_{u_1} phi, where each iota is a
gather through a signed index table plus a batched mat-vec, so memory stays
O(R n C(n, m-1)) for R frames.

The random-search lower bound, the canonical decomposition along a
calibrated plane and the adapted metrics, which no job reports, are kept
in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exterior import (
    AlternatingForm,
    MetricTensor,
    SimpleVector,
    _contract_frames,
    _hodge_star,
    _interior_matrix,
    pullback,
)

__all__ = ["ComassResult", "comass"]


@dataclass(frozen=True)
class ComassResult:
    """``method`` is "exact" (closed form) or "optimizer".  ``iterations``
    counts ascent steps.  ``converged`` describes the returned restart: it
    is False when that restart ran out of ``max_iters`` before meeting the
    gradient stop.  ``restarts_at_max`` counts the restarts, returned or
    not, that did so.  ``residual`` is the relative Riemannian gradient norm
    |grad f| / |f| at the returned frame, 0.0 on the exact path."""

    value: float
    maximizer: SimpleVector
    method: str
    restarts_used: int
    iterations: int
    converged: bool
    residual: float
    restarts_at_max: int = 0


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
    """Orthonormal frames with the column spans of the frames U (R, n, m):
    one modified Gram-Schmidt pass, vectorized over the batch.

    Orthogonality is lost only in proportion to cond(U) eps (Bjorck, BIT 7,
    1967), but every column leaves the pass unit, so by Hadamard's
    inequality a frame's Gram norm, and |phi| of it over the comass, is at
    most 1 up to rounding.
    """
    Q = U.transpose(2, 0, 1).copy()  # column-major frames: Q[a] is column a
    for a, q in enumerate(Q):
        q /= np.sqrt(np.einsum("rn,rn->r", q, q))[:, None]
        rest = Q[a + 1:]
        rest -= np.einsum("rn,krn->kr", q, rest)[:, :, None] * q
    return Q.transpose(1, 2, 0)


def _orient(U: np.ndarray, G: np.ndarray) -> np.ndarray:
    """phi(U) = u_1 . G_1 for frames U with gradient G (phi is linear in
    u_1); where it is negative, flip u_1 in place, which negates the gradient
    in the other columns, and return |phi(U)|."""
    f = np.einsum("rn,rn->r", U[:, :, 0], G[:, :, 0])
    neg = f < 0.0
    if neg.any():
        U[neg, :, 0] *= -1.0
        G[neg, :, 1:] *= -1.0
        f = np.abs(f)
    return f


def _frob(X: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a batch."""
    return np.sqrt(np.einsum("rij,rij->r", X, X))


def _whitened_vector(phi: AlternatingForm, g: MetricTensor) -> np.ndarray:
    """Coefficients of phi pulled back by L^{-T}, so Euclidean frames suffice."""
    Linv_T = np.linalg.inv(g.cholesky).T
    return pullback(Linv_T, phi).vector


def _check_pair(phi: AlternatingForm, g: MetricTensor):
    if phi.n != g.n:
        raise ValueError(f"form on R^{phi.n} but metric on R^{g.n}")
    if phi.m == 0:
        raise ValueError("comass is defined for forms of degree at least 1")


def _check_options(restarts, max_iters, tol, warm_starts):
    """Reject optimizer options before any work: a negative or fractional
    count, no start at all, or a ``tol`` that is not a positive number."""
    for name, count in (("restarts", restarts), ("max_iters", max_iters)):
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
            raise ValueError(f"{name} must be an integer >= 0, got {count!r}")
    if restarts + (len(warm_starts) if warm_starts else 0) < 1:
        raise ValueError("the optimizer needs at least one restart or warm start")
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")


def comass(
    phi: AlternatingForm,
    g: MetricTensor,
    *,
    restarts: int = 32,
    max_iters: int = 400,
    tol: float = 1e-6,
    seed: int = 0,
    warm_starts=None,
) -> ComassResult:
    """max |phi(Q)| over simple m-vectors Q with unit Gram norm under g.

    Degrees 1, 2, n-2, n-1 and n take the closed form (``method="exact"``,
    no restarts or iterations, and the optimizer options are checked but not
    used); every other degree runs ``_optimize`` with the options given here.
    """
    _check_pair(phi, g)
    _check_options(restarts, max_iters, tol, warm_starts)
    if phi.is_zero():
        raise ValueError("comass of the zero form is degenerate; refusing")
    exact = _exact(phi, g)
    if exact is not None:
        return exact
    return _optimize(phi, g, restarts=restarts, max_iters=max_iters, tol=tol,
                     seed=seed, warm_starts=warm_starts)


def _closed_form(chi: np.ndarray, n: int, d: int) -> tuple[float, np.ndarray]:
    """Euclidean comass of a degree-d form, d <= 2, and an orthonormal
    n x d frame W with chi(W) = comass (up to sign when d = 0)."""
    if d == 0:
        return abs(float(chi[0])), np.zeros((n, 0))
    if d == 1:
        norm = float(np.linalg.norm(chi))
        return norm, (chi / norm)[:, None]
    B = _interior_matrix(chi, n, 2)  # chi(x, y) = x^T B y
    u, s, vt = np.linalg.svd(B)
    # B v = s u and v^T B v = 0 make u and v orthonormal with chi(u, v) = s
    return float(s[0]), np.column_stack([u[:, 0], vt[0]])


def _exact_frame(w: np.ndarray, n: int, m: int, hodge: bool):
    """Comass of the Euclidean degree-m form w and an orthonormal n x m
    frame U with w(U) = comass: directly for m <= 2, or through the Hodge
    star for n - m <= 2, U then being the complement of the maximizer of *w
    oriented so that w(U) > 0."""
    d = n - m if hodge else m
    value, W = _closed_form(_hodge_star(w, n, m) if hodge else w, n, d)
    # the complement of W is spanned by the last n - d columns of a full QR
    U = np.linalg.qr(W, mode="complete")[0][:, d:] if hodge else W
    if _eval_batch(_interior_matrix(w, n, m), U[None])[0] < 0.0:
        U[:, 0] *= -1.0
    return value, U


def _exact(phi: AlternatingForm, g: MetricTensor) -> ComassResult | None:
    """The closed-form comass for m in {1, 2, n-2, n-1, n}, else None."""
    n, m = phi.n, phi.m
    if m > 2 and n - m > 2:
        return None
    value, U = _exact_frame(_whitened_vector(phi, g), n, m, hodge=m > 2)
    return ComassResult(
        value=value,
        maximizer=SimpleVector.from_matrix(np.linalg.solve(g.cholesky.T, U)),
        method="exact",
        restarts_used=0,
        iterations=0,
        converged=True,
        residual=0.0,
    )


def _optimize(
    phi: AlternatingForm,
    g: MetricTensor,
    *,
    restarts: int = 32,
    max_iters: int = 400,
    tol: float = 1e-6,
    seed: int = 0,
    warm_starts=None,
) -> ComassResult:
    """Multi-restart projected ascent on orthonormal m-frames in whitened
    coordinates, for any degree.

    Each restart steps along the Euclidean gradient G, retracted by
    ``_orthonormalize``: f is alternating, so any orthonormal basis of the
    stepped plane gives the same iterate.  Its step grows by 1.5 after an
    improvement and halves otherwise.  A restart is frozen once its Riemannian gradient G - U sym(U^T G) has norm
    at most ``tol`` |f|; f is linear in each column and alternating, so
    U^T G = f I and that gradient is G - f U.  At the default ``tol`` the
    value is within about 1e-12 relative of the maximum the restart climbs
    to.  Rounding keeps the residual above about 5e-8, so a smaller ``tol``
    runs every restart to ``max_iters`` and returns ``converged=False``.
    ``warm_starts`` takes n x m factor matrices (in original coordinates)
    with independent columns, appended to the random restarts.  Bad options
    raise ValueError before any work (``_check_options``).
    """
    _check_options(restarts, max_iters, tol, warm_starts)
    n, m = phi.n, phi.m
    first = _interior_matrix(_whitened_vector(phi, g), n, m)
    rng = np.random.default_rng(seed)

    starts = [rng.standard_normal((restarts, n, m))] if restarts > 0 else []
    LT = g.cholesky.T
    if warm_starts:
        warm = np.stack([LT @ np.asarray(V, dtype=float) for V in warm_starts])
        starts.append(warm)
    with np.errstate(invalid="ignore"):  # 0/0 marks a dependent warm start
        U = _orthonormalize(np.concatenate(starts, axis=0))
    if not np.isfinite(U).all():
        raise ValueError("a warm start has linearly dependent columns")
    R = U.shape[0]
    # the gradient at a frame also gives its value, so one gradient call per
    # iteration suffices, and a taken step keeps its trial gradient
    G = _grad_batch(first, U)
    f = _orient(U, G)
    step = np.full(R, 0.5)
    # frozen restarts move to the final arrays; the working arrays hold
    # only the restarts still running, listed by their indices in ``active``
    final_U, final_f, residual = np.empty_like(U), np.empty(R), np.empty(R)
    active = np.arange(R)
    iterations = 0
    while True:
        rnorm = _frob(G - f[:, None, None] * U)
        residual[active] = rnorm / f
        running = rnorm > tol * f
        if not running.all():
            done = ~running
            final_U[active[done]], final_f[active[done]] = U[done], f[done]
            active, U, G, f, step = (x[running] for x in (active, U, G, f, step))
        if active.size == 0 or iterations == max_iters:
            break
        iterations += 1
        gnorm = _frob(G)
        gnorm[gnorm == 0.0] = 1.0
        # U^T G = f I and step <= 1 put the stepped frame's singular values
        # in [1, 2], so one Gram-Schmidt pass leaves it orthonormal
        trial = _orthonormalize(U + (step / gnorm)[:, None, None] * G)
        trial_G = _grad_batch(first, trial)
        trial_f = _orient(trial, trial_G)
        better = trial_f > f
        if better.all():
            U, G, f = trial, trial_G, trial_f
        else:
            U[better], G[better], f[better] = trial[better], trial_G[better], trial_f[better]
        step = np.minimum(np.where(better, 1.5 * step, 0.5 * step), 1.0)
    final_U[active], final_f[active] = U, f

    best = int(np.argmax(final_f))
    at_max = np.zeros(R, dtype=bool)
    at_max[active] = True
    V_best = np.linalg.solve(LT, final_U[best])  # g-orthonormal columns
    return ComassResult(
        value=float(final_f[best]),
        maximizer=SimpleVector.from_matrix(V_best),
        method="optimizer",
        restarts_used=R,
        iterations=iterations,
        converged=not at_max[best],
        residual=float(residual[best]),
        restarts_at_max=int(active.size),
    )
