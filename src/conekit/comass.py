"""Comass computation for constant-coefficient forms under an SPD metric.

``comass`` is the one entry point.  In whitened coordinates (the form
pulled back by L^{-T}, g = L L^T) the comass is the maximum of |psi(U)| over
orthonormal m-frames U.  Degrees 1 and 2 have closed forms: the covector
norm, and the top singular pair of the skew matrix.  The Hodge star maps
unit simple m-vectors to unit simple (n-m)-vectors, so the comass is
Hodge-dual invariant (Federer, Geometric Measure Theory, 1.8) and degrees
n-2, n-1 and n take the same closed forms on *psi.  Two families are
recognized instead of searched: a 3-form on R^6 of special Lagrangian type
(Hitchin, J. Differential Geom. 55, 2000) and a 4-form on R^8 of Cayley
type (Harvey and Lawson, Calibrated geometries, Acta Math. 148, 1982, IV),
each c times a calibration in an orthonormal frame the form itself
defines.  Every other form runs
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
from functools import cache

import numpy as np

from .exterior import (
    AlternatingForm,
    MetricTensor,
    SimpleVector,
    _contract_frames,
    _hodge_star,
    _index_position,
    _interior_matrix,
    _merge_sign,
    multi_indices,
    pullback,
)

__all__ = ["ComassResult", "comass"]


@dataclass(frozen=True)
class ComassResult:
    """``method`` is "exact" (closed form), "recognized" (c times a special
    Lagrangian or Cayley calibration in an orthonormal frame; ``residual``
    then bounds |comass - value|) or "optimizer".  ``iterations``
    counts ascent steps.  ``converged`` describes the returned restart: it
    is False when that restart ran out of ``max_iters`` before meeting the
    gradient stop.  ``restarts_at_max`` counts the restarts, returned or
    not, that did so.  ``residual`` is the relative Riemannian gradient norm
    |grad f| / |f| at the returned frame on the optimizer path, 0.0 on the
    exact path."""

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
    used).  A (6,3) or (8,4) form that ``_recognize`` certifies takes its
    value (``method="recognized"``, options likewise unused); every other
    form runs ``_optimize`` with the options given here.
    """
    _check_pair(phi, g)
    _check_options(restarts, max_iters, tol, warm_starts)
    if phi.is_zero():
        raise ValueError("comass of the zero form is degenerate; refusing")
    exact = _exact(phi, g)
    if exact is not None:
        return exact
    recognized = _recognize(phi, g)
    if recognized is not None:
        return recognized
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
    return _frame_result(value, U, g, "exact", 0.0)


def _frame_result(value: float, U: np.ndarray, g: MetricTensor, method: str,
                  residual: float) -> ComassResult:
    """The result of a path without restarts, whose maximizer is the
    whitened orthonormal frame U mapped back through the metric."""
    return ComassResult(
        value=value,
        maximizer=SimpleVector.from_matrix(np.linalg.solve(g.cholesky.T, U)),
        method=method,
        restarts_used=0,
        iterations=0,
        converged=True,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# recognition: special Lagrangian (6,3) and Cayley (8,4) forms

# a recognized value is kept only when its residual is at most this times it
RECOGNITION_TOL = 1e-12

# Re and Im of Omega_0 = (dx_1 + i dx_4) ^ (dx_2 + i dx_5) ^ (dx_3 + i dx_6)
# on R^6, and the Cayley form e_1 ^ phi + *phi on R^8, phi the associative
# form on span(e_2, ..., e_8)
_RE_OMEGA = {(1, 2, 3): 1, (1, 5, 6): -1, (2, 4, 6): 1, (3, 4, 5): -1}
_IM_OMEGA = {(1, 2, 6): 1, (1, 3, 5): -1, (2, 3, 4): 1, (4, 5, 6): -1}
_CAYLEY = {(1, 2, 3, 4): 1, (1, 2, 5, 6): 1, (1, 2, 7, 8): 1, (1, 3, 5, 7): 1,
           (1, 3, 6, 8): -1, (1, 4, 5, 8): -1, (1, 4, 6, 7): -1, (5, 6, 7, 8): 1,
           (3, 4, 7, 8): 1, (3, 4, 5, 6): 1, (2, 4, 6, 8): 1, (2, 4, 5, 7): -1,
           (2, 3, 6, 7): -1, (2, 3, 5, 8): -1}
# Hitchin's invariant tr(K^2) / 6 of Re Omega_0, whose K is twice the complex
# structure e_j -> e_{j+3}
_LAMBDA_SL = -4.0


@cache
def _models() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient vectors of Re Omega_0, Im Omega_0 and the Cayley form."""
    return tuple(AlternatingForm(n, m, terms).vector for n, m, terms in
                 ((6, 3, _RE_OMEGA), (6, 3, _IM_OMEGA), (8, 4, _CAYLEY)))


@cache
def _hitchin_table() -> tuple[np.ndarray, np.ndarray]:
    """(pos, sign) with K_rho = (padded rho[pos] * sign) @ I^T for a 3-form
    rho on R^6 and I = ``_interior_matrix(rho, 6, 3)``.

    K_rho(v) is iota_v rho ^ rho read through the volume form,
    iota_v rho ^ rho = iota_{K v} vol.  Entry (j, A), A a 2-index, carries
    (-1)^j times the shuffle sign of (A, B) and the slot of rho_B, B the
    3-index completing A to the complement of j; it is zero when j is in A.
    """
    position = _index_position(6, 3)
    pairs = multi_indices(6, 2)
    pos = np.full((6, len(pairs)), len(position), dtype=np.intp)
    sign = np.zeros((6, len(pairs)))
    for j in range(1, 7):
        for col, A in enumerate(pairs):
            if j not in A:
                B = tuple(i for i in range(1, 7) if i != j and i not in A)
                pos[j - 1, col] = position[B]
                sign[j - 1, col] = (-1) ** (j - 1) * _merge_sign(A, B)[1]
    pos.flags.writeable = False
    sign.flags.writeable = False
    return pos, sign


def _hitchin_k(rho: np.ndarray) -> np.ndarray:
    """Hitchin's K_rho of a 3-form on R^6, a 6 x 6 matrix."""
    pos, sign = _hitchin_table()
    return np.append(rho, 0.0)[pos] * sign @ _interior_matrix(rho, 6, 3).T


def _complete(F: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to the orthonormal columns of F: the
    longest column of I - F F^T, normalized."""
    P = np.eye(F.shape[0]) - F @ F.T
    norms = np.sqrt(np.einsum("ij,ij->j", P, P))
    k = int(np.argmax(norms))
    return P[:, k] / norms[k]


def _special_lagrangian(psi: np.ndarray):
    """(c, F, defect, U) for a whitened 3-form psi on R^6 with Hitchin
    invariant lambda < 0, else None.  J = K / sqrt(-lambda) is then a complex
    structure with psi the real part of a (3,0)-form; F = [e_1 e_2 e_3 J e_1
    J e_2 J e_3] is built by complex Gram-Schmidt, c = (lambda /
    ``_LAMBDA_SL``)^(1/4), defect = F^* psi - c Re(e^{i theta} Omega_0) with theta
    read from F^* psi, and U is the frame that calibration calibrates."""
    K = _hitchin_k(psi)
    lam = float(np.trace(K @ K)) / 6.0
    if not lam < 0.0:
        return None
    J = K / math.sqrt(-lam)
    E = np.eye(6)[:, :1]
    for _ in range(2):
        E = np.column_stack([E, _complete(np.hstack([E, J @ E]))])
    F = np.hstack([E, J @ E])
    c = (lam / _LAMBDA_SL) ** 0.25
    re, im = _models()[:2]
    pulled = pullback(F, AlternatingForm.from_vector(6, 3, psi)).vector
    position = _index_position(6, 3)
    theta = math.atan2(pulled[position[(4, 5, 6)]], pulled[position[(1, 2, 3)]])
    model = c * (math.cos(theta) * re - math.sin(theta) * im)
    # (e^{-i theta} e_1, e_2, e_3) is calibrated by Re(e^{i theta} Omega_0)
    U = np.column_stack([math.cos(theta) * F[:, 0] - math.sin(theta) * F[:, 3],
                         F[:, 1], F[:, 2]])
    return c, F, pulled - model, U


def _cayley(psi: np.ndarray):
    """(c, F, defect, U) for a whitened 4-form psi on R^8, read as
    c = |psi|_2 / sqrt(14) times a Cayley form: phi' = iota_{f_0} psi / c is
    then an associative 3-form on f_0^perp, and its cross product
    phi'(u, v, .) builds the frame f_0 ... f_7 in which the Cayley form is
    ``_CAYLEY`` (the plane f_0 ... f_3 is calibrated)."""
    c = float(np.linalg.norm(psi)) / math.sqrt(14.0)
    cross3 = _interior_matrix(psi, 8, 4)[0] / c  # phi' with f_0 = e_1

    def cross(pairs):
        U = np.stack([np.column_stack(pair) for pair in pairs])
        return _contract_frames(np.broadcast_to(cross3, (len(pairs), 56)), U, 3)

    f = list(np.eye(8)[:3])
    f.append(cross([(f[1], f[2])])[0])
    f.append(_complete(np.column_stack(f)))
    f5, f6, f7 = cross([(f[1], f[4]), (f[2], f[4]), (f[3], f[4])])
    F = np.column_stack(f + [f5, f6, -f7])
    pulled = pullback(F, AlternatingForm.from_vector(8, 4, psi)).vector
    return c, F, pulled - c * _models()[2], F[:, :4]


def _recognize(phi: AlternatingForm, g: MetricTensor) -> ComassResult | None:
    """The comass of a (6,3) form of special Lagrangian type or an (8,4)
    form of Cayley type, else None.

    Each test builds, from the whitened form psi, an orthonormal-up-to-
    rounding frame F and a value c with F^* psi = c phi_0 + D, phi_0 a
    calibration, so comass(F^* psi) is within |D|_2 of c: comass is at
    most the coefficient 2-norm.  With d = |F^T F - I|_F < 1 the singular
    values of F lie in [sqrt(1 - d), sqrt(1 + d)], so comass(psi) lies
    between (c - |D|_2)(1 + d)^(-m/2) and (c + |D|_2)(1 - d)^(-m/2), and
    |comass(psi) - c| <= (c + |D|_2)(1 - d)^(-m/2) - c, the ``residual``.
    The result is kept only when that is at most ``RECOGNITION_TOL`` c.
    """
    n, m = phi.n, phi.m
    test = {(6, 3): _special_lagrangian, (8, 4): _cayley}.get((n, m))
    if test is None:
        return None
    with np.errstate(all="ignore"):  # a form of another type may give 0/0
        found = test(_whitened_vector(phi, g))
        if found is None:
            return None
        c, F, defect, U = found
        d = float(np.linalg.norm(F.T @ F - np.eye(n)))
        if not (c > 0.0 and d < 1.0):
            return None
        bound = (c + float(np.linalg.norm(defect))) / (1.0 - d) ** (m / 2) - c
    if not bound <= RECOGNITION_TOL * c:
        return None
    return _frame_result(c, U, g, "recognized", bound)


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

    # the lowest-index restart within 1e-12 relative of the maximum, the
    # accuracy of the gradient stop, so that restarts frozen within rounding
    # of each other do not trade places when the rounding changes
    best = int(np.argmax(final_f >= (1.0 - 1e-12) * final_f.max()))
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
