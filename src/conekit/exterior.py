"""Exact multilinear algebra on R^n: alternating forms, simple m-vectors,
evaluation, Gram norms, pullbacks, the Hodge star and the batched
interior-product kernel that comass runs on.

Forms with constant coefficients are stored as dense vectors over the
lexicographically ordered strictly increasing multi-indices (1-based, as is
conventional for dx_1, dx_2, ...).  All values are immutable after
construction and every operation is a pure function, so everything here is
safe to evaluate concurrently.  The wedge product and the contraction of a
form, which no job uses, are kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "AlternatingForm",
    "SimpleVector",
    "MetricTensor",
    "multi_indices",
    "evaluate",
    "gram_norm",
    "pullback",
]

ATOL = 1e-12

# Largest supported ambient dimension: coefficients are stored densely over
# all C(n, m) multi-indices, and the interior-product tables grow with them.
MAX_DIMENSION = 16


class DimensionMismatchError(ValueError):
    """Operands live in incompatible spaces (ambient dimension or degree)."""


@lru_cache(maxsize=None)
def multi_indices(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing m-tuples from {1, ..., n}, lexicographic."""
    return tuple(combinations(range(1, n + 1), m))


@lru_cache(maxsize=None)
def _index_position(n: int, m: int) -> dict[tuple[int, ...], int]:
    return {I: pos for pos, I in enumerate(multi_indices(n, m))}


@lru_cache(maxsize=None)
def _index_rows(n: int, m: int) -> np.ndarray:
    """0-based row-selection array of shape (C(n, m), m)."""
    idx = np.array(multi_indices(n, m), dtype=np.intp)
    if idx.size == 0:
        idx = idx.reshape(-1, m)
    return idx - 1


@lru_cache(maxsize=None)
def _interior_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed gather table of the interior product on degree-k forms.

    Returns (pos, sign), both of shape (n, C(n, k-1)), with
    (iota_{e_i} psi)_J = sign[i, J] * psi[pos[i, J]] for psi over the
    lexicographic multi-indices of degree k.  When i is in J, pos[i, J] is
    C(n, k), the slot of a zero padded onto psi, and sign[i, J] is 0.
    """
    position = _index_position(n, k)
    lower = multi_indices(n, k - 1)
    pos = np.full((n, len(lower)), math.comb(n, k), dtype=np.intp)
    sign = np.zeros((n, len(lower)))
    for col, J in enumerate(lower):
        for i in range(1, n + 1):
            if i not in J:
                before = sum(1 for j in J if j < i)
                pos[i - 1, col] = position[tuple(sorted(J + (i,)))]
                sign[i - 1, col] = -1.0 if before % 2 else 1.0
    pos.flags.writeable = False
    sign.flags.writeable = False
    return pos, sign


def _interior_matrix(vec: np.ndarray, n: int, k: int) -> np.ndarray:
    """(n, C(n, k-1)) matrix whose row i is iota_{e_i} psi, so that
    iota_u psi = u @ matrix for one degree-k coefficient vector psi."""
    pos, sign = _interior_table(n, k)
    return np.append(vec, 0.0)[pos] * sign


@lru_cache(maxsize=None)
def _hodge_table(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(pos, sign) with (*psi)_J = sign[J] * psi[pos[J]] for degree-m psi,
    J running over the degree-(n - m) multi-indices and pos[J] the slot of
    the complement I of J; sign[J] is the sign of the shuffle (I, J)."""
    position = _index_position(n, m)
    pos, sign = [], []
    for J in multi_indices(n, n - m):
        I = tuple(i for i in range(1, n + 1) if i not in J)
        pos.append(position[I])
        sign.append(float(_merge_sign(I, J)[1]))
    return np.array(pos, dtype=np.intp), np.array(sign)


def _hodge_star(vec: np.ndarray, n: int, m: int) -> np.ndarray:
    """Euclidean Hodge star of a degree-m coefficient vector: the degree-(n - m)
    form with (*psi)(W) = psi(U) whenever [U | W] is in SO(n)."""
    pos, sign = _hodge_table(n, m)
    return vec[pos] * sign


def _contract_batch(psi: np.ndarray, u: np.ndarray, k: int) -> np.ndarray:
    """iota_u psi row by row: psi (R, C(n, k)) and u (R, n) give (R, C(n, k-1))."""
    pos, sign = _interior_table(u.shape[1], k)
    padded = np.concatenate([psi, np.zeros((psi.shape[0], 1))], axis=1)
    gathered = padded.take(pos, axis=1)  # (R, n, C(n, k-1))
    gathered *= sign
    return (u[:, None, :] @ gathered)[:, 0]


def _contract_frames(psi: np.ndarray, U: np.ndarray, k: int) -> np.ndarray:
    """Contract the columns of frames U (R, n, r) into psi (R, C(n, k)) in
    order, u_1 first: iota_{u_r} ... iota_{u_1} psi, shape (R, C(n, k-r))."""
    for c in range(U.shape[2]):
        psi = _contract_batch(psi, U[:, :, c], k - c)
    return psi


def _as_key(I) -> tuple[int, ...]:
    return tuple(int(i) for i in I)


class AlternatingForm:
    """Degree-m alternating form on R^n with constant coefficients.

    ``coeffs`` maps strictly increasing multi-indices to reals, or is the
    dense coefficient vector; evaluation on standard basis vectors
    e_{i_1}, ..., e_{i_m} returns the coefficient of (i_1, ..., i_m).
    Ambient dimensions beyond MAX_DIMENSION are rejected.
    """

    def __init__(self, n: int, m: int, coeffs=None):
        n, m = int(n), int(m)
        if not 0 <= m <= n:
            raise DimensionMismatchError(f"degree m={m} outside [0, n={n}]")
        if n > MAX_DIMENSION:
            raise DimensionMismatchError(
                f"ambient dimension n={n} exceeds the supported maximum {MAX_DIMENSION}"
            )
        self._n = n
        self._m = m
        vec = np.zeros(math.comb(n, m))
        if coeffs is not None:
            if isinstance(coeffs, np.ndarray):
                if coeffs.shape != vec.shape:
                    raise DimensionMismatchError(
                        f"coefficient vector has shape {coeffs.shape}, "
                        f"expected {vec.shape}"
                    )
                vec = coeffs.astype(float).copy()
            else:
                pos = _index_position(n, m)
                for I, c in dict(coeffs).items():
                    vec[pos[self._check_key(I)]] = float(c)
        vec.flags.writeable = False
        self._vec = vec

    def _check_key(self, I) -> tuple[int, ...]:
        key = _as_key(I)
        if len(key) != self._m:
            raise DimensionMismatchError(f"index {key} has degree != {self._m}")
        if any(a >= b for a, b in zip(key, key[1:])) or (
            key and (key[0] < 1 or key[-1] > self._n)
        ):
            raise ValueError(f"bad multi-index {key} for n={self._n}")
        return key

    @classmethod
    def basis(cls, n: int, indices) -> "AlternatingForm":
        """dx_{i_1} ^ ... ^ dx_{i_m} for a strictly increasing index list."""
        key = _as_key(indices)
        return cls(n, len(key), {key: 1.0})

    @classmethod
    def from_vector(cls, n: int, m: int, vector: np.ndarray) -> "AlternatingForm":
        return cls(n, m, np.asarray(vector, dtype=float))

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    @property
    def vector(self) -> np.ndarray:
        """Dense coefficient vector over lexicographic multi-indices."""
        return self._vec

    @property
    def coeffs(self) -> dict[tuple[int, ...], float]:
        idx = multi_indices(self._n, self._m)
        return {I: c for I, c in zip(idx, self._vec) if c != 0.0}

    def coeff(self, I) -> float:
        key = self._check_key(I)
        return float(self._vec[_index_position(self._n, self._m)[key]])

    def is_zero(self, atol: float = ATOL) -> bool:
        return bool(np.all(np.abs(self._vec) <= atol))

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector (not the comass)."""
        return float(np.linalg.norm(self._vec))

    def _binary_check(self, other: "AlternatingForm"):
        if not isinstance(other, AlternatingForm):
            raise TypeError(f"expected AlternatingForm, got {type(other)!r}")
        if other.n != self._n or other.m != self._m:
            raise DimensionMismatchError(
                f"cannot combine forms of type ({self._n},{self._m}) "
                f"and ({other.n},{other.m})"
            )

    def __add__(self, other):
        self._binary_check(other)
        return AlternatingForm(self._n, self._m, self._vec + other.vector)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self * (-1.0)

    def __mul__(self, scalar):
        return AlternatingForm(self._n, self._m, self._vec * float(scalar))

    __rmul__ = __mul__

    def allclose(self, other: "AlternatingForm", atol: float = ATOL) -> bool:
        self._binary_check(other)
        return bool(np.allclose(self.vector, other.vector, rtol=0.0, atol=atol))

    def __repr__(self):
        terms = [f"{c:+g}*dx{list(I)}" for I, c in sorted(self.coeffs.items())]
        body = " ".join(terms) if terms else "0"
        return f"AlternatingForm(n={self._n}, m={self._m}: {body})"


class SimpleVector:
    """An ordered list of m vectors in R^n representing v_1 ^ ... ^ v_m."""

    def __init__(self, factors):
        facs = [np.asarray(v, dtype=float).reshape(-1) for v in factors]
        if not facs:
            raise ValueError("SimpleVector needs at least one factor")
        n = facs[0].size
        if any(v.size != n for v in facs):
            raise DimensionMismatchError("factors live in different dimensions")
        if len(facs) > n:
            raise DimensionMismatchError(
                f"{len(facs)} factors cannot be independent in R^{n}"
            )
        mat = np.column_stack(facs)
        mat.flags.writeable = False
        self._mat = mat

    @classmethod
    def basis(cls, n: int, indices) -> "SimpleVector":
        """e_{i_1} ^ ... ^ e_{i_m} for 1-based indices."""
        eye = np.eye(int(n))
        return cls([eye[int(i) - 1] for i in _as_key(indices)])

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "SimpleVector":
        """Columns of ``matrix`` are the ordered factors."""
        mat = np.asarray(matrix, dtype=float)
        return cls([mat[:, j] for j in range(mat.shape[1])])

    @property
    def n(self) -> int:
        return self._mat.shape[0]

    @property
    def m(self) -> int:
        return self._mat.shape[1]

    @property
    def factors(self) -> list[np.ndarray]:
        return [self._mat[:, j] for j in range(self.m)]

    @property
    def matrix(self) -> np.ndarray:
        """n x m matrix whose columns are the factors."""
        return self._mat

    def __repr__(self):
        return f"SimpleVector(n={self.n}, m={self.m})"


class MetricTensor:
    """Symmetric positive-definite bilinear form on R^n."""

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(f"metric matrix must be square, got {mat.shape}")
        if not np.allclose(mat, mat.T, rtol=0.0, atol=ATOL):
            raise ValueError("metric matrix is not symmetric to 1e-12")
        with np.errstate(over="ignore"):  # reported as the ValueError below
            mat = 0.5 * (mat + mat.T)
        if not np.isfinite(mat).all():
            raise ValueError("metric matrix entries must be finite, also when doubled")
        eigvals = np.linalg.eigvalsh(mat)
        if eigvals[0] <= 0.0:
            raise ValueError(
                f"metric is not positive definite (min eigenvalue {eigvals[0]:g})"
            )
        mat.flags.writeable = False
        self._mat = mat
        self._chol = None

    @classmethod
    def euclidean(cls, n: int) -> "MetricTensor":
        return cls(np.eye(int(n)))

    @classmethod
    def diagonal(cls, diag) -> "MetricTensor":
        return cls(np.diag(np.asarray(diag, dtype=float)))

    @property
    def n(self) -> int:
        return self._mat.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._mat

    @property
    def cholesky(self) -> np.ndarray:
        """Lower-triangular L with g = L L^T."""
        if self._chol is None:
            self._chol = np.linalg.cholesky(self._mat)
            self._chol.flags.writeable = False
        return self._chol

    def inner(self, u, v) -> float:
        return float(np.asarray(u) @ self._mat @ np.asarray(v))

    def __repr__(self):
        return f"MetricTensor(n={self.n})"


# ---------------------------------------------------------------------------
# operations


def _merge_sign(I: tuple[int, ...], J: tuple[int, ...]):
    """Merge two disjoint increasing tuples; return (merged, shuffle sign).

    Returns (None, 0) when the tuples share an index.
    """
    merged = []
    inversions = 0
    i = j = 0
    while i < len(I) and j < len(J):
        if I[i] == J[j]:
            return None, 0
        if I[i] < J[j]:
            merged.append(I[i])
            i += 1
        else:
            merged.append(J[j])
            inversions += len(I) - i
            j += 1
    merged.extend(I[i:])
    merged.extend(J[j:])
    return tuple(merged), (-1 if inversions % 2 else 1)


def evaluate(phi: AlternatingForm, Q: SimpleVector) -> float:
    """phi(v_1, ..., v_m), the determinant expansion against the factors."""
    if phi.n != Q.n:
        raise DimensionMismatchError(f"ambient dimensions differ: {phi.n} vs {Q.n}")
    if phi.m != Q.m:
        raise DimensionMismatchError(f"degrees differ: form {phi.m}, vector {Q.m}")
    if phi.m == 0:
        return phi.coeff(())
    rows = _index_rows(phi.n, phi.m)
    minors = Q.matrix[rows, :]  # (C, m, m)
    return float(np.linalg.det(minors) @ phi.vector)


def gram_norm(Q: SimpleVector, g: MetricTensor) -> float:
    """sqrt of the Gram determinant det[g(v_i, v_j)]; the mass norm of Q."""
    if Q.n != g.n:
        raise DimensionMismatchError(f"ambient dimensions differ: {Q.n} vs {g.n}")
    gram = Q.matrix.T @ g.matrix @ Q.matrix
    det = np.linalg.det(gram)
    return math.sqrt(max(det, 0.0))


def pullback(A: np.ndarray, phi: AlternatingForm) -> AlternatingForm:
    """(A^* phi)(v_1, ..., v_m) = phi(A v_1, ..., A v_m) for A: R^k -> R^n."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != phi.n:
        raise DimensionMismatchError(
            f"map must be {phi.n} x k matrix, got shape {A.shape}"
        )
    k = A.shape[1]
    if phi.m > k:
        raise DimensionMismatchError(
            f"cannot pull a degree-{phi.m} form back to R^{k}"
        )
    m = phi.m
    if m == 0:
        return AlternatingForm.from_vector(k, 0, phi.vector)
    # coefficient J is phi evaluated on the frame (A e_j for j in J)
    frames = A[:, _index_rows(k, m)].transpose(1, 0, 2)  # (C(k, m), n, m)
    psi = frames[:, :, 0] @ _interior_matrix(phi.vector, phi.n, m)
    out = _contract_frames(psi, frames[:, :, 1:], m - 1)[:, 0]
    return AlternatingForm.from_vector(k, m, out)
