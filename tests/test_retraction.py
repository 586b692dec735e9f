"""Tests for ``comass._orthonormalize``, the one retraction of the optimizer
and the sampler: a modified Gram-Schmidt pass, checked against LAPACK's QR."""

import importlib
import math

import numpy as np
import pytest

from conekit.exterior import AlternatingForm, MetricTensor, _interior_matrix

# the package attribute conekit.comass is the function, not the module
comass_mod = importlib.import_module("conekit.comass")

SHAPES = [(n, m) for n in range(1, 9) for m in range(1, n + 1)]
EPS = np.finfo(float).eps

SLAG = AlternatingForm(6, 3, {(1, 3, 5): 1.0, (1, 4, 6): -1.0,
                              (2, 3, 6): -1.0, (2, 4, 5): -1.0})


def _projector(Q):
    return Q @ Q.transpose(0, 2, 1)


def _orthogonality(Q):
    """max over the batch of |Q^T Q - I| in the Frobenius norm."""
    D = Q.transpose(0, 2, 1) @ Q - np.eye(Q.shape[2])
    return float(np.sqrt(np.einsum("rij,rij->r", D, D)).max())


def _random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return MetricTensor(A @ A.T + n * np.eye(n))


def _recording(monkeypatch):
    """Patch the retraction so every (input, output) pair is kept."""
    calls = []
    real = comass_mod._orthonormalize

    def record(U):
        Q = real(U)
        calls.append((U.copy(), Q.copy()))
        return Q

    monkeypatch.setattr(comass_mod, "_orthonormalize", record)
    return calls


@pytest.mark.parametrize("n,m", SHAPES)
def test_spans_the_qr_plane(n, m):
    rng = np.random.default_rng(40 * n + m)
    R = 64
    # frames with singular values in [1, 2], like the optimizer's trial frames
    W = np.linalg.qr(rng.standard_normal((R, n, m)))[0]
    V = np.linalg.qr(rng.standard_normal((R, m, m)))[0]
    U = (W * rng.uniform(1.0, 2.0, (R, 1, m))) @ V
    Q = comass_mod._orthonormalize(U)
    assert Q.shape == U.shape
    diff = np.abs(_projector(Q) - _projector(np.linalg.qr(U)[0])).max()
    assert diff <= 1e-14
    # Gaussian frames: the span moves by a small multiple of cond(U) eps
    U = rng.standard_normal((R, n, m))
    diff = np.abs(_projector(comass_mod._orthonormalize(U))
                  - _projector(np.linalg.qr(U)[0])).max(axis=(1, 2))
    assert np.all(diff <= 16.0 * np.linalg.cond(U) * EPS)


def test_optimizer_trial_frames_are_orthonormal(monkeypatch):
    calls = _recording(monkeypatch)
    rng = np.random.default_rng(7)
    cases = [(SLAG, _random_spd(rng, 6)),
             (AlternatingForm(7, 3, rng.standard_normal(35)), _random_spd(rng, 7)),
             (AlternatingForm(8, 4, rng.standard_normal(70)), MetricTensor.euclidean(8))]
    for phi, g in cases:
        start = len(calls)
        res = comass_mod._optimize(phi, g, restarts=32, seed=1)
        assert res.iterations == len(calls) - start - 1
        # the first call retracts the random starts; every later one a trial
        for _, Q in calls[start + 1:]:
            assert _orthogonality(Q) <= 1e-14


def test_ill_conditioned_top_degree_batches(monkeypatch):
    """The sampler's top-degree frames L^T V can be far from orthogonal;
    Gram-Schmidt then loses orthogonality in proportion, but keeps every
    column unit, so the Gram norm stays at most 1 (Hadamard)."""
    calls = _recording(monkeypatch)
    worst_cond = 0.0
    for n in range(2, 9):
        rng = np.random.default_rng(60 + n)
        phi = AlternatingForm(n, n, rng.standard_normal(1))
        g = _random_spd(rng, n)
        start = len(calls)
        comass_mod.comass_bruteforce(phi, g, 20000, seed=n)
        for U, Q in calls[start:]:
            worst_cond = max(worst_cond, float(np.linalg.cond(U).max()))
            assert _orthogonality(Q) <= 1e-9
            assert np.abs(np.linalg.norm(Q, axis=1) - 1.0).max() <= 4 * EPS
    assert worst_cond >= 1e5


@pytest.mark.parametrize("n,m", [(3, 2), (4, 4), (5, 3), (6, 2), (6, 3), (7, 6),
                                 (8, 4), (8, 8)])
def test_sampler_values_match_qr(n, m, monkeypatch):
    calls = _recording(monkeypatch)
    rng = np.random.default_rng(80 + 10 * n + m)
    phi = AlternatingForm(n, m, rng.standard_normal(math.comb(n, m)))
    g = _random_spd(rng, n)
    value = comass_mod.comass_bruteforce(phi, g, 5000, seed=3)
    first = _interior_matrix(phi.vector, n, m)
    Linv_T = np.linalg.inv(g.cholesky).T
    for U, Q in calls:
        ours = np.abs(comass_mod._eval_batch(first, Linv_T @ Q))
        ref = np.abs(comass_mod._eval_batch(first, Linv_T @ np.linalg.qr(U)[0]))
        # relative to the batch maximum: 1e-14 on well-conditioned frames,
        # and in proportion to cond(U) eps, as the span, on the rest
        diff, cond = np.abs(ours - ref) / ref.max(), np.linalg.cond(U)
        assert np.all(diff[cond <= 10.0] <= 1e-14)
        assert np.all(diff <= 8.0 * cond * EPS)
    # still a lower bound: at most the comass the optimizer reaches
    top = comass_mod._optimize(phi, g, seed=1).value
    assert value <= top * (1.0 + 1e-12)
