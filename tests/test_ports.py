"""The CLI imports numpy and a bare scipy only; the numpy ports that make
that possible agree with the scipy routines they replace.  The null-space
and relative-spectrum ports moved to ``tests/oracles.py`` with the
decomposition and gluing machinery they serve, and are checked here still.

scipy stays the oracle here: the DOP853 tableau module, ``brentq``,
``scipy.linalg.null_space`` and ``scipy.linalg.eigh``."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate._ivp import dop853_coefficients as scipy_dop
from scipy.optimize import brentq

from conekit import lawlor
from conekit.exterior import AlternatingForm, MetricTensor, SimpleVector, evaluate
from conekit.products import SphereFactor, curvature_model, minimal_product
from oracles import _lambda_matrix, _null_space, decompose, relative_spectrum

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.linalg", "scipy.optimize", "scipy.integrate", "scipy.special",
         "scipy.sparse")


def test_cli_import_and_jobs_load_no_scipy_submodule(tmp_path):
    sphere = {"type": "sphere", "dim": 3}
    kahler = {"form": {"n": 4, "m": 2, "coefficients": {"1,2": 1.0, "3,4": 1.0}},
              "metric": {"n": 4, "matrix": np.eye(4).tolist()}}
    specs = {
        "certify-cone": ({"factors": [sphere, sphere]}, []),
        "obstruct": ({"factors": [{"type": "product_hypersurface", "dims": [1, 1],
                                   "samples": 40}, sphere]}, []),
        "replicate": ({"base": {"type": "sphere", "dim": 2}, "n_max": 4},
                      ["--control", "F"]),
        "vanishing-table": ({"ks": [6], "alphas": [1.0], "controls": ["F", "c"]}, []),
        "comass": (kahler, []),
        "glue-sweep": ({"form": kahler["form"], "metric1": kahler["metric"],
                        "metric2": kahler["metric"]}, ["--grid", "3"]),
    }
    jobs = []
    for command, (spec, extra) in specs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(spec))
        jobs.append([command, "--spec", str(path), "--out", str(tmp_path / command),
                     *extra])
    # heavy scipy submodules in sys.modules after the import, then after
    # one job of every command, in a fresh interpreter
    script = (
        "import json, sys\n"
        "def heavy():\n"
        f"    return sorted(m for m in sys.modules if m.startswith({HEAVY!r}))\n"
        "from conekit.cli import main\n"
        "after_import = heavy()\n"
        f"codes = [main(argv) for argv in {jobs!r}]\n"
        "print(json.dumps([after_import, heavy(), codes]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    after_import, after_jobs, codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(jobs)
    assert after_import == [] and after_jobs == []


def test_tableau_equals_scipy_entry_for_entry():
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(lawlor._dop, name) == getattr(scipy_dop, name)
    for name in ("A", "B", "C", "D", "E3", "E5"):
        ours, ref = getattr(lawlor._dop, name), getattr(scipy_dop, name)
        assert ours.shape == ref.shape and ours.dtype == ref.dtype
        assert np.array_equal(ours, ref), name


def _event_brackets():
    """(g, a, b, kind) of every event root the descents of the round-product
    grid locate: products of 2-4 round spheres of dimension 1..7."""
    brackets, port = [], lawlor._brentq

    def record(g, a, b):
        kind = "pinch" if "rhs" in g.__code__.co_freevars else "hit"
        brackets.append((g, a, b, kind))
        return port(g, a, b)

    mp = pytest.MonkeyPatch()
    mp.setattr(lawlor, "_brentq", record)
    try:
        for n in (2, 3, 4):
            for dims in itertools.combinations_with_replacement(range(1, 8), n):
                model = curvature_model(minimal_product([SphereFactor.round(d)
                                                         for d in dims]))
                lawlor._angle(model)
    finally:
        mp.undo()
    return brackets


def test_brent_port_equals_brentq_on_descent_events():
    brackets = _event_brackets()
    assert len(brackets) >= 200
    assert {kind for *_, kind in brackets} == {"hit", "pinch"}
    tol = lawlor._EVENT_TOL
    for g, a, b, kind in brackets:
        assert lawlor._brentq(g, a, b) == brentq(g, a, b, xtol=tol, rtol=tol), kind


def test_brent_port_equals_brentq_on_random_cubics():
    rng = np.random.default_rng(12)
    compared = 0
    while compared < 300:
        c = rng.standard_normal(4)
        a, b = np.sort(rng.uniform(-3.0, 3.0, 2)).tolist()

        def f(x, c=c):
            return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]

        if np.sign(f(a)) == np.sign(f(b)):
            continue
        tol = lawlor._EVENT_TOL
        assert lawlor._brentq(f, a, b) == brentq(f, a, b, xtol=tol, rtol=tol)
        compared += 1


def test_brent_port_failures():
    def cubic(x):
        return x ** 3 - 2.0 * x - 5.0

    with pytest.raises(ValueError, match="different signs"):
        lawlor._brentq(cubic, 3.0, 4.0)
    # bisection from 1e300 down to a sign change near 1e-20 takes about
    # a thousand halvings, far beyond the cap of 100 iterations
    def step(x):
        return -1.0 if x < 1e-20 else 1.0

    tol = lawlor._EVENT_TOL
    with pytest.raises(RuntimeError, match="converge"):
        lawlor._brentq(step, 0.0, 1e300)
    with pytest.raises(RuntimeError):
        brentq(step, 0.0, 1e300, xtol=tol, rtol=tol)
    with pytest.raises(RuntimeError, match="NaN"):
        lawlor._brentq(lambda x: float("nan") if x > 2.5 else cubic(x), 2.0, 3.0)
    assert lawlor._brentq(lambda x: x, 0.0, 1.0) == 0.0


def _projector(W):
    return W @ W.T


def test_null_space_spans_the_scipy_null_space():
    rng = np.random.default_rng(14)
    for rows, cols, rank in ((3, 7, 3), (2, 6, 1), (5, 5, 3), (4, 8, 0), (1, 4, 1)):
        A = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        ours, ref = _null_space(A), scipy.linalg.null_space(A)
        assert ours.shape == ref.shape
        np.testing.assert_allclose(_projector(ours), _projector(ref), atol=1e-12)


def test_decompose_complement_matches_scipy_null_space():
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 20:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 7))
        phi = AlternatingForm(n, m, rng.standard_normal(math.comb(n, m)))
        M = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :m]
        xi = SimpleVector.from_matrix(M)
        val = evaluate(phi, xi)
        if abs(val) < 0.1:
            continue
        phi = phi * (1.0 / val)
        W = decompose(phi, xi).W_basis
        ref = scipy.linalg.null_space(_lambda_matrix(phi, xi.matrix))
        np.testing.assert_allclose(_projector(W), _projector(ref), atol=1e-12)
        checked += 1


def test_relative_spectrum_matches_scipy_eigh():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, n))
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        g1 = MetricTensor(A @ A.T + n * np.eye(n))
        g2 = MetricTensor(B @ B.T + n * np.eye(n))
        M = rng.standard_normal((n, m))
        spec = relative_spectrum(g1, g2, SimpleVector.from_matrix(M))
        ref = scipy.linalg.eigh(M.T @ g2.matrix @ M, M.T @ g1.matrix @ M,
                                eigvals_only=True)
        np.testing.assert_allclose(np.sort(spec.eigenvalues), ref, rtol=1e-12, atol=0.0)
