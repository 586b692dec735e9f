"""Seeded job lists for the three workloads, with the reference each job's
output is checked against.

A job list is a number of cycles.  Every cycle has the same composition
(the same count of each job kind), so the total work of a run hardly
depends on the seed, and the first c cycles of a list are a balanced run on
their own.  The seed picks the products, sample counts, linear maps,
stabiliser elements and CLI seeds, and shuffles the jobs within each cycle.

References are exact: comass values follow from pulling a calibration back
by a linear map A and measuring under A^T A, and the curvature bound of a
product of round spheres is sqrt(k).  The few verdict anchors are the
paper's: S3 x S3 passes, S1 x S1 is inconclusive, twelve circles are the
first passing replication under the F control.

Everything here is numpy only; the program under test sees nothing but the
spec files written from these records.
"""

import itertools
import json

import numpy as np

WORKLOADS = ("certify", "replicate", "glue")

# Seconds one cycle takes on the 2-CPU reference machine; a run of
# --seconds s holds round(s / CYCLE_SECONDS) cycles, at least one.
CYCLE_SECONDS = {"certify": 4.0, "replicate": 4.3, "glue": 9.7}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, int(round(seconds / CYCLE_SECONDS[workload])))


# ---------------------------------------------------------------------------
# exact exterior algebra for building calibrations (indices 1-based, sorted)


def _sorted_sign(idx):
    """Sort a tuple of distinct indices; return (sorted tuple, permutation
    sign), or (None, 0) when an index repeats."""
    if len(set(idx)) != len(idx):
        return None, 0
    inversions = sum(
        1 for a, b in itertools.combinations(range(len(idx)), 2) if idx[a] > idx[b]
    )
    return tuple(sorted(idx)), (-1 if inversions % 2 else 1)


def _product_of_covectors(covectors):
    """Expand the wedge of 1-forms given as {index: coefficient} dicts."""
    out = {}
    for choice in itertools.product(*(c.items() for c in covectors)):
        key, sign = _sorted_sign(tuple(i for i, _ in choice))
        if key is None:
            continue
        coeff = sign * np.prod([c for _, c in choice])
        out[key] = out.get(key, 0) + coeff
    return out


def kaehler(p: int) -> dict:
    """sum_j dx_j ^ dy_j on R^{2p}, coordinates (x_1..x_p, y_1..y_p)."""
    return {(j, p + j): 1.0 for j in range(1, p + 1)}


def special_lagrangian() -> dict:
    """Re(dz_1 ^ dz_2 ^ dz_3) on R^6, coordinates (x_1..x_3, y_1..y_3)."""
    dz = [{j: 1.0, 3 + j: 1j} for j in range(1, 4)]
    return {
        I: float(c.real)
        for I, c in _product_of_covectors(dz).items()
        if abs(c.real) > 0.5
    }


def cayley() -> dict:
    """Cayley 4-form e0 ^ phi + *phi on R^8 = R + R^7 (e0 is coordinate 1)."""
    phi = {(1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1, (2, 4, 6): 1,
           (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1}
    psi = {(4, 5, 6, 7): 1, (2, 3, 6, 7): 1, (2, 3, 4, 5): 1, (1, 3, 5, 7): 1,
           (1, 3, 4, 6): -1, (1, 2, 5, 6): -1, (1, 2, 4, 7): -1}
    out = {(1,) + tuple(i + 1 for i in I): float(c) for I, c in phi.items()}
    out.update({tuple(i + 1 for i in I): float(c) for I, c in psi.items()})
    return out


def pullback(A: np.ndarray, form: dict, m: int) -> dict:
    """(A^* phi)_I = sum_J phi_J det A[J, I] for A: R^n -> R^n."""
    n = A.shape[0]
    out = {}
    for I in itertools.combinations(range(1, n + 1), m):
        cols = [i - 1 for i in I]
        val = sum(
            c * np.linalg.det(A[np.ix_([j - 1 for j in J], cols)])
            for J, c in form.items()
        )
        out[I] = float(val)
    return out


def _close(a: dict, b: dict, tol: float = 1e-10) -> bool:
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in set(a) | set(b))


# ---------------------------------------------------------------------------
# random linear maps and stabiliser elements


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _well_conditioned(rng, n, spread=0.5):
    """Q1 diag(e^u) Q2 with u uniform in [-spread, spread]."""
    u = rng.uniform(-spread, spread, n)
    return _orthogonal(rng, n) @ np.diag(np.exp(u)) @ _orthogonal(rng, n)


def _symplectic(rng, p, scale=0.3):
    """Product of the generators diag(P, P^-T), [[I, B], [0, I]] and
    [[I, 0], [C, I]] of Sp(2p, R), with B and C symmetric."""
    eye, zero = np.eye(p), np.zeros((p, p))
    P = _well_conditioned(rng, p, scale)
    B = rng.standard_normal((p, p)) * scale
    C = rng.standard_normal((p, p)) * scale
    B, C = 0.5 * (B + B.T), 0.5 * (C + C.T)
    return (
        np.block([[P, zero], [zero, np.linalg.inv(P).T]])
        @ np.block([[eye, B], [zero, eye]])
        @ np.block([[eye, zero], [C, eye]])
    )


def _special_linear_complex(rng, scale=0.3):
    """Real 6 x 6 form of a matrix in SL(3, C) acting on (x, y)."""
    Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M = np.eye(3) + scale * Z
    M = M / np.linalg.det(M) ** (1.0 / 3.0)
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


CALIBRATIONS = {
    # name: (n, m, form constructor, stabiliser sampler or None)
    "kaehler4": (4, 2, lambda: kaehler(2), None),
    "kaehler6": (6, 2, lambda: kaehler(3), lambda rng: _symplectic(rng, 3)),
    "slag6": (6, 3, special_lagrangian, _special_linear_complex),
    "cayley8": (8, 4, cayley, None),
}


def _form_spec(n, m, form):
    return {
        "n": n,
        "m": m,
        "coefficients": {",".join(map(str, I)): c for I, c in sorted(form.items())},
    }


def _metric_spec(G):
    G = 0.5 * (G + G.T)
    return {"n": G.shape[0], "matrix": G.tolist()}


def comass_job(rng, name):
    """phi = c A^* phi0 under g = A^T A: the comass is exactly c."""
    n, m, build, _ = CALIBRATIONS[name]
    A = _well_conditioned(rng, n)
    c = float(rng.uniform(0.5, 2.0))
    form = {I: c * v for I, v in pullback(A, build(), m).items()}
    spec = {"form": _form_spec(n, m, form), "metric": _metric_spec(A.T @ A)}
    return "comass", spec, [], {"comass": c, "shape": f"n{n}m{m}"}


def glue_job(rng, name, grid):
    """phi = A^* phi0 with endpoint metrics A^T S_i^T S_i A for S_i in the
    stabiliser of phi0: both endpoint comasses are exactly 1."""
    n, m, build, stabiliser = CALIBRATIONS[name]
    phi0 = build()
    A = _well_conditioned(rng, n)
    metrics = []
    for _ in range(2):
        S = stabiliser(rng)
        if not _close(pullback(S, phi0, m), phi0):
            raise AssertionError(f"{name}: sampled element does not fix the form")
        SA = S @ A
        metrics.append(_metric_spec(SA.T @ SA))
    spec = {
        "form": _form_spec(n, m, pullback(A, phi0, m)),
        "metric1": metrics[0],
        "metric2": metrics[1],
    }
    return "glue-sweep", spec, ["--grid", str(grid)], {"grid": grid, "shape": f"n{n}m{m}"}


# ---------------------------------------------------------------------------
# workload cycles

# Pools are grouped by cost so that every cycle has the same shape, and the
# median and the tail job (ten jobs beyond it) fall inside a group rather
# than between two: in certify the median job is a small product (no ODE)
# and the tail job a large ODE-bound one; in replicate the median is the
# 10-circle search and the tail one of the two heaviest searches; in glue
# the median is a cold (6,3) comass and the tail a sweep.
CERTIFY_SMALL = [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (1, 1, 1), (1, 1, 2),
                 (1, 1, 3), (1, 2, 2), (1, 1, 1, 1), (1, 1, 1, 2)]
CERTIFY_MID = [(2, 4), (2, 5), (1, 3, 5), (2, 2, 3), (1, 2, 4), (3, 3, 3),
               (2, 2, 2, 2), (1, 2, 2, 3)]
CERTIFY_LARGE = [(5, 5), (3, 3, 4), (3, 3, 5), (2, 2, 4, 4), (2, 3, 3, 3),
                 (1, 3, 4, 4)]
OBSTRUCT_HYPERSURFACES = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]
SAMPLES = [60, 120, 180, 240]
# (base sphere dimension, n_max) of the replication searches in a cycle;
# fixed, because their cost grows steeply with n_max
REPLICATIONS = [(1, 12), (1, 10), (2, 9), (2, 4)]
# glue-sweep grid sizes per calibration.  A (6,3) sweep's cost is mostly its
# two 256-restart endpoint comasses, so it varies least from job to job;
# three of the four sweeps in a cycle are (6,3), which puts the tail job
# among them.
SWEEP_GRIDS = {"kaehler6": (7,), "slag6": (5,)}


class _Pool:
    """Draws from a list in seeded permutations, so every member is used
    equally often up to one draw."""

    def __init__(self, rng, items):
        self._rng, self._items, self._queue = rng, list(items), []

    def draw(self):
        if not self._queue:
            self._queue = [self._items[i] for i in self._rng.permutation(len(self._items))]
        return self._queue.pop()


def _sphere_factors(dims):
    return [{"type": "sphere", "dim": int(d)} for d in dims]


def _certify_cycle(rng, pools):
    jobs = []

    def certify(dims):
        spec = {"factors": _sphere_factors(dims), "samples": pools["samples"].draw()}
        jobs.append(("certify-cone", spec, ["--control", "custom"],
                     {"k": sum(dims), "dims": list(dims)}))

    certify((3, 3))
    certify((1, 1))
    for _ in range(5):
        certify(pools["small"].draw())
    for _ in range(2):
        certify(pools["mid"].draw())
    for _ in range(2):
        certify(pools["large"].draw())
    for _ in range(3):
        dims = pools["hyper"].draw()
        spec = {
            "factors": [
                {"type": "product_hypersurface", "dims": list(dims),
                 "samples": pools["samples"].draw()},
                {"type": "sphere", "dim": int(rng.integers(1, 4))},
            ],
            "samples": pools["samples"].draw(),
        }
        jobs.append(("obstruct", spec, [], {"dims": list(dims)}))
    return jobs


def _replicate_cycle(rng, pools):
    jobs = [("replicate", {"base": {"type": "sphere", "dim": dim}, "n_max": n_max},
             ["--control", "F"], {"base_dim": dim, "n_max": n_max})
            for dim, n_max in REPLICATIONS]
    ks = sorted(int(k) for k in rng.choice(np.arange(2, 21), size=4, replace=False))
    alphas = sorted(round(float(a), 4) for a in rng.uniform(0.25, 5.0, size=4))
    spec = {"ks": ks, "alphas": alphas, "controls": ["F", "c"]}
    jobs.append(("vanishing-table", spec, [], {"rows": len(ks) * len(alphas) * 2}))
    return jobs


def _glue_cycle(rng, pools):
    sweeps = ("kaehler6", "slag6", "slag6", "slag6")
    cold = ("kaehler4",) * 3 + ("kaehler6",) * 2 + ("slag6",) * 6 + ("cayley8",)
    return ([glue_job(rng, name, pools[name].draw()) for name in sweeps]
            + [comass_job(rng, name) for name in cold])


POOLS = {
    "certify": {"small": CERTIFY_SMALL, "mid": CERTIFY_MID, "large": CERTIFY_LARGE,
                "hyper": OBSTRUCT_HYPERSURFACES, "samples": SAMPLES},
    "replicate": {},
    "glue": SWEEP_GRIDS,
}
CYCLE_FUNCTIONS = {"certify": _certify_cycle, "replicate": _replicate_cycle,
                  "glue": _glue_cycle}


def generate(workload: str, seed: int, cycles: int) -> list:
    """Job records for ``cycles`` cycles of a workload.

    Each record has an id, the CLI command, the spec (written verbatim to
    the spec file), extra CLI arguments including a per-job --seed, and the
    reference its output is checked against.
    """
    if workload not in CYCLE_FUNCTIONS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    pools = {key: _Pool(rng, items) for key, items in POOLS[workload].items()}
    jobs = []
    for _ in range(cycles):
        block = CYCLE_FUNCTIONS[workload](rng, pools)
        for pos in rng.permutation(len(block)):
            command, spec, args, ref = block[pos]
            job_seed = int(rng.integers(0, 2**31 - 1))
            jobs.append({
                "id": f"{workload}-{len(jobs):04d}",
                "command": command,
                "spec": spec,
                "args": list(args) + ["--seed", str(job_seed)],
                "ref": ref,
            })
    return jobs


def spec_bytes(job: dict) -> bytes:
    return (json.dumps(job["spec"], sort_keys=True, indent=1) + "\n").encode()
