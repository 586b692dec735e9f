"""Cost and accuracy of the comass optimizer's retraction.

Draws, for each of --seeds, seeded random (6,3), (7,3) and (8,4) forms
under random SPD metrics: such forms are neither of closed-form degree nor
recognized as a special Lagrangian or Cayley calibration, so ``comass``
runs the optimizer on them (the perfbench glue job lists no longer reach
it).  Each form runs with 32 and with 256 restarts, twice: with the
library's Gram-Schmidt retraction (``comass._orthonormalize``) and with
LAPACK's QR as the reference path.  Per (n, m, R), R being the starts of a
call, it prints:

  calls        optimizer calls of that shape
  iters        mean iterations per call
  frame-iters  trial frames per call: each iteration steps and retracts
               every restart still running
  retract us   mean time per retraction call, Gram-Schmidt and QR
  grad us      mean time per gradient call on the Gram-Schmidt path
  same         calls whose iterations and frozen restarts equal the
               reference's
  max rel dv   largest |value - reference value| / reference value

Run from the repository root:

    python tools/comass_probe.py --seeds 101 102 103
"""

import argparse
import importlib
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from conekit.exterior import AlternatingForm, MetricTensor  # noqa: E402

# the package attribute conekit.comass is the function, not the module
comass_mod = importlib.import_module("conekit.comass")

SHAPES = ((6, 3), (7, 3), (8, 4))
FORMS_PER_SHAPE = 3
RESTARTS = (32, 256)


def drawn_calls(seeds):
    """(phi, g, options) of the optimizer calls to probe: for each seed and
    shape, FORMS_PER_SHAPE random forms under random SPD metrics, each with
    every restart count of RESTARTS."""
    calls = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for n, m in SHAPES:
            for _ in range(FORMS_PER_SHAPE):
                phi = AlternatingForm(n, m, rng.standard_normal(math.comb(n, m)))
                A = rng.standard_normal((n, n))
                g = MetricTensor(A @ A.T + n * np.eye(n))
                if comass_mod._recognize(phi, g) is not None:
                    continue  # not an optimizer call
                for restarts in RESTARTS:
                    calls.append((phi, g, {"restarts": restarts, "seed": seed}))
    return calls


def timed(fn, clock):
    """fn, adding to ``clock`` its wall time, its call count and the frames
    of its batch argument, which comes last."""
    def wrapper(*args):
        t0 = time.perf_counter()
        out = fn(*args)
        clock[0] += time.perf_counter() - t0
        clock[1] += 1
        clock[2] += args[-1].shape[0]
        return out
    return wrapper


def run(phi, g, options, retract):
    """One optimizer call with the given retraction: the result, and the
    [seconds, calls, frames] of its retractions and of its gradients."""
    retraction, gradient = [0.0, 0, 0], [0.0, 0, 0]
    saved = comass_mod._orthonormalize, comass_mod._grad_batch
    comass_mod._orthonormalize = timed(retract, retraction)
    comass_mod._grad_batch = timed(saved[1], gradient)
    try:
        res = comass_mod._optimize(phi, g, **options)
    finally:
        comass_mod._orthonormalize, comass_mod._grad_batch = saved
    return res, retraction, gradient


def qr(U):
    return np.linalg.qr(U)[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[101])
    args = parser.parse_args(argv)
    rows = defaultdict(lambda: {"calls": 0, "iters": 0, "frames": 0, "same": 0,
                                "dv": 0.0, "gs": [0.0, 0], "qr": [0.0, 0],
                                "grad": [0.0, 0]})
    for phi, g, options in drawn_calls(args.seeds):
        ours, gs_clock, grad_clock = run(phi, g, options, comass_mod._orthonormalize)
        ref, qr_clock, _ = run(phi, g, options, qr)
        row = rows[(phi.n, phi.m, ours.restarts_used)]
        row["calls"] += 1
        row["iters"] += ours.iterations
        row["frames"] += gs_clock[2] - ours.restarts_used  # trial frames only
        row["same"] += (ours.iterations == ref.iterations
                        and ours.restarts_at_max == ref.restarts_at_max)
        row["dv"] = max(row["dv"], abs(ours.value - ref.value) / ref.value)
        for key, clock in (("gs", gs_clock), ("qr", qr_clock), ("grad", grad_clock)):
            row[key][0] += clock[0]
            row[key][1] += clock[1]
    print(f"random forms of seeds {' '.join(map(str, args.seeds))}")
    print(f"{'n':>2} {'m':>2} {'R':>4} {'calls':>6} {'iters':>6} {'frame-iters':>11} "
          f"{'GS us':>7} {'QR us':>7} {'grad us':>8} {'same':>5} {'max rel dv':>10}")
    for (n, m, R), row in sorted(rows.items()):
        calls = row["calls"]
        per_call = {key: 1e6 * row[key][0] / row[key][1] for key in ("gs", "qr", "grad")}
        print(f"{n:2d} {m:2d} {R:4d} {calls:6d} {row['iters'] / calls:6.1f} "
              f"{row['frames'] / calls:11.0f} {per_call['gs']:7.1f} {per_call['qr']:7.1f} "
              f"{per_call['grad']:8.1f} {row['same']:5d} {row['dv']:10.2e}")


if __name__ == "__main__":
    main()
