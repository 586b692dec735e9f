"""Cost and accuracy of the descent ODE's series start.

For every lane (control, alpha, k) it runs the fastest
descent twice: from the order-30 series start, as the library does, and
from the order-2 start h = 1 - a_max t^2 at t = 1e-3 that the series start
replaced.  Each descent is one DOP853 run at the default tolerances.  It prints accepted
steps and right-hand-side calls for both starts, and how far each start's
vanishing angle lies from a tight reference (an order-40 series start
integrated at rtol 3e-14, ``tests/oracles.py``).

Lane sets:
  grid       the 240 F/c lanes of tests/test_descent.py (k = 1..30, alpha
             in {0, 1/2, 1, sqrt k})
  replicate  the descents of the perfbench replicate job lists for --seeds:
             the F-control replication searches (n copies of S^1 or S^2,
             alpha = sqrt k) and the vanishing-table lanes

Run from the repository root:

    python tools/descent_probe.py --seeds 101 102 103
"""

import argparse
import math
import os
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), ROOT]

from conekit import lawlor  # noqa: E402
from oracles import control_taylor, series_reference_angle  # noqa: E402
from perfbench import jobs  # noqa: E402

KS = range(1, 31)


def grid_lanes():
    return [(control, alpha, k) for k in KS
            for alpha in (0.0, 0.5, 1.0, math.sqrt(k))
            for control in ("F", "c")]


def replicate_lanes(seeds):
    lanes = set()
    for seed in seeds:
        for job in jobs.generate("replicate", seed, 1):
            spec = job["spec"]
            if job["command"] == "replicate":
                dim = spec["base"]["dim"]
                lanes |= {("F", math.sqrt(n * dim), n * dim)
                          for n in range(2, spec["n_max"] + 1)}
            else:
                lanes |= {(c, a, k) for k in spec["ks"]
                          for a in spec["alphas"] for c in spec["controls"]}
    return sorted(lanes)


def order2_run(model):
    """One DOP853 run at the default tolerances from the order-2 start
    h = 1 - a_max t^2 at t = 1e-3 toward t = 50."""
    a_max = lawlor.second_order_coeffs(model.k, model.p2)[1]
    rhs = lawlor._descent_rhs(model.k + 1.0, model.p_fn)
    return lawlor._descend(rhs, 1e-3, 1.0 - a_max * 1e-6, 50.0, 1e-10, 1e-10)


def probe(lanes):
    """Per start: steps, rhs calls and the largest |theta - reference| over
    the lanes with a hit."""
    totals = {"series": [0, 0, 0.0], "order-2": [0, 0, 0.0]}
    bias, hits, t_starts = [], 0, []
    for control, alpha, k in lanes:
        model = lawlor._control_model(control, alpha, k)
        fastest = lawlor._fastest(model)
        if fastest is None:
            continue
        _, series_run, end, t_end = fastest
        t_starts.append(series_run.ts[0])
        run = order2_run(model)
        thetas = {"series": math.atan(t_end) if end == "hit" else None,
                  "order-2": math.atan(run.end[1]) if run.end and run.end[0] == "hit" else None}
        for name, r in (("series", series_run), ("order-2", run)):
            totals[name][0] += len(r.ts) - 1
            totals[name][1] += r.rhs_calls
        if thetas["series"] is None:
            continue
        hits += 1
        ref = series_reference_angle(model, control_taylor(control, alpha, k, 40))
        for name, theta in thetas.items():
            totals[name][2] = max(totals[name][2], abs(theta - ref))
        bias.append(thetas["series"] - thetas["order-2"])
    return totals, hits, bias, sorted(t_starts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[101])
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    for label, lanes in (("grid", grid_lanes()), ("replicate", replicate_lanes(args.seeds))):
        totals, hits, bias, t_starts = probe(lanes)
        print(f"{label}: {len(lanes)} lanes, {hits} with a hit; series t_start "
              f"min {t_starts[0]:.3g} median {t_starts[len(t_starts) // 2]:.3g} "
              f"max {t_starts[-1]:.3g}")
        print(f"  {'start':8} {'steps':>6} {'rhs calls':>9} {'max|dtheta|':>12}")
        for name, (steps, calls, err) in totals.items():
            print(f"  {name:8} {steps:6d} {calls:9d} {err:12.2e}")
        print(f"  theta(series) - theta(order-2): min {min(bias):.3g}, max {max(bias):.3g}")


if __name__ == "__main__":
    main()
