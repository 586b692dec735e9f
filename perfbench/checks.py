"""Output checks for every job, and the corruptions each check must catch.

A check returns a list of problems; an empty list means the job's output
matches its reference.  ``CORRUPTIONS`` holds, per command, edits of a good
output (a comass off by 1e-3, a flipped verdict, ...) that its check must
reject; the benchmark applies them to real outputs on every run.
"""

import copy
import csv
import json
import math
import os

TOL = 1e-6
CLI_EXIT_CODES = (0, 2, 3)

REPORT_FILE = {"obstruct": "certificate.json"}
CSV_FILE = {
    "glue-sweep": "glue_sweep.csv",
    "replicate": "replication.csv",
    "vanishing-table": "vanishing_table.csv",
}

# first n at which the replication search passes under the F control, for
# round bases of dimension 1 (the paper's twelve circles) and 2.  The F
# verdict uses only alpha = sqrt(k), k and the focal radius, all exact for
# round products; the S2 value was pinned at the commit that added this
# benchmark, where its margins are at least 0.03 rad.
FIRST_PASSING_COPIES = {1: 12, 2: 4}


def load_outputs(job, rc):
    """Exit code plus the parsed report and table of one job."""
    out = {"rc": rc, "report": None, "rows": None}
    report = os.path.join(job["out_dir"], REPORT_FILE.get(job["command"], "report.json"))
    if os.path.exists(report):
        with open(report) as fh:
            out["report"] = json.load(fh)
    table = CSV_FILE.get(job["command"])
    if table and os.path.exists(os.path.join(job["out_dir"], table)):
        with open(os.path.join(job["out_dir"], table), newline="") as fh:
            out["rows"] = list(csv.DictReader(fh))
    return out


def _num(text):
    return None if text in ("", None) else float(text)


def _check_certify(ref, rep, rows):
    problems = []
    if rep["k"] != ref["k"]:
        problems.append(f"k {rep['k']} != {ref['k']}")
    if not abs(rep["alpha"] - math.sqrt(ref["k"])) <= TOL:
        problems.append(f"alpha {rep['alpha']!r} != sqrt({ref['k']})")
    status, theta = rep["status"], rep["theta"]
    if status not in ("passes", "inconclusive", "boundary-inconclusive"):
        problems.append(f"unknown status {status!r}")
    if rep["passes"] != (status == "passes"):
        problems.append(f"passes {rep['passes']} contradicts status {status!r}")
    if status == "passes" and theta is None:
        problems.append("passes without a vanishing angle")
    if theta is not None and rep["passes"] != (theta <= rep["R_half"]):
        problems.append("passes contradicts theta <= R_half")
    anchor = {(3, 3): "passes", (1, 1): "inconclusive"}.get(tuple(ref["dims"]))
    if anchor and status != anchor:
        problems.append(f"anchor S{ref['dims']} gave {status!r}, expected {anchor!r}")
    return problems


def _check_obstruct(ref, rep, rows):
    problems = []
    if rep["verdict"] != "infeasible" or rep["obstructed"] is not True:
        problems.append(f"hypersurface factor {ref['dims']} gave {rep['verdict']!r}")
    weights = rep.get("convex_weights") or []
    if not weights or min(weights) < 0.0 or abs(sum(weights) - 1.0) > 1e-9:
        problems.append("infeasibility certificate is not a convex combination")
    return problems


def _check_comass(ref, rep, rows):
    if abs(rep["value"] - ref["comass"]) <= TOL:
        return []
    return [f"comass {rep['value']!r} != exact {ref['comass']!r}"]


def _check_glue(ref, rep, rows):
    problems = []
    if rep["passed"] is not True:
        problems.append("glue-sweep did not pass")
    for c in rep["endpoint_comasses"]:
        if not abs(c - 1.0) <= TOL:
            problems.append(f"endpoint comass {c!r} != 1")
    if len(rows) != ref["grid"]:
        problems.append(f"{len(rows)} sweep rows, expected {ref['grid']}")
    elif _num(rows[0]["s"]) != 0.0 or _num(rows[-1]["s"]) != 1.0:
        problems.append("sweep does not run from s = 0 to s = 1")
    if any(_num(r["comass"]) > 1.0 + TOL for r in rows):
        problems.append("interpolated comass exceeds 1")
    return problems


def _check_replicate(ref, rep, rows):
    problems = []
    ns = [int(r["n"]) for r in rows]
    if ns != list(range(2, ref["n_max"] + 1)):
        problems.append(f"rows cover n = {ns}, expected 2..{ref['n_max']}")
    passing = [int(r["n"]) for r in rows if r["passes"] == "True"]
    if rep["n_pass"] != (passing[0] if passing else None):
        problems.append(f"n_pass {rep['n_pass']} contradicts the table")
    first = FIRST_PASSING_COPIES[ref["base_dim"]]
    expected = first if ref["n_max"] >= first else None
    if rep["n_pass"] != expected:
        problems.append(f"S{ref['base_dim']} n_pass {rep['n_pass']}, expected {expected}")
    return problems


def _check_table(ref, rep, rows):
    problems = []
    if len(rows) != ref["rows"] or rep["rows"] != ref["rows"]:
        problems.append(f"{len(rows)} table rows, expected {ref['rows']}")
    theta = {}
    for r in rows:
        value = _num(r["theta"])
        if (r["converged"] == "True") != (value is not None):
            problems.append(f"converged flag wrong at k={r['k']} alpha={r['alpha']}")
        theta[(r["k"], r["alpha"], r["control"])] = value
    for (k, alpha, control), tf in theta.items():
        tc = theta.get((k, alpha, "c"))
        if control == "F" and tf is not None and tc is not None and not tc > tf:
            problems.append(f"theta_c {tc} <= theta_F {tf} at k={k} alpha={alpha}")
    return problems


CHECKS = {
    "certify-cone": _check_certify,
    "obstruct": _check_obstruct,
    "comass": _check_comass,
    "glue-sweep": _check_glue,
    "replicate": _check_replicate,
    "vanishing-table": _check_table,
}


def check(job, outputs):
    """Problems with one job's outputs; empty when it is correct."""
    rc = outputs["rc"]
    if rc not in CLI_EXIT_CODES:
        return [f"exit code {rc!r} outside the CLI contract {CLI_EXIT_CODES}"]
    if rc != 0:
        return [f"exit code {rc} on a valid job"]
    if outputs["report"] is None or (job["command"] in CSV_FILE and outputs["rows"] is None):
        return ["missing output files"]
    try:
        return CHECKS[job["command"]](job["ref"], outputs["report"], outputs["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


# ---------------------------------------------------------------------------
# corruptions


def _set(key, fn):
    def corrupt(out):
        out["report"][key] = fn(out["report"][key])
    corrupt.__name__ = f"edited {key}"
    return corrupt


def _set_row(index, key, fn):
    def corrupt(out):
        out["rows"][index][key] = fn(out["rows"][index][key])
    corrupt.__name__ = f"edited row {index} {key}"
    return corrupt


def _drop_row(out):
    out["rows"].pop()


def _swap_thetas(out):
    rows = {(r["k"], r["alpha"], r["control"]): r for r in out["rows"]}
    for (k, alpha, control), r in rows.items():
        other = rows.get((k, alpha, "c"))
        if control == "F" and r["theta"] and other and other["theta"]:
            r["theta"], other["theta"] = other["theta"], r["theta"]
            return
    raise LookupError("no (k, alpha) with both angles")


def _flip_passes(out):
    out["report"]["passes"] = not out["report"]["passes"]


def _flip_status(out):
    out["report"]["status"] = {"passes": "inconclusive"}.get(out["report"]["status"], "passes")
    out["report"]["passes"] = out["report"]["status"] == "passes"


CORRUPTIONS = {
    "certify-cone": [_set("alpha", lambda a: a + 1e-3), _flip_passes, _flip_status],
    "obstruct": [_set("verdict", lambda v: "feasible"),
                 _set("convex_weights", lambda w: [2.0 * x for x in w])],
    "comass": [_set("value", lambda v: v + 1e-3), _set("value", lambda v: v - 1e-3)],
    "glue-sweep": [_set("passed", lambda p: False),
                   _set("endpoint_comasses", lambda e: [e[0] + 1e-3, e[1]]),
                   _set_row(-1, "comass", lambda c: "1.001")],
    "replicate": [_set("n_pass", lambda n: 3 if n is None else n + 1),
                  _set_row(0, "passes", lambda p: "False" if p == "True" else "True")],
    "vanishing-table": [_swap_thetas, _drop_row],
}


def corruption_misses(job, outputs):
    """Names of corruptions of a good output that its check lets through."""
    misses = []
    variants = [("exit code 1", lambda out: out.__setitem__("rc", 1))]
    variants += [(fn.__name__, fn) for fn in CORRUPTIONS[job["command"]]]
    for name, corrupt in variants:
        bad = copy.deepcopy(outputs)
        try:
            corrupt(bad)
        except LookupError:
            continue  # not applicable to this output
        if not check(job, bad):
            misses.append(f"{job['command']}: {name}")
    return misses
