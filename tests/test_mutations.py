"""Spec mutations: every mutated spec ends in exit 0, 2 or 3, and
``validate`` agrees with the job.

One spec per command, in the shape of the benchmark's job lists, has one
field at a time set to an out-of-range or wrongly typed value, or deleted:
every field with every value of ``VALUES``, and with two more values drawn
for it by a seeded stdlib ``random``.  Every mutated spec runs through
``cli.main`` under an alarm, as its own command and as ``validate``, and
the test asserts:
- each run exits 0, 2 or 3, and its manifest records that code;
- a spec that ``validate`` rejects (FATAL) makes the job exit 2;
- a job that exits 2 has ``validate`` reject its spec, except in the
  cases ``validate`` cannot see, since it checks the fields a spec holds
  and does not know the command:
  - "missing key": the job needs a top-level key the mutation deleted;
  - "other command": another command accepts the spec, as certify-cone
    accepts a product of round spheres that obstruct rejects;
  - "hypothesis": glue-sweep's endpoint comass exceeds 1, which takes the
    comass itself to find.
comass and glue-sweep mutate (4,2) specs, which take the closed form.
"""

import contextlib
import io
import json
import random
import signal

import pytest

from conekit.cli import main
from conekit.serialization import read_json

KAHLER4 = {"n": 4, "m": 2, "coefficients": {"1,3": 1.0, "2,4": 1.0}}
EYE4 = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
SPECS = {
    "comass": ({"form": KAHLER4,
                "metric": {"n": 4, "matrix": [[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0],
                                              [0.0, 0.0, 1.5, 0.0], [0.0, 0.0, 0.0, 1.0]]}},
               []),
    "glue-sweep": ({"form": KAHLER4, "metric1": {"n": 4, "matrix": EYE4},
                    "metric2": {"n": 4, "matrix": [[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0],
                                                   [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 2.0]]}},
                   ["--grid", "3"]),
    "certify-cone": ({"factors": [{"type": "sphere", "dim": 1}, {"type": "sphere", "dim": 3}],
                      "samples": 60},
                     ["--control", "custom"]),
    "obstruct": ({"factors": [{"type": "product_hypersurface", "dims": [1, 2], "samples": 60},
                              {"type": "sphere", "dim": 2}],
                  "samples": 120},
                 []),
    "replicate": ({"base": {"type": "sphere", "dim": 2}, "n_max": 4}, ["--control", "F"]),
    "vanishing-table": ({"ks": [3, 8], "alphas": [1.25, 3.5], "controls": ["F", "c"]}, []),
}
DELETE = "<deleted>"
VALUES = [None, True, False, 0, -1, 10**6, 10**30, 2**63, 1e308, 1e-320, "x", [], {},
          DELETE]
SEED = 23
ALARM_S = 20


def _paths(node, path=()):
    """Every field below the root: dict keys and list positions."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(spec, path, value):
    spec = json.loads(json.dumps(spec))
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return spec


def _mutations():
    """(command, path, value) of every mutation; the drawn values are a
    float of any magnitude and an integer of up to 70 bits."""
    rng = random.Random(SEED)
    for command, (spec, _) in SPECS.items():
        for path in _paths(spec):
            drawn = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0),
                     rng.randint(-2**70, 2**70)]
            for value in VALUES + drawn:
                yield command, path, value


def _timeout(signum, frame):
    raise TimeoutError(f"a job ran past the {ALARM_S} s alarm")


def _run(command, spec_path, out, args=()):
    """(exit code, stderr) of one cli.main run under an alarm; the manifest
    must record the same code."""
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--spec", str(spec_path), "--out", str(out), *args])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3), (command, code, err.getvalue())
    assert read_json(str(out / "manifest.json"))["exit_code"] == code
    return code, err.getvalue()


def _exemption(command, path, value, spec_path, tmp, stderr):
    """The case ``validate`` cannot see, or None."""
    if value == DELETE and len(path) == 1 and stderr == f"error: {path[0]!r}\n":
        return "missing key"
    if command == "glue-sweep" and "hypothesis violated" in stderr:
        return "hypothesis"
    for other, (_, args) in SPECS.items():
        if other != command and _run(other, spec_path, tmp / other, args)[0] != 2:
            return "other command"
    return None


def test_every_mutated_spec_exits_0_2_or_3_and_validate_agrees(tmp_path):
    for i, (command, path, value) in enumerate(_mutations()):
        case = f"{command} {'/'.join(map(str, path))} = {value!r}"
        spec_path = tmp_path / f"spec{i}.json"
        spec_path.write_text(json.dumps(_mutated(SPECS[command][0], path, value)))
        code, stderr = _run(command, spec_path, tmp_path / f"job{i}", SPECS[command][1])
        fatal = _run("validate", spec_path, tmp_path / f"val{i}")[0] == 2
        if fatal:
            assert code == 2, case
        elif code == 2:
            assert _exemption(command, path, value, spec_path, tmp_path / f"ex{i}",
                              stderr), f"{case}: validate passes, job says {stderr.strip()}"


@pytest.mark.parametrize("command", sorted(SPECS))
def test_unmutated_specs_pass(tmp_path, command):
    spec, args = SPECS[command]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert _run(command, spec_path, tmp_path / "job", args)[0] == 0
    assert _run("validate", spec_path, tmp_path / "val")[0] == 0
