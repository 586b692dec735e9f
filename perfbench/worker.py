"""Closed-loop job runner: one client, one process, each job started when
the previous one returns.

    python3 perfbench/worker.py JOBS.json RESULT.json [--spans SPANS.jsonl]
                                [--deadline EPOCH_SECONDS]

The parent sets PYTHONPATH to the checkout's ``src`` and pins BLAS threads
to one.  Jobs go through ``conekit.cli.main`` exactly as the command line
would run them.  A job that raises counts as failed; jobs not started
before the deadline are recorded as not run.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _blas_name(numpy):
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("jobs")
    parser.add_argument("result")
    parser.add_argument("--spans")
    parser.add_argument("--deadline", type=float, default=float("inf"))
    args = parser.parse_args(argv)

    with open(args.jobs) as fh:
        jobs = json.load(fh)

    import numpy
    import scipy

    import conekit.cli

    tracer = None
    if args.spans:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli_main = conekit.cli.main  # looked up after install, so it is traced

    records = []
    loop_start = time.perf_counter()
    for job in jobs:
        if time.time() > args.deadline:
            records.append({"id": job["id"], "rc": None, "wall_s": None,
                            "error": "not started before the deadline"})
            continue
        if tracer is not None:
            tracer.job = job["id"]
        argv = [job["command"], "--spec", job["spec_path"], "--out", job["out_dir"],
                *job["args"]]
        error = None
        t0 = time.perf_counter()
        try:
            rc = cli_main(argv)
        except Exception:  # a crash is a failed job, never a lost one
            rc, error = None, traceback.format_exc(limit=4)
        records.append({"id": job["id"], "rc": rc,
                        "wall_s": time.perf_counter() - t0, "error": error})
    loop_wall = time.perf_counter() - loop_start

    if tracer is not None:
        tracer.write(args.spans)
    result = {
        "jobs": records,
        "loop_wall_s": loop_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "conekit_file": conekit.cli.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "blas": _blas_name(numpy)},
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
