"""conekit benchmark: seeded CLI job streams with exact-reference checks.

    python3 perfbench/run.py --workload certify|replicate|glue --seed N
                             --seconds S --trace 0|1

Run from anywhere inside a checkout; conekit is imported from the
checkout's ``src``.  The run generates a seeded job list of whole cycles
sized to take about --seconds on the reference machine, runs it in a
closed loop in one worker process with BLAS pinned to one thread, checks
every job's output against its reference and prints a table, then one JSON
line with the metrics named in BENCHMARK.json: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs as joblists  # noqa: E402
from tracer import P_FN, TARGETS, read_spans, self_times  # noqa: E402

BUDGET_S = 165.0  # the whole run must end within 180 s
SETUP_INTERPRETERS = 5
BLAS_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
LAYERS = ("exterior", "comass", "gluing", "lawlor", "products", "obstruction",
          "serialization", "cli")
COMASS_SHAPES = ("n4m2", "n6m2", "n6m3", "n8m4")
CONTROLS = ("custom", "F")

# functions that must record calls in the traced run of each workload
EXPECTED_CALLS = {
    "certify": ("cli.main", "serialization.write_json", "products.curvature_model",
                "products.normal_radius", "lawlor.check_area_minimizing", P_FN,
                "obstruction.hemisphere_test"),
    "replicate": ("cli.main", "serialization.write_csv", "products.replication_search",
                  "products.normal_radius", "lawlor.check_area_minimizing",
                  "lawlor.vanishing_angle"),
    "glue": ("cli.main", "serialization.write_csv", "gluing.verify_gluing_bound",
             "comass.comass", "exterior.pullback"),
}

E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s",
             "job_s.tail": "s", "ok_share": "share", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {}
    for name in [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns] + [P_FN]:
        units.update({f"{name}.calls": "count", f"{name}.time_s": "s",
                      f"{name}.self_s": "s"})
    for shape in COMASS_SHAPES:
        units[f"comass.comass.time_s.{shape}"] = "s"
    units["comass.comass.restarts"] = "count"
    for control in CONTROLS:
        units[f"lawlor.check_area_minimizing.time_s.{control}"] = "s"
        units[f"lawlor.check_area_minimizing.self_s.{control}"] = "s"
    for layer in LAYERS:
        units[f"{layer}.src_lines"] = "lines"
    units["trace.overhead_share"] = "share"
    units["trace.jobs"] = "count"
    return units


# ---------------------------------------------------------------------------
# running


def child_env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(deadline):
    """Median wall time of fresh interpreters importing conekit.cli, after
    one untimed import that leaves the bytecode cache warm."""
    cmd = [sys.executable, "-c", "import conekit.cli"]
    times = []
    for i in range(SETUP_INTERPRETERS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, stdout=subprocess.DEVNULL,
                       timeout=max(1.0, deadline - time.time()))
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(job_list, workdir, tag, deadline, spans=False):
    """Run the jobs in one worker process; returns its result, or None when
    it crashed or ran out of time."""
    jobs_path = workdir / f"{tag}.jobs.json"
    result_path = workdir / f"{tag}.result.json"
    runnable = []
    for job in job_list:
        out_dir = workdir / "out" / tag / job["id"]
        runnable.append({**job, "out_dir": str(out_dir)})
    jobs_path.write_text(json.dumps(runnable))
    cmd = [sys.executable, str(HERE / "worker.py"), str(jobs_path), str(result_path),
           "--deadline", repr(deadline - 5.0)]
    if spans:
        cmd += ["--spans", str(workdir / "spans.jsonl")]
    with open(workdir / f"{tag}.log", "w") as log:
        try:
            subprocess.run(cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                           timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            return runnable, None
    if not result_path.exists():
        return runnable, None
    return runnable, json.loads(result_path.read_text())


def check_jobs(runnable, result):
    """Per-job problems; a job that did not run or crashed is a failure."""
    records = {r["id"]: r for r in (result or {}).get("jobs", [])}
    problems, outputs = {}, {}
    for job in runnable:
        rec = records.get(job["id"])
        if rec is None or rec["rc"] is None:
            problems[job["id"]] = [(rec or {}).get("error") or "job did not run"]
            continue
        outputs[job["id"]] = checks.load_outputs(job, rec["rc"])
        found = checks.check(job, outputs[job["id"]])
        if found:
            problems[job["id"]] = found
    return problems, outputs


def corruption_selftest(runnable, outputs, problems):
    """Every check must reject corrupted copies of outputs it accepted."""
    misses, covered = set(), set()
    for job in runnable:
        if job["id"] in outputs and job["id"] not in problems:
            covered.add(job["command"])
            misses.update(checks.corruption_misses(job, outputs[job["id"]]))
    kinds = {job["command"] for job in runnable}
    misses.update(f"{kind}: no good output to corrupt" for kind in kinds - covered)
    return sorted(misses)


def spec_selftest(workload, seed, cycles, job_list):
    """The same seed must give byte-identical spec files."""
    again = joblists.generate(workload, seed, cycles)
    return [joblists.spec_bytes(j) for j in job_list] == [joblists.spec_bytes(j) for j in again]


# ---------------------------------------------------------------------------
# metrics


def job_times(runnable, result, problems):
    """Wall time per attempted job; a failed job ranks as the slowest."""
    records = {r["id"]: r for r in result["jobs"]}
    times, failed = [], []
    for job in runnable:
        rec = records.get(job["id"])
        if rec and rec["wall_s"] is not None and job["id"] not in problems:
            times.append(rec["wall_s"])
        elif rec and rec["wall_s"] is not None:
            failed.append(rec["wall_s"])
    return sorted(times) + [result["loop_wall_s"]] * len(failed)


def tail(times):
    """Highest percentile with at least ten jobs beyond it (nearest rank)."""
    n = len(times)
    rank = max(1, n - 10)
    return times[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(runnable, result, problems, setup_s):
    times = job_times(runnable, result, problems)
    attempted = len(runnable)
    value, pct, beyond = tail(times)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(times) / result["loop_wall_s"],
        "job_s.p50": statistics.median(times),
        "job_s.tail": value,
        "ok_share": (attempted - len(problems)) / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {"job_s.tail": f"p{pct:.1f} of {len(times)} jobs, {beyond} beyond it",
             "failed_share": f"{len(problems) / attempted:.4f} ({len(problems)}/{attempted})"}
    return metrics, notes


def src_lines(layer):
    """Non-blank, non-comment lines of src/conekit/<layer>.py."""
    lines = (ROOT / "src" / "conekit" / f"{layer}.py").read_text().splitlines()
    return sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))


def per_layer(spans, traced_wall, untraced_wall, n_jobs):
    metrics = {name: 0 for name in per_layer_units()}
    for span, own in zip(spans, self_times(spans)):
        name, t0, t1, _, _, tag, restarts = span
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.time_s"] += t1 - t0
        metrics[f"{name}.self_s"] += own
        if name == "comass.comass":
            metrics["comass.comass.restarts"] += restarts
            if tag in COMASS_SHAPES:
                metrics[f"comass.comass.time_s.{tag}"] += t1 - t0
        elif name == "lawlor.check_area_minimizing" and tag in CONTROLS:
            metrics[f"{name}.time_s.{tag}"] += t1 - t0
            metrics[f"{name}.self_s.{tag}"] += own
    for layer in LAYERS:
        metrics[f"{layer}.src_lines"] = src_lines(layer)
    metrics["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
    metrics["trace.jobs"] = n_jobs
    return metrics


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def metadata(args, workload_jobs, cycles, versions):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "jobs": {args.workload: len(workload_jobs)},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
        "git_commit": git_commit(),
        "load": "closed loop, 1 client, 1 worker process",
        **(versions or {}),
    }


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblists.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.time()
    deadline = start + BUDGET_S

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "conekit" / "cli.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} holds no conekit sources (src/conekit) or no "
              "BENCHMARK.json; run from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    produced = per_layer_units() if args.trace else E2E_UNITS
    if declared != produced:
        print(f"error: metrics {sorted(produced)} differ from BENCHMARK.json "
              f"{section} {sorted(declared)}", file=sys.stderr)
        return 1

    workdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "specs").mkdir(parents=True)

    cycles = joblists.cycles_for(args.workload, args.seconds)
    if args.trace:
        cycles = max(1, cycles // 2)  # an untraced and a traced pass share the time
    job_list = joblists.generate(args.workload, args.seed, cycles)
    for job in job_list:
        path = workdir / "specs" / f"{job['id']}.json"
        path.write_bytes(joblists.spec_bytes(job))
        job["spec_path"] = str(path)
    errors = []
    if not spec_selftest(args.workload, args.seed, cycles, job_list):
        errors.append("self-test: the same seed gave different spec files")

    setup_s = None if args.trace else measure_setup(deadline)
    passes = {"untraced": False, "traced": True} if args.trace else {"untraced": False}
    runs = {}  # pass name -> (runnable jobs, worker result, per-job problems)
    for i, (name, spans) in enumerate(passes.items()):
        share = (deadline - time.time()) / (len(passes) - i)
        runnable, result = run_worker(job_list, workdir, name, time.time() + share, spans)
        problems, outputs = check_jobs(runnable, result)
        errors += corruption_selftest(runnable, outputs, problems)
        runs[name] = (runnable, result, problems)
        if result is None:
            errors.append(f"{name} worker crashed or timed out; see {workdir / name}.log")
        elif not result["conekit_file"].startswith(str(ROOT / "src")):
            errors.append(f"conekit was imported from {result['conekit_file']}, not this checkout")
    all_problems = {f"{name}/{job_id}": found for name, (_, _, problems) in runs.items()
                    for job_id, found in problems.items()}

    runnable, result, problems = runs["untraced"]
    metrics, notes = {}, {}
    finished = all(r is not None for _, r, _ in runs.values())
    if finished and args.trace:
        metrics = per_layer(read_spans(workdir / "spans.jsonl"),
                            runs["traced"][1]["loop_wall_s"], result["loop_wall_s"],
                            len(job_list))
        for name in EXPECTED_CALLS[args.workload]:
            if metrics[f"{name}.calls"] == 0:
                errors.append(f"coverage: {name} recorded no calls on {args.workload}")
    elif finished:
        metrics, notes = end_to_end(runnable, result, problems, setup_s)

    meta = metadata(args, job_list, cycles, (result or {}).get("versions"))
    (workdir / "metadata.json").write_text(json.dumps(
        {"metadata": meta, "metrics": metrics, "notes": notes,
         "problems": all_problems, "errors": errors}, indent=1) + "\n")

    print(f"# conekit benchmark: workload={args.workload} seed={args.seed} "
          f"jobs={len(job_list)} cycles={cycles} trace={args.trace}")
    for key in ("nproc", "cpus_usable", "python", "numpy", "scipy", "blas",
                "git_commit"):
        print(f"#   {key}: {meta.get(key)}")
    print(f"#   blas_threads: {BLAS_ENV['OPENBLAS_NUM_THREADS']} (OMP/OpenBLAS/MKL/numexpr)")
    for name, value in metrics.items():
        unit = produced[name]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:10s} {name:48s} {value:14.6g} {unit}{note}")
    if "failed_share" in notes:
        print(f"{args.workload:10s} {'failed_share':48s} {notes['failed_share']}")
    for job_id, found in sorted(all_problems.items()):
        print(f"FAILED {job_id}: {'; '.join(found)}")
    for err in errors:
        print(f"ERROR {err}")
    if not metrics:
        print("error: no metrics; the worker did not finish", file=sys.stderr)
        return 1
    if not all_problems and not errors:
        shutil.rmtree(workdir / "out", ignore_errors=True)
    print(json.dumps({
        "correct": not all_problems and not errors,
        "attempted": len(job_list) * len(passes),
        "failed": len(all_problems),
        "metrics": {name: {"value": value, "unit": produced[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
