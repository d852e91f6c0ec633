#!/usr/bin/env python3
"""Benchmark of the vcsqse pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository is the parent of this file's directory.
The run generates its inputs from the seed, then runs timed passes one after
another, each in a fresh worker process, until the next pass would end after
--seconds (at least MIN_PASSES passes). Every output is checked against its
reference. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones, measured without
tracing. With --trace 1 untraced and traced passes alternate, and the
metrics are the per-layer ones of perfbench/tracer.py plus the tracing
overhead.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".perfbench_work"
REQUIRED = ("src/vcsqse/__init__.py", "configs", "fixtures", "out")
MIN_PASSES = 3
# Set-up-only workers started after each untraced pass of a --trace 0 run,
# so the set-up median rests on many samples spread over the whole run.
SETUP_PROBES = 3
# Every run must end within 180 s; stop starting passes well before that.
DEADLINE_S = 165.0

END_TO_END = {
    "points_per_s": "points/s",
    "point_s_p50": "s",
    "point_s_p90": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# One thread per worker: the package's hot loops hold the interpreter lock,
# and BLAS threads would only add noise on a small machine.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_worker(job, pass_dir, spawn_timeout):
    """Run one pass in a fresh process; the result dict, or None on a crash."""
    job_path = pass_dir / "job.json"
    result_path = pass_dir / "result.json"
    job_path.write_text(json.dumps(job))
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", str(job_path),
             str(result_path), repr(spawned_at)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=spawn_timeout)
    except subprocess.TimeoutExpired:
        print(f"pass {job['pass_id']}: worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"pass {job['pass_id']}: worker exited with {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def failed_points(workload, result, references):
    """Points of one pass that raised or missed their reference check."""
    from perfbench import checks
    failed = 0
    for unit in result["units"]:
        if unit["error"] is not None:
            print(f"{unit['label']} raised:\n{unit['error']}", file=sys.stderr)
            failed += unit["points"]
        elif workload == "point_mix_m4":
            failed += not checks.point_report_ok(unit["output"], references)
        elif workload == "spectrum_m8":
            failed += checks.spectrum_failures(Path(unit["output"]).read_text(),
                                               unit["points"])
        else:
            reference = (ROOT / "out" / f"{unit['label']}.csv").read_text()
            failed += checks.sweep_failures(Path(unit["output"]).read_text(),
                                            reference)
    return failed


def end_to_end(passes, setups):
    """End-to-end metrics over the untraced passes that completed and the
    set-up times of every worker."""
    # The speed of a shared machine drifts by tens of percent over seconds,
    # so each time is averaged over the whole run rather than taken from one
    # pass. A unit is one entry-point call on a fixed input, made once per
    # pass: a config's run_experiment (its points are its sweep points) or
    # one single_point call.
    unit_s, unit_points = {}, {}
    for p in passes:
        for k, u in enumerate(p["units"]):
            if u["error"] is None:
                unit_s.setdefault(k, []).append(u["seconds"])
                unit_points[k] = u["points"]
    if not unit_s:
        raise RuntimeError("every call raised")
    latencies = [statistics.fmean(unit_s[k]) / unit_points[k] for k in unit_s]
    samples = sum(len(v) for v in unit_s.values())
    print(f"latency per point: {len(latencies)} units, {samples} timed calls")
    completed = sum(sum(u["points"] for u in p["units"]) - p["failed"] for p in passes)
    return {
        "points_per_s": completed / sum(p["pass_s"] for p in passes),
        "point_s_p50": statistics.median(latencies),
        "point_s_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[8]
                        if len(latencies) > 1 else latencies[0]),
        "peak_rss_mib": max(p["rss_mib"] for p in passes),
        "setup_s": statistics.median(setups),
    }


def per_layer(untraced, traced):
    from perfbench import tracer
    per_pass = []
    for p in traced:
        per_pass.append(tracer.pass_metrics(json.loads(Path(p["spans"]).read_text())))
    metrics = tracer.mean_metrics(per_pass)
    metrics["trace.overhead_frac"] = (
        statistics.fmean(p["pass_s"] for p in traced)
        / statistics.fmean(p["pass_s"] for p in untraced) - 1.0)
    units = tracer.metric_units()
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def bench(args, work, started):
    from perfbench import workloads
    job = workloads.build_job(args.workload, args.seed, work)
    references = workloads.load_references()
    min_passes = 2 if args.trace else MIN_PASSES
    passes, setups, attempted, failed = [], [], 0, 0
    t0 = time.perf_counter()
    for i in itertools.count():
        traced = bool(args.trace) and i % 2 == 1
        pass_dir = work / f"pass{i}"
        pass_dir.mkdir()
        remaining = DEADLINE_S - (time.monotonic() - started)
        result = run_worker(dict(job, out_dir=str(pass_dir), trace=traced, pass_id=i,
                                 setup_only=False),
                            pass_dir, max(remaining, 1.0))
        points = sum(job["points"])
        attempted += points
        if result is None:
            failed += points
        else:
            result["failed"] = failed_points(args.workload, result, references)
            result["traced"] = traced
            failed += result["failed"]
            if traced:
                # keep only the spans; per-layer metrics are computed at the end
                spans = work / f"spans{i}.json"
                Path(result["spans"]).replace(spans)
                result["spans"] = str(spans)
            passes.append(result)
            setups.append(result["setup_s"])
        if not args.trace:
            for _ in range(SETUP_PROBES):
                remaining = DEADLINE_S - (time.monotonic() - started)
                probe = run_worker(dict(job, out_dir=str(pass_dir), trace=False,
                                        pass_id=i, setup_only=True),
                                   pass_dir, max(remaining, 1.0))
                if probe is not None:
                    setups.append(probe["setup_s"])
        shutil.rmtree(pass_dir)
        n = i + 1
        elapsed = time.perf_counter() - t0
        if n >= min_passes and elapsed * (n + 1) / n > args.seconds:
            break
        if time.monotonic() - started + elapsed / n > DEADLINE_S:
            break

    print("pass seconds:", " ".join(f"{p['pass_s']:.3f}{'T' if p['traced'] else ''}"
                                    for p in passes))
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not untraced or (args.trace and not traced):
        raise RuntimeError("no pass completed")
    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(untraced, setups).items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv):
    started = time.monotonic()
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"cannot run: {', '.join(missing)} missing under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        result = bench(args, work, started)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
