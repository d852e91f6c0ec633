"""One timed pass in a fresh process.

    python3 -m perfbench.worker JOB RESULT SPAWNED_AT

The job file holds the run's inputs, the output directory, whether to
trace and whether to stop after set-up; SPAWNED_AT is the monotonic time at
which the parent started this process. The result file receives the set-up
time and, unless the worker stops after set-up, the wall time of each
entry-point call, the outputs to check, the peak resident set size and, for
a traced pass, the path of its spans.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_pass(job, spawned_at):
    tracer = None
    if job["trace"]:
        from perfbench.tracer import Tracer, install
        tracer = Tracer(pass_id=job["pass_id"])
        install(tracer)
    from perfbench.workloads import load_calls
    calls = load_calls(job, job["out_dir"])
    setup_s = time.monotonic() - spawned_at
    if job["setup_only"]:
        return {"setup_s": setup_s}

    units = []
    start = time.perf_counter()
    for label, points, call in calls:
        t0 = time.perf_counter()
        try:
            output, error = call(), None
        except Exception:
            output, error = None, traceback.format_exc(limit=3)
        units.append({"label": label, "points": points, "output": output,
                      "error": error, "seconds": time.perf_counter() - t0})
    pass_s = time.perf_counter() - start

    result = {"setup_s": setup_s, "pass_s": pass_s, "units": units,
              "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["spans"] = str(Path(job["out_dir"]) / "spans.json")
        tracer.write(result["spans"])
    return result


def main(argv):
    job_path, result_path, spawned_at = argv
    job = json.loads(Path(job_path).read_text())
    Path(result_path).write_text(json.dumps(run_pass(job, float(spawned_at))))


if __name__ == "__main__":
    main(sys.argv[1:])
