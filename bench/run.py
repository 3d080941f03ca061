"""nhlab benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload sensing --seed 1 --seconds 50 --trace 0

Runs from any directory; it benchmarks the nhlab sources in ``src/`` next
to this directory.  The workload runs in child processes (worker.py) with
BLAS pinned to one thread.  Set-up is measured SETUP_SAMPLES times, each
in a fresh process, from spawn to the worker's ready line; the last of
those processes goes on to run the timed passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace
1``.  The lines before it give the environment and the full report.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "NHLAB_THREADS": "1"}

# the end-to-end metrics of BENCHMARK.json; the report also carries
# op_p50_s, op_tail_s, failed_frac, ref_err and each study's time
END_TO_END_UNITS = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn(args, deadline, setup_only):
    """Start one worker; return (set-up seconds, ready payload, result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED_THREADS)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=str(ROOT))
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready_line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise RuntimeError("worker exited with code %s" % code)
    ready = json.loads(ready_line)
    result = json.loads(rest.strip().splitlines()[-1]) if not setup_only else None
    return setup_s, ready, result


def main(argv=None):
    ap = argparse.ArgumentParser(description="nhlab benchmark (one workload)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "nhlab" / "__init__.py").is_file():
        print("error: no nhlab sources at %s" % (ROOT / "src" / "nhlab"),
              file=sys.stderr)
        return 2

    setups = []
    for i in range(SETUP_SAMPLES):
        try:
            setup_s, ready, result = spawn(args, deadline,
                                           setup_only=i < SETUP_SAMPLES - 1)
        except (RuntimeError, ValueError, IndexError) as exc:
            print("error: %s workload: %s" % (args.workload, exc), file=sys.stderr)
            return 1
        setups.append(setup_s)

    env = dict(ready["env"], nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)), cpu=cpu_model())
    print("env " + json.dumps(env, sort_keys=True))
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    print("report " + json.dumps(result, sort_keys=True))
    print_summary(result)

    if args.trace:
        metrics = {k: {"value": v, "unit": result["layer_units"][k]}
                   for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": result[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def print_summary(r):
    print("workload %s seed %d: %d untraced pass(es), %d traced, %d ops per pass"
          % (r["workload"], r["seed"], r["passes"], r["traced_passes"],
             r["ops_per_pass"]))
    print("  study_s      %10.4f s   median of %d passes"
          % (r["study_s"], r["passes"]))
    print("  op_p50_s     %10.4f s   lower median of %d ops, each its median run"
          % (r["op_p50_s"], r["op_count"]))
    print("  op_tail_s    %10.4f s   p%.1f of those %d ops"
          % (r["op_tail_s"], r["op_tail_percentile"], r["op_count"]))
    print("  setup_s      %10.4f s   median of %d set-ups"
          % (r["setup_s"], len(r["setup_samples"])))
    print("  peak_rss_mb  %10.1f MB" % r["peak_rss_mb"])
    print("  failed_frac  %10.4f     %d of %d ops"
          % (r["failed_frac"], r["failed"], r["attempted"]))
    for name, seconds in r["studies_s"].items():
        print("  study %-16s %8.4f s   median of its summed op latencies" % (name, seconds))
    for name, err in r["ref_err"].items():
        print("  ref_err %-16s %10.3e" % (name, err if err is not None else float("nan")))
    print("  %s" % ("correct" if r["correct"] else "INCORRECT: " + "; ".join(r["problems"])))
    for defect in r["known_defects"]:
        print("  known defect: %s -> %s" % (defect["name"], defect["outcome"]))
    if "layers" in r:
        for key, value in r["layers"].items():
            if value:
                print("  %-44s %14.6g %s" % (key, value, r["layer_units"][key]))


if __name__ == "__main__":
    sys.exit(main())
