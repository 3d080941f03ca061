"""Run the whole nhlab benchmark: every workload untraced, then traced.

    python3 bench/all.py [--runs 3] [--seed 1]

For each workload of BENCHMARK.json it makes ``--runs`` untraced runs with
seeds ``--seed``, ``--seed``+1, ... and prints every end-to-end metric with
its unit as the median over those runs, with the sample count.  Then one
traced run prints every per-layer metric.  Last comes the tracer's
self-test of the known work counts.  Exits non-zero if a run fails, a check
finds a wrong output, or the self-test fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = (("study_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("failed_frac", "fraction"))


def run(workload, seed, seconds, trace):
    """One run.py invocation; returns its report, or None if it failed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print("  %s seed %d --trace %d: exit code %d"
              % (workload, seed, trace, proc.returncode))
        return None
    lines = proc.stdout.splitlines()
    if trace:
        print("\n".join(line for line in lines
                        if not line.startswith(("env ", "report ", "{"))))
    return json.loads(next(line for line in lines
                           if line.startswith("report "))[len("report "):])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    seconds = BENCHMARK["run_seconds"]
    ok = True
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        print("== %s: %d untraced run(s)" % (workload, args.runs), flush=True)
        reports = [run(workload, args.seed + i, seconds, 0)
                   for i in range(args.runs)]
        ok &= all(r is not None and r["correct"] for r in reports)
        reports = [r for r in reports if r is not None]
        rows = [(name, unit, [r[name] for r in reports]) for name, unit in END_TO_END]
        for study in reports[0]["studies_s"] if reports else ():
            rows.append(("study_s[%s]" % study, "s",
                         [r["studies_s"][study] for r in reports]))
            rows.append(("ref_err[%s]" % study, "ratio",
                         [r["ref_err"][study] for r in reports
                          if r["ref_err"][study] is not None]))
        for name, unit, values in rows:
            if values:
                print("  %-30s %12.6g %-8s median of %d runs: %s"
                      % (name, statistics.median(values), unit, len(values),
                         " ".join("%.4g" % v for v in values)))
        for r in reports:
            print("  seed %d: %d passes, op_tail_s at p%.1f of %d ops, %s"
                  % (r["seed"], r["passes"], r["op_tail_percentile"],
                     r["op_count"], "correct" if r["correct"]
                     else "INCORRECT: " + "; ".join(r["problems"])))
        print("== %s: traced run" % workload, flush=True)
        report = run(workload, args.seed, seconds, 1)
        ok &= report is not None and report["correct"]
    print("== tracer self-test", flush=True)
    ok &= subprocess.run([sys.executable, str(HERE / "selftest.py")]).returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
