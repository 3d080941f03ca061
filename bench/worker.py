"""Workload process of the nhlab benchmark.

Started by run.py, one process per set-up sample.  It imports nhlab from
the checkout's ``src``, builds the workload's inputs from the seed, runs
one warm-up solve and prints ``{"ready": ...}``.  With ``--setup-only`` it
stops there.  Otherwise it runs timed study passes for ``--seconds``,
checks the outputs of the first pass outside the timed section, runs
the workload's probes of known defects, and prints one JSON result line.
The end-to-end timings are the median untraced pass and each operation's
median latency across those passes.

With ``--trace 1`` untraced and traced passes alternate, so the per-layer
numbers come with the tracing overhead measured in the same process.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import nhlab  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Pass, make_workload  # noqa: E402

MIN_PASSES = 3
TAIL_BEYOND = 10


def tail(latencies):
    """Latency with exactly TAIL_BEYOND operations beyond it, and its percentile.

    That is the highest percentile with at least ten samples beyond it.
    Below twice that many operations such a percentile would sit at or
    below the median, so the maximum is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _feed(h, obj):
    """Hash a library result: array bytes, dataclass fields, exact reprs."""
    if isinstance(obj, numpy.ndarray):
        h.update(("%s%s" % (obj.dtype, obj.shape)).encode())
        h.update(numpy.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        _feed(h, sorted(obj.items(), key=lambda kv: repr(kv[0])))
    elif isinstance(obj, (set, frozenset)):
        _feed(h, sorted(obj, key=repr))
    else:
        h.update(repr(obj).encode())


def op_medians(passes):
    """Median latency per operation name, for the report."""
    by_name = {}
    for _, pas in passes:
        for name, latency, *_ in pas.ops:
            if latency is not None:
                by_name.setdefault(name, []).append(latency)
    return {name: statistics.median(v) for name, v in by_name.items()}


def pass_digests(pas):
    """One digest per operation: its outcome, its result and its output file."""
    digests = []
    for name, _, ok, result, out in pas.ops:
        h = hashlib.sha256(("%s|%s|" % (name, ok)).encode())
        _feed(h, result)
        if out is not None and os.path.exists(out):
            with open(out, "rb") as fh:
                h.update(fh.read())
            os.remove(out)
        digests.append(h.hexdigest())
    return digests


def environment():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS", "NHLAB_THREADS")},
    }


def emit(payload):
    print(json.dumps(payload), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if Path(nhlab.__file__).resolve().parent != ROOT / "src" / "nhlab":
        raise SystemExit("nhlab imported from %s, not from the checkout"
                         % nhlab.__file__)

    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="nhlab-", dir=build_dir)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        emit({"ready": True, "env": environment()})
        if args.setup_only:
            return 0
        emit(measure(workload, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure(workload, args):
    tracer = Tracer() if args.trace else None
    untraced, traced = [], []  # (wall time, Pass) per pass
    traced_self = []  # sum of all self times, per traced pass
    reference = None
    mismatches = 0
    start = time.perf_counter()
    # A pass starts while the run would end nearer to --seconds with it
    # than without it, so a run measures for --seconds give or take half a
    # pass.
    while (len(untraced) + len(traced) < MIN_PASSES
           or time.perf_counter() - start + 0.5 * statistics.median(
               wall for wall, _ in untraced + traced) < args.seconds):
        tracing = tracer is not None and len(untraced) > len(traced)
        pas = Pass(workload.workdir)
        if tracing:
            self_before = tracer.self_total()
            tracer.install()
        try:
            t0 = time.perf_counter()
            workload.run(pas)
            wall = time.perf_counter() - t0
        finally:
            if tracing:
                tracer.uninstall()
        if tracing:
            traced.append((wall, pas))
            traced_self.append(tracer.self_total() - self_before)
        else:
            untraced.append((wall, pas))
        if reference is None:
            ref_err, problems = workload.check(pas)  # reads the output files
            reference = pass_digests(pas)
        else:
            mismatches += sum(a != b for a, b in zip(reference, pass_digests(pas)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = untraced + traced
    attempted = sum(len(p.ops) for _, p in passes)
    failed = sum(not op[2] for _, p in passes for op in p.ops)
    if mismatches:
        problems.append("%d operation outputs differ between passes" % mismatches)
    ops_per_pass = len(untraced[0][1].ops)
    # The shared machine slows for tens of seconds at a time.  Medians over
    # the passes of a run move less with it than the fastest pass does:
    # replaying 172 bloch_topology passes from a two-core Xeon host, the
    # fastest pass of a 20-s window spread 0.30 from window to window, the
    # median pass 0.15.
    study_s = statistics.median(wall for wall, _ in untraced)
    latencies = [statistics.median(reps) for reps in
                 zip(*([op[1] for op in p.ops] for _, p in untraced))
                 if None not in reps]
    studies_s = {name: statistics.median(
        sum(op[1] for op in workload.part(p, name).ops if op[1] is not None)
        for _, p in untraced) for name, _, _ in untraced[0][1].parts}
    known_defects = workload.probe()  # after the timed passes, untimed
    tail_s, tail_q = tail(latencies)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "ops_per_pass": ops_per_pass,
        "attempted": attempted,
        "failed": failed + mismatches,
        "correct": not problems and None not in ref_err.values(),
        "problems": problems,
        "ref_err": ref_err,
        "failed_frac": (failed + mismatches) / attempted,
        "study_s": study_s,
        # the median over passes of each study's summed operation latencies
        "studies_s": studies_s,
        # the lower median is one measured latency, never the average of two
        # operations of different kinds
        "op_p50_s": statistics.median_low(latencies),
        "op_tail_s": tail_s,
        "op_tail_percentile": tail_q,
        "op_count": len(latencies),
        "pass_s": [wall for wall, _ in untraced],
        "op_medians_s": op_medians(untraced),
        "peak_rss_mb": rss_mb,
        "known_defects": known_defects,
    }
    if tracer is not None:
        order = sorted(range(len(traced)), key=lambda i: traced[i][0])
        middle = order[(len(order) - 1) // 2]  # the lower median traced pass
        traced_s = traced[middle][0]
        layers = tracer.metrics(len(traced), ops_per_pass * len(traced),
                                study_s, traced_s, traced_self[middle])
        result["layers"] = {k: v for k, (v, _) in layers.items()}
        result["layer_units"] = {k: u for k, (_, u) in layers.items()}
        result["traced_study_s"] = traced_s
        result["missing_functions"] = tracer.missing
    return result


if __name__ == "__main__":
    sys.exit(main())
