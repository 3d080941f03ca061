"""The four nhlab studies and the workloads made of them.

Each study is a script that a user would run: it issues one user-level
call (a library function or an in-process ``nhlab`` command) at a time
and waits for it before issuing the next.  ``__init__`` is the set-up: it
draws the jittered inputs from the seed, writes the INI configs and runs
one warm-up solve.  ``run`` is one timed pass.  ``check`` compares the
outputs of a pass with references, outside any timed section.

A workload runs one or more studies, one after the other, in each pass.
The benchmark's two workloads pair them (``sensing``: sensing_scan and
sensing_matrix; ``spectra_topology``: skin_spectra and bloch_topology), so
that each run can measure for longer within the benchmark's time budget;
each study is also a workload of its own.

Library calls go through ``nhlab.<name>`` attribute lookups at call time,
so a tracer that rebinds those names sees them.  Sizes are set so that a
pass takes a few seconds on one core; README.md gives the reasons.
"""

import contextlib
import io
import math
import os
import time

import numpy as np

import nhlab
import nhlab.cli
from nhlab.errors import NumericalError, ValidationError

FAILED = object()  # result placeholder of an operation that failed
_clock = time.perf_counter

FIG3_CRITICAL_CENTRAL = -0.5684934338081672
WARM_UP_L = 10  # the warm-up solve loads the solver paths, not the sizes


def _ini(params, **sections):
    lines = ["[model]"]
    for key, value in nhlab.params_to_config(params).items():
        lines.append("%s = %s" % (key, value if isinstance(value, str) else repr(value)))
    for section, entries in sections.items():
        lines.append("[%s]" % section)
        lines.extend("%s = %s" % item for item in entries.items())
    return "\n".join(lines) + "\n"


class Pass:
    """Operation log of one pass.

    ``call`` times one library call; ``cli`` times one ``nhlab`` command
    run in-process.  A typed error (``ValidationError``, ``NumericalError``)
    or a CLI exit code of 2 or 3 marks the operation failed; it is neither
    skipped nor retried.  Any other exception is a defect of the benchmark
    or the package and propagates.
    """

    def __init__(self, workdir):
        self.workdir = workdir
        self.ops = []  # [name, latency_s, ok, result, out_path]
        self.parts = []  # (study, first op, end op) per study of the pass

    def call(self, name, fn, *args, **kwargs):
        t0 = _clock()
        try:
            result, ok = fn(*args, **kwargs), True
        except (ValidationError, NumericalError) as exc:
            result, ok = "%s: %s" % (type(exc).__name__, exc), False
        self.ops.append([name, _clock() - t0, ok, result, None])
        return result if ok else FAILED

    def cli(self, name, argv):
        """Run ``nhlab <argv> --out <file>``; return (exit code, stdout)."""
        out_path = os.path.join(self.workdir, "out-%03d.csv" % len(self.ops))
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = _clock()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = nhlab.cli.main(list(argv) + ["--out", out_path])
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        latency = _clock() - t0
        if code not in (0, 2, 3):
            raise RuntimeError("nhlab %s exited with %r: %s"
                               % (" ".join(argv), code, stderr.getvalue()))
        text = stdout.getvalue() if code == 0 else stderr.getvalue()
        self.ops.append([name, latency, code == 0, (code, text), out_path])
        return code, text

    def unreachable(self, name, reason):
        """Record an operation whose input an earlier failure never produced."""
        self.ops.append([name, None, False, reason, None])
        return FAILED


def _csv_extras(path):
    """The ``# key=value`` header lines of an nhlab CSV file."""
    extras = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].rstrip("\n").partition("=")
            extras[key] = value
    return extras


def _csv_rows(path):
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class Study:
    name = None

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.prepare()
        self.warm_up()

    def probe(self):
        """Known defects kept out of the timed study, run once after it."""
        return []

    def write_config(self, filename, text):
        path = os.path.join(self.workdir, filename)
        with open(path, "w") as fh:
            fh.write(text)
        return path


class SensingScan(Study):
    """FIG4_HN: QFI/CFI sweep over a window of the preset grid, then the peak."""

    name = "sensing_scan"
    L = 34
    GRID_POINTS = 17
    N_CHECK = 2

    def prepare(self):
        b = nhlab.preset("FIG4_HN")
        self.base = b.resized(self.L)
        # a window of the preset grid's step around the QFI peak (near
        # -0.39), starting at a seeded offset; every point stays inside the
        # documented range [-0.6, -0.26]
        start = -0.52 + self.rng.uniform(0.0, 0.05)
        grid = np.round(start + 0.01 * np.arange(self.GRID_POINTS), 10)
        self.spec = nhlab.SweepSpec(
            base=self.base, axis="JR", grid=tuple(grid),
            observables=frozenset(("QFI", "CFI_POSITION", "CFI_CURRENT")))
        self.check_points = tuple(int(i) for i in
                                  self.rng.choice(len(grid), self.N_CHECK, replace=False))

    def warm_up(self):
        p = self.base.with_updates(L=WARM_UP_L)
        nhlab.full_spectrum(nhlab.build_hamiltonian(p))

    def run(self, pas):
        table = pas.call("run_sweep", lambda: nhlab.run_sweep(self.spec, workers=1))
        if table is FAILED:
            pas.unreachable("find_peak", "no sweep table")
        else:
            pas.call("find_peak", lambda: nhlab.find_peak(table, "QFI"))

    def check(self, pas):
        problems, errs = [], []
        table, peak = (op[3] for op in pas.ops)
        if not pas.ops[0][2]:
            return None, ["sweep failed: %s" % table]
        qfi = table.column("QFI")
        for col in ("CFI_POSITION", "CFI_CURRENT"):
            if np.any(table.column(col) > qfi * (1.0 + 1e-9)):
                problems.append("%s exceeds QFI" % col)
        for i in self.check_points:
            x = table.rows[i]["value"]
            ps = nhlab.ParamSpec(("JR",), (x,), (nhlab.DEFAULT_STEP,))
            direct = nhlab.qfi(nhlab.probe_state(self.base, ps),
                               nhlab.state_derivative(self.base, ps, 0))
            errs.append(abs(qfi[i] - direct) / direct)
        if not pas.ops[1][2]:
            problems.append("peak search failed: %s" % peak)
        else:
            xs = table.column("value")
            i = int(np.nanargmax(qfi))
            if peak.boundary or not 0 < i < len(xs) - 1 or \
                    not xs[i - 1] < peak.location < xs[i + 1]:
                problems.append("peak %r not strictly inside its bracket" % (peak,))
        return max(errs), problems


class SensingMatrix(Study):
    """FIG5_TOP and FIG5_BOTTOM Fisher matrices at criticality per size."""

    name = "sensing_matrix"
    LGRID = (34, 50, 70)
    JITTER = 1e-3  # relative, on each critical coordinate

    def prepare(self):
        self.points = []
        for name in ("FIG5_TOP", "FIG5_BOTTOM"):
            b = nhlab.preset(name)
            values = tuple(c * (1.0 + self.rng.uniform(-self.JITTER, self.JITTER))
                           for c in b.critical)
            ps = nhlab.ParamSpec(b.param_labels, values,
                                 (nhlab.DEFAULT_STEP,) * len(values))
            for L in self.LGRID:
                self.points.append((b.resized(L), ps))

    def warm_up(self):
        p = self.points[0][0].with_updates(L=WARM_UP_L)
        nhlab.full_spectrum(nhlab.build_hamiltonian(p))

    def run(self, pas):
        for base, ps in self.points:
            psi = pas.call("probe_state", nhlab.probe_state, base, ps)
            dpsis = [pas.call("state_derivative", nhlab.state_derivative, base, ps, i)
                     for i in range(ps.l)]
            if psi is FAILED or any(d is FAILED for d in dpsis):
                for op in ("qfim", "cfim_position", "total_variance_bound"):
                    pas.unreachable(op, "no state or derivative")
                continue
            F = pas.call("qfim", nhlab.qfim, psi, dpsis, ps)
            pas.call("cfim_position", lambda: nhlab.cfim(
                psi, dpsis, nhlab.position_basis(base.D), ps))
            if F is FAILED:
                pas.unreachable("total_variance_bound", "no QFIM")
            else:
                pas.call("total_variance_bound", nhlab.total_variance_bound, F)

    def check(self, pas):
        problems, errs = [], []
        # each point's cfim_position operation directly follows its qfim
        for prev, op in zip(pas.ops, pas.ops[1:]):
            if op[0] != "cfim_position" or not (op[2] and prev[2]):
                continue
            f, c = prev[3].entries, op[3].entries
            scale = np.sqrt(np.outer(np.diag(f), np.diag(f)))
            errs.append(float(np.max(np.abs(c - f) / scale)))
            # classical information never exceeds quantum information
            if np.min(np.linalg.eigvalsh(f - c)) < -1e-6 * np.max(np.abs(f)):
                problems.append("position CFIM exceeds QFIM")
        if not errs:
            return None, ["no QFIM/CFIM pair"]
        return max(errs), problems


class SkinSpectra(Study):
    """Open-boundary spectra: skin profiles and OBC gaps on large chains."""

    name = "skin_spectra"
    SKIN_L = (100, 200)
    EDGE_WINDOW = 0.1

    def prepare(self):
        hn = nhlab.preset("FIG2_HN")
        fig3 = nhlab.preset("FIG3")
        self.hn = hn.params.with_updates(JR=-2.5 + self.rng.uniform(-0.05, 0.05))
        self.skin_configs = [
            (L, self.write_config("skin-%d.ini" % L,
                                  _ini(self.hn.with_updates(L=L))))
            for L in self.SKIN_L]
        self.fig3_central = fig3.params.with_updates(
            L=200, JR=FIG3_CRITICAL_CENTRAL + self.rng.uniform(-0.01, 0.01))
        self.fig3_edge = fig3.params.with_updates(
            L=100, JR=-1.0 + self.rng.uniform(-0.05, 0.05))

    def warm_up(self):
        p = self.fig3_edge.with_updates(L=WARM_UP_L)
        nhlab.full_spectrum(nhlab.build_hamiltonian(p))

    def run(self, pas):
        for L, path in self.skin_configs:
            pas.cli("skin_L%d" % L, ["skin", "--config", path])
        pas.call("obc_central_gap", nhlab.obc_central_gap, self.fig3_central)
        pas.call("edge_states", nhlab.edge_states, self.fig3_edge, self.EDGE_WINDOW)
        pas.call("obc_side_gap", nhlab.obc_side_gap, self.fig3_edge)

    def check(self, pas):
        problems, errs = [], []
        ref = 2.0 * math.log(nhlab.gbz_radius(self.hn))
        for (name, _, ok, result, out), (L, _) in zip(pas.ops, self.skin_configs):
            if not ok:
                problems.append("%s failed: %s" % (name, result[1].strip()))
                continue
            extras = _csv_extras(out)
            slope, r2 = float(extras["slope_per_module"]), float(extras["fit_r2"])
            if not (math.isfinite(slope) and 0.0 <= r2 <= 1.0):
                problems.append("L=%d: slope %r, r2 %r" % (L, slope, r2))
            errs.append(abs(slope - ref) / abs(ref))
        for name, _, ok, result, _ in pas.ops[len(self.skin_configs):]:
            if not ok:
                continue
            if name in ("obc_central_gap", "obc_side_gap") and not result >= 0.0:
                problems.append("%s = %r" % (name, result))
            if name == "edge_states" and any(
                    not (abs(e) < self.EDGE_WINDOW and 0.9 <= w <= 1.0 + 1e-12)
                    for e, w in result):
                problems.append("edge state outside its window")
        if not errs:
            return None, problems or ["no skin slope"]
        return max(errs), problems


class BlochTopology(Study):
    """Windings, line gaps and band tables at seeded points, via the CLI."""

    name = "bloch_topology"
    # FIG3 points lie in [-2.25, 1]: below JR = -2.3 the GBZ line gap fails
    # with "ambiguous band continuation" (a known defect), and a study with
    # failing operations would not measure the same work on every seed.
    # That region is probed outside the timed section instead (``probe``).
    FIG3_RANGE = (-2.25, 1.0)
    FIG3_STRATA = 4
    FIG2_HN_RANGE = (-3.0, -1.0)
    FIG2_HN_STRATA = 3
    DEFECT_RANGE = (-2.95, -2.45)

    def prepare(self):
        self.points = []
        draws = []
        for name, (lo, hi), strata in (
                ("FIG3", self.FIG3_RANGE, self.FIG3_STRATA),
                ("FIG2_HN", self.FIG2_HN_RANGE, self.FIG2_HN_STRATA)):
            width = (hi - lo) / strata
            draws += [(name, lo + (i + self.rng.uniform()) * width)
                      for i in range(strata)]
        fig3 = nhlab.preset("FIG3").params
        self.defect_config = self.write_config("FIG3-defect-gaps.ini", _ini(
            fig3.with_updates(JR=self.rng.uniform(*self.DEFECT_RANGE)),
            topology={"use_gbz": "true"}))
        for k, (name, jr) in enumerate(draws):
            b = nhlab.preset(name)
            p = b.params.with_updates(JR=jr)
            tag = "%s-%d" % (name, k)
            kinds = ("band", "spectral") if p.r * p.d % 2 == 0 else ("spectral",)
            winding = [(kind, self.write_config(
                "%s-winding-%s.ini" % (tag, kind),
                _ini(p, topology={"kind": kind}))) for kind in kinds]
            gaps = [(use_gbz, self.write_config(
                "%s-gaps-%s.ini" % (tag, use_gbz),
                _ini(p, topology={"use_gbz": use_gbz}))) for use_gbz in ("false", "true")]
            # `nhlab preset --set` re-checks the preset's derived couplings,
            # so a moved JR must bring its consistent JmP along
            overrides = ["JR_re=%r" % p.JR.real]
            if p.preset.kind == nhlab.SHIFTED:
                overrides.append("JmP_re=%r" % p.JmP.real)
            self.points.append((name, p, winding, gaps, overrides))

    def warm_up(self):
        np.linalg.eigvals(nhlab.build_bloch(self.points[0][1], 0.1))

    def run(self, pas):
        for name, _, winding, gaps, overrides in self.points:
            for kind, path in winding:
                pas.cli("winding_" + kind, ["winding", "--config", path])
            for use_gbz, path in gaps:
                pas.cli("gaps_gbz" if use_gbz == "true" else "gaps",
                        ["gaps", "--config", path])
            argv = ["preset", name]
            for item in overrides:
                argv += ["--set", item]
            pas.cli("preset", argv)

    def check(self, pas):
        problems, errs = [], []
        for name, _, ok, result, out in pas.ops:
            if not ok:
                continue
            if name.startswith("winding"):
                for row in _csv_rows(out):
                    raw = float(row["raw_phase"])
                    want = round(raw) if row["kind"] == "spectral" else abs(round(raw))
                    if int(row["value"]) != want:
                        problems.append("winding %s != round(%r)" % (row["value"], raw))
                    errs.append(abs(raw - round(raw)))
            elif name.startswith("gaps"):
                for row in _csv_rows(out):
                    gap = float(row["min_gap"])
                    if not gap >= 0.0 or (row["closed"] == "true") != (gap < 1e-6):
                        problems.append("gap report %r" % (row,))
            elif int(_csv_extras(out)["loops"]) < 0:
                problems.append("negative loop count")
        if not errs:
            return None, problems or ["no winding"]
        return max(errs), problems

    def probe(self):
        """Run the GBZ line gap on FIG3 below JR = -2.3, where it is known to fail."""
        pas = Pass(self.workdir)
        code, text = pas.cli("gaps_gbz", ["gaps", "--config", self.defect_config])
        return [{"name": "FIG3 gaps use_gbz at JR < -2.3",
                 "outcome": "exit %d: %s" % (code, text.strip().splitlines()[-1])
                 if code else "exit 0: fixed"}]


class Workload:
    """Studies run one after the other in each pass, sharing one workdir."""

    def __init__(self, name, studies, seed, workdir):
        self.name = name
        self.workdir = workdir
        self.studies = [cls(seed, workdir) for cls in studies]

    def run(self, pas):
        for study in self.studies:
            start = len(pas.ops)
            study.run(pas)
            pas.parts.append((study.name, start, len(pas.ops)))

    def part(self, pas, name):
        """The operations of one study in a pass, as a Pass of their own."""
        for study, start, end in pas.parts:
            if study == name:
                sub = Pass(pas.workdir)
                sub.ops = pas.ops[start:end]
                return sub
        raise KeyError(name)

    def check(self, pas):
        """Per-study ``ref_err`` and the problems of every study."""
        ref_err, problems = {}, []
        for study in self.studies:
            ref_err[study.name], found = study.check(self.part(pas, study.name))
            problems += ["%s: %s" % (study.name, p) for p in found]
        return ref_err, problems

    def probe(self):
        return [defect for study in self.studies for defect in study.probe()]


STUDIES = {cls.name: cls for cls in (SensingScan, SensingMatrix,
                                     SkinSpectra, BlochTopology)}
WORKLOADS = dict(
    {name: (cls,) for name, cls in STUDIES.items()},
    sensing=(SensingScan, SensingMatrix),
    spectra_topology=(SkinSpectra, BlochTopology))


def make_workload(name, seed, workdir):
    return Workload(name, WORKLOADS[name], seed, workdir)
