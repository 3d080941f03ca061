"""Experiment orchestration: sweeps, peak search, scaling fits, presets.

Everything here composes the single-shot calls from the other modules
into tables.  Rows are plain dicts so they serialize to CSV/JSON without
ceremony, and every computation is deterministic: the same spec produces
the same table, bit for bit, regardless of worker count.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import sqrt
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import DerivativeIllDefinedError, NumericalError, ValidationError
from .gbz import gbz_contour, point_gap_residual
from .metrology import (DEFAULT_STEP, PARAM_LABELS, ParamSpec, apply_params,
                        cfi, current_basis, model_spectrum, position_basis,
                        probe_state, qfi, qfim, state_derivatives,
                        total_variance_bound)
from .model import (NON_MODULAR, RECIPROCAL_MODULAR, SHIFTED, CouplingPreset,
                    make_params, params_to_config)
# full_spectrum is unused here; bench/selftest.py reads this module's binding
from .spectral import cumulative_population, full_spectrum, participation_ratio
from .topology import band_winding, spectral_winding

QFI = "QFI"
CFI_POSITION = "CFI_POSITION"
CFI_CURRENT = "CFI_CURRENT"
WINDING_BAND = "WINDING_BAND"
WINDING_SPECTRAL = "WINDING_SPECTRAL"
GAP_RESIDUAL = "GAP_RESIDUAL"
SLOPE = "SLOPE"
PR = "PR"

# canonical column order for tables and CSV emission
OBSERVABLE_ORDER = (QFI, CFI_POSITION, CFI_CURRENT, WINDING_BAND,
                    WINDING_SPECTRAL, GAP_RESIDUAL, SLOPE, PR)
OBSERVABLES = frozenset(OBSERVABLE_ORDER)
FISHER_COLUMNS = frozenset((QFI, CFI_POSITION, CFI_CURRENT))

DEFAULT_L_GRID = (10, 20, 34, 50, 70, 100)
PEAK_TOL = 1e-6
PEAK_HALFWIDTH = 0.05
PEAK_STEP = 0.01


@dataclass(frozen=True)
class SweepSpec:
    """One-axis parameter sweep: which model, which knob, which outputs."""

    base: object
    axis: str
    grid: tuple
    observables: frozenset

    def __post_init__(self):
        if self.axis not in PARAM_LABELS:
            raise ValidationError("unknown sweep axis %r (one of %s)"
                                  % (self.axis, ", ".join(PARAM_LABELS)))
        grid = tuple(float(x) for x in self.grid)
        if len(grid) == 0:
            raise ValidationError("sweep grid is empty")
        if not all(np.isfinite(grid)):
            raise ValidationError("sweep grid must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("sweep grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        obs = frozenset(self.observables)
        if not obs:
            raise ValidationError("sweep requests no observables")
        unknown = obs - OBSERVABLES
        if unknown:
            raise ValidationError("unknown observables: %s"
                                  % ", ".join(sorted(unknown)))
        object.__setattr__(self, "observables", obs)

    @property
    def columns(self):
        names = [n for n in OBSERVABLE_ORDER if n in self.observables]
        return ("value",) + tuple(names) + ("error",)


@dataclass(frozen=True)
class SweepTable:
    """Sweep output: one row per grid point, in grid order."""

    spec: SweepSpec
    rows: tuple

    @property
    def columns(self):
        return self.spec.columns

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name):
        if name not in self.columns:
            raise ValidationError("no column %r in sweep table" % (name,))
        if name == "error":
            return [row[name] for row in self.rows]
        return np.array([row[name] for row in self.rows], dtype=float)


class PeakResult(NamedTuple):
    location: float
    value: float
    boundary: bool


def _param_point(spec, x):
    ps = ParamSpec((spec.axis,), (float(x),), (DEFAULT_STEP,))
    return ps, apply_params(spec.base, ps)


def _sweep_basis(spec, names):
    """The CFI_CURRENT basis of spec's sweep when names request it, else
    None.  current_basis depends only on d, r, L and the boundary, which
    no sweep axis changes, so one basis serves every point."""
    return current_basis(spec.base) if CFI_CURRENT in names else None


def _point_values(spec, x, names, basis=None):
    """Requested observables at one grid point, sharing intermediates.

    The Fisher columns and PR share one steady solve; SLOPE reads every
    eigenvector and makes its own.  basis is the sweep's CFI_CURRENT
    basis (_sweep_basis); without it the point builds its own.
    """
    ps, q = _param_point(spec, x)
    cache = {}

    def decomposition():
        if "dec" not in cache:
            cache["dec"] = model_spectrum(q)
        return cache["dec"]

    def probe():
        if "probe" not in cache:
            try:
                cache["probe"] = state_derivatives(spec.base, ps)
            except (ValidationError, NumericalError) as exc:
                cache["probe"] = exc  # kept, so no later column repeats it
        if isinstance(cache["probe"], Exception):
            raise cache["probe"]
        return cache["probe"]

    def state():
        if not FISHER_COLUMNS.isdisjoint(names):
            try:
                return probe()[0]
            except DerivativeIllDefinedError:
                pass  # the state exists where its derivative does not
        return probe_state(spec.base, ps)

    values, errors = {}, []
    for name in [n for n in OBSERVABLE_ORDER if n in names]:
        try:
            if name == GAP_RESIDUAL:
                values[name] = point_gap_residual(q)
            elif name == WINDING_BAND:
                values[name] = float(band_winding(q, gbz_contour(q)).value)
            elif name == WINDING_SPECTRAL:
                values[name] = float(spectral_winding(q, 0j).value)
            elif name == SLOPE:
                values[name] = cumulative_population(decomposition(), q).slope_per_module
            elif name == PR:
                values[name] = participation_ratio(state())
            elif name == QFI:
                psi, (dpsi,) = probe()
                values[name] = qfi(psi, dpsi)
            elif name == CFI_POSITION:
                psi, (dpsi,) = probe()
                values[name] = cfi(psi, dpsi, position_basis(q.D))
            elif name == CFI_CURRENT:
                psi, (dpsi,) = probe()
                values[name] = cfi(psi, dpsi, basis or current_basis(q))
        except (ValidationError, NumericalError) as exc:
            values[name] = float("nan")
            errors.append("%s: %s" % (name, exc))
    return values, "; ".join(errors)


def _sweep_row(spec, basis, x):
    values, error = _point_values(spec, x, spec.observables, basis)
    row = {"value": float(x)}
    row.update(values)
    row["error"] = error
    return row


_worker_sweep = None  # (spec, basis) of the sweep a pool worker serves


def _start_worker(spec):
    global _worker_sweep
    _worker_sweep = (spec, _sweep_basis(spec, spec.observables))


def _worker_row(x):
    return _sweep_row(*_worker_sweep, x)


def _worker_count(workers):
    if workers is None:
        workers = os.environ.get("NHLAB_THREADS", "1")
    try:
        workers = int(workers)
    except (TypeError, ValueError):
        raise ValidationError("worker count must be an integer")
    return max(1, workers)


def run_sweep(spec, workers=None):
    """Evaluate the sweep, one row per grid point, in grid order.

    Rows never vanish: a point whose observable fails carries NaN and an
    error tag instead.  More than 10% failed points aborts the sweep.
    """
    n = _worker_count(workers)
    if n == 1 or len(spec.grid) == 1:
        basis = _sweep_basis(spec, spec.observables)
        rows = [_sweep_row(spec, basis, x) for x in spec.grid]
    else:
        # each worker builds the sweep's constants once
        with ProcessPoolExecutor(max_workers=n, initializer=_start_worker,
                                 initargs=(spec,)) as pool:
            rows = list(pool.map(_worker_row, spec.grid, chunksize=1))
    failed = [row for row in rows if row["error"]]
    if len(failed) > 0.1 * len(rows):
        raise NumericalError(
            "%d of %d sweep points failed; first: %s"
            % (len(failed), len(rows), failed[0]["error"]))
    return SweepTable(spec=spec, rows=tuple(rows))


def find_peak(table, column):
    """Locate the maximum of a sweep column.

    The coarse argmax over valid rows is refined inside its neighbours'
    bracket by Brent's bounded search (scipy's minimize_scalar), down to
    PEAK_TOL in parameter units, never ending below the coarse argmax.  A
    maximum sitting on the grid boundary cannot be bracketed and is
    returned unrefined with boundary=True.
    """
    if column not in table.columns or column in ("value", "error"):
        raise ValidationError("cannot search for a peak in column %r" % (column,))
    xs = table.column("value")
    ys = table.column(column)
    ok = np.isfinite(ys)
    xs, ys = xs[ok], ys[ok]
    if len(xs) < 3:
        raise ValidationError("peak search needs at least 3 valid points")
    i = int(np.argmax(ys))
    if i == 0 or i == len(xs) - 1:
        return PeakResult(location=float(xs[i]), value=float(ys[i]), boundary=True)

    basis = _sweep_basis(table.spec, (column,))

    def f(x):
        values, error = _point_values(table.spec, x, (column,), basis)
        if error:
            raise NumericalError("peak refinement failed at %r: %s" % (x, error))
        return values[column]

    res = minimize_scalar(lambda x: -f(x), method="bounded",
                          bounds=(float(xs[i - 1]), float(xs[i + 1])),
                          options={"xatol": PEAK_TOL})
    loc, val = float(res.x), -float(res.fun)
    if val < ys[i]:  # no probe beat the coarse argmax
        loc, val = float(xs[i]), float(ys[i])
    return PeakResult(location=loc, value=val, boundary=False)


@dataclass(frozen=True)
class ScalingFit:
    """Power law y = prefactor * N^exponent fitted on log-log axes."""

    exponent: float
    prefactor: float
    r2: float
    Ngrid: tuple

    def __post_init__(self):
        if not -1e-12 <= self.r2 <= 1.0 + 1e-12:
            raise ValidationError("r2 outside [0, 1]: %r" % (self.r2,))
        object.__setattr__(self, "r2", min(max(self.r2, 0.0), 1.0))
        grid = tuple(int(n) for n in self.Ngrid)
        if len(grid) < 4:
            raise ValidationError("scaling fit needs at least 4 sizes")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("size grid must be strictly increasing")
        object.__setattr__(self, "Ngrid", grid)


def _loglog_fit(x, y):
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(np.exp(intercept)), r2


def fit_power_law(N, y):
    """Least-squares power law through (N, y), both entrywise positive."""
    N = np.asarray(N, dtype=float)
    y = np.asarray(y, dtype=float)
    if N.shape != y.shape or N.ndim != 1:
        raise ValidationError("size and value lists must match one-to-one")
    if not (np.all(np.isfinite(N)) and np.all(np.isfinite(y))):
        raise ValidationError("power-law fit needs finite data")
    if np.any(y <= 0) or np.any(N <= 0):
        raise ValidationError("power-law fit needs positive data")
    slope, prefactor, r2 = _loglog_fit(N, y)
    return ScalingFit(exponent=slope, prefactor=prefactor, r2=r2,
                      Ngrid=tuple(int(round(n)) for n in N))


# -- presets -----------------------------------------------------------------

FIG2_HN = "FIG2_HN"
FIG2_SSH = "FIG2_SSH"
FIG3 = "FIG3"
FIG4_HN = "FIG4_HN"
FIG4_SSH = "FIG4_SSH"
FIG5_TOP = "FIG5_TOP"
FIG5_BOTTOM = "FIG5_BOTTOM"

PRESET_NAMES = (FIG2_HN, FIG2_SSH, FIG3, FIG4_HN, FIG4_SSH,
                FIG5_TOP, FIG5_BOTTOM)


@dataclass(frozen=True)
class PresetBundle:
    """A named model family: base parameters plus its sweep conventions.

    ``critical`` holds the coordinates (along ``param_labels``) where the
    point gap closes; single-axis bundles also carry a default sweep
    grid and, where meaningful, a non-modular twin for comparison runs.
    """

    name: str
    params: object
    param_labels: tuple
    critical: tuple
    axis: str = None
    grid: tuple = None
    Lgrid: tuple = DEFAULT_L_GRID
    contrast: object = None
    notes: str = ""

    def sweep(self, observables, grid=None):
        if self.axis is None:
            raise ValidationError("preset %s has no sweep axis" % self.name)
        return SweepSpec(base=self.params, axis=self.axis,
                         grid=self.grid if grid is None else grid,
                         observables=frozenset(observables))

    def contrast_sweep(self, observables, grid=None):
        if self.contrast is None:
            raise ValidationError("preset %s has no contrast model" % self.name)
        return SweepSpec(base=self.contrast, axis=self.axis,
                         grid=self.grid if grid is None else grid,
                         observables=frozenset(observables))

    def resized(self, L):
        return self.params.with_updates(L=int(L))


def _grid(a, b, step):
    return tuple(np.round(np.arange(a, b + 0.5 * step, step), 10).tolist())


def preset(name):
    """Parameter bundle for one of the named experiment families."""
    if name == FIG2_HN:
        p = make_params(d=1, r=3, L=50, JL=1.0, JR=-2.5,
                        preset=CouplingPreset(RECIPROCAL_MODULAR, 2.0))
        q = make_params(d=1, r=3, L=50, JL=1.0, JR=-2.5,
                        preset=CouplingPreset(NON_MODULAR))
        return PresetBundle(
            name=name, params=p, param_labels=("JR",), critical=(-2.0,),
            axis="JR", grid=_grid(-3.0, -1.0, 0.1), contrast=q,
            notes="three-band nonreciprocal chain, modular couplings 2 and 1/2")
    if name == FIG2_SSH:
        p = make_params(d=2, r=2, L=50, J0=2.0, JL=1.0, JR=1.2,
                        preset=CouplingPreset(SHIFTED, 0.5))
        return PresetBundle(
            name=name, params=p, param_labels=("JR",), critical=(-1.5,),
            axis="JR", grid=_grid(-2.5, 1.2, 0.1),
            notes="two-sublevel chain, module couplings shifted by 0.5")
    if name == FIG3:
        p = make_params(d=2, r=2, L=50, J0=1.25, JL=1.0, JR=0.0,
                        preset=CouplingPreset(SHIFTED, 2.0))
        crit = tuple(sorted((0.3467746965744988, -0.5684934338081672,
                             -1.431506566191833, -2.346774696574499)))
        return PresetBundle(
            name=name, params=p, param_labels=("JR",), critical=crit,
            axis="JR", grid=_grid(-3.0, 1.0, 0.05),
            notes="band-topology family; critical lists the bulk gap closings")
    if name == FIG4_HN:
        p = make_params(d=1, r=3, L=50, JL=1.0, JR=-0.4,
                        preset=CouplingPreset(RECIPROCAL_MODULAR, 0.4))
        q = make_params(d=1, r=3, L=50, JL=1.0, JR=-0.4,
                        preset=CouplingPreset(NON_MODULAR))
        # grid stops at -0.26: beyond it the two largest-imaginary-part
        # eigenvalues merge on the imaginary axis and the steady state
        # (hence the QFI) stops being well defined
        return PresetBundle(
            name=name, params=p, param_labels=("JR",), critical=(-0.4,),
            axis="JR", grid=_grid(-0.6, -0.26, 0.01), contrast=q,
            notes="single-parameter sensing family, modular couplings 0.4 and 2.5")
    if name == FIG4_SSH:
        p = make_params(d=2, r=2, L=50, J0=2.0, JL=1.0, JR=-1.5,
                        preset=CouplingPreset(SHIFTED, 0.5))
        return PresetBundle(
            name=name, params=p, param_labels=("JR",), critical=(-1.5,),
            axis="JR", grid=_grid(-1.7, -1.3, 0.01),
            notes="single-parameter sensing on the two-sublevel chain")
    if name == FIG5_TOP:
        j = 1.0 / sqrt(3.0)
        p = make_params(d=1, r=3, L=100, JL=1.0,
                        JR=complex(-1.0 / sqrt(12.0), 0.5),
                        preset=CouplingPreset(RECIPROCAL_MODULAR, j))
        return PresetBundle(
            name=name, params=p, param_labels=("JR_re", "JR_im"),
            critical=(-1.0 / sqrt(12.0), 0.5),
            notes="two-parameter sensing at a complex-coupling critical point")
    if name == FIG5_BOTTOM:
        p = make_params(d=1, r=3, L=100, JL=1.0, JR=-0.2,
                        Jm=0.012, JmP=0.3)
        return PresetBundle(
            name=name, params=p, param_labels=("JR", "Jm", "JmP"),
            critical=(-0.2, 0.012, 0.3),
            notes="three-parameter sensing with explicit module couplings")
    raise ValidationError("unknown preset %r (one of %s)"
                          % (name, ", ".join(PRESET_NAMES)))


def preset_manifest():
    """Structured text listing every preset's parameters, for audit."""
    lines = []
    for name in PRESET_NAMES:
        b = preset(name)
        lines.append("[%s]" % name)
        for key, val in params_to_config(b.params).items():
            lines.append("%s = %s" % (key, val))
        lines.append("param_labels = %s" % ",".join(b.param_labels))
        lines.append("critical = %s" % ",".join(repr(c) for c in b.critical))
        if b.axis is not None:
            lines.append("axis = %s" % b.axis)
            lines.append("grid_min = %r" % (b.grid[0],))
            lines.append("grid_max = %r" % (b.grid[-1],))
            lines.append("grid_points = %d" % len(b.grid))
        lines.append("Lgrid = %s" % ",".join(str(l) for l in b.Lgrid))
        if b.notes:
            lines.append("notes = %s" % b.notes)
        lines.append("")
    return "\n".join(lines)


def _resolve(bundle_or_name):
    if isinstance(bundle_or_name, PresetBundle):
        return bundle_or_name
    return preset(bundle_or_name)


def _critical_spec(labels, critical):
    return ParamSpec(labels, tuple(critical), (DEFAULT_STEP,) * len(labels))


def _peak_near(base, axis, center):
    """QFI peak over center +- PEAK_HALFWIDTH, sampled every PEAK_STEP."""
    spec = SweepSpec(base=base, axis=axis,
                     grid=_grid(center - PEAK_HALFWIDTH, center + PEAK_HALFWIDTH,
                                PEAK_STEP),
                     observables=frozenset((QFI,)))
    return find_peak(run_sweep(spec), QFI)


def size_scaling(bundle_or_name, Lgrid=None, delta=0.0):
    """Peak (or fixed-point) QFI per system size for a one-axis preset.

    With ``delta`` = 0 the QFI is maximized over the sweep axis near the
    critical value at every size.  A nonzero ``delta`` instead evaluates
    at the fixed point critical - delta, which is what the exponent
    degradation study needs.
    """
    b = _resolve(bundle_or_name)
    if b.axis is None:
        raise ValidationError("size_scaling needs a one-axis preset")
    center = b.critical[0] - float(delta)
    rows = []
    for L in (b.Lgrid if Lgrid is None else Lgrid):
        base = b.resized(L)
        if delta == 0.0:
            peak = _peak_near(base, b.axis, center)
            loc, val = peak.location, peak.value
        else:
            ps = ParamSpec((b.axis,), (center,), (DEFAULT_STEP,))
            psi, (dpsi,) = state_derivatives(base, ps)
            loc, val = center, qfi(psi, dpsi)
        rows.append({"L": int(L), "N": int(base.r * L),
                     "location": float(loc), "value": float(val)})
    return rows


def matrix_size_scaling(bundle_or_name, Lgrid=None):
    """QFIM diagonal, eigenvalues and total-variance bound per size.

    Every row is evaluated at the critical point; ``F_eigenvalues`` holds
    the QFIM eigenvalues in ascending order.
    """
    b = _resolve(bundle_or_name)
    rows = []
    for L in (b.Lgrid if Lgrid is None else Lgrid):
        base = b.resized(L)
        ps = _critical_spec(b.param_labels, b.critical)
        F = qfim(*state_derivatives(base, ps), ps)
        row = {"L": int(L), "N": int(base.r * L)}
        for i, lab in enumerate(b.param_labels):
            row["F_" + lab] = float(F.entries[i, i])
        row["F_eigenvalues"] = tuple(float(w) for w in np.linalg.eigvalsh(F.entries))
        row["inv_trace_bound"] = 1.0 / total_variance_bound(F)
        rows.append(row)
    return rows


def exponent_vs_delta(bundle_or_name, delta_grid, Lgrid=None):
    """Scaling exponent of the QFI as the knob moves off criticality."""
    b = _resolve(bundle_or_name)
    rows = []
    for delta in delta_grid:
        delta = float(delta)
        if delta < 0:
            raise ValidationError("delta grid must be nonnegative")
        data = size_scaling(b, Lgrid=Lgrid, delta=delta)
        fit = fit_power_law([row["N"] for row in data],
                            [row["value"] for row in data])
        rows.append({"delta": delta, "exponent": fit.exponent, "r2": fit.r2})
    return rows


def coupling_scaling(Jgrid, L=50):
    """Peak QFI against the module-coupling strength J.

    Each J gets its own reciprocal-modular family (d=1, r=3, JL=1) whose
    critical point sits at -J; its peak is searched by _peak_near over
    -J +- PEAK_HALFWIDTH.  The returned fit is the log-log slope of peak
    value against J.
    """
    Jgrid = [float(J) for J in Jgrid]
    if any(J <= 0 for J in Jgrid):
        raise ValidationError("coupling grid must be positive")
    if any(b <= a for a, b in zip(Jgrid, Jgrid[1:])):
        raise ValidationError("coupling grid must be strictly increasing")
    rows = []
    for J in Jgrid:
        base = make_params(d=1, r=3, L=L, JL=1.0, JR=-J,
                           preset=CouplingPreset(RECIPROCAL_MODULAR, J))
        peak = _peak_near(base, "JR", -J)
        rows.append({"J": J, "location": peak.location, "value": peak.value})
    slope, prefactor, r2 = _loglog_fit([row["J"] for row in rows],
                                       [row["value"] for row in rows])
    return rows, slope, r2
