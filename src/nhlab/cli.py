"""Command-line entry point.

Every command reads an INI config (strict: unknown sections or keys are
rejected), computes, prints a one-line summary to stdout, and optionally
writes a CSV or JSON file.  Identical configs produce byte-identical
files: floats are emitted with repr() and complex values as paired
_re/_im columns.  Exit codes: 0 success, 2 validation error, 3 numerical
error.
"""

import argparse
import configparser
import json
import sys

import numpy as np

from . import harness
from .errors import NumericalError, ValidationError
from .gbz import gbz_contour, point_gap_residual
from .metrology import (DEFAULT_STEP, ParamSpec, cfi, cfim, current_basis,
                        model_spectrum, position_basis, probe_state, qfi, qfim,
                        state_derivative, total_variance_bound)
from .model import build_bloch, params_from_config, params_to_config
from .spectral import DEFAULT_TOL_EIG, cumulative_population
from .topology import band_winding, count_spectral_loops, line_gap_minima, spectral_winding

CSV_SCHEMA = "nhlab-csv-1"
JSON_SCHEMA = "nhlab-json-1"

KNOWN_SECTIONS = ("model", "sweep", "metrology", "topology", "scaling", "output")
SECTION_KEYS = {
    "sweep": ("axis", "start", "stop", "step", "grid", "observables"),
    "metrology": ("labels", "values", "steps", "bases"),
    "topology": ("kind", "eref_re", "eref_im", "use_gbz"),
    "scaling": ("preset", "mode", "Lgrid", "delta", "deltas", "Jgrid", "L"),
    "output": ("path", "format"),
}


def load_config(path):
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ValidationError("cannot read config %s: %s" % (path, exc))
    except configparser.Error as exc:
        raise ValidationError("malformed config %s: %s" % (path, exc))
    cfg = {name: dict(cp.items(name)) for name in cp.sections()}
    unknown = set(cfg) - set(KNOWN_SECTIONS)
    if unknown:
        raise ValidationError("unknown config sections: %s"
                              % ", ".join(sorted(unknown)))
    for name, keys in SECTION_KEYS.items():
        extra = set(cfg.get(name, ())) - set(keys)
        if extra:
            raise ValidationError("unknown keys in [%s]: %s"
                                  % (name, ", ".join(sorted(extra))))
    return cfg


def _float(section, cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ValidationError("missing key %s in [%s]" % (key, section))
        return default
    try:
        v = float(cfg[key])
    except ValueError:
        raise ValidationError("[%s] %s is not a number: %r"
                              % (section, key, cfg[key]))
    if not np.isfinite(v):
        raise ValidationError("[%s] %s must be finite" % (section, key))
    return v


def _float_list(section, cfg, key):
    if key not in cfg:
        raise ValidationError("missing key %s in [%s]" % (key, section))
    out = []
    for piece in str(cfg[key]).split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            v = float(piece)
        except ValueError:
            raise ValidationError("[%s] %s has a non-numeric entry: %r"
                                  % (section, key, piece))
        if not np.isfinite(v):
            raise ValidationError("[%s] %s must be finite" % (section, key))
        out.append(v)
    if not out:
        raise ValidationError("[%s] %s is empty" % (section, key))
    return out


def _model_params(cfg, overrides):
    model = dict(cfg.get("model", {}))
    if not model:
        raise ValidationError("config needs a [model] section")
    model.update(overrides)
    return params_from_config(model)


def _parse_overrides(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValidationError("override must look like KEY=VALUE: %r" % item)
        key, _, val = item.partition("=")
        out[key.strip()] = val.strip()
    return out


# -- emission ----------------------------------------------------------------


def _cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError("cannot write %s: %s" % (path, exc))


def emit(out, fmt, header, rows, extra=None):
    """Write the table (plus scalar extras) to out as CSV or JSON."""
    if out is None:
        return
    if fmt == "csv":
        lines = ["# schema=%s" % CSV_SCHEMA]
        if extra:
            for key in sorted(extra):
                lines.append("# %s=%s" % (key, _cell(extra[key])))
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_cell(c) for c in row))
        _write(out, "\n".join(lines) + "\n")
    elif fmt == "json":
        payload = {"schema": JSON_SCHEMA,
                   "rows": [dict(zip(header, row)) for row in rows]}
        if extra:
            payload.update(extra)
        _write(out, json.dumps(payload, sort_keys=True, indent=2,
                               default=_cell) + "\n")
    else:
        raise ValidationError("unknown output format %r" % (fmt,))


def _out_settings(args, cfg):
    section = cfg.get("output", {})
    out = args.out if args.out else section.get("path")
    fmt = args.format if args.format else section.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ValidationError("output format must be csv or json, not %r" % (fmt,))
    return out, fmt


# -- commands ----------------------------------------------------------------


def cmd_spectrum(args, cfg):
    p = _model_params(cfg, _parse_overrides(args.set))
    dec = model_spectrum(p, args.tol_eig)
    header = ("index", "value_re", "value_im", "residual")
    rows = [(i, float(v.real), float(v.imag), float(res))
            for i, (v, res) in enumerate(zip(dec.values, dec.residuals))]
    out, fmt = _out_settings(args, cfg)
    emit(out, fmt, header, rows, extra={"D": p.D, "boundary": p.boundary})
    print("spectrum: D=%d boundary=%s top_im=%s"
          % (p.D, p.boundary, repr(float(dec.values[0].imag))))
    return 0


def cmd_skin(args, cfg):
    p = _model_params(cfg, _parse_overrides(args.set))
    dec = model_spectrum(p, args.tol_eig)
    prof = cumulative_population(dec, p)
    header = ("site", "population")
    rows = [(j, float(v)) for j, v in enumerate(prof.P)]
    out, fmt = _out_settings(args, cfg)
    emit(out, fmt, header, rows,
         extra={"slope_per_module": prof.slope_per_module,
                "fit_r2": prof.fit_r2})
    print("skin: slope_per_module=%s fit_r2=%s"
          % (repr(prof.slope_per_module), repr(prof.fit_r2)))
    return 0


def cmd_gaps(args, cfg):
    p = _model_params(cfg, _parse_overrides(args.set))
    top = cfg.get("topology", {})
    use_gbz = str(top.get("use_gbz", "false")).strip().lower() in ("1", "true", "yes")
    residual = point_gap_residual(p)
    reports = line_gap_minima(p, use_gbz=use_gbz)
    header = ("kind", "min_gap", "closed")
    rows = [(rep.kind, float(rep.min_gap), bool(rep.closed)) for rep in reports]
    out, fmt = _out_settings(args, cfg)
    emit(out, fmt, header, rows, extra={"point_gap_residual": residual,
                                        "use_gbz": use_gbz})
    central = [rep for rep in reports if rep.kind == "LINE_GAP_CENTRAL"]
    print("gaps: residual=%s central_min=%s"
          % (repr(residual),
             repr(central[0].min_gap) if central else "none"))
    return 0


def cmd_winding(args, cfg):
    p = _model_params(cfg, _parse_overrides(args.set))
    top = cfg.get("topology", {})
    kind = str(top.get("kind", args.kind)).strip().lower()
    if kind == "band":
        res = band_winding(p, gbz_contour(p))
        eref = 0j
    elif kind == "spectral":
        eref = complex(_float("topology", top, "eref_re", 0.0),
                       _float("topology", top, "eref_im", 0.0))
        res = spectral_winding(p, eref)
    else:
        raise ValidationError("winding kind must be band or spectral, not %r"
                              % (kind,))
    header = ("kind", "value", "raw_phase", "eref_re", "eref_im")
    rows = [(kind, int(res.value), float(res.raw_phase),
             float(eref.real), float(eref.imag))]
    out, fmt = _out_settings(args, cfg)
    emit(out, fmt, header, rows)
    print("winding=%d" % res.value)
    return 0


def _param_spec(cfg):
    met = cfg.get("metrology", {})
    if not met:
        raise ValidationError("config needs a [metrology] section")
    labels = tuple(s.strip() for s in str(met.get("labels", "")).split(",")
                   if s.strip())
    if not labels:
        raise ValidationError("missing key labels in [metrology]")
    values = tuple(_float_list("metrology", met, "values"))
    steps = (tuple(_float_list("metrology", met, "steps"))
             if "steps" in met else (DEFAULT_STEP,) * len(labels))
    bases = tuple(s.strip() for s in str(met.get("bases", "position")).split(",")
                  if s.strip())
    return ParamSpec(labels, values, steps), bases


def _basis(name, p):
    if name == "position":
        return position_basis(p.D)
    if name == "current":
        return current_basis(p)
    raise ValidationError("unknown basis %r (position or current)" % (name,))


def cmd_qfi(args, cfg):
    p = _model_params(cfg, _parse_overrides(args.set))
    ps, bases = _param_spec(cfg)
    if ps.l != 1:
        raise ValidationError("qfi needs exactly one parameter label; "
                              "use qfim for %d" % ps.l)
    psi = probe_state(p, ps)
    dpsi = state_derivative(p, ps, 0)
    val = qfi(psi, dpsi)
    header = ["label", "value", "qfi"]
    row = [ps.labels[0], float(ps.values[0]), float(val)]
    for name in bases:
        header.append("cfi_" + name)
        row.append(float(cfi(psi, dpsi, _basis(name, p))))
    out, fmt = _out_settings(args, cfg)
    emit(out, fmt, tuple(header), [tuple(row)])
    print("qfi=%s" % repr(float(val)))
    return 0


def cmd_qfim(args, cfg):
    p = _model_params(cfg, _parse_overrides(args.set))
    ps, bases = _param_spec(cfg)
    psi = probe_state(p, ps)
    dpsis = [state_derivative(p, ps, i) for i in range(ps.l)]
    F = qfim(psi, dpsis, ps)
    bound = total_variance_bound(F)
    header = ("matrix", "row_label", "col_label", "value")
    rows = []
    for i, li in enumerate(ps.labels):
        for j, lj in enumerate(ps.labels):
            rows.append(("qfim", li, lj, float(F.entries[i, j])))
    for name in bases:
        C = cfim(psi, dpsis, _basis(name, p), ps)
        for i, li in enumerate(ps.labels):
            for j, lj in enumerate(ps.labels):
                rows.append(("cfim_" + name, li, lj, float(C.entries[i, j])))
    out, fmt = _out_settings(args, cfg)
    emit(out, fmt, header, rows,
         extra={"total_variance_bound": bound})
    print("qfim: inv_trace_bound=%s" % repr(1.0 / bound))
    return 0


def _sweep_spec(cfg, p):
    sw = cfg.get("sweep", {})
    if not sw:
        raise ValidationError("config needs a [sweep] section")
    axis = str(sw.get("axis", "")).strip()
    if "grid" in sw:
        grid = tuple(_float_list("sweep", sw, "grid"))
    else:
        start = _float("sweep", sw, "start")
        stop = _float("sweep", sw, "stop")
        step = _float("sweep", sw, "step")
        if step <= 0 or stop < start:
            raise ValidationError("[sweep] needs step > 0 and stop >= start")
        grid = tuple(np.round(np.arange(start, stop + 0.5 * step, step), 12))
    names = tuple(s.strip() for s in str(sw.get("observables", "")).split(",")
                  if s.strip())
    return harness.SweepSpec(base=p, axis=axis, grid=grid,
                             observables=frozenset(names))


def cmd_sweep(args, cfg):
    p = _model_params(cfg, _parse_overrides(args.set))
    spec = _sweep_spec(cfg, p)
    table = harness.run_sweep(spec, workers=args.threads)
    header = table.columns
    rows = [tuple(row[c] for c in header) for row in table]
    out, fmt = _out_settings(args, cfg)
    emit(out, fmt, header, rows)
    failed = sum(1 for row in table if row["error"])
    print("sweep: rows=%d failed=%d" % (len(rows), failed))
    return 0


def cmd_scaling(args, cfg):
    sc = cfg.get("scaling", {})
    if not sc:
        raise ValidationError("config needs a [scaling] section")
    name = str(sc.get("preset", "")).strip()
    mode = str(sc.get("mode", "size")).strip().lower()
    Lgrid = ([int(v) for v in _float_list("scaling", sc, "Lgrid")]
             if "Lgrid" in sc else None)
    out, fmt = _out_settings(args, cfg)
    if mode == "size":
        delta = _float("scaling", sc, "delta", 0.0)
        rows = harness.size_scaling(name, Lgrid=Lgrid, delta=delta)
        fit = harness.fit_power_law([r["N"] for r in rows],
                                    [r["value"] for r in rows])
        header = ("L", "N", "location", "value")
        emit(out, fmt, header, [tuple(r[c] for c in header) for r in rows],
             extra={"exponent": fit.exponent, "prefactor": fit.prefactor,
                    "r2": fit.r2})
        print("scaling: exponent=%s r2=%s" % (repr(fit.exponent), repr(fit.r2)))
    elif mode == "delta":
        deltas = _float_list("scaling", sc, "deltas")
        rows = harness.exponent_vs_delta(name, deltas, Lgrid=Lgrid)
        header = ("delta", "exponent", "r2")
        emit(out, fmt, header, [tuple(r[c] for c in header) for r in rows])
        print("scaling: deltas=%d b_first=%s b_last=%s"
              % (len(rows), repr(rows[0]["exponent"]), repr(rows[-1]["exponent"])))
    elif mode == "coupling":
        Jgrid = _float_list("scaling", sc, "Jgrid")
        L = int(_float("scaling", sc, "L", 50))
        rows, slope, r2 = harness.coupling_scaling(Jgrid, L=L)
        header = ("J", "location", "value")
        emit(out, fmt, header, [tuple(r[c] for c in header) for r in rows],
             extra={"exponent": slope, "r2": r2})
        print("scaling: exponent=%s r2=%s" % (repr(slope), repr(r2)))
    else:
        raise ValidationError("scaling mode must be size, delta, or coupling")
    return 0


def cmd_preset(args, cfg):
    bundle = harness.preset(args.name)
    model_cfg = params_to_config(bundle.params)
    model_cfg.update(_parse_overrides(args.set))
    p = params_from_config({str(k): str(v) for k, v in model_cfg.items()})
    loops = count_spectral_loops(p)
    ks = np.linspace(-np.pi, np.pi, 512, endpoint=False)
    vals = np.linalg.eigvals(build_bloch(p, ks))
    vals = np.take_along_axis(vals, np.lexsort((vals.imag, vals.real)), axis=-1)
    header = ("k", "band", "value_re", "value_im")
    rows = [(float(k), b, float(v.real), float(v.imag))
            for k, row in zip(ks, vals) for b, v in enumerate(row)]
    out, fmt = _out_settings(args, cfg)
    emit(out, fmt, header, rows, extra={"preset": args.name, "loops": loops})
    print("preset=%s loops=%d" % (args.name, loops))
    return 0


# -- argument parsing --------------------------------------------------------


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="INI config file")
    shared.add_argument("--out", help="output file path")
    shared.add_argument("--format", choices=("csv", "json"),
                        help="output format (default csv)")
    shared.add_argument("--threads", type=int, default=None,
                        help="sweep worker count (fallback: NHLAB_THREADS)")
    shared.add_argument("--tol-eig", type=float, default=DEFAULT_TOL_EIG,
                        help="eigensolver residual gate")
    shared.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a [model] config entry")

    ap = argparse.ArgumentParser(
        prog="nhlab",
        description="Non-Hermitian lattice toolkit: spectra, topology, sensing")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[shared],
                   help="eigenvalues of the chain").set_defaults(fn=cmd_spectrum)
    sub.add_parser("skin", parents=[shared],
                   help="site population profile and skin slope").set_defaults(fn=cmd_skin)
    sub.add_parser("gaps", parents=[shared],
                   help="line-gap minima and point-gap residual").set_defaults(fn=cmd_gaps)
    wind = sub.add_parser("winding", parents=[shared],
                          help="band or spectral winding number")
    wind.add_argument("--kind", choices=("band", "spectral"), default="band")
    wind.set_defaults(fn=cmd_winding)
    sub.add_parser("qfi", parents=[shared],
                   help="quantum/classical Fisher information").set_defaults(fn=cmd_qfi)
    sub.add_parser("qfim", parents=[shared],
                   help="Fisher information matrices").set_defaults(fn=cmd_qfim)
    sub.add_parser("sweep", parents=[shared],
                   help="observable sweep over a parameter grid").set_defaults(fn=cmd_sweep)
    sub.add_parser("scaling", parents=[shared],
                   help="power-law scaling studies").set_defaults(fn=cmd_scaling)
    pre = sub.add_parser("preset", parents=[shared],
                         help="materialize a named experiment preset")
    pre.add_argument("name", choices=harness.PRESET_NAMES)
    pre.set_defaults(fn=cmd_preset)
    return ap


NEEDS_CONFIG = ("spectrum", "skin", "gaps", "winding", "qfi", "qfim",
                "sweep", "scaling")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command in NEEDS_CONFIG:
            if not args.config:
                raise ValidationError("command %r needs --config" % args.command)
            cfg = load_config(args.config)
        else:
            cfg = {}
        return args.fn(args, cfg)
    except ValidationError as exc:
        print("error: validation: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("error: numerical: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
