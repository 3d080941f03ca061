"""Command-line entry point.

Every command reads an INI config (strict: unknown sections or keys are
rejected), computes, and returns its table as (header, rows, extra,
summary).  main alone reads the [output] settings, optionally writes the
table as a CSV or JSON file and prints the one-line summary to stdout.
Identical configs produce byte-identical files: floats are emitted with
repr() and complex values as paired _re/_im columns.  Exit codes: 0
success, 2 validation error, 3 numerical error.
"""

import argparse
import configparser
import json
import sys

import numpy as np

from . import harness
from .errors import NumericalError, ValidationError
from .gbz import contour_eigenvalues, point_gap_residual
from .metrology import (DEFAULT_STEP, ParamSpec, cfi, cfim, current_basis,
                        model_spectrum, position_basis, qfi, qfim,
                        state_derivatives, total_variance_bound)
from .model import config_float, params_from_config, params_to_config
from .spectral import cumulative_population, sort_resolution
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


def _integers(section, key, values):
    if any(v != int(v) for v in values):
        raise ValidationError("[%s] %s must hold integers" % (section, key))
    return [int(v) for v in values]


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
        return repr(float(v))  # numpy 2 spells its scalars np.float64(...)
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
    dec = model_spectrum(p)
    header = ("index", "value_re", "value_im", "residual")
    rows = [(i, float(v.real), float(v.imag), float(res))
            for i, (v, res) in enumerate(zip(dec.values, dec.residuals))]
    return (header, rows, {"D": p.D, "boundary": p.boundary},
            "spectrum: D=%d boundary=%s top_im=%s"
            % (p.D, p.boundary, repr(float(dec.values[0].imag))))


def cmd_skin(args, cfg):
    p = _model_params(cfg, _parse_overrides(args.set))
    dec = model_spectrum(p)
    prof = cumulative_population(dec, p)
    header = ("site", "population")
    rows = [(j, float(v)) for j, v in enumerate(prof.P)]
    return (header, rows,
            {"slope_per_module": prof.slope_per_module, "fit_r2": prof.fit_r2},
            "skin: slope_per_module=%s fit_r2=%s"
            % (repr(prof.slope_per_module), repr(prof.fit_r2)))


def cmd_gaps(args, cfg):
    p = _model_params(cfg, _parse_overrides(args.set))
    top = cfg.get("topology", {})
    spelled = str(top.get("use_gbz", "false")).strip().lower()
    if spelled not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValidationError("[topology] use_gbz must be 1/yes/true/on or "
                              "0/no/false/off, not %r" % (top["use_gbz"],))
    use_gbz = configparser.ConfigParser.BOOLEAN_STATES[spelled]
    residual = point_gap_residual(p)
    reports = line_gap_minima(p, use_gbz=use_gbz)
    header = ("kind", "min_gap", "closed")
    rows = [(rep.kind, float(rep.min_gap), bool(rep.closed)) for rep in reports]
    central = [rep for rep in reports if rep.kind == "LINE_GAP_CENTRAL"]
    return (header, rows, {"point_gap_residual": residual, "use_gbz": use_gbz},
            "gaps: residual=%s central_min=%s"
            % (repr(residual), repr(central[0].min_gap) if central else "none"))


def cmd_winding(args, cfg):
    p = _model_params(cfg, _parse_overrides(args.set))
    top = cfg.get("topology", {})
    kind = args.kind or str(top.get("kind", "band")).strip().lower()
    if kind == "band":
        res = band_winding(p)
        eref = 0j
    elif kind == "spectral":
        eref = complex(config_float("topology", top, "eref_re", 0.0),
                       config_float("topology", top, "eref_im", 0.0))
        res = spectral_winding(p, eref)
    else:
        raise ValidationError("winding kind must be band or spectral, not %r"
                              % (kind,))
    header = ("kind", "value", "raw_phase", "eref_re", "eref_im")
    rows = [(kind, int(res.value), float(res.raw_phase),
             float(eref.real), float(eref.imag))]
    return header, rows, None, "winding=%d" % res.value


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
    for name in bases:
        if name not in ("position", "current"):
            raise ValidationError("unknown basis %r (position or current)"
                                  % (name,))
    return ParamSpec(labels, values, steps), bases


def _basis(name, p):
    return position_basis(p.D) if name == "position" else current_basis(p)


def cmd_qfi(args, cfg):
    p = _model_params(cfg, _parse_overrides(args.set))
    ps, bases = _param_spec(cfg)
    if ps.l != 1:
        raise ValidationError("qfi needs exactly one parameter label; "
                              "use qfim for %d" % ps.l)
    psi, (dpsi,) = state_derivatives(p, ps)
    val = qfi(psi, dpsi)
    header = ["label", "value", "qfi"]
    row = [ps.labels[0], float(ps.values[0]), float(val)]
    for name in bases:
        header.append("cfi_" + name)
        row.append(float(cfi(psi, dpsi, _basis(name, p))))
    return header, [row], None, "qfi=%s" % repr(float(val))


def cmd_qfim(args, cfg):
    p = _model_params(cfg, _parse_overrides(args.set))
    ps, bases = _param_spec(cfg)
    psi, dpsis = state_derivatives(p, ps)
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
    return (header, rows, {"total_variance_bound": bound},
            "qfim: inv_trace_bound=%s" % repr(1.0 / bound))


def _sweep_spec(cfg, p):
    sw = cfg.get("sweep", {})
    if not sw:
        raise ValidationError("config needs a [sweep] section")
    axis = str(sw.get("axis", "")).strip()
    if "grid" in sw:
        grid = tuple(_float_list("sweep", sw, "grid"))
    else:
        start = config_float("sweep", sw, "start")
        stop = config_float("sweep", sw, "stop")
        step = config_float("sweep", sw, "step")
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
    failed = sum(1 for row in table if row["error"])
    return header, rows, None, "sweep: rows=%d failed=%d" % (len(rows), failed)


def cmd_scaling(args, cfg):
    sc = cfg.get("scaling", {})
    if not sc:
        raise ValidationError("config needs a [scaling] section")
    name = str(sc.get("preset", "")).strip()
    mode = str(sc.get("mode", "size")).strip().lower()
    Lgrid = (_integers("scaling", "Lgrid", _float_list("scaling", sc, "Lgrid"))
             if "Lgrid" in sc else None)
    if mode == "size":
        delta = config_float("scaling", sc, "delta", 0.0)
        if Lgrid is not None:
            harness.check_size_grid(Lgrid)
        rows = harness.size_scaling(name, Lgrid=Lgrid, delta=delta)
        fit = harness.fit_power_law([r["N"] for r in rows],
                                    [r["value"] for r in rows])
        header = ("L", "N", "location", "value")
        extra = {"exponent": fit.exponent, "prefactor": fit.prefactor,
                 "r2": fit.r2}
        summary = "scaling: exponent=%s r2=%s" % (repr(fit.exponent), repr(fit.r2))
    elif mode == "delta":
        deltas = _float_list("scaling", sc, "deltas")
        rows = harness.exponent_vs_delta(name, deltas, Lgrid=Lgrid)
        header = ("delta", "exponent", "r2")
        extra = None
        summary = ("scaling: deltas=%d b_first=%s b_last=%s"
                   % (len(rows), repr(rows[0]["exponent"]),
                      repr(rows[-1]["exponent"])))
    elif mode == "coupling":
        Jgrid = _float_list("scaling", sc, "Jgrid")
        (L,) = _integers("scaling", "L", [config_float("scaling", sc, "L", 50)])
        rows, slope, r2 = harness.coupling_scaling(Jgrid, L=L)
        header = ("J", "location", "value")
        extra = {"exponent": slope, "r2": r2}
        summary = "scaling: exponent=%s r2=%s" % (repr(slope), repr(r2))
    else:
        raise ValidationError("scaling mode must be size, delta, or coupling")
    return header, [tuple(r[c] for c in header) for r in rows], extra, summary


def cmd_preset(args, cfg):
    bundle = harness.preset(args.name)
    model_cfg = params_to_config(bundle.params)
    if bundle.params.preset is not None:
        # the preset derives Jm and JmP from JL and JR; serialized here they
        # would pin the preset's own JR against an overridden one
        for key in ("Jm_re", "Jm_im", "JmP_re", "JmP_im"):
            del model_cfg[key]
    model_cfg.update(_parse_overrides(args.set))
    p = params_from_config({str(k): str(v) for k, v in model_cfg.items()})
    loops = count_spectral_loops(p)
    ks = np.linspace(-np.pi, np.pi, 512, endpoint=False)
    vals = contour_eigenvalues(p, np.exp(1j * ks))
    # bands by Re at the sort's resolution, then Im: a mirror pair x +- iy
    # keeps its labels whatever the rounding of its two real parts
    re_key = np.round(vals.real / sort_resolution(vals))
    vals = np.take_along_axis(vals, np.lexsort((vals.imag, re_key)), axis=-1)
    header = ("k", "band", "value_re", "value_im")
    rows = [(float(k), b, float(v.real), float(v.imag))
            for k, row in zip(ks, vals) for b, v in enumerate(row)]
    return (header, rows, {"preset": args.name, "loops": loops},
            "preset=%s loops=%d" % (args.name, loops))


# -- argument parsing --------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nhlab",
        description="Non-Hermitian lattice toolkit: spectra, topology, sensing")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, config=True, model=True):
        """Subparser taking --out and --format, plus --config and --set
        unless the command reads no config file or no [model] entry."""
        cmd = sub.add_parser(name, help=help)
        if config:
            cmd.add_argument("--config", help="INI config file")
        cmd.add_argument("--out", help="output file path")
        cmd.add_argument("--format", choices=("csv", "json"),
                         help="output format (default csv)")
        if model:
            cmd.add_argument("--set", action="append", metavar="KEY=VALUE",
                             help="override a [model] config entry")
        cmd.set_defaults(fn=fn)
        return cmd

    command("spectrum", cmd_spectrum, "eigenvalues of the chain")
    command("skin", cmd_skin, "site population profile and skin slope")
    command("gaps", cmd_gaps, "line-gap minima and point-gap residual")
    command("winding", cmd_winding, "band or spectral winding number").add_argument(
        "--kind", choices=("band", "spectral"),
        help="winding kind (default: [topology] kind, else band)")
    command("qfi", cmd_qfi, "quantum/classical Fisher information")
    command("qfim", cmd_qfim, "Fisher information matrices")
    command("sweep", cmd_sweep, "observable sweep over a parameter grid").add_argument(
        "--threads", type=int, default=None,
        help="sweep worker count (fallback: NHLAB_THREADS)")
    command("scaling", cmd_scaling, "power-law scaling studies", model=False)
    command("preset", cmd_preset, "materialize a named experiment preset",
            config=False).add_argument("name", choices=harness.PRESET_NAMES)
    return ap


_parser = None  # built on the first main call, not at import


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        cfg = {}
        if hasattr(args, "config"):
            if not args.config:
                raise ValidationError("command %r needs --config" % args.command)
            cfg = load_config(args.config)
        out, fmt = _out_settings(args, cfg)
        header, rows, extra, summary = args.fn(args, cfg)
        emit(out, fmt, header, rows, extra)
        print(summary)
        return 0
    except ValidationError as exc:
        print("error: validation: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("error: numerical: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
