"""Command-line interface: exit codes, emitted files, determinism."""

import argparse
import ast
import json
import math
import pathlib
import re

import pytest

from conftest import run_python
from nhlab import (ValidationError, cli, exponent_vs_delta, gbz_radius,
                   metrology, model_spectrum, params_from_config, preset,
                   spectral, state_derivatives)
from nhlab.cli import build_parser, main
from nhlab.model import params_to_config

HN = """\
[model]
d = 1
r = 3
L = 8
JL_re = 1.0
JR_re = -2.5
preset = RECIPROCAL_MODULAR
J_re = 2.0
"""

SSH = """\
[model]
d = 2
r = 2
L = 8
J0 = 1.25
JL_re = 1.0
JR_re = 0.0
preset = SHIFTED
J_re = 2.0
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_table(path):
    """Parse an emitted CSV back into (extras, header, rows-of-strings)."""
    extras, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            extras[key] = val
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return extras, header, rows


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_spectrum_output_is_byte_identical(tmp_path, capsys):
    ini = write(tmp_path, HN)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["spectrum", "--config", ini, "--out", str(a)]) == 0
    assert "spectrum: D=24 boundary=OBC" in capsys.readouterr().out
    assert main(["spectrum", "--config", ini, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "# schema=nhlab-csv-1"


def test_module_entry_point_runs_as_a_process(tmp_path, capsys):
    # python -m nhlab.cli is the installed nhlab script's main
    ini = write(tmp_path, HN)
    proc = run_python(["-m", "nhlab.cli", "spectrum", "--config", ini,
                       "--out", "a.csv"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert main(["spectrum", "--config", ini, "--out", str(tmp_path / "b.csv")]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    bad = write(tmp_path, HN + "JX_re = 1.0\n", "bad.ini")
    proc = run_python(["-m", "nhlab.cli", "spectrum", "--config", bad,
                       "--out", "never.csv"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: validation: unknown config keys: JX_re\n"
    assert not (tmp_path / "never.csv").exists()


def test_spectrum_csv_floats_roundtrip(tmp_path):
    ini = write(tmp_path, HN)
    out = tmp_path / "s.csv"
    main(["spectrum", "--config", ini, "--out", str(out)])
    extras, header, rows = read_table(out)
    assert header == ["index", "value_re", "value_im", "residual"]
    assert extras["D"] == "24" and extras["boundary"] == "OBC"
    cfg = {"d": "1", "r": "3", "L": "8", "JL_re": "1.0", "JR_re": "-2.5",
           "preset": "RECIPROCAL_MODULAR", "J_re": "2.0"}
    dec = model_spectrum(params_from_config(cfg))
    assert len(rows) == 24
    for row, v in zip(rows, dec.values):
        # repr() emission must reparse to the exact double
        assert float(row[1]) == v.real
        assert float(row[2]) == v.imag


def test_set_overrides_reach_the_model(tmp_path, capsys):
    ini = write(tmp_path, HN)
    assert main(["spectrum", "--config", ini, "--set", "L=4"]) == 0
    assert "spectrum: D=12" in capsys.readouterr().out
    assert main(["gaps", "--config", ini, "--set", "JR_re=-2.0"]) == 0
    out = capsys.readouterr().out
    assert "residual=0.0" in out and "central_min=none" in out


def test_skin_reports_slope(tmp_path, capsys):
    ini = write(tmp_path, HN)
    out = tmp_path / "skin.csv"
    assert main(["skin", "--config", ini, "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert line.startswith("skin: slope_per_module=")
    slope = float(line.split("slope_per_module=")[1].split()[0])
    assert slope > 0  # JL < |JR| piles the steady state to the right
    _, header, rows = read_table(out)
    assert header == ["site", "population"]
    assert len(rows) == 24


@pytest.mark.parametrize("jr, L", [(-2.5, 200), (-1e4, 100)])
def test_skin_slope_is_twice_the_log_gbz_radius(tmp_path, capsys, jr, L):
    # rho^L reaches 1e19 and 1e184 here: the raw dense solve gave 0.318
    # and 1.046 instead of 0.446 and 17.03
    ini = write(tmp_path, HN.replace("L = 8", "L = %d" % L)
                .replace("JR_re = -2.5", "JR_re = %r" % jr))
    assert main(["skin", "--config", ini]) == 0
    line = capsys.readouterr().out
    slope = float(line.split("slope_per_module=")[1].split()[0])
    cfg = {"d": "1", "r": "3", "L": str(L), "JL_re": "1.0", "JR_re": repr(jr),
           "preset": "RECIPROCAL_MODULAR", "J_re": "2.0"}
    ref = 2.0 * math.log(gbz_radius(params_from_config(cfg)))
    assert abs(slope - ref) <= 0.01 * ref


def test_winding_band(tmp_path, capsys):
    ini = write(tmp_path, SSH)
    out = tmp_path / "w.csv"
    assert main(["winding", "--config", ini, "--kind", "band",
                 "--out", str(out)]) == 0
    assert "winding=0" in capsys.readouterr().out
    _, header, rows = read_table(out)
    assert header == ["kind", "value", "raw_phase", "eref_re", "eref_im"]
    assert rows[0][0] == "band" and rows[0][1] == "0"


def test_winding_band_at_a_transition_exits_3(tmp_path, capsys):
    # the non-modular two-site chain's det(h+) vanishes on its GBZ circle
    ini = write(tmp_path, HN.replace("r = 3", "r = 2").replace("L = 8", "L = 20")
                .replace("JR_re = -2.5", "JR_re = 1.5\nJR_im = -0.5")
                .replace("RECIPROCAL_MODULAR\nJ_re = 2.0", "NON_MODULAR"))
    assert main(["winding", "--config", ini, "--kind", "band"]) == 3
    assert "at a band transition" in capsys.readouterr().err


def test_winding_kind_flag_beats_the_config(tmp_path, capsys):
    # as --out and --format beat [output], --kind beats [topology] kind
    ini = write(tmp_path, SSH + "\n[topology]\nkind = band\n")
    out = tmp_path / "w.csv"
    assert main(["winding", "--config", ini, "--kind", "spectral",
                 "--out", str(out)]) == 0
    assert read_table(out)[2][0][0] == "spectral"


def test_winding_spectral(tmp_path, capsys):
    ini = write(tmp_path, HN.replace("L = 8", "L = 8\nboundary = PBC")
                + "\n[topology]\nkind = spectral\neref_re = 0.0\neref_im = 0.0\n")
    assert main(["winding", "--config", ini]) == 0
    assert "winding=-1" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gaps_file_holds_closed_flags_and_the_gbz_mode(tmp_path, capsys, fmt):
    # FIG3 at its last bulk closing: the GBZ central gap closes, the Bloch
    # one stays open at this size
    model = params_to_config(preset("FIG3").params)
    model["JR_re"] = 0.3467746965744988
    for key in ("Jm_re", "Jm_im", "JmP_re", "JmP_im"):
        del model[key]  # SHIFTED derives them from JR
    text = "[model]\n" + "".join("%s = %s\n" % kv for kv in model.items())
    closed = {}
    for use_gbz in ("false", "true"):
        ini = write(tmp_path, text + "\n[topology]\nuse_gbz = %s\n" % use_gbz)
        out = tmp_path / ("gaps_%s.%s" % (use_gbz, fmt))
        assert main(["gaps", "--config", ini, "--format", fmt,
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("gaps: residual=")
        if fmt == "csv":
            extras, header, rows = read_table(out)
            assert extras["use_gbz"] == use_gbz
            assert header == ["kind", "min_gap", "closed"]
            assert {r[2] for r in rows} <= {"true", "false"}
            closed[use_gbz] = [r[2] == "true" for r in rows]
        else:
            payload = json.loads(out.read_text())
            assert payload["use_gbz"] is (use_gbz == "true")
            assert all(isinstance(r["closed"], bool) for r in payload["rows"])
            closed[use_gbz] = [r["closed"] for r in payload["rows"]]
    assert closed == {"false": [False, False, False],
                      "true": [False, True, False]}


@pytest.mark.parametrize("spelled, use_gbz", [
    ("on", "true"), ("YES", "true"), ("1", "true"),
    ("Off", "false"), ("no", "false"), ("0", "false")])
def test_use_gbz_reads_configparser_booleans(tmp_path, capsys, spelled,
                                             use_gbz):
    ini = write(tmp_path, SSH + "\n[topology]\nuse_gbz = %s\n" % spelled)
    out = tmp_path / "gaps.csv"
    assert main(["gaps", "--config", ini, "--out", str(out)]) == 0
    capsys.readouterr()
    assert read_table(out)[0]["use_gbz"] == use_gbz


def test_use_gbz_rejects_other_spellings(tmp_path, capsys):
    ini = write(tmp_path, SSH + "\n[topology]\nuse_gbz = maybe\n")
    out = tmp_path / "never.csv"
    assert main(["gaps", "--config", ini, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: validation: [topology] use_gbz must be "
                            "1/yes/true/on or 0/no/false/off, not 'maybe'\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["qfi", "qfim"])
def test_unknown_basis_exits_2_before_the_steady_solve(tmp_path, capsys,
                                                       monkeypatch, command):
    calls = []
    monkeypatch.setattr(cli, "state_derivatives",
                        lambda p, ps: calls.append(ps) or state_derivatives(p, ps))
    ini = write(tmp_path, HN + "\n[metrology]\nlabels = JR\nvalues = -2.5\n"
                "bases = position,positon\n")
    assert main([command, "--config", ini]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: validation: unknown basis 'positon' "
                            "(position or current)\n")
    assert captured.out == "" and calls == []


def test_qfi_emits_requested_bases(tmp_path, capsys):
    ini = write(tmp_path, """\
[model]
d = 1
r = 3
L = 16
JL_re = 1.0
JR_re = -0.39
preset = RECIPROCAL_MODULAR
J_re = 0.4

[metrology]
labels = JR
values = -0.39
bases = position,current
""")
    out = tmp_path / "q.csv"
    assert main(["qfi", "--config", ini, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("qfi=")
    _, header, rows = read_table(out)
    assert header == ["label", "value", "qfi", "cfi_position", "cfi_current"]
    assert len(rows) == 1
    q, cp, cc = (float(rows[0][i]) for i in (2, 3, 4))
    assert q > 0
    assert cp <= q * (1 + 1e-9) and cc <= q * (1 + 1e-9)


def test_qfim_json_payload(tmp_path, capsys):
    ini = write(tmp_path, """\
[model]
d = 1
r = 3
L = 10
JL_re = 1.0
JR_re = -0.2886751345948129
JR_im = 0.5
preset = RECIPROCAL_MODULAR
J_re = 0.5773502691896258

[metrology]
labels = JR_re,JR_im
values = -0.2886751345948129,0.5
""")
    out = tmp_path / "f.json"
    assert main(["qfim", "--config", ini, "--format", "json",
                 "--out", str(out)]) == 0
    assert "qfim: inv_trace_bound=" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["schema"] == "nhlab-json-1"
    assert payload["total_variance_bound"] > 0
    kinds = {r["matrix"] for r in payload["rows"]}
    assert kinds == {"qfim", "cfim_position"}
    assert len(payload["rows"]) == 8


def test_sweep_csv_and_worker_invariance(tmp_path, capsys):
    ini = write(tmp_path, HN + """
[sweep]
axis = JR
start = -2.8
stop = -2.2
step = 0.2
observables = GAP_RESIDUAL,SLOPE,QFI
""")
    a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--config", ini, "--threads", "1",
                 "--out", str(a)]) == 0
    assert "sweep: rows=4 failed=0" in capsys.readouterr().out
    assert main(["sweep", "--config", ini, "--threads", "2",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _, header, rows = read_table(a)
    assert header == ["value", "QFI", "GAP_RESIDUAL", "SLOPE", "error"]
    assert [r[0] for r in rows] == ["-2.8", "-2.6", "-2.4", "-2.2"]
    # every numeric cell, QFI's numpy scalars included, re-parses as a float
    for r in rows:
        assert r[-1] == ""
        assert all(repr(float(c)) == c for c in r[:-1])


def test_scaling_size_mode(tmp_path, capsys):
    ini = write(tmp_path, """\
[scaling]
preset = FIG4_HN
mode = size
Lgrid = 6,8,10,12
delta = 0.1
""")
    out = tmp_path / "sc.csv"
    assert main(["scaling", "--config", ini, "--out", str(out)]) == 0
    assert "scaling: exponent=" in capsys.readouterr().out
    extras, header, rows = read_table(out)
    assert header == ["L", "N", "location", "value"]
    assert "exponent" in extras and "r2" in extras
    assert len(rows) == 4


def test_scaling_delta_mode_rows_are_exponent_vs_delta(tmp_path, capsys):
    ini = write(tmp_path, """\
[scaling]
preset = FIG4_HN
mode = delta
Lgrid = 10,14,20,26
deltas = 0.05,0.1
""")
    out = tmp_path / "d.csv"
    assert main(["scaling", "--config", ini, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("scaling: deltas=2 b_first=")
    _, header, rows = read_table(out)
    assert header == ["delta", "exponent", "r2"]
    want = exponent_vs_delta("FIG4_HN", (0.05, 0.1), Lgrid=(10, 14, 20, 26))
    assert rows == [[repr(r["delta"]), repr(r["exponent"]), repr(r["r2"])]
                    for r in want]


@pytest.mark.parametrize("entry", ["mode = size\nLgrid = 10.9,12,14,16",
                                   "mode = coupling\nJgrid = 0.4,0.55\nL = 20.5"])
def test_scaling_sizes_must_be_integers(tmp_path, capsys, entry):
    ini = write(tmp_path, "[scaling]\npreset = FIG4_HN\n%s\n" % entry)
    assert main(["scaling", "--config", ini]) == 2
    assert "must hold integers" in capsys.readouterr().err


@pytest.mark.parametrize("entry, message", [
    ("preset = FIG4_HN\nmode = delta\nLgrid = 10,20,34,50\n"
     "deltas = 0.05,0.1,-0.1", "delta grid must be nonnegative"),
    ("preset = FIG4_HN\nmode = size\nLgrid = 50,34,20,10",
     "size grid must be strictly increasing"),
    ("mode = coupling\nJgrid = 0.5\nL = 10",
     "coupling fit needs at least 2 couplings"),
], ids=["negative delta", "decreasing sizes", "one coupling"])
def test_scaling_inputs_exit_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                entry, message):
    solves = []
    solve = metrology.full_spectrum
    monkeypatch.setattr(metrology, "full_spectrum",
                        lambda *a, **k: solves.append(a) or solve(*a, **k))
    ini = write(tmp_path, "[scaling]\n%s\n" % entry)
    assert main(["scaling", "--config", ini]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: validation: %s\n" % message
    assert captured.out == "" and solves == []


def test_scaling_coupling_mode(tmp_path, capsys):
    ini = write(tmp_path, """\
[scaling]
mode = coupling
Jgrid = 0.4,0.55
L = 20
""")
    assert main(["scaling", "--config", ini]) == 0
    line = capsys.readouterr().out
    slope = float(line.split("exponent=")[1].split()[0])
    assert -2.3 < slope < -1.6


def test_preset_command(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert main(["preset", "FIG2_HN", "--out", str(out)]) == 0
    assert "preset=FIG2_HN loops=3" in capsys.readouterr().out
    extras, header, rows = read_table(out)
    assert extras["loops"] == "3"
    assert header == ["k", "band", "value_re", "value_im"]
    assert len(rows) == 512 * 3


def test_preset_command_counts_loops_through_exceptional_points(tmp_path, capsys):
    # FIG4_HN's own JR sits at rho = 1, where exceptional points lie on the
    # Bloch circle; the band tracking samples finer around them
    out = tmp_path / "p.csv"
    assert main(["preset", "FIG4_HN", "--out", str(out)]) == 0
    assert "preset=FIG4_HN loops=0" in capsys.readouterr().out
    extras, _, rows = read_table(out)
    assert extras["loops"] == "0"
    assert len(rows) == 512 * 3


def test_output_section_sets_path_and_format(tmp_path, capsys):
    out = tmp_path / "via_cfg.json"
    ini = write(tmp_path, HN + "\n[output]\npath = %s\nformat = json\n" % out)
    assert main(["spectrum", "--config", ini]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["schema"] == "nhlab-json-1"
    assert len(payload["rows"]) == 24
    # the --format flag wins over the section
    assert main(["spectrum", "--config", ini, "--format", "csv"]) == 0
    capsys.readouterr()
    assert out.read_text().startswith("# schema=nhlab-csv-1")


def test_invalid_output_format_exits_2_before_computing(tmp_path, capsys,
                                                        monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "model_spectrum",
                        lambda p: calls.append(p) or model_spectrum(p))
    ini = write(tmp_path, HN + "\n[output]\nformat = xml\n")
    assert main(["spectrum", "--config", ini]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: validation: output format must be csv "
                            "or json, not 'xml'\n")
    assert captured.out == "" and calls == []
    with pytest.raises(ValidationError, match="unknown output format 'xml'"):
        cli.emit(str(tmp_path / "t.xml"), "xml", ("a",), [(1,)])


def test_validation_failures_exit_2(tmp_path, capsys):
    out = tmp_path / "never.csv"
    # config parse error
    bad = write(tmp_path, "d = 1\n", "bad.ini")
    assert main(["spectrum", "--config", bad, "--out", str(out)]) == 2
    assert "error: validation:" in capsys.readouterr().err
    assert not out.exists()
    # unknown section
    ini = write(tmp_path, HN + "\n[notasection]\nx = 1\n", "s.ini")
    assert main(["spectrum", "--config", ini, "--out", str(out)]) == 2
    # unknown key inside a known section
    ini = write(tmp_path, HN + "\n[sweep]\nnope = 3\n", "k.ini")
    assert main(["spectrum", "--config", ini, "--out", str(out)]) == 2
    # unknown model key
    ini = write(tmp_path, HN + "JX_re = 1.0\n", "m.ini")
    assert main(["spectrum", "--config", ini, "--out", str(out)]) == 2
    # config file required for model commands
    assert main(["spectrum"]) == 2
    capsys.readouterr()
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["qfi", "--config", "run.ini", "--tol-eig", "1e-30"],
    ["gaps", "--config", "run.ini", "--threads", "7"],
    ["scaling", "--config", "run.ini", "--set", "JX=1"],
    ["preset", "FIG2_HN", "--config", "run.ini"],
    ["spectrum", "--config", "run.ini", "--tol-eig", "1e-9"],
    ["skin", "--config", "run.ini", "--tol-eig", "1e-9"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_numerical_failures_exit_3(tmp_path, capsys, monkeypatch):
    out = tmp_path / "never.csv"
    ini = write(tmp_path, HN)
    # a residual gate below rounding level fails the solve
    monkeypatch.setattr(spectral, "DEFAULT_TOL_EIG", 1e-18)
    assert main(["spectrum", "--config", ini, "--out", str(out)]) == 3
    assert "error: numerical:" in capsys.readouterr().err
    assert not out.exists()
    # band winding is undefined off the two-sublevel structure: every
    # sweep point fails, which aborts the sweep before any file is written
    ini = write(tmp_path, HN + """
[sweep]
axis = JR
grid = -2.6,-2.4,-2.2
observables = WINDING_BAND
""", "w.ini")
    assert main(["sweep", "--config", ini, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
def test_non_finite_integer_keys_exit_2(tmp_path, capsys, value):
    ini = write(tmp_path, HN)
    assert main(["spectrum", "--config", ini, "--set", "L=" + value]) == 2
    assert "L must be an integer" in capsys.readouterr().err


def test_preset_overrides_move_the_derived_couplings(tmp_path, capsys):
    # SHIFTED derives JmP = JR + J: a moved JR alone moves JmP with it
    out = tmp_path / "moved.csv"
    assert main(["preset", "FIG3", "--set", "JR_re=-1.0", "--out", str(out)]) == 0
    capsys.readouterr()
    # the form that also gives the consistent JmP writes the same file
    same = tmp_path / "same.csv"
    assert main(["preset", "FIG3", "--set", "JR_re=-1.0",
                 "--set", "JmP_re=1.0", "--out", str(same)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == same.read_bytes()
    # an inconsistent JmP is still rejected
    assert main(["preset", "FIG3", "--set", "JR_re=-1.0",
                 "--set", "JmP_re=1.5"]) == 2
    assert "inconsistent with preset SHIFTED" in capsys.readouterr().err


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    # main builds its parser once per process; nothing one call parses may
    # reach the next
    ini = write(tmp_path, HN)
    outs = {}
    for tag, argv in (("fresh", ["spectrum", "--config", ini]),
                      ("set", ["spectrum", "--config", ini, "--set", "L=4",
                               "--set", "JR_re=-2.0"]),
                      ("preset", ["preset", "FIG2_HN", "--set", "L=3"]),
                      ("again", ["spectrum", "--config", ini])):
        out = tmp_path / ("%s.csv" % tag)
        assert main(argv + ["--out", str(out)]) == 0
        outs[tag] = (out.read_bytes(), capsys.readouterr().out)
    assert outs["again"] == outs["fresh"]
    assert "spectrum: D=12" in outs["set"][1]
    assert "spectrum: D=24" in outs["again"][1]
    # the preset command's --set list did not reach the spectrum call
    extras, _, rows = read_table(tmp_path / "again.csv")
    assert extras["D"] == "24" and len(rows) == 24


def test_readme_flag_table_matches_the_parser():
    # README's "Subcommand | Flags" table lists each subcommand's options
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    rows = text.split("| Subcommand")[1].split("\n\n")[0].splitlines()[2:]
    table = {}
    for line in rows:
        names, flags = line.strip("|").split("|")
        for name in re.findall(r"`(\w+)", names):
            table[name] = set(re.findall(r"`(--[\w-]+)`", flags))
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    parsed = {name: {opt for a in cmd._actions for opt in a.option_strings
                     if opt.startswith("--") and opt != "--help"}
              for name, cmd in sub.choices.items()}
    assert table == parsed


def test_only_main_writes_the_file_and_the_summary():
    # each command returns its table; main alone reads [output], emits
    # the file and prints the summary
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    callers = {"emit": set(), "print": set(), "_out_settings": set()}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in callers):
                callers[node.func.id].add(fn.name)
    assert callers == {"emit": {"main"}, "print": {"main"},
                       "_out_settings": {"main"}}


def argv(command, text, *flags):
    """main's arguments for command on a config holding text, built in the
    test's directory."""
    return lambda tmp: [command, "--config", write(tmp, text)] + list(flags)


SWEEP = HN + "\n[sweep]\naxis = JR\nobservables = PR\n"
CLI_INPUT_CHECKS = {
    "unreadable config": (lambda tmp: ["spectrum", "--config",
                                       str(tmp / "absent.ini")],
                          "cannot read config"),
    "missing number": (argv("sweep", SWEEP + "start = -2.6\n"),
                       "missing key stop in [sweep]"),
    "not a number": (argv("sweep", SWEEP + "start = abc\nstop = 1\nstep = 1\n"),
                     "[sweep] start is not a number: 'abc'"),
    "number not finite": (argv("sweep", SWEEP + "start = inf\nstop = 1\n"
                               "step = 1\n"), "[sweep] start must be finite"),
    "model number": (argv("spectrum", HN, "--set", "JR_re=abc"),
                     "[model] JR_re is not a number: 'abc'"),
    "missing list": (argv("qfi", HN + "[metrology]\nlabels = JR\n"),
                     "missing key values in [metrology]"),
    "list entry": (argv("sweep", SWEEP + "grid = -2.6,x\n"),
                   "[sweep] grid has a non-numeric entry: 'x'"),
    "list not finite": (argv("sweep", SWEEP + "grid = -2.6,inf\n"),
                        "[sweep] grid must be finite"),
    "empty list": (argv("sweep", SWEEP + "grid = ,\n"), "[sweep] grid is empty"),
    "model section": (argv("spectrum", "[output]\nformat = csv\n"),
                      "config needs a [model] section"),
    "override form": (argv("spectrum", HN, "--set", "JR_re"),
                      "override must look like KEY=VALUE: 'JR_re'"),
    "unwritable output": (lambda tmp: ["spectrum", "--config", write(tmp, HN),
                                       "--out", str(tmp / "absent" / "x.csv")],
                          "cannot write"),
    "winding kind": (argv("winding", HN + "[topology]\nkind = chern\n"),
                     "winding kind must be band or spectral, not 'chern'"),
    "metrology section": (argv("qfi", HN), "config needs a [metrology] section"),
    "metrology labels": (argv("qfi", HN + "[metrology]\nvalues = -2.5\n"),
                         "missing key labels in [metrology]"),
    "qfi labels": (argv("qfi", HN + "[metrology]\nlabels = JR,Jm\n"
                        "values = -2.5,2.0\n"),
                   "qfi needs exactly one parameter label; use qfim for 2"),
    "sweep section": (argv("sweep", HN), "config needs a [sweep] section"),
    "sweep range": (argv("sweep", SWEEP + "start = -2.4\nstop = -2.6\n"
                         "step = 0.1\n"),
                    "[sweep] needs step > 0 and stop >= start"),
    "scaling section": (argv("scaling", "[output]\nformat = csv\n"),
                        "config needs a [scaling] section"),
    "scaling mode": (argv("scaling", "[scaling]\npreset = FIG4_HN\n"
                          "mode = area\n"),
                     "scaling mode must be size, delta, or coupling"),
}


@pytest.mark.parametrize("case", list(CLI_INPUT_CHECKS))
def test_cli_input_checks_exit_2(tmp_path, capsys, case):
    make, message = CLI_INPUT_CHECKS[case]
    assert main(make(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: validation: ")
    assert message in captured.err and captured.out == ""
