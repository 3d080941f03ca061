"""Command-line interface: exit codes, emitted files, determinism."""

import json
import math

import pytest

from nhlab import gbz_radius, model_spectrum, params_from_config
from nhlab.cli import main

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


def test_winding_spectral(tmp_path, capsys):
    ini = write(tmp_path, HN.replace("L = 8", "L = 8\nboundary = PBC")
                + "\n[topology]\nkind = spectral\neref_re = 0.0\neref_im = 0.0\n")
    assert main(["winding", "--config", ini]) == 0
    assert "winding=-1" in capsys.readouterr().out


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
observables = GAP_RESIDUAL,SLOPE
""")
    a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--config", ini, "--threads", "1",
                 "--out", str(a)]) == 0
    assert "sweep: rows=4 failed=0" in capsys.readouterr().out
    assert main(["sweep", "--config", ini, "--threads", "2",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _, header, rows = read_table(a)
    assert header == ["value", "GAP_RESIDUAL", "SLOPE", "error"]
    assert [r[0] for r in rows] == ["-2.8", "-2.6", "-2.4", "-2.2"]


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


def test_numerical_failures_exit_3(tmp_path, capsys):
    out = tmp_path / "never.csv"
    ini = write(tmp_path, HN)
    assert main(["spectrum", "--config", ini, "--tol-eig", "1e-18",
                 "--out", str(out)]) == 3
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
