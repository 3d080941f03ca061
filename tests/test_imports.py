"""Every name a package module imports is used in that module, every
name it defines is referenced somewhere in the package or the tests and
defined in no other package module, and importing nhlab loads no scipy subpackage beyond scipy.linalg until a
function that needs one runs."""

import ast
import json
from pathlib import Path

import nhlab
from conftest import run_python
from nhlab import params_to_config, preset

# loaded only inside the functions that use them, or, for scipy.optimize,
# by no function at all (find_peak's Brent search is the package's own);
# the tests' own imports load some of them, so each check runs in a fresh
# process
DEFERRED = ("scipy.optimize", "scipy.spatial", "scipy.fft", "scipy.sparse",
            "scipy.special")

# names a module imports only so that others can reach them through it:
# bench/selftest.py reads harness.full_spectrum
REEXPORTED = {("harness", "full_spectrum")}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_imports():
    unused = []
    for path in sorted(Path(nhlab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name in imported_names(tree):
            if name not in used and (path.stem, name) not in REEXPORTED:
                unused.append("%s: %s" % (path.name, name))
    assert not unused, "unused imports: %s" % ", ".join(unused)


def module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def test_every_module_level_name_is_referenced():
    # a reference is a read of the name, or of an attribute so called,
    # anywhere in the package or the tests; an import alone is not one
    package = Path(nhlab.__file__).parent
    files = sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    referenced = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dead = []
    for path in sorted(package.glob("*.py")):
        for name in module_level_names(ast.parse(path.read_text())):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in referenced:
                dead.append("%s: %s" % (path.name, name))
    assert not dead, "names nothing references: %s" % ", ".join(dead)


def test_no_module_level_name_is_defined_twice():
    # a name defined in two modules reads as one helper where there are two
    where = {}
    for path in sorted(Path(nhlab.__file__).parent.glob("*.py")):
        for name in set(module_level_names(ast.parse(path.read_text()))):
            where.setdefault(name, []).append(path.stem)
    twice = sorted("%s (%s)" % (name, ", ".join(mods))
                   for name, mods in where.items() if len(mods) > 1)
    assert not twice, "names defined in more than one module: %s" % ", ".join(twice)


COMMANDS = """
import json
import sys

import nhlab
import nhlab.cli

config = sys.argv[1]
codes = {name: nhlab.cli.main([name, "--config", config, "--out", name + ".csv"])
         for name in ("spectrum", "skin", "winding", "qfi")}
print(json.dumps({"codes": codes,
                  "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""


def test_model_commands_load_no_deferred_subpackage(tmp_path):
    # spectrum, skin, winding and qfi (position basis) on FIG4_HN at L = 34
    p = preset("FIG4_HN").resized(34)
    lines = ["[model]"] + ["%s = %s" % (k, v if isinstance(v, str) else repr(v))
                           for k, v in params_to_config(p).items()]
    lines += ["[metrology]", "labels = JR", "values = %r" % p.JR.real,
              "[topology]", "kind = spectral", "eref_im = 0.2"]
    (tmp_path / "hn.ini").write_text("\n".join(lines) + "\n")
    proc = run_python(["-c", COMMANDS, "hn.ini"] + list(DEFERRED), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {"spectrum": 0, "skin": 0, "winding": 0, "qfi": 0}
    assert result["loaded"] == []
    for name in ("spectrum", "skin", "winding", "qfi"):
        assert (tmp_path / (name + ".csv")).stat().st_size > 0


DEFERRED_CALLS = """
import sys

import numpy as np

from nhlab import (SweepSpec, count_spectral_loops, current_basis,
                   edge_states, find_peak, line_gap_minima, obc_central_gap,
                   preset, run_sweep, spectral)

# the OBC central gap and edge pair read the bottom of the spectrum, with
# no fall-back, and load no deferred subpackage (an ARPACK solve would
# load scipy.sparse)
fig3 = preset("FIG3").params
assert obc_central_gap(fig3.with_updates(L=200, JR=-0.5685)) > 0
assert len(edge_states(fig3.with_updates(L=100, JR=-1.0), 0.1)) == 2
assert not spectral.FALL_BACKS
assert not [m for m in sys.argv[1:] if m in sys.modules]
v = np.arange(32) + 1j
assert np.isclose(np.linalg.norm(current_basis(preset("FIG3").resized(8)).amplitudes(v)),
                  np.linalg.norm(v))
assert "scipy.fft" in sys.modules and "scipy.optimize" not in sys.modules
assert len(line_gap_minima(preset("FIG3").params)) == 3
assert "scipy.spatial" in sys.modules
# FIG3 at JR = -1.2 has three loops, so the merge step runs; FIG4_SSH's
# loop grid settles steps by the tie rules of the band tracking
assert count_spectral_loops(preset("FIG3").params.with_updates(JR=-1.2)) == 3
assert count_spectral_loops(preset("FIG4_SSH").params) == 0
assert "scipy.sparse" in sys.modules and "scipy.optimize" not in sys.modules
spec = SweepSpec(base=preset("FIG4_HN").resized(16), axis="JR",
                 grid=tuple(np.round(np.arange(-0.5, -0.299, 0.02), 10)),
                 observables=frozenset(["QFI"]))
# the peak search is the package's own port of scipy's bounded Brent
assert not find_peak(run_sweep(spec), "QFI").boundary
assert "scipy.optimize" not in sys.modules
print("ok")
"""


def test_deferred_imports_resolve(tmp_path):
    proc = run_python(["-c", DEFERRED_CALLS] + list(DEFERRED), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
