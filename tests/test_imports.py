"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import nhlab

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
