"""Every name a package module imports is used in that module, and every
name it defines is referenced somewhere in the package or the tests."""

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
