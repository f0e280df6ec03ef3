"""Every name a module of the package imports is read in that module, no
module but fst reads a private name of another, apart from the allowed
ones, the package imports nothing from outside the standard library,
and the commands that read an artifact load no compiler."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fstmorph"


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in read]


def test_every_imported_name_is_read():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [u for path in modules for u in unused_imports(path)] == []


# The one private name read across modules: canonical AT&T export
# numbers its machines with fst's trim.
PRIVATE_READS_ALLOWED = {("att.py", "fst._trim")}


def private_reads(path):
    """(file, "module._name") for each read of a private name of another
    package module, as module._name or from .module import _name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               and node.module is None for alias in node.names}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module is not None:
            reads.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            reads.add((node.value.id, node.attr))
    return {(path.name, f"{module}.{name}") for module, name in reads
            if name.startswith("_") and not name.startswith("__")}


def test_no_module_reads_another_modules_private_names():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "fst.py":
            found |= private_reads(path)
    assert found - PRIVATE_READS_ALLOWED == set()


# cli.py imports the built-in _sha256 when it is there and falls back to
# hashlib: Python 3.12 and later name the module _sha2.
OUTSIDE_IMPORTS_ALLOWED = {("cli.py", "_sha256")}


def outside_imports(path):
    """(file, top-level module) of each absolute import, __future__ apart,
    of a module that is not in the standard library."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.update((path.name, name.split(".")[0]) for name in names)
    return {(f, m) for f, m in found
            if m != "__future__" and m not in sys.stdlib_module_names}


def test_the_package_imports_only_the_standard_library():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= outside_imports(path)
    assert found - OUTSIDE_IMPORTS_ALLOWED == set()


# Run in a fresh interpreter: the command's exit code and the compiler
# modules it loaded, as the last line of output.
COLD_RUN = """
import json, sys
from fstmorph import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m in {
    "fstmorph.lexc", "fstmorph.twol", "fstmorph.testkit"})]))
"""


@pytest.fixture(scope="module")
def fixture_artifacts(tmp_path_factory):
    from fstmorph import cli

    out = tmp_path_factory.mktemp("artifacts")
    fixture = SRC / "fixtures" / "sms_mini"
    assert cli.main(["compile", str(fixture / "roots.lexc"),
                     str(fixture / "affixes.lexc"), "--rules",
                     str(fixture / "phonology.twol"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", ["lookup", "export-att", "import-att"])
def test_reading_an_artifact_loads_no_compiler(fixture_artifacts, command):
    argv = {"lookup": ["lookup", str(fixture_artifacts)],
            "export-att": ["export-att", str(fixture_artifacts)],
            "import-att": ["import-att",
                           str(fixture_artifacts / "generator.att"),
                           "--symbols",
                           str(fixture_artifacts / "symbols.tsv")]}[command]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", COLD_RUN, *argv],
                          input="radio\n", capture_output=True, text=True,
                          env=env, timeout=60)
    assert json.loads(done.stdout.splitlines()[-1]) == [0, []], done.stderr
