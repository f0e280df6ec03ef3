"""Every name a module of the package imports is read in that module."""

import ast
import pathlib

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
