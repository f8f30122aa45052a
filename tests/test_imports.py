"""Every name a module of the package imports is used in that module."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ambec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Imported names never read in the module, whatever comment their
    line carries.

    __init__ re-exports by import, so it is not checked; `from __future__`
    imports switch on language features and are never read.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, (a.asname or a.name).split(".")[0])
                     for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names]
        else:
            continue
        for alias, name in names:
            imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from json import dumps, loads  # noqa: F401\n"
              "from re import compile as rx\n"
              "print(os.path.sep, rx)\n")
    assert _unused_imports(source) == ["line 2: math", "line 4: dumps",
                                       "line 4: loads"]
