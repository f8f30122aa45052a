"""The package reads the process environment in one function only.

Every input that changes an output is a flag, so the manifest records it.
`_kernels._cache_dir` reads XDG_CACHE_HOME, where the compiled kernel is
kept; that path changes no output.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ambec"
MODULES = sorted(SRC.glob("*.py"))

#: module file -> the functions in it that may read the environment
ALLOWED = {"_kernels.py": {"_cache_dir"}}

_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(source: str) -> list[str]:
    """`function:line` of each os.environ or os.getenv in the source, and
    of each `from os import` of them; "<module>" outside any function."""
    reads = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "os"
                    and child.attr in _ENVIRONMENT):
                reads.append(f"{where}:{child.lineno}")
            elif (isinstance(child, ast.ImportFrom) and child.module == "os"
                  and {a.name for a in child.names} & _ENVIRONMENT):
                reads.append(f"{where}:{child.lineno}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return reads


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_environment_read_only_where_allowed(path):
    reads = _environment_reads(path.read_text(encoding="utf-8"))
    allowed = ALLOWED.get(path.name, set())
    assert [r for r in reads if r.split(":")[0] not in allowed] == []


def test_detects_each_form_of_read():
    source = ("import os\n"
              "from os import getenv\n"
              "TOL = os.environ.get('X')\n"
              "def f():\n"
              "    return os.getenv('Y')\n"
              "def _cache_dir():\n"
              "    def inner():\n"
              "        return os.environ['Z']\n"
              "    return inner\n"
              "print(os.path.sep)\n")
    assert _environment_reads(source) == ["<module>:2", "<module>:3", "f:5",
                                          "inner:8"]
