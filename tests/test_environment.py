"""The package reads the process environment in one function only,
writes files through one opener and its JSON files but the solution
record through one writer, calls LAPACK in three functions only, derives
the manifest path in `cli.main` only, and its C kernel includes four
headers.

Every input that changes an output is a flag, so the manifest records it.
`_kernels._cache_dir` reads XDG_CACHE_HOME, where the compiled kernel is
kept; that path changes no output.  Every output file is opened by
`manifest.open_output`, which fixes the encoding and line ends and maps
OSError to exit 3.  `json.dump` runs only in `manifest.write_json`, which
fixes the layout of the manifests and metrics; `cli.cmd_solve` writes the
record's `SolutionRecord.to_json` text, with its own key order and full
precision.  `main` derives the manifest path from --out before the
command runs, so a bad --out fails before any work.  LAPACK's kernels are
picked per CPU at run time, so each result that passes through one is
listed here.  Without <stdio.h> or <locale.h>, the C kernel can neither
print nor read the locale, so no byte it writes depends on LC_NUMERIC.
"""
import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ambec"
MODULES = sorted(SRC.glob("*.py"))

#: module file -> the functions in it that may read the environment
ALLOWED = {"_kernels.py": {"_cache_dir"}}

_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _found(source: str, match) -> list[str]:
    """`function:line` of each node of the source that match(node) accepts;
    "<module>" outside any function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)
            if match(child):
                found.append(f"{where}:{child.lineno}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def _is_environment_read(node) -> bool:
    """os.environ or os.getenv, or a `from os import` of them."""
    return ((isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "os"
             and node.attr in _ENVIRONMENT)
            or (isinstance(node, ast.ImportFrom) and node.module == "os"
                and bool({a.name for a in node.names} & _ENVIRONMENT)))


def _is_json_dump(node) -> bool:
    """json.dump, or a `from json import dump`."""
    return ((isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "json"
             and node.attr == "dump")
            or (isinstance(node, ast.ImportFrom) and node.module == "json"
                and "dump" in {a.name for a in node.names}))


#: os functions that open a file by flags or wrap a descriptor, whatever
#: they are given: os.open reads its flags as numbers, not as a mode
_OS_OPENERS = {"open", "fdopen"}


def _is_write_open(node) -> bool:
    """A call of the builtin open whose mode writes (w, a, x or +) or is
    not a literal; os.open or os.fdopen, or a `from os import` of them."""
    if ((isinstance(node, ast.Attribute)
         and isinstance(node.value, ast.Name) and node.value.id == "os"
         and node.attr in _OS_OPENERS)
            or (isinstance(node, ast.ImportFrom) and node.module == "os"
                and bool({a.name for a in node.names} & _OS_OPENERS))):
        return True
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    modes = node.args[1:2] + [k.value for k in node.keywords
                              if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes)


#: what a rule finds -> the one function, in manifest.py, that may do it
WRITERS = {_is_json_dump: "write_json", _is_write_open: "open_output"}


#: numpy names that reach LAPACK: np.linalg.*, and np.roots, which takes
#: the eigenvalues of the companion matrix
_LAPACK = {"linalg", "roots"}

#: module file -> the functions in it that may call LAPACK: Newton's 2x2
#: solve, the B quadratics' roots (gating agreement at 1e-8, writing no
#: bytes) and the quartic least-squares fit
LAPACK_CALLERS = {"consistency.py": {"_newton", "_nearest_real_root"},
                  "potentials.py": {"quartic_fit"}}


#: the only headers `_kernels.c` may include
C_HEADERS = {"fenv.h", "math.h", "stdint.h", "string.h"}


def _forbidden_includes(source: str) -> list[str]:
    """Each header that a C source includes and C_HEADERS does not list."""
    found = re.findall(r'^[ \t]*#[ \t]*include[ \t]*[<"]([^>"]*)[>"]',
                       source, re.MULTILINE)
    return [h for h in found if h not in C_HEADERS]


def _is_lapack(node) -> bool:
    """np.linalg or np.roots (also as numpy.), an import of numpy.linalg,
    or a `from numpy import` of either."""
    return ((isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id in ("np", "numpy") and node.attr in _LAPACK)
            or (isinstance(node, ast.ImportFrom) and node.module is not None
                and (node.module.startswith("numpy.linalg")
                     or (node.module == "numpy"
                         and bool({a.name for a in node.names} & _LAPACK))))
            or (isinstance(node, ast.Import)
                and any(a.name.startswith("numpy.linalg")
                        for a in node.names)))


def _environment_reads(source: str) -> list[str]:
    return _found(source, _is_environment_read)


def _is_manifest_path(node) -> bool:
    """A call `_sibling(..., ".manifest.json")`, the suffix by position or
    keyword."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_sibling"
            and any(isinstance(a, ast.Constant) and a.value == ".manifest.json"
                    for a in [*node.args, *(k.value for k in node.keywords)]))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_environment_read_only_where_allowed(path):
    reads = _environment_reads(path.read_text(encoding="utf-8"))
    allowed = ALLOWED.get(path.name, set())
    assert [r for r in reads if r.split(":")[0] not in allowed] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_json_dump_and_write_open_only_where_allowed(path):
    source = path.read_text(encoding="utf-8")
    for match, allowed in WRITERS.items():
        found = {w.split(":")[0] for w in _found(source, match)}
        assert found == ({allowed} if path.name == "manifest.py" else set())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_lapack_called_only_where_allowed(path):
    found = {w.split(":")[0]
             for w in _found(path.read_text(encoding="utf-8"), _is_lapack)}
    assert found == LAPACK_CALLERS.get(path.name, set())


def test_manifest_path_derived_only_in_main():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert [w.split(":")[0] for w in _found(source, _is_manifest_path)] == [
        "main"]


def test_detects_a_manifest_path_outside_main():
    source = ("def cmd_profile(args, manifest):\n"
              "    write_csv(args.out, [], [], _sibling(args.out,\n"
              "                                         '.manifest.json'))\n"
              "def cmd_wigner(args, manifest):\n"
              "    return _sibling(args.out, '.metrics.json')\n"
              "def main(argv=None):\n"
              "    path = _sibling(out=args.out, suffix='.manifest.json')\n")
    assert _found(source, _is_manifest_path) == ["cmd_profile:2", "main:7"]


def test_c_kernel_includes_only_allowed_headers():
    source = (SRC / "_kernels.c").read_text(encoding="utf-8")
    assert _forbidden_includes(source) == []


def test_detects_a_forbidden_include():
    source = ("#include <math.h>\n"
              "#include <stdio.h>\n"
              "  #  include \"locale.h\"\n"
              "/* #include <string.h> */\n")
    assert _forbidden_includes(source) == ["stdio.h", "locale.h"]


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


def test_detects_each_form_of_write():
    source = ("import json\n"
              "from json import dump\n"
              "def f(p, d):\n"
              "    json.dump(d, open(p, 'w'))\n"
              "def g(p, m):\n"
              "    open(p, mode='ab')\n"
              "    open(p, m)\n"
              "    open(p, 'r+')\n"
              "def h(p):\n"
              "    open(p).read()\n"
              "    open(p, 'rb')\n"
              "    open(p, encoding='utf-8')\n"
              "    json.dumps({}), json.load(open(p))\n"
              "def k(p):\n"
              "    os.close(os.open(p, os.O_RDONLY))\n"
              "    return os.fdopen(3, 'r'), os.path.exists(p)\n"
              "from os import fdopen, path\n")
    assert _found(source, _is_json_dump) == ["<module>:2", "f:4"]
    assert _found(source, _is_write_open) == ["f:4", "g:6", "g:7", "g:8",
                                              "k:15", "k:16", "<module>:17"]


def test_detects_each_form_of_lapack():
    source = ("import numpy as np\n"
              "import numpy.linalg\n"
              "from numpy import linalg, sqrt\n"
              "from numpy.linalg import solve\n"
              "def f(a, b):\n"
              "    return np.linalg.solve(a, b), numpy.linalg.norm(a)\n"
              "def g(c):\n"
              "    try:\n"
              "        return np.roots(c)\n"
              "    except np.linalg.LinAlgError:\n"
              "        return np.sqrt(c), np.polyval(c, 1.0)\n"
              "from numpy import roots\n")
    assert _found(source, _is_lapack) == [
        "<module>:2", "<module>:3", "<module>:4", "f:6", "f:6", "g:9",
        "g:10", "<module>:12"]
