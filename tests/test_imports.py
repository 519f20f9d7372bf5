"""No module in src/ or tests/ imports a name it never uses, and every
src/qsumm module's __all__ lists names it defines, each once.

An import counts as used when its bound name appears anywhere in the
module as a name, or is listed in the module's __all__.  An import
marked "# noqa: F401", on its statement's first line or on its own
line, is kept on purpose and skipped.  Because an __all__ entry counts
as a use, a stale entry would also hide an unused import; the export
check catches it.

Every private module-level name of src/, a function, class or constant
named with one leading underscore, is referenced somewhere in src/: as
a name, an attribute or an imported name.

File I/O policy lives in src/qsumm/matrix_io.py alone: no other src/
module renames files (os.replace), parses JSON (json.load, json.loads)
or reads into a buffer (.readinto()).
"""

import ast
import importlib
import os
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _modules():
    for top in ("src", "tests"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # the mark may sit on the statement's first line or the name's
                if any("# noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno)):
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, bound))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", list(_modules()))
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_scan_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\n"
              "from math import (  # noqa: F401\n    pi,\n)\nloads('1')\n")
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


def _private_defs(tree) -> list:
    """(line, name) of the module-level functions, classes and constants
    whose name starts with one underscore."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            targets = []
        out += [(node.lineno, n) for n in targets if n.startswith("_") and not n.startswith("__")]
    return out


def unused_private_names(sources: dict) -> list:
    """(path, line, name) of every private module-level name in sources,
    path -> text, that no module of sources references."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    used = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used.add(n.name)
    return [(path, line, name) for path, tree in trees.items()
            for line, name in _private_defs(tree) if name not in used]


def test_no_unused_private_names_in_src():
    sources = {}
    for path in _modules():
        if path.startswith("src" + os.sep):
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                sources[path] = fh.read()
    assert unused_private_names(sources) == []


def test_scan_finds_an_unused_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n_spare: int = 0\n__version__ = '1'\n"
                 "def _kept():\n    return _LIMIT\n"
                 "def _gone():\n    _gone_too = 1\n    return _gone_too\n"
                 "class _Box:\n    pass\n"),
        "b.py": "import a\nfrom a import _Box\n_spare = 1\na._kept()\n",
    }
    assert unused_private_names(sources) == [("a.py", 2, "_spare"), ("a.py", 6, "_gone"),
                                             ("b.py", 3, "_spare")]


def export_faults(module) -> list:
    """Names in module.__all__ that the module does not define, then
    names that __all__ lists more than once."""
    names = list(getattr(module, "__all__", ()))
    missing = [n for n in names if not hasattr(module, n)]
    return missing + sorted({n for n in names if names.count(n) > 1})


def _exporting_modules():
    """src/qsumm modules that declare __all__; __main__ does not, and
    importing it would run the CLI."""
    for path in _modules():
        if path.startswith(os.path.join("src", "qsumm")):
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                if _exported(ast.parse(fh.read())):
                    yield path


@pytest.mark.parametrize("path", list(_exporting_modules()))
def test_all_lists_defined_names_once(path):
    name = os.path.splitext(os.path.relpath(path, "src"))[0].replace(os.sep, ".")
    assert export_faults(importlib.import_module(name)) == []


def test_export_check_finds_stale_and_repeated_names():
    module = types.ModuleType("m")
    module.__all__ = ["kept", "gone", "kept"]
    module.kept = 1
    assert export_faults(module) == ["gone", "kept"]


IO_OWNER = os.path.join("src", "qsumm", "matrix_io.py")
_IO_NAMES = {("os", "replace"), ("json", "load"), ("json", "loads")}


def io_policy_sites(source: str) -> list:
    """(line, name) of every os.replace, json.load, json.loads and
    .readinto() call in source, imported by name or not."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and (n.value.id, n.attr) in _IO_NAMES):
            out.append((n.lineno, f"{n.value.id}.{n.attr}"))
        elif isinstance(n, ast.ImportFrom):
            out += [(n.lineno, f"{n.module}.{a.name}") for a in n.names
                    if (n.module, a.name) in _IO_NAMES]
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "readinto"):
            out.append((n.lineno, ".readinto"))
    return sorted(out)


@pytest.mark.parametrize("path", [p for p in _modules()
                                  if p.startswith("src" + os.sep) and p != IO_OWNER])
def test_file_io_policy_only_in_matrix_io(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert io_policy_sites(fh.read()) == []


def test_scan_finds_file_io_policy():
    source = ("import json, os\nfrom json import loads as parse\n"
              "os.replace('a', 'b')\nfh.readinto(buf)\nreadinto(fh, buf)\n"
              "json.dumps(1)\njson.load(fh)\nf = os.path.replace\n")
    assert io_policy_sites(source) == [(2, "json.loads"), (3, "os.replace"),
                                       (4, ".readinto"), (7, "json.load")]
    with open(os.path.join(ROOT, IO_OWNER), encoding="utf-8") as fh:
        found = {name for _, name in io_policy_sites(fh.read())}
    assert found == {"os.replace", "json.loads", ".readinto"}
