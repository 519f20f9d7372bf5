"""Every name a demo imports from qsumm still exists.

The demos are not run by the suite, so a renamed or deleted public name
would only show when someone runs a demo; this test reads their imports
with ast instead and fails first.
"""

import ast
import importlib
import importlib.util
import os

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
SCRIPTS = sorted(name for name in os.listdir(DEMOS) if name.endswith(".py"))


def qsumm_imports(path):
    """(module, name or None) for each qsumm import in a source file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module == "qsumm" or node.module.startswith("qsumm.")):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name == "qsumm" or alias.name.startswith("qsumm."))


def test_demos_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_imports_resolve(script):
    imports = list(qsumm_imports(os.path.join(DEMOS, script)))
    assert imports, f"{script} imports nothing from qsumm"
    for module, name in imports:
        owner = importlib.import_module(module)
        if name is None or hasattr(owner, name):
            continue
        # `from package import submodule` also resolves
        assert hasattr(owner, "__path__") and importlib.util.find_spec(f"{module}.{name}"), (
            f"{script}: {module} has no {name}")
