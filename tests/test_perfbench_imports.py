"""The benchmark's modules import against the qsumm of this checkout.

perfbench/run.py runs with perfbench/ on the path and imports workloads,
which imports oracles and tracing; reference.py imports run.  A change in
qsumm that breaks one of these imports would only show when the
benchmark runs; this test fails first.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
# the top-level names perfbench's modules import each other by
PERFBENCH_MODULES = ("run", "workloads", "oracles", "reference", "tracing")


@pytest.fixture
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in PERFBENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield
    for name in PERFBENCH_MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["workloads", "oracles", "reference"])
def test_benchmark_module_imports(perfbench_on_path, name):
    module = importlib.import_module(name)
    assert os.path.samefile(module.__file__, os.path.join(PERFBENCH, f"{name}.py"))
