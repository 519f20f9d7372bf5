"""The benchmark's modules import against the qsumm of this checkout.

perfbench/run.py runs with perfbench/ on the path and imports workloads,
which imports oracles and tracing; reference.py imports run.  A change in
qsumm that breaks one of these imports would only show when the
benchmark runs; this test fails first.  The benchmark also times the
recipe the acceptance gates train, and a last test checks that the two
name the same one.
"""

import importlib
import os
import sys

import pytest

from qsumm import training

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


def test_gates_and_benchmark_share_one_recipe(perfbench_on_path):
    # the benchmark times the recipe the learning gates train; its train
    # workload only turns validation off
    workloads = importlib.import_module("workloads")
    gates = importlib.import_module("test_acceptance")
    assert gates.CORPUS_SEED == workloads.CORPUS_SEED
    assert workloads.RECIPE["eval_every"] == 0
    assert gates.RECIPE == {k: v for k, v in workloads.RECIPE.items() if k != "eval_every"}
    assert gates.DROPOUT_P == workloads.DROPOUT_P
    assert gates.THRESHOLD_GRID == workloads.THRESHOLD_GRID == training.THRESHOLD_GRID
