"""Every site the benchmark tracer wraps still exists in qsumm.

perfbench/tracing.py replaces functions at the module attribute where
their callers look them up.  A rename or deletion of such a name would
only show when a traced benchmark run fails; this test fails first.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = [(module, attr) for module, attr, _, _ in _load_tracing().SITES]


@pytest.mark.parametrize("module, attr", SITES, ids=[f"{m}.{a}" for m, a in SITES])
def test_traced_site_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)
