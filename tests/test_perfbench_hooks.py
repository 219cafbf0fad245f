"""The benchmark tracer's wrap targets must exist in the library.

``perfbench/tracer.py`` replaces the functions it lists by name when a run
is traced, so renaming or deleting one breaks only the traced benchmark run.
This test loads the list from the tracer file itself and checks every name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from rmtlab.ensembles import DistributionLaw

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPAN_TARGETS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _span_targets()])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("attr", ["sample", "sample_symmetrized"])
def test_counted_law_method_exists(attr):
    assert callable(getattr(DistributionLaw, attr, None))
