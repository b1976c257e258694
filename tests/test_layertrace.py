"""The benchmark's layer trace must find every function it wraps.

``perfbench/layertrace.py`` rebinds each ``(module, attribute path)`` of its
``TARGETS`` with ``getattr``; a renamed or deleted function would make the
traced benchmark run fail, so each one is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", load_targets(), ids=lambda t: t[2])
def test_trace_target_resolves(target):
    module_name, path = target[0], target[1]
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
