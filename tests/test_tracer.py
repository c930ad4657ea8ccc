"""Every function the benchmark's per-layer tracer wraps still exists.

``perfbench/tracer.py`` looks up each ``(module, name)`` of its ``TARGETS``
with ``getattr`` on ``diagram_groups.<module>`` when it installs its
wrappers, so renaming or deleting a traced function makes every
``perfbench/run.py --trace 1`` run fail.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.TARGETS)


@pytest.mark.parametrize("module, name", _targets(), ids=lambda x: x)
def test_traced_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"diagram_groups.{module}"), name)
