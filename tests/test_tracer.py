"""The benchmark's per-layer tracer still resolves and counts what it should.

``perfbench/tracer.py`` looks up each ``(module, name)`` of its ``TARGETS``
with ``getattr`` on ``diagram_groups.<module>`` when it installs its
wrappers, so renaming or deleting a traced function makes every
``perfbench/run.py --trace 1`` run fail.  It also reads work counters off
results, such as a Farley ball's vertex count off ``len(ball.keys)``, and
that reading must cost the traced call no extra work.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diagram_groups

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.TARGETS)


@pytest.mark.parametrize("module, name", _targets(), ids=lambda x: x)
def test_traced_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"diagram_groups.{module}"), name)


def test_traced_farley_counts_vertices_without_keys(tmp_path):
    trace = tmp_path / "trace.json"
    # the child must import the package under test, wherever pytest found it
    src = str(Path(diagram_groups.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, str(TRACER), str(trace),
            "farley", "-p", str(ROOT / "tests" / "golden" / "padpair.pres"),
            "-w", "a1 b1", "--radius", "4",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(trace.read_text())["counts"]
    vertex_count = json.loads(proc.stdout)["vertex_count"]
    assert counts["farley.farley_ball.vertices"] == vertex_count
    assert counts["diagrams.canonical_key.calls"] == 0
