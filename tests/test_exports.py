"""Every name a module of the package lists in ``__all__`` resolves, and is
used somewhere in the package.

A function deleted from a module but left in its ``__all__`` only fails on
``from module import *``, which nothing in the package does; the first test
makes the stale entry fail at once.  A public name that no code of the
package reads is surface kept for the tests alone; the second test makes it
fail too.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import diagram_groups
from diagram_groups.cli import _COMMANDS

MODULES = sorted(
    m.name
    for m in pkgutil.walk_packages(diagram_groups.__path__, "diagram_groups.")
    if m.name != "diagram_groups.__main__"
)

# the per-layer benchmark tracer (``perfbench/tracer.py``) wraps these by
# name, and nothing in the package calls them
TRACED_ONLY = {
    ("diagram_groups.squier", "relate"),
    ("diagram_groups.diagrams", "canonical_key"),
}


def _referenced_names():
    """Every identifier the package's source reads or writes as a name or
    an attribute."""
    names = set()
    for path in Path(diagram_groups.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_exported_names_are_used_in_the_package():
    referenced = _referenced_names()
    # ``main`` dispatches to a handler by its name in the command table
    handlers = {
        (f"diagram_groups.commands.{module}", handler)
        for module, handler, _, _ in _COMMANDS.values()
    }
    exported = {
        (module, name)
        for module in MODULES
        for name in importlib.import_module(module).__all__
    }
    unused = {
        (module, name) for module, name in exported if name not in referenced
    }
    assert sorted(unused - handlers - TRACED_ONLY) == []
    # an exemption goes once its name is gone or used
    assert TRACED_ONLY <= unused
