"""Every name a module of the package lists in ``__all__`` resolves.

A function deleted from a module but left in its ``__all__`` only fails on
``from module import *``, which nothing in the package does; this test
makes the stale entry fail at once.
"""

import importlib
import pkgutil

import pytest

import diagram_groups

MODULES = sorted(
    m.name
    for m in pkgutil.walk_packages(diagram_groups.__path__, "diagram_groups.")
    if m.name != "diagram_groups.__main__"
)


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
