"""Every name a module of the package lists in ``__all__`` resolves, and is
used somewhere in the package.

A function deleted from a module but left in its ``__all__`` only fails on
``from module import *``, which nothing in the package does; the first test
makes the stale entry fail at once.  A public name that no code of the
package reads is surface kept for the tests alone; the second test makes it
fail too.  A use is a binding, not a spelling: another module imports the
name from the module that exports it, or that module reads it as a bare
name, so an unrelated attribute of the same name does not count.

The same holds for the methods and properties of the package's public
classes: one that no code of the package reads as an attribute is kept for
the tests alone, and the third test fails on it.  Dunders, which the
language calls, and private classes are left out.
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
    ("diagram_groups.squier", "rank"),
    ("diagram_groups.diagrams", "canonical_key"),
}


def _module_name(path, root):
    parts = list(path.relative_to(root.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _sources():
    """``(module, path, tree)`` for every source file of the package."""
    root = Path(diagram_groups.__file__).parent
    return [
        (_module_name(path, root), path, ast.parse(path.read_text()))
        for path in sorted(root.rglob("*.py"))
    ]


def _used_bindings():
    """Every ``(module, name)`` that the package's source uses: imported by
    a ``from module import name``, or read as a bare name in the module's
    own source."""
    used = set()
    for module, path, tree in _sources():
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    base = package.rsplit(".", node.level - 1)[0]
                    source = f"{base}.{source}" if source else base
                used.update((source, alias.name) for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((module, node.id))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_exported_names_are_used_in_the_package():
    used = _used_bindings()
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
    unused = exported - used
    assert sorted(unused - handlers - TRACED_ONLY) == []
    # an exemption goes once its name is gone or used
    assert TRACED_ONLY <= unused


def test_public_methods_are_read_in_the_package():
    sources = _sources()
    read = {
        node.attr
        for _, _, tree in sources
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    defined = [
        f"{module}.{cls.name}.{item.name}"
        for module, _, tree in sources
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]
    assert defined
    assert [name for name in defined if name.rpartition(".")[2] not in read] == []
