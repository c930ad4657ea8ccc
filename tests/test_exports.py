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
language calls, and private classes are left out.  The fourth test holds
the fields of the public classes to the same rule: each field of a
``NamedTuple`` and each public attribute that an ``__init__`` sets.
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

# ``commands.squier._witness_json`` reads the pathology witnesses through
# ``_fields``, and only the traced ``canonical_key`` returns a
# ``CanonicalKey``
FIELDS_READ_BY_NAME = {
    "diagram_groups.special.SelfIntersection",
    "diagram_groups.special.SelfOsculation",
    "diagram_groups.special.InterOsculation",
    "diagram_groups.diagrams.CanonicalKey",
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


def _attributes_read(sources):
    return {
        node.attr
        for _, _, tree in sources
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _public_classes(sources):
    """``(qualified name, class node)`` for every public top-level class."""
    return [
        (f"{module}.{cls.name}", cls)
        for module, _, tree in sources
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
    ]


def test_public_methods_are_read_in_the_package():
    sources = _sources()
    read = _attributes_read(sources)
    defined = [
        f"{name}.{item.name}"
        for name, cls in _public_classes(sources)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]
    assert defined
    assert [name for name in defined if name.rpartition(".")[2] not in read] == []


def _fields(cls):
    """The fields of a ``NamedTuple`` class and the attributes its
    ``__init__`` sets on ``self``."""
    if any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases):
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield item.target.id
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            for node in ast.walk(item):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    yield node.attr


def test_public_fields_are_read_in_the_package():
    sources = _sources()
    read = _attributes_read(sources)
    fields = {name: list(_fields(cls)) for name, cls in _public_classes(sources)}
    assert any(fields.values())
    unread = {
        name: [f for f in names if not f.startswith("_") and f not in read]
        for name, names in fields.items()
    }
    assert [
        f"{name}.{field}"
        for name, names in unread.items()
        if name not in FIELDS_READ_BY_NAME
        for field in names
    ] == []
    # an exemption goes once its class is gone or all its fields are read
    assert all(unread.get(name) for name in FIELDS_READ_BY_NAME)
