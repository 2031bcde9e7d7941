"""The public surface: each module's ``__all__`` is the whole of it, and the package re-exports nothing."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import iarx

MODULES = ("errors", "intervals", "pattern_space", "model", "pipeline", "data_io")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"iarx.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []
    # a listed function or class is defined here, not imported from a sibling
    imported = [
        entry
        for entry in module.__all__
        if (inspect.isfunction(getattr(module, entry)) or inspect.isclass(getattr(module, entry)))
        and getattr(module, entry).__module__ != module.__name__
    ]
    assert imported == []


def test_every_public_name_has_one_module():
    owners = {}
    for name in MODULES:
        for entry in importlib.import_module(f"iarx.{name}").__all__:
            owners.setdefault(entry, []).append(name)
    assert {entry: homes for entry, homes in owners.items() if len(homes) > 1} == {}


def test_package_defines_only_its_version():
    tree = ast.parse(Path(iarx.__file__).read_text(encoding="utf-8"))
    statements = [node for node in tree.body if not isinstance(node, ast.Expr)]  # the docstring
    assert [ast.unparse(node) for node in statements] == [f"__version__ = {iarx.__version__!r}"]


def test_package_imports_only_the_standard_library_and_numpy():
    # pyproject.toml declares numpy as the one dependency
    allowed = set(sys.stdlib_module_names) | {"numpy", "iarx"}
    foreign = []
    for path in sorted(Path(iarx.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert foreign == []
