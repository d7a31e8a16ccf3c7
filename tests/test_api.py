"""The public surface: the package exports exactly the names the command
line imports from it, plus the error types and the version."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np

import hankelscope
from hankelscope import cli, errors


def _cli_imports() -> set[str]:
    tree = ast.parse(Path(cli.__file__).read_text())
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_all_is_the_cli_surface_plus_errors_and_version():
    error_types = {name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, errors.HankelscopeError)}
    expected = _cli_imports() | error_types | {"__version__"}
    assert len(hankelscope.__all__) == len(set(hankelscope.__all__))
    assert set(hankelscope.__all__) == expected
    assert all(hasattr(hankelscope, name) for name in hankelscope.__all__)


def test_no_module_defines_a_test_callable():
    # pytest would collect such a function from any test module importing it
    found = []
    for info in pkgutil.iter_modules(hankelscope.__path__):
        module = importlib.import_module(f"hankelscope.{info.name}")
        found += [f"{info.name}.{name}" for name, obj in vars(module).items()
                  if name.startswith("test_") and callable(obj)]
    assert found == []


def test_branches_splits_an_ascending_spectrum():
    # delta-eigs reads lambda_plus and lambda_minus through this export
    plus, minus = hankelscope.branches(np.array([-3.0, -1.0, 2.0, 5.0]))
    assert plus.tolist() == [2.0, 5.0] and minus.tolist() == [-1.0, -3.0]
