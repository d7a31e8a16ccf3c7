"""The public surface: the package exports exactly the names the command
line imports from it, plus the error types and the version."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
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


def test_no_command_loads_scipy():
    # SciPy takes ~0.3 s to import and is not a runtime dependency
    script = textwrap.dedent("""
        import contextlib, io, sys
        from hankelscope import cli
        runs = [
            ["pq", "--p", "1,2"], ["qp", "--q", "1,2"], ["positivity", "--p", "1.7,0,1"],
            ["spectrum-hankel", "--p", "1", "--L", "8", "--N", "64"],
            ["spectrum-a", "--q", "1", "--L", "8", "--N", "64"],
            ["equiv-check", "--p", "1,0.5", "--L", "12", "--N", "64", "--seeds", "11,12"],
            ["delta-eigs", "--h", "0,1", "--t0", "1", "--N", "32", "--n-max", "4"],
            ["carleman", "--L", "8", "--N", "64"],
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            print(argv[0], code, "scipy" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(hankelscope.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {cmd: (code, flag) for cmd, code, flag in map(str.split, proc.stdout.splitlines())}
    assert loaded == {cmd: ("0", "False") for cmd in (
        "pq", "qp", "positivity", "spectrum-hankel", "spectrum-a", "equiv-check",
        "delta-eigs", "carleman")}
