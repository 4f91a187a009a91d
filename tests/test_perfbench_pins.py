"""Every program attribute the benchmark reaches exists.

``perfbench/spans.py`` rebinds module attributes of the program for a
traced run, and ``perfbench/run.py`` imports program modules by name;
a deletion that breaks either would only surface when the benchmark
runs.  ``spans.py`` needs the standard library only.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def program_imports():
    """Module names of ``from varsched import ...`` in ``run.py``."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    return sorted(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and node.module == "varsched"
                  for alias in node.names)


def pinned():
    spans = load_spans()
    pins = [(mod, attr) for mod, attr, _ in spans.SPANNED]
    pins += [("treefiles", attr) for attr in spans.TREEFILES]
    pins += [("pwl", attr) for attr in spans.PWL]
    return pins


@pytest.mark.parametrize("module", program_imports())
def test_run_imports_exist(module):
    importlib.import_module(f"varsched.{module}")


def test_traced_attributes_exist():
    missing = [f"{mod}.{attr}" for mod, attr in pinned()
               if not hasattr(importlib.import_module(f"varsched.{mod}"),
                              attr)]
    assert not missing, missing
