"""Every demo runs to exit 0, and every name it imports from laxrom exists.

The runs go through the child lane (``conftest.ChildLane``), beside the
other tests; the import check needs no run."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "laxrom"
        for alias in node.names
    ]
    assert imported, f"{demo.name} imports nothing from laxrom"
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, child_lane):
    status, stderr = child_lane.result(demo.name)
    assert status == 0, stderr
