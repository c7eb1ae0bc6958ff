import ast
import dataclasses
import importlib
import pathlib
import pkgutil

import numpy as np
import pytest

import dftmc
from dftmc import BasicEvent, FaultTree, ValidationError
from dftmc.distributions import Exponential
from dftmc.oracle import exact_static
from dftmc.tree import batch_top_times

MODULES = ["dftmc"] + [f"dftmc.{m.name}" for m in pkgutil.iter_modules(dftmc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names attributes that do not exist: {missing}"


def test_no_module_outside_tree_reads_a_private_fault_tree_field():
    private = {f.name for f in dataclasses.fields(FaultTree) if f.name.startswith("_")}
    assert private, "FaultTree has no private fields left to guard"
    readers = []
    for path in sorted(pathlib.Path(dftmc.__path__[0]).glob("*.py")):
        if path.name == "tree.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert readers == []


@pytest.mark.parametrize(
    "walk",
    [
        lambda tree: tree.gate_order,
        lambda tree: batch_top_times(tree, np.ones((3, 1))),
        lambda tree: exact_static(tree, 1.0),
    ],
    ids=["gate_order", "batch_top_times", "exact_static"],
)
def test_walkers_refuse_an_unvalidated_tree(walk):
    tree = FaultTree((BasicEvent("X", Exponential(1.0)),), top="X")
    with pytest.raises(ValidationError, match="validated"):
        walk(tree)
