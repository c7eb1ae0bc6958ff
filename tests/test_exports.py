import ast
import dataclasses
import importlib
import pathlib
import pkgutil

import pytest

import dftmc
from dftmc import FaultTree

MODULES = ["dftmc"] + [f"dftmc.{m.name}" for m in pkgutil.iter_modules(dftmc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names attributes that do not exist: {missing}"


def _nodes_outside_tree():
    """(module file name, ast node) for every module of the package but tree.py."""
    for path in sorted(pathlib.Path(dftmc.__path__[0]).glob("*.py")):
        if path.name != "tree.py":
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                yield path.name, node


def test_no_module_outside_tree_reads_a_private_fault_tree_field():
    private = {f.name for f in dataclasses.fields(FaultTree) if f.name.startswith("_")}
    assert private, "FaultTree has no private fields left to guard"
    readers = [
        f"{name}:{node.lineno} .{node.attr}"
        for name, node in _nodes_outside_tree()
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert readers == []


def test_no_module_outside_tree_validates():
    # a FaultTree checks itself when it is built, so nobody else needs to
    offenders = []
    for name, node in _nodes_outside_tree():
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "validate":
                offenders.append(f"{name}:{node.lineno} validate(...)")
        elif isinstance(node, ast.Attribute) and node.attr == "validated":
            offenders.append(f"{name}:{node.lineno} .validated")
    assert offenders == []
