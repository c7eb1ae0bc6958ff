import ast
import dataclasses
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def test_estimate_top_makes_one_final_run():
    # direct simulation is the unweighted d = 1 run, so one call serves both
    path = pathlib.Path(dftmc.__path__[0]) / "engine.py"
    module = ast.parse(path.read_text(), filename=str(path))
    estimate_top = next(
        node for node in module.body if isinstance(node, ast.FunctionDef) and node.name == "estimate_top"
    )
    calls = [
        node.lineno
        for node in ast.walk(estimate_top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "run_batch"
    ]
    assert len(calls) == 1, f"estimate_top calls run_batch at lines {calls}"


SCIPY_SPECIAL_ON_FIRST_USE = """
import sys
import dftmc
assert "scipy.special" not in sys.modules, "imported by import dftmc"
from dftmc.cli import main
assert main(["check", sys.argv[1]]) == 0
assert "scipy.special" not in sys.modules, "imported by dftmc check"
assert main(["run", sys.argv[1], "--method", "direct", "--cycles", "1000"]) == 0
assert "scipy.special" in sys.modules, "not imported by dftmc run"
"""

# more threads than cores read each name for the first time at once
FIRST_READS_FROM_THREADS = """
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dftmc import _special
assert "scipy.special" not in sys.modules
names = ["ndtr", "ndtri", "log_ndtr", "ndtri_exp"] * 4
start = threading.Barrier(len(names))
def first_read(name):
    start.wait(timeout=60)
    return getattr(_special, name)
sys.setswitchinterval(1e-6)
with ThreadPoolExecutor(len(names)) as pool:
    got = list(pool.map(first_read, names))
import scipy.special
assert all(f is getattr(scipy.special, name) for f, name in zip(got, names))
"""


def _fresh_python(code, *args):
    """``python -c code args`` on this checkout, in a new interpreter, since
    this one has imported scipy.special already."""
    src = str(pathlib.Path(dftmc.__path__[0]).parent)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )


def test_scipy_special_is_imported_on_first_use(tmp_path):
    path = tmp_path / "normals.dft"
    path.write_text(
        "dft 1\nmission_time 1.0\n"
        "be L lognormal mu=2.5 sigma=0.8\nbe N normal mean=6.0 sd=1.5\n"
        "gate TOP or L N\ntop TOP\n"
    )
    done = _fresh_python(SCIPY_SPECIAL_ON_FIRST_USE, str(path))
    assert done.returncode == 0, done.stderr


def test_first_reads_of_scipy_special_from_threads_get_the_functions():
    done = _fresh_python(FIRST_READS_FROM_THREADS)
    assert done.returncode == 0, done.stderr
