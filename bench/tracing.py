"""Spans around the program's layer boundaries, recorded from outside.

A :class:`Tracer` replaces module and class attributes that the hot path
looks up at call time with thin wrappers that record a span per call, and
puts every original back on exit.  Arguments and results pass through
untouched, so a traced run computes exactly what an untraced one does.

A span is (name, start_ns, end_ns, parent index, op id, info).  A layer's
self time is its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


def _batch_info(arguments, result):
    return {"n_cycles": arguments["n_cycles"], "phase": arguments["phase"], "hits": result.hits}


def _rows_info(arguments, result):
    return {"rows": int(arguments["times"].shape[0])}


# (module or class path, attribute, span name, info taken from the call)
HOOKS = (
    ("dftmc.parser", "parse", "parser.parse", None),
    ("dftmc.parser", "to_fault_tree", "parser.to_fault_tree", None),
    ("dftmc.tree", "validate", "tree.validate", None),
    ("dftmc.engine", "select_reference", "engine.select_reference", None),
    ("dftmc.engine", "build_reference_model", "engine.build_reference_model", None),
    ("dftmc.engine", "solve_reference", "distributions.solve_reference", None),
    ("dftmc.distributions", "solve_reference_bisect", "distributions.solve_reference_bisect", None),
    ("dftmc.engine", "run_batch", "engine.run_batch", _batch_info),
    ("dftmc.engine", "batch_top_times", "tree.batch_top_times", _rows_info),
    ("dftmc.distributions.ReferenceDistribution", "_quantile01", "distributions.quantile", None),
    ("dftmc.distributions.ReferenceDistribution", "log_density_ratio", "distributions.log_density_ratio", None),
    ("dftmc.distributions.ReferenceDistribution", "log_survival_ratio", "distributions.log_survival_ratio", None),
    ("dftmc.cli", "build_report", "cli.build_report", None),
)


def _resolve(path):
    """The module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


class Tracer:
    """Records spans while active; use as a context manager around traced ops.

    ``absent`` lists the span names whose target attribute does not exist,
    so their metrics can be reported as missing rather than as zero.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        self.absent = []
        for path, attr, name, info in HOOKS:
            owner = _resolve(path)
            original = getattr(owner, "__dict__", {}).get(attr)
            if not callable(original):
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter_ns(), None, parent, self.op, None))
        self._stack.append(index)
        return index

    def _close(self, index):
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, _, parent, op, info = self.spans[index]
        self.spans[index] = (name, start, end, parent, op, info)

    def _wrap(self, original, name, info):
        signature = inspect.signature(original) if info else None
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if info:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[index] = tracer.spans[index][:5] + (info(bound.arguments, result),)
            return result

        traced.__wrapped__ = original
        return traced

    def write(self, path):
        """All spans, one per line: index, name, start, end, parent, op, info."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\t{info or ''}\n")


def per_op(spans):
    """Per op id, per span name: [calls, total ns, self ns, infos with each span's ns]."""
    child_ns = defaultdict(int)
    for name, start, end, parent, op, info in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, []]))
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        row = out[op][name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[i]
        if info is not None:
            row[3].append({**info, "ns": end - start})
    return out
