"""Fault tree model: a DAG of basic events and gates, with failure-time semantics.

Nodes are basic events (component failures with a lifetime law) or gates.
Failure times are non-negative floats, with ``math.inf`` meaning "never
fails".  Gate outputs from input times z1..zq:

    or       min(z)
    and      max(z)
    vote(k)  k-th smallest z
    pand     z_q when z1 <= z2 <= ... <= z_q (ties pass), else inf
    seq      z1 + z2 + ... + z_q
    spare(a) z1 when z2 < a*z1, else (1-a)*z1 + z2   (two inputs, a in [0,1])

Child order is significant for pand, seq and spare.  Nodes may be shared
(one node feeding several gates); evaluation visits each node once per
sample.

:func:`validate` checks a tree's structure and owns its evaluation
order, :attr:`FaultTree.gate_order`.  A :class:`FaultTree` runs it when it
is built, so every tree in hand is sound.  Every walker seeds the basic
events by position from :attr:`FaultTree.basic_events`, then visits
``gate_order``.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .distributions import Exponential, Lifetime, LogNormal, Normal, Weibull, _real

__all__ = [
    "GateKind",
    "BasicEvent",
    "Gate",
    "FaultTree",
    "ValidationError",
    "validate",
    "eval_gate",
    "top_time",
    "batch_top_times",
]


class ValidationError(ValueError):
    """Structural problem in a fault tree; the message names the node."""


class GateKind(enum.Enum):
    AND = "and"
    OR = "or"
    VOTING = "vote"
    PAND = "pand"
    SEQ = "seq"
    SPARE = "spare"


@dataclass(frozen=True)
class BasicEvent:
    name: str
    dist: Lifetime


@dataclass(frozen=True)
class Gate:
    name: str
    kind: GateKind
    children: tuple[str, ...]
    k: int | None = None  # voting threshold
    dormancy: float | None = None  # spare only

    def __post_init__(self):
        if isinstance(self.children, str):  # tuple("AB") would read as ("A", "B")
            raise TypeError(f"gate {self.name}: children must be a sequence of names, not {self.children!r}")
        object.__setattr__(self, "children", tuple(self.children))
        # numbers become the Python int or float they equal; validate refuses the rest
        if isinstance(self.k, numbers.Integral) and not isinstance(self.k, bool):
            object.__setattr__(self, "k", int(self.k))
        if (dormancy := _real(self.dormancy)) is not None:
            object.__setattr__(self, "dormancy", dormancy)


@dataclass(frozen=True)
class FaultTree:
    """Ordered node set plus the name of the TOP node.

    Construction runs :func:`validate`, so a structurally bad tree raises
    :class:`ValidationError` here and every tree has :attr:`gate_order`:
    the gates in children-first order, a gate at TOP last.  Basic events
    keep their declaration order, and sample vectors are indexed by
    position in :attr:`basic_events`.  A tree is frozen, so its order and
    name index cannot fall out of step with its nodes.
    """

    nodes: tuple[BasicEvent | Gate, ...]
    top: str
    gate_order: tuple[Gate, ...] = field(init=False, repr=False, compare=False)
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        validate(self)

    @property
    def basic_events(self) -> tuple[BasicEvent, ...]:
        return tuple(n for n in self.nodes if isinstance(n, BasicEvent))

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(n for n in self.nodes if isinstance(n, Gate))

    def node(self, name: str) -> BasicEvent | Gate:
        return self._by_name[name]


def validate(tree: FaultTree) -> FaultTree:
    """Check all structural invariants, set the evaluation order, return the tree.

    :class:`FaultTree` calls this when it is built; calling it again is
    harmless.  Raises :class:`ValidationError` naming the offending node
    for: duplicate names, undeclared children, bad arity, a voting threshold
    not an int in range, a spare dormancy not a float in [0, 1], cycles,
    and nodes unreachable from TOP.  Raises ``TypeError`` for a basic event
    whose law is none of the four lifetime families.
    """
    by_name: dict[str, BasicEvent | Gate] = {}
    for node in tree.nodes:
        if node.name in by_name:
            raise ValidationError(f"duplicate node name: {node.name}")
        by_name[node.name] = node

    if tree.top not in by_name:
        raise ValidationError(f"top node not declared: {tree.top}")

    for node in tree.nodes:
        if not isinstance(node, Gate):
            if not isinstance(node.dist, (Exponential, Weibull, LogNormal, Normal)):
                raise TypeError(f"basic event {node.name}: unknown distribution {type(node.dist).__name__}")
            continue
        for child in node.children:
            if child not in by_name:
                raise ValidationError(f"gate {node.name}: undeclared child {child}")
        arity = len(node.children)
        if node.kind in (GateKind.AND, GateKind.OR, GateKind.PAND, GateKind.SEQ):
            if arity < 2:
                raise ValidationError(
                    f"gate {node.name}: {node.kind.value} needs at least 2 children, has {arity}"
                )
        elif node.kind is GateKind.VOTING:
            if arity < 1:
                raise ValidationError(f"gate {node.name}: vote needs at least 1 child")
            if type(node.k) is not int or not 1 <= node.k <= arity:
                raise ValidationError(
                    f"gate {node.name}: voting threshold {node.k!r} is not an integer, or out of range 1..{arity}"
                )
        elif node.kind is GateKind.SPARE:
            if arity != 2:
                raise ValidationError(
                    f"gate {node.name}: spare takes exactly 2 children, has {arity}"
                )
            if type(node.dormancy) is not float or not 0.0 <= node.dormancy <= 1.0:
                raise ValidationError(
                    f"gate {node.name}: spare dormancy {node.dormancy!r} is not a number, or outside [0, 1]"
                )

    # Iterative DFS from TOP: detects cycles (naming the cycle) and yields a
    # children-first evaluation order.
    gate_order: list[Gate] = []
    state: dict[str, int] = {}  # 1 = on stack, 2 = done
    stack: list[tuple[str, int]] = [(tree.top, 0)]
    path: list[str] = []
    while stack:
        name, child_idx = stack.pop()
        node = by_name[name]
        if child_idx == 0:
            state[name] = 1
            path.append(name)
        children = node.children if isinstance(node, Gate) else ()
        if child_idx < len(children):
            stack.append((name, child_idx + 1))
            child = children[child_idx]
            if state.get(child) == 1:
                cycle_start = path.index(child)
                cycle = path[cycle_start:] + [child]
                raise ValidationError("cycle detected: " + " -> ".join(cycle))
            if state.get(child) != 2:
                stack.append((child, 0))
        else:
            state[name] = 2
            path.pop()
            if isinstance(node, Gate):
                gate_order.append(node)

    unreachable = [n.name for n in tree.nodes if state.get(n.name) != 2]
    if unreachable:
        raise ValidationError("nodes unreachable from top: " + ", ".join(unreachable))

    object.__setattr__(tree, "_by_name", by_name)
    object.__setattr__(tree, "gate_order", tuple(gate_order))
    return tree


def eval_gate(kind: GateKind, values, *, k: int | None = None, dormancy: float | None = None) -> float:
    """Output failure time of a single gate from its input times."""
    values = list(values)
    if kind is GateKind.OR:
        return min(values)
    if kind is GateKind.AND:
        return max(values)
    if kind is GateKind.VOTING:
        return sorted(values)[k - 1]
    if kind is GateKind.PAND:
        for a, b in zip(values, values[1:]):
            if a > b:
                return math.inf
        return values[-1]
    if kind is GateKind.SEQ:
        return sum(values)
    if kind is GateKind.SPARE:
        z1, z2 = values
        # endpoints are split out so 0 * inf never arises
        if dormancy == 0.0:
            return z1 + z2
        if dormancy == 1.0:
            return z1 if z2 < z1 else z2
        if z2 < dormancy * z1:
            return z1
        return (1.0 - dormancy) * z1 + z2
    raise ValueError(f"unknown gate kind: {kind}")


def top_time(tree: FaultTree, sample) -> float:
    """Failure time of TOP for one vector of basic-event times.

    ``sample`` is indexed like ``tree.basic_events``.  Shared subtrees are
    evaluated once.
    """
    gates = tree.gate_order
    events = tree.basic_events
    if len(sample) != len(events):
        raise ValueError(
            f"sample has {len(sample)} entries, tree has {len(events)} basic events"
        )
    values = {be.name: float(t) for be, t in zip(events, sample)}
    for gate in gates:
        values[gate.name] = eval_gate(
            gate.kind,
            [values[c] for c in gate.children],
            k=gate.k,
            dormancy=gate.dormancy,
        )
    return values[tree.top]


def _kth_smallest(kids: list[np.ndarray], k: int) -> np.ndarray:
    """Elementwise k-th smallest of equal-length arrays.

    A selection by compare-exchanges: the running ``m`` smallest inputs
    are kept in order, where ``m = k``, or, when shorter, the running
    ``q - k + 1`` largest with min and max swapped.  ``np.minimum`` and
    ``np.maximum`` return one of their inputs, so the result is exactly an
    input value, as a sort would give.
    """
    q = len(kids)
    if k <= q - k + 1:
        low, high, m = np.minimum, np.maximum, k
    else:
        low, high, m = np.maximum, np.minimum, q - k + 1
    kept: list[np.ndarray] = []
    for x in kids:
        n = len(kept)
        for j in range(n):
            if j == m - 1:
                # the list is full: what is pushed past its end is dropped
                kept[j] = low(kept[j], x)
            else:
                kept[j], x = low(kept[j], x), high(kept[j], x)
        if n < m:
            kept.append(x)
    return kept[m - 1]


def _fold(ufunc, kids):
    """The left fold of a two-input ufunc over ``kids``, in one new array.

    It gives what ``ufunc.reduce`` over the stacked inputs gives, bit for
    bit, with no stack and no array per step.
    """
    out = ufunc(kids[0], kids[1])
    for kid in kids[2:]:
        ufunc(out, kid, out=out)
    return out


def batch_top_times(tree: FaultTree, times: np.ndarray) -> np.ndarray:
    """Vectorized TOP failure times for a ``(cycles, basic_events)`` array,
    one per cycle.

    Semantically identical to calling :func:`top_time` row by row; used by
    the simulation engine where per-sample Python dispatch would dominate.
    Every gate works elementwise on whole event columns ``times[:, i]``,
    so any memory layout gives the same result; the engine passes the
    ``(cycles, events)`` view of a block's ``(events, cycles)`` buffer, in
    which each event's times are contiguous.  No gate stacks its inputs:
    a vote gate is a min/max selection (:func:`_kth_smallest`), not a
    sort.  A gate's output is dropped once its last consumer has read it,
    so only the live ones are held.

    The engine may pass times censored at the mission time T: at d = 1 an
    input whose lifetime lies past T is inf.  Up to rounding at the window
    edge, that leaves every output below T as it was, and every other
    output at or past T (docs/design-notes.md, "Batch layout", argues it
    per kind).
    """
    gates = tree.gate_order
    events = tree.basic_events
    times = np.asarray(times, dtype=float)
    if times.ndim != 2 or times.shape[1] != len(events):
        raise ValueError("times must have one column per basic event")
    last_use = {c: j for j, node in enumerate(gates) for c in node.children}
    values = {be.name: times[:, i] for i, be in enumerate(events)}
    for j, node in enumerate(gates):
        kids = [values[c] for c in node.children]
        for c in node.children:
            if last_use[c] == j:
                values.pop(c, None)
        if node.kind is GateKind.OR:
            out = _fold(np.minimum, kids)
        elif node.kind is GateKind.AND:
            out = _fold(np.maximum, kids)
        elif node.kind is GateKind.VOTING:
            out = _kth_smallest(kids, node.k)
        elif node.kind is GateKind.PAND:
            ordered = np.ones(len(times), dtype=bool)
            for a, b in zip(kids, kids[1:]):
                ordered &= a <= b
            last = kids[-1]
            # drop the earlier inputs first, so their memory can hold the output
            del a, b
            kids.clear()
            out = np.where(ordered, last, np.inf)
        elif node.kind is GateKind.SEQ:
            out = _fold(np.add, kids)
        elif node.kind is GateKind.SPARE:
            z1, z2 = kids
            a = node.dormancy
            if a == 0.0:
                out = z1 + z2
            elif a == 1.0:
                out = np.where(z2 < z1, z1, z2)
            else:
                out = np.where(z2 < a * z1, z1, (1.0 - a) * z1 + z2)
        else:
            raise ValueError(f"unknown gate kind: {node.kind}")
        values[node.name] = out
    return values[tree.top]
