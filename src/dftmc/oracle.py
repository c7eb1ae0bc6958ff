"""Independent ground-truth calculators for cross-checking the estimator.

These are deliberately naive (full state enumeration, plain Monte-Carlo) and
share no sampling or accumulation code with the simulation engine, so
agreement between the two is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Exponential, LogNormal, Weibull, _check_positive
from .tree import BasicEvent, FaultTree, Gate, GateKind, top_time

__all__ = [
    "ExactStaticResult",
    "UnsupportedTreeError",
    "TreeTooLargeError",
    "exact_static",
    "smallp_pand_overlap",
    "direct_rich",
    "match_pand_overlap",
]

_STATIC_KINDS = (GateKind.AND, GateKind.OR, GateKind.VOTING)
_MAX_STATIC_EVENTS = 20


class UnsupportedTreeError(ValueError):
    """The tree's shape is outside what this oracle can handle."""


class TreeTooLargeError(ValueError):
    """Too many basic events for full state enumeration."""


@dataclass(frozen=True)
class ExactStaticResult:
    probability: float
    term_count: int


def exact_static(tree: FaultTree, mission_time: float) -> ExactStaticResult:
    """Exact TOP probability of a static tree by enumerating all 2^N states.

    Each basic event is reduced to the Boolean "failed before the mission
    time" with probability p_i = F_i(T); every one of the 2^N joint states
    is weighted by its product mass and the tree is evaluated Boolean-wise.
    Raises ValueError unless ``mission_time`` is finite and positive.
    """
    mission_time = _check_positive(mission_time, "mission_time")
    gates = tree.gate_order
    for gate in gates:
        if gate.kind not in _STATIC_KINDS:
            raise UnsupportedTreeError(
                f"gate {gate.name}: {gate.kind.value} is dynamic; exact enumeration "
                "covers and/or/vote only"
            )
    events = tree.basic_events
    n = len(events)
    if n > _MAX_STATIC_EVENTS:
        raise TreeTooLargeError(f"{n} basic events exceeds the enumeration limit of {_MAX_STATIC_EVENTS}")

    # State mass vector over all 2^n states, event 0 on the high bit.
    mass = np.array([1.0])
    for be in events:
        p = float(be.dist.cdf(mission_time))
        mass = np.kron(mass, np.array([1.0 - p, p]))

    # Boolean value of every node across all states, children first.
    states: dict[str, np.ndarray] = {}
    for i, be in enumerate(events):
        states[be.name] = np.tile(np.repeat(np.array([False, True]), 2 ** (n - 1 - i)), 2**i)
    for gate in gates:
        kids = [states[c] for c in gate.children]
        if gate.kind is GateKind.AND:
            states[gate.name] = np.logical_and.reduce(kids)
        elif gate.kind is GateKind.OR:
            states[gate.name] = np.logical_or.reduce(kids)
        else:
            counts = np.add.reduce([k.astype(np.int64) for k in kids])
            states[gate.name] = counts >= gate.k

    probability = float(np.sum(mass[states[tree.top]]))
    return ExactStaticResult(probability=probability, term_count=2**n)


def smallp_pand_overlap(mission_time: float, mttfs) -> float:
    """Closed small-probability approximation for the four-event overlap tree
    TOP = (e1 and e2 and e3) pand (e2 and e3 and e4), all exponential.

    TOP fails before T exactly when e2, e3, e4 all fail before T and e1
    fails no later than the last of them.  For small p_i the failure times
    conditioned on being below T are nearly uniform on [0, T], so the order
    condition contributes P(U1 <= max(U2, U3, U4)) = 3/4 and

        P(TOP before T) ~= (3/4) * p1 * p2 * p3 * p4,  p_i = 1 - exp(-T/u_i).

    The relative error is of order max(p_i).  Raises ValueError unless
    ``mission_time`` is finite and positive.
    """
    mission_time = _check_positive(mission_time, "mission_time")
    u1, u2, u3, u4 = mttfs
    p = [-math.expm1(-mission_time / u) for u in (u1, u2, u3, u4)]
    return 0.75 * p[0] * p[1] * p[2] * p[3]


def direct_rich(tree: FaultTree, mission_time: float, cycles: int, seed: int = 0):
    """Plain unweighted Monte-Carlo from the base laws.

    Sampling uses the random generator's own distribution routines and the
    scalar tree walk, nothing from the engine's batch path.  Intended for
    non-rare regimes.  Returns (p_hat, std_err) with the binomial standard
    error sqrt(p(1-p)/n).  Raises ValueError unless ``mission_time`` is
    finite and positive.
    """
    mission_time = _check_positive(mission_time, "mission_time")
    if cycles < 1:
        raise ValueError(f"insufficient cycles: {cycles}")
    rng = np.random.default_rng(seed)
    events = tree.basic_events
    columns = []
    for be in events:
        d = be.dist
        if isinstance(d, Exponential):
            col = rng.exponential(d.mttf, cycles)
        elif isinstance(d, Weibull):
            col = d.scale_param * rng.weibull(d.shape, cycles)
        elif isinstance(d, LogNormal):
            col = rng.lognormal(d.mu, d.sigma, cycles)
        else:  # Normal; validate refuses every other law
            col = rng.normal(d.mean, d.sd, cycles)
            bad = col < 0.0
            while np.any(bad):  # rejection keeps times physical
                col[bad] = rng.normal(d.mean, d.sd, int(np.count_nonzero(bad)))
                bad = col < 0.0
        columns.append(col)
    samples = np.column_stack(columns) if columns else np.empty((cycles, 0))

    hits = 0
    for j in range(cycles):
        if top_time(tree, samples[j]) < mission_time:
            hits += 1
    p_hat = hits / cycles
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / cycles)
    return p_hat, std_err


def match_pand_overlap(tree: FaultTree):
    """Recognize the four-event overlap shape and return its MTTFs, or None.

    Shape: TOP = pand(A, B), A = and(e1, e2, e3), B = and(e2, e3, e4) with
    the two middle events shared and every event exponential.
    """
    top = tree.node(tree.top)
    if not isinstance(top, Gate) or top.kind is not GateKind.PAND or len(top.children) != 2:
        return None
    left, right = (tree.node(c) for c in top.children)
    for g in (left, right):
        if not isinstance(g, Gate) or g.kind is not GateKind.AND or len(g.children) != 3:
            return None
    if left.children[1:] != right.children[:2]:
        return None
    names = (left.children[0], left.children[1], left.children[2], right.children[2])
    if len(set(names)) != 4:
        return None
    mttfs = []
    for name in names:
        node = tree.node(name)
        if not isinstance(node, BasicEvent) or not isinstance(node.dist, Exponential):
            return None
        mttfs.append(node.dist.mttf)
    return tuple(mttfs)
