"""Seeded random generators for trees, samples and documents used by tests,
and the rounding-prone laws that several test files share."""

import math

import numpy as np

from dftmc import BasicEvent, FaultTree, Gate, GateKind
from dftmc.distributions import Exponential, LogNormal, Normal, Weibull
from dftmc.parser import TreeDocument

ALL_KINDS = (GateKind.AND, GateKind.OR, GateKind.VOTING, GateKind.PAND, GateKind.SEQ, GateKind.SPARE)
STATIC_KINDS = (GateKind.AND, GateKind.OR, GateKind.VOTING)

_NDTRI = None


def _ndtri(p):
    global _NDTRI
    if _NDTRI is None:
        from scipy.special import ndtri

        _NDTRI = ndtri
    return float(_NDTRI(p))


def random_dist(rng: np.random.Generator):
    """A lifetime law with parameters in comfortable ranges."""
    family = rng.integers(0, 4)
    if family == 0:
        return Exponential(float(rng.uniform(0.5, 50.0)))
    if family == 1:
        return Weibull(float(rng.uniform(0.5, 50.0)), float(rng.uniform(0.5, 3.0)))
    if family == 2:
        return LogNormal(float(rng.uniform(-1.0, 3.0)), float(rng.uniform(0.3, 1.5)))
    mean = float(rng.uniform(1.0, 20.0))
    return Normal(mean, mean * float(rng.uniform(0.05, 0.4)))


def dist_with_failure_probability(rng: np.random.Generator, p: float, mission_time: float = 1.0):
    """A lifetime law whose CDF at the mission time is (almost) exactly p."""
    family = rng.integers(0, 4)
    t = mission_time
    if family == 0:
        return Exponential(-t / math.log1p(-p))
    if family == 1:
        shape = float(rng.uniform(0.5, 3.0))
        return Weibull(t / (-math.log1p(-p)) ** (1.0 / shape), shape)
    if family == 2:
        sigma = float(rng.uniform(0.3, 1.5))
        return LogNormal(math.log(t) - sigma * _ndtri(p), sigma)
    # mean/sd ratio 8 leaves ndtr(-8) ~ 6e-16 of mass below zero, so truncating
    # it moves F(T) off p by no more than that
    z = _ndtri(p)
    mean = t / (1.0 + z / 8.0)
    return Normal(mean, mean / 8.0)


# Normal laws, each with a mission time at which its quantile of F(T) does
# not land past T: the first two land 1.7e-4 and 1.4e-4 relative below it,
# through the cancellation in lo + p * (1 - lo); the third, whose sd/mean is
# 1e-12, lands on T.  Each has F(T) well below engine.CUT_MAX, so a d = 1
# model censors it at F(T) like any other law.
ROUNDING_NORMALS = (
    (Normal(89.64343937582649, 25.97088417536897), 1.6935075564106228e-10),
    (Normal(0.1822932797058661, 0.07976044781624927), 2.030320356283255e-13),
    (Normal(1e-10, 1e-22), 1e-10 * (1.0 - 2e-12)),
)


def one_law_per_family(p: float, mission_time: float = 1.0):
    """An Exponential, Weibull, LogNormal and Normal law, each with F(T) = p."""
    laws = {}
    seed = 0
    while len(laws) < 4:
        law = dist_with_failure_probability(np.random.default_rng(seed), p, mission_time)
        laws.setdefault(type(law), law)
        seed += 1
    return [laws[family] for family in (Exponential, Weibull, LogNormal, Normal)]


def random_gate_kind(rng, kinds):
    return kinds[int(rng.integers(0, len(kinds)))]


def random_tree(rng: np.random.Generator, n_events: int, kinds=ALL_KINDS, dist_factory=random_dist) -> FaultTree:
    """A random connected DAG over ``n_events`` basic events.

    Gates combine currently "open" nodes bottom-up until a single root is
    left; children may also re-use closed nodes, which produces sharing.
    """
    nodes: list = [BasicEvent(f"E{i}", dist_factory(rng)) for i in range(n_events)]
    open_names = [n.name for n in nodes]
    closed: list[str] = []
    gate_no = 0
    while len(open_names) > 1:
        kind = random_gate_kind(rng, kinds)
        n_open = 2 if kind is GateKind.SPARE else int(rng.integers(2, min(4, len(open_names)) + 1))
        idx = sorted(int(i) for i in rng.choice(len(open_names), size=n_open, replace=False))
        children = [open_names[i] for i in idx]
        for i in reversed(idx):
            closed.append(open_names.pop(i))
        # occasional sharing: an extra child drawn from already-used nodes
        if kind is not GateKind.SPARE and closed and rng.random() < 0.3:
            children.append(closed[int(rng.integers(0, len(closed)))])
        children = [children[i] for i in rng.permutation(len(children))]
        arity = len(children)
        k = int(rng.integers(1, arity + 1)) if kind is GateKind.VOTING else None
        dormancy = float(rng.uniform(0.0, 1.0)) if kind is GateKind.SPARE else None
        gate = Gate(f"G{gate_no}", kind, tuple(children), k=k, dormancy=dormancy)
        gate_no += 1
        nodes.append(gate)
        open_names.append(gate.name)
    return FaultTree(tuple(nodes), top=open_names[0])


def random_static_tree(rng: np.random.Generator, n_events: int, p_low=0.01, p_high=0.3) -> FaultTree:
    def factory(r):
        return dist_with_failure_probability(r, float(r.uniform(p_low, p_high)))

    return random_tree(rng, n_events, kinds=STATIC_KINDS, dist_factory=factory)


def random_sample(rng: np.random.Generator, n: int, mission_time: float = 1.0):
    """Failure times straddling the mission horizon, with occasional inf."""
    t = rng.exponential(mission_time, n)
    t[rng.random(n) < 0.1] = math.inf
    return t


def random_document(rng: np.random.Generator) -> TreeDocument:
    tree = random_tree(rng, int(rng.integers(2, 7)))
    doc = TreeDocument(
        mission_time=float(rng.uniform(0.5, 10.0)) if rng.random() < 0.7 else None,
        events=list(tree.basic_events),
        gates=list(tree.gates),
        top=tree.top,
    )
    return doc
