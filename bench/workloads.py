"""Inputs of the dftmc benchmark: one pinned demo tree and two generated trees.

Every input is ``.dft`` text made from the workload seed alone.  The
generator lives here, not in the program or its tests, so an edit to the
program cannot move a workload; the benchmark only hands the text to the
program's parser.

Generated trees fix, for a given size, the exact number of basic events of
each lifetime family, of gates of each kind, of each gate arity and of
shared children.  The seed chooses which event or gate gets which role and
all parameters.  That keeps the work per op nearly the same from seed to
seed while the inputs still differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("and", "or", "vote", "pand", "seq", "spare")
FAMILIES = ("exp", "weibull", "lognormal", "normal")

# Share of non-spare gates that also take one already-used node as an extra
# child, which makes the DAG share subtrees.
SHARED_SHARE = 0.3

# Base-law cycles simulated to classify a generated tree, and to calibrate it
# to a target probability p: the calibrated P(TOP < T) is then off by about
# 1/sqrt(CALIBRATION_SAMPLES * p) relative (1.3% at p = 0.028).  Drawn in
# chunks to keep the benchmark's own memory below the program's.
CLASSIFY_SAMPLES = 40_000
CALIBRATION_SAMPLES = 200_000
CHUNK = 5_000

# The committed demo model (trees/pand_overlap.dft), pinned here so an edit
# to the repository's example file cannot move the workload.  TOP fails
# before T = 1 with probability about 3.1e-14.
DEMO_PAND_DFT = """\
dft 1
mission_time 1.0
be BE1 exp mttf=1000.0
be BE2 exp mttf=2000.0
be BE3 exp mttf=3000.0
be BE4 exp mttf=4000.0
gate A and BE1 BE2 BE3
gate B and BE2 BE3 BE4
gate TOP pand A B
top TOP
"""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to make its tree and how to check results.

    ``events == 0`` selects the pinned demo tree.  ``oracle`` names the
    independent reference every op is checked against: ``smallp`` (the
    pand-overlap closed form), ``direct`` (plain Monte-Carlo from
    ``oracle.direct_rich`` with ``oracle_cycles`` cycles) or ``none``.
    """

    name: str
    mission_time: float
    cycles: int
    oracle: str
    events: int = 0
    kind_mix: tuple[float, ...] = ()
    target_p: float | None = None
    oracle_cycles: int = 20_000


# Each workload loads one layer and leaves another idle (BENCHMARK.json has
# the one-line reasons):
# - demo_pand: importance sampling at 1e6 cycles on 4 exponential events.
#   run_batch's own code (Philox, full-row weights and sums) dominates;
#   reference scales are closed forms and only ~5% of rows are hits.
# - direct_dyn200: the pilot at d = 1 already hits, so the op runs direct:
#   quantile and tree evaluation dominate, with no weights and no bisection.
# - exhaust_dyn200: every pilot up to d = 2^29 has zero hits and the op ends
#   in SearchError after 30 iterations; bisection for the lognormal and
#   normal reference scales dominates.  It records that failure mode.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo_pand", mission_time=1.0, cycles=1_000_000, oracle="smallp"),
        Workload(
            "direct_dyn200",
            mission_time=10.0,
            cycles=100_000,
            oracle="direct",
            events=200,
            kind_mix=(0.1, 0.5, 0.1, 0.1, 0.1, 0.1),  # and, or, vote, pand, seq, spare
            target_p=0.028,
        ),
        Workload(
            "exhaust_dyn200",
            mission_time=1.0,
            cycles=100_000,
            oracle="none",
            events=200,
            kind_mix=(1 / 6,) * 6,
        ),
    )
}


def tree_text(workload: Workload, seed: int) -> str:
    """The ``.dft`` text of ``workload`` for workload seed ``seed``.

    Only priority gates can keep TOP from failing at all, so the share of
    cycles in which TOP ever fails is fixed by the tree's order constraints,
    and it sets the workload's character.  Trees are drawn from the seed's
    stream until one fits.  With a target probability p, TOP must fail in at
    least half of the cycles; every lifetime is then scaled so that the
    base-law p-quantile of the TOP time lands on the mission time.  Without
    one, TOP must never fail in CLASSIFY_SAMPLES cycles: its order
    constraints are almost never met, which no common drop parameter d can
    change (docs/design-notes.md, "Limits of a single drop parameter").
    """
    if workload.events == 0:
        return DEMO_PAND_DFT
    rng = np.random.default_rng(np.random.SeedSequence([seed, _name_key(workload.name)]))
    while True:
        events = _random_events(rng, workload.events)
        gates = _random_gates(rng, workload.events, workload.kind_mix)
        fails = np.isfinite(_base_top_times(rng, events, gates, CLASSIFY_SAMPLES))
        if workload.target_p is None and not fails.any():
            return _render(workload.mission_time, events, gates)
        if workload.target_p is not None and fails.mean() >= 0.5:
            top = _base_top_times(rng, events, gates, CALIBRATION_SAMPLES)
            factor = workload.mission_time / float(np.quantile(top, workload.target_p))
            return _render(workload.mission_time, [_rescale(e, factor) for e in events], gates)


def op_seed(seed: int, index) -> int:
    """Run seed of op ``index`` (or of a named draw such as ``"oracle"``) under ``seed``."""
    key = index if isinstance(index, int) else _name_key(index)
    return int(np.random.SeedSequence([seed, _name_key("ops"), key]).generate_state(1, np.uint64)[0])


def _name_key(name: str) -> int:
    return int.from_bytes(name.encode("utf-8")[:8].ljust(8, b"\0"), "little")


def _exact_counts(total: int, shares) -> list[int]:
    """Split ``total`` by ``shares`` with largest-remainder rounding."""
    raw = [total * s / sum(shares) for s in shares]
    counts = [math.floor(r) for r in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _random_events(rng, n):
    """Basic events as (family, params) with n/4 of each family."""
    families = rng.permutation(np.repeat(np.arange(len(FAMILIES)), _exact_counts(n, [1] * 4)))
    events = []
    for f in families:
        family = FAMILIES[f]
        if family == "exp":
            params = {"mttf": rng.uniform(0.5, 50.0)}
        elif family == "weibull":
            params = {"scale": rng.uniform(0.5, 50.0), "shape": rng.uniform(0.5, 3.0)}
        elif family == "lognormal":
            params = {"mu": rng.uniform(-1.0, 3.0), "sigma": rng.uniform(0.3, 1.5)}
        else:
            mean = rng.uniform(1.0, 20.0)
            params = {"mean": mean, "sd": mean * rng.uniform(0.05, 0.4)}
        events.append((family, {k: float(v) for k, v in params.items()}))
    return events


def _random_gates(rng, n_events, kind_mix):
    """Gates built bottom-up over the events until one root is left.

    There are n_events // 2 gates.  Kinds follow ``kind_mix`` exactly, spare
    gates have two inputs and the other arities (2 to 4) are fixed so that
    every node ends up used.  Each gate is (kind, children, k, dormancy).
    """
    n_gates = n_events // 2
    kinds = [k for k, c in zip(KINDS, _exact_counts(n_gates, kind_mix)) for _ in range(c)]
    n_spare = kinds.count("spare")
    arities = _arities(n_gates - n_spare, n_events - 1 + n_gates - 2 * n_spare)
    plan = [(k, 2) for k in kinds if k == "spare"]
    plan += list(zip([k for k in kinds if k != "spare"], arities))
    plan = [plan[i] for i in rng.permutation(len(plan))]
    non_spare = [i for i, (k, _) in enumerate(plan) if k != "spare" and i > 0]
    shared = set(rng.choice(non_spare, size=round(SHARED_SHARE * len(non_spare)), replace=False).tolist())

    open_names = [f"E{i}" for i in range(n_events)]
    closed: list[str] = []
    gates = []
    for g, (kind, arity) in enumerate(plan):
        picked = sorted(rng.choice(len(open_names), size=arity, replace=False).tolist())
        children = [open_names[i] for i in picked]
        if g in shared:
            children.append(closed[int(rng.integers(0, len(closed)))])
        for i in reversed(picked):
            closed.append(open_names.pop(i))
        children = [children[i] for i in rng.permutation(len(children))]
        k = int(rng.integers(1, len(children) + 1)) if kind == "vote" else None
        dormancy = float(rng.uniform(0.0, 1.0)) if kind == "spare" else None
        gates.append((kind, children, k, dormancy))
        open_names.append(f"G{g}")
    assert open_names == [f"G{n_gates - 1}"]
    return gates


def _arities(count, total):
    """``count`` arities in 2..4, as even a mix as possible, summing to ``total``."""
    arities = [2 + i % 3 for i in range(count)]
    i = 0
    while sum(arities) != total:
        step = 1 if sum(arities) < total else -1
        if 2 <= arities[i % count] + step <= 4:
            arities[i % count] += step
        i += 1
    return arities


def _sample(rng, family, params, size):
    """Base-law failure times, drawn with numpy's own samplers."""
    if family == "exp":
        return rng.exponential(params["mttf"], size)
    if family == "weibull":
        return params["scale"] * rng.weibull(params["shape"], size)
    if family == "lognormal":
        return rng.lognormal(params["mu"], params["sigma"], size)
    out = rng.normal(params["mean"], params["sd"], size)
    bad = out < 0.0
    while bad.any():  # truncated to non-negative times
        out[bad] = rng.normal(params["mean"], params["sd"], int(bad.sum()))
        bad = out < 0.0
    return out


def _top_times(values, gates):
    """TOP failure times given per-event time columns (gate semantics of the .dft format)."""
    values = dict(values)
    for g, (kind, children, k, a) in enumerate(gates):
        kids = [values[c] for c in children]
        if kind == "or":
            out = np.minimum.reduce(kids)
        elif kind == "and":
            out = np.maximum.reduce(kids)
        elif kind == "vote":
            out = np.sort(np.stack(kids), axis=0)[k - 1]
        elif kind == "pand":
            ordered = np.logical_and.reduce([x <= y for x, y in zip(kids, kids[1:])])
            out = np.where(ordered, kids[-1], np.inf)
        elif kind == "seq":
            out = np.add.reduce(kids)
        elif a == 0.0:  # spare with dormancy a; the endpoints avoid 0 * inf
            out = kids[0] + kids[1]
        elif a == 1.0:
            out = np.maximum(kids[0], kids[1])
        else:
            z1, z2 = kids
            out = np.where(z2 < a * z1, z1, (1.0 - a) * z1 + z2)
        values[f"G{g}"] = out
    return values[f"G{len(gates) - 1}"]


def _base_top_times(rng, events, gates, samples):
    """TOP failure times of ``samples`` cycles under the base laws."""
    chunks = []
    for start in range(0, samples, CHUNK):
        size = min(CHUNK, samples - start)
        columns = {f"E{i}": _sample(rng, family, params, size) for i, (family, params) in enumerate(events)}
        chunks.append(_top_times(columns, gates))
    return np.concatenate(chunks)


def _rescale(event, factor):
    """The same law with every failure time multiplied by ``factor``.

    Every gate output scales with its inputs, so scaling all events by
    T / q moves the base-law p-quantile q of the TOP time to T.
    """
    family, params = event
    if family == "exp":
        return family, {"mttf": params["mttf"] * factor}
    if family == "weibull":
        return family, {"scale": params["scale"] * factor, "shape": params["shape"]}
    if family == "lognormal":
        return family, {"mu": params["mu"] + math.log(factor), "sigma": params["sigma"]}
    return family, {"mean": params["mean"] * factor, "sd": params["sd"] * factor}


def _render(mission_time, events, gates):
    lines = ["dft 1", f"mission_time {mission_time!r}"]
    for i, (family, params) in enumerate(events):
        lines.append(f"be E{i} {family} " + " ".join(f"{k}={v!r}" for k, v in params.items()))
    for g, (kind, children, k, a) in enumerate(gates):
        token = f"vote:{k}" if kind == "vote" else f"spare:a={a!r}" if kind == "spare" else kind
        lines.append(f"gate G{g} {token} " + " ".join(children))
    lines.append(f"top G{len(gates) - 1}")
    return "\n".join(lines) + "\n"
