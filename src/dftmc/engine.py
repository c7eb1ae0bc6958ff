"""Monte-Carlo estimation of TOP failure probability with importance sampling.

The estimator draws basic-event failure times from scaled reference laws and
corrects each cycle by a likelihood ratio built from mixed densities: the
continuous density ratio f(t)/g(t) for times inside the mission window, and
the lumped tail-mass ratio (1-F(T))/(1-G(T)) for times beyond it.  By
construction of the reference scales the tail factor equals the common
drop parameter ``d`` for every event.

There is one sampling-and-weight path, and it works on whole groups of
blocks: ``sample_times`` draws each block's uniforms from its own stream
straight into one event-major buffer and turns them into failure times in
place, and ``log_weights`` turns the rows a mask selects from a matrix of
failure times into per-cycle log likelihood ratios.  No other code samples
or weights cycles.

At d = 1 the times matrix is censored at the mission time T, which
samples the mixed law the weights are built from as it stands: an event
whose F(T) is below ``CUT_MAX`` is in the window exactly when its uniform
is below F(T), and then its time is F^-1(u); otherwise it is inf.

All reference laws hang off a single knob ``d``; a preliminary search picks
``d`` so that the hit count over a small pilot run lands inside a target
band, doubling ``d`` until bracketed and then bisecting the bracket in
log d.  At d = 1 the reference laws are the base laws and every weight is
exactly 1, so direct simulation is the d = 1 run without weights: one final
run serves both methods, and ``model.d`` alone decides whether it weights.

Reproducibility contract: cycle j draws its uniforms from the stream of
its block b = j // BATCH, which is the PCG64DXSM generator that
``SeedSequence([seed, phase])`` seeds, jumped ahead by b << 64 steps, and
per-block partial sums are merged in fixed block order, so results are
bit-identical for any thread count and any grouping of blocks.  A group
is as many consecutive blocks as fit in ``GROUP_FLOATS`` floats (at least
one); it is the unit of work of a worker, which reuses one group buffer
and one generator, so a run holds at most one of each per worker.
"""

from __future__ import annotations

import math
import numbers
import os
import queue
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _special
from .distributions import ReferenceDistribution, ReferenceSolverError, scale, solve_reference
from .distributions import _check_positive
from .tree import FaultTree, batch_top_times

__all__ = [
    "RunConfig",
    "ReferenceModel",
    "SearchIteration",
    "SearchTrace",
    "Estimate",
    "BatchTotals",
    "SearchError",
    "build_reference_model",
    "sample_times",
    "log_weights",
    "run_batch",
    "select_reference",
    "estimate_top",
]

# Cycles per random stream block.  Fixed: results must not depend on the
# number of worker threads, only on (seed, phase, cycle index).
BATCH = 4096

# Uniforms drawn per row chunk while filling a block buffer: the chunk's
# (rows, events) matrix stays cache-sized whatever the tree's width.
DRAW_CHUNK = 1 << 16

# Floats of one group buffer: a tree of n events runs
# max(1, GROUP_FLOATS // (n * BATCH)) consecutive blocks per kernel call, so
# small trees pay each numpy call once per group rather than once per block.
GROUP_FLOATS = 1 << 17

_MASK64 = (1 << 64) - 1

# Stream phases.  Every final run, direct or importance, is phase 0; pilot
# ic is phase ic.
PHASE_FINAL = 0

# Pilot runs the d search makes before giving up.
MAX_SEARCH_ITERATIONS = 30

# Censored inversion at d = 1 (:func:`_window_cut`).  Above CUT_MAX,
# inverting the whole row is as fast (per-family crossovers in
# docs/design-notes.md, "Batch layout").
CUT_MAX = 0.25


class SearchError(RuntimeError):
    """The reference-parameter search ran out of iterations."""

    def __init__(self, message: str, trace: "SearchTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one estimation run, stored as the Python numbers they were checked as."""

    mission_time: float
    cycles: int = 100_000
    prelim_cycles: int = 1_000
    ampos_low: int = 10
    ampos_high: int = 100
    confidence: float = 0.999
    seed: int = 0  # in [0, 2**64)
    method: str = "auto"  # auto | direct

    def __post_init__(self):
        object.__setattr__(self, "mission_time", _check_positive(self.mission_time, "mission_time"))
        for name in ("cycles", "prelim_cycles", "ampos_low", "ampos_high", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (0 <= self.seed <= _MASK64):
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.method not in ("auto", "direct"):
            raise ValueError(f"method must be auto or direct, got {self.method!r}")
        if self.cycles < 2:  # the variance divides by cycles - 1
            raise ValueError(f"cycles must be at least 2, got {self.cycles}")
        if not (0 < self.ampos_low < self.ampos_high <= self.prelim_cycles):
            raise ValueError(
                "need 0 < ampos_low < ampos_high <= prelim_cycles, got "
                f"{self.ampos_low}, {self.ampos_high}, {self.prelim_cycles}"
            )
        if self.method != "direct" and self.cycles < self.prelim_cycles:
            raise ValueError("cycles must be >= prelim_cycles when the d search runs")
        object.__setattr__(self, "confidence", _check_positive(self.confidence, "confidence"))
        if not 0.5 + self.confidence / 2.0 < 1.0:  # else the z quantile is inf
            raise ValueError(f"confidence must be in (0, 1) with a finite z quantile, got {self.confidence!r}")


@dataclass(frozen=True)
class ReferenceModel:
    """Per-event reference laws tied together by the common drop parameter d.

    ``cuts[i]`` is event i's F(T) at d = 1: the uniform at and above which
    :func:`sample_times` censors its lifetimes to inf.  1.0 inverts every
    uniform.
    """

    d: float
    events: tuple[str, ...]
    refs: tuple[ReferenceDistribution, ...]
    cuts: tuple[float, ...]


@dataclass(frozen=True)
class SearchIteration:
    ic: int
    d: float
    d_low: float
    d_up: float  # math.inf while unbracketed above
    ampos: int


@dataclass
class SearchTrace:
    iterations: list[SearchIteration] = field(default_factory=list)


@dataclass(frozen=True)
class BatchTotals:
    """Accumulators over simulated cycles."""

    hits: int
    weight_sum: float
    weight_sq_sum: float


@dataclass(frozen=True)
class Estimate:
    p_hat: float
    std_err: float
    ci_low: float
    ci_high: float
    hits: int
    cycles_used: int
    method: str  # "importance" or "direct"
    confidence: float
    z: float
    reference: ReferenceModel | None = None
    trace: SearchTrace | None = None


def build_reference_model(tree: FaultTree, d: float, mission_time: float) -> ReferenceModel:
    """Solve every basic event's reference scale at drop parameter d.

    Only at d = 1 does each event get its censoring cut (:func:`_window_cut`).
    Every other d inverts its rows whole, the values between 1 and 2 that
    the search tries when it bisects included.  Since 1 - G(T) = S_F(T)/d,
    G(T) >= 1 - 1/d: from d = 2 up that is at least 0.5, far above
    ``CUT_MAX``, so nothing is lost.  Below d = 4/3 the bound falls under
    ``CUT_MAX`` and a cut could pay, but no benchmark workload runs such a
    model.
    """
    names = []
    refs = []
    for be in tree.basic_events:
        try:
            v = solve_reference(be.dist, d, mission_time)
        except ReferenceSolverError as exc:
            raise ReferenceSolverError(f"event {be.name}: {exc}") from exc
        names.append(be.name)
        refs.append(scale(be.dist, v))
    if d == 1.0:
        cuts = tuple(_window_cut(ref.law, mission_time) for ref in refs)
    else:
        cuts = (1.0,) * len(refs)
    return ReferenceModel(d=d, events=tuple(names), refs=tuple(refs), cuts=cuts)


def _window_cut(law, mission_time: float) -> float:
    """``law``'s F(T) = -expm1(log S(T)) when it is below ``CUT_MAX``, else 1.0.

    Laws past the float range may overflow on the way; a nan F(T) falls to
    1.0, which inverts every uniform.
    """
    with np.errstate(all="ignore"):
        c = float(-np.expm1(law.log_sf(mission_time)))
    return c if c < CUT_MAX else 1.0


def _stream_base(seed: int, phase: int) -> dict:
    """The state of block 0's generator: PCG64DXSM seeded by
    ``SeedSequence([seed, phase])``.  Every other block of the run is this
    state advanced (:func:`_stream`), so a run hashes its seed once.
    """
    return np.random.PCG64DXSM(np.random.SeedSequence([seed, phase])).state


def _stream(
    base: dict, batch_index: int, gen: np.random.Generator | None = None
) -> np.random.Generator:
    """Block ``batch_index``'s generator: the PCG64DXSM state ``base``
    advanced by ``batch_index << 64`` steps.

    With ``gen``, a PCG64DXSM generator, that state is set in place and
    ``gen`` is returned.  Setting the state also clears the spare 32-bit
    half a 32-bit draw may have left, so this draws exactly what a new
    generator would, whatever ``gen`` drew before.  Blocks are 2**64
    draws apart, far more than a block reads.
    """
    if gen is None:
        gen = np.random.Generator(np.random.PCG64DXSM(0))
    gen.bit_generator.state = base
    gen.bit_generator.advance(batch_index << 64)
    return gen


def _fill_uniforms(gen: np.random.Generator, out: np.ndarray) -> None:
    """Fill an event-major ``(events, rows)`` buffer from ``gen``.

    Cycle ``j`` gets the uniforms that row ``j`` of ``gen.random((rows,
    events))`` would hold, bit for bit: the stream is read row by row in
    chunks of about ``DRAW_CHUNK`` uniforms, and each chunk is written
    transposed into its columns of ``out``.
    """
    events, rows = out.shape
    step = max(1, DRAW_CHUNK // events)
    for r0 in range(0, rows, step):
        r1 = min(rows, r0 + step)
        out[:, r0:r1] = gen.random((r1 - r0, events)).T


def sample_times(
    refs: ReferenceModel, streams: Iterable[np.random.Generator], out: np.ndarray
) -> np.ndarray:
    """Failure times of ``out.shape[1]`` cycles, a block of them per stream.

    ``out`` is an event-major ``(events, rows)`` float buffer and ``streams``
    yields one generator per ``BATCH`` columns of it, in order (the last
    block may be short).  Each block's columns are filled with uniforms
    from its own generator by :func:`_fill_uniforms`, so each cycle
    consumes exactly one uniform per event.  Event i's row is then
    inverted in place through its reference law, once for all blocks.
    The result is the transposed view of ``out``: shape ``(rows,
    events)``, with every event's column contiguous.

    The times are censored at the mission time T for events with a cut
    (``refs.cuts[i] < 1``, only at d = 1): only the uniforms below the cut
    F(T) are inverted, and every other entry is inf, the lumped tail mass
    past the window.
    """
    if out.shape[0] != len(refs.refs):
        raise ValueError("buffer height does not match reference model")
    rows = out.shape[1]
    for r0, gen in zip(range(0, rows, BATCH), streams, strict=True):
        _fill_uniforms(gen, out[:, r0:r0 + BATCH])
    # a law whose lifetimes exceed the float range maps its tail to inf,
    # which is the correct lifetime; the overflow on the way is not an error
    with np.errstate(over="ignore"):
        for i, (ref, cut) in enumerate(zip(refs.refs, refs.cuts)):
            row = out[i]
            if cut < 1.0:
                inside = np.flatnonzero(row < cut)
                times = ref._quantile01(row[inside])
                row.fill(np.inf)
                row[inside] = times
            else:
                out[i] = ref._quantile01(row)
    return out.T


def log_weights(refs: ReferenceModel, times: np.ndarray, mission_time: float, mask: np.ndarray) -> np.ndarray:
    """Per-row log likelihood ratio of the rows ``mask`` selects from a
    ``(rows, events)`` times matrix, in order.

    Every basic event contributes a factor: the density ratio f(t)/g(t) when
    its time is inside the mission window, the tail-mass ratio
    (1-F(T))/(1-G(T)) otherwise.  Each event's column is compressed by the
    boolean ``mask`` on its own, so the selected rows are never copied out
    as a matrix.
    """
    if times.shape[1] != len(refs.refs):
        raise ValueError("times matrix width does not match reference model")
    logw = np.zeros(np.count_nonzero(mask))
    # both branches are evaluated; an infinite time gives inf - inf in the
    # density ratio, which the tail branch then replaces
    with np.errstate(invalid="ignore"):
        for i, ref in enumerate(refs.refs):
            col = times[:, i][mask]
            logw += np.where(
                col < mission_time,
                ref.log_density_ratio(col),
                ref.log_survival_ratio(mission_time),
            )
    return logw


def _group_blocks(n_events: int) -> int:
    """Blocks per group for a tree of ``n_events`` basic events."""
    return max(1, GROUP_FLOATS // (n_events * BATCH))


def _worker_count(n_groups: int) -> int:
    """Worker threads a run of ``n_groups`` groups uses.

    Every core this process may run on (so ``taskset`` caps it), and never
    more workers than groups.  Results do not depend on it.
    """
    return min(_available_cores(), n_groups)


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # the cores this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_sums(x: np.ndarray) -> list[float]:
    """``np.sum`` of each ``BATCH``-long block of ``x``, in order.

    The row sums of the full blocks reduce each row pairwise, exactly as
    ``np.sum`` does on one block, so they are bit-identical to it;
    ``np.add.reduceat`` is not, because it sums each block sequentially.
    """
    full = len(x) // BATCH
    sums = x[:full * BATCH].reshape(full, BATCH).sum(axis=1).tolist()
    if len(x) > full * BATCH:
        sums.append(float(np.sum(x[full * BATCH:])))
    return sums


def _compute_group(tree, refs, mission_time, weighted, streams, buf):
    times = sample_times(refs, streams, buf)
    indicator = batch_top_times(tree, times) < mission_time
    hits = int(np.count_nonzero(indicator))
    if not weighted:
        return hits, [float(hits)], [float(hits)]
    # only hit rows are weighted; scattering them into zeros gives each
    # block's np.sum the same array, and so the same pairwise sum, as
    # weighting every row.  exp and the square reuse their input's memory,
    # which keeps a group's temporaries near the size of its buffer.
    weights = log_weights(refs, times, mission_time, indicator)
    np.exp(weights, out=weights)
    terms = np.zeros(buf.shape[1])
    terms[indicator] = weights
    sums = _block_sums(terms)
    np.multiply(terms, terms, out=terms)
    return hits, sums, _block_sums(terms)


def run_batch(
    tree: FaultTree,
    refs: ReferenceModel,
    config: RunConfig,
    n_cycles: int,
    *,
    phase: int = PHASE_FINAL,
    weighted: bool = True,
) -> BatchTotals:
    """Simulate ``n_cycles`` cycles and accumulate hit and weight totals.

    Cycles are split into blocks of ``BATCH``, each with its own stream
    (:func:`_stream`) and its own partial sums, and consecutive blocks into
    groups of :func:`_group_blocks`, each one kernel call.  The block sums
    are merged in block order, which makes the totals independent of the
    grouping and of the thread count, which :func:`_worker_count` picks
    from the group count and the available cores.  The group buffers and
    generators are made here, one per worker, and lent to the workers
    through a queue, so the run's working set is bounded by ``workers *
    max(GROUP_FLOATS, events * BATCH)`` floats.
    """
    if n_cycles < 0:
        raise ValueError("n_cycles must be non-negative")
    if tuple(be.name for be in tree.basic_events) != refs.events:
        raise ValueError("reference model does not match the tree's basic events")
    n_events = len(refs.refs)
    per_group = _group_blocks(n_events)
    group_cycles = per_group * BATCH
    n_groups = (n_cycles + group_cycles - 1) // group_cycles
    workers = _worker_count(n_groups)
    base = _stream_base(config.seed, phase)
    kits: queue.SimpleQueue = queue.SimpleQueue()
    for _ in range(workers):
        kits.put((np.empty((n_events, min(group_cycles, n_cycles))), _stream(base, 0)))

    def work(g):
        rows = min(group_cycles, n_cycles - g * group_cycles)
        first = g * per_group
        buf, gen = kits.get()
        try:
            streams = (
                _stream(base, b, gen)
                for b in range(first, first + (rows + BATCH - 1) // BATCH)
            )
            return _compute_group(tree, refs, config.mission_time, weighted, streams, buf[:, :rows])
        finally:
            kits.put((buf, gen))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(work, range(n_groups)))
    else:
        partials = [work(g) for g in range(n_groups)]

    hits = sum(p[0] for p in partials)
    weight_sum = math.fsum(s for p in partials for s in p[1])
    weight_sq_sum = math.fsum(s for p in partials for s in p[2])
    return BatchTotals(hits=hits, weight_sum=weight_sum, weight_sq_sum=weight_sq_sum)


def select_reference(tree: FaultTree, config: RunConfig) -> tuple[ReferenceModel, SearchTrace]:
    """Pick the drop parameter d by pilot runs, and its reference model.

    Iteration 1 runs the pilot at d = 1 (reference laws equal the base
    laws), and every pilot is judged by the target hit band: one inside it
    is accepted, and so is a d = 1 pilot above it, since d cannot go below
    1.  A d = 1 model goes direct.  Otherwise d is doubled until the hit
    count overshoots the band, then the bracket is bisected in log d (its
    geometric mean).  Fresh cycles are drawn each iteration.
    """
    trace = SearchTrace()
    d_low, d_up = 1.0, math.inf
    d = 1.0

    for ic in range(1, MAX_SEARCH_ITERATIONS + 1):
        model = build_reference_model(tree, d, config.mission_time)
        totals = run_batch(
            tree, model, config, config.prelim_cycles, phase=ic, weighted=False
        )
        ampos = totals.hits
        trace.iterations.append(SearchIteration(ic=ic, d=d, d_low=d_low, d_up=d_up, ampos=ampos))

        if config.ampos_low <= ampos <= config.ampos_high:
            return model, trace
        if ic == 1 and ampos > config.ampos_high:  # d cannot go below 1
            return model, trace

        if ampos < config.ampos_low:
            d_low = d
        else:
            d_up = d
        d = 2.0 * d if math.isinf(d_up) else math.sqrt(d_low * d_up)

    message = (
        f"no d reached the [{config.ampos_low}, {config.ampos_high}] hit band "
        f"within {MAX_SEARCH_ITERATIONS} iterations"
    )
    if any(it.ampos for it in trace.iterations):
        message += ", though pilots hit TOP: run with method direct (direct simulation)"
    raise SearchError(message, trace)


def _z_quantile(confidence: float) -> float:
    return float(_special.ndtri(0.5 + confidence / 2.0))


def estimate_top(tree: FaultTree, config: RunConfig) -> Estimate:
    """Full estimation pipeline: reference search, main run, interval.

    The search's model decides the final run: at d = 1 every weight is 1,
    so it runs unweighted, which is direct simulation; the ``direct``
    method skips the search and runs the d = 1 model.  The standard error
    is the sample standard deviation of the per-cycle weighted indicator
    terms divided by sqrt(cycles); the interval is p_hat +- z * std_err at
    the configured confidence level.
    """
    if config.method == "direct":
        model, trace = build_reference_model(tree, 1.0, config.mission_time), None
    else:
        model, trace = select_reference(tree, config)
    direct = model.d == 1.0
    totals = run_batch(tree, model, config, config.cycles, phase=PHASE_FINAL, weighted=not direct)

    k = config.cycles
    p_hat = totals.weight_sum / k
    var = max(totals.weight_sq_sum - k * p_hat * p_hat, 0.0) / (k - 1)
    std_err = math.sqrt(var / k)
    z = _z_quantile(config.confidence)
    return Estimate(
        p_hat=p_hat,
        std_err=std_err,
        ci_low=p_hat - z * std_err,
        ci_high=p_hat + z * std_err,
        hits=totals.hits,
        cycles_used=k,
        method="direct" if direct else "importance",
        confidence=config.confidence,
        z=z,
        reference=None if direct else model,
        trace=trace,
    )
