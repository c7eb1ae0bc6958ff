"""Monte-Carlo estimation of TOP failure probability with importance sampling.

The estimator draws basic-event failure times from scaled reference laws and
corrects each cycle by a likelihood ratio built from mixed densities: the
continuous density ratio f(t)/g(t) for times inside the mission window, and
the lumped tail-mass ratio (1-F(T))/(1-G(T)) for times beyond it.  By
construction of the reference scales the tail factor equals the common
drop parameter ``d`` for every event.

There is one sampling-and-weight path, and it works on whole batches:
``sample_times`` draws a block's uniforms from its stream straight into an
event-major buffer and turns them into failure times in place, and
``log_weights`` turns a matrix of failure times into per-cycle log
likelihood ratios.  No other code samples or weights cycles.

All reference laws hang off a single knob ``d``; a preliminary search picks
``d`` so that the hit count over a small pilot run lands inside a target
band, doubling ``d`` until bracketed and then bisecting the bracket in
log d.

Reproducibility contract: cycle j draws its randomness from a counter-based
(Philox) substream determined by (seed, phase, j // BATCH), and partial sums
are merged in fixed batch order, so results are bit-identical for any thread
count.  Each worker reuses one block buffer, so a run holds at most one per
worker.
"""

from __future__ import annotations

import math
import numbers
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .distributions import ReferenceDistribution, ReferenceSolverError, scale, solve_reference
from .distributions import _check_positive, _is_real
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

# Cycles per random substream block.  Fixed: results must not depend on the
# number of worker threads, only on (seed, phase, cycle index).
BATCH = 4096

# Uniforms drawn per row chunk while filling a block buffer: the chunk's
# (rows, events) matrix stays cache-sized whatever the tree's width.
DRAW_CHUNK = 1 << 16

# Trees with fewer basic events than this run on one thread: their blocks
# are too cheap for workers to pay (docs/design-notes.md).
AUTO_THREADS_MIN_EVENTS = 16

_MASK64 = (1 << 64) - 1

# Stream phases.  The final run and a forced direct run share phase 0 so a
# d = 1 importance run reproduces the direct run bit for bit.
PHASE_FINAL = 0

# Pilot runs the d search makes before giving up.
MAX_SEARCH_ITERATIONS = 30


class SearchError(RuntimeError):
    """The reference-parameter search ran out of iterations."""

    def __init__(self, message: str, trace: "SearchTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one estimation run."""

    mission_time: float
    cycles: int = 100_000
    prelim_cycles: int = 1_000
    ampos_low: int = 10
    ampos_high: int = 100
    confidence: float = 0.999
    seed: int = 0  # in [0, 2**64)
    method: str = "auto"  # auto | importance | direct
    fixed_d: float | None = None  # skip the search (importance only)

    def __post_init__(self):
        _check_positive(self.mission_time, "mission_time")
        for name in ("cycles", "prelim_cycles", "ampos_low", "ampos_high", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # a numpy integer becomes a Python int, which seeds and reports take
            object.__setattr__(self, name, int(value))
        if not (0 <= self.seed <= _MASK64):
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.cycles < 1:
            raise ValueError("cycles must be at least 1")
        if not (0 < self.ampos_low < self.ampos_high <= self.prelim_cycles):
            raise ValueError(
                "need 0 < ampos_low < ampos_high <= prelim_cycles, got "
                f"{self.ampos_low}, {self.ampos_high}, {self.prelim_cycles}"
            )
        if self.cycles < self.prelim_cycles:
            raise ValueError("cycles must be >= prelim_cycles")
        if not (_is_real(self.confidence) and 0.0 < self.confidence < 1.0):
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence!r}")
        if self.method not in ("auto", "importance", "direct"):
            raise ValueError(f"method must be auto, importance or direct, got {self.method!r}")
        if self.fixed_d is not None and not (_is_real(self.fixed_d) and 1.0 <= self.fixed_d < math.inf):
            raise ValueError(f"fixed_d must be >= 1, got {self.fixed_d!r}")
        if self.fixed_d is not None and self.method != "importance":
            raise ValueError(f"fixed_d needs method 'importance', got {self.method!r}")


@dataclass(frozen=True)
class ReferenceModel:
    """Per-event reference laws tied together by the common drop parameter d."""

    d: float
    events: tuple[str, ...]
    refs: tuple[ReferenceDistribution, ...]

    @property
    def vs(self) -> tuple[float, ...]:
        return tuple(r.v for r in self.refs)


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
    cycles: int


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
    """Solve every basic event's reference scale at drop parameter d."""
    names = []
    refs = []
    for be in tree.basic_events:
        try:
            v = solve_reference(be.dist, d, mission_time)
        except ReferenceSolverError as exc:
            raise ReferenceSolverError(f"event {be.name}: {exc}") from exc
        names.append(be.name)
        refs.append(scale(be.dist, v))
    return ReferenceModel(d=d, events=tuple(names), refs=tuple(refs))


def _stream(seed: int, phase: int, batch_index: int) -> np.random.Generator:
    key = ((phase & _MASK64) << 64) | (seed & _MASK64)
    return np.random.Generator(np.random.Philox(key=key, counter=batch_index << 128))


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


def sample_times(refs: ReferenceModel, gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Failure times of ``out.shape[1]`` cycles drawn from ``gen``.

    ``out`` is an event-major ``(events, rows)`` float buffer.  It is
    filled with uniforms by :func:`_fill_uniforms`, so each cycle consumes
    exactly one uniform per event, which keeps the counter-based
    substreams aligned, and event i's row is then inverted in place
    through its reference law.  The result is the transposed view of
    ``out``: shape ``(rows, events)``, with every event's column
    contiguous.
    """
    if out.shape[0] != len(refs.refs):
        raise ValueError("buffer height does not match reference model")
    _fill_uniforms(gen, out)
    # a law whose lifetimes exceed the float range maps its tail to inf,
    # which is the correct lifetime; the overflow on the way is not an error
    with np.errstate(over="ignore"):
        for i, ref in enumerate(refs.refs):
            out[i] = ref._quantile01(out[i])
    return out.T


def log_weights(
    refs: ReferenceModel, times: np.ndarray, mission_time: float, mask: np.ndarray | None = None
) -> np.ndarray:
    """Per-row log likelihood ratio of a ``(rows, events)`` times matrix.

    Every basic event contributes a factor: the density ratio f(t)/g(t) when
    its time is inside the mission window, the tail-mass ratio
    (1-F(T))/(1-G(T)) otherwise.  With a boolean ``mask`` only the rows it
    selects are weighted, in order; each event's column is compressed on
    its own, so the selected rows are never copied out as a matrix.
    """
    if times.shape[1] != len(refs.refs):
        raise ValueError("times matrix width does not match reference model")
    logw = np.zeros(times.shape[0] if mask is None else np.count_nonzero(mask))
    # both branches are evaluated; an infinite time gives inf - inf in the
    # density ratio, which the tail branch then replaces
    with np.errstate(invalid="ignore"):
        for i, ref in enumerate(refs.refs):
            col = times[:, i] if mask is None else times[:, i][mask]
            logw += np.where(
                col < mission_time,
                ref.log_density_ratio(col),
                ref.log_survival_ratio(mission_time),
            )
    return logw


def _worker_count(n_events: int, n_blocks: int) -> int:
    """Worker threads a run of ``n_blocks`` blocks over ``n_events`` events uses.

    Every core this process may run on (so ``taskset`` caps it) for trees
    of at least ``AUTO_THREADS_MIN_EVENTS`` basic events, one thread below
    that, and never more workers than blocks.  Results do not depend on it.
    """
    threads = _available_cores() if n_events >= AUTO_THREADS_MIN_EVENTS else 1
    return min(threads, n_blocks)


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # the cores this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _compute_batch(tree, refs, mission_time, weighted, gen, buf):
    rows = buf.shape[1]
    times = sample_times(refs, gen, buf)
    top = batch_top_times(tree, times)
    indicator = top < mission_time
    hits = int(np.count_nonzero(indicator))
    if not weighted:
        return hits, float(hits), float(hits)
    # only hit rows are weighted; scattering them into zeros gives np.sum
    # the same array, and so the same pairwise sum, as weighting every row
    terms = np.zeros(rows)
    terms[indicator] = np.exp(log_weights(refs, times, mission_time, indicator))
    return hits, float(np.sum(terms)), float(np.sum(terms * terms))


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

    Work is split into fixed-size batches; each batch is an independent
    substream and its partial sums are merged in batch order, which makes
    the totals independent of the thread count, which
    :func:`_worker_count` picks from the tree's size and the available
    cores.  The block buffers are allocated here, one per worker, and lent
    to the workers through a queue, so the run's working set is bounded by
    ``workers * events * BATCH`` floats.
    """
    if n_cycles < 0:
        raise ValueError("n_cycles must be non-negative")
    if tuple(be.name for be in tree.basic_events) != refs.events:
        raise ValueError("reference model does not match the tree's basic events")
    n_events = len(refs.refs)
    n_batches = (n_cycles + BATCH - 1) // BATCH
    workers = _worker_count(n_events, n_batches)
    buffers: queue.SimpleQueue = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put(np.empty((n_events, min(BATCH, n_cycles))))

    def work(b):
        rows = min(BATCH, n_cycles - b * BATCH)
        buf = buffers.get()
        try:
            return _compute_batch(
                tree, refs, config.mission_time, weighted,
                _stream(config.seed, phase, b), buf[:, :rows],
            )
        finally:
            buffers.put(buf)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(work, range(n_batches)))
    else:
        partials = [work(b) for b in range(n_batches)]

    hits = sum(p[0] for p in partials)
    weight_sum = math.fsum(p[1] for p in partials)
    weight_sq_sum = math.fsum(p[2] for p in partials)
    return BatchTotals(hits=hits, weight_sum=weight_sum, weight_sq_sum=weight_sq_sum, cycles=n_cycles)


def select_reference(
    tree: FaultTree, config: RunConfig
) -> tuple[ReferenceModel | None, SearchTrace]:
    """Pick the drop parameter d by pilot runs; None means "run direct".

    Iteration 1 runs the pilot at d = 1 (reference laws equal the base
    laws).  Any hit there means the event is not rare and plain simulation
    suffices, unless the caller forces importance sampling.  Otherwise d is
    doubled until the hit count overshoots the target band, then the
    bracket is bisected in log d (its geometric mean).  Fresh cycles are
    drawn each iteration.
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

        if ic == 1 and ampos >= 1 and config.method != "importance":
            return None, trace
        if config.ampos_low <= ampos <= config.ampos_high:
            return model, trace
        if ic == 1 and ampos > config.ampos_high:
            # d cannot go below 1; forced importance sampling on a non-rare
            # tree just runs with the base laws (all weights 1)
            return model, trace

        if ampos < config.ampos_low:
            d_low = d
        else:
            d_up = d
        d = 2.0 * d if math.isinf(d_up) else math.sqrt(d_low * d_up)

    raise SearchError(
        f"no d reached the [{config.ampos_low}, {config.ampos_high}] hit band "
        f"within {MAX_SEARCH_ITERATIONS} iterations",
        trace,
    )


def _z_quantile(confidence: float) -> float:
    return float(ndtri(0.5 + confidence / 2.0))


def _assemble(totals: BatchTotals, config: RunConfig, method, reference, trace) -> Estimate:
    k = totals.cycles
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
        method=method,
        confidence=config.confidence,
        z=z,
        reference=reference,
        trace=trace,
    )


def estimate_top(tree: FaultTree, config: RunConfig) -> Estimate:
    """Full estimation pipeline: reference search, main run, interval.

    The standard error is the sample standard deviation of the per-cycle
    weighted indicator terms divided by sqrt(cycles); the interval is
    p_hat +- z * std_err at the configured confidence level.
    """
    model: ReferenceModel | None = None
    trace: SearchTrace | None = None
    if config.method == "direct":
        pass
    elif config.fixed_d is not None:
        model = build_reference_model(tree, config.fixed_d, config.mission_time)
    else:
        model, trace = select_reference(tree, config)

    if model is None:
        base = build_reference_model(tree, 1.0, config.mission_time)
        totals = run_batch(
            tree, base, config, config.cycles, phase=PHASE_FINAL, weighted=False
        )
        return _assemble(totals, config, "direct", None, trace)

    totals = run_batch(
        tree, model, config, config.cycles, phase=PHASE_FINAL, weighted=True
    )
    return _assemble(totals, config, "importance", model, trace)
