"""Monte-Carlo estimation of TOP failure probability with importance sampling.

The estimator draws basic-event failure times from scaled reference laws and
corrects each cycle by a likelihood ratio built from mixed densities: the
continuous density ratio f(t)/g(t) for times inside the mission window, and
the lumped tail-mass ratio (1-F(T))/(1-G(T)) for times beyond it.  By
construction of the reference scales the tail factor equals the common
drop parameter ``d`` for every event.

There is one sampling-and-weight path, and it works on whole batches:
``sample_times`` turns a matrix of uniforms into failure times and
``log_weights`` turns a matrix of failure times into per-cycle log
likelihood ratios.  No other code samples or weights cycles.

All reference laws hang off a single knob ``d``; a preliminary search picks
``d`` so that the hit count over a small pilot run lands inside a target
band, doubling ``d`` until bracketed and then bisecting the bracket in
log d.

Reproducibility contract: cycle j draws its randomness from a counter-based
(Philox) substream determined by (seed, phase, j // BATCH), and partial sums
are merged in fixed batch order, so results are bit-identical for any thread
count.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .distributions import ReferenceDistribution, ReferenceSolverError, scale, solve_reference
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
    threads: int = 1
    fixed_d: float | None = None  # skip the search (importance only)

    def __post_init__(self):
        if not (math.isfinite(self.mission_time) and self.mission_time > 0):
            raise ValueError(f"mission_time must be positive, got {self.mission_time!r}")
        for name in ("cycles", "prelim_cycles", "ampos_low", "ampos_high", "threads", "seed"):
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
        if not (0.0 < self.confidence < 1.0):
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence!r}")
        if self.method not in ("auto", "importance", "direct"):
            raise ValueError(f"method must be auto, importance or direct, got {self.method!r}")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.fixed_d is not None and not (math.isfinite(self.fixed_d) and self.fixed_d >= 1.0):
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


def sample_times(refs: ReferenceModel, u: np.ndarray) -> np.ndarray:
    """Failure times for a ``(rows, events)`` matrix of uniforms in [0, 1).

    Column i is inverse-transformed through event i's reference law.  Each
    cycle consumes exactly one uniform per event, which keeps the
    counter-based substreams aligned.

    The result has the shape of ``u`` but is stored event-major (a
    transposed view of an ``(events, rows)`` buffer), so every event's
    column is contiguous.  The uniforms are copied once into that buffer
    and each event's row is inverted in place.
    """
    buf = u.T.copy()
    # a law whose lifetimes exceed the float range maps its tail to inf,
    # which is the correct lifetime; the overflow on the way is not an error
    with np.errstate(over="ignore"):
        for i, ref in enumerate(refs.refs):
            buf[i] = ref._quantile01(buf[i])
    return buf.T


def log_weights(refs: ReferenceModel, times: np.ndarray, mission_time: float) -> np.ndarray:
    """Per-row log likelihood ratio of a ``(rows, events)`` times matrix.

    Every basic event contributes a factor: the density ratio f(t)/g(t) when
    its time is inside the mission window, the tail-mass ratio
    (1-F(T))/(1-G(T)) otherwise.
    """
    if times.shape[1] != len(refs.refs):
        raise ValueError("times matrix width does not match reference model")
    logw = np.zeros(times.shape[0])
    # both branches are evaluated; an infinite time gives inf - inf in the
    # density ratio, which the tail branch then replaces
    with np.errstate(invalid="ignore"):
        for i, ref in enumerate(refs.refs):
            col = times[:, i]
            logw += np.where(
                col < mission_time,
                ref.log_density_ratio(col),
                ref.log_survival_ratio(mission_time),
            )
    return logw


def _compute_batch(tree, refs, mission_time, weighted, seed, phase, batch_index, rows):
    u = _stream(seed, phase, batch_index).random((rows, len(refs.refs)))
    times = sample_times(refs, u)
    top = batch_top_times(tree, times)
    indicator = top < mission_time
    hits = int(np.count_nonzero(indicator))
    if not weighted:
        return hits, float(hits), float(hits)
    # only hit rows are weighted; scattering them into zeros gives np.sum
    # the same array, and so the same pairwise sum, as weighting every row
    terms = np.zeros(rows)
    terms[indicator] = np.exp(log_weights(refs, times[indicator], mission_time))
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
    the totals independent of the thread count.
    """
    if n_cycles < 0:
        raise ValueError("n_cycles must be non-negative")
    if tuple(be.name for be in tree.basic_events) != refs.events:
        raise ValueError("reference model does not match the tree's basic events")
    n_batches = (n_cycles + BATCH - 1) // BATCH
    jobs = [
        (b, min(BATCH, n_cycles - b * BATCH))
        for b in range(n_batches)
    ]

    def work(job):
        b, rows = job
        return _compute_batch(
            tree, refs, config.mission_time, weighted, config.seed, phase, b, rows
        )

    if config.threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            partials = list(pool.map(work, jobs))
    else:
        partials = [work(j) for j in jobs]

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
