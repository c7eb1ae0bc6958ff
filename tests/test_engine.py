import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dftmc import BasicEvent, FaultTree, Gate, GateKind, RunConfig, estimate_top, parse, to_fault_tree
from dftmc import engine
from dftmc.distributions import Exponential, Normal, ReferenceDistribution, solve_reference
from dftmc.engine import (
    BATCH,
    DRAW_CHUNK,
    GROUP_FLOATS,
    MAX_SEARCH_ITERATIONS,
    BatchTotals,
    SearchError,
    build_reference_model,
    log_weights,
    run_batch,
    sample_times,
    select_reference,
    _block_sums,
    _fill_uniforms,
    _group_blocks,
    _stream,
    _stream_base,
    _worker_count,
)
from dftmc.tree import batch_top_times
from conftest import fixed_d, worker_count
from treegen import ALL_KINDS, ROUNDING_NORMALS, dist_with_failure_probability, one_law_per_family, random_tree

MISSION = 1.0

# Five events of all four families: a vote over Weibull/LogNormal/Normal
# (the Normal with mass 3e-5 below zero), a pand with an exp event, an or
# with a second Normal.  TOP fails before T = 1 with probability about 5e-8.
MIXED_DFT = """\
dft 1
mission_time 1.0
be W weibull scale=20.0 shape=1.5
be L lognormal mu=2.5 sigma=0.8
be N normal mean=6.0 sd=1.5
be X exp mttf=50.0
be M normal mean=8.0 sd=1.2
gate V vote:2 W L N
gate P pand V X
gate TOP or P M
top TOP
"""


@pytest.fixture(scope="module")
def mixed_tree():
    return to_fault_tree(parse(MIXED_DFT))


# 64 events of all four families under every gate kind.  A block of it
# spans several draw chunks, and the automatic rule runs it on threads.  At
# T = 3 some rows hit at d = 1, 2 and 8, and some miss.
WIDE_MISSION = 3.0


@pytest.fixture(scope="module")
def wide_tree():
    tree = random_tree(np.random.default_rng(4), 64)
    assert DRAW_CHUNK // len(tree.basic_events) < BATCH
    return tree


def single_event_tree(dist):
    return FaultTree((BasicEvent("X", dist),), top="X")


def exp_with_p(p):
    # exponential whose failure probability at the mission time is exactly p
    return Exponential(-MISSION / math.log1p(-p))


# -- configuration ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mission_time=0.0),
        dict(mission_time=1.0, cycles=0),
        dict(mission_time=1.0, ampos_low=0),
        dict(mission_time=1.0, ampos_low=50, ampos_high=20),
        dict(mission_time=1.0, ampos_high=2000, prelim_cycles=1000),
        dict(mission_time=1.0, cycles=500, prelim_cycles=1000),
        dict(mission_time=1.0, confidence=1.0),
        dict(mission_time=1.0, method="bogus"),
        # a bool is not a number, whatever Python says
        dict(mission_time=True),
        dict(mission_time=1.0, ampos_high=True),
        # the acceptance band is open, and so is the confidence interval
        dict(mission_time=1.0, ampos_low=20, ampos_high=20),
        dict(mission_time=1.0, confidence=0.0),
        # counts are integers, and a seed names one of 2**64 streams
        dict(mission_time=1.0, cycles=1e5),
        dict(mission_time=1.0, prelim_cycles=1000.0),
        dict(mission_time=1.0, seed=-1),
        dict(mission_time=1.0, seed=2**64),
        dict(mission_time=1.0, seed=0.5),
        dict(mission_time="1"),
        dict(mission_time=1.0, confidence="0.9"),
        dict(mission_time=1.0, confidence=True),
        # 0.5 + confidence / 2 rounds to 1, so z would be inf
        dict(mission_time=1.0, confidence=0.9999999999999999),
        # the variance divides by cycles - 1, whatever the method
        dict(mission_time=1.0, method="direct", cycles=1),
        # importance sampling is what auto does wherever d leaves 1
        dict(mission_time=1.0, method="importance"),
        # an int too large for a float is no finite number
        dict(mission_time=10**400),
        dict(mission_time=1.0, confidence=10**400),
    ],
)
def test_bad_config_rejected(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


@pytest.mark.parametrize("method", ["bogus", "importance"])
def test_unknown_method_is_named_before_the_cycles_rule(method):
    # the cycles rule reads the method, so the method is checked first
    with pytest.raises(ValueError, match="method"):
        RunConfig(mission_time=1.0, method=method, cycles=500)


def test_fixed_d_is_not_a_knob():
    # the search picks d; tests force it with conftest.fixed_d
    with pytest.raises(TypeError):
        RunConfig(mission_time=1.0, fixed_d=2.0)


def test_worker_count_is_not_a_knob():
    # the automatic rule alone picks it; results do not depend on it
    assert "threads" not in {f.name for f in dataclasses.fields(RunConfig)}
    with pytest.raises(TypeError):
        RunConfig(mission_time=1.0, threads=2)


def test_numpy_integer_knobs_run_like_python_ints(overlap_tree):
    plain = estimate_top(overlap_tree, RunConfig(mission_time=MISSION, cycles=20_000, seed=7))
    config = RunConfig(mission_time=MISSION, cycles=np.int64(20_000), seed=np.uint64(7))
    assert type(config.cycles) is int and type(config.seed) is int
    assert estimate_top(overlap_tree, config) == plain


def test_numpy_integer_mission_time_runs_importance_sampling(overlap_tree):
    # the reference solver checks the mission time as a real number, so a
    # numpy integer gets past the pilot
    est = estimate_top(overlap_tree, RunConfig(mission_time=np.int64(1)))
    assert est.method == "importance" and est.p_hat > 0
    assert est == estimate_top(overlap_tree, RunConfig(mission_time=1.0))


# -- sampling -----------------------------------------------------------------


def stream(seed, phase, b):
    """A new generator for block ``b`` of ``(seed, phase)``."""
    return _stream(_stream_base(seed, phase), b)


def block_streams(seed, phase, rows):
    """A new generator for each of the blocks that ``rows`` cycles span."""
    base = _stream_base(seed, phase)
    return [_stream(base, b) for b in range((rows + BATCH - 1) // BATCH)]


def test_reused_generator_draws_the_new_pcg_stream():
    # setting a used generator's state must give exactly the stream a new
    # PCG64DXSM seeded by SeedSequence([seed, phase]) and advanced b << 64
    # steps gives, whatever the generator held: a part-used state and a
    # spare 32-bit half
    gen = stream(3, 3, 3)
    for seed in (0, 1, 2**64 - 1):
        for phase in (0, 1, 30):
            base = _stream_base(seed, phase)
            for b in (0, 1, 244, 2**40, 2**64 - 1):
                gen.random(5)
                gen.integers(0, 7, 3, dtype=np.uint32)
                assert gen.bit_generator.state["has_uint32"] == 1
                pcg = np.random.PCG64DXSM(np.random.SeedSequence([seed, phase])).advance(b << 64)
                expected = np.random.Generator(pcg).random(1000).tobytes()
                assert _stream(base, b, gen) is gen
                assert gen.random(1000).tobytes() == expected
                assert _stream(base, b).random(1000).tobytes() == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**64 - 2), b=st.integers(0, 2**64 - 2))
def test_neighbouring_streams_look_independent_and_uniform(seed, b):
    # the first 2**16 uniforms of neighbouring blocks, phases and seeds:
    # each pair's Pearson r is within 5 standard errors of 0, and each
    # stream passes a KS test against U(0, 1)
    n = 1 << 16
    first = stream(seed, 0, b).random(n)
    assert stats.kstest(first, "uniform").pvalue > 1e-6
    for other in (stream(seed, 0, b + 1), stream(seed, 1, b), stream(seed + 1, 0, b)):
        u = other.random(n)
        assert stats.kstest(u, "uniform").pvalue > 1e-6
        assert abs(np.corrcoef(first, u)[0, 1]) < 5.0 / math.sqrt(n)


@pytest.mark.parametrize("rows, events", [(1, 1), (1000, 7), (905, 33), (4096, 200), (4096, 300)])
def test_fill_uniforms_keeps_the_row_major_draw_order(rows, events):
    # chunk edges fall inside the block, and a short block ends in a part chunk
    out = np.empty((events, rows))
    _fill_uniforms(stream(21, 2, 7), out)
    expected = stream(21, 2, 7).random((rows, events)).T
    assert out.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_sample_times_rejects_mismatched_buffer(overlap_tree):
    model = build_reference_model(overlap_tree, 2.0, MISSION)
    with pytest.raises(ValueError, match="buffer"):
        sample_times(model, [stream(0, 0, 0)], np.empty((3, 10)))


def test_sample_times_takes_one_stream_per_block(overlap_tree):
    model = build_reference_model(overlap_tree, 2.0, MISSION)
    for streams in (block_streams(0, 0, BATCH), block_streams(0, 0, 3 * BATCH)):
        with pytest.raises(ValueError):
            sample_times(model, streams, np.empty((4, BATCH + 1)))


def test_sample_times_fills_each_block_from_its_own_stream(mixed_tree):
    model = build_reference_model(mixed_tree, 2.0, MISSION)
    rows = 2 * BATCH + 100
    group = sample_times(model, block_streams(7, 1, rows), np.empty((5, rows)))
    for b, gen in enumerate(block_streams(7, 1, rows)):
        block = group[b * BATCH:(b + 1) * BATCH]
        alone = sample_times(model, [gen], np.empty((5, len(block))))
        assert alone.tobytes() == block.tobytes()


def test_sample_times_deterministic():
    tree = single_event_tree(Exponential(1000.0))
    model = build_reference_model(tree, 2.0, MISSION)
    a = sample_times(model, [stream(9, 1, 0)], np.empty((1, 3)))
    b = sample_times(model, [stream(9, 1, 0)], np.empty((1, 3)))
    assert a.shape == (3, 1)
    assert [x[0] for x in a] == [x[0] for x in b]


def _ks_distance(draws, cdf):
    draws = np.sort(draws)
    n = len(draws)
    grid = cdf(draws)
    upper = np.max(np.arange(1, n + 1) / n - grid)
    lower = np.max(grid - np.arange(0, n) / n)
    return max(upper, lower)


def test_base_quantile_matches_base_law():
    # the full law; sample_times at d = 1 inverts only the uniforms that
    # land inside the mission window
    dist = Exponential(1000.0)
    u = np.empty((1, 100_000))
    for b, gen in enumerate(block_streams(1234, 0, 100_000)):
        _fill_uniforms(gen, u[:, b * BATCH:(b + 1) * BATCH])
    assert _ks_distance(dist._quantile01(u[0]), lambda t: np.asarray(dist.cdf(t))) < 0.01


def test_sample_times_match_base_law_at_d_one():
    # at d = 1 the times are censored at T: the in-window draws follow F
    # conditioned on [0, T), and the share of inf is 1 - F(T)
    n = 100_000
    for dist in one_law_per_family(0.1):
        model = build_reference_model(single_event_tree(dist), 1.0, MISSION)
        assert model.cuts[0] < 1.0
        draws = sample_times(model, block_streams(1234, 0, n), np.empty((1, n)))[:, 0]
        inside = draws[draws < MISSION]
        f = float(dist.cdf(MISSION))
        assert _ks_distance(inside, lambda t: np.asarray(dist.cdf(t)) / f) < 2.0 / math.sqrt(len(inside))
        assert abs(np.count_nonzero(np.isinf(draws)) / n - (1.0 - f)) < 5.0 * math.sqrt(f * (1.0 - f) / n)


def test_sample_times_match_reference_law_at_d_two():
    tree = single_event_tree(Exponential(1000.0))
    model = build_reference_model(tree, 2.0, MISSION)
    assert model.refs[0].v == pytest.approx(1.44062, rel=1e-5)
    ref = Exponential(model.refs[0].v)
    draws = sample_times(model, block_streams(99, 0, 100_000), np.empty((1, 100_000)))[:, 0]
    assert _ks_distance(draws, lambda t: np.asarray(ref.cdf(t))) < 0.01


# -- weights ------------------------------------------------------------------


def _weights(model, times):
    times = np.asarray(times, dtype=float)
    return np.exp(log_weights(model, times, MISSION, np.ones(len(times), bool)))


def test_weight_is_exactly_one_at_d_one():
    rng = np.random.default_rng(2)
    tree = random_tree(rng, 5)
    model = build_reference_model(tree, 1.0, MISSION)
    times = sample_times(model, [stream(5, 0, 0)], np.empty((len(model.refs), 200)))
    assert np.all(_weights(model, times) == 1.0)


def test_log_weights_of_masked_rows_equal_those_of_the_selected_matrix(mixed_tree):
    model = build_reference_model(mixed_tree, 8.0, MISSION)
    times = sample_times(model, [stream(6, 0, 0)], np.empty((len(model.refs), 500)))
    mask = batch_top_times(mixed_tree, times) < MISSION
    assert 0 < np.count_nonzero(mask) < 500
    masked = log_weights(model, times, MISSION, mask)
    selected = times[mask]
    assert masked.tobytes() == log_weights(model, selected, MISSION, np.ones(len(selected), bool)).tobytes()


def test_tail_factor_equals_d():
    dist = Exponential(1000.0)
    tree = single_event_tree(dist)
    for d in (1.5, 2.0, 7.0, 40.0):
        model = build_reference_model(tree, d, MISSION)
        # single event at or past the horizon: whole weight is the tail factor
        w = _weights(model, [[MISSION], [2.0], [1e6], [math.inf]])
        assert w == pytest.approx(np.full(4, d), rel=1e-9)


def test_weight_of_all_tail_sample_is_d_to_n(overlap_tree):
    d = 2.0
    model = build_reference_model(overlap_tree, d, MISSION)
    w = _weights(model, [[5.0, 9.0, math.inf, 1.0e4]])
    assert w[0] == pytest.approx(d**4, rel=1e-9)


def test_weight_factor_value_below_horizon():
    # independent arithmetic for the d=2 reference of the mttf-1000 event
    u, t = 1000.0, 0.5
    v = 1.0 / (1.0 / u + math.log(2.0))
    f = math.exp(-t / u) / u
    g = math.exp(-t / v) / v
    assert g == pytest.approx(0.49059, rel=1e-4)
    tree = single_event_tree(Exponential(u))
    model = build_reference_model(tree, 2.0, MISSION)
    w = _weights(model, [[t]])[0]
    assert w == pytest.approx(f / g, rel=1e-12)
    assert w == pytest.approx(2.037e-3, rel=1e-3)


def test_log_weights_rejects_mismatched_width(overlap_tree):
    model = build_reference_model(overlap_tree, 2.0, MISSION)
    with pytest.raises(ValueError):
        log_weights(model, np.array([[1.0]]), MISSION, np.ones(1, bool))


def test_run_batch_rejects_model_of_another_tree():
    x, y = BasicEvent("X", Exponential(1000.0)), BasicEvent("Y", Exponential(2000.0))
    and_tree = FaultTree((x, y, Gate("TOP", GateKind.AND, ("X", "Y"))), top="TOP")
    p, q = BasicEvent("P", Exponential(50.0)), BasicEvent("Q", Exponential(80.0))
    or_tree = FaultTree((p, q, Gate("TOP", GateKind.OR, ("P", "Q"))), top="TOP")
    # same width, other event names: the model must not be silently reused
    model = build_reference_model(or_tree, 4.0, MISSION)
    with pytest.raises(ValueError, match="basic events"):
        run_batch(and_tree, model, RunConfig(mission_time=MISSION), 100_000)


# -- batch runner -------------------------------------------------------------


def test_run_batch_zero_cycles(overlap_tree):
    model = build_reference_model(overlap_tree, 2.0, MISSION)
    totals = run_batch(overlap_tree, model, RunConfig(mission_time=MISSION), 0)
    assert (totals.hits, totals.weight_sum, totals.weight_sq_sum) == (0, 0.0, 0.0)


def test_run_batch_direct_binomial():
    tree = single_event_tree(exp_with_p(0.1))
    model = build_reference_model(tree, 1.0, MISSION)
    config = RunConfig(mission_time=MISSION, seed=3)
    totals = run_batch(tree, model, config, 100_000, weighted=False)
    assert totals.hits / 100_000 == pytest.approx(0.1, abs=0.01)


def test_run_batch_overlap_pilot_scale(overlap_tree):
    # at d=2 the pilot hit count sits around 47 per 1000 cycles
    config = RunConfig(mission_time=MISSION, seed=0)
    model = build_reference_model(overlap_tree, 2.0, MISSION)
    for seed in range(5):
        cfg = RunConfig(mission_time=MISSION, seed=seed)
        totals = run_batch(overlap_tree, model, cfg, 1000, phase=2, weighted=False)
        assert 10 <= totals.hits <= 100


def test_run_batch_thread_invariance(overlap_tree, wide_tree):
    # the 4-event tree runs 8 blocks per group, the 64-event one a block
    for tree, mission in ((overlap_tree, MISSION), (wide_tree, WIDE_MISSION)):
        model = build_reference_model(tree, 2.0, mission)
        totals = []
        for threads in (1, 2, 4, None):
            with worker_count(threads):
                totals.append(run_batch(tree, model, RunConfig(mission_time=mission, seed=11), 50_000))
        assert all(t == totals[0] for t in totals)
        assert 0 < totals[0].hits < 50_000


def test_block_buffers_are_not_shared_under_thread_contention(wide_tree):
    # more workers than cores, switching threads every microsecond: a buffer
    # lent to two workers at once would mix their blocks' uniforms
    model = build_reference_model(wide_tree, 2.0, WIDE_MISSION)
    config = RunConfig(mission_time=WIDE_MISSION, seed=5)
    with worker_count(1):
        serial = run_batch(wide_tree, model, config, 20 * BATCH)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with worker_count(8):
            for _ in range(3):
                assert run_batch(wide_tree, model, config, 20 * BATCH) == serial
    finally:
        sys.setswitchinterval(interval)


def test_automatic_threads(monkeypatch):
    monkeypatch.setattr(engine, "_available_cores", lambda: 8)
    assert _worker_count(25) == 8
    # never more workers than groups: a one-group pilot runs serially
    assert _worker_count(3) == 3
    assert _worker_count(1) == 1
    assert _worker_count(0) == 0


def test_group_size_and_the_groups_the_rule_sees(monkeypatch, overlap_tree):
    # trees of 17 or more events keep one block per group
    assert [_group_blocks(n) for n in (1, 4, 5, 16, 17, 200)] == [32, 8, 6, 2, 1, 1]
    seen = []
    monkeypatch.setattr(engine, "_worker_count", lambda n_groups: seen.append(n_groups) or 1)
    model = build_reference_model(overlap_tree, 2.0, MISSION)
    for n_cycles in (0, 1000, 10**6):
        run_batch(overlap_tree, model, RunConfig(mission_time=MISSION), n_cycles)
    # 1e6 cycles are 245 blocks, 31 groups of 8
    assert seen == [0, 1, 31]


def test_run_batch_working_set_is_one_block_buffer_per_worker():
    # every row of this tree hits at d = 8, so the weighted run weights
    # whole blocks
    threads, n_events = 2, 200
    bound = threads * n_events * BATCH * 8 * 1.25
    tree = random_tree(np.random.default_rng(5), n_events)
    for d, weighted in ((1.0, False), (8.0, True)):
        model = build_reference_model(tree, d, MISSION)
        config = RunConfig(mission_time=MISSION, seed=2)
        tracemalloc.start()
        try:
            with worker_count(threads):
                totals = run_batch(tree, model, config, 100_000, weighted=weighted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
        assert totals.hits > 0


def test_run_batch_working_set_of_a_small_tree_is_one_group_buffer_per_worker(overlap_tree):
    # the demo runs groups of 8 blocks; at d = 2**20 nearly every row hits,
    # so the weighted run weights nearly whole groups
    threads, n_events = 2, len(overlap_tree.basic_events)
    bound = threads * max(GROUP_FLOATS, n_events * BATCH) * 8 * 2.5
    for d, weighted in ((2.0, False), (2.0**20, True)):
        model = build_reference_model(overlap_tree, d, MISSION)
        config = RunConfig(mission_time=MISSION, seed=2)
        tracemalloc.start()
        try:
            with worker_count(threads):
                totals = run_batch(overlap_tree, model, config, 200_000, weighted=weighted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
        assert totals.hits > 0


def _reference_totals(tree, model, config, n_cycles, phase, censored=False):
    """Totals the way the engine defines them, with no shortcut.

    Times are inverted column by column into a row-major matrix, every
    row is weighted, misses are zeroed with ``np.where``, and the block
    sums are merged with ``np.sum`` and ``math.fsum``.  ``censored`` sets
    each time whose uniform is at or above its event's cut to inf after
    inverting it.
    """
    t = config.mission_time
    hits, sums, sq_sums = 0, [], []
    for b in range((n_cycles + BATCH - 1) // BATCH):
        rows = min(BATCH, n_cycles - b * BATCH)
        u = stream(config.seed, phase, b).random((rows, len(model.refs)))
        times = np.empty_like(u)
        for i, (ref, cut) in enumerate(zip(model.refs, model.cuts)):
            times[:, i] = ref._quantile01(u[:, i])
            if censored:
                times[u[:, i] >= cut, i] = np.inf
        indicator = batch_top_times(tree, times) < t
        with np.errstate(over="ignore"):
            weights = np.exp(log_weights(model, times, t, np.ones(rows, bool)))
        terms = np.where(indicator, weights, 0.0)
        hits += int(np.count_nonzero(indicator))
        sums.append(float(np.sum(terms)))
        sq_sums.append(float(np.sum(terms * terms)))
    return BatchTotals(hits=hits, weight_sum=math.fsum(sums), weight_sq_sum=math.fsum(sq_sums))


@pytest.mark.parametrize("d", [8.0, 2.0, 1.0])
def test_run_batch_weights_equal_all_row_reference(mixed_tree, wide_tree, d):
    # two full blocks and a short one.  On the mixed tree about 90% of rows
    # hit at d = 8 and half at d = 2 (where summing only the hit terms would
    # move low bits); at d = 1 no block has a hit, so every block's terms
    # are zero.  The wide tree's blocks span several draw chunks and run on
    # worker threads under the automatic rule.
    n_cycles = 2 * BATCH + 100
    for tree, mission in ((mixed_tree, MISSION), (wide_tree, WIDE_MISSION)):
        model = build_reference_model(tree, d, mission)
        config = RunConfig(mission_time=mission, seed=4)
        for threads in (1, 2, None):
            with worker_count(threads):
                totals = run_batch(tree, model, config, n_cycles, phase=3)
            reference = _reference_totals(tree, model, config, n_cycles, phase=3)
            assert totals == reference
            if tree is mixed_tree and d == 1.0:
                assert (totals.hits, totals.weight_sum, totals.weight_sq_sum) == (0, 0.0, 0.0)
            else:
                assert 0 < totals.hits < n_cycles and totals.weight_sum > 0.0


def _censoring_trees():
    """Trees whose d = 1 model censors most entries, with their cut counts.

    A wide, or-heavy tree of 64 events with F(T) in [1e-3, 0.2], each with
    a cut; then, per rounding Normal at its own mission time, a tree that
    ors that law (cut at its F(T) like any other) and a Normal without a
    cut into 12 events with cuts.
    """
    rng = np.random.default_rng(23)

    def small(lo, hi, t):
        return lambda r: dist_with_failure_probability(r, float(10 ** r.uniform(lo, hi)), t)

    kinds = (GateKind.OR,) * 6 + ALL_KINDS
    yield random_tree(rng, 64, kinds, small(-3.0, math.log10(0.2), MISSION)), MISSION, 64
    for law, t in ROUNDING_NORMALS:
        sub = random_tree(rng, 12, dist_factory=small(-2.0, math.log10(0.2), t))
        events = (BasicEvent("N", law), BasicEvent("Z", Normal(t, t * 1e-12)))
        top = Gate("TOP", GateKind.OR, (sub.top, "N", "Z"))
        yield FaultTree((*sub.nodes, *events, top), "TOP"), t, 13


def test_run_batch_at_d_one_equals_full_inversion():
    # run_batch is full inversion with every entry whose uniform is at or
    # above its cut set to inf: with most entries censored, and with the
    # rounding Normals, weighted or not, at any thread count.  On these
    # trees at this seed that is also plain full inversion.
    n_cycles = 2 * BATCH + 100
    for tree, mission, n_cut in _censoring_trees():
        model = build_reference_model(tree, 1.0, mission)
        assert sum(cut < 1.0 for cut in model.cuts) == n_cut
        config = RunConfig(mission_time=mission, seed=4)
        reference = _reference_totals(tree, model, config, n_cycles, phase=3, censored=True)
        assert reference == _reference_totals(tree, model, config, n_cycles, phase=3)
        counted = BatchTotals(reference.hits, float(reference.hits), float(reference.hits))
        assert 0 < reference.hits < n_cycles
        for threads in (1, 2, None):
            with worker_count(threads):
                assert run_batch(tree, model, config, n_cycles, phase=3) == reference
                assert run_batch(tree, model, config, n_cycles, phase=3, weighted=False) == counted


def test_censored_rows_are_inverted_by_the_reference_quantile(monkeypatch):
    # the benchmark times quantiles by wrapping ReferenceDistribution._quantile01,
    # so the censored path must call it too, once per event, on the kept entries
    tree, mission, _ = next(_censoring_trees())
    model = build_reference_model(tree, 1.0, mission)
    sizes = []
    inverse = ReferenceDistribution._quantile01
    monkeypatch.setattr(ReferenceDistribution, "_quantile01", lambda ref, p: sizes.append(len(p)) or inverse(ref, p))
    times = sample_times(model, block_streams(4, 3, BATCH), np.empty((len(model.refs), BATCH)))
    assert sizes == [int(np.count_nonzero(np.isfinite(times[:, i]))) for i in range(len(model.refs))]
    assert sum(sizes) < 0.2 * times.size


@pytest.mark.parametrize("which", ["overlap", "mixed"])
def test_run_batch_group_edges_equal_all_row_reference(which, overlap_tree, mixed_tree):
    # cycle counts on both sides of block and group edges: one cycle, a
    # short block, one block, one group, a group and a cycle, and two
    # groups and a short block
    tree = {"overlap": overlap_tree, "mixed": mixed_tree}[which]
    k = _group_blocks(len(tree.basic_events))
    assert k > 1
    model = build_reference_model(tree, 2.0, MISSION)
    config = RunConfig(mission_time=MISSION, seed=8)
    for n_cycles in (1, BATCH - 1, BATCH, k * BATCH, k * BATCH + 1, 2 * k * BATCH + 100):
        reference = _reference_totals(tree, model, config, n_cycles, phase=5)
        counted = BatchTotals(reference.hits, float(reference.hits), float(reference.hits))
        for threads in (1, 2, 3):
            with worker_count(threads):
                assert run_batch(tree, model, config, n_cycles, phase=5) == reference
                assert run_batch(tree, model, config, n_cycles, phase=5, weighted=False) == counted
        if n_cycles > BATCH:
            assert 0 < reference.hits < n_cycles


def test_row_sums_of_blocks_equal_each_block_np_sum():
    # the group kernel's block sums rest on this: the sum along axis 1 of a
    # (k, BATCH) array reduces each row pairwise, exactly as np.sum reduces
    # one block.  np.add.reduceat is no substitute: it sums each block
    # sequentially, and differs in most trials.
    rng = np.random.default_rng(17)
    k = 8
    for density in (0.001, 0.05, 0.5, 1.0):
        for _ in range(20):
            x = np.zeros(k * BATCH + 100)
            hit = rng.random(len(x)) < density
            x[hit] = rng.random(np.count_nonzero(hit)) * np.exp2(rng.uniform(-80.0, 80.0, np.count_nonzero(hit)))
            each = [np.sum(x[b * BATCH:(b + 1) * BATCH]) for b in range(k + 1)]
            rows = x[:k * BATCH].reshape(k, BATCH).sum(axis=1)
            assert rows.tobytes() == np.array(each[:k]).tobytes()
            assert _block_sums(x) == each


# -- reference search ---------------------------------------------------------


def test_select_reference_overlap_accepts_two(overlap_tree):
    model, trace = select_reference(overlap_tree, RunConfig(mission_time=MISSION, seed=0))
    assert model is not None
    assert model.d == 2.0
    first, second = trace.iterations
    assert (first.ic, first.d, first.ampos) == (1, 1.0, 0)
    assert second.ic == 2 and second.d == 2.0
    assert 10 <= second.ampos <= 100
    # reference scales rebuilt from the accepted d
    for be, ref in zip(overlap_tree.basic_events, model.refs):
        assert ref.v == solve_reference(be.dist, 2.0, MISSION)


def test_select_reference_direct_directive():
    tree = single_event_tree(exp_with_p(0.05))
    model, trace = select_reference(tree, RunConfig(mission_time=MISSION, seed=1))
    # a d = 1 pilot in the band: its own model, which the final run goes
    # direct with
    assert model.d == 1.0
    assert len(trace.iterations) == 1
    assert 10 <= trace.iterations[0].ampos <= 100


def test_d_one_pilot_below_the_band_searches_on():
    # P(TOP) = 0.004: the d = 1 pilot sees a few hits, too few to trust, so
    # the search raises d as after a pilot with none
    tree = single_event_tree(exp_with_p(0.004))
    est = estimate_top(tree, RunConfig(mission_time=MISSION, seed=0))
    first, *rest = est.trace.iterations
    assert first.d == 1.0 and 1 <= first.ampos <= 9 and rest
    assert est.method == "importance" and est.reference.d > 1.0
    assert abs(est.p_hat - 0.004) <= 4 * est.std_err
    # direct simulation at the same seed is the run such a pilot once chose
    direct = estimate_top(tree, RunConfig(mission_time=MISSION, method="direct", seed=0))
    assert (direct.p_hat.hex(), direct.std_err.hex(), direct.hits) == (
        "0x1.dbca9691a75cdp-9", "0x1.8ed65616bcd76p-13", 363
    )


def test_select_reference_failure_carries_trace(impossible_tree):
    config = RunConfig(mission_time=MISSION, seed=0)
    with pytest.raises(SearchError) as info:
        select_reference(impossible_tree, config)
    trace = info.value.trace
    assert len(trace.iterations) == MAX_SEARCH_ITERATIONS == 30
    assert all(it.ampos == 0 for it in trace.iterations)
    # unbracketed: doubling all the way
    assert [it.d for it in trace.iterations][:5] == [1.0, 2.0, 4.0, 8.0, 16.0]


def test_trace_brackets_nested(overlap_tree):
    cfg = RunConfig(mission_time=MISSION, seed=0, ampos_low=40, ampos_high=60, prelim_cycles=1000)
    try:
        model, trace = select_reference(overlap_tree, cfg)
    except SearchError as err:
        trace = err.trace
    lows = [it.d_low for it in trace.iterations]
    ups = [it.d_up for it in trace.iterations]
    ics = [it.ic for it in trace.iterations]
    assert ics == list(range(1, len(ics) + 1))
    assert all(a <= b for a, b in zip(lows, lows[1:]))
    assert all(a >= b for a, b in zip(ups, ups[1:]))


def test_search_bisects_bracket_in_log_d(overlap_tree):
    # a narrow band: at seed 32 the demo overshoots at d = 4, then needs six
    # more pilots inside the bracket [2, 4]
    cfg = RunConfig(mission_time=MISSION, seed=32, ampos_low=40, ampos_high=55, prelim_cycles=1000)
    model, trace = select_reference(overlap_tree, cfg)
    bracketed = [it for it in trace.iterations if not math.isinf(it.d_up)]
    assert len(trace.iterations) == 9 and len(bracketed) == 6
    for it in bracketed:
        assert it.d == math.sqrt(it.d_low * it.d_up)
    accepted = trace.iterations[-1]
    assert cfg.ampos_low <= accepted.ampos <= cfg.ampos_high
    assert model.d == accepted.d


# -- estimation ---------------------------------------------------------------


def test_estimate_direct_single_event():
    tree = single_event_tree(Exponential(10.0))
    config = RunConfig(mission_time=MISSION, method="direct", seed=5)
    est = estimate_top(tree, config)
    truth = -math.expm1(-0.1)
    assert est.method == "direct"
    assert est.reference is None
    assert abs(est.p_hat - truth) <= 4 * est.std_err
    assert est.hits == round(est.p_hat * est.cycles_used)


def test_importance_at_d_one_equals_direct_bitwise():
    # about 200 pilot hits in 1000 cycles, above the band: the search cannot
    # go below d = 1, so it keeps the base laws and the final run goes direct
    tree = single_event_tree(exp_with_p(0.2))
    direct = estimate_top(tree, RunConfig(mission_time=MISSION, method="direct", seed=21))
    auto = estimate_top(tree, RunConfig(mission_time=MISSION, seed=21))
    assert auto.trace.iterations[0].ampos > 100
    assert auto.method == "direct" and auto.reference is None
    assert auto.p_hat == direct.p_hat
    assert auto.std_err == direct.std_err
    assert auto.hits == direct.hits
    # weights are exactly 1, so the weighted sum is the hit count
    assert auto.p_hat * auto.cycles_used == float(auto.hits)


def test_importance_and_direct_agree_on_non_rare(static_or2_tree):
    agree = 0
    for seed in range(10):
        with fixed_d(2.0):
            est_is = estimate_top(
                static_or2_tree,
                RunConfig(mission_time=MISSION, seed=seed, cycles=20_000, prelim_cycles=1000),
            )
        est_dir = estimate_top(
            static_or2_tree,
            RunConfig(mission_time=MISSION, method="direct", seed=seed + 1000, cycles=20_000),
        )
        combined = math.hypot(est_is.std_err, est_dir.std_err)
        if abs(est_is.p_hat - est_dir.p_hat) <= 4 * combined:
            agree += 1
    assert agree >= 9


def test_estimate_overlap_magnitudes(overlap_tree):
    est = estimate_top(overlap_tree, RunConfig(mission_time=MISSION, seed=0))
    assert est.method == "importance"
    assert est.reference.d == 2.0
    assert 2.6e-14 <= est.p_hat <= 3.8e-14
    assert 4.9e-16 / 3 <= est.std_err <= 4.9e-16 * 3
    assert est.trace is not None


def test_estimate_direct_on_rare_tree_sees_nothing(overlap_tree):
    config = RunConfig(mission_time=MISSION, method="direct", seed=0, cycles=200_000)
    est = estimate_top(overlap_tree, config)
    assert est.p_hat == 0.0 and est.hits == 0


def test_ci_arithmetic():
    tree = single_event_tree(exp_with_p(0.3))
    est = estimate_top(tree, RunConfig(mission_time=MISSION, method="direct", seed=2))
    # identical up to one rounding of the +- endpoint arithmetic
    assert est.ci_high - est.ci_low == pytest.approx(2.0 * est.z * est.std_err, rel=1e-12)
    assert est.ci_low <= est.p_hat <= est.ci_high
    assert est.z == pytest.approx(3.2905, abs=1e-4)


def test_ci_reconstructs_two_digit_interval():
    # the interval arithmetic applied to a 3.2e-14 +- 4.9e-16 estimate
    # rounds to [3.0e-14, 3.4e-14] at two significant digits
    z = 3.2905267314919255
    lo, hi = 3.2e-14 - z * 4.9e-16, 3.2e-14 + z * 4.9e-16
    assert f"{lo:.1e}" == "3.0e-14"
    assert f"{hi:.1e}" == "3.4e-14"


def test_estimate_deterministic(overlap_tree):
    a = estimate_top(overlap_tree, RunConfig(mission_time=MISSION, seed=13))
    b = estimate_top(overlap_tree, RunConfig(mission_time=MISSION, seed=13))
    assert a == b
    with worker_count(8):
        c = estimate_top(overlap_tree, RunConfig(mission_time=MISSION, seed=13))
    assert (c.p_hat, c.std_err, c.hits) == (a.p_hat, a.std_err, a.hits)


def test_estimates_match_golden_bits(overlap_tree, mixed_tree, static_or2_tree):
    """p_hat, std_err and hits pinned bit for bit.

    The values were recorded when each block's uniforms came to be drawn
    from its jumped PCG64DXSM stream.  Kernel reworks that keep the
    streams, the formulas and the summation order must not move these
    runs by one bit, at any thread count, automatic included.
    """
    gen_tree = random_tree(np.random.default_rng(41), 30)
    assert sum(g.kind is GateKind.VOTING for g in gen_tree.gates) == 3
    runs = [
        (overlap_tree, dict(mission_time=MISSION, seed=0),
         ("0x1.223d64b2c3eeep-45", "0x1.1caf0ca53f526p-51", 4800)),
        (mixed_tree, dict(mission_time=MISSION, seed=0),
         ("0x1.08d55b05c3572p-24", "0x1.1e521b2a28563p-26", 8263)),
        (mixed_tree, dict(mission_time=MISSION, seed=1),
         ("0x1.a534bd5253554p-25", "0x1.d14d72bdcd834p-27", 8277)),
        # two blocks of 4096 cycles, run direct
        (gen_tree, dict(mission_time=20.0, method="direct", seed=0, cycles=2 * BATCH),
         ("0x1.17c0000000000p-1", "0x1.687fd1929936fp-8", 4476)),
        # goes direct after its d = 1 pilot hits
        (gen_tree, dict(mission_time=20.0, seed=3, cycles=2 * BATCH),
         ("0x1.1890000000000p-1", "0x1.6863ef909298cp-8", 4489)),
        # a d = 1 pilot above the band goes direct
        (static_or2_tree, dict(mission_time=1.0, seed=0, cycles=2 * BATCH),
         ("0x1.7f80000000000p-3", "0x1.1a7df1678296ap-8", 1534)),
    ]
    for tree, kwargs, expected in runs:
        for threads in (1, 2, None):
            with worker_count(threads):
                est = estimate_top(tree, RunConfig(**kwargs))
            assert (est.p_hat.hex(), est.std_err.hex(), est.hits) == expected
    assert est.method == "direct" and est.reference is None


# -- quadrature cross-checks on dynamic gates --------------------------------
#
# Two-input dynamic gates, and the demo's pand over two and-gates, admit
# independent quadrature oracles; these runs exercise the full pipeline
# (search, closed-form reference scales, mixed families) on genuinely rare
# dynamic events.


def test_overlap_demo_matches_quadrature(overlap_tree):
    from scipy import integrate
    from dftmc.oracle import smallp_pand_overlap

    mttfs = [be.dist.mttf for be in overlap_tree.basic_events]
    assert mttfs == [1000.0, 2000.0, 3000.0, 4000.0]
    u1, *rest = mttfs
    cdf = lambda t, u: -math.expm1(-t / u)
    pdf = lambda t, u: math.exp(-t / u) / u

    # TOP = pand(A, B) with A = and(1, 2, 3) and B = and(2, 3, 4) fails before
    # T exactly when m = max(t2, t3, t4) < T and t1 <= m:
    # p = int_0^T F1(m) d[F2 F3 F4](m)
    def integrand(m):
        c = [cdf(m, u) for u in rest]
        d = [pdf(m, u) for u in rest]
        return cdf(m, u1) * (d[0] * c[1] * c[2] + c[0] * d[1] * c[2] + c[0] * c[1] * d[2])

    truth, error = integrate.quad(integrand, 0.0, MISSION, epsabs=0, epsrel=1e-13)
    assert error < 1e-13 * truth
    assert truth == pytest.approx(3.121946113985177e-14, rel=1e-12)
    # the closed form's relative error is of order max p_i
    smallp = smallp_pand_overlap(MISSION, mttfs)
    assert abs(smallp - truth) <= 2 * max(cdf(MISSION, u) for u in mttfs) * truth
    for seed in range(10):
        est = estimate_top(overlap_tree, RunConfig(mission_time=MISSION, seed=seed))
        assert est.method == "importance"
        assert est.ci_low <= truth <= est.ci_high, seed


def test_pand_pair_matches_quadrature():
    from scipy import integrate
    from dftmc.distributions import LogNormal, Weibull

    first, second = Weibull(80.0, 1.6), LogNormal(3.0, 0.9)
    # P(first <= second < T) = int_0^T F1(t) f2(t) dt
    truth, _ = integrate.quad(
        lambda t: float(first.cdf(t)) * float(second.pdf(t)), 0.0, MISSION, limit=200
    )
    tree = FaultTree(
        (BasicEvent("M", first), BasicEvent("S", second), Gate("TOP", GateKind.PAND, ("M", "S"))),
        top="TOP",
    )
    for seed in range(3):
        est = estimate_top(tree, RunConfig(mission_time=MISSION, seed=seed))
        assert est.method == "importance"
        assert abs(est.p_hat - truth) <= 4 * est.std_err


def test_seq_pair_matches_quadrature():
    from scipy import integrate
    from dftmc.distributions import LogNormal, Weibull

    first, second = Weibull(80.0, 1.6), LogNormal(3.0, 0.9)
    # P(first + second < T) = int_0^T F1(T - s) f2(s) ds
    truth, _ = integrate.quad(
        lambda s: float(first.cdf(MISSION - s)) * float(second.pdf(s)), 0.0, MISSION, limit=200
    )
    tree = FaultTree(
        (BasicEvent("M", first), BasicEvent("S", second), Gate("TOP", GateKind.SEQ, ("M", "S"))),
        top="TOP",
    )
    for seed in range(3):
        est = estimate_top(tree, RunConfig(mission_time=MISSION, seed=seed))
        assert abs(est.p_hat - truth) <= 4 * est.std_err


def test_spare_pair_matches_quadrature():
    from scipy import integrate
    from dftmc.distributions import Normal, Weibull

    primary, standby = Normal(8.0, 2.4), Weibull(50.0, 2.0)
    a = 0.35
    # active branch: z1 < T with z2 already failed past a*z1
    active, _ = integrate.quad(
        lambda z1: float(primary.pdf(z1)) * float(standby.cdf(a * z1)), 0.0, MISSION, limit=200
    )

    def standby_branch(z1):
        lo, hi = a * z1, MISSION - (1.0 - a) * z1
        if hi <= lo:
            return 0.0
        return float(primary.pdf(z1)) * (float(standby.cdf(hi)) - float(standby.cdf(lo)))

    takeover, _ = integrate.quad(standby_branch, 0.0, MISSION / (1.0 - a), limit=200)
    truth = active + takeover
    tree = FaultTree(
        (
            BasicEvent("P", primary),
            BasicEvent("Q", standby),
            Gate("TOP", GateKind.SPARE, ("P", "Q"), dormancy=a),
        ),
        top="TOP",
    )
    for seed in range(3):
        est = estimate_top(tree, RunConfig(mission_time=MISSION, seed=seed))
        assert abs(est.p_hat - truth) <= 4 * est.std_err


def test_solver_failure_names_the_event():
    from dftmc.distributions import LogNormal, ReferenceSolverError

    tree = FaultTree((BasicEvent("FOGGY", LogNormal(0.0, 50.0)),), top="FOGGY")
    with pytest.raises(ReferenceSolverError, match="FOGGY"):
        build_reference_model(tree, 1e300, MISSION)


def test_seed_edge_values():
    tree = single_event_tree(exp_with_p(0.2))
    for seed in (0, 2**63, 2**64 - 1):
        a = estimate_top(tree, RunConfig(mission_time=MISSION, method="direct", seed=seed, cycles=2000, prelim_cycles=1000, ampos_low=10, ampos_high=100))
        b = estimate_top(tree, RunConfig(mission_time=MISSION, method="direct", seed=seed, cycles=2000, prelim_cycles=1000, ampos_low=10, ampos_high=100))
        assert a.p_hat == b.p_hat
    # a seed outside 64 bits would alias one inside, so it is refused
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(mission_time=MISSION, method="direct", seed=seed)
