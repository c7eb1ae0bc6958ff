"""Censored inversion at d = 1 samples the mixed law as it stands.

An event whose F(T) is below ``CUT_MAX`` is in the window exactly when its
uniform is below F(T), its cut; its time is then F^-1(u), and otherwise
inf.  Below T, no gate output depends on where past T an input lies, so in
exact arithmetic that is full inversion.  In floats the two may differ in
ulp-wide slivers at the window edge, which the contract accepts: the
quantile of a uniform near F(T) can round to the other side of T, and a
spare's sum can round a few ulps below an input at T.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dftmc import BasicEvent, FaultTree, Gate, GateKind
from dftmc.distributions import Exponential, LogNormal, Normal, Weibull
from dftmc.engine import CUT_MAX, _window_cut, build_reference_model, sample_times
from dftmc.tree import batch_top_times
from treegen import ROUNDING_NORMALS, dist_with_failure_probability, random_dist, random_tree

# reproducible, and no example database is written
PROPERTY = settings(derandomize=True, database=None, deadline=None)

# Inputs at or past T * (1 + MARGIN) stay clear of the ulp-wide edge at T,
# where censoring and full inversion may part (see the spare test below).
MARGIN = 1e-9

# The laws of the float-range tests of the CLI, with their mission times:
# each exits 4, overflows to inf lifetimes, or has a median past the range.
EXTREME_LAWS = (
    (Weibull(1.0, 400.0), 10.0),
    (Exponential(1e-310), 10.0),
    (Normal(1e300, 1e-30), 10.0),
    (LogNormal(0.0, 200.0), 1.0),
    (Exponential(1e308), 1.0),
    (Normal(1e308, 1e308), 1.0),
    (LogNormal(709.78, 1.0), 1.0),
)


def censor(x, t):
    return np.where(x < t, x, np.inf)


def ulps_around(x, k=3):
    """``x`` and its ``k`` float neighbours on each side."""
    out = [x]
    down = up = x
    for _ in range(k):
        down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
        out += [down, up]
    return out


# -- censoring commutes with every gate kind ---------------------------------


@st.composite
def trees(draw):
    """A random tree of all six kinds; some spares pinned to a = 0 or a = 1,
    which take their own branches."""
    tree = random_tree(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(2, 8)))
    nodes = [
        dataclasses.replace(node, dormancy=draw(st.sampled_from([0.0, 1.0, node.dormancy])))
        if isinstance(node, Gate) and node.kind is GateKind.SPARE
        else node
        for node in tree.nodes
    ]
    return FaultTree(tuple(nodes), tree.top)


@settings(PROPERTY, max_examples=400)
@given(tree=trees(), mission_time=st.floats(1e-12, 1e12), data=st.data())
def test_censoring_inputs_past_the_margin_commutes_with_the_tree(tree, mission_time, data):
    # censoring some of the inputs at or above T * (1 + MARGIN), each
    # independently, moves no output below T by a bit.  Both sides are
    # censored at T: a seq's in-window terms can sum past T, so its raw
    # output is not the censored one.
    # a * t as a spare's z2 with z1 = t gives (1 - a) * t + a * t, which
    # can round a few ulps below t: the edge this margin stays clear of
    t, cut = mission_time, mission_time * (1.0 + MARGIN)
    spares = [g.dormancy * t for g in tree.gates if g.kind is GateKind.SPARE]
    values = st.one_of(
        st.sampled_from([0.0, math.inf, t / 2.0, t / 3.0, *spares, *ulps_around(t), *ulps_around(cut)]),
        st.floats(0.0, 3.0 * t),
    )
    n = len(tree.basic_events)
    rows = data.draw(st.integers(1, 6))
    cells = data.draw(st.lists(st.tuples(values, st.booleans()), min_size=rows * n, max_size=rows * n))
    x = np.array([v for v, _ in cells]).reshape(rows, n)
    drop = np.array([c for _, c in cells]).reshape(rows, n) & (x >= cut)
    censored = np.where(drop, np.inf, x)
    got = censor(batch_top_times(tree, censored), t)
    assert got.tobytes() == censor(batch_top_times(tree, x), t).tobytes()


def test_spare_sum_can_round_below_its_first_input():
    # the ulp-wide edge the contract accepts: with z1 = T and z2 = a * T a
    # spare's (1 - a) * T + a * T rounds below T, so censoring z1 = T to
    # inf moves the output out of the window
    t, a = 3.0, 0.3
    events = (BasicEvent("X", Exponential(1.0)), BasicEvent("Y", Exponential(1.0)))
    tree = FaultTree((*events, Gate("S", GateKind.SPARE, ("X", "Y"), dormancy=a)), "S")
    assert batch_top_times(tree, np.array([[t, a * t]]))[0] < t
    assert batch_top_times(tree, np.array([[math.inf, a * t]]))[0] == math.inf


# -- the cut ------------------------------------------------------------------


@st.composite
def laws(draw):
    """A law from treegen's ranges, or an extreme one, with a mission time.

    The mission time puts F(T) anywhere from far below the cut's range to
    above ``CUT_MAX``.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "failure_probability", "extreme"]))
    if kind == "extreme":
        return draw(st.sampled_from(EXTREME_LAWS))
    t = float(10 ** rng.uniform(-12.0, 3.0))
    if kind == "random":
        law = random_dist(rng)
        return law, law.scale * t
    return dist_with_failure_probability(rng, float(10 ** rng.uniform(-15.0, -0.3)), t), t


def failure_probability(law, t):
    with np.errstate(all="ignore"):  # extreme laws overflow on the way
        return float(-np.expm1(law.log_sf(t)))


def probe_uniforms(c, data):
    """Uniforms in [0, 1): random ones, and the ulps around c = F(T)."""
    u = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    return np.array([p for p in [0.0, 1.0 - 2.0**-53, *u, *ulps_around(c)] if 0.0 <= p < 1.0])


class _Uniforms:
    """A stand-in generator whose ``random`` fills ``out`` with the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, *, out):
        out[...] = self.u.reshape(out.shape)


def sampled(law, t, u):
    """``sample_times`` of a one-event d = 1 model fed the uniforms ``u``."""
    model = build_reference_model(FaultTree((BasicEvent("X", law),), "X"), 1.0, t)
    return model.cuts[0], sample_times(model, _Uniforms(u), np.empty((1, len(u))))[:, 0]


@settings(PROPERTY, max_examples=300)
@given(law_t=laws(), data=st.data())
def test_quantile_is_non_decreasing(law_t, data):
    law, t = law_t
    u = np.sort(probe_uniforms(failure_probability(law, t), data))
    with np.errstate(over="ignore"):  # as sample_times: past the range is inf
        q = law._quantile01(u)
    assert np.all(q[1:] >= q[:-1])


@settings(PROPERTY, max_examples=300)
@given(law_t=st.one_of(laws(), st.sampled_from(ROUNDING_NORMALS)), data=st.data())
def test_sample_times_at_d_one_is_full_inversion_censored_at_the_cut(law_t, data):
    law, t = law_t
    u = probe_uniforms(failure_probability(law, t), data)
    cut, times = sampled(law, t, u)
    assert cut == _window_cut(law, t)
    with np.errstate(over="ignore"):
        expected = np.where(u < cut, law._quantile01(u), np.inf)
    assert times.tobytes() == expected.tobytes()


def test_rounding_normals_are_censored_at_their_failure_probability():
    for law, t in ROUNDING_NORMALS:
        c = failure_probability(law, t)
        assert 0.0 < c < CUT_MAX
        assert _window_cut(law, t) == c


def test_failure_probability_that_underflows_censors_every_uniform():
    # F(T) rounds to 0, so no uniform, not even u = 0, is in the window;
    # the true F(T) is below 1e-300
    for law, t in ((Weibull(1.0, 400.0), 1e-3), (Exponential(1e300), 1e-300)):
        assert failure_probability(law, t) == 0.0
        cut, times = sampled(law, t, np.array([0.0, 2.0**-53, 0.5]))
        assert cut == 0.0
        assert np.all(np.isinf(times))


def test_cut_of_extreme_laws_does_not_warn():
    # the suite turns any RuntimeWarning into an error
    for law, t in EXTREME_LAWS:
        cut = _window_cut(law, t)
        assert cut == 1.0 or cut == failure_probability(law, t)
