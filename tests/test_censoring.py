"""Censored inversion at d = 1 moves no result.

``sample_times`` writes inf for every uniform at or above an event's cut
u*, whose quantile is at least T * (1 + eta).  Two facts make that safe:
below T, no gate output depends on the value of an input that is at or
past T * (1 + eta), and every uniform from u* up maps to at least
T * (1 + eta).  The first is a property of ``batch_top_times``, the
second of each family's quantile and of the check that keeps a cut.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dftmc import BasicEvent, FaultTree, Gate, GateKind
from dftmc.distributions import Exponential, LogNormal, Normal, Weibull
from dftmc.engine import CUT_MAX, _TIME_MARGIN, _window_cut
from dftmc.tree import batch_top_times
from treegen import ROUNDING_NORMALS, dist_with_failure_probability, random_dist, random_tree

# reproducible, and no example database is written
PROPERTY = settings(derandomize=True, database=None, deadline=None)

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
    # the engine censors some of the inputs at or above T * (1 + eta), each
    # independently; the outputs below T must not move by a bit.  Both sides
    # are censored at T: a seq's in-window terms can sum past T, so its raw
    # output is not the censored one.
    # a * t as a spare's z2 with z1 = t gives (1 - a) * t + a * t, which
    # can round a few ulps below t: why censored inputs sit past T * (1 + eta)
    t, cut = mission_time, mission_time * (1.0 + _TIME_MARGIN)
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
    # why censoring starts at T * (1 + eta) and not at T: with z1 = T and
    # z2 = a * T a spare's (1 - a) * T + a * T rounds below T, so censoring
    # z1 = T to inf would move the output out of the window
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
    """Uniforms in [0, 1): random ones, and the ulps around c = F(T) and
    around the cut c * (1 + 1e-6)."""
    u = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    around = [p for x in (c, c * (1.0 + 1e-6)) for p in ulps_around(x)]
    return np.array([p for p in [0.0, 1.0 - 2.0**-53, *u, *around] if 0.0 <= p < 1.0])


@settings(PROPERTY, max_examples=300)
@given(law_t=laws(), data=st.data())
def test_quantile_is_non_decreasing(law_t, data):
    law, t = law_t
    u = np.sort(probe_uniforms(failure_probability(law, t), data))
    with np.errstate(over="ignore"):  # as sample_times: past the range is inf
        q = law._quantile01(u)
    assert np.all(q[1:] >= q[:-1])


@settings(PROPERTY, max_examples=300)
@given(law_t=laws(), data=st.data())
def test_kept_cut_maps_every_uniform_above_it_past_the_margin(law_t, data):
    law, t = law_t
    cut = _window_cut(law, t)
    if cut < 1.0:
        u = probe_uniforms(failure_probability(law, t), data)
        with np.errstate(over="ignore"):
            q = law._quantile01(u[u >= cut])
        assert np.all(q >= t * (1.0 + _TIME_MARGIN))


def test_rounding_normals_invert_their_whole_row():
    for law, t in ROUNDING_NORMALS:
        c = float(law.cdf(t))
        assert 0.0 < c < CUT_MAX  # only the quantile check can refuse the cut
        assert law._quantile01(c * (1.0 + 1e-6)) < t * (1.0 + _TIME_MARGIN)
        assert _window_cut(law, t) == 1.0


def test_failure_probability_that_underflows_keeps_every_uniform():
    # F(T) rounds to 0, so the cut would be 0 and censor u = 0, whose
    # lifetime 0 is inside the window
    for law, t in ((Weibull(1.0, 400.0), 1e-3), (Exponential(1e300), 1e-300)):
        assert failure_probability(law, t) == 0.0
        assert law._quantile01(0.0) < t
        assert _window_cut(law, t) == 1.0


def test_cut_of_extreme_laws_does_not_warn():
    # the suite turns any RuntimeWarning into an error
    for law, t in EXTREME_LAWS:
        cut = _window_cut(law, t)
        with np.errstate(over="ignore"):
            assert cut == 1.0 or law._quantile01(cut) >= t * (1.0 + _TIME_MARGIN)
