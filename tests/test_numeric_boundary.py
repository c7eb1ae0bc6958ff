"""Numbers are converted where they enter.

Laws, gates and ``RunConfig`` store the Python number they checked, so a
numpy number of any dtype behaves exactly as the Python number it equals:
it serializes, and it estimates the same bits.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dftmc import (
    BasicEvent,
    Exponential,
    FaultTree,
    Gate,
    GateKind,
    LogNormal,
    Normal,
    RunConfig,
    TreeDocument,
    ValidationError,
    Weibull,
    estimate_top,
    parse,
    serialize,
)
from dftmc.cli import build_report, dumps_canonical

# reproducible, and no example database is written
PROPERTY = settings(derandomize=True, database=None, deadline=None)

FLOATS = (np.float16, np.float32, np.float64)
INTS = (np.int8, np.int16, np.int32, np.int64, np.uint64)


@st.composite
def numbers_of(draw, floats, ints):
    """A number of one of the dtypes, drawn from ``floats`` or ``ints`` by kind."""
    dtype = draw(st.sampled_from(FLOATS + INTS))
    return dtype(draw(floats if dtype in FLOATS else ints))


positive = numbers_of(st.floats(1e-2, 1e3), st.integers(1, 100))


@PROPERTY
@given(
    mttf=positive,
    weibull=st.tuples(positive, positive),
    mu=numbers_of(st.floats(-50.0, 50.0), st.integers(0, 100)),
    sigma=positive,
    normal=st.tuples(positive, positive),
    dormancy=numbers_of(st.floats(0.0, 1.0), st.integers(0, 1)),
    k=st.sampled_from(INTS).flatmap(lambda t: st.integers(1, 3).map(t)),
)
def test_numpy_numbers_are_stored_as_python_numbers(mttf, weibull, mu, sigma, normal, dormancy, k):
    events = [
        BasicEvent("A", Exponential(mttf)),
        BasicEvent("B", Weibull(*weibull)),
        BasicEvent("C", LogNormal(mu, sigma)),
        BasicEvent("D", Normal(*normal)),
    ]
    gates = [
        Gate("V", GateKind.VOTING, ("A", "B", "C"), k=k),
        Gate("TOP", GateKind.SPARE, ("V", "D"), dormancy=dormancy),
    ]
    for be in events:
        assert all(type(getattr(be.dist, f.name)) is float for f in dataclasses.fields(be.dist))
    assert type(gates[0].k) is int and type(gates[1].dormancy) is float
    doc = TreeDocument(mission_time=1.0, events=events, gates=gates, top="TOP")
    assert parse(serialize(doc)) == doc


def _and2(number, mttfs, mission_time, confidence, seed):
    """Estimate and report of ``A and B`` with every number built by ``number``."""
    events = tuple(BasicEvent(name, Exponential(number(u))) for name, u in zip("AB", mttfs))
    tree = FaultTree((*events, Gate("TOP", GateKind.AND, ("A", "B"))), "TOP")
    config = RunConfig(
        mission_time=number(mission_time), cycles=5_000, confidence=confidence, seed=seed
    )
    assert type(config.mission_time) is float and type(config.confidence) is float
    estimate = estimate_top(tree, config)
    return estimate, dumps_canonical(build_report("and2.dft", "", tree, config, estimate, 0.0))


@settings(PROPERTY, max_examples=12)
@given(
    number=st.sampled_from([np.float32, int, np.int64]),
    mttfs=st.tuples(st.integers(50, 400), st.integers(50, 400)),
    mission_time=st.integers(1, 2),
    seed=st.integers(0, 2**64 - 1),
)
def test_runs_built_from_other_numbers_match_python_floats(number, mttfs, mission_time, seed):
    # every value is exact in float32, so the Python run is the same run;
    # the search moves d off 1, so the reference scales are computed
    confidence = np.float32(0.75) if number is np.float32 else 0.75
    estimate, report = _and2(number, mttfs, mission_time, confidence, seed)
    expected, expected_report = _and2(float, mttfs, mission_time, 0.75, seed)
    assert estimate.reference is not None and estimate.reference.d > 1.0
    assert estimate.p_hat.hex() == expected.p_hat.hex()
    assert estimate.std_err.hex() == expected.std_err.hex()
    assert report == expected_report


def test_wider_numbers_that_round_out_of_the_float_range_are_refused():
    # a longdouble keeps 1e400 and 1e-400; the Python floats are inf and 0
    with np.errstate(over="ignore", under="ignore"):
        huge, tiny = np.longdouble(10) ** 400, np.longdouble(10) ** -400
    for value in (huge, tiny):
        with pytest.raises(ValueError, match="mttf"):
            Exponential(value)


@pytest.mark.parametrize(
    "gate",
    [
        Gate("G", GateKind.VOTING, ("X", "Y"), k=2.0),
        Gate("G", GateKind.VOTING, ("X", "Y"), k=True),
        Gate("G", GateKind.VOTING, ("X", "Y"), k=np.float64(1.0)),
        Gate("G", GateKind.SPARE, ("X", "Y"), dormancy="0.5"),
        Gate("G", GateKind.SPARE, ("X", "Y"), dormancy=True),
        Gate("G", GateKind.SPARE, ("X", "Y"), dormancy=10**400),
    ],
    ids=["k-float", "k-bool", "k-numpy-float", "dormancy-str", "dormancy-bool", "dormancy-huge-int"],
)
def test_gate_numbers_of_the_wrong_kind_are_refused_when_the_tree_is_built(gate):
    events = (BasicEvent("X", Exponential(5.0)), BasicEvent("Y", Exponential(7.0)))
    with pytest.raises(ValidationError, match="gate G"):
        FaultTree((*events, gate), top="G")
