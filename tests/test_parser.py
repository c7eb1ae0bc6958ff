import json
import math
from importlib import resources

import numpy as np
import pytest

from dftmc import GateKind, ParseError, parse, serialize, to_fault_tree
from dftmc.distributions import Exponential, LogNormal, Normal, Weibull
from dftmc.parser import _FAMILIES, TreeDocument
from dftmc.tree import BasicEvent, Gate, ValidationError
from conftest import OVERLAP_DFT
from treegen import random_document


def test_parse_overlap_demo():
    doc = parse(OVERLAP_DFT)
    assert doc.mission_time == 1.0
    assert [e.name for e in doc.events] == ["BE1", "BE2", "BE3", "BE4"]
    assert [e.dist.mttf for e in doc.events] == [1000.0, 2000.0, 3000.0, 4000.0]
    gates = {g.name: g for g in doc.gates}
    assert gates["A"].kind is GateKind.AND and gates["A"].children == ("BE1", "BE2", "BE3")
    assert gates["B"].kind is GateKind.AND and gates["B"].children == ("BE2", "BE3", "BE4")
    assert gates["TOP"].kind is GateKind.PAND and gates["TOP"].children == ("A", "B")
    assert doc.top == "TOP"
    # shared events validate fine
    to_fault_tree(doc)


def test_parse_all_families():
    doc = parse(
        "dft 1\n"
        "be E exp mttf=100\n"
        "be W weibull scale=3 shape=1.5\n"
        "be L lognormal mu=-0.5 sigma=0.8\n"
        "be N normal mean=12 sd=2\n"
        "gate G and E W L N\n"
        "top G\n"
    )
    kinds = [type(e.dist) for e in doc.events]
    assert kinds == [Exponential, Weibull, LogNormal, Normal]
    assert doc.events[2].dist.mu == -0.5


def test_parse_vote_and_spare():
    doc = parse(
        "dft 1\nbe X exp mttf=1\nbe Y exp mttf=1\nbe Z exp mttf=1\n"
        "gate V vote:2 X Y Z\ngate S spare:a=0.25 X Y\ngate T or V S\ntop T\n"
    )
    gates = {g.name: g for g in doc.gates}
    assert gates["V"].k == 2
    assert gates["S"].dormancy == 0.25


def test_comments_and_blank_lines():
    doc = parse("# heading\n\ndft 1   # trailing\n\nbe X exp mttf=2 # c\ntop X\n")
    assert doc.events[0].dist.mttf == 2.0


def _err(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    return info.value


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("be X exp mttf=1\ntop X\n", "header", 1),
        ("dft 2\n", "version", 1),
        ("dft 1\nbe X exp mttf=1\n", "missing top", 3),
        ("dft 1\nbe X gauss mu=1\ntop X\n", "unknown distribution family", 2),
        ("dft 1\nbe X exp mttf=1\nbe X exp mttf=2\ntop X\n", "duplicate declaration", 3),
        ("dft 1\nbe X exp mttf=1\ngate G xor X X\ntop G\n", "unknown gate kind", 3),
        ("dft 1\nbe X exp mttf=1\ngate G and X NOPE\ntop G\n", "undeclared node NOPE", 3),
        ("dft 1\nbe X exp mttf=1\ntop NOPE\n", "undeclared node NOPE", 3),
        ("dft 1\nbe X exp mttf=banana\ntop X\n", "not a number", 2),
        ("dft 1\nbe X exp mttf=-2\ntop X\n", "invalid exp parameters", 2),
        ("dft 1\nbe X exp\ntop X\n", "needs parameters: mttf", 2),
        ("dft 1\nbe X exp mttf=1 mttf=2\ntop X\n", "given twice", 2),
        ("dft 1\nbe X weibull scale=1\ntop X\n", "needs parameters: shape", 2),
        ("dft 1\nbe X exp rate=1\ntop X\n", "unknown exp parameter", 2),
        ("dft 1\nmission_time -1\nbe X exp mttf=1\ntop X\n", "positive", 2),
        ("dft 1\nmission_time inf\nbe X exp mttf=1\ntop X\n", "positive", 2),
        ("dft 1\nmission_time 1\nmission_time 2\nbe X exp mttf=1\ntop X\n", "twice", 3),
        ("dft 1\nbe X exp mttf=1\ntop X\ntop X\n", "top declared twice", 4),
        ("dft 1\nbe X exp mttf=1\nfoo bar\ntop X\n", "unknown statement", 3),
        ("dft 1\nbe 2bad exp mttf=1\ntop 2bad\n", "invalid identifier", 2),
        ("dft 1\nbe X exp mttf=1\ngate G vote:0 X X\ntop G\n", "positive", 3),
        ("dft 1\nbe X exp mttf=1\ngate G vote:nope X X\ntop G\n", "integer", 3),
        ("dft 1\nbe X exp mttf=1\ngate G spare:a=1.5 X X\ntop G\n", "outside [0, 1]", 3),
        ("dft 1\nbe X EXP mttf=1\ntop X\n", "unknown distribution family", 2),
        ("", "header", 1),
    ],
)
def test_parse_errors_with_line(text, fragment, line):
    err = _err(text)
    assert fragment in str(err)
    assert err.line == line


def test_parse_forward_references_allowed():
    doc = parse(
        "dft 1\ngate TOP and A B\nbe X exp mttf=1\nbe Y exp mttf=1\n"
        "gate A or X Y\ngate B or X Y\ntop TOP\n"
    )
    assert {g.name for g in doc.gates} == {"TOP", "A", "B"}


def test_serialize_roundtrip_demo():
    doc = parse(OVERLAP_DFT)
    text = serialize(doc)
    assert parse(text) == doc
    # canonical: serializing again is byte-identical
    assert serialize(parse(text)) == text


def test_serialize_orders_gates_topologically():
    doc = parse(
        "dft 1\ngate TOP and A B\nbe X exp mttf=1\nbe Y exp mttf=1\n"
        "gate A or X Y\ngate B or X Y\ntop TOP\n"
    )
    text = serialize(doc)
    lines = [l for l in text.splitlines() if l.startswith("gate")]
    assert lines.index("gate A or X Y") < lines.index("gate TOP and A B")
    assert lines.index("gate B or X Y") < lines.index("gate TOP and A B")
    # an equal document with A and B declared the other way round
    swapped = parse(
        "dft 1\ngate TOP and A B\nbe X exp mttf=1\nbe Y exp mttf=1\n"
        "gate B or X Y\ngate A or X Y\ntop TOP\n"
    )
    assert swapped == doc
    assert serialize(swapped) == text


def test_serialize_refuses_empty_gate():
    doc = TreeDocument(
        events=[],
        gates=[Gate("G", GateKind.AND, ())],
        top="G",
    )
    with pytest.raises(ValidationError, match="at least 2 children"):
        serialize(doc)


def test_serialize_refuses_dangling_reference():
    doc = parse("dft 1\nbe X exp mttf=1\ntop X\n")
    doc.gates.append(Gate("G", GateKind.AND, ("X", "MISSING")))
    with pytest.raises(ValidationError, match="undeclared"):
        serialize(doc)


def test_serialize_refuses_gate_cycle():
    doc = parse("dft 1\nbe X exp mttf=1\ntop X\n")
    doc.gates.append(Gate("G1", GateKind.AND, ("X", "G2")))
    doc.gates.append(Gate("G2", GateKind.AND, ("X", "G1")))
    doc.top = "G1"
    with pytest.raises(ValidationError, match="cycle"):
        serialize(doc)


@pytest.mark.parametrize("mission_time", [math.nan, math.inf, 0.0, -1.0])
def test_serialize_refuses_mission_time_parse_rejects(mission_time):
    doc = parse("dft 1\nbe X exp mttf=1\ntop X\n")
    doc.mission_time = mission_time
    with pytest.raises(ValidationError, match="mission_time must be positive"):
        serialize(doc)


def test_serialize_refuses_bad_identifier():
    doc = TreeDocument(events=[BasicEvent("1A", Exponential(1.0))], top="1A")
    with pytest.raises(ValidationError, match="invalid identifier"):
        serialize(doc)


def test_serialize_refuses_parameter_text_cannot_carry():
    # "gate G and X Y" has no place for k, so it would read back with k=None
    doc = parse("dft 1\nbe X exp mttf=1\nbe Y exp mttf=2\ngate G and X Y\ntop G\n")
    doc.gates[0] = Gate("G", GateKind.AND, ("X", "Y"), k=2)
    with pytest.raises(ValidationError, match="read back equal"):
        serialize(doc)


def test_serialize_refuses_unknown_distribution():
    class Exp2(Exponential):
        pass

    for dist in (object(), Exp2(1.0)):
        doc = TreeDocument(events=[BasicEvent("X", dist)], top="X")
        with pytest.raises(TypeError, match="unknown distribution"):
            serialize(doc)


def test_report_schema_lists_the_parser_families():
    schema = json.loads(resources.files("dftmc").joinpath("report_schema.json").read_text())
    event = schema["properties"]["reference"]["oneOf"][1]["properties"]["events"]["items"]
    assert sorted(event["properties"]["family"]["enum"]) == sorted(_FAMILIES)


def test_roundtrip_random_documents():
    rng = np.random.default_rng(101)
    # a separate stream, so the documents drawn from rng stay the same
    shuffle_rng = np.random.default_rng(202)
    for _ in range(60):
        doc = random_document(rng)
        text = serialize(doc)
        again = parse(text)
        assert again == doc
        # full-precision floats survive the trip exactly
        assert [e.dist for e in again.events] == [e.dist for e in doc.events]
        assert serialize(again) == text
        # an equal document with its gates declared in another order
        gates = list(doc.gates)
        shuffle_rng.shuffle(gates)
        shuffled = TreeDocument(doc.mission_time, list(doc.events), gates, doc.top)
        assert shuffled == doc
        assert serialize(shuffled) == text
