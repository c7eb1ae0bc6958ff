"""Reader and writer for the line-oriented ``.dft`` fault-tree format.

Grammar (one statement per line, ``#`` starts a comment, blank lines are
ignored, identifiers are case-sensitive ``[A-Za-z_][A-Za-z0-9_]*``):

    dft 1
    mission_time <float>                         # optional
    be <name> exp mttf=<float>
    be <name> weibull scale=<float> shape=<float>
    be <name> lognormal mu=<float> sigma=<float>
    be <name> normal mean=<float> sd=<float>
    gate <name> (and|or|vote:<k>|pand|seq|spare:a=<float>) <child>...
    top <name>

The header line must come first.  Declarations may appear in any order;
forward references between gates are allowed.  Every reported error carries
a 1-based line (and column where meaningful).

Family keywords and parameter names come from the lifetime classes
(``family``, ``keys``), bare gate keywords from :class:`dftmc.tree.GateKind`.

Serialization is canonical: header, mission time, basic events in
declaration order, gates in the tree's children-first
:attr:`~dftmc.tree.FaultTree.gate_order` (which depends only on the graph
below TOP, not on gate declaration order), then the top line, all floats
printed with full round-trip precision.  Documents that compare equal
serialize to the same text, and :func:`serialize` refuses a document whose
text :func:`parse` would not read back as an equal document, so the parser
alone judges what text is valid.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

from .distributions import Exponential, LogNormal, Normal, Weibull
from .tree import BasicEvent, FaultTree, Gate, GateKind, ValidationError

__all__ = ["TreeDocument", "ParseError", "parse", "serialize", "to_fault_tree"]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN = re.compile(r"\S+")

_FAMILIES = {cls.family: cls for cls in (Exponential, Weibull, LogNormal, Normal)}

_KIND_KEYWORDS = {k.value: k for k in (GateKind.AND, GateKind.OR, GateKind.PAND, GateKind.SEQ)}


class ParseError(ValueError):
    """Rejected input text; knows where the problem is."""

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


@dataclass
class TreeDocument:
    """Parsed form of a ``.dft`` file.

    Basic-event order is significant (it fixes sample-vector indexing);
    gates compare as an unordered collection since serialization writes
    them in validation's children-first order.
    """

    mission_time: float | None = None
    events: list[BasicEvent] = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)
    top: str = ""

    def __eq__(self, other):
        if not isinstance(other, TreeDocument):
            return NotImplemented
        return (
            self.mission_time == other.mission_time
            and self.events == other.events
            and {g.name: g for g in self.gates} == {g.name: g for g in other.gates}
            and self.top == other.top
        )


def _tokens(line: str):
    """(text, 1-based column) pairs for one line, comments stripped."""
    hash_at = line.find("#")
    if hash_at >= 0:
        line = line[:hash_at]
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]


def _parse_float(text: str, lineno: int, col: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{what}: not a number: {text!r}", lineno, col) from None


def _check_ident(name: str, lineno: int, col: int) -> str:
    if not _IDENT.match(name):
        raise ParseError(f"invalid identifier: {name!r}", lineno, col)
    return name


def parse(text: str) -> TreeDocument:
    """Parse ``.dft`` text into a :class:`TreeDocument`.

    Raises :class:`ParseError` at the first problem, with its location.
    """
    doc = TreeDocument()
    declared: dict[str, int] = {}  # name -> declaring line
    top_seen: int | None = None
    header_seen = False
    # child references checked after all declarations, so order is free
    pending_refs: list[tuple[str, str, int, int]] = []  # gate, child, line, col
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        toks = _tokens(raw)
        if not toks:
            continue
        word, col = toks[0]

        if not header_seen:
            if word != "dft":
                raise ParseError("file must start with header 'dft 1'", lineno, col)
            if len(toks) != 2:
                raise ParseError("header takes exactly one version token", lineno, col)
            if toks[1][0] != "1":
                raise ParseError(f"unsupported format version {toks[1][0]!r}", lineno, toks[1][1])
            header_seen = True
            continue

        if word == "mission_time":
            if len(toks) != 2:
                raise ParseError("mission_time takes exactly one value", lineno, col)
            if doc.mission_time is not None:
                raise ParseError("mission_time declared twice", lineno, col)
            value = _parse_float(toks[1][0], lineno, toks[1][1], "mission_time")
            if not (value > 0 and math.isfinite(value)):
                raise ParseError(f"mission_time must be positive, got {value}", lineno, toks[1][1])
            doc.mission_time = value

        elif word == "be":
            if len(toks) < 3:
                raise ParseError("be line needs a name and a family", lineno, col)
            name = _check_ident(toks[1][0], lineno, toks[1][1])
            if name in declared:
                raise ParseError(
                    f"duplicate declaration of {name} (first on line {declared[name]})",
                    lineno,
                    toks[1][1],
                )
            family, fam_col = toks[2]
            cls = _FAMILIES.get(family)
            if cls is None:
                raise ParseError(f"unknown distribution family {family!r}", lineno, fam_col)
            params = _parse_params(toks[3:], cls.keys, lineno, family)
            try:
                dist = cls(*(params[k] for k in cls.keys))
            except ValueError as exc:
                raise ParseError(f"invalid {family} parameters: {exc}", lineno, fam_col) from None
            doc.events.append(BasicEvent(name, dist))
            declared[name] = lineno

        elif word == "gate":
            if len(toks) < 4:
                raise ParseError("gate line needs a name, a kind and children", lineno, col)
            name = _check_ident(toks[1][0], lineno, toks[1][1])
            if name in declared:
                raise ParseError(
                    f"duplicate declaration of {name} (first on line {declared[name]})",
                    lineno,
                    toks[1][1],
                )
            kind, k, dormancy = _parse_kind(toks[2][0], lineno, toks[2][1])
            children = []
            for text_tok, tok_col in toks[3:]:
                child = _check_ident(text_tok, lineno, tok_col)
                children.append(child)
                pending_refs.append((name, child, lineno, tok_col))
            doc.gates.append(Gate(name, kind, tuple(children), k=k, dormancy=dormancy))
            declared[name] = lineno

        elif word == "top":
            if len(toks) != 2:
                raise ParseError("top takes exactly one name", lineno, col)
            if top_seen is not None:
                raise ParseError(f"top declared twice (first on line {top_seen})", lineno, col)
            doc.top = _check_ident(toks[1][0], lineno, toks[1][1])
            pending_refs.append(("<top>", doc.top, lineno, toks[1][1]))
            top_seen = lineno

        else:
            raise ParseError(f"unknown statement {word!r}", lineno, col)

    if not header_seen:
        raise ParseError("empty input: missing 'dft 1' header", max(last_line, 1))
    if top_seen is None:
        raise ParseError("missing top declaration", last_line + 1)
    for owner, child, lineno, tok_col in pending_refs:
        if child not in declared:
            what = "top" if owner == "<top>" else f"gate {owner}"
            raise ParseError(f"{what} references undeclared node {child}", lineno, tok_col)
    return doc


def _parse_params(toks, required, lineno, family):
    seen: dict[str, float] = {}
    for text_tok, tok_col in toks:
        key, eq, value = text_tok.partition("=")
        if not eq:
            raise ParseError(f"expected key=value, got {text_tok!r}", lineno, tok_col)
        if key not in required:
            raise ParseError(f"unknown {family} parameter {key!r}", lineno, tok_col)
        if key in seen:
            raise ParseError(f"parameter {key!r} given twice", lineno, tok_col)
        seen[key] = _parse_float(value, lineno, tok_col, f"parameter {key}")
    missing = [k for k in required if k not in seen]
    if missing:
        raise ParseError(f"{family} needs parameters: {', '.join(missing)}", lineno)
    return seen


def _parse_kind(token: str, lineno: int, col: int):
    if token in _KIND_KEYWORDS:
        return _KIND_KEYWORDS[token], None, None
    if token.startswith("vote:"):
        raw = token[len("vote:"):]
        try:
            k = int(raw)
        except ValueError:
            raise ParseError(f"vote threshold must be an integer: {raw!r}", lineno, col) from None
        if k < 1:
            raise ParseError(f"vote threshold must be positive, got {k}", lineno, col)
        return GateKind.VOTING, k, None
    if token.startswith("spare:"):
        raw = token[len("spare:"):]
        if not raw.startswith("a="):
            raise ParseError(f"spare expects a=<float>, got {raw!r}", lineno, col)
        a = _parse_float(raw[2:], lineno, col, "spare dormancy")
        if not (0.0 <= a <= 1.0):
            raise ParseError(f"spare dormancy {a} outside [0, 1]", lineno, col)
        return GateKind.SPARE, None, a
    raise ParseError(f"unknown gate kind {token!r}", lineno, col)


def _kind_token(gate: Gate) -> str:
    if gate.kind is GateKind.VOTING:
        return f"vote:{gate.k}"
    if gate.kind is GateKind.SPARE:
        return f"spare:a={gate.dormancy!r}"
    return gate.kind.value


def _be_line(be: BasicEvent) -> str:
    d = be.dist
    if type(d) is not _FAMILIES.get(getattr(d, "family", None)):
        raise TypeError(f"basic event {be.name}: unknown distribution {type(d).__name__}")
    params = " ".join(f"{k}={getattr(d, f.name)!r}" for k, f in zip(d.keys, fields(d)))
    return f"be {be.name} {d.family} {params}"


def serialize(doc: TreeDocument) -> str:
    """Canonical text for a document that ``dftmc check`` accepts.

    Raises :class:`dftmc.tree.ValidationError` on a document whose tree
    :func:`to_fault_tree` refuses (empty gates, dangling references,
    cycles, unreachable nodes) or whose text :func:`parse` would not read
    back as an equal document (a non-finite mission time, a bad identifier,
    a parameter the text has no place for, such as ``k`` on an ``and`` gate).
    """
    tree = to_fault_tree(doc)
    lines = ["dft 1"]
    if doc.mission_time is not None:
        lines.append(f"mission_time {doc.mission_time!r}")
    lines.extend(_be_line(be) for be in doc.events)
    for gate in tree.gate_order:
        lines.append(f"gate {gate.name} {_kind_token(gate)} " + " ".join(gate.children))
    lines.append(f"top {doc.top}")
    text = "\n".join(lines) + "\n"
    try:
        again = parse(text)
    except ParseError as exc:
        raise ValidationError(f"document has no valid .dft text: {exc}") from None
    if again != doc:
        raise ValidationError("document does not read back equal from its .dft text")
    return text


def to_fault_tree(doc: TreeDocument) -> FaultTree:
    """The evaluable tree; a bad structure raises :class:`dftmc.tree.ValidationError`."""
    return FaultTree(nodes=tuple(doc.events) + tuple(doc.gates), top=doc.top)
