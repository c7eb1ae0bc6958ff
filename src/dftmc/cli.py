"""Command-line front end: validate, simulate and cross-check fault trees.

Exit codes are stable:

    0  success
    1  I/O error (unreadable input, including text that is not UTF-8)
    2  parse error (bad .dft text; also argparse usage errors)
    3  validation error (tree structure, missing mission time, bad knobs)
    4  engine error (reference search or solver failure)
    5  unsupported tree shape for the requested oracle

Reports are deterministic for a fixed (file, flags, seed) apart from the
wall-clock field; every number in the text output matches the JSON output
byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import sys
import time
from collections import Counter

from . import __version__
from .distributions import ReferenceSolverError, _check_positive
from .engine import (
    MAX_SEARCH_ITERATIONS,
    Estimate,
    RunConfig,
    SearchError,
    SearchTrace,
    estimate_top,
)
from .oracle import (
    TreeTooLargeError,
    UnsupportedTreeError,
    exact_static,
    match_pand_overlap,
    smallp_pand_overlap,
)
from .parser import ParseError, parse, to_fault_tree
from .tree import ValidationError

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_ENGINE = 4
EXIT_UNSUPPORTED = 5

_NO_HITS_WARNING = "no TOP events observed; run with method auto (importance sampling)"
_ZERO_WEIGHT_WARNING = "TOP events observed but every hit weight underflowed to 0; p_hat is not an estimate"


def _python_number(x):
    """``json``'s hook for numpy scalars that are not ``float`` subclasses.

    ``np.int64`` and ``np.float32`` become the Python number they equal;
    ``np.float64`` never gets here, since ``json`` writes it as a ``float``.
    """
    if isinstance(x, numbers.Integral):
        return int(x)
    if isinstance(x, numbers.Real):
        return float(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def format_number(x) -> str:
    """``x`` as its JSON token: Python's shortest round-trip ``repr``.

    ``json`` writes it, as :func:`dumps_canonical` writes every report
    number and as ``parser.serialize`` writes ``.dft`` floats, so the text
    view shows each report number byte for byte.  inf and nan raise
    ``ValueError``.
    """
    return json.dumps(x, allow_nan=False, default=_python_number)


def dumps_canonical(obj) -> str:
    """The report as indented JSON; ``json`` writes each number as its
    shortest round-trip ``repr``, the token :func:`format_number` gives."""
    return json.dumps(obj, indent=2, allow_nan=False, default=_python_number)


def _trace_rows(trace: SearchTrace | None):
    if trace is None:
        return None
    return [
        {
            "ic": it.ic,
            "d_low": it.d_low,
            "d_up": None if math.isinf(it.d_up) else it.d_up,
            "d": it.d,
            "ampos": it.ampos,
        }
        for it in trace.iterations
    ]


def _config_block(config: RunConfig):
    return {
        "mission_time": config.mission_time,
        "cycles": config.cycles,
        "prelim_cycles": config.prelim_cycles,
        "ampos_low": config.ampos_low,
        "ampos_high": config.ampos_high,
        "confidence": config.confidence,
        "seed": config.seed,
        "max_search_iterations": MAX_SEARCH_ITERATIONS,
        "method": config.method,
    }


def build_report(path, text, tree, config: RunConfig, estimate: Estimate, wall_seconds: float):
    gate_counts = Counter(g.kind.value for g in tree.gates)
    warnings = []
    if estimate.method == "direct" and estimate.hits == 0:
        warnings.append(_NO_HITS_WARNING)
    if estimate.hits > 0 and estimate.p_hat == 0.0:
        warnings.append(_ZERO_WEIGHT_WARNING)
    reference = None
    if estimate.reference is not None:
        reference = {
            "d": estimate.reference.d,
            "events": [
                {"name": name, "family": ref.base.family, "v": ref.v}
                for name, ref in zip(estimate.reference.events, estimate.reference.refs)
            ],
        }
    return {
        "format": "dftmc-report-1",
        "version": __version__,
        "input": {
            "path": str(path),
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        },
        "tree": {
            "basic_events": len(tree.basic_events),
            "gates": len(tree.gates),
            "gate_counts": dict(sorted(gate_counts.items())),
            "top": tree.top,
        },
        "config": _config_block(config),
        "search": _trace_rows(estimate.trace),
        "reference": reference,
        "estimate": {
            "p_hat": estimate.p_hat,
            "std_err": estimate.std_err,
            "ci_low": estimate.ci_low,
            "ci_high": estimate.ci_high,
            "hits": estimate.hits,
            "cycles_used": estimate.cycles_used,
            "method": estimate.method,
            "confidence": estimate.confidence,
            "z": estimate.z,
        },
        "warnings": warnings,
        "wall_clock_seconds": wall_seconds,
    }


def _print_search_table(rows, config, out, method=None):
    """The d search as a table; ``method`` is the run's, None for a failed search.

    The last row of a finished search decided the run and is labelled by
    its method.  Every other row missed the band, on one side or the other.
    """
    prelim, low, high = config["prelim_cycles"], config["ampos_low"], config["ampos_high"]
    print(f"d search (pilot runs of {prelim} cycles, target hit band [{low}, {high}])", file=out)
    print(f"  {'INPUT':<44}{'OUTPUT'}", file=out)
    print(f"  {'IC':<4}{'D_Dn':<14}{'D_Up':<14}{'D':<14}{'AmPos'}", file=out)
    for i, row in enumerate(rows, start=1):
        d_up = "inf" if row["d_up"] is None else format_number(row["d_up"])
        ampos = row["ampos"]
        if method is not None and i == len(rows):
            note = "accepted" if method == "importance" else "direct"
        elif ampos < low:
            note = "below band"
        else:
            note = "above band"
        print(
            f"  {row['ic']:<3} {format_number(row['d_low']):<13} {d_up:<13} "
            f"{format_number(row['d']):<13} {ampos} ({note})",
            file=out,
        )


def _print_text_report(report, out=None):
    out = out if out is not None else sys.stdout
    tree = report["tree"]
    print(f"tree: {tree['basic_events']} basic events, {tree['gates']} gates, top {tree['top']}", file=out)
    if report["search"] is not None:
        _print_search_table(report["search"], report["config"], out, report["estimate"]["method"])
    est = report["estimate"]
    if report["reference"] is not None:
        print(f"method: importance sampling (d = {format_number(report['reference']['d'])})", file=out)
        print("reference scales:", file=out)
        for ev in report["reference"]["events"]:
            print(f"  {ev['name']:<12}{ev['family']:<10}v = {format_number(ev['v'])}", file=out)
    else:
        print("method: direct simulation", file=out)
    print(f"p_hat    = {format_number(est['p_hat'])}", file=out)
    print(f"std_err  = {format_number(est['std_err'])}", file=out)
    print(
        f"ci({format_number(est['confidence'])}) = "
        f"[{format_number(est['ci_low'])}, {format_number(est['ci_high'])}]",
        file=out,
    )
    print(f"hits     = {est['hits']} of {est['cycles_used']} cycles", file=out)
    for w in report["warnings"]:
        print(f"warning: {w}", file=out)
    print(f"wall clock: {report['wall_clock_seconds']:.3f} s", file=out)


def _load_tree(path):
    """Returns (text, document, tree) or raises typed errors."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    doc = parse(text)
    return text, doc, to_fault_tree(doc)


def _resolve_mission_time(args, doc) -> float:
    if getattr(args, "mission_time", None) is not None:
        return _check_positive(args.mission_time, "mission time")
    if doc.mission_time is not None:
        return doc.mission_time
    raise ValidationError("mission time required: none in file, pass --mission-time")


def cmd_check(args) -> int:
    text, doc, tree = _load_tree(args.file)
    print(f"{len(tree.basic_events)} basic events, {len(tree.gates)} gates")
    print(f"top: {tree.top}")
    if doc.mission_time is not None:
        print(f"mission_time: {format_number(doc.mission_time)}")
    return EXIT_OK


def cmd_run(args) -> int:
    text, doc, tree = _load_tree(args.file)
    mission_time = _resolve_mission_time(args, doc)
    # unset knobs are left out, so RunConfig alone owns their defaults
    knobs = ("cycles", "prelim_cycles", "ampos_low", "ampos_high", "confidence", "seed")
    given = {k: getattr(args, k) for k in knobs if getattr(args, k) is not None}
    config = RunConfig(mission_time=mission_time, method=args.method, **given)
    started = time.perf_counter()
    try:
        estimate = estimate_top(tree, config)
    except SearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _print_search_table(_trace_rows(exc.trace), _config_block(config), sys.stderr)
        return EXIT_ENGINE
    wall = time.perf_counter() - started
    report = build_report(args.file, text, tree, config, estimate, wall)
    # written before either view is printed, so a report that cannot be
    # written (an inf estimate) leaves stdout empty in both formats
    rendered = dumps_canonical(report)
    if args.format == "json":
        print(rendered)
    else:
        _print_text_report(report)
    return EXIT_OK


def cmd_oracle(args) -> int:
    text, doc, tree = _load_tree(args.file)
    mission_time = _resolve_mission_time(args, doc)
    if args.family == "pand-overlap":
        mttfs = match_pand_overlap(tree)
        if mttfs is None:
            print(
                "error: tree does not match the pand-overlap family "
                "(pand over two 3-wide and gates sharing their middle events, all exponential)",
                file=sys.stderr,
            )
            return EXIT_UNSUPPORTED
        value = smallp_pand_overlap(mission_time, mttfs)
        print("method: small-p closed form (pand-overlap family)")
        print(f"probability = {format_number(value)}")
        return EXIT_OK
    result = exact_static(tree, mission_time)
    print(f"method: exact enumeration ({result.term_count} states)")
    print(f"probability = {format_number(result.probability)}")
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dftmc",
        description="Rare-event Monte-Carlo estimation for dynamic fault trees",
    )
    top.add_argument("--version", action="version", version=f"dftmc {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and validate a .dft file")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="estimate TOP failure probability")
    p_run.add_argument("file")
    p_run.add_argument("--mission-time", type=float, default=None,
                       help="overrides the file's mission_time")
    p_run.add_argument("--cycles", type=int)
    p_run.add_argument("--prelim-cycles", type=int)
    p_run.add_argument("--ampos-low", type=int)
    p_run.add_argument("--ampos-high", type=int)
    p_run.add_argument("--confidence", type=float)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--method", choices=["auto", "direct"], default="auto")
    p_run.add_argument("--format", choices=["text", "json"], default="text")
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser("oracle", help="independent reference calculations")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--mission-time", type=float, default=None)
    p_oracle.add_argument("--family", choices=["pand-overlap"], default=None,
                          help="use the closed-form family oracle instead of enumeration")
    p_oracle.set_defaults(func=cmd_oracle)
    return top


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UnsupportedTreeError, TreeTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ReferenceSolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
