import dataclasses
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import numpy as np
import pytest

from dftmc import BasicEvent, Exponential, FaultTree, Gate, GateKind, RunConfig, estimate_top, parse, to_fault_tree
from dftmc import cli
from dftmc.cli import _print_text_report, build_arg_parser, build_report, dumps_canonical, format_number, main
from dftmc.distributions import solve_reference
from dftmc.engine import MAX_SEARCH_ITERATIONS
from conftest import IMPOSSIBLE_DFT, STATIC_OR2_DFT, fixed_d, worker_count


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture(scope="module")
def schema():
    return json.loads(resources.files("dftmc").joinpath("report_schema.json").read_text())


# -- number formatting --------------------------------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.0, "0.0"),
        (1.0, "1.0"),
        (2.0, "2.0"),
        (0.001, "0.001"),
        (3.2e-14, "3.2e-14"),
        # Python's shortest repr: positional from 1e-4 up, one-digit mantissa bare
        (0.0005, "0.0005"),
        (1e-14, "1e-14"),
        (42, "42"),
        (True, "true"),
        # np.float64 is a float subclass, written as the float it equals
        pytest.param(np.float64(1.0), "1.0", id="np.float64-1.0"),
        pytest.param(np.float64(3.2e-14), "3.2e-14", id="np.float64-3.2e-14"),
    ],
)
def test_format_number(value, expected):
    assert format_number(value) == expected


def test_format_number_round_trips():
    rng = np.random.default_rng(0)
    for _ in range(500):
        x = float(rng.standard_normal()) * 10.0 ** int(rng.integers(-20, 20))
        assert float(format_number(x)) == x


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_numbers_are_refused(value):
    with pytest.raises(ValueError):
        format_number(value)
    with pytest.raises(ValueError):
        dumps_canonical({"estimate": {"p_hat": value}})


def test_dumps_canonical_is_valid_json():
    obj = {"a": [1, 2.5e-9, None, "x"], "b": {"c": True}}
    assert json.loads(dumps_canonical(obj)) == {
        "a": [1, 2.5e-9, None, "x"],
        "b": {"c": True},
    }


def _and2_report(real):
    # every float the caller supplies is built by ``real``; the reference
    # scales are solved at d = 2
    events = (BasicEvent("A", Exponential(real(5.0))), BasicEvent("B", Exponential(real(7.0))))
    tree = FaultTree((*events, Gate("TOP", GateKind.AND, ("A", "B"))), "TOP")
    config = RunConfig(mission_time=real(1.0), cycles=1_000)
    with fixed_d(2.0):
        estimate = estimate_top(tree, config)
    return dumps_canonical(build_report("and2.dft", "", tree, config, estimate, 0.0))


def test_report_with_numpy_numbers_is_the_python_report():
    text = _and2_report(np.float64)
    assert json.loads(text)["reference"]["events"][1]["v"] == solve_reference(Exponential(7.0), 2.0, 1.0)
    assert text == _and2_report(float)


def _leaves(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        for item in x:
            yield from _leaves(item)
    else:
        yield x


@pytest.mark.parametrize(
    "which,method,outcome",
    [("overlap", "auto", "importance"), ("static_or2", "auto", "direct"), ("static_or2", "direct", "direct")],
)
def test_report_leaves_are_exactly_python_scalars(which, method, outcome, overlap_tree, static_or2_tree):
    # json.dumps is called with no default hook: a numpy integer, or any
    # other non-JSON type, in a report would make it raise
    tree = overlap_tree if which == "overlap" else static_or2_tree
    config = RunConfig(mission_time=1.0, cycles=2_000, seed=3, method=method)
    estimate = estimate_top(tree, config)
    assert estimate.method == outcome
    report = build_report(f"{which}.dft", "", tree, config, estimate, 0.0)
    assert {type(leaf) for leaf in _leaves(report)} <= {bool, int, float, str, type(None)}


# -- check --------------------------------------------------------------------


def test_check_overlap(overlap_path):
    code, out, err = run_cli(["check", str(overlap_path)])
    assert code == 0
    assert "4 basic events, 3 gates" in out


def test_check_missing_file():
    code, out, err = run_cli(["check", "/nonexistent/tree.dft"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["check", "run", "oracle"])
def test_input_that_is_not_utf8_is_an_io_error(tmp_path, command):
    path = tmp_path / "latin1.dft"
    text = "dft 1\nmission_time 1.0\nbe X exp mttf=10.0 # caf\xe9\ntop X\n"
    path.write_bytes(text.encode("latin-1"))
    code, out, err = run_cli([command, str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_check_parse_error(tmp_path):
    path = write(tmp_path, "bad.dft", "dft 1\nbe X exp mttf=oops\ntop X\n")
    code, out, err = run_cli(["check", path])
    assert code == 2
    assert "line 2" in err


def test_check_cycle(tmp_path):
    path = write(
        tmp_path,
        "cycle.dft",
        "dft 1\nbe X exp mttf=1\ngate G1 and G2 X\ngate G2 and G1 X\ntop G1\n",
    )
    code, out, err = run_cli(["check", path])
    assert code == 3
    assert "cycle" in err and "G1" in err


# -- run ----------------------------------------------------------------------


def test_run_text_report(overlap_path):
    code, out, err = run_cli(["run", str(overlap_path), "--seed", "3"])
    assert code == 0
    assert "AmPos" in out and "accepted" in out
    assert "p_hat" in out


def test_run_json_schema_and_values(overlap_path, schema):
    code, out, err = run_cli(["run", str(overlap_path), "--seed", "3", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["tree"] == {
        "basic_events": 4,
        "gates": 3,
        "gate_counts": {"and": 2, "pand": 1},
        "top": "TOP",
    }
    assert report["reference"]["d"] == 2.0
    assert 2.6e-14 <= report["estimate"]["p_hat"] <= 3.8e-14
    assert report["search"][0] == {"ic": 1, "d_low": 1.0, "d_up": None, "d": 1.0, "ampos": 0}


def test_run_without_knob_flags_uses_runconfig_defaults(overlap_path):
    code, out, err = run_cli(["run", str(overlap_path), "--format", "json"])
    assert code == 0
    config = json.loads(out)["config"]
    defaults = RunConfig(mission_time=config["mission_time"])
    # the iteration cap is a constant of the search, not a knob
    assert config.pop("max_search_iterations") == MAX_SEARCH_ITERATIONS
    assert config == {key: getattr(defaults, key) for key in config}


def test_run_text_and_json_numbers_match(overlap_path):
    _, text, _ = run_cli(["run", str(overlap_path), "--seed", "3"])
    _, raw, _ = run_cli(["run", str(overlap_path), "--seed", "3", "--format", "json"])
    report = json.loads(raw)
    est = report["estimate"]
    assert f"p_hat    = {format_number(est['p_hat'])}" in text
    assert f"std_err  = {format_number(est['std_err'])}" in text
    assert format_number(est["ci_low"]) in text
    assert format_number(est["ci_high"]) in text
    for ev in report["reference"]["events"]:
        assert format_number(ev["v"]) in text


def test_run_text_numbers_are_the_json_tokens(tmp_path):
    # at seed 3 the d = 1 pilot is below the band, so the run weights, and
    # std_err lands in [1e-4, 1e-3), where repr writes positional digits
    path = write(tmp_path, "one.dft", "dft 1\nmission_time 1\nbe A exp mttf=100\ntop A\n")
    _, text, _ = run_cli(["run", path, "--cycles", "20000", "--seed", "3"])
    _, raw, _ = run_cli(["run", path, "--cycles", "20000", "--seed", "3", "--format", "json"])
    tokens = dict(re.findall(r'^ *"(p_hat|std_err|ci_low|ci_high|confidence|d|v)": ([^,\n]+)', raw, re.M))
    assert 1e-4 <= float(tokens["std_err"]) < 1e-3
    assert tokens["std_err"].startswith("0.000")
    assert f"p_hat    = {tokens['p_hat']}\n" in text
    assert f"std_err  = {tokens['std_err']}\n" in text
    assert f"ci({tokens['confidence']}) = [{tokens['ci_low']}, {tokens['ci_high']}]\n" in text
    assert f"(d = {tokens['d']})\n" in text
    assert f"v = {tokens['v']}\n" in text


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_run_report_that_cannot_be_written_prints_nothing(overlap_path, monkeypatch, fmt):
    real = cli.estimate_top
    monkeypatch.setattr(cli, "estimate_top", lambda tree, config: dataclasses.replace(real(tree, config), p_hat=math.inf))
    code, out, err = run_cli(["run", str(overlap_path), "--seed", "3", "--cycles", "10000", "--format", fmt])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_run_direct_zero_hits_warns(overlap_path):
    code, out, err = run_cli(
        ["run", str(overlap_path), "--method", "direct", "--cycles", "1000000", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["estimate"]["p_hat"] == 0.0
    assert report["estimate"]["hits"] == 0
    assert report["warnings"] == ["no TOP events observed; run with method auto (importance sampling)"]


def test_report_warns_when_hit_weights_underflow(schema):
    # at d = 1e300 every event fails before T, and each hit's weight is a
    # product of 80 density ratios of order 1e-6: it rounds to 0, so
    # hits > 0 but the weight sum is 0
    names = [f"E{i}" for i in range(80)]
    text = "dft 1\n" + "".join(f"be {n} exp mttf=1000.0\n" for n in names)
    text += f"gate TOP and {' '.join(names)}\ntop TOP\n"
    tree = to_fault_tree(parse(text))
    config = RunConfig(mission_time=1.0, cycles=10_000, seed=1)
    with fixed_d(1e300):
        estimate = estimate_top(tree, config)
    assert estimate.hits == 10_000 and estimate.p_hat == 0.0 and estimate.std_err == 0.0
    report = build_report("and80.dft", text, tree, config, estimate, 0.0)
    jsonschema.validate(report, schema)
    assert report["warnings"] == [
        "TOP events observed but every hit weight underflowed to 0; p_hat is not an estimate"
    ]
    out = io.StringIO()
    _print_text_report(report, out)
    assert f"warning: {report['warnings'][0]}" in out.getvalue()


def test_text_search_table_reads_report_config(overlap_tree):
    # the table's header and notes come from the report's own config block;
    # the last row is labelled by the run's method
    config = RunConfig(
        mission_time=1.0, cycles=2_000, prelim_cycles=500, ampos_low=20, ampos_high=40
    )
    with fixed_d(2.0):
        estimate = estimate_top(overlap_tree, config)
    report = build_report("t.dft", "", overlap_tree, config, estimate, 0.0)
    report["search"] = [
        {"ic": ic, "d_low": 1.0, "d_up": None, "d": float(ic), "ampos": ampos}
        for ic, ampos in enumerate((0, 19, 41, 40), start=1)
    ]
    out = io.StringIO()
    _print_text_report(report, out)
    lines = out.getvalue().splitlines()
    assert "d search (pilot runs of 500 cycles, target hit band [20, 40])" in lines
    notes = [line.split(maxsplit=4)[4] for line in lines if line.startswith("  ") and "(" in line]
    assert notes == ["0 (below band)", "19 (below band)", "41 (above band)", "40 (accepted)"]


def test_text_search_table_columns_split_into_report_fields(overlap_path):
    # this search reaches d values of 18 digits, wider than their column
    args = ["run", str(overlap_path), "--ampos-low", "40", "--ampos-high", "55", "--seed", "3"]
    code, out, err = run_cli(args)
    assert code == 0
    code, js, err = run_cli([*args, "--format", "json"])
    rows = json.loads(js)["search"]
    lines = out.splitlines()
    first = lines.index("  IC  D_Dn          D_Up          D             AmPos") + 1
    assert len(rows) == 9
    for line, row in zip(lines[first:first + len(rows)], rows, strict=True):
        d_up = "inf" if row["d_up"] is None else format_number(row["d_up"])
        expected = [str(row["ic"]), format_number(row["d_low"]), d_up, format_number(row["d"]), str(row["ampos"])]
        assert line.split()[:5] == expected


@pytest.mark.parametrize(
    "flags,note,method_line",
    [([], "170 (direct)", "method: direct simulation")],
    ids=["auto"],
)
def test_text_search_table_labels_deciding_pilot_by_method(tmp_path, flags, note, method_line):
    # the one pilot is above the band; d cannot go below 1, so it decides
    # the run, which goes direct
    path = write(tmp_path, "or2.dft", STATIC_OR2_DFT)
    code, out, err = run_cli(["run", path, "--cycles", "10000", *flags])
    assert code == 0
    lines = out.splitlines()
    assert lines[4].split(maxsplit=4)[4] == note
    assert lines[5] == method_line


def test_run_deterministic_across_threads(overlap_path):
    args = ["run", str(overlap_path), "--seed", "7", "--cycles", "20000", "--format", "json"]
    with worker_count(1):
        _, a, _ = run_cli(args)
    with worker_count(8):
        _, b, _ = run_cli(args)
    ra, rb = json.loads(a), json.loads(b)
    ra.pop("wall_clock_seconds")
    rb.pop("wall_clock_seconds")
    assert dumps_canonical(ra) == dumps_canonical(rb)


def test_run_has_no_threads_flag(overlap_path):
    # the engine picks the worker count; only CPU affinity caps it
    with pytest.raises(SystemExit) as info:
        main(["run", str(overlap_path), "--threads", "2"])
    assert info.value.code == 2


def test_run_has_no_forced_importance_method(overlap_path):
    # auto runs importance sampling wherever the search leaves d = 1
    with pytest.raises(SystemExit) as info:
        main(["run", str(overlap_path), "--method", "is"])
    assert info.value.code == 2


def test_run_mission_time_flag_overrides(tmp_path):
    # no mission_time in the file: flag required
    path = write(
        tmp_path, "no_t.dft", "dft 1\nbe X exp mttf=10\nbe Y exp mttf=10\ngate T or X Y\ntop T\n"
    )
    code, out, err = run_cli(["run", path, "--cycles", "2000", "--prelim-cycles", "1000"])
    assert code == 3
    assert "mission time required" in err
    code, out, err = run_cli(
        ["run", path, "--mission-time", "1.0", "--cycles", "2000", "--prelim-cycles", "1000"]
    )
    assert code == 0


def test_run_mission_time_flag_beats_file_value(overlap_path):
    code, out, err = run_cli(
        ["run", str(overlap_path), "--mission-time", "0.5", "--cycles", "20000", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["config"]["mission_time"] == 0.5


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize(
    "command",
    [["oracle", "static"], ["oracle", "overlap"], ["run", "overlap"]],
    ids=["oracle-exact", "oracle-family", "run"],
)
def test_mission_time_flag_must_be_finite_and_positive(tmp_path, overlap_path, command, value):
    files = {"static": write(tmp_path, "or2.dft", STATIC_OR2_DFT), "overlap": str(overlap_path)}
    args = [command[0], files[command[1]], *command[2:], "--mission-time", value]
    code, out, err = run_cli(args)
    assert code == 3
    assert out == ""
    assert "mission" in err


def test_every_runconfig_knob_has_a_run_flag():
    sub = next(a for a in build_arg_parser()._actions if a.dest == "command")
    dests = {a.dest for a in sub.choices["run"]._actions}
    knobs = {f.name for f in dataclasses.fields(RunConfig)}
    assert knobs <= dests, knobs - dests


def test_run_bad_knobs(overlap_path):
    code, out, err = run_cli(["run", str(overlap_path), "--cycles", "10"])
    assert code == 3


def test_run_confidence_with_infinite_z_is_refused_before_running(overlap_path):
    # 0.5 + c/2 rounds to 1.0 here; the run must not start, let alone print
    code, out, err = run_cli(["run", str(overlap_path), "--confidence", "0.9999999999999999"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: confidence")


def test_run_direct_with_fewer_cycles_than_a_pilot(overlap_path):
    code, out, err = run_cli(["run", str(overlap_path), "--method", "direct", "--cycles", "500"])
    assert code == 0
    assert "hits     = 0 of 500 cycles" in out


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_run_seed_outside_64_bits_is_refused(overlap_path, seed):
    code, out, err = run_cli(["run", str(overlap_path), "--seed", seed])
    assert code == 3
    assert out == ""
    assert err.startswith("error: seed")


def test_run_search_failure_dumps_trace(tmp_path):
    path = write(tmp_path, "impossible.dft", IMPOSSIBLE_DFT)
    code, out, err = run_cli(["run", path, "--cycles", "100000"])
    assert code == 4
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "error: no d reached the [10, 100] hit band within 30 iterations"
    # the same table as the text report, every row labelled by the band
    assert lines[1] == "d search (pilot runs of 1000 cycles, target hit band [10, 100])"
    assert lines[-1].split()[0] == "30" and lines[-1].endswith("0 (below band)")
    assert len(lines) == 4 + 30


def test_run_pilots_that_hit_but_never_reach_the_band_name_direct(tmp_path):
    # six events must fail in order: no d lifts the pilot hits into the band
    events = "".join(f"be {name} exp mttf=0.3\n" for name in "ABCDEF")
    text = f"dft 1\nmission_time 1\n{events}gate TOP pand A B C D E F\ntop TOP\n"
    path = write(tmp_path, "pand6.dft", text)
    code, out, err = run_cli(["run", path, "--seed", "1"])
    assert code == 4
    assert out == ""
    assert err.splitlines()[0] == (
        "error: no d reached the [10, 100] hit band within 30 iterations, "
        "though pilots hit TOP: run with method direct (direct simulation)"
    )
    code, out, err = run_cli(["run", path, "--seed", "1", "--method", "direct"])
    assert code == 0 and "method: direct simulation" in out


@pytest.mark.parametrize(
    "law",
    ["exp mttf=1e308", "normal mean=1e308 sd=1e308", "lognormal mu=709.78 sigma=1"],
    ids=["exp", "normal", "lognormal"],
)
@pytest.mark.parametrize("method", ["auto", "direct"])
def test_run_lifetimes_beyond_float_range_do_not_warn(tmp_path, law, method):
    # A's lifetimes overflow to inf, the correct value; the suite turns any
    # RuntimeWarning from the overflow into an error
    text = f"dft 1\nmission_time 1\nbe A {law}\nbe B exp mttf=10\ngate TOP or A B\ntop TOP\n"
    code, out, err = run_cli(["run", write(tmp_path, "huge.dft", text), "--cycles", "1000", "--method", method])
    assert code == 0
    assert err == ""


REFERENCE_FAILURE_DFT = """dft 1
mission_time 1.0
be X exp mttf=5.0
be Y exp mttf=5.0
be L lognormal mu=0.0 sigma=200.0
gate S seq X Y
gate P pand S X
gate TOP and P L
top TOP
"""


def test_run_reference_solver_failure_exits_4(tmp_path):
    # the search doubles d until the reference scale of L leaves the float range
    path = write(tmp_path, "reference.dft", REFERENCE_FAILURE_DFT)
    code, out, err = run_cli(["run", path])
    assert code == 4
    assert out == ""
    assert err.startswith("error: event L: reference scale for a survival drop of 8192.0")


@pytest.mark.parametrize(
    "event,line",
    [
        ("W", "be W weibull scale=1.0 shape=400.0"),
        ("E", "be E exp mttf=1e-310"),
        # the scale stays in range, but the scaled sd underflows to 0
        ("N", "be N normal mean=1e300 sd=1e-30"),
    ],
    ids=["weibull-power-overflows", "exp-scale-underflows", "normal-sd-underflows"],
)
def test_run_closed_form_scale_out_of_float_range_exits_4(tmp_path, event, line):
    # the d = 1 pilot misses, and at d = 2 the event's scale leaves the float range
    text = f"dft 1\nmission_time 10.0\n{line}\nbe R exp mttf=1000000.0\ngate TOP and {event} R\ntop TOP\n"
    code, out, err = run_cli(["run", write(tmp_path, "range.dft", text)])
    assert code == 4
    assert out == ""
    assert err.startswith(f"error: event {event}: reference scale for a survival drop of 2.0")


@pytest.mark.parametrize("mu", ["800", "-800"])
def test_run_lognormal_median_out_of_float_range_is_a_parse_error(tmp_path, mu):
    text = f"dft 1\nmission_time 1\nbe A lognormal mu={mu} sigma=1\nbe B exp mttf=10\ngate TOP or A B\ntop TOP\n"
    code, out, err = run_cli(["run", write(tmp_path, "median.dft", text)])
    assert code == 2
    assert out == ""
    assert "line 3" in err


# -- oracle -------------------------------------------------------------------


def test_oracle_static(tmp_path):
    path = write(tmp_path, "or2.dft", STATIC_OR2_DFT)
    code, out, err = run_cli(["oracle", path])
    assert code == 0
    assert "exact enumeration" in out
    value = float(out.splitlines()[-1].split("=")[1])
    assert value == pytest.approx(0.19, rel=1e-9)


def test_oracle_overlap_family(overlap_path):
    code, out, err = run_cli(["oracle", str(overlap_path)])
    assert code == 0
    assert out.splitlines()[0] == "method: small-p closed form (pand-overlap family)"
    value = float(out.splitlines()[-1].split("=")[1])
    assert value == pytest.approx(3.122e-14, rel=1e-3)


@pytest.mark.parametrize(
    "text",
    [
        "dft 1\nmission_time 1\nbe X exp mttf=10\nbe Y exp mttf=20\ngate TOP pand X Y\ntop TOP\n",
        # the demo with BE1 made Weibull is outside the pand-overlap family
        "dft 1\nmission_time 1\nbe BE1 weibull scale=1000 shape=1.5\nbe BE2 exp mttf=2000\n"
        "be BE3 exp mttf=3000\nbe BE4 exp mttf=4000\ngate A and BE1 BE2 BE3\n"
        "gate B and BE2 BE3 BE4\ngate TOP pand A B\ntop TOP\n",
    ],
    ids=["pand2", "weibull-demo"],
)
def test_oracle_dynamic_tree_outside_the_family(tmp_path, text):
    code, out, err = run_cli(["oracle", write(tmp_path, "dyn.dft", text)])
    assert code == 5
    assert out == ""
    assert err.startswith("error: gate TOP: pand is dynamic")


def test_oracle_static_tree_too_large_to_enumerate(tmp_path):
    names = [f"E{i}" for i in range(21)]
    text = "dft 1\nmission_time 1\n" + "".join(f"be {n} exp mttf=10\n" for n in names)
    text += f"gate TOP or {' '.join(names)}\ntop TOP\n"
    code, out, err = run_cli(["oracle", write(tmp_path, "or21.dft", text)])
    assert code == 5
    assert out == ""
    assert err.startswith("error: 21 basic events exceeds the enumeration limit")


def test_oracle_has_no_family_flag(overlap_path):
    # the tree's shape picks the oracle
    with pytest.raises(SystemExit) as info:
        main(["oracle", str(overlap_path), "--family", "pand-overlap"])
    assert info.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
