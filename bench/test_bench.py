"""Self-test of the benchmark: every workload at tiny sizes, untraced and traced.

Run from the repository root with ``python -m pytest bench``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dftmc import distributions, engine, parser, tree  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload):
    return dataclasses.replace(
        workload,
        cycles=min(workload.cycles, 5_000),
        events=min(workload.events, 40),
        oracle_cycles=2_000,
    )


@pytest.fixture()
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(measure, "WORK", tmp_path)
    monkeypatch.setattr(measure, "SETUP_REPS", 1)
    monkeypatch.setattr(measure, "IMPORT_REPS", 1)
    monkeypatch.setattr(measure, "LOAD_REPS", 2)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(quick, name, trace):
    lines = []
    result = measure.run(_tiny(workloads.WORKLOADS[name]), seed=3, seconds=0.0, trace=trace, out=lines.append)
    json.dumps(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2

    declared = _declared("per_layer" if trace else "end_to_end")
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    assert printed == declared
    for metric, value in result["metrics"].items():
        assert f"metric {metric} = {value['value']!r} {value['unit']}" in lines
        assert value["value"] is not None
        if value["unit"] == "s":
            assert value["value"] >= 0
    if trace and name == "direct_dyn200":
        assert result["metrics"]["distributions.weight_s"]["value"] == 0


def test_generated_trees_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS.values():
        tiny = _tiny(workload)
        assert workloads.tree_text(tiny, 5) == workloads.tree_text(tiny, 5)
    generated = _tiny(workloads.WORKLOADS["direct_dyn200"])
    assert workloads.tree_text(generated, 5) != workloads.tree_text(generated, 6)
    assert workloads.op_seed(5, 1) == workloads.op_seed(5, 1) != workloads.op_seed(5, 2)


def test_tracing_leaves_estimate_bit_identical_and_restores_hooks():
    fault_tree = tree.validate(parser.to_fault_tree(parser.parse(workloads.DEMO_PAND_DFT)))
    config = engine.RunConfig(mission_time=1.0, cycles=20_000, seed=11)
    originals = {(path, attr): tracing._resolve(path).__dict__[attr] for path, attr, _, _ in tracing.HOOKS}

    plain = engine.estimate_top(fault_tree, config)
    tracer = tracing.Tracer()
    with tracer:
        traced = engine.estimate_top(fault_tree, config)

    assert (traced.p_hat, traced.std_err, traced.hits) == (plain.p_hat, plain.std_err, plain.hits)
    assert tracer.absent == [] and tracer.spans
    for (path, attr), original in originals.items():
        assert tracing._resolve(path).__dict__[attr] is original


def test_missing_hook_target_reads_null_not_zero(quick, monkeypatch):
    monkeypatch.delattr(distributions, "solve_reference_bisect")
    lines = []
    result = measure.run(_tiny(workloads.WORKLOADS["demo_pand"]), seed=3, seconds=0.0, trace=True, out=lines.append)
    metrics = result["metrics"]
    assert metrics["distributions.bisect_s"]["value"] is None
    assert metrics["distributions.bisect_calls"]["value"] is None
    assert metrics["distributions.quantile_s"]["value"] > 0
    assert "absent hooks: distributions.solve_reference_bisect" in lines


def test_high_percentile_leaves_ten_ops_beyond():
    value, which = measure.high_percentile([float(i) for i in range(40)])
    assert value == 29.0 and which.startswith("p75.0")
