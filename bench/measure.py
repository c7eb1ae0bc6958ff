"""Runs one workload against the dftmc package on ``sys.path`` and measures it.

One op is what ``dftmc run FILE --format json`` does once the tree is
loaded: ``engine.estimate_top`` at default settings (one thread), then
``cli.build_report`` and ``cli.dumps_canonical``.  Ops run back to back in
one process, a closed loop with one client.  Op ``i`` uses run seed
``workloads.op_seed(seed, i)``, so ops differ from each other but
repeat exactly from run to run with the same workload seed.  Op 0 is a
warm-up: it is checked but not timed.

Every op is checked after the timed loop (see :func:`check_op`); an op that
raises, or whose result fails a check, counts as failed.  An op that ends in
``SearchError`` with zero hits in every pilot is the documented exhaustion
outcome, not a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np
import scipy

import tracing
import workloads
from dftmc import cli, engine, oracle, parser, tree
from dftmc.engine import RunConfig, SearchError

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

SETUP_REPS = 7  # fresh interpreters timed per run for setup_s
IMPORT_REPS = 5  # fresh interpreters timed per traced run for cli.import_s
LOAD_REPS = 20  # in-process parse/validate repetitions per traced run
Z = 5.0  # agreement checks allow Z combined standard errors (false alarm ~6e-7)

# A shared machine's speed drifts by up to a third over tens of seconds as
# neighbours load its cores, and a 30 s median of op wall times drifts with
# it (10-run spreads reached 30%).  A fixed kernel of numpy array work and
# Python bytecode, the two kinds of work an op does, is timed between ops;
# op times are rescaled to the speed at which that kernel takes KERNEL_REF_S
# (about its time on a 2-core x86 box under its usual load), and raw wall
# times are printed next to them.  Set-up runs in child processes, which the
# kernel in this process does not track, so setup_s stays a wall time.
KERNEL_REF_S = 0.007
_KERNEL_ARRAY = np.linspace(0.01, 0.99, 4 * 4096).reshape(4096, 4)


@dataclass
class Op:
    index: int
    seconds: float  # wall time
    outcome: str  # importance | direct | exhausted | error
    cycles: int = 0  # pilot plus main-run cycles
    p_hat: float = math.nan
    std_err: float = math.nan
    hits: int = 0
    report: str | None = None
    problem: str | None = None
    ref_seconds: float = math.nan  # wall time at the reference speed

    @property
    def relse(self) -> float:
        """std_err / p_hat; an op without a positive estimate resolved nothing, so 1."""
        if self.outcome in ("importance", "direct") and self.p_hat > 0:
            return self.std_err / self.p_hat
        return 1.0


def load(text):
    """The validated tree of ``text``, after a serialize/parse round trip."""
    doc = parser.parse(text)
    canonical = parser.serialize(doc)
    again = parser.parse(canonical)
    if again != doc or parser.serialize(again) != canonical:
        raise RuntimeError("tree text does not round-trip through serialize/parse")
    return tree.validate(parser.to_fault_tree(again))


def run_op(index, seed, workload, text, fault_tree, tracer=None) -> Op:
    config = RunConfig(mission_time=workload.mission_time, cycles=workload.cycles, seed=seed)
    started = time.perf_counter()
    try:
        estimate = engine.estimate_top(fault_tree, config)
        wall = time.perf_counter() - started
        report = cli.build_report(f"{workload.name}.dft", text, fault_tree, config, estimate, wall)
        with tracer.span("cli.dumps_canonical") if tracer else nullcontext():
            rendered = cli.dumps_canonical(report)
    except SearchError as exc:
        seconds = time.perf_counter() - started
        pilots = exc.trace.iterations
        cycles = len(pilots) * config.prelim_cycles
        if all(it.ampos == 0 for it in pilots):
            return Op(index, seconds, "exhausted", cycles)
        return Op(index, seconds, "error", cycles, problem=f"search failed with pilot hits: {exc}")
    except Exception as exc:  # every other error is a failed op, kept with its message
        return Op(index, time.perf_counter() - started, "error", problem=repr(exc))
    seconds = time.perf_counter() - started
    pilots = len(estimate.trace.iterations) if estimate.trace else 0
    return Op(
        index,
        seconds,
        estimate.method,
        pilots * config.prelim_cycles + estimate.cycles_used,
        estimate.p_hat,
        estimate.std_err,
        estimate.hits,
        rendered,
    )


class Reference:
    """The independent value every estimate of a workload must agree with."""

    def __init__(self, workload, fault_tree, seed):
        self.kind = workload.oracle
        self.value = self.std_err = self.rel_tol = 0.0
        if self.kind == "smallp":
            mttfs = oracle.match_pand_overlap(fault_tree)
            self.value = oracle.smallp_pand_overlap(workload.mission_time, mttfs)
            # the closed form's own relative error is of order max p_i
            self.rel_tol = 2 * max(-math.expm1(-workload.mission_time / u) for u in mttfs)
        elif self.kind == "direct":
            self.value, self.std_err = oracle.direct_rich(
                fault_tree, workload.mission_time, workload.oracle_cycles,
                seed=workloads.op_seed(seed, "oracle"),
            )

    def agrees(self, p_hat, std_err) -> bool:
        if self.kind == "none":
            return True
        allowed = Z * math.hypot(std_err, self.std_err) + self.rel_tol * self.value
        return abs(p_hat - self.value) <= allowed

    def describe(self):
        if self.kind == "none":
            return "none"
        return f"{self.kind} {self.value!r} +- {self.std_err!r} (rel tol {self.rel_tol!r})"


def report_validator():
    schema = json.loads(Path(cli.__file__).with_name("report_schema.json").read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def check_op(op: Op, reference: Reference, validator) -> str | None:
    """Why ``op`` failed, or None if it passed every check."""
    if op.outcome in ("error", "exhausted"):
        return op.problem
    if not math.isfinite(op.p_hat):
        return f"p_hat is not finite: {op.p_hat!r}"
    if op.hits > 0 and not (op.p_hat > 0 and op.std_err > 0):
        return f"{op.hits} hits but p_hat = {op.p_hat!r}, std_err = {op.std_err!r}"
    try:
        validator.validate(json.loads(op.report))
    except jsonschema.ValidationError as exc:
        return f"report does not match report_schema.json: {exc.message}"
    if not reference.agrees(op.p_hat, op.std_err):
        return f"p_hat {op.p_hat!r} +- {op.std_err!r} disagrees with {reference.describe()}"
    return None


def pooled(ops):
    """Mean estimate over ops of equal cycle counts, with its standard error."""
    estimates = [op for op in ops if op.outcome in ("importance", "direct")]
    if not estimates:
        return None
    n = len(estimates)
    mean = math.fsum(op.p_hat for op in estimates) / n
    return mean, math.sqrt(math.fsum(op.std_err**2 for op in estimates)) / n


def fresh_python(*args):
    """Wall time and output of a fresh interpreter running ``python args`` on the program."""
    env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parent.parent)}
    started = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} failed: {done.stdout}{done.stderr}")
    return seconds, done.stdout


def kernel_seconds():
    """Wall time of the fixed speed-probe kernel (see KERNEL_REF_S)."""
    started = time.perf_counter()
    for _ in range(40):
        np.exp(-np.log1p(-_KERNEL_ARRAY)).sum()
    x = 0.0
    for i in range(40_000):
        x += i * 0.5
    return time.perf_counter() - started


def at_reference_speed(seconds, kernel_before, kernel_after):
    return seconds * KERNEL_REF_S / (0.5 * (kernel_before + kernel_after))


def high_percentile(values):
    """The op time with exactly ten ops beyond it, and which percentile that is."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} ops (fewer than 11)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} (11th slowest of {n} ops)"


def environment():
    src = Path(engine.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")) + sorted(src.glob("*.json")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run(workload, seed, seconds, trace, out=lambda line: print(line, flush=True)):
    """Measure ``workload``; returns the result object of the last output line.

    With ``trace``, even-numbered ops run under a :class:`tracing.Tracer` and
    odd ones without, so trace.overhead_ratio compares ops from the same
    stretch of time; per-layer values are medians over the traced ops.
    """
    text = workloads.tree_text(workload, seed)
    fault_tree = load(text)
    out(f"env: {json.dumps(environment())}")
    out(
        f"workload: {workload.name} seed={seed} tree_sha256={hashlib.sha256(text.encode()).hexdigest()} "
        f"events={len(fault_tree.basic_events)} gates={len(fault_tree.gates)} "
        f"mission_time={workload.mission_time!r} cycles={workload.cycles}"
    )
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        path = Path(tmp) / f"{workload.name}.dft"
        path.write_text(text)
        if not trace:
            summary = f"{len(fault_tree.basic_events)} basic events, {len(fault_tree.gates)} gates"
            setup = []
            for _ in range(SETUP_REPS):
                wall, stdout = fresh_python("-m", "dftmc.cli", "check", str(path))
                if not stdout.startswith(summary):
                    raise RuntimeError(f"dftmc check did not report {summary!r}: {stdout!r}")
                setup.append(wall)

        ops = [run_op(0, workloads.op_seed(seed, 0), workload, text, fault_tree)]
        tracer = tracing.Tracer() if trace else None
        untraced, traced = [], []
        kernel = kernel_seconds()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not (untraced and (traced or not trace)):
            index = len(ops)
            if trace and index % 2 == 0:
                tracer.op = index
                with tracer, tracer.span("op"):
                    ops.append(run_op(index, workloads.op_seed(seed, index), workload, text, fault_tree, tracer))
                traced.append(ops[-1])
            else:
                ops.append(run_op(index, workloads.op_seed(seed, index), workload, text, fault_tree))
                untraced.append(ops[-1])
            ops[-1].ref_seconds = at_reference_speed(ops[-1].seconds, kernel, kernel := kernel_seconds())
        # read before the reference is computed, so the oracle's memory is not counted
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = Reference(workload, fault_tree, seed)
    validator = report_validator()
    problems = {op.index: check_op(op, reference, validator) for op in ops}
    failed = [i for i, p in problems.items() if p is not None]
    for i in failed[:5]:
        out(f"failed op {i}: {problems[i]}")
    counts = {k: sum(op.outcome == k for op in ops) for k in ("importance", "direct", "exhausted", "error")}
    out(
        "outcomes: " + " ".join(f"{k}={v}" for k, v in counts.items())
        + f" of {len(ops)} ops; exhausted_ratio={counts['exhausted'] / len(ops)!r}"
        + f" failed_ratio={len(failed) / len(ops)!r}"
    )
    # a wrong estimate makes the run incorrect; an op that raised is only failed
    correct = not any(ops[i].outcome in ("importance", "direct") for i in failed)
    pool = pooled(ops)
    if pool is not None:
        agrees = reference.agrees(*pool)
        correct = correct and agrees
        out(f"reference: {reference.describe()}; pooled estimate {pool[0]!r} +- {pool[1]!r}: "
            + ("agrees" if agrees else "DISAGREES"))

    if trace:
        metrics = layer_metrics(text, tracer, ops, untraced, traced, out)
        tracer.write(WORK / f"spans-{workload.name}.tsv.gz")
    else:
        metrics = run_metrics(untraced, setup, peak_rss_mb, out)
    for name, (value, unit) in metrics.items():
        out(f"metric {name} = {value!r} {unit}")
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_metrics(ops, setup, peak_rss_mb, out):
    """End-to-end metrics; op times in them are at the reference speed.

    The high percentile of op time is printed but not gated: while the
    machine switches speed within a second, the kernel timed next to an op
    sometimes ran at the other speed, and those ops set the tail (10-run
    spreads of the demo's p93 reached 22%, against 6% for the median).
    """
    times = [op.ref_seconds for op in ops]
    hi, which = high_percentile(times)
    raw_hi, _ = high_percentile([op.seconds for op in ops])
    out(f"run_s_hi = {hi!r} s at reference speed, {raw_hi!r} s wall clock: {which} (not gated)")
    out(
        f"wall clock: run_s_p50 {statistics.median(op.seconds for op in ops)!r} s; "
        f"machine speed / reference speed {statistics.median(op.ref_seconds / op.seconds for op in ops)!r}"
    )
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s_p50": (statistics.median(times), "s"),
        "cycles_per_s": (statistics.median(op.cycles / op.ref_seconds for op in ops), "1/s"),
        "relse_p50": (statistics.median(op.relse for op in ops), "1"),
        "relse2_x_s": (statistics.median(op.relse**2 * op.ref_seconds for op in ops), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# Unit of each per-layer metric and the span names it is computed from; a
# metric whose span target no longer exists in the program reads null.
LAYER_METRICS = {
    "parser.parse_s": ("s", ("parser.parse",)),
    "parser.to_fault_tree_s": ("s", ("parser.to_fault_tree",)),
    "tree.validate_s": ("s", ("tree.validate",)),
    "tree.eval_s": ("s", ("tree.batch_top_times",)),
    "tree.eval_rows": ("count", ("tree.batch_top_times",)),
    "tree.eval_ns_per_row": ("ns", ("tree.batch_top_times",)),
    "distributions.quantile_s": ("s", ("distributions.quantile",)),
    "distributions.weight_s": ("s", ("distributions.log_density_ratio", "distributions.log_survival_ratio")),
    "distributions.solve_calls": ("count", ("distributions.solve_reference",)),
    "distributions.bisect_calls": ("count", ("distributions.solve_reference_bisect",)),
    "distributions.bisect_s": ("s", ("distributions.solve_reference_bisect",)),
    "engine.search_s": ("s", ("engine.select_reference",)),
    "engine.search_iterations": ("count", ("engine.run_batch",)),
    "engine.pilot_cycles": ("count", ("engine.run_batch",)),
    "engine.refmodel_self_s": ("s", ("engine.build_reference_model",)),
    "engine.main_s": ("s", ("engine.run_batch",)),
    "engine.main_cycles": ("count", ("engine.run_batch",)),
    "engine.batch_self_s": ("s", ("engine.run_batch",)),
    "engine.hit_ratio": ("1", ("engine.run_batch",)),
    "engine.exhausted_ratio": ("1", ()),
    "cli.import_s": ("s", ()),
    "cli.report_s": ("s", ("cli.build_report",)),
    "trace.overhead_ratio": ("1", ()),
}


def _op_layers(rows):
    """Per-layer values of one traced op from its span rows (missing rows read 0)."""

    def seconds(*names):
        return sum(rows[n][1] for n in names) / 1e9

    batches = rows["engine.run_batch"][3]
    main = [b for b in batches if b["phase"] == engine.PHASE_FINAL]
    main_cycles = sum(b["n_cycles"] for b in main)
    eval_rows = sum(i["rows"] for i in rows["tree.batch_top_times"][3])
    return {
        "tree.eval_s": seconds("tree.batch_top_times"),
        "tree.eval_rows": eval_rows,
        "tree.eval_ns_per_row": seconds("tree.batch_top_times") * 1e9 / eval_rows if eval_rows else 0.0,
        "distributions.quantile_s": seconds("distributions.quantile"),
        "distributions.weight_s": seconds("distributions.log_density_ratio", "distributions.log_survival_ratio"),
        "distributions.solve_calls": rows["distributions.solve_reference"][0],
        "distributions.bisect_calls": rows["distributions.solve_reference_bisect"][0],
        "distributions.bisect_s": seconds("distributions.solve_reference_bisect"),
        "engine.search_s": seconds("engine.select_reference"),
        "engine.search_iterations": len(batches) - len(main),
        "engine.pilot_cycles": sum(b["n_cycles"] for b in batches) - main_cycles,
        "engine.refmodel_self_s": rows["engine.build_reference_model"][2] / 1e9,
        "engine.main_s": sum(b["ns"] for b in main) / 1e9,
        "engine.main_cycles": main_cycles,
        "engine.batch_self_s": rows["engine.run_batch"][2] / 1e9,
        "engine.hit_ratio": sum(b["hits"] for b in main) / main_cycles if main_cycles else 0.0,
        "cli.report_s": seconds("cli.build_report", "cli.dumps_canonical"),
    }


def layer_metrics(text, tracer, ops, untraced, traced, out):
    by_op = tracing.per_op(tracer.spans)
    per_op = [_op_layers(by_op[op.index]) for op in traced]
    values = {
        name: (statistics.median_low if LAYER_METRICS[name][0] == "count" else statistics.median)(
            p[name] for p in per_op
        )
        for name in per_op[0]
    }

    for rep in range(LOAD_REPS):
        tracer.op = f"load{rep}"
        with tracer:
            tree.validate(parser.to_fault_tree(parser.parse(text)))
    loads = [by for op, by in tracing.per_op(tracer.spans).items() if str(op).startswith("load")]
    for span in ("parser.parse", "parser.to_fault_tree", "tree.validate"):
        if span not in tracer.absent:
            values[span + "_s"] = statistics.median(rows[span][1] / 1e9 for rows in loads)
    timed_import = "import time; t = time.perf_counter(); import dftmc.cli; print(time.perf_counter() - t)"
    values["cli.import_s"] = statistics.median(float(fresh_python("-c", timed_import)[1]) for _ in range(IMPORT_REPS))
    values["engine.exhausted_ratio"] = sum(op.outcome == "exhausted" for op in ops) / len(ops)
    values["trace.overhead_ratio"] = (
        statistics.median(op.seconds for op in traced) / statistics.median(op.seconds for op in untraced) - 1.0
    )
    if tracer.absent:
        out("absent hooks: " + ", ".join(tracer.absent))
    result = {}
    for name, (unit, sources) in LAYER_METRICS.items():
        absent = any(s in tracer.absent for s in sources)
        result[name] = (None if absent else values[name], unit)
    return result
