"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.

Criterion 6's monotonicity check bumps one input of random gates and
compares outputs.  The five coherent kinds (and, or, vote, seq, spare) must
never lower their output.  Priority-and is order-sensitive and so not
monotone; for it the check asserts the exact property it has: outputs are
``max(z)`` or ``inf``, bumping the first input never lowers the output, and
every lowering is an order-restoring bump (``inf`` down to the max of a
now non-decreasing input vector).  See docs/design-notes.md.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from dftmc import GateKind, RunConfig, estimate_top, eval_gate
from dftmc.cli import dumps_canonical, main
from dftmc.distributions import Exponential, LogNormal, Normal, Weibull, scale, solve_reference, solve_reference_bisect
from dftmc.engine import build_reference_model, log_weights, sample_times, _stream, _stream_base
from dftmc.oracle import exact_static, smallp_pand_overlap
from dftmc.tree import top_time
from conftest import worker_count
from treegen import random_sample, random_static_tree, random_tree

MISSION = 1.0
PUBLISHED_P = 3.2e-14
PUBLISHED_STD = 4.9e-16
N_SEEDS = 20


def report(number, name, ok, detail=""):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def reference_runs(overlap_tree):
    """Twenty full runs at defaults, with per-run wall-clock seconds."""
    runs = []
    for seed in range(N_SEEDS):
        started = time.perf_counter()
        est = estimate_top(overlap_tree, RunConfig(mission_time=MISSION, seed=seed))
        runs.append((est, time.perf_counter() - started))
    return runs


def test_criterion_1_overlap_reproduction(reference_runs):
    accepted = sum(
        1
        for est, _ in reference_runs
        if est.method == "importance" and 1.5 <= est.reference.d <= 3.0
    )
    in_band = sum(1 for est, _ in reference_runs if 2.6e-14 <= est.p_hat <= 3.8e-14)
    std_ok = sum(
        1 for est, _ in reference_runs if PUBLISHED_STD / 3 <= est.std_err <= PUBLISHED_STD * 3
    )
    slowest = max(wall for _, wall in reference_runs)
    ok = (
        accepted >= 0.9 * N_SEEDS
        and in_band >= 0.9 * N_SEEDS
        and std_ok >= 0.9 * N_SEEDS
        and slowest < 60.0
    )
    report(
        1,
        "four-event overlap reproduction",
        ok,
        f"accepted d in [1.5,3.0] {accepted}/{N_SEEDS}, p_hat in [2.6e-14,3.8e-14] "
        f"{in_band}/{N_SEEDS}, std_err within 3x of {PUBLISHED_STD} {std_ok}/{N_SEEDS}, "
        f"slowest run {slowest:.2f}s",
    )


def test_criterion_2_independent_oracle(reference_runs):
    closed_form = 0.75 * math.prod(
        -math.expm1(-MISSION / (1000.0 * i)) for i in (1, 2, 3, 4)
    )
    assert smallp_pand_overlap(MISSION, (1000.0, 2000.0, 3000.0, 4000.0)) == closed_form
    covered = sum(
        1 for est, _ in reference_runs if abs(est.p_hat - closed_form) <= 4 * est.std_err
    )
    report(
        2,
        "closed-form value inside p_hat +- 4 std_err",
        covered >= 0.9 * N_SEEDS,
        f"value {closed_form:.4e} covered for {covered}/{N_SEEDS} seeds",
    )


def test_criterion_3_direct_mirror(overlap_tree):
    config = RunConfig(mission_time=MISSION, method="direct", cycles=1_000_000, seed=0)
    est = estimate_top(overlap_tree, config)
    report(
        3,
        "direct simulation at 1e6 cycles sees nothing",
        est.hits == 0 and est.p_hat == 0.0,
        f"hits={est.hits}",
    )


def test_criterion_4_static_oracle_equivalence():
    rng = np.random.default_rng(404)
    agree = total = 0
    for _ in range(50):
        tree = random_static_tree(rng, int(rng.integers(2, 11)))
        exact = exact_static(tree, MISSION).probability
        seed = int(rng.integers(0, 2**32))
        est = estimate_top(tree, RunConfig(mission_time=MISSION, seed=seed))
        total += 1
        if abs(est.p_hat - exact) <= 4 * max(est.std_err, 1e-300):
            agree += 1
    report(
        4,
        "engine matches exact enumeration on random static trees",
        agree >= 0.95 * total,
        f"{agree}/{total} within 4 std_err",
    )


def test_criterion_5_weight_identities():
    rng = np.random.default_rng(505)
    # (a) unit weights when the reference laws equal the base laws
    exact_ones = 0
    checks = 0
    while checks < 10_000:
        tree = random_tree(rng, int(rng.integers(2, 6)))
        model = build_reference_model(tree, 1.0, MISSION)
        gen = _stream(_stream_base(int(rng.integers(0, 2**32)), 0), 0)
        rows = min(200, 10_000 - checks)
        times = sample_times(model, gen, np.empty((len(model.refs), rows)))
        exact_ones += int(np.count_nonzero(np.exp(log_weights(model, times, MISSION, np.ones(rows, bool))) == 1.0))
        checks += rows
    # (b) a tail factor always equals the drop parameter
    factories = (
        lambda: Exponential(float(rng.uniform(0.5, 2000.0))),
        lambda: Weibull(float(rng.uniform(0.5, 2000.0)), float(rng.uniform(0.5, 4.0))),
        lambda: LogNormal(float(rng.uniform(-1.0, 6.0)), float(rng.uniform(0.3, 2.0))),
        lambda: (lambda m: Normal(m, m * float(rng.uniform(0.05, 0.4))))(float(rng.uniform(1.0, 50.0))),
    )
    tail_ok = 0
    for i in range(10_000):
        dist = factories[i % 4]()
        d = float(rng.uniform(1.0, 200.0))
        horizon = float(rng.uniform(0.05, 3.0)) * dist.scale
        ref = scale(dist, solve_reference(dist, d, horizon))
        factor = math.exp(ref.log_survival_ratio(horizon))
        if abs(factor - d) <= 1e-9 * d:
            tail_ok += 1
    report(
        5,
        "likelihood-ratio identities",
        exact_ones == 10_000 and tail_ok == 10_000,
        f"unit weights {exact_ones}/10000 exact, tail factors {tail_ok}/10000 within 1e-9",
    )


def test_criterion_6_gate_identities():
    rng = np.random.default_rng(606)
    failures = 0
    for _ in range(10_000):
        z = [float(v) for v in random_sample(rng, 4)]
        if eval_gate(GateKind.SPARE, z[:2], dormancy=1.0) != eval_gate(GateKind.AND, z[:2]):
            failures += 1
        if eval_gate(GateKind.SPARE, z[:2], dormancy=0.0) != eval_gate(GateKind.SEQ, z[:2]):
            failures += 1
        if eval_gate(GateKind.VOTING, z, k=1) != eval_gate(GateKind.OR, z):
            failures += 1
        if eval_gate(GateKind.VOTING, z, k=4) != eval_gate(GateKind.AND, z):
            failures += 1
    # tie handling: equal times still count as ordered
    ties_ok = (
        eval_gate(GateKind.PAND, [1.0, 1.0]) == 1.0
        and eval_gate(GateKind.PAND, [2.0, 2.0, 5.0]) == 5.0
        and eval_gate(GateKind.PAND, [2.0, 1.0]) == math.inf
        and eval_gate(GateKind.PAND, [math.inf, math.inf]) == math.inf
    )
    report(
        6,
        "gate identity suite (spare/vote equivalences, pand ties)",
        failures == 0 and ties_ok,
        f"{failures} identity violations in 40000 comparisons",
    )


def test_criterion_6_truncation_insensitivity():
    rng = np.random.default_rng(616)
    violations = 0
    cases = 0
    while cases < 10_000:
        tree = random_tree(rng, int(rng.integers(2, 7)))
        n = len(tree.basic_events)
        for _ in range(50):
            x = rng.exponential(1.0, n)
            x[rng.random(n) < 0.15] = math.inf
            before = top_time(tree, x)
            replacement = MISSION + rng.exponential(5.0, n)
            replacement[rng.random(n) < 0.3] = math.inf
            y = np.where(x >= MISSION, replacement, x)
            after = top_time(tree, y)
            if before < MISSION:
                if after != before:
                    violations += 1
            elif after < MISSION:
                violations += 1
            cases += 1
            if cases == 10_000:
                break
    report(
        6,
        "tail rewrites never disturb sub-horizon outcomes",
        violations == 0,
        f"{violations} violations in {cases} randomized cases",
    )


def _bump_cases(kind, rng, cases=10_000):
    """Yield ``(z, i, bumped, base, after)`` for random gates of ``kind``.

    ``bumped`` is ``z`` with input ``i`` delayed by an exponential amount
    (an infinite input stays infinite); ``base`` and ``after`` are the gate
    outputs before and after the bump.
    """
    for _ in range(cases):
        arity = 2 if kind is GateKind.SPARE else int(rng.integers(2, 5))
        z = [float(v) for v in random_sample(rng, arity)]
        k = int(rng.integers(1, arity + 1)) if kind is GateKind.VOTING else None
        a = float(rng.uniform(0.0, 1.0)) if kind is GateKind.SPARE else None
        base = eval_gate(kind, z, k=k, dormancy=a)
        i = int(rng.integers(0, arity))
        bumped = list(z)
        bumped[i] = bumped[i] + float(rng.exponential(1.0)) if math.isfinite(bumped[i]) else math.inf
        after = eval_gate(kind, bumped, k=k, dormancy=a)
        yield z, i, bumped, base, after


def _order_restoring(case):
    """True when a lowered pand output is explained by restored input order."""
    _, i, bumped, base, after = case
    ordered = all(x <= y for x, y in zip(bumped, bumped[1:]))
    return base == math.inf and i != 0 and ordered and after == max(bumped)


def test_criterion_6_monotonicity_all_kinds():
    """Coherent kinds never drop; priority-and drops only when order is restored.

    For and, or, vote, seq and spare, delaying any input never lowers the
    output: zero violations in 10 000 random bumps per kind.  Priority-and
    is not monotone (pand(1, 3, 2) = inf but pand(1, 3, 3) = 3), so for it
    the test asserts the exact property instead: (a) every output is
    ``max(z)`` or ``inf``; (b) bumping the first input never lowers the
    output; (c) every violation is an order-restoring bump of a later input
    (base ``inf``, bumped vector non-decreasing, new output its max); and
    (d) violations do occur.  See docs/design-notes.md.
    """
    rng = np.random.default_rng(626)
    kinds = (GateKind.AND, GateKind.OR, GateKind.VOTING, GateKind.SEQ, GateKind.SPARE, GateKind.PAND)
    cases = {kind: list(_bump_cases(kind, rng)) for kind in kinds}
    summary = {kind.value: sum(1 for *_, base, after in cases[kind] if after < base) for kind in kinds}
    coherent = {k: summary[k] for k in ("and", "or", "vote", "seq", "spare")}
    assert all(v == 0 for v in coherent.values()), (
        f"monotone gate kinds must have zero violations: {coherent}"
    )

    pand_cases = cases[GateKind.PAND]
    pand_violations = [c for c in pand_cases if c[4] < c[3]]
    wrong_element = [
        (vec, out)
        for z, _, bumped, base, after in pand_cases
        for vec, out in ((z, base), (bumped, after))
        if out not in (max(vec), math.inf)
    ]
    first_input_drops = [c for c in pand_violations if c[1] == 0]
    unexplained = [c for c in pand_violations if not _order_restoring(c)]
    counterexample = (
        eval_gate(GateKind.PAND, [1.0, 3.0, 2.0]) == math.inf
        and eval_gate(GateKind.PAND, [1.0, 3.0, 3.0]) == 3.0
    )
    report(
        6,
        "monotonicity: coherent kinds never drop, pand drops only on restored order",
        not wrong_element
        and not first_input_drops
        and not unexplained
        and bool(pand_violations)
        and counterexample,
        f"violations per kind: {summary}; pand (a) outputs not max(z) or inf: "
        f"{len(wrong_element)} {wrong_element[:1]}; (b) first-input drops: "
        f"{len(first_input_drops)} {first_input_drops[:1]}; (c) drops not "
        f"order-restoring: {len(unexplained)} {unexplained[:1]}; (d) drops seen: "
        f"{len(pand_violations)}, pand(1,3,2)=inf and pand(1,3,3)=3: {counterexample}",
    )


def test_criterion_7_reference_solver():
    rng = np.random.default_rng(707)
    closed_ok = residual_ok = 0
    for _ in range(1000):
        u = float(rng.uniform(0.5, 5000.0))
        b = float(rng.uniform(0.5, 4.0))
        d = float(rng.uniform(1.0, 1e5))
        horizon = float(rng.uniform(0.1, 10.0))
        dists = (
            Exponential(u),
            Weibull(u, b),
            LogNormal(math.log(u), float(rng.uniform(0.3, 2.0))),
            Normal(u, u * float(rng.uniform(0.05, 0.4))),
        )
        agree = good = 0
        for dist in dists:
            v = solve_reference(dist, d, horizon)
            if abs(v - solve_reference_bisect(dist, d, horizon)) <= 1e-9 * v:
                agree += 1
            g = dist.with_scale(v)
            ratio = math.exp(float(dist.log_sf(horizon)) - float(g.log_sf(horizon)))
            if abs(ratio - d) <= 1e-8 * d:
                good += 1
        if agree == 4:
            closed_ok += 1
        if good == 4:
            residual_ok += 1
    report(
        7,
        "closed forms vs generic solver",
        closed_ok == 1000 and residual_ok == 1000,
        f"closed-form agreement {closed_ok}/1000, survival residual {residual_ok}/1000",
    )


def test_criterion_8_determinism(overlap_path):
    def run(threads):
        buf = io.StringIO()
        with redirect_stdout(buf), worker_count(threads):
            code = main(
                [
                    "run",
                    str(overlap_path),
                    "--seed",
                    "7",
                    "--cycles",
                    "20000",
                    "--format",
                    "json",
                ]
            )
        assert code == 0
        parsed = json.loads(buf.getvalue())
        parsed.pop("wall_clock_seconds")
        return dumps_canonical(parsed)

    one = run(1)
    eight = run(8)
    repeat = run(1)
    ok = one == eight and one == repeat
    report(
        8,
        "byte-identical reports across thread counts and reruns",
        ok,
        f"1 vs 8 threads identical: {one == eight}, rerun identical: {one == repeat}",
    )
