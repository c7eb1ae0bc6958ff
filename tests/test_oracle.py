import math

import numpy as np
import pytest

from dftmc import BasicEvent, FaultTree, Gate, GateKind, RunConfig, estimate_top
from dftmc.distributions import Exponential, Normal
from dftmc.oracle import (
    TreeTooLargeError,
    UnsupportedTreeError,
    direct_rich,
    exact_static,
    match_pand_overlap,
    smallp_pand_overlap,
)
from conftest import fixed_d
from treegen import random_static_tree

MISSION = 1.0


def exp_with_p(p):
    return Exponential(-MISSION / math.log1p(-p))


def static_tree(events, gates, top):
    return FaultTree(tuple(events) + tuple(gates), top=top)


def test_exact_or_two():
    tree = static_tree(
        [BasicEvent("A", exp_with_p(0.1)), BasicEvent("B", exp_with_p(0.1))],
        [Gate("T", GateKind.OR, ("A", "B"))],
        "T",
    )
    result = exact_static(tree, MISSION)
    assert result.probability == pytest.approx(0.19, rel=1e-9)
    assert result.term_count == 4


@pytest.mark.parametrize("mission_time", [math.nan, -1.0, 0.0, math.inf])
def test_exact_refuses_mission_time_not_finite_and_positive(mission_time):
    tree = static_tree(
        [BasicEvent("A", exp_with_p(0.1)), BasicEvent("B", exp_with_p(0.1))],
        [Gate("T", GateKind.OR, ("A", "B"))],
        "T",
    )
    # no oracle may read such a time as a verdict: inf once gave direct_rich
    # a p_hat of 1, and nan one of 0
    message = "mission_time must be a finite positive number"
    with pytest.raises(ValueError, match=message):
        exact_static(tree, mission_time)
    with pytest.raises(ValueError, match=message):
        direct_rich(tree, mission_time, 100)
    with pytest.raises(ValueError, match=message):
        smallp_pand_overlap(mission_time, [1000.0, 2000.0, 3000.0, 4000.0])


def test_exact_and_two():
    tree = static_tree(
        [BasicEvent("A", exp_with_p(0.2)), BasicEvent("B", exp_with_p(0.3))],
        [Gate("T", GateKind.AND, ("A", "B"))],
        "T",
    )
    assert exact_static(tree, MISSION).probability == pytest.approx(0.06, rel=1e-9)


def test_exact_matches_inclusion_exclusion_three_gates():
    # T = or(and(A, B), C): p = pA*pB + pC - pA*pB*pC
    pa, pb, pc = 0.2, 0.25, 0.1
    tree = static_tree(
        [BasicEvent("A", exp_with_p(pa)), BasicEvent("B", exp_with_p(pb)), BasicEvent("C", exp_with_p(pc))],
        [Gate("G", GateKind.AND, ("A", "B")), Gate("T", GateKind.OR, ("G", "C"))],
        "T",
    )
    expected = pa * pb + pc - pa * pb * pc
    assert exact_static(tree, MISSION).probability == pytest.approx(expected, rel=1e-9)


def test_exact_matches_two_of_three_formula():
    p1, p2, p3 = 0.1, 0.2, 0.3
    tree = static_tree(
        [BasicEvent("A", exp_with_p(p1)), BasicEvent("B", exp_with_p(p2)), BasicEvent("C", exp_with_p(p3))],
        [Gate("T", GateKind.VOTING, ("A", "B", "C"), k=2)],
        "T",
    )
    expected = p1 * p2 + p1 * p3 + p2 * p3 - 2.0 * p1 * p2 * p3
    assert exact_static(tree, MISSION).probability == pytest.approx(expected, rel=1e-9)


def test_exact_with_shared_events():
    # T = or(and(A, B), and(B, C)): B in both cut sets
    pa = pb = pc = 0.2
    tree = static_tree(
        [BasicEvent("A", exp_with_p(pa)), BasicEvent("B", exp_with_p(pb)), BasicEvent("C", exp_with_p(pc))],
        [
            Gate("G1", GateKind.AND, ("A", "B")),
            Gate("G2", GateKind.AND, ("B", "C")),
            Gate("T", GateKind.OR, ("G1", "G2")),
        ],
        "T",
    )
    expected = pa * pb + pb * pc - pa * pb * pc
    assert exact_static(tree, MISSION).probability == pytest.approx(expected, rel=1e-9)


def test_exact_rejects_dynamic_gate():
    tree = static_tree(
        [BasicEvent("A", exp_with_p(0.1)), BasicEvent("B", exp_with_p(0.1))],
        [Gate("T", GateKind.PAND, ("A", "B"))],
        "T",
    )
    with pytest.raises(UnsupportedTreeError, match="pand"):
        exact_static(tree, MISSION)


def test_exact_rejects_oversized_tree():
    events = [BasicEvent(f"E{i}", exp_with_p(0.1)) for i in range(21)]
    tree = static_tree(events, [Gate("T", GateKind.OR, tuple(e.name for e in events))], "T")
    with pytest.raises(TreeTooLargeError):
        exact_static(tree, MISSION)


def test_exact_agrees_with_direct_mc():
    rng = np.random.default_rng(8)
    tree = random_static_tree(rng, 8)
    exact = exact_static(tree, MISSION).probability
    p_hat, std_err = direct_rich(tree, MISSION, 100_000, seed=1)
    assert abs(p_hat - exact) <= 4 * max(std_err, 1e-12)


# -- small-p closed form ------------------------------------------------------


def test_smallp_demo_value():
    value = smallp_pand_overlap(MISSION, (1000.0, 2000.0, 3000.0, 4000.0))
    expected = 0.75 * math.prod(-math.expm1(-1.0 / (1000.0 * i)) for i in (1, 2, 3, 4))
    assert value == expected
    assert value == pytest.approx(3.122e-14, rel=1e-3)


def test_smallp_symmetric_case():
    p = -math.expm1(-MISSION / 500.0)
    assert smallp_pand_overlap(MISSION, (500.0,) * 4) == pytest.approx(0.75 * p**4, rel=1e-12)


def test_smallp_scales_like_inverse_sixteenth():
    base = smallp_pand_overlap(MISSION, (1000.0, 2000.0, 3000.0, 4000.0))
    doubled = smallp_pand_overlap(MISSION, (2000.0, 4000.0, 6000.0, 8000.0))
    assert base / doubled == pytest.approx(16.0, rel=1e-2)


def test_smallp_agrees_with_importance_estimate():
    # non-rare rescale with per-event failure probability near 0.05; the
    # engine pins the true value far more tightly than plain simulation can
    u = -MISSION / math.log1p(-0.05)
    mttfs = (u, 1.05 * u, 1.1 * u, 1.15 * u)
    tree = FaultTree(
        (
            BasicEvent("E1", Exponential(mttfs[0])),
            BasicEvent("E2", Exponential(mttfs[1])),
            BasicEvent("E3", Exponential(mttfs[2])),
            BasicEvent("E4", Exponential(mttfs[3])),
            Gate("A", GateKind.AND, ("E1", "E2", "E3")),
            Gate("B", GateKind.AND, ("E2", "E3", "E4")),
            Gate("T", GateKind.PAND, ("A", "B")),
        ),
        top="T",
    )
    approx = smallp_pand_overlap(MISSION, mttfs)
    est = estimate_top(tree, RunConfig(mission_time=MISSION, seed=3, cycles=200_000))
    assert abs(approx - est.p_hat) <= 0.05 * approx + 4 * est.std_err


# -- plain Monte-Carlo --------------------------------------------------------


def test_direct_rich_coin_flip():
    tree = FaultTree((BasicEvent("X", exp_with_p(0.5)),), top="X")
    p_hat, std_err = direct_rich(tree, MISSION, 100_000, seed=4)
    assert p_hat == pytest.approx(0.5, abs=0.01)
    assert std_err == pytest.approx(math.sqrt(0.25 / 100_000), rel=0.05)


def test_direct_rich_rejects_zero_cycles(overlap_tree):
    with pytest.raises(ValueError, match="insufficient cycles"):
        direct_rich(overlap_tree, MISSION, 0)


def test_direct_rich_agrees_with_engine_on_rescaled_overlap():
    # mttf = 2i makes every event likely to fail within the mission
    tree = FaultTree(
        (
            BasicEvent("E1", Exponential(2.0)),
            BasicEvent("E2", Exponential(4.0)),
            BasicEvent("E3", Exponential(6.0)),
            BasicEvent("E4", Exponential(8.0)),
            Gate("A", GateKind.AND, ("E1", "E2", "E3")),
            Gate("B", GateKind.AND, ("E2", "E3", "E4")),
            Gate("T", GateKind.PAND, ("A", "B")),
        ),
        top="T",
    )
    p_dir, se_dir = direct_rich(tree, MISSION, 50_000, seed=6)
    with fixed_d(2.0):
        est = estimate_top(tree, RunConfig(mission_time=MISSION, seed=7, cycles=50_000))
    assert abs(p_dir - est.p_hat) <= 4 * math.hypot(se_dir, est.std_err)


def test_direct_rich_redraws_normal_times_below_zero():
    # Normal(1, 1) puts 16% of its mass below 0, where the law is truncated:
    # counting those draws as hits would read 0.5, not the truncated F(T)
    phi = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    exact = (phi(0.0) - phi(-1.0)) / (1.0 - phi(-1.0))
    tree = FaultTree((BasicEvent("X", Normal(1.0, 1.0)),), top="X")
    p_hat, std_err = direct_rich(tree, MISSION, 40_000, seed=3)
    assert abs(p_hat - exact) <= 4 * std_err


def test_direct_rich_handles_all_families():
    rng = np.random.default_rng(12)
    tree = random_static_tree(rng, 6, p_low=0.05, p_high=0.4)
    exact = exact_static(tree, MISSION).probability
    p_hat, std_err = direct_rich(tree, MISSION, 40_000, seed=2)
    assert abs(p_hat - exact) <= 4 * max(std_err, 1e-12)


# -- shape matching -----------------------------------------------------------


def test_match_overlap_shape(overlap_tree):
    assert match_pand_overlap(overlap_tree) == (1000.0, 2000.0, 3000.0, 4000.0)


def test_match_rejects_other_shapes(static_or2_tree, impossible_tree):
    assert match_pand_overlap(static_or2_tree) is None
    assert match_pand_overlap(impossible_tree) is None
    events = [BasicEvent(f"E{i}", Exponential(1000.0 * i)) for i in range(1, 6)]
    # the and-gates do not share their middle events, then a name repeats
    for right in (("E5", "E3", "E4"), ("E2", "E3", "E1")):
        gates = (
            Gate("A", GateKind.AND, ("E1", "E2", "E3")),
            Gate("B", GateKind.AND, right),
            Gate("TOP", GateKind.PAND, ("A", "B")),
        )
        used = {"E1", "E2", "E3", *right}
        tree = static_tree([e for e in events if e.name in used], gates, "TOP")
        assert match_pand_overlap(tree) is None
