import dataclasses
import itertools
import math

import numpy as np
import pytest

from dftmc import BasicEvent, FaultTree, Gate, GateKind, ValidationError, eval_gate, top_time, validate
from dftmc.distributions import Exponential
from dftmc.tree import batch_top_times
from treegen import random_sample, random_tree

INF = math.inf


def be(name, mttf=10.0):
    return BasicEvent(name, Exponential(mttf))


# -- single-gate semantics ----------------------------------------------------


def test_or_and():
    assert eval_gate(GateKind.OR, [3.0, 1.0, 5.0]) == 1.0
    assert eval_gate(GateKind.AND, [3.0, 1.0, 5.0]) == 5.0
    assert eval_gate(GateKind.OR, [INF, 2.0]) == 2.0
    assert eval_gate(GateKind.AND, [INF, 2.0]) == INF


def test_pand_ordered_and_not():
    assert eval_gate(GateKind.PAND, [1.0, 2.0, 3.0]) == 3.0
    assert eval_gate(GateKind.PAND, [2.0, 1.0]) == INF


def test_pand_ties_pass():
    assert eval_gate(GateKind.PAND, [1.0, 1.0]) == 1.0
    assert eval_gate(GateKind.PAND, [2.0, 2.0, 3.0]) == 3.0
    assert eval_gate(GateKind.PAND, [INF, INF]) == INF


def test_seq_sums():
    assert eval_gate(GateKind.SEQ, [1.0, 2.0, 3.0]) == 6.0
    assert eval_gate(GateKind.SEQ, [1.0, INF]) == INF


def test_spare_both_branches():
    assert eval_gate(GateKind.SPARE, [2.0, 0.9], dormancy=0.5) == 2.0
    assert eval_gate(GateKind.SPARE, [2.0, 1.5], dormancy=0.5) == 0.5 * 2.0 + 1.5


def test_spare_boundary_takes_else_branch():
    # z2 exactly at the dormancy threshold
    a, z1 = 0.4, 5.0
    z2 = a * z1
    assert eval_gate(GateKind.SPARE, [z1, z2], dormancy=a) == (1.0 - a) * z1 + z2


def test_spare_infinite_primary():
    assert eval_gate(GateKind.SPARE, [INF, 3.0], dormancy=1.0) == INF
    assert eval_gate(GateKind.SPARE, [INF, INF], dormancy=1.0) == INF
    assert eval_gate(GateKind.SPARE, [INF, 3.0], dormancy=0.0) == INF
    assert eval_gate(GateKind.SPARE, [INF, 3.0], dormancy=0.5) == INF


def test_voting_is_order_statistic_and_matches_expansion():
    values = [3.0, 1.0, 5.0]
    assert eval_gate(GateKind.VOTING, values, k=2) == 3.0
    # or over all k-subsets of and; brute force expansion
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(1, m + 1))
        vals = list(rng.exponential(1.0, m))
        expansion = min(max(c) for c in itertools.combinations(vals, k))
        assert eval_gate(GateKind.VOTING, vals, k=k) == expansion


def test_gate_identities_randomized():
    rng = np.random.default_rng(5)
    for _ in range(500):
        z = [float(x) for x in random_sample(rng, 4)]
        assert eval_gate(GateKind.SPARE, z[:2], dormancy=1.0) == eval_gate(GateKind.AND, z[:2])
        assert eval_gate(GateKind.SPARE, z[:2], dormancy=0.0) == eval_gate(GateKind.SEQ, z[:2])
        assert eval_gate(GateKind.VOTING, z, k=1) == eval_gate(GateKind.OR, z)
        assert eval_gate(GateKind.VOTING, z, k=4) == eval_gate(GateKind.AND, z)


# -- validation ---------------------------------------------------------------


def overlap_nodes():
    return (
        be("B1", 1000.0),
        be("B2", 2000.0),
        be("B3", 3000.0),
        be("B4", 4000.0),
        Gate("A", GateKind.AND, ("B1", "B2", "B3")),
        Gate("B", GateKind.AND, ("B2", "B3", "B4")),
        Gate("TOP", GateKind.PAND, ("A", "B")),
    )


def test_validate_overlap_shape():
    tree = FaultTree(overlap_nodes(), top="TOP")
    assert [g.name for g in tree.gate_order] == ["A", "B", "TOP"]
    assert [b.name for b in tree.basic_events] == ["B1", "B2", "B3", "B4"]
    # checking again is harmless and hands back the same tree
    assert validate(tree) is tree
    assert [g.name for g in tree.gate_order] == ["A", "B", "TOP"]


def test_tree_cannot_be_changed_after_it_is_built():
    tree = FaultTree((be("X"), be("Y"), Gate("G", GateKind.AND, ("X", "Y"))), top="G")
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.nodes = (be("X"), be("Y"), Gate("G", GateKind.OR, ("X", "Y")))
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.top = "X"
    assert top_time(tree, [1.0, 2.0]) == 2.0


def test_validate_cycle_names_cycle():
    nodes = (
        be("X"),
        Gate("G1", GateKind.OR, ("G2", "X")),
        Gate("G2", GateKind.OR, ("G1", "X")),
    )
    with pytest.raises(ValidationError, match="cycle"):
        FaultTree(nodes, top="G1")


def test_validate_self_cycle():
    nodes = (be("X"), Gate("G", GateKind.AND, ("G", "X")))
    with pytest.raises(ValidationError, match="cycle detected: G -> G"):
        FaultTree(nodes, top="G")


def test_validate_spare_arity():
    nodes = (be("X"), be("Y"), be("Z"), Gate("G", GateKind.SPARE, ("X", "Y", "Z"), dormancy=0.5))
    with pytest.raises(ValidationError, match="exactly 2"):
        FaultTree(nodes, top="G")


def test_validate_small_arity():
    nodes = (be("X"), Gate("G", GateKind.AND, ("X",)))
    with pytest.raises(ValidationError, match="at least 2"):
        FaultTree(nodes, top="G")


def test_validate_voting_threshold_range():
    nodes = (be("X"), be("Y"), Gate("G", GateKind.VOTING, ("X", "Y"), k=3))
    with pytest.raises(ValidationError, match="out of range"):
        FaultTree(nodes, top="G")


def test_validate_dormancy_range():
    nodes = (be("X"), be("Y"), Gate("G", GateKind.SPARE, ("X", "Y"), dormancy=1.5))
    with pytest.raises(ValidationError, match="dormancy"):
        FaultTree(nodes, top="G")


def test_validate_duplicate_names():
    nodes = (be("X"), be("X"), Gate("G", GateKind.AND, ("X", "X")))
    with pytest.raises(ValidationError, match="duplicate"):
        FaultTree(nodes, top="G")


def test_validate_undeclared_child():
    nodes = (be("X"), Gate("G", GateKind.AND, ("X", "NOPE")))
    with pytest.raises(ValidationError, match="undeclared child NOPE"):
        FaultTree(nodes, top="G")


def test_validate_unreachable():
    nodes = (be("X"), be("Y"), be("Z"), Gate("G", GateKind.AND, ("X", "Y")))
    with pytest.raises(ValidationError, match="unreachable.*Z"):
        FaultTree(nodes, top="G")


def test_validate_missing_top():
    with pytest.raises(ValidationError, match="top"):
        FaultTree((be("X"),), top="NOPE")


# -- whole-tree evaluation ----------------------------------------------------


def test_top_time_overlap_examples():
    tree = FaultTree(overlap_nodes(), top="TOP")
    # A = max(.1,.2,.3) = .3, B = max(.2,.3,.4) = .4, ordered: TOP = .4
    assert top_time(tree, [0.1, 0.2, 0.3, 0.4]) == 0.4
    # A = .5 > B = .4: order violated
    assert top_time(tree, [0.5, 0.2, 0.3, 0.4]) == INF


def test_top_time_single_event():
    tree = FaultTree((be("X"),), top="X")
    assert top_time(tree, [2.5]) == 2.5


def test_top_time_checks_length():
    tree = FaultTree(overlap_nodes(), top="TOP")
    with pytest.raises(ValueError, match="4 basic events"):
        top_time(tree, [1.0, 2.0])


def test_shared_subtree_equals_expanded_tree():
    shared = FaultTree(overlap_nodes(), top="TOP")
    expanded = FaultTree(
        (
            be("B1", 1000.0),
            be("B2", 2000.0),
            be("B3", 3000.0),
            be("B2x", 2000.0),
            be("B3x", 3000.0),
            be("B4", 4000.0),
            Gate("A", GateKind.AND, ("B1", "B2", "B3")),
            Gate("B", GateKind.AND, ("B2x", "B3x", "B4")),
            Gate("TOP", GateKind.PAND, ("A", "B")),
        ),
        top="TOP",
    )
    rng = np.random.default_rng(17)
    for _ in range(300):
        x = random_sample(rng, 4)
        dup = [x[0], x[1], x[2], x[1], x[2], x[3]]
        assert top_time(shared, x) == top_time(expanded, dup)


def test_batch_matches_scalar_on_random_trees():
    rng = np.random.default_rng(23)
    for _ in range(40):
        tree = random_tree(rng, int(rng.integers(2, 8)))
        n = len(tree.basic_events)
        times = np.column_stack([random_sample(rng, 64) for _ in range(n)])
        batch = batch_top_times(tree, times)
        for j in range(times.shape[0]):
            assert batch[j] == top_time(tree, times[j])


def test_batch_vote_and_spare_match_scalar_in_both_layouts():
    # a vote gate of every arity 1..6 and every threshold, and a spare gate
    # at both dormancy endpoints (which the batch path splits out) and one
    # inside, over inputs drawn from a few values so ties, zeros and inf
    # are common
    rng = np.random.default_rng(37)
    pool = np.array([0.0, 0.0, 0.25, 1.0, 1.0, 2.5, INF, INF])

    def draw(arity):
        times = pool[rng.integers(0, len(pool), size=(300, arity))]
        times[::3] = rng.exponential(1.0, size=times[::3].shape)
        return times

    def check(names, gate, times):
        tree = FaultTree(tuple(be(n) for n in names) + (gate,), top="TOP")
        by_row = batch_top_times(tree, times)
        by_col = batch_top_times(tree, np.asfortranarray(times))
        assert np.array_equal(by_row, by_col)
        for j in range(times.shape[0]):
            assert by_row[j] == top_time(tree, times[j])

    for arity in range(1, 7):
        names = tuple(f"E{i}" for i in range(arity))
        times = draw(arity)
        for k in range(1, arity + 1):
            check(names, Gate("TOP", GateKind.VOTING, names, k=k), times)
    times = draw(2)
    for a in (0.0, 0.5, 1.0):
        check(("E0", "E1"), Gate("TOP", GateKind.SPARE, ("E0", "E1"), dormancy=a), times)


# -- propagation properties ---------------------------------------------------


def test_truncation_insensitivity_randomized():
    # outcomes below the horizon depend only on the sub-horizon times;
    # outcomes at or past it stay at or past it under any tail rewrite
    rng = np.random.default_rng(29)
    horizon = 1.0
    checked_below = 0
    for _ in range(150):
        tree = random_tree(rng, int(rng.integers(2, 7)))
        n = len(tree.basic_events)
        for _ in range(20):
            x = rng.exponential(1.0, n)
            x[rng.random(n) < 0.15] = INF
            before = top_time(tree, x)
            # rewrite every tail entry to some other value >= horizon
            replacement = horizon + rng.exponential(5.0, n)
            replacement[rng.random(n) < 0.3] = INF
            y = np.where(x >= horizon, replacement, x)
            after = top_time(tree, y)
            if before < horizon:
                assert after == before
                checked_below += 1
            else:
                assert after >= horizon
    assert checked_below > 50


MONOTONE_KINDS = (GateKind.AND, GateKind.OR, GateKind.VOTING, GateKind.SEQ, GateKind.SPARE)


def test_monotone_gates_never_decrease():
    rng = np.random.default_rng(31)
    for kind in MONOTONE_KINDS:
        for _ in range(500):
            arity = 2 if kind is GateKind.SPARE else int(rng.integers(2, 5))
            z = [float(v) for v in random_sample(rng, arity)]
            k = int(rng.integers(1, arity + 1)) if kind is GateKind.VOTING else None
            a = float(rng.uniform(0.0, 1.0)) if kind is GateKind.SPARE else None
            base = eval_gate(kind, z, k=k, dormancy=a)
            i = int(rng.integers(0, arity))
            bumped = list(z)
            bumped[i] = bumped[i] + float(rng.exponential(1.0)) if math.isfinite(bumped[i]) else INF
            assert eval_gate(kind, bumped, k=k, dormancy=a) >= base


def test_pand_is_not_monotone():
    # restoring the failure order by delaying a late input can pull the
    # output down from "never" to a finite time; inherent to priority-and
    assert eval_gate(GateKind.PAND, [1.0, 3.0, 2.0]) == INF
    assert eval_gate(GateKind.PAND, [1.0, 3.0, 3.0]) == 3.0
