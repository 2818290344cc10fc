from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybag import circuit
from cybag.circuit import (
    Instantiation,
    enumerate_first_hits,
    instantiation_at,
    reachability_exact,
)
from cybag.classify import (
    CLASSIFY_ENUM_LIMIT,
    CycleReport,
    CycleType,
    classify_all,
    classify_cycle,
    classify_cycles,
    closing_edge,
    first_hit,
)
from cybag.errors import TargetRequiredError, TooLargeError, UnknownNodeError
from cybag.formats import load_fixture
from cybag.graph import AttackGraph, CyclePath, Node, NodeKind, find_cycles

from conftest import attack_graphs


def hits_by_node(g, inst):
    return {fh.node: fh.k_star_i for fh in first_hit(g, inst)}


def test_first_hit_hand_simulation(fig5):
    hits = hits_by_node(fig5, Instantiation({0: 1, 1: 1, 2: 1}))
    assert hits == {0: 1, 1: 1, 2: 2}


def test_first_hit_nothing_fires(fig5):
    hits = hits_by_node(fig5, Instantiation({0: 0, 1: 0, 2: 0}))
    assert hits == {0: None, 1: None, 2: None}


def test_first_hit_single_leaf():
    g = AttackGraph([Node(0, NodeKind.LEAF, "", 0.5)], [])
    assert hits_by_node(g, Instantiation({0: 1})) == {0: 1}


def test_first_hit_rejects_mismatched_domain(fig5):
    with pytest.raises(ValueError):
        first_hit(fig5, Instantiation({0: 1}))


def test_instantiation_at_follows_enumeration_order():
    # bit j of the index drives the j-th fractional input; 0 and 1 stay pinned
    probs = {0: 0.5, 1: 1.0, 2: 0.0, 3: 0.25}
    g = AttackGraph([Node(v, NodeKind.LEAF, "", p) for v, p in probs.items()], [])
    assert instantiation_at(g, 0).bits == {0: 0, 1: 1, 2: 0, 3: 0}
    assert instantiation_at(g, 2).bits == {0: 0, 1: 1, 2: 0, 3: 1}
    assert instantiation_at(g, 3).bits == {0: 1, 1: 1, 2: 0, 3: 1}


def test_type1_fixture():
    g = load_fixture("type1.json")
    (cycle,) = find_cycles(g)
    report = classify_cycle(g, cycle)
    assert report.cycle_type is CycleType.TYPE1
    assert report.witness is None
    # circuit sanity: the starved And node is dead under every instantiation
    for v in cycle.node_set:
        assert reachability_exact(g, v).probability == 0.0


def test_type2_fixture():
    g = load_fixture("type2.json")
    (cycle,) = find_cycles(g)
    report = classify_cycle(g, cycle, target=3)
    assert report.cycle_type is CycleType.TYPE2
    assert report.target == 3
    assert report.witness is None


def test_type3_fixture_with_witness():
    g = load_fixture("type3.json")
    (cycle,) = find_cycles(g)
    report = classify_cycle(g, cycle, target=3)
    assert report.cycle_type is CycleType.TYPE3
    inst, node_j, k = report.witness
    assert node_j in cycle.node_set
    # replay the witness: the cycle node is on at tick k, one before the
    # target's first hit
    hits = hits_by_node(g, inst)
    assert hits[node_j] is not None and hits[node_j] <= k
    assert hits[3] == k + 1


def test_target_required_for_live_cycle():
    g = load_fixture("type2.json")
    (cycle,) = find_cycles(g)
    with pytest.raises(TargetRequiredError):
        classify_cycle(g, cycle, target=None)


def test_classification_size_limit():
    # 21 fractional leaves feed the Or cycle 21 <-> 22, which can fire, so
    # the Type 2/3 split needs the enumeration
    leaves = [Node(v, NodeKind.LEAF, "", 0.5) for v in range(21)]
    ors = [Node(v, NodeKind.OR, "", 1.0) for v in (21, 22)]
    g = AttackGraph(
        leaves + ors,
        [(v, 21) for v in range(21)] + [(21, 22), (22, 21)],
    )
    (cycle,) = find_cycles(g)
    with pytest.raises(TooLargeError):
        classify_cycle(g, cycle, target=22)


def test_classify_all_acyclic_is_empty(fig5):
    assert classify_all(fig5, target=2) == []


def test_classify_all_running_example():
    g = load_fixture("running-example.json")
    reports = classify_all(g, target=14)
    assert len(reports) == 1
    assert reports[0].cycle_type is CycleType.TYPE3
    assert reports[0].witness is not None


def test_classify_all_type1():
    g = load_fixture("type1.json")
    reports = classify_all(g, target=3)
    assert [r.cycle_type for r in reports] == [CycleType.TYPE1]


def test_classify_all_self_loops():
    # leaf 0 feeds the Or self-loop 1 and the And self-loop 2; the target
    # 3 is an Or fed by 1
    nodes = [
        Node(0, NodeKind.LEAF, "", 0.5),
        Node(1, NodeKind.OR, "", 1.0),
        Node(2, NodeKind.AND, "", 1.0),
        Node(3, NodeKind.OR, "", 1.0),
    ]
    g = AttackGraph(nodes, [(0, 1), (1, 1), (0, 2), (2, 2), (1, 3)])
    or_loop, and_loop = classify_all(g, target=3)
    assert or_loop.cycle.nodes == (1, 1) and and_loop.cycle.nodes == (2, 2)
    assert and_loop.cycle_type is CycleType.TYPE1
    assert or_loop.cycle_type is CycleType.TYPE3
    # ticks: leaf 0 fires at 1, node 1 at 2, the target at 3
    assert or_loop.witness == (Instantiation({0: 1, 1: 1, 2: 1, 3: 1}), 1, 2)
    assert closing_edge(g, or_loop.cycle) == (1, 1)
    assert closing_edge(g, and_loop.cycle) == (2, 2)


def test_classification_deterministic():
    g = load_fixture("type3.json")
    (cycle,) = find_cycles(g)
    a = classify_cycle(g, cycle, target=3)
    b = classify_cycle(g, cycle, target=3)
    assert a == b


def test_closing_edge_choice():
    g2 = load_fixture("type2.json")
    (c2,) = find_cycles(g2)
    assert closing_edge(g2, c2) == (6, 3)
    g3 = load_fixture("type3.json")
    (c3,) = find_cycles(g3)
    assert closing_edge(g3, c3) == (6, 3)


def test_closing_edge_rejects_a_cycle_not_in_the_graph():
    g = load_fixture("type2.json")
    with pytest.raises(UnknownNodeError, match="node 90 is not in the graph"):
        closing_edge(g, CyclePath((90, 91, 90)))


def test_removing_type2_closing_edge_is_neutral():
    g = load_fixture("type2.json")
    (cycle,) = find_cycles(g)
    edge = closing_edge(g, cycle)
    before = reachability_exact(g, 3).probability
    after = reachability_exact(g.without_edge(*edge), 3).probability
    assert after == pytest.approx(before, abs=1e-12)


def test_removing_type3_closing_edge_changes_reachability():
    g = load_fixture("type3.json")
    (cycle,) = find_cycles(g)
    edge = closing_edge(g, cycle)
    before = reachability_exact(g, 3).probability
    after = reachability_exact(g.without_edge(*edge), 3).probability
    assert abs(after - before) > 1e-6


def three_cycles():
    """Or nodes 4, 5, 6 on three simple cycles, fed by fractional leaves."""
    leaves = [Node(v, NodeKind.LEAF, "", 0.3 + 0.1 * v) for v in range(4)]
    ors = [Node(v, NodeKind.OR, "", 0.9) for v in (4, 5, 6)]
    edges = [(0, 4), (1, 5), (2, 6), (3, 6), (4, 5), (5, 4), (5, 6), (6, 5), (6, 4)]
    return AttackGraph(leaves + ors, edges)


def count_engine_calls(monkeypatch):
    calls = []
    engine = circuit._evaluate

    def counted(c, cells):
        calls.append(cells.shape[1])
        return engine(c, cells)

    monkeypatch.setattr(circuit, "_evaluate", counted)
    return calls


def test_classify_all_runs_the_engine_once_per_chunk(monkeypatch):
    calls = count_engine_calls(monkeypatch)
    classify_all(load_fixture("running-example.json"), target=14)
    assert len(calls) == 2
    g = three_cycles()
    assert len(find_cycles(g)) == 3
    calls.clear()
    classify_all(g, target=6)
    # one column for Type 1, then the enumeration for the Type 2/3 split
    assert calls == [1, 128]
    # 7 nodes with int8 ticks, 16 columns a chunk: all three witnesses
    # have index 98, so the enumeration stops after chunk 7 of 8
    monkeypatch.setattr(circuit, "CHUNK_BUDGET_BYTES", 7 * 16)
    calls.clear()
    reports = classify_all(g, target=6)
    assert [r.witness[0] for r in reports] == [instantiation_at(g, 98)] * 3
    assert calls == [1] + [16] * 7
    # without a target nothing is enumerated
    calls.clear()
    assert [r.cycle_type for r in classify_cycles(g, find_cycles(g))] == [None] * 3
    assert calls == [1]


def test_witnesses_and_reports_are_hashable():
    reports = classify_all(three_cycles(), target=6)
    assert len({r.witness for r in reports}) == 1
    assert len(set(reports)) == 3


@pytest.mark.parametrize("target", [4, 5, 6])
def test_batched_classification_matches_one_cycle_at_a_time(monkeypatch, target):
    g = three_cycles()
    cycles = find_cycles(g)
    batched = classify_cycles(g, cycles, target)
    assert batched == [classify_cycle(g, cyc, target) for cyc in cycles]
    assert any(r.cycle_type is CycleType.TYPE3 for r in batched)
    # witnesses stay the first in enumeration order when chunks are small
    monkeypatch.setattr(circuit, "CHUNK_BUDGET_BYTES", 7 * 2)
    assert classify_cycles(g, cycles, target) == batched


def test_classify_cycles_without_target():
    g1, g2 = load_fixture("type1.json"), load_fixture("type2.json")
    (r1,) = classify_cycles(g1, find_cycles(g1))
    assert r1.cycle_type is CycleType.TYPE1
    (r2,) = classify_cycles(g2, find_cycles(g2))
    assert r2.cycle_type is None and r2.witness is None


def reference_classify_cycles(graph, cycles, target=None):
    """Per-cycle classification over every instantiation: Type 1 from the
    first-hit ticks of the whole enumeration, the Type 3 witness from the
    first column where any cycle node beats the target."""
    d = graph.dense
    target_row = None if target is None else d.row(target)
    if not cycles:
        return []
    cycle_ids = [sorted(cycle.node_set) for cycle in cycles]
    cycle_rows = [[d.row(v) for v in ids] for ids in cycle_ids]
    never = len(d.ids) + 1
    ever_on = np.zeros(len(d.ids), dtype=bool)
    witnesses = [None] * len(cycles)
    for idx, hits in enumerate_first_hits(graph, CLASSIFY_ENUM_LIMIT):
        ever_on |= hits.min(axis=1) < never
        if target_row is None:
            continue
        th = hits[target_row]
        for k, (ids, rows) in enumerate(zip(cycle_ids, cycle_rows)):
            early = (th < never) & (hits[rows].min(axis=0) < th)
            if witnesses[k] is None and early.any():
                m = int(np.argmax(early))
                k_target = int(th[m])
                node_j = min(v for v, i in zip(ids, rows) if hits[i, m] < k_target)
                witnesses[k] = (instantiation_at(graph, int(idx[m])), node_j, k_target - 1)
    reports = []
    for cycle, rows, witness in zip(cycles, cycle_rows, witnesses):
        if not ever_on[rows].all():
            cycle_type = CycleType.TYPE1
        elif target is None:
            cycle_type = None
        else:
            cycle_type = CycleType.TYPE2 if witness is None else CycleType.TYPE3
        reports.append(
            CycleReport(
                cycle, cycle_type, target,
                witness if cycle_type is CycleType.TYPE3 else None,
            )
        )
    return reports


@st.composite
def cyclic_graphs(draw):
    """Graphs of up to 10 nodes, mostly Or, rich in cycles and in entries
    to them, with inputs at 0, 1 and in between, so that every cycle type
    and early witness shows up."""
    n_leaf = draw(st.integers(1, 3))
    n = n_leaf + draw(st.integers(2, 7))
    probs = st.sampled_from([0.5, 1.0, 0.25, 0.0])
    nodes = [Node(v, NodeKind.LEAF, "", draw(probs)) for v in range(n_leaf)]
    nodes += [
        Node(
            v,
            draw(st.sampled_from([NodeKind.OR, NodeKind.OR, NodeKind.AND])),
            "",
            draw(st.sampled_from([1.0, 0.5, 1.0, 0.5, 0.0])),
        )
        for v in range(n_leaf, n)
    ]
    fed = draw(st.sets(st.integers(n_leaf, n - 1), min_size=1))
    entries = [(v % n_leaf, v) for v in sorted(fed)]
    inner = [(u, v) for v in range(n_leaf, n) for u in range(n_leaf, n) if u != v]
    edges = draw(
        st.lists(st.sampled_from(inner), unique=True, min_size=n - n_leaf, max_size=2 * n)
    )
    return AttackGraph(nodes, entries + edges)


@settings(max_examples=200, deadline=None)
@given(st.one_of(attack_graphs(max_nodes=9), cyclic_graphs()))
def test_classify_cycles_matches_the_reference(g):
    cycles = find_cycles(g)
    for target in [None, *g.node_ids]:
        expected = reference_classify_cycles(g, cycles, target)
        assert classify_cycles(g, cycles, target) == expected
        # a few columns a chunk: the first early column of each row may
        # fall in any chunk
        with mock.patch.object(circuit, "CHUNK_BUDGET_BYTES", 64):
            assert classify_cycles(g, cycles, target) == expected
