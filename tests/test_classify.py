from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybag import circuit
from cybag.circuit import Instantiation, instantiation_at, reachability_exact
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

from conftest import attack_graphs, reference_run


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


def test_classify_all_runs_the_engine_once_per_chunk(monkeypatch, engine_runs):
    chunks, runs = engine_runs
    classify_all(load_fixture("running-example.json"), target=14)
    # the Type 1 column, one chunk and the witness
    assert len(chunks) == 1 and len(runs) == 3
    g = three_cycles()
    assert len(find_cycles(g)) == 3
    chunks.clear(), runs.clear()
    classify_all(g, target=6)
    # one column for Type 1, the enumeration for the Type 2/3 split in one
    # chunk, and one witness run per Type 3 cycle
    assert chunks == [128] and len(runs) == 1 + 1 + 3
    # 7 nodes at a byte a cell, 16 columns a chunk: all three witnesses
    # have index 98, so the enumeration stops after chunk 7 of 8
    monkeypatch.setattr(circuit, "CHUNK_BUDGET_BYTES", 7 * 16)
    chunks.clear(), runs.clear()
    reports = classify_all(g, target=6)
    assert [r.witness[0] for r in reports] == [instantiation_at(g, 98)] * 3
    assert chunks == [16] * 7 and len(runs) == 1 + 7 + 3
    # without a target nothing is enumerated
    chunks.clear(), runs.clear()
    assert [r.cycle_type for r in classify_cycles(g, find_cycles(g))] == [None] * 3
    assert chunks == [] and len(runs) == 1


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


def reference_hits(graph):
    """First-hit tick of every node (None for never) under every
    instantiation in enumeration order, from :func:`step` one instantiation
    at a time: bit j of the index drives the j-th fractional input in id
    order, and inputs of probability 0 or 1 stay pinned."""
    fractional = [v for v in graph.node_ids if 0.0 < graph.local_prob(v) < 1.0]
    assert len(fractional) <= CLASSIFY_ENUM_LIMIT
    runs = []
    for index in range(1 << len(fractional)):
        bits = {v: int(graph.local_prob(v) >= 1.0) for v in graph.node_ids}
        bits.update({v: index >> j & 1 for j, v in enumerate(fractional)})
        inst = Instantiation(bits)
        runs.append((inst, reference_run(graph, inst)[1]))
    return runs


def reference_classify_cycles(graph, cycles, target=None, runs=None):
    """Per-cycle classification over every instantiation, read off
    :func:`reference_hits`: Type 1 when a cycle node never fires, the Type 3
    witness from the first instantiation where a cycle node fires strictly
    before the target does."""
    runs = reference_hits(graph) if runs is None else runs
    reports = []
    for cycle in cycles:
        nodes = sorted(cycle.node_set)
        witness = None
        if not all(any(hits[v] is not None for _, hits in runs) for v in nodes):
            cycle_type = CycleType.TYPE1
        elif target is None:
            cycle_type = None
        else:
            for inst, hits in runs:
                t = hits[target]
                early = [v for v in nodes if t is not None and hits[v] is not None and hits[v] < t]
                if early:
                    witness = (inst, early[0], t - 1)
                    break
            cycle_type = CycleType.TYPE2 if witness is None else CycleType.TYPE3
        reports.append(CycleReport(cycle, cycle_type, target, witness))
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
    runs = reference_hits(g)
    for target in [None, *g.node_ids]:
        expected = reference_classify_cycles(g, cycles, target, runs)
        assert classify_cycles(g, cycles, target) == expected
        # a few columns a chunk: the first early column of each row may
        # fall in any chunk
        with mock.patch.object(circuit, "CHUNK_BUDGET_BYTES", 64):
            assert classify_cycles(g, cycles, target) == expected
