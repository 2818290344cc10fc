from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import attack_graphs, cyclic_graphs

from cybag.bayes import eliminate
from cybag.circuit import reachability_exact
from cybag.classify import CycleType, classify_cycles, closing_edge
from cybag.formats import document_to_graph, graph_to_document
from cybag.graph import (
    AttackGraph,
    Node,
    NodeKind,
    find_cycles,
    is_loop_free,
    topological_order,
    validate,
)
from cybag.propagate import (
    conjunction,
    disjunction,
    solve_acyclic_closed_form,
    solve_all,
    solve_node,
)

probabilities = st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=8)


@given(probabilities)
def test_gate_outputs_stay_probabilities(ps):
    assert 0.0 <= conjunction(ps) <= 1.0
    assert 0.0 <= disjunction(ps) <= 1.0


@given(probabilities)
def test_disjunction_is_dual_of_conjunction(ps):
    assert disjunction(ps) == 1.0 - conjunction(1.0 - p for p in ps)


@given(probabilities, st.floats(0.0, 1.0, allow_nan=False))
def test_gates_are_monotone_in_arity(ps, q):
    assert conjunction(ps + [q]) <= conjunction(ps)
    assert disjunction(ps + [q]) >= disjunction(ps)


@given(attack_graphs())
def test_generated_graphs_are_well_formed(g):
    assert validate(g).ok


@given(attack_graphs())
def test_document_round_trip(g):
    assert document_to_graph(graph_to_document(g)) == g


@given(attack_graphs())
@settings(max_examples=60)
def test_solve_outputs_are_probabilities(g):
    for p in solve_all(g).values():
        assert 0.0 <= p <= 1.0


@given(attack_graphs())
@settings(max_examples=60)
def test_acyclicity_agrees_between_detectors(g):
    assert (find_cycles(g) == []) == (topological_order(g) is not None)


@given(attack_graphs(max_nodes=8, allow_cycles=False))
@settings(max_examples=40)
def test_loop_free_solves_exactly(g):
    if not is_loop_free(g):
        return
    closed = solve_acyclic_closed_form(g)
    full = solve_all(g)
    for v in g.node_ids:
        assert abs(full[v] - closed[v]) <= 1e-12
        assert abs(full[v] - eliminate(g, v)) <= 1e-10


def rotated(nodes):
    """A closed cycle path rotated to start at its smallest id."""
    ring = nodes[:-1]
    k = ring.index(min(ring))
    return ring[k:] + ring[:k] + (ring[k],)


def exact(g):
    return {v: reachability_exact(g, v).probability for v in g.node_ids}


# Metamorphic relations (Segura et al., IEEE TSE 2016) of the exact engines
# and the cycle search; solve_all does not keep relation 1, see
# test_parent_order_sensitivity_recorded_not_asserted.


@given(attack_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_relabelling_ids_changes_no_cycle_value_or_type(g, data):
    to = dict(zip(g.node_ids, data.draw(st.permutations(g.node_ids))))
    h = AttackGraph(
        [Node(to[n.id], n.kind, n.label, n.local_prob) for n in g.nodes],
        [(to[a], to[b]) for a, b in g.edges],
    )
    cycles = find_cycles(g)
    moved = [rotated(tuple(to[v] for v in c.nodes)) for c in cycles]
    assert sorted(moved) == sorted(c.nodes for c in find_cycles(h))
    before, after = exact(g), exact(h)
    for v in g.node_ids:
        assert abs(before[v] - after[to[v]]) <= 1e-12
        if not cycles:
            assert abs(eliminate(g, v) - eliminate(h, to[v])) <= 1e-12
    target = data.draw(st.sampled_from(g.node_ids))
    types = {rotated(tuple(to[v] for v in r.cycle.nodes)): r.cycle_type
             for r in classify_cycles(g, cycles, target)}
    relabelled = classify_cycles(h, find_cycles(h), to[target])
    assert types == {r.cycle.nodes: r.cycle_type for r in relabelled}


@given(attack_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_a_new_or_parent_lowers_no_exact_value(g, data):
    new = [(u, v) for v in g.node_ids if g.kind(v) is NodeKind.OR
           for u in g.node_ids if u != v and (u, v) not in g.edges]
    if not new:
        return
    h = AttackGraph(g.nodes, g.edges + (data.draw(st.sampled_from(new)),))
    before, after = exact(g), exact(h)
    for v in g.node_ids:
        assert after[v] >= before[v] - 1e-12


# Relation 2 leaves Monte Carlo out: an input raised to p = 1 leaves its
# draw stream and shifts the draws of every later input (ROADMAP item 12).


@given(attack_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_raising_one_p_lowers_no_value(g, data):
    node = data.draw(st.sampled_from(g.nodes))
    p = data.draw(st.floats(node.local_prob, 1.0))
    h = AttackGraph([n._replace(local_prob=p) if n is node else n for n in g.nodes], g.edges)
    before, after = exact(g), exact(h)
    acyclic = not find_cycles(g)
    fast_before, fast_after = solve_all(g), solve_all(h)
    for v in g.node_ids:
        assert after[v] >= before[v] - 1e-12
        if acyclic:
            assert eliminate(h, v) >= eliminate(g, v) - 1e-12
        assert fast_after[v] >= fast_before[v]
        assert solve_node(h, v) >= solve_node(g, v)


# Relation 4 holds for Or-headed edges only. A Type 2 cycle has no node on
# before the target's first hit, so up to that tick an edge out of a cycle
# node feeds an Or nothing. Cutting an And-headed edge instead removes an
# off parent, which can let the And fire sooner; see
# test_cutting_an_and_headed_edge_of_a_type2_cycle_can_raise_the_target.


@given(st.one_of(attack_graphs(), cyclic_graphs()))
@settings(max_examples=300, deadline=None)
def test_cutting_an_or_headed_edge_of_a_type2_cycle_keeps_the_target(g):
    cycles = find_cycles(g)
    for target in g.node_ids if cycles else ():
        before = reachability_exact(g, target).probability
        for report in classify_cycles(g, cycles, target):
            if report.cycle_type is not CycleType.TYPE2:
                continue
            # an And on a cycle fires after its cycle predecessor, so the
            # first cycle node to fire, the closing edge's head, is an Or
            assert g.kind(closing_edge(g, report.cycle)[1]) is NodeKind.OR
            for src, dst in report.cycle.edge_list:
                if g.kind(dst) is NodeKind.OR:
                    cut = g.without_edge(src, dst)
                    assert reachability_exact(cut, target).probability == before


def test_cutting_an_and_headed_edge_of_a_type2_cycle_can_raise_the_target():
    g = AttackGraph(
        [Node(0, NodeKind.LEAF, "", 0.5), Node(1, NodeKind.AND), Node(2, NodeKind.OR)],
        [(0, 2), (1, 2), (2, 1)],
    )
    (report,) = classify_cycles(g, find_cycles(g), 2)
    assert report.cycle_type is CycleType.TYPE2
    assert reachability_exact(g, 2).probability == 0.5
    # And 1 left without parents is true, so it fires at once and feeds Or 2
    assert reachability_exact(g.without_edge(2, 1), 2).probability == 1.0
    assert closing_edge(g, report.cycle) == (1, 2)
    assert reachability_exact(g.without_edge(1, 2), 2).probability == 0.5
