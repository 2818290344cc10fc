from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import attack_graphs

from cybag.bayes import eliminate
from cybag.circuit import reachability_exact
from cybag.classify import classify_cycles
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
