from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import attack_graphs

from cybag.bayes import eliminate
from cybag.formats import document_to_graph, graph_to_document
from cybag.graph import find_cycles, is_loop_free, topological_order, validate
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
