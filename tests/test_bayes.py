import random

import numpy as np
import pytest
from conftest import attack_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from cybag.bayes import (
    WIDTH_LIMIT,
    Factor,
    brute_force_marginal,
    eliminate,
    elimination_order,
    node_factor,
)
from cybag.errors import GraphCyclicError, TooLargeError, WidthLimitError
from cybag.generator import GenParams, generate
from cybag.graph import AttackGraph, Node, NodeKind, is_loop_free
from cybag.propagate import solve_all, solve_node

L, A, O = NodeKind.LEAF, NodeKind.AND, NodeKind.OR


def acyclic_samples(count, lo=5, hi=26):
    graphs = []
    seed = 0
    while len(graphs) < count:
        seed += 1
        n = lo + (seed * 7) % (hi - lo + 1)
        graphs.append(generate(GenParams(n=n, cyclicity=0, seed=seed)))
    return graphs


def test_leaf_table(fig5):
    factor = node_factor(fig5, 0)
    assert factor.scope == (0,)
    assert factor.table == pytest.approx(np.array([0.3, 0.7]))


def test_and_table(fig5):
    factor = node_factor(fig5, 2)
    assert factor.scope == (0, 1, 2)
    # only the all-parents-true row carries probability 0.6
    assert factor.table[1, 1, 0] == pytest.approx(0.4)
    assert factor.table[1, 1, 1] == pytest.approx(0.6)
    for a, b in [(0, 0), (0, 1), (1, 0)]:
        assert factor.table[a, b, 0] == 1.0
        assert factor.table[a, b, 1] == 0.0


def test_or_table():
    g = AttackGraph(
        [Node(0, L, "", 0.5), Node(1, L, "", 0.5), Node(2, O, "", 0.8)],
        [(0, 2), (1, 2)],
    )
    factor = node_factor(g, 2)
    assert factor.table[0, 0, 0] == 1.0 and factor.table[0, 0, 1] == 0.0
    for a, b in [(0, 1), (1, 0), (1, 1)]:
        assert factor.table[a, b, 0] == pytest.approx(0.2)
        assert factor.table[a, b, 1] == pytest.approx(0.8)


def test_rows_sum_to_one():
    for g in acyclic_samples(5):
        for v in g.node_ids:
            factor = node_factor(g, v)
            axis = factor.scope.index(v)
            sums = factor.table.sum(axis=axis)
            assert np.allclose(sums, 1.0, atol=1e-12)


def test_oracles_reject_cycles(two_cycle):
    with pytest.raises(GraphCyclicError):
        eliminate(two_cycle, 0)
    with pytest.raises(GraphCyclicError):
        brute_force_marginal(two_cycle, 0)


def test_eliminate_fig5(fig5):
    assert eliminate(fig5, 2) == pytest.approx(0.336, abs=1e-12)


def test_eliminate_diamond(diamond):
    # exact answer: the goal fires iff the shared leaf does
    assert eliminate(diamond, 3) == pytest.approx(0.5, abs=1e-12)


def test_eliminate_single_leaf():
    g = AttackGraph([Node(0, L, "", 0.61)], [])
    assert eliminate(g, 0) == pytest.approx(0.61)


def test_elimination_order_chain():
    g = AttackGraph(
        [Node(0, L, "", 0.5), Node(1, O, "", 1.0), Node(2, O, "", 1.0)],
        [(0, 1), (1, 2)],
    )
    assert elimination_order(g, 2) == [0, 1]


def test_elimination_order_is_complete(fig5, diamond):
    assert sorted(elimination_order(fig5, 2)) == [0, 1]
    assert sorted(elimination_order(diamond, 3)) == [0, 1, 2]


def reference_order(graph, query):
    """Min-degree order by a full scan of the remaining variables per step."""
    adj = {v: set() for v in graph.node_ids}
    for v, parents in graph.parents.items():
        clique = parents + (v,)
        for a in clique:
            for b in clique:
                if a != b:
                    adj[a].add(b)
    order = []
    remaining = set(graph.node_ids) - {query}
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u] & remaining), u))
        order.append(v)
        neighbors = adj[v] & remaining
        for a in neighbors:
            adj[a].update(neighbors - {a})
        remaining.remove(v)
    return order


def reference_eliminate(graph, query, order):
    """Sum-product over one flat factor list, scanned whole for every variable."""
    factors = [node_factor(graph, v) for v in graph.node_ids]
    for var in order:
        involved = [f for f in factors if var in f.scope]
        if not involved:
            continue
        product = involved[0]
        for f in involved[1:]:
            product = product.multiply(f)
        factors = [f for f in factors if var not in f.scope] + [product.sum_out(var)]
    result = factors[0]
    for f in factors[1:]:
        result = result.multiply(f)
    table = result.table.reshape(2)
    return float(table[1]) / float(table[0] + table[1])


@settings(max_examples=150, deadline=None)
@given(attack_graphs(max_nodes=12, allow_cycles=False), st.data())
def test_heap_order_and_indexed_elimination_match_the_references(g, data):
    query = data.draw(st.sampled_from(g.node_ids), label="query")
    order = elimination_order(g, query)
    assert order == reference_order(g, query)
    assert eliminate(g, query) == reference_eliminate(g, query, order)


def test_heap_order_and_indexed_elimination_match_on_generated_dags():
    for seed in range(3):
        g = generate(GenParams(n=150, cyclicity=0, seed=seed))
        for query in (g.node_ids[0], *g.node_ids[-5:]):
            order = elimination_order(g, query)
            assert order == reference_order(g, query)
            assert eliminate(g, query) == reference_eliminate(g, query, order)


def test_order_invariance():
    rng = random.Random(99)
    for g in acyclic_samples(4, lo=6, hi=14):
        query = max(g.node_ids)
        reference = eliminate(g, query)
        rest = [v for v in g.node_ids if v != query]
        for _ in range(5):
            order = rest[:]
            rng.shuffle(order)
            assert reference_eliminate(g, query, order) == pytest.approx(reference, abs=1e-10)


def test_brute_force_fig5_and_diamond(fig5, diamond):
    assert brute_force_marginal(fig5, 2) == pytest.approx(0.336, abs=1e-12)
    assert brute_force_marginal(diamond, 3) == pytest.approx(0.5, abs=1e-12)


def test_brute_force_root_leaf(fig5):
    assert brute_force_marginal(fig5, 0) == pytest.approx(0.7)
    assert brute_force_marginal(fig5, 1) == pytest.approx(0.8)


def test_brute_force_size_limit():
    g = AttackGraph([Node(v, L, "", 0.5) for v in range(25)], [])
    with pytest.raises(TooLargeError):
        brute_force_marginal(g, 0)


def test_ve_matches_brute_force_on_random_graphs(forest_builder):
    graphs = acyclic_samples(10, lo=2, hi=20) + [forest_builder(s, 2 + s) for s in range(8)]
    for g in graphs:
        for v in g.node_ids:
            assert eliminate(g, v) == pytest.approx(
                brute_force_marginal(g, v), abs=1e-10
            )


def test_loop_free_equality_with_propagation(forest_builder):
    for seed in range(12):
        g = forest_builder(seed + 100, 3 + seed)
        assert is_loop_free(g)
        probs = solve_all(g)
        for v in g.node_ids:
            assert probs[v] == pytest.approx(eliminate(g, v), abs=1e-10)


def test_loopy_discrepancy_direction_on_diamond(diamond):
    # shared ancestry makes the product formula overshoot the exact value
    assert solve_node(diamond, 3) == pytest.approx(0.75)
    assert eliminate(diamond, 3) == pytest.approx(0.5)


def test_width_limit_hits_eliminate_not_translation():
    leaves = [Node(v, L, "", 0.5) for v in range(21)]
    sink = Node(21, A, "", 1.0)
    g = AttackGraph(leaves + [sink], [(v, 21) for v in range(21)])
    with pytest.raises(WidthLimitError):
        eliminate(g, 21)
    # enumeration never materializes the wide table
    assert brute_force_marginal(g, 21) == pytest.approx(0.5**21, abs=1e-12)


def test_width_limit_bounds_every_product(wide_products):
    assert max(len(ps) for ps in wide_products.parents.values()) <= WIDTH_LIMIT
    generated = generate(GenParams(n=1000, cyclicity=0, seed=0))
    # the refusal names the first variable in the order whose product is too wide
    for g, query, var, width in [(wide_products, 69, 23, 28), (generated, 999, 756, 23)]:
        with pytest.raises(WidthLimitError) as refused:
            eliminate(g, query)
        assert str(refused.value) == (
            f"eliminating node {var} needs a {width}-variable table; "
            "tables over more than 21 variables are not materialized"
        )


def test_factor_rejects_unsorted_scope_and_mismatched_shape():
    with pytest.raises(ValueError, match="ascending"):
        Factor((1, 0), np.ones((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        Factor((0, 1), np.ones(2))
