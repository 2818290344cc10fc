"""Differential check of the graph algorithms against networkx.

``graph.py`` computes strongly connected components (Tarjan) and simple
cycles (Johnson) itself; networkx stays a test-only reference. Graphs
are random digraphs with non-contiguous ids and varied density. The
one-pass parent rows are checked against a set-and-sort reference.
"""

from itertools import islice

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cybag.errors import CycleLimitError
from cybag.generator import nodes_on_cycles
from cybag.graph import AttackGraph, Node, NodeKind, find_cycles, topological_order

# enough for every graph hypothesis keeps; denser draws are discarded
MAX_REFERENCE_CYCLES = 2000


@st.composite
def digraphs(draw, ring=False):
    """Up to 12 nodes and 3n edges, self-edges included; ``ring`` adds a
    cycle through every node."""
    ids = draw(
        st.lists(st.integers(0, 99), min_size=1 + ring, max_size=12, unique=True)
    )
    pairs = [(a, b) for a in ids for b in ids]
    edges = list(zip(ids, ids[1:] + ids[:1])) if ring else []
    if pairs:
        size = draw(st.integers(0, min(len(pairs), 3 * len(ids))))
        edges += draw(
            st.lists(st.sampled_from(pairs), min_size=size, max_size=size, unique=True)
        )
    return AttackGraph([Node(v, NodeKind.OR) for v in ids], set(edges))


def reference_cycles(g):
    """networkx's simple cycles, rotated to start at the smallest id, sorted;
    networkx lists a self-loop as ``[v]``, which becomes ``(v, v)``."""
    ref = nx.DiGraph()
    ref.add_nodes_from(g.node_ids)
    ref.add_edges_from(g.edges)
    raw = list(islice(nx.simple_cycles(ref), MAX_REFERENCE_CYCLES + 1))
    assume(len(raw) <= MAX_REFERENCE_CYCLES)
    out = []
    for cycle in raw:
        k = cycle.index(min(cycle))
        rotated = cycle[k:] + cycle[:k]
        out.append(tuple(rotated) + (rotated[0],))
    return ref, sorted(out, key=lambda c: (len(c), c))


@given(st.one_of(digraphs(), digraphs(ring=True)))
@settings(max_examples=150, deadline=None)
def test_cycles_and_blocks_match_networkx(g):
    ref, cycles = reference_cycles(g)
    assert [c.nodes for c in find_cycles(g, MAX_REFERENCE_CYCLES)] == cycles

    d = g.dense
    members = [frozenset(d.ids[i] for i in rows) for rows, _ in d.blocks]
    assert sorted(members, key=sorted) == sorted(
        map(frozenset, nx.strongly_connected_components(ref)), key=sorted
    )
    block_of = {i: k for k, (rows, _) in enumerate(d.blocks) for i in rows}
    for i, ps in enumerate(d.parents):
        for p in ps:
            k = block_of[i]
            assert block_of[p] < k or (block_of[p] == k and d.blocks[k][1])

    assert (topological_order(g) is None) == any(cyclic for _, cyclic in d.blocks)
    assert (topological_order(g) is None) == bool(cycles)
    assert nodes_on_cycles(g) == {v for c in cycles for v in c}


@given(digraphs(ring=True), st.data())
@settings(max_examples=100, deadline=None)
def test_cycle_limit_carries_exactly_k_real_cycles(g, data):
    _, cycles = reference_cycles(g)
    k = data.draw(st.integers(0, len(cycles) - 1))
    with pytest.raises(CycleLimitError) as exc:
        find_cycles(g, max_cycles=k)
    partial = [c.nodes for c in exc.value.cycles]
    assert len(partial) == k
    assert len(set(partial)) == k
    assert set(partial) <= set(cycles)


def reference_parents(g):
    """Parent ids per node: each node's set of known sources, sorted."""
    pa = {v: set() for v in g.node_ids}
    for src, dst in g.edges:
        if src in pa and dst in pa:
            pa[dst].add(src)
    return {v: tuple(sorted(ps)) for v, ps in pa.items()}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_parents_match_the_set_and_sort_definition(data):
    """Repeated, self and dangling edges included, the one-pass parent rows
    and their id view equal the reference."""
    ids = data.draw(st.lists(st.integers(0, 30), max_size=12, unique=True))
    ends = st.integers(0, 30)
    edges = data.draw(st.lists(st.tuples(ends, ends), max_size=40))
    edges += data.draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    g = AttackGraph([Node(v, NodeKind.OR) for v in ids], edges)
    ref = reference_parents(g)
    assert g.parents == ref
    d = g.dense
    assert d.parents == [tuple(d.index[p] for p in ref[v]) for v in d.ids]
