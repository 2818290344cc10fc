import random

import pytest
from hypothesis import strategies as st

from cybag import circuit
from cybag.circuit import CircuitState, step
from cybag.graph import AttackGraph, Node, NodeKind


@pytest.fixture
def fig5():
    return AttackGraph(
        [
            Node(0, NodeKind.LEAF, "A", 0.7),
            Node(1, NodeKind.LEAF, "B", 0.8),
            Node(2, NodeKind.AND, "C", 0.6),
        ],
        [(0, 2), (1, 2)],
    )


@pytest.fixture
def diamond():
    return AttackGraph(
        [
            Node(0, NodeKind.LEAF, "L", 0.5),
            Node(1, NodeKind.AND, "A1", 1.0),
            Node(2, NodeKind.AND, "A2", 1.0),
            Node(3, NodeKind.OR, "O", 1.0),
        ],
        [(0, 1), (0, 2), (1, 3), (2, 3)],
    )


@pytest.fixture
def two_cycle():
    """Or A fed by a leaf and by Or B; B fed by A. A <-> B is the cycle."""
    return AttackGraph(
        [
            Node(0, NodeKind.LEAF, "L", 0.5),
            Node(1, NodeKind.OR, "A", 1.0),
            Node(2, NodeKind.OR, "B", 1.0),
        ],
        [(0, 1), (2, 1), (1, 2)],
    )


@pytest.fixture
def wide_products():
    """40 leaves and 30 Or nodes with 12 random leaf parents each: every
    node table is narrow, but variable elimination builds wide products."""
    rng = random.Random(1)
    leaves = [Node(v, NodeKind.LEAF, "", 0.5) for v in range(40)]
    ors = [Node(v, NodeKind.OR, "", 0.9) for v in range(40, 70)]
    edges = [(p, o.id) for o in ors for p in rng.sample(range(40), 12)]
    return AttackGraph(leaves + ors, edges)


def make_forest(seed: int, n: int) -> AttackGraph:
    """Random loop-free graph: orient the edges of a random tree.

    Nodes that end up without incoming edges become leaves; the rest are
    And or Or at random. All probabilities are fractional so nothing is
    degenerate.
    """
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        if rng.random() < 0.5:
            edges.append((u, v))
        else:
            edges.append((v, u))
    has_parent = {dst for _, dst in edges}
    nodes = []
    for v in range(n):
        if v not in has_parent:
            kind = NodeKind.LEAF
        else:
            kind = rng.choice((NodeKind.AND, NodeKind.OR))
        nodes.append(Node(v, kind, f"n{v}", round(rng.uniform(0.05, 0.95), 3)))
    return AttackGraph(nodes, edges)


def reference_run(g, inst):
    """Fixed-point values and first-hit ticks of the synchronous trajectory,
    from :func:`step` alone: the oracle of the packed engine's two runs."""
    state = CircuitState({v: 0 for v in g.node_ids}, 0)
    hits = {v: None for v in g.node_ids}
    while True:
        nxt = step(g, state, inst)
        if nxt.values == state.values:
            return dict(state.values), hits
        for v, on in nxt.values.items():
            if on and hits[v] is None:
                hits[v] = nxt.iteration
        state = nxt


@pytest.fixture
def engine_runs(monkeypatch):
    """(chunk widths, trajectory runs): the width of every chunk the circuit's
    chunk loop yields, and 1 for every bit-parallel trajectory run."""
    chunks, runs = [], []
    make_chunks, trajectory = circuit._chunks, circuit._trajectory

    def counted_chunks(d, total, source):
        for start, m, cells in make_chunks(d, total, source):
            chunks.append(m)
            yield start, m, cells

    def counted_trajectory(d, primes):
        runs.append(1)
        return trajectory(d, primes)

    monkeypatch.setattr(circuit, "_chunks", counted_chunks)
    monkeypatch.setattr(circuit, "_trajectory", counted_trajectory)
    return chunks, runs


@pytest.fixture
def forest_builder():
    return make_forest


@st.composite
def attack_graphs(draw, max_nodes: int = 10, allow_cycles: bool = True):
    """Small well-formed graphs: edges only flow into And/Or nodes, so
    leaves never acquire parents. Cycles appear unless disallowed."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    kinds = draw(
        st.lists(
            st.sampled_from((NodeKind.LEAF, NodeKind.AND, NodeKind.OR)),
            min_size=n,
            max_size=n,
        )
    )
    nodes = [
        Node(v, kinds[v], f"n{v}", draw(st.floats(0.0, 1.0, allow_nan=False)))
        for v in range(n)
    ]
    candidates = [
        (u, v)
        for v in range(n)
        if kinds[v] is not NodeKind.LEAF
        for u in range(n)
        if u != v and (allow_cycles or u < v)
    ]
    edges = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=3 * n)) if candidates else []
    return AttackGraph(nodes, edges)


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
