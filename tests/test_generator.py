import random
from collections import Counter
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cybag import generator
from cybag.errors import InfeasibleError, TooLargeError
from cybag.formats import INPUT_LIMIT_BYTES, write_json
from cybag.generator import (
    BenchRow,
    GenParams,
    LEAF_PROB_PALETTE,
    bench,
    cyclic_or_fraction,
    generate,
    nodes_on_cycles,
    write_bench_csv,
)
from cybag.graph import AttackGraph, Node, NodeKind, find_cycles, topological_order, validate

L, A, O = NodeKind.LEAF, NodeKind.AND, NodeKind.OR


def scc_coverage(edges):
    """Reference: nodes inside a strongly connected component of size >= 2."""
    comps = nx.strongly_connected_components(nx.DiGraph(list(edges)))
    return {v for comp in comps if len(comp) >= 2 for v in comp}


def kind_counts(graph):
    return Counter(n.kind for n in graph.nodes)


def test_default_ratio_exact_at_1000():
    g = generate(GenParams(n=1000, cyclicity=0, seed=1))
    counts = kind_counts(g)
    assert counts[L] == 500 and counts[A] == 350 and counts[O] == 150


def test_ratio_within_rounding():
    for n in (37, 101, 250):
        g = generate(GenParams(n=n, cyclicity=0, seed=2))
        counts = kind_counts(g)
        assert sum(counts.values()) == n
        for kind, share in zip((L, A, O), (50, 35, 15)):
            assert abs(counts[kind] - n * share / 100) < 1.0


def test_zero_cyclicity_is_acyclic():
    g = generate(GenParams(n=300, cyclicity=0, seed=3))
    assert topological_order(g) is not None
    assert find_cycles(g) == []


def test_full_cyclicity_covers_every_or():
    g = generate(GenParams(n=400, cyclicity=100, seed=4))
    on_cycle = nodes_on_cycles(g)
    for node in g.nodes:
        if node.kind is O:
            assert node.id in on_cycle


def test_nodes_on_cycles_matches_scc_reference():
    for c, seed in ((0, 1), (40, 2), (100, 3)):
        g = generate(GenParams(n=300, cyclicity=c, seed=seed))
        assert nodes_on_cycles(g) == scc_coverage(g.edges)


def test_achieved_cyclicity_at_least_requested():
    for c in (5, 25, 100):
        g = generate(GenParams(n=500, cyclicity=c, seed=5))
        assert cyclic_or_fraction(g) >= c / 100.0


def test_generated_graphs_validate():
    for seed in range(6):
        for c in (0, 30, 100):
            g = generate(GenParams(n=80, cyclicity=c, seed=seed))
            assert validate(g).ok


def test_wiring_contract():
    g = generate(GenParams(n=200, cyclicity=40, seed=6))
    for node in g.nodes:
        parents = [g.node(p) for p in g.parents[node.id]]
        if node.kind is A:
            assert any(p.kind is L for p in parents)
        elif node.kind is O:
            assert all(p.kind is A for p in parents)


def test_leaf_probabilities_from_palette():
    g = generate(GenParams(n=120, cyclicity=0, seed=7))
    for node in g.nodes:
        if node.kind is L:
            assert node.local_prob in LEAF_PROB_PALETTE
        else:
            assert node.local_prob == 1.0


def test_deterministic_per_seed():
    a = generate(GenParams(n=150, cyclicity=60, seed=8))
    b = generate(GenParams(n=150, cyclicity=60, seed=8))
    assert a == b
    c = generate(GenParams(n=150, cyclicity=60, seed=9))
    assert a != c


def test_infeasible_without_enough_or_nodes():
    # 40:40:20 at n=6 apportions to 3/2/1, a single Or node
    with pytest.raises(InfeasibleError):
        generate(GenParams(n=6, cyclicity=50, ratio=(40, 40, 20), seed=1))


def test_params_validation():
    with pytest.raises(ValueError):
        GenParams(n=2, cyclicity=0)
    with pytest.raises(ValueError):
        GenParams(n=10, cyclicity=150)
    with pytest.raises(ValueError):
        GenParams(n=10, cyclicity=0, ratio=(50, 30, 15))


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 10.5),
        ("max_parents", 2.5),
        ("cyclicity", "50"),
        ("ratio", ("50", "35", "15")),
        ("seed", 1.5),
        ("seed", True),
    ],
    ids=["float-n", "float-max-parents", "str-cyclicity", "str-ratio", "float-seed", "bool-seed"],
)
def test_params_refuse_a_mistyped_field(field, value):
    # each once escaped as a TypeError from generate or built a graph
    with pytest.raises(ValueError, match="must be an integer|must be a real number"):
        generate(GenParams(**{"n": 10, "cyclicity": 0, field: value}))


def test_params_accept_numbers_that_are_not_plain():
    np = pytest.importorskip("numpy")
    plain = GenParams(n=30, cyclicity=100, seed=3)
    odd = GenParams(n=np.int64(30), cyclicity=np.float32(100), seed=np.uint8(3))
    assert odd == plain and type(odd.seed) is int
    assert generate(odd) == generate(plain)
    with pytest.raises(ValueError, match="three numbers"):
        GenParams(n=10, cyclicity=0, ratio=(50, 50))


@st.composite
def gen_params(draw):
    a = draw(st.floats(0, 100))
    b = draw(st.floats(0, 100 - a))
    # most random ratios cannot reserve enough bridges: mix in feasible ones
    ratio = draw(st.sampled_from([(50, 35, 15), (20, 60, 20), (a, b, 100 - a - b)]))
    return GenParams(
        n=draw(st.integers(3, 150) | st.integers(60, 150)),
        cyclicity=draw(st.floats(1, 100)),
        ratio=ratio,
        seed=draw(st.integers(0, 2**32)),
        max_parents=draw(st.integers(1, 5)),
    )


@settings(max_examples=200, deadline=None)
@given(gen_params())
# max_parents=1 wires no Or into an action, so only the partner branch fires
@example(GenParams(n=120, cyclicity=100, seed=3, max_parents=1))
@example(GenParams(n=150, cyclicity=37, ratio=(30, 50, 20), seed=5, max_parents=5))
def test_tracked_coverage_equals_scc_coverage_after_every_bridge(params):
    """After every merge the tracked cover matches a full SCC recomputation,
    the union-find components are the SCCs of the Or-level graph, and the
    component arcs are the Or -> And -> Or arcs between components."""
    n_leaf, n_and, _ = generator._counts(params.n, params.ratio)
    first = n_leaf + n_and
    ors = set(range(first, params.n))
    merge = generator._Builder.merge
    covered = 0
    bridges = 0

    def checked(self, roots):
        nonlocal covered, bridges
        bits = merge(self, roots)
        covered |= bits
        bridges += 1
        assert {first + i for i in range(len(ors)) if covered >> i & 1} == (
            scc_coverage(self.edges) & ors
        )
        out = {}
        for s, t in self.edges:
            out.setdefault(s, set()).add(t)
        arcs = nx.DiGraph()
        arcs.add_nodes_from(ors)
        arcs.add_edges_from(
            (p, t) for p in ors for a in out.get(p, ()) for t in out.get(a, set()) & ors
        )
        comp = {v: self.find(v - first) for v in ors}
        roots_now = set(comp.values())
        assert {
            frozenset(first + i for i in range(len(ors)) if self.members.get(r, 1 << r) >> i & 1)
            for r in roots_now
        } == {frozenset(c) for c in nx.strongly_connected_components(arcs)}
        for r in roots_now:
            ups = {comp[p] for p, t in arcs.edges if comp[t] == r and comp[p] != r}
            downs = {comp[t] for p, t in arcs.edges if comp[p] == r and comp[t] != r}
            assert self.up[r] == ups
            assert self.down[r] == downs
        return bits

    with mock.patch.object(generator._Builder, "merge", checked):
        try:
            g = generate(params)
        except InfeasibleError:
            return
    assert bridges > 0
    assert {v.id for v in g.nodes if v.kind is O} == ors
    assert cyclic_or_fraction(g) >= params.cyclicity / 100.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**700) | st.integers(0, 2**12))
def test_bit_at_is_the_sorted_positions(mask):
    positions = [i for i in range(mask.bit_length()) if mask >> i & 1]
    assert [generator._bit_at(mask, k) for k in range(mask.bit_count())] == positions


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**700) | st.integers(0, 2**12),
    st.lists(st.integers(0, 2**32), min_size=1, max_size=4),
)
def test_choice_over_range_picks_what_choice_over_the_positions_picks(mask, seeds):
    """A pick draws its rank with ``rng.choice(range(k))``: the same draws,
    and so the same element, as ``rng.choice`` over the sorted positions."""
    positions = [i for i in range(mask.bit_length()) if mask >> i & 1]
    for s in seeds:
        by_rank, by_list = random.Random(s), random.Random(s)
        if positions:
            rank = by_rank.choice(range(len(positions)))
            assert positions[rank] == by_list.choice(positions)
        else:
            with pytest.raises(IndexError):
                by_rank.choice(range(0))
            with pytest.raises(IndexError):
                by_list.choice(positions)
        assert by_rank.getstate() == by_list.getstate()


def test_bridge_walks_visit_components_not_nodes():
    """Pinned work: at n=4000, cyclicity 100, seed 0 the bridge loop's 704
    walks visit 3,062 components; the node-level walks popped 26,140 Or
    nodes, because every walk went again through the cycles merged above."""
    reach = generator._Builder.reach
    walks = visited = 0

    def counted(self, *args):
        nonlocal walks, visited
        bits, roots = reach(self, *args)
        walks += 1
        visited += len(roots)
        return bits, roots

    with mock.patch.object(generator._Builder, "reach", counted):
        g = generate(GenParams(n=4000, cyclicity=100, seed=0))
    assert cyclic_or_fraction(g) == 1.0
    assert (walks, visited) == (704, 3062)


def test_cyclic_or_fraction_without_or_nodes_is_zero():
    g = AttackGraph([Node(0, L), Node(1, A)], [(0, 1), (1, 1)])
    assert cyclic_or_fraction(g) == 0.0


def test_generate_never_rebuilds_sccs(monkeypatch):
    def rebuild(*args, **kwargs):
        raise AssertionError("generate recomputed strongly connected components")

    monkeypatch.setattr("cybag.graph._components", rebuild)
    g = generate(GenParams(n=1000, cyclicity=100, seed=0))
    monkeypatch.undo()
    assert cyclic_or_fraction(g) == 1.0


def test_bench_row_count_and_reproducibility():
    rows = bench([50, 80], [0, 100], replicates=2, seed=1)
    assert len(rows) == 8
    again = bench([50, 80], [0, 100], replicates=2, seed=1)
    strip = lambda r: (r.n, r.cyclicity, r.replicate, r.nodes_in_cycles)
    assert [strip(r) for r in rows] == [strip(r) for r in again]
    for row in rows:
        assert row.wall_time_seconds >= 0.0
        if row.cyclicity == 0:
            assert row.nodes_in_cycles == 0


def test_bench_rejects_bad_replicates():
    with pytest.raises(ValueError):
        bench([50], [0], replicates=0, seed=1)


def test_bench_csv_format(tmp_path):
    rows = [BenchRow(50, 0.0, 0, 0.1234567, 0), BenchRow(50, 100.0, 1, 0.2, 12)]
    out = tmp_path / "bench.csv"
    write_bench_csv(rows, out)
    text = out.read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "n,cyclicity,replicate,wall_time_seconds,nodes_in_cycles"
    assert lines[1] == "50,0,0,0.123457,0"
    assert lines[2] == "50,100,1,0.200000,12"
    assert "\r" not in text


def test_node_limit_is_what_a_reader_could_take_back(tmp_path):
    # write_json spends more than 64 bytes even on the shortest record (a
    # one-digit id, an Or, no label, p 1) and about 90 on a generated one,
    # so a graph past INPUT_LIMIT_BYTES // 64 nodes could not be read back
    shortest = AttackGraph([Node(v, O, "", 1.0) for v in range(10)], [])
    write_json(shortest, tmp_path / "short.json")
    assert (tmp_path / "short.json").stat().st_size > 64 * 10
    write_json(generate(GenParams(n=100, cyclicity=50)), tmp_path / "gen.json")
    assert (tmp_path / "gen.json").stat().st_size > 64 * 100
    with pytest.raises(TooLargeError, match="generator limit"):
        generate(GenParams(n=INPUT_LIMIT_BYTES // 64 + 1, cyclicity=50))


def test_parent_picks_are_bounded_by_a_budget():
    # every action draws up to max_parents - 1 picks, so n * max_parents
    # bounds the wiring work; the default 4 fits right up to the node limit
    budget = INPUT_LIMIT_BYTES // 16
    assert budget == (INPUT_LIMIT_BYTES // 64) * 4
    with pytest.raises(TooLargeError, match=f"{budget}-pick generator budget"):
        generate(GenParams(n=3, cyclicity=0, max_parents=budget // 3 + 1))
