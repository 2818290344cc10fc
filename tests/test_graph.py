import pytest

from cybag.errors import CycleLimitError, PlainCycleError, UnknownNodeError
from cybag.formats import load_fixture
from cybag.generator import GenParams, generate
from cybag.graph import (
    DEFAULT_MAX_CYCLES,
    AttackGraph,
    CyclePath,
    Node,
    NodeKind,
    PlainBag,
    convert_plain,
    find_cycles,
    is_loop_free,
    topological_order,
    validate,
)

L, A, O = NodeKind.LEAF, NodeKind.AND, NodeKind.OR


def test_node_rejects_bad_probability():
    with pytest.raises(ValueError):
        Node(0, L, "x", 1.5)
    with pytest.raises(ValueError):
        Node(0, L, "x", -0.1)


def test_node_rejects_negative_id():
    with pytest.raises(ValueError, match="non-negative"):
        Node(-1, L)


@pytest.mark.parametrize(
    "record, field",
    [
        (Node(0, L, "x", 0.5), "local_prob"),
        (AttackGraph([Node(0, L)], []), "nodes"),
        (GenParams(n=10, cyclicity=0), "n"),
    ],
    ids=["Node", "AttackGraph", "GenParams"],
)
def test_records_refuse_field_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_equal_graphs_hash_alike():
    a = AttackGraph([Node(1, O), Node(0, L, "x", 0.5)], [(0, 1)])
    b = AttackGraph([Node(0, L, "x", 0.5), Node(1, O)], [(0, 1)])
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != AttackGraph([Node(0, L, "x", 0.5), Node(1, O)], [])
    assert repr(a) == f"AttackGraph(nodes={a.nodes!r}, edges=((0, 1),))"


def test_replace_runs_the_record_checks():
    # numpy scalars and bool ids: test_formats.py::test_numpy_scalars_round_trip
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        Node(0, L)._replace(local_prob=1.5)
    with pytest.raises(ValueError, match="not simple"):
        CyclePath((1, 2, 1))._replace(nodes=(1, 2, 2, 1))
    with pytest.raises(ValueError, match="cyclicity"):
        GenParams(n=10, cyclicity=0)._replace(cyclicity=101)
    assert Node(0, L)._asdict() == {"id": 0, "kind": L, "label": "", "local_prob": 1.0}


def test_validate_well_formed(fig5):
    report = validate(fig5)
    assert report.ok
    assert report.errors == [] and report.warnings == []


def test_validate_leaf_with_parent():
    g = AttackGraph([Node(0, L), Node(1, L)], [(0, 1)])
    assert "LEAF_HAS_PARENT" in validate(g).error_codes()


def test_validate_dangling_edge():
    g = AttackGraph([Node(0, L), Node(1, A)], [(0, 1), (99, 1)])
    assert "DANGLING_EDGE" in validate(g).error_codes()


def test_validate_self_edge_and_duplicates():
    g = AttackGraph(
        [Node(0, L), Node(1, A), Node(1, A)],
        [(0, 1), (0, 1), (1, 1)],
    )
    codes = validate(g).error_codes()
    assert "SELF_EDGE" in codes
    assert "DUPLICATE_EDGE" in codes
    assert "DUPLICATE_NODE" in codes


def test_validate_empty_parents_is_warning_only():
    g = AttackGraph([Node(0, A), Node(1, O)], [])
    report = validate(g)
    assert report.ok
    assert report.warning_codes() == ["EMPTY_PARENTS", "EMPTY_PARENTS"]
    # an edge from an unknown node gives no parent row: node 1 is still empty
    dangling = validate(AttackGraph([Node(0, L, "a", 0.5), Node(1, O)], [(7, 1)]))
    assert dangling.error_codes() == ["DANGLING_EDGE"]
    assert [(i.code, i.subject) for i in dangling.warnings] == [("EMPTY_PARENTS", 1)]


def test_find_cycles_acyclic(fig5):
    assert find_cycles(fig5) == []


def test_find_cycles_two_node():
    g = AttackGraph([Node(3, O), Node(7, O)], [(3, 7), (7, 3)])
    cycles = find_cycles(g)
    assert [c.nodes for c in cycles] == [(3, 7, 3)]


def test_find_cycles_self_loop():
    # a self-edge is a one-node cycle, as in DenseIndex.blocks
    g = AttackGraph([Node(3, O), Node(7, O)], [(3, 7), (7, 3), (7, 7)])
    assert [c.nodes for c in find_cycles(g)] == [(7, 7), (3, 7, 3)]
    assert topological_order(AttackGraph([Node(1, O)], [(1, 1)])) is None


def test_find_cycles_ignores_duplicated_edges():
    g = AttackGraph([Node(0, L), Node(1, O), Node(2, O)], [(0, 1), (1, 2), (2, 1), (2, 1)])
    assert [c.nodes for c in find_cycles(g)] == [(1, 2, 1)]
    assert g.parents[1] == (0, 2)
    assert sorted({dst for src, dst in g.edges if src == 2}) == [1]
    assert validate(g).error_codes() == ["DUPLICATE_EDGE"]


def test_find_cycles_running_example():
    g = load_fixture("running-example.json")
    cycles = find_cycles(g)
    assert len(cycles) == 1
    assert cycles[0].node_set == {14, 12, 11, 9, 8, 7, 6, 21}
    # canonical form starts at the smallest id and follows real edges
    assert cycles[0].nodes[0] == 6
    edge_set = set(g.edges)
    assert all(e in edge_set for e in cycles[0].edge_list)


def test_find_cycles_limit():
    ids = list(range(6))
    g = AttackGraph(
        [Node(v, O) for v in ids],
        [(a, b) for a in ids for b in ids if a != b],
    )
    with pytest.raises(CycleLimitError) as exc:
        find_cycles(g, max_cycles=10)
    assert len(exc.value.cycles) == 10


def test_find_cycles_byte_budget_bounds_the_nodes_held(monkeypatch):
    from cybag import graph

    ids = list(range(4))
    g = AttackGraph([Node(v, O) for v in ids], [(a, b) for a in ids for b in ids if a != b])
    every = find_cycles(g)
    budget = 8 * sum(len(c.nodes) for c in every)  # 8 bytes a node slot
    monkeypatch.setattr(graph, "CYCLE_BUDGET_BYTES", budget)
    assert find_cycles(g) == every
    monkeypatch.setattr(graph, "CYCLE_BUDGET_BYTES", budget - 1)
    with pytest.raises(CycleLimitError, match=f"the {budget - 1}-byte cycle budget") as exc:
        find_cycles(g)
    # the count cap is not what stopped it, and the partial list fits
    assert len(exc.value.cycles) == len(every) - 1 < DEFAULT_MAX_CYCLES
    assert 8 * sum(len(c.nodes) for c in exc.value.cycles) <= budget - 1


def test_cycles_verified_edge_by_edge():
    g = generate(GenParams(n=60, cyclicity=100, seed=5))
    edge_set = set(g.edges)
    for cycle in find_cycles(g):
        assert all(e in edge_set for e in cycle.edge_list)
        assert cycle.nodes[0] == min(cycle.node_set)


def test_empty_cycles_iff_topological_order(forest_builder):
    graphs = [generate(GenParams(n=40, cyclicity=c, seed=s)) for c in (0, 50) for s in (1, 2)]
    graphs += [forest_builder(3, 12)]
    for g in graphs:
        assert (find_cycles(g) == []) == (topological_order(g) is not None)


def test_is_loop_free_tree(fig5):
    assert is_loop_free(fig5)


def test_is_loop_free_diamond(diamond):
    assert not is_loop_free(diamond)


def test_is_loop_free_running_example():
    assert not is_loop_free(load_fixture("running-example.json"))


def test_is_loop_free_antiparallel_pair():
    g = AttackGraph([Node(0, O), Node(1, O)], [(0, 1), (1, 0)])
    assert not is_loop_free(g)


def test_is_loop_free_self_edge():
    assert not is_loop_free(AttackGraph([Node(0, O)], [(0, 0)]))


def test_is_loop_free_skips_dangling_edges():
    assert is_loop_free(AttackGraph([Node(0, L, "a", 0.5), Node(1, O)], [(0, 1), (0, 7)]))
    nodes = [Node(0, L), Node(1, O), Node(2, O), Node(3, A)]
    assert not is_loop_free(AttackGraph(nodes, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 9)]))


def test_is_loop_free_counts_repeated_edge_once():
    assert is_loop_free(AttackGraph([Node(0, L, "a", 0.5), Node(1, O)], [(0, 1), (0, 1)]))


def test_loop_free_implies_acyclic(forest_builder):
    for seed in range(20):
        g = forest_builder(seed, 3 + seed)
        assert is_loop_free(g)
        assert find_cycles(g) == []


def test_cyclepath_rejects_bad_paths():
    with pytest.raises(ValueError):
        CyclePath((1, 2, 3))  # not closed
    with pytest.raises(ValueError):
        CyclePath((1, 2, 1, 2, 1))  # repeated interior node
    with pytest.raises(ValueError):
        CyclePath((1,))  # too short to close
    assert CyclePath((1, 1)).edge_list == ((1, 1),)


def test_unknown_node_lookup(fig5):
    for lookup in (fig5.node, fig5.kind, fig5.local_prob):
        with pytest.raises(UnknownNodeError, match="node 99 is not in the graph"):
            lookup(99)


def test_convert_plain_kinds():
    plain = PlainBag(
        exploits=[10],
        conditions=[0, 1, 2],
        require_edges=[(0, 10), (1, 10)],
        imply_edges=[(10, 2)],
        score={0: 0.8, 1: 1.0, 2: 1.0, 10: 0.5},
    )
    g = convert_plain(plain)
    assert g.kind(0) is L and g.local_prob(0) == 0.8
    assert g.kind(1) is L
    assert g.kind(10) is A and g.parents[10] == (0, 1)
    assert g.kind(2) is O and g.parents[2] == (10,)


def test_convert_plain_rejects_cycle():
    plain = PlainBag(
        exploits=[1],
        conditions=[0],
        require_edges=[(0, 1)],
        imply_edges=[(1, 0)],
        score={},
    )
    with pytest.raises(PlainCycleError):
        convert_plain(plain)


def test_convert_plain_output_validates():
    plain = PlainBag(
        exploits=[5, 6],
        conditions=[0, 1, 2, 3],
        require_edges=[(0, 5), (1, 5), (2, 6)],
        imply_edges=[(5, 2), (6, 3)],
        score={0: 0.5, 5: 0.9, 6: 0.7},
    )
    assert validate(convert_plain(plain)).ok


def test_convert_plain_wang_scenario_solves_to_source_scores():
    # Cumulative scores hand-evaluated on the bipartite source, bottom-up:
    # each exploit multiplies its score by its required conditions, each
    # condition combines its exploits as a noisy-or.
    expected = {
        0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0,
        11: 0.8,            # ftp_rhosts(0,1)
        5: 0.8,             # trust(1,0)
        12: 0.72,           # rsh(0,1) = 0.9 * 0.8
        13: 0.1,            # sshd_bof(0,1)
        6: 0.748,           # user(1) = 1 - 0.28 * 0.9
        14: 0.5984,         # ftp_rhosts(1,2) = 0.8 * 0.748
        7: 0.5984,          # trust(2,1)
        15: 0.53856,        # rsh(1,2) = 0.9 * 0.5984
        16: 0.8,            # ftp_rhosts(0,2)
        8: 0.8,             # trust(2,0)
        17: 0.72,           # rsh(0,2)
        9: 0.8707968,       # user(2) = 1 - 0.46144 * 0.28
        18: 0.08707968,     # local_bof(2) = 0.1 * user(2)
        10: 0.08707968,     # root(2)
    }
    from cybag.formats import fixture_path, read_plain_json
    from cybag.propagate import solve_all

    converted = convert_plain(read_plain_json(fixture_path("wang-plain.json")))
    assert validate(converted).ok
    solved = solve_all(converted)
    for v, p in expected.items():
        assert solved[v] == pytest.approx(p, abs=1e-12)


def test_plainbag_rejects_nonbipartite():
    with pytest.raises(ValueError):
        PlainBag([1], [1], [], [], {})
    with pytest.raises(ValueError):
        PlainBag([1], [0], [(1, 0)], [], {})


def test_plainbag_rejects_imply_edge_from_a_condition():
    with pytest.raises(ValueError, match="imply edge"):
        PlainBag([1], [0], [], [(0, 1)], {})


def test_graph_is_canonically_ordered():
    g = AttackGraph(
        [Node(2, A), Node(0, L), Node(1, L)],
        [(1, 2), (0, 2)],
    )
    assert [n.id for n in g.nodes] == [0, 1, 2]
    assert g.edges == ((0, 2), (1, 2))
    assert g.parents[2] == (0, 1)
