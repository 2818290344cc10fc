import math
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybag import propagate
from cybag.errors import GraphCyclicError, UnknownNodeError
from cybag.formats import load_fixture
from cybag.generator import GenParams, generate
from cybag.graph import AttackGraph, DenseIndex, Node, NodeKind
from cybag.propagate import (
    conjunction,
    disjunction,
    solve_acyclic_closed_form,
    solve_all,
    solve_node,
    solve_node_stats,
)

L, A, O = NodeKind.LEAF, NodeKind.AND, NodeKind.OR


def test_conjunction():
    assert conjunction([0.5, 0.5]) == pytest.approx(0.25)
    assert conjunction([]) == 1.0
    assert conjunction([0.2, 0.3, 1.0]) == pytest.approx(0.06)


def test_disjunction():
    assert disjunction([0.5, 0.5]) == pytest.approx(0.75)
    assert disjunction([]) == 0.0
    # 1 - (0.8 * 0.7 * 0.5)
    assert disjunction([0.2, 0.3, 0.5]) == pytest.approx(0.72)


def test_solve_fig5(fig5):
    assert solve_node(fig5, 2) == pytest.approx(0.336, abs=1e-12)
    assert solve_all(fig5) == pytest.approx({0: 0.7, 1: 0.8, 2: 0.336})


def test_solve_unknown_node(fig5):
    with pytest.raises(UnknownNodeError):
        solve_node(fig5, 42)


def test_solve_two_node_cycle(two_cycle):
    # B's recursion reaches the origin A and contributes nothing
    assert solve_node(two_cycle, 1) == pytest.approx(0.5)
    assert solve_node(two_cycle, 2) == pytest.approx(0.5)


def test_solve_diamond_counts_shared_leaf_twice(diamond):
    assert solve_node(diamond, 3) == pytest.approx(0.75)


def test_solve_all_isolated_leaves():
    g = AttackGraph([Node(0, L, "", 0.3), Node(1, L, "", 0.9)], [])
    assert solve_all(g) == {0: 0.3, 1: 0.9}


def test_solve_all_running_example():
    g = load_fixture("running-example.json")
    probs = solve_all(g)
    assert all(0.0 <= p <= 1.0 for p in probs.values())
    assert probs[0] == g.local_prob(0)


def test_empty_parent_conventions():
    g = AttackGraph([Node(0, A, "", 0.4), Node(1, O, "", 0.9)], [])
    probs = solve_all(g)
    assert probs[0] == pytest.approx(0.4)  # empty conjunction
    assert probs[1] == 0.0  # empty disjunction


def test_closed_form_matches_on_acyclic(fig5, diamond):
    assert solve_acyclic_closed_form(fig5) == pytest.approx(solve_all(fig5))
    cf = solve_acyclic_closed_form(diamond)
    assert cf[3] == pytest.approx(0.75)
    assert cf == pytest.approx(solve_all(diamond))


def test_closed_form_rejects_cycles(two_cycle):
    with pytest.raises(GraphCyclicError):
        solve_acyclic_closed_form(two_cycle)


def test_loop_free_agreement(forest_builder):
    for seed in range(30):
        g = forest_builder(seed, 3 + seed % 20)
        full = solve_all(g)
        closed = solve_acyclic_closed_form(g)
        for v in g.node_ids:
            assert full[v].hex() == closed[v].hex()


def test_outputs_in_unit_interval_on_cyclic_graphs():
    for seed in range(8):
        g = generate(GenParams(n=60, cyclicity=60, seed=seed))
        for p in solve_all(g).values():
            assert 0.0 <= p <= 1.0


def test_monotone_in_leaf_probabilities():
    for seed in range(6):
        g = generate(GenParams(n=40, cyclicity=50, seed=seed))
        base = solve_all(g)
        leaf = next(n.id for n in g.nodes if n.kind is L)
        bumped = solve_all(g.replace_probs({leaf: min(1.0, g.local_prob(leaf) + 0.2)}))
        for v in g.node_ids:
            assert bumped[v] >= base[v] - 1e-12


def test_origin_exclusion_on_removable_cycle():
    g = load_fixture("type2.json")
    assert solve_node(g, 3) == pytest.approx(solve_node(g.without_edge(6, 3), 3))


def test_each_node_visited_at_most_once():
    for seed in range(5):
        g = generate(GenParams(n=80, cyclicity=100, seed=seed))
        n = len(g.node_ids)
        for v in list(g.node_ids)[::7]:
            _, visits = solve_node_stats(g, v)
            assert visits <= n


def reversed_ids(g):
    """The same graph with ids relabelled top-down, so the recursion's
    ascending parent order becomes the original's descending order."""
    top = max(g.node_ids)
    nodes = [Node(top - n.id, n.kind, n.label, n.local_prob) for n in g.nodes]
    return AttackGraph(nodes, [(top - a, top - b) for a, b in g.edges]), top


def test_parent_order_sensitivity_recorded_not_asserted(capsys):
    # The ascending parent order is a deliberate choice; on cyclic graphs
    # another order can legitimately give different values. Record the
    # divergence rate for the curious, assert nothing about it.
    diverged = 0
    checked = 0
    for seed in range(10):
        g = generate(GenParams(n=30, cyclicity=50, seed=seed))
        rev, top = reversed_ids(g)
        for v in g.node_ids:
            checked += 1
            if not math.isclose(solve_node(g, v), solve_node(rev, top - v), abs_tol=1e-12):
                diverged += 1
    print(f"parent-order divergence: {diverged}/{checked} node solves")


def test_parent_order_is_immaterial_on_loop_free_graphs(forest_builder):
    # on a forest every ancestor is reached by one route, so the visited
    # set never cuts a contribution and the order cannot matter
    for seed in range(8):
        g = forest_builder(seed + 70, 5 + 2 * seed)
        rev, top = reversed_ids(g)
        for v in g.node_ids:
            assert solve_node(rev, top - v) == pytest.approx(solve_node(g, v), abs=1e-12)


# The rooted recursion written out plainly, one frame per visited interior
# row and nothing shared: the oracle that propagate's kernel must match.
def _solve_index(d: DenseIndex, origin: int):
    """Run the rooted recursion from row ``origin``, parents in ascending id order.

    Returns (probability, number of distinct nodes visited).
    """
    kinds, probs, parents = d.kinds, d.probs, d.parents
    LEAF, AND = NodeKind.LEAF, NodeKind.AND
    if kinds[origin] is LEAF:
        return probs[origin], 1

    visited = bytearray(len(kinds))
    visited[origin] = 1
    visits = 1

    # Frame: [node, parent tuple, next position, accumulator]. For And
    # nodes the accumulator is the running product of contributions, for
    # Or nodes the running product of complements.
    stack = [[origin, parents[origin], 0, 1.0]]
    result = 0.0
    while stack:
        frame = stack[-1]
        v, ps = frame[0], frame[1]
        descended = False
        while frame[2] < len(ps):
            u = ps[frame[2]]
            frame[2] += 1
            if u == origin:
                contrib = 0.0
            elif visited[u]:
                contrib = probs[u] if kinds[u] is LEAF else 0.0
            else:
                visited[u] = 1
                visits += 1
                if kinds[u] is LEAF:
                    contrib = probs[u]
                else:
                    stack.append([u, parents[u], 0, 1.0])
                    descended = True
                    break
            if kinds[v] is AND:
                frame[3] *= contrib
            else:
                frame[3] *= 1.0 - contrib
        if descended:
            continue
        value = probs[v] * (frame[3] if kinds[v] is AND else 1.0 - frame[3])
        stack.pop()
        if stack:
            parent_frame = stack[-1]
            if kinds[parent_frame[0]] is AND:
                parent_frame[3] *= value
            else:
                parent_frame[3] *= 1.0 - value
        else:
            result = value
    return result, visits


def assert_solve_all_is_bit_identical(g):
    d = g.dense
    probs = solve_all(g)
    assert list(probs) == d.ids
    for row, v in enumerate(d.ids):
        value, visits = _solve_index(d, row)
        assert probs[v].hex() == value.hex(), v
        stats = solve_node_stats(g, v)
        assert (stats[0].hex(), stats[1]) == (value.hex(), visits), v


@st.composite
def shared_work_graphs(draw):
    """Graphs that exercise what ``solve_all`` shares across origins.

    Kinds are drawn per id, so leaf ids interleave with interior ones and
    some leaf parents come after interior ones. Some interior nodes form
    a directed cycle of two to four nodes fed by a single-child chain.
    Most other edges run from a lower id into an interior node, which
    builds shared acyclic ancestry; a few run anywhere, self-edges
    included. Interior nodes that draw no edge stay parentless.
    Probabilities lie on a grid of twentieths, 0 and 1 included.
    """
    n = draw(st.integers(1, 14))
    kinds = draw(st.lists(st.sampled_from((L, A, O)), min_size=n, max_size=n))
    prob = st.integers(0, 20).map(lambda k: k / 20)
    nodes = [Node(v, kinds[v], "", draw(prob)) for v in range(n)]
    interior = [v for v in range(n) if kinds[v] is not L]
    if not interior:
        return AttackGraph(nodes, [])
    order = draw(st.permutations(interior))
    c = draw(st.sampled_from((0, 2, 3, 4)))
    c = c if c <= len(order) else 0
    h = draw(st.integers(0, min(3, len(order) - c)))
    cycle, chain = order[:c], order[c : c + h]
    edges = {(cycle[k - 1], cycle[k]) for k in range(c)}
    if cycle and chain:
        edges |= set(zip(chain, chain[1:] + [cycle[0]]))
    later = [v for v in interior if v > 0]
    if later:
        pick = st.sampled_from(later)
        forward = pick.flatmap(lambda v: st.tuples(st.integers(0, v - 1), st.just(v)))
        edges |= set(draw(st.lists(forward, min_size=n, max_size=3 * n)))
    anywhere = st.tuples(st.integers(0, n - 1), st.sampled_from(interior))
    edges |= set(draw(st.lists(anywhere, max_size=2)))
    return AttackGraph(nodes, edges)


@settings(max_examples=300, deadline=None)
@given(shared_work_graphs())
def test_solve_all_is_bit_identical_to_the_rooted_recursion(g):
    assert_solve_all_is_bit_identical(g)


def test_solve_all_tracks_closed_rows_with_two_children():
    # Row 0 is closed and feeds rows 1 and 3, so it is a source unit. From
    # origin 3 the exit 0 contributes its stored value and is marked, so
    # the row 1, whose cone holds 0, must be walked (it reads 0 as
    # visited) rather than contribute its own value.
    nodes = [Node(v, A, "", 0.05) for v in (0, 1, 3)]
    g = AttackGraph(nodes, [(0, 1), (0, 3), (1, 3)])
    assert solve_all(g)[3] == solve_node(g, 3) == 0.0
    assert_solve_all_is_bit_identical(g)


def touched_exit_graph():
    """The cyclic block {6, 7} has exits 4 and 5, which share the upstream
    cycle {2, 3}. From origin 6 the exit 4 contributes its stored value
    and marks that cycle, so the row 5, read from row 7, must be walked."""
    nodes = [Node(0, L, "", 0.5), Node(1, L, "", 0.25)]
    nodes += [Node(v, O if v % 2 else A, "", 0.9) for v in range(2, 8)]
    edges = [(0, 2), (2, 3), (3, 2), (1, 3), (2, 4), (3, 5), (1, 5), (4, 6), (5, 7)]
    return AttackGraph(nodes, edges + [(6, 7), (7, 6)])


def test_solve_all_walks_an_exit_whose_cone_is_touched():
    assert_solve_all_is_bit_identical(touched_exit_graph())


def test_solve_all_marks_what_a_saturated_frame_reads():
    # The Or rows 1 and 3 and the And row 2 form one block. From origin 1
    # the And frame 2 reads the marked 1 first, so its product is 0.0 and
    # its later read of 3 only marks: 3 gets a frame that reads nothing
    # new. The origin then reads 3 as visited and contributes 0, where an
    # unmarked 3 would give 0.75 * 0.5 and make row 1 non-zero.
    nodes = [Node(0, L, "", 0.5), Node(1, O, "", 0.9), Node(2, A, "", 0.8), Node(3, O, "", 0.75)]
    edges = [(0, 3), (1, 2), (1, 3), (2, 1), (3, 1), (3, 2)]
    g = AttackGraph(nodes, edges)
    assert solve_all(g)[1] == 0.0
    assert_solve_all_is_bit_identical(g)


def test_solve_all_takes_a_saturated_frames_exit_with_its_cone():
    # Row 3 is closed with two children, so it is a source unit; row 4
    # reads only 3 and carries its mask. From origin 1 of the block {1, 2}
    # the And frame 2 reads the marked 1, saturates, and then reads 3 as an
    # exit: 3 is marked and its mask joins the exits read. So the
    # origin's later read of 4 is no exit but a frame, which reads 3 as
    # visited and gives 0, where the stored value of 4 is 0.8 * 0.9 * 0.5.
    nodes = [Node(0, L, "", 0.5), Node(1, O, "", 0.9), Node(2, A, "", 0.7)]
    nodes += [Node(3, A, "", 0.9), Node(4, A, "", 0.8)]
    edges = [(0, 3), (1, 2), (2, 1), (3, 2), (3, 4), (4, 1)]
    g = AttackGraph(nodes, edges)
    assert solve_all(g)[1] == 0.0
    assert_solve_all_is_bit_identical(g)


def walked_origins(monkeypatch, g):
    """Ids of the rows that ``solve_all(g)`` runs ``_walk`` from, in order."""
    walk, origins = propagate._walk, []

    def spy(origin, *args):
        origins.append(g.dense.ids[origin])
        return walk(origin, *args)

    monkeypatch.setattr(propagate, "_walk", spy)
    solve_all(g)
    monkeypatch.setattr(propagate, "_walk", walk)
    return origins


def test_solve_all_walks_in_one_loop(monkeypatch):
    # The walked row 5 gets a frame in origin 7's loop, so _walk runs
    # once per walked origin and never calls itself. Row 2 is an And whose
    # one interior parent, row 3, lies in its own block {2, 3}: it is
    # absorbed, a closed-form step over row 3's value, and is not walked.
    assert walked_origins(monkeypatch, touched_exit_graph()) == [3, 4, 5, 6, 7]


def and_cycle():
    """The And rows 10 <- 13 <- 12 <- 11 <- 10 form one simple cycle, so
    every row is absorbed and each chain runs against id order. Leaf 0-3
    feed one row each, and leaf 20 feeds row 10 after its parent 13."""
    nodes = [Node(v, L, "", 0.25 * (v + 1)) for v in range(4)] + [Node(20, L, "", 0.35)]
    nodes += [Node(v, A, "", 0.9) for v in range(10, 14)]
    edges = [(v, v + 10) for v in range(4)] + [(20, 10), (13, 12), (12, 11), (11, 10), (10, 13)]
    return AttackGraph(nodes, edges)


def test_solve_all_walks_one_row_of_an_and_cycle(monkeypatch):
    # Every row of the cycle is absorbed, so the first one is walked and
    # every chain of absorbed rows must stop there: each other row takes
    # one closed-form step, parent first. The alarm turns a chain that
    # never ends into a failure.
    g = and_cycle()
    closed_form, steps = propagate._closed_form, []

    def spy(d, v, values):
        steps.append(d.ids[v])
        return closed_form(d, v, values)

    def alarm(signum, frame):
        raise TimeoutError("solve_all did not resolve the absorbed rows")

    monkeypatch.setattr(propagate, "_closed_form", spy)
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        assert walked_origins(monkeypatch, g) == [10]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert steps == [13, 12, 11]
    assert_solve_all_is_bit_identical(g)


def test_solve_all_walks_an_and_self_loop_once(monkeypatch):
    g = AttackGraph([Node(0, L, "", 0.5), Node(1, A, "", 0.9)], [(0, 1), (1, 1)])
    assert walked_origins(monkeypatch, g) == [1]
    assert solve_all(g)[1] == 0.0
    assert_solve_all_is_bit_identical(g)


def test_solve_all_absorbs_an_or_row_with_one_parent(monkeypatch):
    # In the cycle 2 -> 3 -> 4 -> 5 -> 2 the Or row 3 has the one parent
    # 2 and is absorbed; the Or row 5 has the leaf 1 beside its parent 4,
    # so read from 4 it contributes 0.25 * 0.8, not 0, and is walked. Row
    # 4 is an absorbed And, and row 2 has two interior parents.
    nodes = [Node(0, L, "", 0.5), Node(1, L, "", 0.25)]
    nodes += [Node(2, A, "", 0.9), Node(3, O, "", 0.7), Node(4, A, "", 0.6), Node(5, O, "", 0.8)]
    nodes += [Node(6, O, "", 0.95)]
    edges = [(0, 6), (6, 2), (2, 3), (3, 4), (0, 4), (4, 5), (1, 5), (5, 2)]
    g = AttackGraph(nodes, edges)
    assert walked_origins(monkeypatch, g) == [2, 5]
    assert_solve_all_is_bit_identical(g)


def network_graph():
    """A MulVAL-style network: four hosts in the subnets {0, 2} and {1, 3},
    linked across by 0 -> 1 and 3 -> 2. Leaf 0 is a certain
    ``attackerLocated`` that reaches subnet 0, and each host h has two
    ``vulExists(h, v)`` leaves and an Or ``execCode(h)``. Every link (a, b)
    and vulnerability v of b gives an And ``exploit(a, b, v)`` fed by
    ``execCode(a)`` and ``vulExists(b, v)``, feeding ``execCode(b)``."""
    hosts, vulns = range(4), range(2)
    links = [(a, b) for a in hosts for b in hosts if a != b and a % 2 == b % 2]
    links += [(0, 1), (3, 2)]
    nodes = [Node(0, L, "attackerLocated", 1.0)]
    vul = {(h, v): 1 + 2 * h + v for h in hosts for v in vulns}
    nodes += [Node(i, L, f"vulExists({h},{v})", (0.35, 0.61, 0.71)[i % 3]) for (h, v), i in vul.items()]
    exec_code = {h: 9 + h for h in hosts}
    nodes += [Node(i, O, f"execCode({h})", 1.0) for h, i in exec_code.items()]
    edges, feeds = [], [(0, "attacker", b) for b in hosts if b % 2 == 0]
    feeds += [(exec_code[a], a, b) for a, b in links]
    for row, a, b in feeds:
        for v in vulns:
            e = len(nodes)
            nodes.append(Node(e, A, f"exploit({a},{b},{v})", 0.8))
            edges += [(row, e), (vul[b, v], e), (e, exec_code[b])]
    return AttackGraph(nodes, edges), sorted(exec_code.values())


def test_solve_all_walks_only_the_or_rows_of_a_network(monkeypatch):
    # each exploit inside the hosts' one cyclic block is absorbed into the
    # execCode row that feeds it; the attacker's exploits are closed
    g, or_rows = network_graph()
    assert walked_origins(monkeypatch, g) == or_rows
    assert_solve_all_is_bit_identical(g)


def test_solve_all_pins_its_walks_on_a_generated_graph(monkeypatch):
    # 337 rows lie on cycles and 353 rows are not closed; the absorbed And
    # rows and single-parent Or rows among them take a closed-form step
    # instead of a walk
    g = generate(GenParams(n=1000, cyclicity=100, seed=0))
    assert len(walked_origins(monkeypatch, g)) == 171


@pytest.mark.parametrize("cyclicity", [0, 40, 100])
def test_solve_all_is_bit_identical_on_generated_graphs(cyclicity):
    for seed in range(3):
        assert_solve_all_is_bit_identical(
            generate(GenParams(n=1000, cyclicity=cyclicity, seed=seed))
        )
