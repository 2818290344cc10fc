import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import attack_graphs, reference_run

from cybag import circuit
from cybag.bayes import eliminate
from cybag.circuit import (
    CHUNK_BUDGET_BYTES,
    CircuitState,
    Instantiation,
    _index_bits,
    _trajectory,
    chunk_columns,
    first_hit_ticks,
    fixed_point,
    reachability_exact,
    reachability_mc,
    step,
)
from cybag.classify import CycleType, classify_cycles
from cybag.errors import TooLargeError, UnknownNodeError
from cybag.formats import load_fixture
from cybag.generator import GenParams, generate
from cybag.graph import AttackGraph, Node, NodeKind, find_cycles, is_loop_free
from cybag.propagate import solve_node

L, A, O = NodeKind.LEAF, NodeKind.AND, NodeKind.OR


def all_ones(graph):
    return Instantiation({v: 1 for v in graph.node_ids})


def all_zeros(graph):
    return Instantiation({v: 0 for v in graph.node_ids})


def zero_state(graph):
    return CircuitState({v: 0 for v in graph.node_ids}, 0)


def test_single_leaf_copies_its_input():
    g = AttackGraph([Node(0, L, "", 0.5)], [])
    s1 = step(g, zero_state(g), Instantiation({0: 1}))
    assert s1.values == {0: 1}
    s1 = step(g, zero_state(g), Instantiation({0: 0}))
    assert s1.values == {0: 0}


def test_or_gate_conjoins_its_prime():
    g = AttackGraph(
        [Node(0, L, "", 1.0), Node(1, L, "", 1.0), Node(2, O, "", 1.0)],
        [(0, 2), (1, 2)],
    )
    ready = CircuitState({0: 1, 1: 0, 2: 0}, 1)
    assert step(g, ready, Instantiation({0: 1, 1: 1, 2: 1})).values[2] == 1
    assert step(g, ready, Instantiation({0: 1, 1: 1, 2: 0})).values[2] == 0


def test_step_hand_simulation(fig5):
    inst = all_ones(fig5)
    s1 = step(fig5, zero_state(fig5), inst)
    assert s1.values == {0: 1, 1: 1, 2: 0} and s1.iteration == 1
    s2 = step(fig5, s1, inst)
    assert s2.values == {0: 1, 1: 1, 2: 1}


def test_step_prime_zero_pins_node(fig5):
    inst = Instantiation({0: 1, 1: 1, 2: 0})
    state = zero_state(fig5)
    for _ in range(5):
        state = step(fig5, state, inst)
        assert state.values[2] == 0


def test_step_fixed_point_is_fixed(fig5):
    inst = all_ones(fig5)
    state, _ = fixed_point(fig5, inst)
    assert step(fig5, state, inst).values == dict(state.values)


def test_step_rejects_mismatched_domain(fig5):
    with pytest.raises(ValueError):
        step(fig5, zero_state(fig5), Instantiation({0: 1}))


def test_fixed_point_all_ones(fig5):
    state, k_star = fixed_point(fig5, all_ones(fig5))
    assert state.values == {0: 1, 1: 1, 2: 1}
    assert k_star == 2


def test_instantiations_and_states_hash_by_value(fig5):
    state, _ = fixed_point(fig5, all_ones(fig5))
    assert len({state, CircuitState(dict(state.values), state.iteration)}) == 1
    assert len({all_ones(fig5), all_ones(fig5), all_zeros(fig5)}) == 2


def test_fixed_point_all_zeros(fig5):
    state, k_star = fixed_point(fig5, all_zeros(fig5))
    assert set(state.values.values()) == {0}
    assert k_star in (0, 1)


def test_fixed_point_enters_cycle(two_cycle):
    state, k_star = fixed_point(two_cycle, all_ones(two_cycle))
    assert state.values == {0: 1, 1: 1, 2: 1}
    assert k_star <= 3


def test_reachability_exact_values(fig5, diamond):
    assert reachability_exact(diamond, 3).probability == pytest.approx(0.5, abs=1e-12)
    est = reachability_exact(fig5, 2)
    assert est.probability == pytest.approx(0.336, abs=1e-12)
    assert est.method == "exact"
    assert est.std_error == 0.0
    assert est.samples == 8


def test_reachability_exact_leaf_identity():
    g = AttackGraph([Node(0, L, "", 0.37)], [])
    assert reachability_exact(g, 0).probability == pytest.approx(0.37)


def test_reachability_exact_too_large():
    g = AttackGraph([Node(v, L, "", 0.5) for v in range(25)], [])
    with pytest.raises(TooLargeError):
        reachability_exact(g, 0)


def test_reachability_unknown_node(fig5):
    with pytest.raises(UnknownNodeError):
        reachability_exact(fig5, 9)
    with pytest.raises(UnknownNodeError):
        reachability_mc(fig5, 9, 10, 0)


def test_reachability_mc_diamond(diamond):
    exact = reachability_exact(diamond, 3).probability
    for seed in (1, 2, 3):
        est = reachability_mc(diamond, 3, 100_000, seed)
        assert est.method == "monte-carlo"
        assert abs(est.probability - exact) <= 4 * est.std_error + 1e-9


def test_reachability_mc_degenerate_leaf():
    g = AttackGraph([Node(0, L, "", 1.0)], [])
    est = reachability_mc(g, 0, 500, 7)
    assert est.probability == 1.0
    assert est.std_error == 0.0


def test_reachability_mc_deterministic(diamond):
    a = reachability_mc(diamond, 3, 5000, 42)
    b = reachability_mc(diamond, 3, 5000, 42)
    assert a == b


def test_trajectories_monotone_and_bounded():
    graphs = [
        load_fixture("type3.json"),
        load_fixture("running-example.json"),
        generate(GenParams(n=50, cyclicity=100, seed=2)),
    ]
    for g in graphs:
        n = len(g.node_ids)
        import random

        rng = random.Random(0)
        for _ in range(20):
            inst = Instantiation({v: rng.randint(0, 1) for v in g.node_ids})
            state = CircuitState({v: 0 for v in g.node_ids}, 0)
            for k in range(n + 1):
                nxt = step(g, state, inst)
                for v in g.node_ids:
                    assert nxt.values[v] >= state.values[v]
                if nxt.values == state.values:
                    break
                state = nxt
            assert state.iteration <= n


def test_exact_matches_ve_on_acyclic_graphs():
    for seed in range(10):
        g = generate(GenParams(n=5 + seed, cyclicity=0, seed=seed))
        for v in g.node_ids:
            assert reachability_exact(g, v).probability == pytest.approx(
                eliminate(g, v), abs=1e-10
            )


def test_exact_matches_propagation_on_loop_free(forest_builder):
    for seed in range(8):
        g = forest_builder(seed + 50, 4 + seed)
        assert is_loop_free(g)
        for v in g.node_ids:
            assert reachability_exact(g, v).probability == pytest.approx(
                solve_node(g, v), abs=1e-10
            )


def test_exact_well_defined_on_cyclic_fixtures():
    for name in ("type1.json", "type2.json", "type3.json", "running-example.json"):
        g = load_fixture(name)
        for v in g.node_ids:
            p = reachability_exact(g, v).probability
            assert 0.0 <= p <= 1.0


def assert_engine_matches_reference(g):
    """Every instantiation of every primed input, all in one engine run:
    bit c of row i's packed input is bit i of instantiation c. At every
    tick the packed state equals :func:`step`'s state in every column."""
    c = g.dense
    n = len(c.ids)
    cols = range(1 << n)
    primes = [sum(1 << k for k in cols if k >> i & 1) for i in range(n)]
    insts = [Instantiation({v: primes[i] >> k & 1 for i, v in enumerate(c.ids)}) for k in cols]
    states = [CircuitState({v: 0 for v in c.ids}, 0) for _ in cols]
    ticks = [[None] * len(cols) for _ in range(n)]
    previous = [0] * n
    for tick, (cells, on) in enumerate(_trajectory(c, primes), 1):
        states = [step(g, state, inst) for state, inst in zip(states, insts)]
        for k, state in enumerate(states):
            assert {v: cells[i] >> k & 1 for i, v in enumerate(c.ids)} == state.values
        # each row that changed, once, with its new state
        assert sorted(i for i, _ in on) == [i for i in range(n) if cells[i] != previous[i]]
        for i, now in on:
            assert now == cells[i]
            turned = now & ~previous[i]
            for k in cols:
                if turned >> k & 1:
                    assert ticks[i][k] is None, "a bit turned on twice"
                    ticks[i][k] = tick
        previous = list(cells)
    values = circuit._least_fixed_point(c, primes)
    for k, inst in enumerate(insts):
        ref_values, ref_hits = reference_run(g, inst)
        assert ref_values == dict(fixed_point(g, inst)[0].values)
        assert {v: values[i] >> k & 1 for i, v in enumerate(c.ids)} == ref_values
        assert {v: ticks[i][k] for i, v in enumerate(c.ids)} == ref_hits, (g, inst)
        assert first_hit_ticks(g, inst) == [ref_hits[v] for v in c.ids]


@given(attack_graphs(max_nodes=7), st.data())
@settings(max_examples=80, deadline=None)
def test_engine_matches_step_semantics(g, data):
    gates = [v for v in g.node_ids if g.kind(v) is not L]
    loops = data.draw(st.lists(st.sampled_from(gates), unique=True)) if gates else []
    assert_engine_matches_reference(AttackGraph(g.nodes, g.edges + tuple((v, v) for v in loops)))


@pytest.mark.parametrize(
    "nodes, edges",
    [
        ([Node(0, L, "", 0.5), Node(1, O, "", 0.5)], []),  # Or without parents
        ([Node(0, A, "", 0.5), Node(1, O, "", 0.5)], [(0, 1)]),  # And without parents
        (  # all-And cycle that never fires
            [Node(0, L, "", 0.5), Node(1, A, "", 0.5), Node(2, A, "", 0.5), Node(3, A, "", 0.5)],
            [(0, 1), (1, 2), (2, 3), (3, 1)],
        ),
        (  # self-edges, built without validate
            [Node(0, L, "", 0.5), Node(1, O, "", 0.5), Node(2, A, "", 0.5)],
            [(0, 1), (1, 1), (1, 2), (2, 2)],
        ),
        (  # long Or chain closed into one cycle, fed at one end
            [Node(0, L, "", 0.5)] + [Node(v, O, "", 0.5) for v in range(1, 7)],
            [(0, 1)] + [(v, v + 1) for v in range(1, 6)] + [(6, 1)],
        ),
        ([Node(0, O, "", 0.5)], []),  # nothing ever turns on
    ],
)
def test_engine_edge_cases(nodes, edges):
    assert_engine_matches_reference(AttackGraph(nodes, edges))


def test_first_hit_ticks_count_past_every_fixed_width():
    # an Or chain of 300 nodes fires one node a tick, past the int8 range;
    # an Or without parents never fires
    chain = AttackGraph(
        [Node(0, L, "", 0.5)] + [Node(v, O, "", 0.5) for v in range(1, 301)],
        [(v, v + 1) for v in range(300)],
    )
    assert first_hit_ticks(chain, all_ones(chain)) == list(range(1, 302))
    lone = AttackGraph([Node(0, O, "", 0.5)], [])
    assert first_hit_ticks(lone, all_ones(lone)) == [None]


@pytest.mark.parametrize("m", [1, 2, 8, 64, 1 << 12])
def test_index_bits_pack_every_column_of_a_chunk(m):
    # chunk starts are multiples of the width: bits below log2(m) repeat in
    # the chunk, the others are constant over it
    for start in (0, m, 5 * m):
        fill = _index_bits(start, m)
        for j in range(14):
            expected = sum(1 << c for c in range(m) if (start + c) >> j & 1)
            assert fill(j, 0.5) == expected, (start, j)


def test_chunk_plan():
    # small graphs keep every instantiation of the benchmark size in one chunk
    assert chunk_columns(36, 1 << 18) == 1 << 18
    assert chunk_columns(36, 1 << 24) == 1 << 20
    # 900 nodes with 20 fractional inputs: the cell matrix stays in budget
    width = chunk_columns(900, 1 << 20)
    assert width == 1 << 16
    assert 900 * width <= CHUNK_BUDGET_BYTES < 900 * 2 * width
    assert chunk_columns(CHUNK_BUDGET_BYTES, 1 << 20) == 1


def test_chunk_plan_refuses_a_column_over_budget():
    with pytest.raises(TooLargeError):
        chunk_columns(CHUNK_BUDGET_BYTES + 1, 2)


def test_chunked_enumeration_and_sampling_agree(monkeypatch):
    g = load_fixture("running-example.json")
    exact = {v: reachability_exact(g, v).probability for v in g.node_ids}
    mc = reachability_mc(g, 14, 3000, 5)
    # 25 nodes at 8 columns a chunk: several chunks for both engines
    monkeypatch.setattr(circuit, "CHUNK_BUDGET_BYTES", 25 * 8)
    for v in g.node_ids:
        assert reachability_exact(g, v).probability == pytest.approx(exact[v], abs=1e-12)
    chunked = reachability_mc(g, 14, 3000, 5)
    assert chunked == reachability_mc(g, 14, 3000, 5)
    assert abs(chunked.probability - mc.probability) <= 4 * (mc.std_error + chunked.std_error)


def test_exact_enumeration_across_eight_chunks_matches_one_chunk(monkeypatch, engine_runs):
    # Every node is compared: a wrong column weight can spare the highest
    # one, whose value does not depend on the high-index inputs. Per-chunk
    # sums are summed again, which may round twice, so to 1e-12.
    g = generate(GenParams(n=30, cyclicity=100, seed=3))
    total = 1 << len(circuit._fractional_probs(g.dense))
    whole = {v: reachability_exact(g, v).probability for v in g.node_ids}
    monkeypatch.setattr(circuit, "CHUNK_BUDGET_BYTES", len(g.node_ids) * total // 8)
    chunks, _ = engine_runs
    for v in g.node_ids:
        chunks.clear()
        assert reachability_exact(g, v).probability == pytest.approx(whole[v], abs=1e-12), v
        assert chunks == [total // 8] * 8


def test_inputs_of_probability_zero_are_pinned_not_enumerated(engine_runs):
    # Leaf 0 has p = 0 and feeds the cycle {3, 4} and the And 6. Only the
    # leaves 1 and 2 are fractional, so there are 2^2 instantiations. The
    # target 5 turns on with leaf 1, as 3 does, so the cycle is Type 2
    # and classification enumerates all of them.
    g = AttackGraph(
        [Node(0, L, "", 0.0), Node(1, L, "", 0.5), Node(2, L, "", 0.25)]
        + [Node(v, O if v == 3 else A, "", 1.0) for v in (3, 4, 5, 6)],
        [(0, 3), (1, 3), (4, 3), (3, 4), (2, 4), (1, 5), (0, 6)],
    )
    exact = [reachability_exact(g, v) for v in g.node_ids]
    assert [e.probability for e in exact] == [0.0, 0.5, 0.25, 0.5, 0.125, 0.5, 0.0]
    assert {e.samples for e in exact} == {2**2}
    assert reachability_mc(g, 6, 1000, 3) == circuit.ReachEstimate(0.0, "monte-carlo", 1000, 0.0)
    assert reachability_mc(g, 0, 1000, 3).probability == 0.0
    chunks, _ = engine_runs
    chunks.clear()
    (report,) = classify_cycles(g, find_cycles(g), target=5)
    assert report.cycle_type is CycleType.TYPE2
    assert sum(chunks) == 2**2


def test_reachability_mc_sample_limit():
    g = AttackGraph([Node(0, L, "", 0.5)], [])
    with pytest.raises(TooLargeError):
        reachability_mc(g, 0, circuit.MC_SAMPLE_LIMIT + 1, 0)


def test_reachability_mc_pins_constant_inputs():
    # leaves 0 and 1 are the constants False and True and draw nothing, so
    # node 5 sees the same draws as the lone fractional leaf of ``alone``
    g = AttackGraph(
        [Node(0, L, "", 0.0), Node(1, L, "", 1.0), Node(2, L, "", 0.5),
         Node(3, A, "", 1.0), Node(4, O, "", 1.0), Node(5, A, "", 1.0)],
        [(0, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)],
    )
    alone = AttackGraph([Node(2, L, "", 0.5)], [])
    assert reachability_mc(g, 3, 3000, 4) == circuit.ReachEstimate(0.0, "monte-carlo", 3000, 0.0)
    assert reachability_mc(g, 4, 3000, 4).probability == 1.0
    assert reachability_mc(g, 5, 3000, 4) == reachability_mc(alone, 2, 3000, 4)


def test_reachability_mc_draws_within_the_chunk_budget(monkeypatch):
    import tracemalloc

    g = AttackGraph([Node(0, L, "", 0.5)], [])
    whole = reachability_mc(g, 0, 1 << 16, 5)
    # one chunk of 2^16 bool columns, each draw in pieces of 2^13 floats
    monkeypatch.setattr(circuit, "CHUNK_BUDGET_BYTES", 1 << 16)
    tracemalloc.start()
    try:
        split = reachability_mc(g, 0, 1 << 16, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split == whole
    # the packed row takes 2^13 bytes; an unsplit draw alone would hold 2^19
    assert peak < 5 << 16


def test_reachability_mc_draws_straight_into_the_cells(monkeypatch):
    import tracemalloc

    g = AttackGraph([Node(0, L, "", 0.5)], [])
    whole = reachability_mc(g, 0, 1 << 16, 5)
    monkeypatch.setattr(circuit, "CHUNK_BUDGET_BYTES", 1 << 16)
    least_fixed_point = circuit._least_fixed_point
    filled = []

    def spy(d, cells):
        filled.append(tracemalloc.get_traced_memory()[1])
        return least_fixed_point(d, cells)

    monkeypatch.setattr(circuit, "_least_fixed_point", spy)
    tracemalloc.start()
    try:
        split = reachability_mc(g, 0, 1 << 16, 5)
    finally:
        tracemalloc.stop()
    assert split == whole and len(filled) == 1
    # each piece of 2^9 draws is packed as it is drawn: until the chunk is
    # evaluated the draws have held the row's 2^13 packed bytes, the copy
    # that takes the next piece, and one piece of floats, never a row of
    # 2^16 bools
    assert filled[0] < 1 << 15


def test_reachability_never_builds_the_components():
    # the least fixed point is the trajectory's last state: no pass over
    # DenseIndex.blocks, so no Tarjan run, even on a cyclic graph
    g = load_fixture("running-example.json")
    reachability_exact(g, 14)
    reachability_mc(g, 14, 1 << 10, 0)
    assert "parents" in g.dense.__dict__ and "blocks" not in g.dense.__dict__


def test_reachability_mc_rejects_zero_samples():
    g = AttackGraph([Node(0, L, "", 0.5)], [])
    with pytest.raises(ValueError, match="samples"):
        reachability_mc(g, 0, 0, seed=0)


def test_empty_graph_enumerates_one_empty_chunk():
    # an empty cell matrix fits any budget; with no rows nothing ever turns on
    [(start, trajectory)] = circuit.enumerate_trajectories(AttackGraph([], []), 20)
    assert start == 0 and list(trajectory) == []
