"""Acceptance suite: one test per contract criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
enforces its stated runtime budget. Run with::

    pytest tests/test_acceptance.py -v -s
"""

import random
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cybag.bayes import brute_force_marginal, eliminate
from cybag.circuit import reachability_exact
from cybag.classify import CycleType, classify_all, classify_cycle, closing_edge
from cybag.cli import run
from cybag.formats import fixture_path, load_fixture
from cybag.generator import GenParams, bench, cyclic_or_fraction, generate
from cybag.graph import (
    AttackGraph,
    Node,
    NodeKind,
    find_cycles,
    is_loop_free,
    topological_order,
)
from cybag.propagate import solve_all, solve_node
from cybag.scoring import (
    Complexity,
    ComplexityScore,
    apply_scores,
    import_feed,
    probability_from_complexity,
)


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"[criterion {number:2d}] FAIL {label} ({elapsed:.2f}s over {budget}s budget)")
        raise AssertionError(f"criterion {number} exceeded {budget}s: {elapsed:.2f}s")
    extra = f" ({elapsed:.2f}s, budget {budget:g}s)" if budget else f" ({elapsed:.2f}s)"
    print(f"[criterion {number:2d}] PASS {label}{extra}")


def _random_forest(seed: int, n: int) -> AttackGraph:
    """Loop-free sample: orient a random tree, occasionally dropping edges
    so genuine forests (and isolated leaves) appear too."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        if rng.random() < 0.15:
            continue
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    has_parent = {dst for _, dst in edges}
    nodes = [
        Node(
            v,
            NodeKind.LEAF
            if v not in has_parent
            else rng.choice((NodeKind.AND, NodeKind.OR)),
            f"n{v}",
            round(rng.uniform(0.05, 0.95), 3),
        )
        for v in range(n)
    ]
    return AttackGraph(nodes, edges)


def _loopy_acyclic_suite(count: int, max_n: int = 26):
    """Acyclic generator-wired graphs that contain loops; deterministic."""
    graphs = []
    seed = 0
    while len(graphs) < count:
        seed += 1
        if seed > 50 * count:
            raise AssertionError("could not assemble the loopy-graph suite")
        n = 5 + (seed * 7) % (max_n - 4)
        g = generate(GenParams(n=n, cyclicity=0, seed=seed))
        if not is_loop_free(g):
            graphs.append(g)
    return graphs


def test_criterion_01_three_engine_agreement_on_fig5():
    with criterion(1, "three engines agree on fig5.json: P(node 2) = 0.336", 1.0):
        g = load_fixture("fig5.json")
        expected = 0.336
        assert abs(solve_node(g, 2) - expected) <= 1e-9
        assert abs(eliminate(g, 2) - expected) <= 1e-9
        assert abs(reachability_exact(g, 2).probability - expected) <= 1e-9


def test_criterion_02_loop_free_exactness():
    with criterion(2, "loop-free: max |propagation - VE| <= 1e-9 on 200 forests", 30.0):
        worst = 0.0
        for i in range(200):
            g = _random_forest(1000 + i, 2 + (i * 5) % 25)
            assert is_loop_free(g)
            probs = solve_all(g)
            for v in g.node_ids:
                worst = max(worst, abs(probs[v] - eliminate(g, v)))
        assert worst <= 1e-9, f"worst per-node deviation {worst}"


def test_criterion_03_mean_error_on_loopy_acyclic_graphs():
    with criterion(3, "loopy acyclic: mean |propagation - VE| <= 0.02 on 200 graphs", 120.0):
        errors = []
        for g in _loopy_acyclic_suite(200):
            probs = solve_all(g)
            errors.extend(abs(probs[v] - eliminate(g, v)) for v in g.node_ids)
        mean_error = sum(errors) / len(errors)
        print(f"    mean error {mean_error:.4f} over {len(errors)} node values")
        assert mean_error <= 0.02


def test_criterion_04_circuit_equals_ve_on_acyclic():
    with criterion(4, "circuit exact == VE (1e-9) on 100 acyclic graphs <= 18 nodes", 300.0):
        for i in range(100):
            g = generate(GenParams(n=5 + i % 14, cyclicity=0, seed=5000 + i))
            for v in g.node_ids:
                delta = abs(reachability_exact(g, v).probability - eliminate(g, v))
                assert delta <= 1e-9, f"graph seed {5000 + i}, node {v}: {delta}"


def test_criterion_05_shared_dependency_discrepancy():
    with criterion(5, "diamond: propagation 0.75 vs exact 0.5; direction surveyed"):
        g = load_fixture("diamond.json")
        assert abs(solve_node(g, 3) - 0.75) <= 1e-9
        assert abs(eliminate(g, 3) - 0.5) <= 1e-9
        assert abs(brute_force_marginal(g, 3) - 0.5) <= 1e-9
        assert abs(reachability_exact(g, 3).probability - 0.5) <= 1e-9
        assert solve_node(g, 3) >= eliminate(g, 3)

        # Direction survey over the first 100 graphs of the criterion-3
        # suite, at the deepest sink. The overshoot direction is guaranteed
        # only for leaf-level sharing, so counterexamples are recorded and
        # listed, not asserted.
        counterexamples = []
        for g in _loopy_acyclic_suite(100):
            sinks = sorted(set(g.node_ids) - {src for src, _ in g.edges})
            q = max(sinks)
            algo = solve_node(g, q)
            ve = eliminate(g, q)
            if algo < ve - 1e-12:
                counterexamples.append((len(g.nodes), q, algo, ve))
        held = 100 - len(counterexamples)
        print(f"    direction algorithm >= VE held on {held}/100 sink queries")
        for n, q, algo, ve in counterexamples:
            print(f"    counterexample: n={n} sink={q} algorithm={algo:.4f} ve={ve:.4f}")


def test_criterion_06_monotone_convergence():
    with criterion(6, "10,000 trajectories monotone with fixed point k* <= n", 120.0):
        rng = np.random.default_rng(77)
        per_graph = 500
        for i in range(20):
            n = 40 + (i * 13) % 161  # up to 200
            g = generate(GenParams(n=n, cyclicity=(25, 50, 100)[i % 3], seed=300 + i))
            ids = list(g.node_ids)
            index = {v: k for k, v in enumerate(ids)}
            parents = [tuple(index[p] for p in g.parents[v]) for v in ids]
            is_or = [g.kind(v) is NodeKind.OR for v in ids]
            probs = np.array([g.local_prob(v) for v in ids])
            bits = rng.random((len(ids), per_graph)) < probs[:, None]

            values = np.zeros((len(ids), per_graph), dtype=bool)
            k_star = None
            for k in range(1, len(ids) + 2):
                new = np.empty_like(values)
                for j in range(len(ids)):
                    if is_or[j]:
                        fed = np.zeros(per_graph, dtype=bool)
                        for p in parents[j]:
                            fed |= values[p]
                    else:
                        fed = np.ones(per_graph, dtype=bool)
                        for p in parents[j]:
                            fed &= values[p]
                    new[j] = fed & bits[j]
                dropped = values & ~new
                assert not dropped.any(), "trajectory lost a 1-bit"
                if (new == values).all():
                    k_star = k - 1
                    break
                values = new
            assert k_star is not None and k_star <= len(ids)


def test_criterion_07_cycle_classification_fixtures():
    with criterion(7, "type fixtures classify 1/2/3; back-edge removal effects", 30.0):
        t1 = load_fixture("type1.json")
        (c1,) = find_cycles(t1)
        assert classify_cycle(t1, c1).cycle_type is CycleType.TYPE1

        t2 = load_fixture("type2.json")
        (c2,) = find_cycles(t2)
        assert classify_cycle(t2, c2, target=3).cycle_type is CycleType.TYPE2
        edge2 = closing_edge(t2, c2)
        before = reachability_exact(t2, 3).probability
        after = reachability_exact(t2.without_edge(*edge2), 3).probability
        assert abs(before - after) <= 1e-12

        t3 = load_fixture("type3.json")
        (c3,) = find_cycles(t3)
        report = classify_cycle(t3, c3, target=3)
        assert report.cycle_type is CycleType.TYPE3
        assert report.witness is not None
        edge3 = closing_edge(t3, c3)
        before = reachability_exact(t3, 3).probability
        after = reachability_exact(t3.without_edge(*edge3), 3).probability
        assert abs(before - after) > 1e-12


def test_criterion_08_running_example_structure():
    with criterion(8, "running example: cycle {6,7,8,9,11,12,14,21} is Type 3 vs node 14", 5.0):
        g = load_fixture("running-example.json")
        cycles = find_cycles(g)
        assert any(c.node_set == {6, 7, 8, 9, 11, 12, 14, 21} for c in cycles)
        reports = classify_all(g, target=14)
        assert len(reports) == 1
        assert reports[0].cycle_type is CycleType.TYPE3


def test_criterion_09_generator_contract():
    with criterion(9, "generator: exact 500/350/150 ratio, cyclicity contract", 10.0):
        g = generate(GenParams(n=1000, cyclicity=0, seed=900))
        counts = {kind: 0 for kind in NodeKind}
        for node in g.nodes:
            counts[node.kind] += 1
        assert counts[NodeKind.LEAF] == 500
        assert counts[NodeKind.AND] == 350
        assert counts[NodeKind.OR] == 150
        assert topological_order(g) is not None

        g100 = generate(GenParams(n=1000, cyclicity=100, seed=901))
        assert cyclic_or_fraction(g100) == 1.0
        for c in (5, 25, 100):
            gc = generate(GenParams(n=1000, cyclicity=c, seed=902))
            assert cyclic_or_fraction(gc) >= c / 100.0


def test_criterion_10_scaling_shape():
    with criterion(10, "scaling: log-log slope <= 2.3; cyclic slower than acyclic", 600.0):
        sizes = [500, 1000, 2000, 4000]
        rows = bench(sizes, [0, 100], replicates=3, seed=42)
        medians: dict[tuple[int, float], float] = {}
        for n in sizes:
            for c in (0.0, 100.0):
                times = [
                    r.wall_time_seconds
                    for r in rows
                    if r.n == n and r.cyclicity == c
                ]
                medians[(n, c)] = statistics.median(times)
        slope = np.polyfit(
            np.log([float(n) for n in sizes]),
            np.log([medians[(n, 100.0)] for n in sizes]),
            1,
        )[0]
        print(f"    median times at c=100: "
              + ", ".join(f"n={n}: {medians[(n, 100.0)]:.3f}s" for n in sizes))
        print(f"    log-log slope {slope:.2f}")
        assert slope <= 2.3
        assert medians[(2000, 100.0)] > medians[(2000, 0.0)]


def test_criterion_11_cvss_mapping():
    with criterion(11, "complexity table 0.71/0.61/0.61/0.35; feed applies to leaves", 1.0):
        assert probability_from_complexity(ComplexityScore(Complexity.LOW, 3)) == 0.71
        assert probability_from_complexity(ComplexityScore(Complexity.MEDIUM, 2)) == 0.61
        assert probability_from_complexity(ComplexityScore(Complexity.UNKNOWN, None)) == 0.61
        assert probability_from_complexity(ComplexityScore(Complexity.HIGH, 2)) == 0.35

        g = load_fixture("running-example.json")
        scored = apply_scores(g, import_feed(fixture_path("nvd-feed.json")))
        assert scored.local_prob(13) == 0.61
        assert scored.local_prob(18) == 0.35
        assert scored.local_prob(17) == 0.71


def test_criterion_12_deterministic_outputs(tmp_path):
    with criterion(12, "generate/solve/bench outputs byte-identical across runs", 60.0):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        gen = ["generate", "--n", "200", "--cyclicity", "40", "--seed", "7", "--out"]
        assert run(gen + [str(a)]) == 0
        assert run(gen + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        sa, sb = tmp_path / "sa.tsv", tmp_path / "sb.tsv"
        assert run(["solve", "--in", str(a), "--out", str(sa)]) == 0
        assert run(["solve", "--in", str(a), "--out", str(sb)]) == 0
        assert sa.read_bytes() == sb.read_bytes()

        ba, bb = tmp_path / "ba.csv", tmp_path / "bb.csv"
        bench_argv = ["bench", "--sizes", "50,100", "--cyclicities", "0,100",
                      "--reps", "2", "--seed", "3", "--out"]
        assert run(bench_argv + [str(ba)]) == 0
        assert run(bench_argv + [str(bb)]) == 0

        def strip_wall_time(path):
            lines = path.read_text().splitlines()
            header = lines[0].split(",")
            keep = [i for i, col in enumerate(header) if col != "wall_time_seconds"]
            return [",".join(line.split(",")[i] for i in keep) for line in lines]

        assert strip_wall_time(ba) == strip_wall_time(bb)
