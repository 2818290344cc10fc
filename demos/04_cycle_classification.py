"""Telling harmless cycles from load-bearing ones.

Three behaviours cover every cycle. Type 1: some node on the cycle can
never fire, so the whole cycle is dead. Type 2 (relative to a target):
the cycle never lights up before the target does, so cutting it would not
change the target's probability. Type 3: some instantiation reaches the
cycle first, so the cycle genuinely feeds the target and must stay.

The solver itself never needs this distinction; classification exists to
explain graphs and to justify (or veto) edge-removal in other tools.
"""

from cybag import (
    CycleType,
    Instantiation,
    classify_all,
    classify_cycle,
    closing_edge,
    find_cycles,
    load_fixture,
    reachability_exact,
)
from cybag.circuit import first_hit_ticks

for name in ("type1.json", "type2.json", "type3.json"):
    g = load_fixture(name)
    (cycle,) = find_cycles(g)
    report = classify_cycle(g, cycle, target=3 if name != "type1.json" else None)
    print(f"{name}: cycle {cycle.nodes} -> {report.cycle_type.name}")
    if report.witness:
        inst, node, k = report.witness
        on_bits = sorted(v for v, bit in inst.bits.items() if bit)
        print(f"  witness: inputs {on_bits} light node {node} by tick {k},"
              f" before the target")

# First-hit times are the mechanism behind the classification: simulate
# one instantiation and note when each node first turns on.
g3 = load_fixture("type3.json")
inst = Instantiation({v: (1 if v != 1 else 0) for v in g3.node_ids})
hits = dict(zip(g3.node_ids, first_hit_ticks(g3, inst)))
print("\nfirst-hit times with the main entry disabled:", hits)

# Edge removal is only safe on Type 2. Watch the target probability.
for name in ("type2.json", "type3.json"):
    g = load_fixture(name)
    (cycle,) = find_cycles(g)
    edge = closing_edge(g, cycle)
    before = reachability_exact(g, 3).probability
    after = reachability_exact(g.without_edge(*edge), 3).probability
    print(f"{name}: cut {edge}: P(3) {before:.3f} -> {after:.3f}")

# The realistic cyclic graph: its one cycle is Type 3 with respect to the
# workstation-compromise node, so no edge may be removed.
g = load_fixture("running-example.json")
(report,) = classify_all(g, target=14)
assert report.cycle_type is CycleType.TYPE3
print("\nrunning example:", report.cycle.nodes, "->", report.cycle_type.name)
