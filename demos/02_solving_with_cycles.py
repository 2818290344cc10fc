"""Access probabilities on graphs that contain cycles.

Scanner-built attack graphs routinely contain directed cycles (gaining a
privilege opens a route back to a vulnerability that was already usable).
Classic solvers require removing edges first; the recursive solver here
works on the graph as-is. Each node's computation keeps its own visited
set, so a cycle simply stops contributing the second time it is seen.
"""

from cybag import (
    AttackGraph,
    Node,
    NodeKind,
    load_fixture,
    solve_acyclic_closed_form,
    solve_all,
    solve_node,
)

# The smallest interesting cycle: two states feeding each other, with one
# real entry point.
two_cycle = AttackGraph(
    [
        Node(0, NodeKind.LEAF, "entry", 0.5),
        Node(1, NodeKind.OR, "state a", 1.0),
        Node(2, NodeKind.OR, "state b", 1.0),
    ],
    [(0, 1), (2, 1), (1, 2)],
)
# state b can only be reached through state a, so its probability is the
# entry probability; the cycle does not inflate anything.
print("state a:", solve_node(two_cycle, 1))
print("state b:", solve_node(two_cycle, 2))

# A realistic cyclic example: workstations, a webserver and a database
# server. Node 14 sits on a cycle (a compromised webserver can serve the
# malicious page that compromises workstations, and vice versa).
g = load_fixture("running-example.json")
probs = solve_all(g)
for v in (14, 6, 8, 1):
    print(f"P(node {v:2d}) = {probs[v]:.4f}  {g.node(v).label}")

# On acyclic graphs there is a single-pass evaluator; it matches the
# recursive solver exactly when the graph is also loop-free.
tree = AttackGraph(
    [
        Node(0, NodeKind.LEAF, "", 0.7),
        Node(1, NodeKind.LEAF, "", 0.8),
        Node(2, NodeKind.AND, "", 0.6),
    ],
    [(0, 2), (1, 2)],
)
print("closed form:", solve_acyclic_closed_form(tree))
print("recursive:  ", solve_all(tree))
