"""Two exact engines, and where the fast solver is only an approximation.

An acyclic attack graph is also a Bayesian network over Boolean
variables, so exact marginals come from variable elimination. A second,
independent reading treats the graph as a combinational circuit with one
Bernoulli input per node: the probability that a node ever switches on is
its access probability, and that semantics works on cyclic graphs too.
"""

from cybag import (
    brute_force_marginal,
    eliminate,
    elimination_order,
    fixed_point,
    Instantiation,
    load_fixture,
    reachability_exact,
    reachability_mc,
    solve_node,
)

g = load_fixture("fig5.json")

# Three independent routes to the same number.
print("recursive solver:", solve_node(g, 2))
print("variable elimination:", eliminate(g, 2))
print("joint enumeration:", brute_force_marginal(g, 2))
print("circuit reachability:", reachability_exact(g, 2).probability)
print("elimination order used:", elimination_order(g, 2))

# The diamond shows the independence approximation at work: both routes
# depend on the same fact, the product formula counts it twice.
diamond = load_fixture("diamond.json")
print("\ndiamond, recursive:", solve_node(diamond, 3))  # 0.75
print("diamond, exact:", eliminate(diamond, 3))         # 0.50

# The circuit view: one primed input per node carries the probability;
# gates are deterministic. Iterate from all-zero until nothing changes.
inst = Instantiation({v: 1 for v in diamond.node_ids})
state, k_star = fixed_point(diamond, inst)
print("\nall-ones instantiation settles at k* =", k_star, "values", dict(state.values))

# Reachability also has a Monte Carlo estimator for graphs too large to
# enumerate; it is deterministic per seed and reports a binomial error.
est = reachability_mc(diamond, 3, samples=200_000, seed=1)
print(f"monte carlo: {est.probability:.4f} +- {est.std_error:.4f}")

# On cyclic graphs variable elimination is undefined, but the circuit
# semantics still answers.
cyclic = load_fixture("running-example.json")
print("\ncyclic graph, exact reachability of node 14:",
      round(reachability_exact(cyclic, 14).probability, 4))
