"""Exact inference oracle: attack graph -> Bayesian network -> marginals.

An acyclic attack graph translates node-for-node into a Boolean Bayesian
network whose conditional tables are deterministic gates softened by the
local probability: a leaf is true with its local probability, an And node
is true with probability p only when all parents are true, an Or node is
true with probability p when at least one parent is true.

:func:`eliminate` computes exact marginals by sum-product variable
elimination over dense numpy factors, and :func:`brute_force_marginal`
re-derives the same number by enumerating the full joint, so the two can
cross-check each other. Both are oracles for small graphs only; variable
elimination refuses to materialize tables wider than ``WIDTH_LIMIT``
parents and brute force is capped at 24 variables.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadOrderError,
    GraphCyclicError,
    TooLargeError,
    UnknownNodeError,
    WidthLimitError,
)
from .graph import AttackGraph, NodeKind, topological_order

WIDTH_LIMIT = 20
BRUTE_FORCE_LIMIT = 24


@dataclass(frozen=True)
class Factor:
    """Dense table over a set of Boolean variables.

    ``scope`` is ascending and ``table`` has one binary axis per scope
    variable, in scope order.
    """

    scope: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        if tuple(sorted(self.scope)) != self.scope:
            raise ValueError("factor scope must be ascending")
        if self.table.shape != (2,) * len(self.scope):
            raise ValueError("table shape does not match scope")

    def multiply(self, other: "Factor") -> "Factor":
        scope = tuple(sorted(set(self.scope) | set(other.scope)))
        # both scopes are ascending subsequences of the union, so a
        # reshape with singleton axes lines everything up for broadcasting
        mine = self.table.reshape([2 if v in self.scope else 1 for v in scope])
        theirs = other.table.reshape([2 if v in other.scope else 1 for v in scope])
        return Factor(scope, mine * theirs)

    def sum_out(self, var: int) -> "Factor":
        axis = self.scope.index(var)
        return Factor(
            self.scope[:axis] + self.scope[axis + 1 :], self.table.sum(axis=axis)
        )


@dataclass(frozen=True)
class Cpt:
    """Conditional table for one variable, kept procedural until needed.

    Wide gates (many parents) stay symbolic; :meth:`to_factor` refuses to
    materialize more than ``WIDTH_LIMIT`` parent axes.
    """

    var: int
    parents: tuple[int, ...]
    kind: NodeKind
    prob: float

    def to_factor(self) -> Factor:
        k = len(self.parents)
        if k > WIDTH_LIMIT:
            raise WidthLimitError(
                f"node {self.var} has {k} parents; tables wider than "
                f"{WIDTH_LIMIT} are not materialized"
            )
        if self.kind is NodeKind.AND:
            p1 = np.zeros((2,) * k)
            p1[(1,) * k] = self.prob
        elif self.kind is NodeKind.OR:
            p1 = np.full((2,) * k, self.prob)
            p1[(0,) * k] = 0.0
        else:
            p1 = np.array(self.prob)
        scope = tuple(sorted(self.parents + (self.var,)))
        var_axis = bisect_left(self.parents, self.var)
        table = np.stack([1.0 - p1, p1], axis=var_axis)
        return Factor(scope, table)


@dataclass(frozen=True)
class BayesNet:
    variables: tuple[int, ...]
    cpts: Mapping[int, Cpt]


def to_bayes_net(graph: AttackGraph) -> BayesNet:
    """Translate an acyclic attack graph into its Bayesian network."""
    if topological_order(graph) is None:
        raise GraphCyclicError("only acyclic graphs translate to a Bayesian network")
    cpts = {
        n.id: Cpt(n.id, graph.parents[n.id], n.kind, n.local_prob)
        for n in graph.nodes
    }
    return BayesNet(tuple(graph.node_ids), cpts)


def elimination_order(bn: BayesNet, query: int) -> list[int]:
    """Greedy min-degree order over the moralized graph, smallest id first."""
    if query not in bn.cpts:
        raise UnknownNodeError(f"query variable {query} is not in the network")
    adj: dict[int, set[int]] = {v: set() for v in bn.variables}
    for cpt in bn.cpts.values():
        clique = cpt.parents + (cpt.var,)
        for a in clique:
            for b in clique:
                if a != b:
                    adj[a].add(b)
    order: list[int] = []
    remaining = set(bn.variables) - {query}
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u] & remaining), u))
        order.append(v)
        neighbors = adj[v] & remaining
        for a in neighbors:
            adj[a].update(neighbors - {a})
        remaining.remove(v)
    return order


def eliminate(
    bn: BayesNet, query: int, order: Sequence[int] | None = None
) -> float:
    """Exact marginal P(query = 1) by sum-product variable elimination.

    The result does not depend on the order; a custom one must be a
    permutation of the remaining variables or :class:`BadOrderError` is
    raised.
    """
    if query not in bn.cpts:
        raise UnknownNodeError(f"query variable {query} is not in the network")
    if order is None:
        order = elimination_order(bn, query)
    else:
        order = list(order)
        if sorted(order) != sorted(set(bn.variables) - {query}):
            raise BadOrderError(
                "order must be a permutation of the non-query variables"
            )

    factors = [bn.cpts[v].to_factor() for v in bn.variables]
    for var in order:
        involved = [f for f in factors if var in f.scope]
        if not involved:
            continue
        product = involved[0]
        for f in involved[1:]:
            product = product.multiply(f)
        factors = [f for f in factors if var not in f.scope] + [product.sum_out(var)]

    result = factors[0]
    for f in factors[1:]:
        result = result.multiply(f)
    table = result.table.reshape(2)
    total = float(table[0] + table[1])
    return float(table[1]) / total


def brute_force_marginal(bn: BayesNet, query: int) -> float:
    """P(query = 1) by enumerating every joint assignment.

    Wholly independent of the elimination machinery; limited to
    ``BRUTE_FORCE_LIMIT`` variables.
    """
    if query not in bn.cpts:
        raise UnknownNodeError(f"query variable {query} is not in the network")
    n = len(bn.variables)
    if n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(
            f"{n} variables exceed the {BRUTE_FORCE_LIMIT}-variable enumeration limit"
        )
    m = 1 << n
    pos = {v: i for i, v in enumerate(bn.variables)}
    idx = np.arange(m, dtype=np.int64)
    bits = {v: ((idx >> pos[v]) & 1).astype(bool) for v in bn.variables}

    joint = np.ones(m)
    for v in bn.variables:
        cpt = bn.cpts[v]
        if cpt.kind is NodeKind.LEAF:
            p1 = np.array(cpt.prob)
        elif cpt.kind is NodeKind.AND:
            gate = np.ones(m, dtype=bool)
            for p in cpt.parents:
                gate &= bits[p]
            p1 = np.where(gate, cpt.prob, 0.0)
        else:
            gate = np.zeros(m, dtype=bool)
            for p in cpt.parents:
                gate |= bits[p]
            p1 = np.where(gate, cpt.prob, 0.0)
        joint *= np.where(bits[v], p1, 1.0 - p1)
    return math.fsum(joint[bits[query]].tolist())
