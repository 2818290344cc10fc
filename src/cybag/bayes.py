"""Exact inference oracle: marginals of an acyclic attack graph.

An acyclic attack graph is a Boolean Bayesian network, node for node, so
the network is read off the graph itself: there is no translation step.
Each node's conditional table (:func:`node_factor`) is a deterministic
gate softened by the local probability: a leaf is true with its local
probability, an And node is true with probability p only when all
parents are true, an Or node is true with probability p when at least
one parent is true. Cyclic graphs are not Bayesian networks and raise
:class:`GraphCyclicError`.

:func:`eliminate` computes exact marginals by sum-product bucket
elimination over dense numpy factors, and :func:`brute_force_marginal`
re-derives the same number by enumerating the full joint, so the two can
cross-check each other. Both are oracles for small graphs only; variable
elimination refuses every table wider than a ``WIDTH_LIMIT``-parent node
table, products included, and brute force is capped at 24 variables.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import namedtuple

import numpy as np

from .errors import GraphCyclicError, TooLargeError, WidthLimitError
from .graph import AttackGraph, NodeKind

WIDTH_LIMIT = 20
BRUTE_FORCE_LIMIT = 24


class Factor(namedtuple("Factor", "scope table")):
    """Dense table over a set of Boolean variables.

    ``scope`` is an ascending tuple and ``table`` a numpy array with one
    binary axis per scope variable, in scope order.
    """

    __slots__ = ()

    def __new__(cls, scope: tuple[int, ...], table: np.ndarray):
        if tuple(sorted(scope)) != scope:
            raise ValueError("factor scope must be ascending")
        if table.shape != (2,) * len(scope):
            raise ValueError("table shape does not match scope")
        return tuple.__new__(cls, (scope, table))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

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


def node_factor(graph: AttackGraph, v: int) -> Factor:
    """Conditional table of node ``v`` given its parents, as a factor.

    Wide gates stay symbolic: a table over more than ``WIDTH_LIMIT``
    parent axes is refused with :class:`WidthLimitError`.
    """
    node = graph.node(v)
    parents = graph.parents[v]
    k = len(parents)
    if k > WIDTH_LIMIT:
        raise WidthLimitError(
            f"node {v} has {k} parents; tables wider than "
            f"{WIDTH_LIMIT} are not materialized"
        )
    if node.kind is NodeKind.AND:
        p1 = np.zeros((2,) * k)
        p1[(1,) * k] = node.local_prob
    elif node.kind is NodeKind.OR:
        p1 = np.full((2,) * k, node.local_prob)
        p1[(0,) * k] = 0.0
    else:
        p1 = np.array(node.local_prob)
    scope = tuple(sorted(parents + (v,)))
    table = np.stack([1.0 - p1, p1], axis=bisect_left(parents, v))
    return Factor(scope, table)


def _require_acyclic(graph: AttackGraph) -> None:
    if any(cyclic for _, cyclic in graph.dense.blocks):
        raise GraphCyclicError("only acyclic graphs translate to a Bayesian network")


def elimination_order(graph: AttackGraph, query: int) -> list[int]:
    """Greedy min-degree order over the moralized graph, smallest id first.

    Degrees count only variables not yet eliminated, the query excluded.
    A heap keyed ``(degree, id)`` holds an entry per degree change;
    entries whose degree is stale are skipped when they surface.
    """
    graph.dense.row(query)
    adj: dict[int, set[int]] = {v: set() for v in graph.node_ids}
    for v, parents in graph.parents.items():
        clique = parents + (v,)
        for a in clique:
            adj[a].update(clique)
    for v, neighbors in adj.items():
        neighbors.discard(v)
        neighbors.discard(query)
    del adj[query]
    heap = [(len(neighbors), v) for v, neighbors in adj.items()]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        degree, v = heapq.heappop(heap)
        neighbors = adj.get(v)
        if neighbors is None or len(neighbors) != degree:
            continue
        order.append(v)
        del adj[v]
        for a in neighbors:
            fill = adj[a]
            fill.discard(v)
            fill.update(neighbors)
            fill.discard(a)
            heapq.heappush(heap, (len(fill), a))
    return order


def eliminate(graph: AttackGraph, query: int) -> float:
    """Exact marginal P(query = 1) by bucket elimination (Dechter 1999)
    over the min-degree :func:`elimination_order`.

    A factor waits in the bucket of its first variable in the order, or
    for the final product when its scope holds only the query. Each
    variable's bucket is multiplied left to right, the variable summed out
    and the result placed the same way. A product over more than
    ``WIDTH_LIMIT + 1`` variables is refused with :class:`WidthLimitError`
    before it is built.
    """
    _require_acyclic(graph)
    order = elimination_order(graph, query)
    rank = {v: i for i, v in enumerate(order)}
    buckets: list[list[Factor]] = [[] for _ in order]
    rest: list[Factor] = []

    # When var's turn comes, every live factor over var has var as its
    # first remaining variable; placing factors as they are created keeps
    # each bucket oldest first, so every product runs in creation order.
    def place(f: Factor) -> None:
        ranks = [rank[u] for u in f.scope if u != query]
        (buckets[min(ranks)] if ranks else rest).append(f)

    for v in graph.node_ids:
        place(node_factor(graph, v))
    for var, bucket in zip(order, buckets):
        width = len(set().union(*(f.scope for f in bucket)))
        if width > WIDTH_LIMIT + 1:
            raise WidthLimitError(
                f"eliminating node {var} needs a {width}-variable table; "
                f"tables over more than {WIDTH_LIMIT + 1} variables are not materialized"
            )
        place(_product(bucket).sum_out(var))
        bucket.clear()  # each table is freed once it is used

    table = _product(rest).table.reshape(2)
    return float(table[1]) / float(table[0] + table[1])


def _product(factors: list[Factor]) -> Factor:
    result = factors[0]
    for f in factors[1:]:
        result = result.multiply(f)
    return result


def brute_force_marginal(graph: AttackGraph, query: int) -> float:
    """P(query = 1) by enumerating every joint assignment.

    Wholly independent of the elimination machinery; limited to
    ``BRUTE_FORCE_LIMIT`` variables.
    """
    _require_acyclic(graph)
    d = graph.dense
    target = d.row(query)
    n = len(d.ids)
    if n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(
            f"{n} variables exceed the {BRUTE_FORCE_LIMIT}-variable enumeration limit"
        )
    m = 1 << n
    idx = np.arange(m, dtype=np.int64)
    bits = [((idx >> i) & 1).astype(bool) for i in range(n)]

    joint = np.ones(m)
    LEAF, AND = NodeKind.LEAF, NodeKind.AND
    for i, (kind, prob, parents) in enumerate(zip(d.kinds, d.probs, d.parents)):
        if kind is LEAF:
            p1 = np.array(prob)
        elif kind is AND:
            gate = np.ones(m, dtype=bool)
            for p in parents:
                gate &= bits[p]
            p1 = np.where(gate, prob, 0.0)
        else:
            gate = np.zeros(m, dtype=bool)
            for p in parents:
                gate |= bits[p]
            p1 = np.where(gate, prob, 0.0)
        joint *= np.where(bits[i], p1, 1.0 - p1)
    return math.fsum(joint[bits[target]].tolist())
