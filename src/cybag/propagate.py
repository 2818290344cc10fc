"""Cycle-tolerant propagation of access probabilities.

:func:`solve_node` computes the probability that an attacker ever reaches a
node by recursing over its ancestry. Cycles never trap the recursion
because each computation keeps a visited set rooted at the queried node:

* a parent equal to the queried node contributes 0 (a route cannot feed
  its own prerequisite),
* an already-visited interior node contributes 0 (it was counted once),
* an already-visited leaf contributes its local probability again
  (repeated leaf facts are treated as independent, which keeps the result
  a closed-form product but makes it an approximation wherever the graph
  has loops),
* an unvisited parent is marked visited and recursed into.

And nodes combine parent contributions as a product, Or nodes as a
noisy-or, and both multiply by their own local probability afterwards.

:func:`solve_acyclic_closed_form` is the single-pass evaluator for acyclic
graphs; on loop-free graphs it agrees with :func:`solve_node` exactly.

Recursion is realized with an explicit stack, so graphs with tens of
thousands of nodes cannot overflow the interpreter stack. Everything here
is pure.
"""

from __future__ import annotations

import math
from typing import Iterable

import networkx as nx

from .errors import GraphCyclicError, UnknownNodeError
from .graph import AttackGraph, NodeKind, topological_order

_LEAF, _AND, _OR = 0, 1, 2
_KIND_CODE = {NodeKind.LEAF: _LEAF, NodeKind.AND: _AND, NodeKind.OR: _OR}


def conjunction(probs: Iterable[float]) -> float:
    """Probability that independent events all occur; empty input gives 1."""
    return math.prod(probs)


def disjunction(probs: Iterable[float]) -> float:
    """Probability that at least one independent event occurs; empty gives 0."""
    return 1.0 - math.prod(1.0 - p for p in probs)


class _Compiled:
    """Dense-index view of a graph for the inner solver loop."""

    __slots__ = ("ids", "index", "kinds", "probs", "parents", "_blocks")

    def __init__(self, graph: AttackGraph):
        self.ids = list(graph.node_ids)
        self.index = {v: i for i, v in enumerate(self.ids)}
        self.kinds = [_KIND_CODE[n.kind] for n in graph.nodes]
        self.probs = [n.local_prob for n in graph.nodes]
        # ids are ascending, so ascending parent ids map to ascending indices
        self.parents = [
            tuple(self.index[p] for p in graph.parents[v]) for v in self.ids
        ]
        self._blocks = None

    @property
    def blocks(self) -> list[tuple[tuple[int, ...], bool]]:
        """Strongly connected components in topological order of the
        condensation, as (ascending member indices, cyclic). A component is
        cyclic when it has two or more members or a self-edge. Computed on
        first use, so the recursive solver never pays for it."""
        if self._blocks is None:
            g = nx.DiGraph()
            g.add_nodes_from(range(len(self.ids)))
            g.add_edges_from((p, i) for i, ps in enumerate(self.parents) for p in ps)
            cond = nx.condensation(g)
            self._blocks = []
            for k in nx.topological_sort(cond):
                members = tuple(sorted(cond.nodes[k]["members"]))
                cyclic = len(members) > 1 or members[0] in self.parents[members[0]]
                self._blocks.append((members, cyclic))
        return self._blocks


def _compile(graph: AttackGraph) -> _Compiled:
    cached = graph.__dict__.get("_compiled")
    if cached is None:
        cached = _Compiled(graph)
        graph.__dict__["_compiled"] = cached
    return cached


def _solve_index(c: _Compiled, origin: int, reverse_parents: bool = False):
    """Run the rooted recursion from ``origin`` (a dense index).

    Returns (probability, number of distinct nodes visited). Parent order
    is ascending id unless ``reverse_parents`` flips it (used only to
    probe order sensitivity).
    """
    kinds, probs, parents = c.kinds, c.probs, c.parents
    if kinds[origin] == _LEAF:
        return probs[origin], 1

    visited = bytearray(len(kinds))
    visited[origin] = 1
    visits = 1

    def plist(v: int):
        ps = parents[v]
        return ps[::-1] if reverse_parents else ps

    # Frame: [node, parent tuple, next position, accumulator]. For And
    # nodes the accumulator is the running product of contributions, for
    # Or nodes the running product of complements.
    stack = [[origin, plist(origin), 0, 1.0]]
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
                contrib = probs[u] if kinds[u] == _LEAF else 0.0
            else:
                visited[u] = 1
                visits += 1
                if kinds[u] == _LEAF:
                    contrib = probs[u]
                else:
                    stack.append([u, plist(u), 0, 1.0])
                    descended = True
                    break
            if kinds[v] == _AND:
                frame[3] *= contrib
            else:
                frame[3] *= 1.0 - contrib
        if descended:
            continue
        value = probs[v] * (frame[3] if kinds[v] == _AND else 1.0 - frame[3])
        stack.pop()
        if stack:
            parent_frame = stack[-1]
            if kinds[parent_frame[0]] == _AND:
                parent_frame[3] *= value
            else:
                parent_frame[3] *= 1.0 - value
        else:
            result = value
    return result, visits


def _lookup(graph: AttackGraph, v: int) -> tuple[_Compiled, int]:
    """Compiled view of ``graph`` and the dense index of node ``v``."""
    c = _compile(graph)
    if v not in c.index:
        raise UnknownNodeError(f"node {v} is not in the graph")
    return c, c.index[v]


def solve_node(graph: AttackGraph, v: int) -> float:
    """Access probability of one node under the visited-set recursion."""
    return solve_node_stats(graph, v)[0]


def solve_node_stats(graph: AttackGraph, v: int) -> tuple[float, int]:
    """Like :func:`solve_node` but also reports how many distinct nodes the
    recursion touched (at most one visit per node is guaranteed)."""
    return _solve_index(*_lookup(graph, v))


def _solve_node_reversed(graph: AttackGraph, v: int) -> float:
    """Order-sensitivity probe: same recursion with descending parent order."""
    return _solve_index(*_lookup(graph, v), reverse_parents=True)[0]


def solve_all(graph: AttackGraph) -> dict[int, float]:
    """Access probability for every node.

    Each node is solved independently, so the outer order is immaterial.
    """
    c = _compile(graph)
    return {v: _solve_index(c, i)[0] for i, v in enumerate(c.ids)}


def solve_acyclic_closed_form(graph: AttackGraph) -> dict[int, float]:
    """One topological sweep of the recursive product formula.

    Exact match for :func:`solve_all` on loop-free graphs and a fast path
    for any DAG. Raises :class:`GraphCyclicError` on cyclic input.
    """
    order = topological_order(graph)
    if order is None:
        raise GraphCyclicError("closed-form evaluation requires an acyclic graph")
    probs: dict[int, float] = {}
    for v in order:
        node = graph.node_map[v]
        ps = graph.parents[v]
        if node.kind is NodeKind.LEAF:
            probs[v] = node.local_prob
        elif node.kind is NodeKind.AND:
            probs[v] = node.local_prob * conjunction(probs[p] for p in ps)
        else:
            probs[v] = node.local_prob * disjunction(probs[p] for p in ps)
    return probs
