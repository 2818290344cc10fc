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

:func:`solve_node` runs that recursion in the kernel :func:`_walk`.
:func:`solve_all` makes one pass over the condensation in topological
order. A *closed* row (on no cycle, with no tracked parent) takes the
closed-form step :func:`_closed_form`, the product the recursion
multiplies there. So does an *absorbed* row: an And row on a cycle whose
one interior parent is in its own block, or an Or row on a cycle with
that parent only, where the recursion multiplies that parent's own
value. Every other interior row runs :func:`_walk` under one reuse
rule: a row of an earlier block whose cone the walk has not touched
gives its stored value, which the recursion would recompute mark for
mark, and every other row gets a frame. So both agree bit for
bit with the rooted recursion written out plainly in the tests, the
oracle.
:func:`solve_acyclic_closed_form` takes the closed-form step everywhere.

Recursion is realized with one explicit stack, so graphs with tens of
thousands of nodes cannot overflow the interpreter stack. Everything here
is pure.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .errors import GraphCyclicError
from .graph import AttackGraph, DenseIndex, NodeKind


def conjunction(probs: Iterable[float]) -> float:
    """Probability that independent events all occur; empty input gives 1."""
    return math.prod(probs)


def disjunction(probs: Iterable[float]) -> float:
    """Probability that at least one independent event occurs; empty gives 0."""
    return 1.0 - math.prod(1.0 - p for p in probs)


def _closed_form(d: DenseIndex, v: int, values: list[float]) -> float:
    """Row ``v``'s local probability times the conjunction (And) or the
    disjunction (Or) of its parents' ``values``."""
    gate = conjunction if d.kinds[v] is NodeKind.AND else disjunction
    return d.probs[v] * gate(values[p] for p in d.parents[v])


def _walk(origin, visited, tail, start, ands, seen, probs, cones=None) -> float:
    """Run the rooted recursion from row ``origin``; the one loop behind
    :func:`solve_node` and the rows of :func:`solve_all` that are neither
    closed nor absorbed.

    A marked row contributes ``seen[row]``. With ``cones``, an unmarked row
    outside the origin's block whose cone meets no exit read so far is an
    *exit*: it contributes its stored value, and its tracked cone is
    marked (see :func:`solve_all`). Every other unmarked row is marked and
    gets a frame that starts from ``start[row]`` and walks the parent rows
    ``tail[row]``.
    """
    # The current frame lives in locals, suspended frames on the stack.
    # For And rows ``acc`` is the running product of contributions, for
    # Or rows the running product of complements.
    v, ps, i, acc, is_and = origin, tail[origin], 0, start[origin], ands[origin]
    if cones:
        blk, blocks, up, srcmask, values = cones
        b, vsrc = blk[origin], 0
    stack = []
    while True:
        if i < len(ps):
            u = ps[i]
            i += 1
            if visited[u]:
                contrib = seen[u]
            elif cones and blk[u] != b and not (m := srcmask[blk[u]]) & vsrc:
                contrib = values[u]
                if m:
                    todo = [blk[u]]
                    for c in todo:  # the cone's blocks, marked as they are found
                        if not visited[blocks[c][0][0]]:
                            for r in blocks[c][0]:
                                visited[r] = 1
                            todo += up[c]
                    vsrc |= m
            else:
                visited[u] = 1
                stack.append((v, ps, i, acc, is_and))
                v, ps, i, acc, is_and = u, tail[u], 0, start[u], ands[u]
                continue
        else:
            contrib = probs[v] * (acc if is_and else 1.0 - acc)
            if not stack:
                return contrib
            v, ps, i, acc, is_and = stack.pop()
        acc *= contrib if is_and else 1.0 - contrib


def solve_node(graph: AttackGraph, v: int) -> float:
    """Access probability of one node under the visited-set recursion."""
    return solve_node_stats(graph, v)[0]


def solve_node_stats(graph: AttackGraph, v: int) -> tuple[float, int]:
    """Like :func:`solve_node` but also reports how many distinct nodes the
    recursion touched (at most one visit per node is guaranteed)."""
    d = graph.dense
    origin = d.row(v)
    kinds, probs = d.kinds, d.probs
    LEAF = NodeKind.LEAF
    if kinds[origin] is LEAF:
        return probs[origin], 1
    n = len(kinds)
    # Nothing is folded and nothing starts marked, so every row the walk
    # reaches is marked. A leaf gets a parentless And frame: p * 1.0 == p.
    seen = [p if k is LEAF else 0.0 for p, k in zip(probs, kinds)]
    visited = bytearray(n)
    visited[origin] = 1
    ands = [k is not NodeKind.OR for k in kinds]
    value = _walk(origin, visited, d.parents, [1.0] * n, ands, seen, probs)
    return value, visited.count(1)


def solve_all(graph: AttackGraph) -> dict[int, float]:
    """Access probability for every node, bit-identical to :func:`solve_node`.

    One pass over the condensation in topological order, with the work
    that does not depend on the origin done once per call. Leaves are
    constants: a leaf contributes its local probability whether or not it
    was visited. Each row's leading run of leaf parents is folded into its
    starting accumulator (``1.0*c1*c2...`` is the float the loop would
    build), and every origin's visited set starts with all leaves marked,
    so a visited row contributes ``seen[row]``: its probability for a
    leaf, 0 for an interior row (the origin included).

    ``up[c]`` holds the blocks of the tracked parents outside block c. A
    row is *closed* when its block is acyclic and ``up`` is empty. Its
    cone is then a tree of leaves and closed rows with one child, entered
    only through it, where the rooted recursion multiplies exactly the
    closed-form product, so it takes :func:`_closed_form` over its
    parents' final values. A block with empty ``up`` that is cyclic, or
    whose row has two or more children, is a *source unit* and owns one
    bit of ``srcmask``; every other block ORs the masks of ``up``. So an
    interior row is *tracked* (has a non-zero mask) unless it is closed
    with at most one child: only that child ever reads it, so no read can
    see its mark.

    An interior row that is neither closed nor absorbed (below) runs
    :func:`_walk` from itself, in its block b. Only rows of b get frames unconditionally. An
    unvisited row u outside b lies in an earlier block; it is an *exit* when
    ``srcmask[blk[u]] & vsrc`` is 0, where ``vsrc`` ORs the masks of the
    exits read so far. An exit contributes ``values[u]``, its cone is
    marked through ``up``, and its mask is ORed into ``vsrc``. Any other u
    gets a frame in the same loop, and its parents meet the same rule.

    Why an exit's value is exact: every visited row outside b with a
    non-zero mask has a unit in ``vsrc``, since an exit ORs its mask,
    which holds the masks of the cone it marks, and a frame outside b is
    pushed only when its mask already meets ``vsrc``. A tracked row's
    mask holds the masks of the tracked rows of its cone, so when
    ``mask(u) & vsrc`` is 0 no tracked row of u's cone is visited. Rows
    of mask 0 always pass the test and are never marked, and only their
    one child, in the cone or u itself, reads them. So the recursion at u
    reads the marks u's own walk read, in order, and returns
    ``values[u]``. A pushed row needs no OR of its own mask, because
    each row it reads passes the same test.

    An And row o of block b with exactly one interior parent q, or an Or
    row whose only parent is q, is *absorbed*: it takes
    :func:`_closed_form` over ``values[q]`` instead of a walk. A row on a
    cycle has a parent in its own block, so q is in b. Chains of absorbed
    rows are resolved parent first. When every row of b is absorbed, each
    has one parent in b, so b is one simple cycle (or a single row on no
    cycle): its first row is walked, and every chain ends there.

    Why an absorbed row's value is exact: o's own walk reads only leaves
    and q, and it enters q's frame in the state the walk from q starts
    in, except that o is already marked. In the walk from q, o gets a
    frame when it is first read; it reads its leaves and the marked q, so
    it contributes ``probs[o] * 0.0 == 0.0``, marks nothing else and
    reads no exit. A marked o contributes the same 0.0, so both runs take
    the same steps, q's frame returns ``values[q]`` bit for bit, and o
    multiplies its parents in order from 1.0, as ``math.prod`` does. An
    Or row whose only parent is q contributes ``probs[o] * (1.0 - 1.0 *
    (1.0 - 0.0)) == 0.0`` in the walk from q and marks nothing else, so
    the same argument holds word for word. An Or row with a leaf parent
    is not absorbed: read from q it contributes the noisy-or of its
    leaves, not 0.
    """
    d = graph.dense
    kinds, probs, parents = d.kinds, d.probs, d.parents
    n = len(kinds)

    LEAF, AND = NodeKind.LEAF, NodeKind.AND
    template = bytearray(k is LEAF for k in kinds)
    ands = [k is AND for k in kinds]
    seen = [probs[v] if template[v] else 0.0 for v in range(n)]
    start = [1.0] * n
    tail: list[tuple[int, ...]] = [()] * n
    outdeg = [0] * n
    for v in range(n):
        ps = parents[v]
        for p in ps:
            outdeg[p] += 1
        if template[v]:
            continue
        k, acc = 0, 1.0
        while k < len(ps) and template[ps[k]]:
            acc *= probs[ps[k]] if ands[v] else 1.0 - probs[ps[k]]
            k += 1
        start[v], tail[v] = acc, ps[k:]

    values = seen[:]
    blk, up, srcmask, unit = [0] * n, [()] * len(d.blocks), [0] * len(d.blocks), 1
    cones = (blk, d.blocks, up, srcmask, values)
    for c, (members, cyclic) in enumerate(d.blocks):
        v = members[0]
        for r in members:
            blk[r] = c
        if template[v]:
            continue
        # tracked parents have a mask; this block's is still 0
        up[c] = tuple({blk[p] for r in members for p in parents[r] if srcmask[blk[p]]})
        for x in up[c]:
            srcmask[c] |= srcmask[x]
        if not up[c] and (cyclic or outdeg[v] > 1):
            srcmask[c], unit = unit, unit << 1
        if not (cyclic or up[c]):  # closed
            values[v] = _closed_form(d, v, values)
            continue
        inner = {}  # each absorbed row's one interior parent
        for o in members:
            qs = [p for p in tail[o] if not template[p]]
            if len(qs) == 1 and (ands[o] or len(parents[o]) == 1):
                inner[o] = qs[0]
        if len(inner) == len(members):  # one simple cycle, or one acyclic row
            del inner[v]
        for origin in members:
            if origin not in inner:
                visited = template[:]
                visited[origin] = 1
                values[origin] = _walk(origin, visited, tail, start, ands, seen, probs, cones)
        for o in list(inner):
            chain = []
            while o in inner:  # a walked or resolved row ends every chain
                chain.append(o)
                o = inner.pop(o)
            for r in reversed(chain):
                values[r] = _closed_form(d, r, values)
    return dict(zip(d.ids, values))


def solve_acyclic_closed_form(graph: AttackGraph) -> dict[int, float]:
    """One topological sweep of the recursive product formula.

    Exact match for :func:`solve_all` on loop-free graphs and a fast path
    for any DAG. Raises :class:`GraphCyclicError` on cyclic input.
    """
    d = graph.dense
    if any(cyclic for _, cyclic in d.blocks):
        raise GraphCyclicError("closed-form evaluation requires an acyclic graph")
    values = d.probs[:]
    # an acyclic graph's components are single rows in topological order
    for (v,), _ in d.blocks:
        if d.kinds[v] is not NodeKind.LEAF:
            values[v] = _closed_form(d, v, values)
    return dict(zip(d.ids, values))
