"""Synthetic cyclic attack graphs and scaling benchmarks.

Graphs are built in layers that mimic scanner output: leaves are
configuration facts, And nodes are attack actions requiring at least one
fact, Or nodes are attacker states fed by one or more actions. The base
wiring is acyclic by ranking the Or nodes and only letting actions read
from lower-ranked states. Cycles are then added on purpose: a bridge And
node is inserted from a descendant state back to an ancestor state until
the requested share of Or nodes sits on a directed cycle. Node counts
follow the requested leaf/and/or ratio exactly (bridge And nodes are
pre-reserved out of the And budget), and everything is deterministic per
seed.

The bridge loop looks at Or nodes only. Leaves have no parents, And
nodes read leaves and Or nodes and feed only Or nodes, and Or nodes read
only And nodes. So every path from one Or node to another alternates
Or -> And -> Or, and follows the Or-level arcs p => t, one for each Or p
that feeds an And that feeds Or t. Every And has at most one Or child,
known where its Or parents are picked: an action's target state, or a
bridge's far end. So each arc of the base wiring is linked where its Or
parent is wired (a bridge's arc needs no link, see below), and the loop
walks these arcs instead of the whole graph.

Coverage is tracked incrementally: a bridge x -> a -> y puts on a cycle
exactly the nodes in desc(y) & anc(x), so no strongly connected
component of the whole graph is ever recomputed. Instead the loop keeps
the components of the Or-level graph as the bridges merge them, in a
union-find whose roots carry their members as one bit mask and their
arcs to other components, and walks components, not nodes, so a walk
does not go again through the cycles already merged above x. To pick y
the loop has already walked anc(x), and the bridge does not change it:
a new path into x passes through x before it takes the bridge. So the
covering walk goes down from y and stays inside the components of
anc(x), since every node on a path from y to a node of anc(x) is itself
in anc(x); the components it visits become one. When x has no ancestor
state and the loop bridges from one of its descendants z instead, the
covering walk goes up from z inside desc(x). When x has neither, two
bridges x -> w and w -> x put x into the component of w. A bridge's own
arc joins two nodes of the component it closes, so it is never walked
and never stored.

Every pick from a mask draws an index with ``rng.choice(range(k))``
over its k set bits and takes the set bit of that rank. ``rng.choice``
draws the same index from any sequence of length k, so the RNG makes
the same calls as it would on the sorted list of those Or nodes, picks
the same one, and every graph is the same.
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from collections.abc import Iterable

from .errors import InfeasibleError, TooLargeError
from .formats import INPUT_LIMIT_BYTES, write_text
from .graph import AttackGraph, Node, NodeKind

LEAF_PROB_PALETTE = (0.35, 0.61, 0.71)


class GenParams(
    namedtuple(
        "GenParams", "n cyclicity ratio seed max_parents", defaults=((50.0, 35.0, 15.0), 0, 4)
    )
):
    """Generator inputs: node count, cyclicity in [0, 100], the leaf:And:Or
    ``ratio`` in percent, RNG seed and the most parents a node draws."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n, cyclicity, ratio, seed, max_parents = self
        if not isinstance(ratio, (tuple, list)) or len(ratio) != 3:
            raise ValueError(f"ratio must hold three numbers, got {ratio!r}")
        # a non-plain field (a numpy scalar, say) is checked; an integral
        # one is converted, since random.Random takes only a plain int seed
        if any(type(v) is not int for v in (n, seed, max_parents)) or any(
            type(v) is not int and type(v) is not float for v in (cyclicity, *ratio)
        ):
            import numbers

            for name, v in (("n", n), ("seed", seed), ("max_parents", max_parents)):
                if type(v) is bool or not isinstance(v, numbers.Integral):
                    raise ValueError(f"{name} must be an integer, got {v!r}")
            for name, v in (("cyclicity", cyclicity), *(("ratio entry", r) for r in ratio)):
                if type(v) is bool or not isinstance(v, numbers.Real):
                    raise ValueError(f"{name} must be a real number, got {v!r}")
            self = tuple.__new__(cls, (int(n), cyclicity, ratio, int(seed), int(max_parents)))
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n}")
        if not 0.0 <= self.cyclicity <= 100.0:
            raise ValueError(f"cyclicity must be in [0, 100], got {self.cyclicity}")
        if not all(0.0 <= r <= 100.0 for r in self.ratio):
            raise ValueError(f"ratio entries must be in [0, 100], got {self.ratio}")
        if abs(sum(self.ratio) - 100.0) > 1e-9:
            raise ValueError(f"ratio must sum to 100, got {self.ratio}")
        if self.max_parents < 1:
            raise ValueError("max_parents must be >= 1")
        if self.seed < 0:
            # random.Random(-s) seeds exactly like Random(s)
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too


class BenchRow(
    namedtuple("BenchRow", "n cyclicity replicate wall_time_seconds nodes_in_cycles")
):
    __slots__ = ()


def _counts(n: int, ratio: tuple[float, float, float]) -> tuple[int, int, int]:
    """Largest-remainder apportionment of n nodes over the three kinds."""
    shares = [n * r / 100.0 for r in ratio]
    base = [int(math.floor(s)) for s in shares]
    leftover = n - sum(base)
    order = sorted(range(3), key=lambda i: (-(shares[i] - base[i]), i))
    for i in range(leftover):
        base[order[i % 3]] += 1
    return base[0], base[1], base[2]


def nodes_on_cycles(graph: AttackGraph) -> set[int]:
    """Ids of all nodes on a directed cycle: the members of the cyclic
    components, a node with a self-edge, a one-node cycle, included."""
    d = graph.dense
    return {d.ids[i] for members, cyclic in d.blocks if cyclic for i in members}


def cyclic_or_fraction(graph: AttackGraph) -> float:
    """Share of Or nodes that lie on a directed cycle."""
    ors = [n.id for n in graph.nodes if n.kind is NodeKind.OR]
    if not ors:
        return 0.0
    on_cycle = nodes_on_cycles(graph)
    return sum(1 for v in ors if v in on_cycle) / len(ors)


def _bit_at(mask: int, k: int) -> int:
    """The position of the k-th lowest set bit of ``mask``, for
    0 <= k < ``mask.bit_count()``."""
    # the fewest low bits that hold k + 1 set bits end at the k-th
    lo, hi = 1, mask.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid + 1
    return lo - 1


class _Builder:
    """The edge set of a graph being generated, and the condensation of its
    Or-level arcs p => t, one for each Or p that feeds an And that feeds
    Or t.

    Or positions 0, 1, ... stand for the Or nodes in id order. A
    union-find over them holds the strongly connected components of the
    Or-level graph. A root r stands for its component: its member bits
    are ``members[r]``, or ``1 << r`` while it has merged nothing, and
    ``up[r]``/``down[r]`` hold the roots of the components with an arc
    into or out of it.
    """

    def __init__(self, count: int):
        self.edges: set[tuple[int, int]] = set()
        self.parent = list(range(count))
        self.members: dict[int, int] = {}  # bits of the merged roots only
        self.up: list[set[int]] = [set() for _ in range(count)]
        self.down: list[set[int]] = [set() for _ in range(count)]

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    def link(self, p: int, t: int) -> None:
        """Add the arc p => t between Or positions not yet merged."""
        self.down[p].add(t)
        self.up[t].add(p)

    def reach(
        self, start: int, arcs: list[set[int]], within: set[int] | None = None
    ) -> tuple[int, set[int]]:
        """The member bits and the roots of the component of ``start`` and
        of every component reachable from it along ``arcs``, entering only
        roots of ``within`` when it is given."""
        members = self.members
        root = self.find(start)
        seen = {root}
        frontier = [root]
        bits = 0
        while frontier:
            r = frontier.pop()
            bits |= members.get(r) or 1 << r
            for s in arcs[r]:
                if s not in seen and (within is None or s in within):
                    seen.add(s)
                    frontier.append(s)
        return bits, seen

    def merge(self, roots: set[int]) -> int:
        """Merge the components of ``roots`` into one; its member bits.

        The root kept is the one with the most arcs; every neighbour of
        an absorbed root has its arc redirected to it, so arcs always
        join distinct roots."""
        up, down = self.up, self.down
        keep = max(roots, key=lambda r: len(up[r]) + len(down[r]))
        bits = 0
        for r in roots:
            bits |= self.members.pop(r, None) or 1 << r
            if r != keep:
                self.parent[r] = keep
                for arcs, back in ((up, down), (down, up)):
                    for s in arcs[r]:
                        if s not in roots:
                            back[s].remove(r)
                            back[s].add(keep)
                    arcs[keep] |= arcs[r]
                    arcs[r] = None
        up[keep] -= roots
        down[keep] -= roots
        self.members[keep] = bits
        return bits


def generate(params: GenParams) -> AttackGraph:
    """Build one random graph per the parameters; deterministic per seed."""
    # write_json spends more than 64 bytes on every node, so no command
    # could read back a larger graph
    limit = INPUT_LIMIT_BYTES // 64
    if params.n > limit:
        raise TooLargeError(f"{params.n} nodes exceed the {limit}-node generator limit")
    # each action draws up to max_parents - 1 parent picks, duplicates
    # dropped; this budget admits the default 4 up to the node limit
    picks = INPUT_LIMIT_BYTES // 16
    if params.n * params.max_parents > picks:
        raise TooLargeError(
            f"{params.n} nodes with up to {params.max_parents} parents each exceed the "
            f"{picks}-pick generator budget"
        )
    n_leaf, n_and, n_or = _counts(params.n, params.ratio)
    leaves = list(range(n_leaf))
    ands = list(range(n_leaf, n_leaf + n_and))
    first = n_leaf + n_and
    ors = list(range(first, params.n))

    target_or = math.ceil(params.cyclicity / 100.0 * n_or)
    if params.cyclicity > 0 and n_or < 2:
        raise InfeasibleError("cyclicity > 0 needs at least two Or nodes")
    if params.cyclicity > 0:
        bridge_budget = target_or + 1
        if n_and - bridge_budget < n_or or not leaves:
            raise InfeasibleError(
                "not enough And nodes to reserve cycle bridges at this ratio"
            )
    else:
        bridge_budget = 0
    regular_ands = ands[: n_and - bridge_budget]
    reserve = ands[n_and - bridge_budget :]

    b = _Builder(n_or)
    rng = random.Random(params.seed)

    ranked = list(ors)
    rng.shuffle(ranked)
    rank = {v: i for i, v in enumerate(ranked)}

    # One dedicated action per state so no Or is left orphaned, then the
    # remaining actions pick their target state at random.
    targets: list[tuple[int, int]] = []
    for i, a in enumerate(regular_ands):
        t = ranked[i] if i < n_or else (rng.choice(ors) if ors else -1)
        targets.append((a, t))

    for a, t in targets:
        if leaves:
            b.edges.add((rng.choice(leaves), a))
        eligible = rank[t] if t >= 0 else 0  # states ranked below t
        extra = rng.randint(0, params.max_parents - 1)
        for _ in range(extra):
            # privilege states chain through each other: prefer an existing
            # state as prerequisite when one is available
            if eligible and (not leaves or rng.random() < 0.5):
                p = ranked[rng.choice(range(eligible))]
                b.edges.add((p, a))
                b.link(p - first, t - first)
            elif leaves:
                b.edges.add((rng.choice(leaves), a))
        if t >= 0:
            b.edges.add((a, t))

    # Insert back-edges until enough Or nodes sit on directed cycles. Reserve
    # slots exist only at cyclicity > 0, which needs leaves and two Or nodes.
    bridges = iter(reserve)

    def add_bridge(src: int, dst: int) -> None:
        # target_or + 1 suffice: each bridge covers a new Or node, bar one in a last round
        a = next(bridges)
        b.edges.add((ors[src], a))
        b.edges.add((rng.choice(leaves), a))
        b.edges.add((a, ors[dst]))

    def pick(mask: int) -> int:
        return _bit_at(mask, rng.choice(range(mask.bit_count())))

    # The base wiring is acyclic by rank, so no Or node starts on a cycle.
    # Besides x -> a and a -> y, a bridge And a has only an in-edge from a
    # parentless leaf, so every new cycle runs x -> a -> y ~> x and the
    # nodes a bridge puts on a cycle are desc(y) & anc(x): each covering
    # walk starts at the end the loop has not walked, stays inside the
    # components the loop has, and merges the ones it visits. Nodes on a
    # cycle stay on one. Positions and masks stand for Or nodes here.
    everything = (1 << n_or) - 1
    covered = 0
    while covered.bit_count() < target_or:
        uncovered = everything & ~covered
        x = pick(uncovered)
        others = ~(1 << x)
        anc, roots = b.reach(x, b.up)
        if anc & others:
            y = pick(anc & others & ~covered or anc & others)
            add_bridge(x, y)
            covered |= b.merge(b.reach(y, b.down, roots)[1])
            continue
        desc, roots = b.reach(x, b.down)
        if desc & others:
            z = pick(desc & others & ~covered or desc & others)
            add_bridge(z, x)
            covered |= b.merge(b.reach(z, b.up, roots)[1])
            continue
        w = pick(uncovered & others or everything & others)
        add_bridge(x, w)
        add_bridge(w, x)
        covered |= b.merge({b.find(x), b.find(w)})

    # Unused reserve slots become ordinary actions; wired from fresh leaves
    # only, they cannot close new cycles.
    for a in bridges:
        b.edges.add((rng.choice(leaves), a))
        b.edges.add((a, rng.choice(ors)))

    nodes = [
        Node(v, NodeKind.LEAF, f"fact{v}", rng.choice(LEAF_PROB_PALETTE))
        for v in leaves
    ]
    nodes += [Node(v, NodeKind.AND, f"rule{v}", 1.0) for v in ands]
    nodes += [Node(v, NodeKind.OR, f"state{v}", 1.0) for v in ors]
    return AttackGraph(nodes, b.edges)


def bench(
    sizes: Iterable[int],
    cyclicities: Iterable[float],
    replicates: int,
    seed: int,
) -> list[BenchRow]:
    """Generate and solve one graph per (size, cyclicity, replicate).

    Graphs are deterministic per seed; wall times obviously are not.
    Replicates run sequentially to keep the timings honest.
    """
    from .propagate import solve_all  # only bench solves; generate stays engine-free

    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    rows: list[BenchRow] = []
    counter = 0
    for n in sizes:
        for c in cyclicities:
            for r in range(replicates):
                gseed = seed * 1_000_003 + counter
                counter += 1
                graph = generate(GenParams(n=n, cyclicity=c, seed=gseed))
                start = time.perf_counter()
                solve_all(graph)
                elapsed = time.perf_counter() - start
                rows.append(
                    BenchRow(n, c, r, elapsed, len(nodes_on_cycles(graph)))
                )
    return rows


def write_bench_csv(rows: Iterable[BenchRow], path) -> None:
    """CSV with one row per run; UTF-8, LF line endings."""
    lines = ["n,cyclicity,replicate,wall_time_seconds,nodes_in_cycles"]
    for row in rows:
        lines.append(
            f"{row.n},{row.cyclicity:g},{row.replicate},"
            f"{row.wall_time_seconds:.6f},{row.nodes_in_cycles}"
        )
    write_text(path, "\n".join(lines) + "\n")
