"""Attack-graph data model, validation, conversion and cycle detection.

The central type is :class:`AttackGraph`: a directed graph of Leaf/And/Or
nodes, each carrying a local probability. Unlike classic attack-graph
formalisms the model deliberately admits directed cycles; the solvers in
:mod:`cybag.propagate` and :mod:`cybag.circuit` are built to handle them.

:attr:`AttackGraph.dense` is the one dense-index view every engine reads:
nodes as rows, their :class:`NodeKind`, parent rows and the condensation
into strongly connected components, each built on first use and cached
on the graph. :func:`edge_issue` holds the edge rules of :func:`validate`
and of every reader in :mod:`cybag.formats`.

The records (:class:`Node`, :class:`CyclePath`, :class:`Issue`) are
``collections.namedtuple`` subclasses without a ``__dict__``: a checked
``__new__`` builds the tuple, and ``_replace`` runs the same checks.
:class:`AttackGraph` is a plain class that refuses attribute assignment
and compares and hashes by its nodes and edges. Neither costs the
``dataclasses`` import or its per-class code generation at start-up.

Graphs are immutable after construction and all functions here are pure,
so everything is safe to share across threads.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Container, Iterable, Mapping, Sequence
from enum import Enum
from functools import cached_property

from .errors import CycleLimitError, PlainCycleError, UnknownNodeError

DEFAULT_MAX_CYCLES = 10_000
# Bytes the paths of the found cycles may hold, at 8 bytes (one tuple slot)
# per node: the count cap alone lets 10,000 long cycles fill the memory.
# The circuit engine's CHUNK_BUDGET_BYTES bounds its chunks the same way.
CYCLE_BUDGET_BYTES = 64 << 20


class NodeKind(Enum):
    LEAF = "leaf"
    AND = "and"
    OR = "or"


class Node(namedtuple("Node", "id kind label local_prob")):
    """A single graph node: identity, gate kind, label and local probability."""

    __slots__ = ()

    def __new__(cls, id: int, kind: NodeKind, label: str = "", local_prob: float = 1.0):
        # a non-plain id or probability (a numpy scalar, say) is checked and converted
        if type(id) is not int or type(local_prob) is not float:
            import numbers

            if type(id) is bool or not isinstance(id, numbers.Integral):
                raise ValueError(f"node id must be an integer, got {id!r}")
            if type(local_prob) is bool or not isinstance(local_prob, numbers.Real):
                raise ValueError(f"local_prob must be a real number, got {local_prob!r}")
            id, local_prob = int(id), float(local_prob)
        if id < 0:
            raise ValueError(f"node id must be non-negative, got {id}")
        if not 0.0 <= local_prob <= 1.0:
            raise ValueError(f"local_prob must be in [0, 1], got {local_prob} for node {id}")
        return tuple.__new__(cls, (id, kind, label, local_prob))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too


class AttackGraph:
    """Immutable directed graph of typed nodes.

    ``nodes`` and ``edges`` are canonicalized to ascending order at
    construction so that all derived outputs are deterministic. The
    constructor does not reject malformed graphs; :func:`validate` reports
    violations as data.
    """

    nodes: tuple[Node, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(self, nodes: Iterable[Node], edges: Iterable[tuple[int, int]]):
        object.__setattr__(self, "nodes", tuple(sorted(nodes, key=lambda n: n.id)))
        object.__setattr__(self, "edges", tuple(sorted((int(a), int(b)) for a, b in edges)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: AttackGraph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: AttackGraph is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __hash__(self):
        return hash((self.nodes, self.edges))

    def __repr__(self):
        return f"AttackGraph(nodes={self.nodes!r}, edges={self.edges!r})"

    @cached_property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes)

    @cached_property
    def parents(self) -> dict[int, tuple[int, ...]]:
        """Parent ids per node, ascending and distinct; every node id is a
        key. The id view of :attr:`DenseIndex.parents`."""
        d = self.dense
        return {v: tuple(d.ids[p] for p in ps) for v, ps in zip(d.ids, d.parents)}

    def node(self, node_id: int) -> Node:
        """The node with id ``node_id``; raises :class:`UnknownNodeError` if absent."""
        return self.nodes[self.dense.row(node_id)]

    def kind(self, node_id: int) -> NodeKind:
        return self.node(node_id).kind

    def local_prob(self, node_id: int) -> float:
        return self.node(node_id).local_prob

    def replace_probs(self, probs: Mapping[int, float]) -> "AttackGraph":
        """New graph with the given nodes' local probabilities replaced."""
        nodes = tuple(
            Node(n.id, n.kind, n.label, probs.get(n.id, n.local_prob))
            for n in self.nodes
        )
        return AttackGraph(nodes, self.edges)

    def without_edge(self, src: int, dst: int) -> "AttackGraph":
        return AttackGraph(self.nodes, tuple(e for e in self.edges if e != (src, dst)))

    @cached_property
    def dense(self) -> "DenseIndex":
        """Dense-index view shared by every engine; built on first use."""
        return DenseIndex(self)


class DenseIndex:
    """Nodes as rows 0..n-1 in ascending id order, for the engines' inner loops.

    ``kinds`` holds :class:`NodeKind` members, compared with ``is``,
    ``probs`` local probabilities and ``parents`` the ascending, distinct
    parent rows of each row, built in one pass over the sorted edges
    (skipping unknown ends) on first use, so that node lookups never pay
    for them.
    """

    def __init__(self, graph: AttackGraph):
        self._graph = graph
        self.ids = list(graph.node_ids)
        self.index = {v: i for i, v in enumerate(self.ids)}
        self.kinds = [n.kind for n in graph.nodes]
        self.probs = [n.local_prob for n in graph.nodes]

    @cached_property
    def parents(self) -> list[tuple[int, ...]]:
        # the edges are sorted and the ids ascend: each row's parent rows
        # arrive ascending, and a repeated edge right after its first copy
        index, rows = self.index, [[] for _ in self.ids]
        for src, dst in self._graph.edges:
            if src in index and dst in index:
                ps, p = rows[index[dst]], index[src]
                if not ps or ps[-1] != p:
                    ps.append(p)
        return [tuple(ps) for ps in rows]

    def row(self, v: int) -> int:
        """Row of node ``v``; raises :class:`UnknownNodeError` if absent."""
        if v not in self.index:
            raise UnknownNodeError(f"node {v} is not in the graph")
        return self.index[v]

    @cached_property
    def blocks(self) -> list[tuple[tuple[int, ...], bool]]:
        """Strongly connected components in topological order of the
        condensation, as (ascending member rows, cyclic). A component is
        cyclic when it has two or more members or a self-edge. Computed on
        first use, so a single-node solve never pays for it."""
        return _components(self.parents, range(len(self.ids)))


def _components(
    parents: list[tuple[int, ...]], rows: Sequence[int]
) -> list[tuple[tuple[int, ...], bool]]:
    """Strongly connected components of the subgraph induced by the
    ascending ``rows``, as (ascending member rows, cyclic), by Tarjan's
    algorithm (Tarjan 1972) run iteratively along parent rows. A component
    is emitted after every component it reaches, its ancestors, so the
    list is in topological order of the condensation."""
    inside = set(rows)
    done = len(rows)  # index of an emitted row: never lowers a low link
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    comps = []
    for root in rows:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        frames = [(root, iter(parents[root]), len(stack))]
        stack.append(root)
        while frames:
            v, todo, at = frames[-1]
            for p in todo:
                if p not in inside:
                    continue
                if p not in index:
                    index[p] = low[p] = len(index)
                    frames.append((p, iter(parents[p]), len(stack)))
                    stack.append(p)
                    break
                low[v] = min(low[v], index[p])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    members = tuple(sorted(stack[at:]))
                    del stack[at:]
                    for m in members:
                        index[m] = done
                    comps.append((members, len(members) > 1 or v in parents[v]))
    return comps


class PlainBag:
    """Bipartite exploit/condition graph with an individual score per node.

    ``require_edges`` run condition -> exploit (all must hold), and
    ``imply_edges`` run exploit -> condition (any suffices). The combined
    graph must be acyclic; nodes missing from ``score`` default to 1.0.
    """

    def __init__(self, exploits, conditions, require_edges, imply_edges, score):
        self.exploits = frozenset(exploits)
        self.conditions = frozenset(conditions)
        self.require_edges = tuple(sorted((int(a), int(b)) for a, b in require_edges))
        self.imply_edges = tuple(sorted((int(a), int(b)) for a, b in imply_edges))
        self.score: Mapping[int, float] = dict(score)
        overlap = self.exploits & self.conditions
        if overlap:
            raise ValueError(f"ids appear as both exploit and condition: {sorted(overlap)}")
        for c, e in self.require_edges:
            if c not in self.conditions or e not in self.exploits:
                raise ValueError(f"require edge ({c}, {e}) is not condition -> exploit")
        for e, c in self.imply_edges:
            if e not in self.exploits or c not in self.conditions:
                raise ValueError(f"imply edge ({e}, {c}) is not exploit -> condition")


class CyclePath(namedtuple("CyclePath", "nodes")):
    """A simple directed cycle, canonicalized to start at its smallest node id.

    ``nodes`` lists the cycle with the first id repeated at the end; a
    self-edge is the one-node cycle ``(v, v)``.
    """

    __slots__ = ()

    def __new__(cls, nodes: tuple[int, ...]):
        if len(nodes) < 2 or nodes[0] != nodes[-1]:
            raise ValueError(f"not a closed path: {nodes}")
        interior = nodes[:-1]
        if len(set(interior)) != len(interior):
            raise ValueError(f"cycle is not simple: {nodes}")
        return tuple.__new__(cls, (nodes,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    @property
    def node_set(self) -> frozenset[int]:
        return frozenset(self.nodes[:-1])

    @property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.nodes[:-1], self.nodes[1:]))


class Issue(namedtuple("Issue", "code subject message")):
    """``subject`` is a node id or an edge pair."""

    __slots__ = ()


class ValidationReport:
    def __init__(self):
        self.errors: list[Issue] = []
        self.warnings: list[Issue] = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def error_codes(self) -> list[str]:
        return [i.code for i in self.errors]

    def warning_codes(self) -> list[str]:
        return [i.code for i in self.warnings]


def edge_issue(src: int, dst: int, ids: Container[int], seen: set) -> Issue | None:
    """The first edge rule ``src -> dst`` breaks: an end not in ``ids``, a
    self-edge, or an edge already in ``seen``. An edge that breaks none is
    added to ``seen`` and None is returned."""
    edge = (src, dst)
    if src not in ids or dst not in ids:
        return Issue("DANGLING_EDGE", edge, f"edge [{src}, {dst}] references an unknown node")
    if src == dst:
        return Issue("SELF_EDGE", edge, f"self-edge on node {src}")
    if edge in seen:
        return Issue("DUPLICATE_EDGE", edge, f"duplicate edge [{src}, {dst}]")
    seen.add(edge)
    return None


def validate(graph: AttackGraph) -> ValidationReport:
    """Check the structural invariants of an attack graph.

    Violations are returned as data, never raised: duplicate node ids,
    edges touching unknown nodes, self-edges, duplicate edges and leaves
    with incoming edges are errors; And/Or nodes without parents are
    flagged as warnings only (their probability follows the empty-gate
    conventions in :mod:`cybag.propagate`).
    """
    report = ValidationReport()
    seen: set[int] = set()
    for node in graph.nodes:
        if node.id in seen:
            report.errors.append(
                Issue("DUPLICATE_NODE", node.id, f"node id {node.id} defined more than once")
            )
        seen.add(node.id)

    index, kinds, leaf = graph.dense.index, graph.dense.kinds, NodeKind.LEAF
    seen_edges: set[tuple[int, int]] = set()
    for src, dst in graph.edges:
        issue = edge_issue(src, dst, index, seen_edges)
        if issue is None and kinds[index[dst]] is leaf:
            message = f"leaf node {dst} has incoming edge from {src}"
            issue = Issue("LEAF_HAS_PARENT", (src, dst), message)
        if issue is not None:
            report.errors.append(issue)

    parents = graph.dense.parents  # the rows every engine reads
    for node in graph.nodes:
        if node.kind is not leaf and not parents[index[node.id]]:
            report.warnings.append(
                Issue(
                    "EMPTY_PARENTS",
                    node.id,
                    f"{node.kind.value} node {node.id} has no parents",
                )
            )
    return report


def topological_order(graph: AttackGraph) -> list[int] | None:
    """Node ids in the condensation order of :attr:`DenseIndex.blocks`;
    None if the graph is cyclic."""
    d = graph.dense
    if any(cyclic for _, cyclic in d.blocks):
        return None
    return [d.ids[members[0]] for members, _ in d.blocks]


def find_cycles(graph: AttackGraph, max_cycles: int = DEFAULT_MAX_CYCLES) -> list[CyclePath]:
    """All simple directed cycles, each starting at its smallest node id;
    a self-edge is the one-node cycle ``(v, v)``.

    Johnson's blocked search (Johnson 1975) runs along parent rows from the
    smallest row of each cyclic component; that row is then dropped and
    the rest split again. The empty list is returned exactly when the
    graph is acyclic. Raises :class:`CycleLimitError` (carrying the partial
    list) once more than ``max_cycles`` cycles have been seen, or once the
    found paths would hold more than :data:`CYCLE_BUDGET_BYTES`; cycle
    counts can be exponential in graph size, so both caps are hard safety
    nets.
    """
    d = graph.dense
    found: list[CyclePath] = []
    held = 0  # node slots of the found paths
    work = [members for members, cyclic in d.blocks if cyclic]
    while work:
        members = work.pop()
        start, inside = members[0], set(members)
        path, blocked, closed = [start], {start}, [False]
        waiting: dict[int, set[int]] = {}  # row -> rows to unblock with it
        frames = [iter(d.parents[start])]
        while frames:
            for p in frames[-1]:
                if p == start:
                    if len(found) >= max_cycles:
                        raise CycleLimitError(
                            f"more than {max_cycles} simple cycles; enumeration stopped",
                            found,
                        )
                    held += len(path) + 1
                    if 8 * held > CYCLE_BUDGET_BYTES:
                        raise CycleLimitError(
                            f"cycles beyond the first {len(found)} exceed the "
                            f"{CYCLE_BUDGET_BYTES}-byte cycle budget; enumeration stopped",
                            found,
                        )
                    # the path runs against the edges: read backwards, it
                    # closes the cycle from start back to start
                    rows = (start, *reversed(path))
                    found.append(CyclePath(tuple(d.ids[r] for r in rows)))
                    closed[-1] = True
                elif p in inside and p not in blocked:
                    path.append(p)
                    blocked.add(p)
                    frames.append(iter(d.parents[p]))
                    closed.append(False)
                    break
            else:
                frames.pop()
                v = path.pop()
                if closed.pop():
                    todo = {v}
                    while todo:
                        u = todo.pop()
                        blocked.discard(u)
                        todo |= waiting.pop(u, set()) & blocked
                    if closed:
                        closed[-1] = True
                else:
                    for p in d.parents[v]:
                        if p in inside:
                            waiting.setdefault(p, set()).add(v)
        work += (rest for rest, cyclic in _components(d.parents, members[1:]) if cyclic)
    found.sort(key=lambda c: (len(c.nodes), c.nodes))
    return found


def is_loop_free(graph: AttackGraph) -> bool:
    """True when the undirected version of the graph is a forest.

    Each distinct directed edge counts as its own undirected edge, so a
    pair of antiparallel edges already forms a loop; a repeated edge counts
    once and an edge with an unknown end is skipped, as in every engine.
    Loop-free implies acyclic.
    """
    parent = list(range(len(graph.node_ids)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v, ps in enumerate(graph.dense.parents):
        for p in ps:
            a, b = find(p), find(v)
            if a == b:
                return False
            parent[a] = b
    return True


def convert_plain(plain: PlainBag) -> AttackGraph:
    """Turn a bipartite exploit/condition graph into a typed attack graph.

    Conditions nobody implies become leaves, implied conditions become Or
    nodes, exploits become And nodes; edges and ids carry over unchanged
    and each node's local probability is the plain score. Cumulative
    scores of the source then coincide with access probabilities of the
    result.
    """
    implied = {c for _, c in plain.imply_edges}
    nodes = []
    for cid in sorted(plain.conditions):
        kind = NodeKind.OR if cid in implied else NodeKind.LEAF
        nodes.append(Node(cid, kind, local_prob=float(plain.score.get(cid, 1.0))))
    for eid in sorted(plain.exploits):
        nodes.append(Node(eid, NodeKind.AND, local_prob=float(plain.score.get(eid, 1.0))))
    graph = AttackGraph(nodes, plain.require_edges + plain.imply_edges)
    # the plain formalism requires acyclicity
    if topological_order(graph) is None:
        raise PlainCycleError("plain graph is cyclic; conversion requires a DAG")
    return graph
