"""Combinational-circuit view of an attack graph.

Every node gets one primed Bernoulli input that carries its local
probability; the node itself becomes a deterministic gate: And and Leaf
nodes conjoin their parents with the primed input, Or nodes disjoin the
parents and conjoin the primed input. :func:`step` updates the gates
synchronously, walking the attacker forward one move per tick, and
:func:`fixed_point` repeats it from the all-zero state until the state
repeats. Because the update is monotone in {0,1}, every instantiation of
the primed inputs settles into a unique least fixed point after at most
one step per node, cycles included. These two functions are the
reference semantics.

The engine evaluates many instantiations at once. A chunk of m
instantiations holds one Python int per node whose bit c belongs to
instantiation c, so a gate is a few bitwise operations over all m of them
(bit-parallel simulation). One run drives that gate: the trajectory,
:func:`step` itself run from all-off over every column at once. A tick
re-evaluates only the children of the nodes that changed in the tick
before, and the run stops when nothing changes. A bit that turns on at
tick t is its node's first hit in that column, and the last state is the
least fixed point.

The probability that a node is ever reached is then a reachability
probability over instantiations of the primed inputs. It is computed
exactly by weighted enumeration of the inputs with fractional
probabilities (:func:`reachability_exact`) or estimated by sampling
(:func:`reachability_mc`). Both run one chunk loop, which fills each
chunk's inputs from one input encoder and evaluates them. A chunk is as
wide as a matrix of one byte per node and instantiation that fits
:data:`CHUNK_BUDGET_BYTES`; its packed bits take an eighth of that. Only
sampling imports numpy, for its draws. On acyclic graphs the exact value
agrees with variable elimination; on cyclic graphs it is the reference
semantics.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain, compress, repeat
from operator import mul

from .errors import TooLargeError
from .graph import AttackGraph, DenseIndex, NodeKind

EXACT_ENUM_LIMIT = 24
MC_SAMPLE_LIMIT = 1 << 32
# Bytes one chunk's cell matrix may take, at a byte per cell. Graphs of
# up to 64 nodes get 2^20 columns per chunk.
CHUNK_BUDGET_BYTES = 64 << 20
# one tick of a packed trajectory: the state, and (row, new state) of each
# row that changed
Tick = tuple[list[int], list[tuple[int, int]]]
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")  # bin() digits to compress() flags


class Instantiation(namedtuple("Instantiation", "bits")):
    """One 0/1 assignment to every primed input, keyed by the id of the
    node each input feeds: ``bits`` maps node ids to 0 or 1."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.bits.items()))


class CircuitState(namedtuple("CircuitState", "values iteration")):
    """Every gate's 0/1 value by node id after ``iteration`` steps."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash((frozenset(self.values.items()), self.iteration))


class ReachEstimate(namedtuple("ReachEstimate", "probability method samples std_error")):
    """``method`` is "exact" or "monte-carlo"."""

    __slots__ = ()


def _check_domain(graph: AttackGraph, mapping: Mapping[int, int], what: str) -> None:
    if set(mapping) != set(graph.node_ids):
        raise ValueError(f"{what} domain does not match the graph")


def _gate(kind: NodeKind, parent_values: list[int], prime: int) -> int:
    if kind is NodeKind.OR:
        fed = any(parent_values)
    else:  # And and Leaf gates conjoin; an empty conjunction is true
        fed = all(parent_values)
    return 1 if fed and prime else 0


def step(graph: AttackGraph, state: CircuitState, inst: Instantiation) -> CircuitState:
    """One synchronous update of every gate from the previous state."""
    _check_domain(graph, state.values, "state")
    _check_domain(graph, inst.bits, "instantiation")
    new_values = {
        v: _gate(
            graph.kind(v),
            [state.values[p] for p in graph.parents[v]],
            inst.bits[v],
        )
        for v in graph.node_ids
    }
    return CircuitState(new_values, state.iteration + 1)


def fixed_point(graph: AttackGraph, inst: Instantiation) -> tuple[CircuitState, int]:
    """Iterate from all-zero until the state repeats.

    Returns the steady state and the first iteration index k with
    state(k+1) == state(k); monotonicity bounds k by the node count.
    """
    state = CircuitState({v: 0 for v in graph.node_ids}, 0)
    n = len(graph.node_ids)
    while True:
        nxt = step(graph, state, inst)
        if nxt.values == state.values:
            k_star = state.iteration
            assert k_star <= n, f"fixed point after {k_star} steps on {n} nodes"
            return state, k_star
        state = nxt


def chunk_columns(n: int, total: int) -> int:
    """Instantiations per chunk for ``n`` nodes at one byte per cell.

    The largest power of two whose cell matrix fits
    :data:`CHUNK_BUDGET_BYTES`, capped at ``total``. Raises
    :class:`TooLargeError` when not even one column fits.
    """
    fit = CHUNK_BUDGET_BYTES // max(1, n)  # an empty matrix fits any budget
    if fit < 1:
        raise TooLargeError(
            f"one instantiation of {n} nodes exceeds the "
            f"{CHUNK_BUDGET_BYTES}-byte chunk budget"
        )
    return min(total, 1 << (fit.bit_length() - 1))


def _fractional_probs(d: DenseIndex) -> list[float]:
    return [p for p in d.probs if 0.0 < p < 1.0]


def _gate_bits(d: DenseIndex, cells: list[int], i: int, prime: int) -> int:
    """Row ``i``'s gate over packed columns; an Or without parents is off."""
    ps = d.parents[i]
    if d.kinds[i] is NodeKind.OR:
        fed = 0
        for p in ps:
            fed |= cells[p]
        return prime & fed
    for p in ps:
        prime &= cells[p]
    return prime


def _trajectory(d: DenseIndex, primes: list[int]) -> Iterator[Tick]:
    """The :func:`step` trajectory from all-off over packed columns: per
    tick, the state after it and (row, new state) for each row that
    changed. The state only grows, and the run stops when it repeats."""
    children: list[list[int]] = [[] for _ in primes]
    for i, ps in enumerate(d.parents):
        for p in ps:
            children[p].append(i)
    cells = [0] * len(primes)
    todo: Iterable[int] = range(len(primes))
    while True:
        on = [(i, s) for i in todo if (s := _gate_bits(d, cells, i, primes[i])) != cells[i]]
        if not on:
            return
        for i, s in on:
            cells[i] = s
        yield cells, on
        todo = {c for i, _ in on for c in children[i]}


def _least_fixed_point(d: DenseIndex, primes: list[int]) -> list[int]:
    """Every row's least-fixed-point bits: the trajectory's last state."""
    cells = [0] * len(primes)  # all off when nothing turns on
    for cells, _ in _trajectory(d, primes):
        pass
    return cells


def _primes(d: DenseIndex, fill, m: int) -> list[int]:
    """Every primed input packed over ``m`` columns: all off or all on for
    probability 0 or 1; ``fill(j, p)`` gives the j-th fractional input, in
    row order."""
    cells, j = [], 0
    for p in d.probs:
        if 0.0 < p < 1.0:
            cells.append(fill(j, p))
            j += 1
        else:
            cells.append((1 << m) - 1 if p >= 1.0 else 0)
    return cells


def _chunks(d: DenseIndex, total: int, source) -> Iterator[tuple[int, int, list[int]]]:
    """(first column, width, packed primed inputs) of each chunk of ``total``
    instantiations; ``source(start, m)`` gives the :func:`_primes` fill of
    the m columns from ``start``."""
    width = chunk_columns(len(d.ids), total)
    for start in range(0, total, width):
        m = min(width, total - start)
        yield start, m, _primes(d, source(start, m), m)


def _index_bits(start: int, m: int):
    """Bits of enumeration indices ``start`` to ``start + m - 1``, for ``m``
    a power of two dividing ``start``: bit j of an index drives the j-th
    fractional input. A bit below log2(m) repeats with period 2^(j+1),
    built by shift-doubling; the others are constant over the chunk."""

    def fill(j: int, p: float) -> int:
        half = 1 << j
        if half >= m:
            return (1 << m) - 1 if start >> j & 1 else 0
        word, period = ((1 << half) - 1) << half, 2 * half
        while period < m:
            word |= word << period
            period *= 2
        return word

    return fill


def _enumerate(d: DenseIndex, limit: int, what: str) -> Iterator[tuple[int, int, list[int]]]:
    """:func:`_chunks` over every instantiation of the fractional inputs, in
    enumeration order. Raises :class:`TooLargeError` past ``limit`` of them."""
    k = len(_fractional_probs(d))
    if k > limit:
        raise TooLargeError(f"{k} fractional inputs exceed the {limit}-bit {what} limit")
    return _chunks(d, 1 << k, _index_bits)


def first_hit_ticks(graph: AttackGraph, inst: Instantiation) -> list[int | None]:
    """First-hit tick of every node under one instantiation, in ascending
    id order; None means never."""
    _check_domain(graph, inst.bits, "instantiation")
    d = graph.dense
    hits: list[int | None] = [None] * len(d.ids)
    primes = [1 if inst.bits[v] else 0 for v in d.ids]
    for tick, (_, on) in enumerate(_trajectory(d, primes), 1):
        for i, _ in on:
            hits[i] = tick
    return hits


def enumerate_trajectories(
    graph: AttackGraph, limit: int
) -> Iterator[tuple[int, Iterator[Tick]]]:
    """The trajectory of every instantiation of the fractional inputs, per
    chunk: the chunk's first enumeration index and its bit-parallel
    :func:`step` run, which yields per tick the state (bit c is index
    start + c) and the rows that changed with their new state. Raises
    :class:`TooLargeError` past ``limit`` fractional inputs."""
    d = graph.dense
    for start, _, primes in _enumerate(d, limit, "classification"):
        yield start, _trajectory(d, primes)


def instantiation_at(graph: AttackGraph, index: int) -> Instantiation:
    """The instantiation at ``index`` in enumeration order."""
    d = graph.dense
    return Instantiation(dict(zip(d.ids, _primes(d, lambda j, p: index >> j & 1, 1))))


def reachability_exact(graph: AttackGraph, v: int) -> ReachEstimate:
    """Exact probability that node ``v`` ever turns on.

    Only primed inputs with fractional probability are enumerated; inputs
    with probability 0 or 1 are folded to constants. Well-defined on
    cyclic graphs.
    """
    d = graph.dense
    row = d.row(v)
    fractional = _fractional_probs(d)
    sums, weights = [], [1.0]
    for start, m, cells in _enumerate(d, EXACT_ENUM_LIMIT, "enumeration"):
        # a column's weight is the product of its inputs' factors in input
        # order. Every chunk is m wide: the products over the bits that vary
        # in an eighth of a chunk are doubled out once, and the columns each
        # eighth picks take that eighth's constant factors lazily. At 32
        # bytes a float, the table is about as large as the chunk's packed
        # bits, where a half-chunk table would be four times that.
        part = max(1, m // 8)
        while len(weights) < part:
            p = fractional[len(weights).bit_length() - 1]
            weights = [w * f for f in (1.0 - p, p) for w in weights]
        on = bin(_least_fixed_point(d, cells)[row])[:1:-1].encode().translate(_BIT_FLAGS)
        parts = []
        for s in range(0, m, part):
            picked = compress(weights, on[s : s + part])  # byte c of ``on`` is bit c
            for j in range(part.bit_length() - 1, len(fractional)):
                p = fractional[j]
                picked = map(mul, picked, repeat(p if (start + s) >> j & 1 else 1.0 - p))
            parts.append(picked)
        sums.append(math.fsum(chain(*parts)))
    return ReachEstimate(min(1.0, math.fsum(sums)), "exact", 1 << len(fractional), 0.0)


def reachability_mc(
    graph: AttackGraph, v: int, samples: int, seed: int
) -> ReachEstimate:
    """Monte Carlo estimate of the reach probability with binomial error.

    Samples are drawn in budget-sized chunks, one draw per fractional input
    in row order within a chunk, and packed into bits piece by piece; at
    most :data:`MC_SAMPLE_LIMIT` are taken. Imports numpy for the draws.
    """
    import numpy as np

    d = graph.dense
    row = d.row(v)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MC_SAMPLE_LIMIT:
        raise TooLargeError(
            f"{samples} samples exceed the {MC_SAMPLE_LIMIT}-sample limit"
        )
    rng = np.random.default_rng(seed)
    # a draw of k samples holds 8k bytes beside the chunk: a sixteenth of the budget
    piece = max(1, CHUNK_BUDGET_BYTES // 128)

    def draw(start: int, m: int):
        def fill(j: int, p: float) -> int:
            word = 0
            for a in range(0, m, piece):
                drawn = np.packbits(rng.random(min(piece, m - a)) < p, bitorder="little")
                word |= int.from_bytes(drawn, "little") << a
            return word

        return fill

    chunks = _chunks(d, samples, draw)
    hits = sum(_least_fixed_point(d, cells)[row].bit_count() for _, _, cells in chunks)
    phat = hits / samples
    std_error = math.sqrt(phat * (1.0 - phat) / samples)
    return ReachEstimate(phat, "monte-carlo", samples, std_error)
