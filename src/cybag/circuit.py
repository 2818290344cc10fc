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

The engine evaluates many instantiations at once, one per column of a
(nodes x instantiations) cell matrix, in a single pass over the strongly
connected components of the graph in topological order of their
condensation. A node on no cycle is evaluated once from its finished
parents; the members of a cyclic component are swept until a sweep
changes nothing. The cell dtype selects one of two modes:

* Reachability (bool cells) gives the least fixed point itself, iterated
  upwards from all-off.
* Ticks (the narrowest signed integer that holds n + 1) gives the tick
  at which each node first turns on in the synchronous trajectory, with
  n + 1 for never. An And or Leaf node fires one tick after its last
  parent, an Or node one tick after its first, either only if its primed
  input is on; an Or without parents never fires. This AND/OR
  shortest-path system (Knuth 1977) is iterated downwards from never,
  which reaches its greatest solution: the first-hit ticks.

The probability that a node is ever reached is then a reachability
probability over instantiations of the primed inputs. It is computed
exactly by weighted enumeration of the inputs with fractional
probabilities (:func:`reachability_exact`) or estimated by sampling
(:func:`reachability_mc`). Both run one chunk loop, which fills each
chunk's cells from one input encoder and evaluates them; a chunk's cell
matrix fits :data:`CHUNK_BUDGET_BYTES`. On acyclic graphs the exact
value agrees with variable elimination; on cyclic graphs it is the
reference semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import TooLargeError
from .graph import AttackGraph, DenseIndex, NodeKind

EXACT_ENUM_LIMIT = 24
MC_SAMPLE_LIMIT = 1 << 32
# Bytes one chunk's cell matrix may take. Graphs of up to 64 nodes get
# 2^20 bool columns per chunk, as many as the engine used to take.
CHUNK_BUDGET_BYTES = 64 << 20


@dataclass(frozen=True)
class Instantiation:
    """One 0/1 assignment to every primed input, keyed by the id of the
    node each input feeds."""

    bits: Mapping[int, int]

    def __hash__(self) -> int:
        return hash(frozenset(self.bits.items()))


@dataclass(frozen=True)
class CircuitState:
    values: Mapping[int, int]
    iteration: int

    def __hash__(self) -> int:
        return hash((frozenset(self.values.items()), self.iteration))


@dataclass(frozen=True)
class ReachEstimate:
    probability: float
    method: str  # "exact" or "monte-carlo"
    samples: int
    std_error: float


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


def chunk_columns(n: int, cell_bytes: int, total: int) -> int:
    """Instantiations per chunk for ``n`` nodes at ``cell_bytes`` per cell.

    The largest power of two whose cell matrix fits
    :data:`CHUNK_BUDGET_BYTES`, capped at ``total``. Raises
    :class:`TooLargeError` when not even one column fits.
    """
    fit = CHUNK_BUDGET_BYTES // max(1, n * cell_bytes)  # an empty matrix fits any budget
    if fit < 1:
        raise TooLargeError(
            f"one instantiation of {n} nodes exceeds the "
            f"{CHUNK_BUDGET_BYTES}-byte chunk budget"
        )
    return min(total, 1 << (fit.bit_length() - 1))


def _tick_dtype(n: int) -> np.dtype:
    """Narrowest signed integer dtype that holds the never-tick n + 1."""
    return next(
        np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max > n
    )


def _fractional_probs(d: DenseIndex) -> list[float]:
    return [p for p in d.probs if 0.0 < p < 1.0]


def _evaluate(d: DenseIndex, cells: np.ndarray) -> np.ndarray:
    """Run the condensation-order pass over ``cells`` in place and return it.

    On entry each row holds its node's primed input: True/False in
    reachability mode, 0/n + 1 in tick mode. On exit each row holds the
    node's final value or first-hit tick (see the module docstring).
    """
    n, m = cells.shape
    ticks = cells.dtype != bool
    off = n + 1 if ticks else False
    if ticks:
        conj, disj = np.maximum, np.minimum
    else:
        conj, disj = np.logical_and, np.logical_or
    fed = np.empty(m, dtype=cells.dtype)
    OR = NodeKind.OR

    def gate(i: int, prime: np.ndarray, out: np.ndarray) -> None:
        ps = d.parents[i]
        if d.kinds[i] is OR:
            if not ps:
                out.fill(off)
                return
            np.copyto(fed, cells[ps[0]])
            for p in ps[1:]:
                disj(fed, cells[p], out=fed)
            conj(prime, fed, out=out)
        else:
            if out is not prime:
                np.copyto(out, prime)
            for p in ps:
                conj(out, cells[p], out=out)
        if ticks:
            # a node that fires does so by tick n, so the cap only keeps
            # never at n + 1, inside the dtype
            np.minimum(out, n, out=out)
            out += 1

    new = np.empty(m, dtype=cells.dtype)
    for members, cyclic in d.blocks:
        if not cyclic:
            gate(members[0], cells[members[0]], cells[members[0]])
            continue
        primes = cells[list(members)]
        cells[list(members)] = off
        changed = True
        while changed:
            changed = False
            for prime, i in zip(primes, members):
                gate(i, prime, new)
                if not np.array_equal(new, cells[i]):
                    cells[i] = new
                    changed = True
    return cells


def _primes(d: DenseIndex, fill, cells: np.ndarray) -> None:
    """Write every primed input into its row of ``cells``: False or True for
    probability 0 or 1; ``fill(j, p, row)`` writes the j-th fractional
    input, in row order, into its row in place."""
    j = 0
    for i, p in enumerate(d.probs):
        if 0.0 < p < 1.0:
            fill(j, p, cells[i])
            j += 1
        else:
            cells[i] = p >= 1.0


def _chunks(d: DenseIndex, dtype, total: int, source) -> Iterator[tuple[int, np.ndarray]]:
    """Evaluate ``total`` instantiations in ``dtype``'s mode, yielding (first
    column, evaluated cells) per chunk; ``source(start, m)`` gives the
    :func:`_primes` fill of the m columns from ``start``."""
    n = len(d.ids)
    width = chunk_columns(n, np.dtype(dtype).itemsize, total)
    for start in range(0, total, width):
        m = min(width, total - start)
        cells = np.empty((n, m), dtype=dtype)
        _primes(d, source(start, m), cells)
        if cells.dtype != bool:  # on 1 -> tick 0, off 0 -> never n + 1
            np.subtract(1, cells, out=cells)
            cells *= n + 1
        yield start, _evaluate(d, cells)


def _index_bits(start: int, m: int):
    """Bits of enumeration indices ``start`` to ``start + m - 1``: bit j of
    an index drives the j-th fractional input."""
    idx = np.arange(start, start + m, dtype=np.int64)

    def fill(j: int, p: float, row: np.ndarray) -> None:
        row[:] = (idx >> j) & 1

    return fill


def _enumerate(d: DenseIndex, dtype, limit: int, what: str) -> Iterator[tuple[int, np.ndarray]]:
    """:func:`_chunks` over every instantiation of the fractional inputs, in
    enumeration order. Raises :class:`TooLargeError` past ``limit`` of them."""
    k = len(_fractional_probs(d))
    if k > limit:
        raise TooLargeError(f"{k} fractional inputs exceed the {limit}-bit {what} limit")
    return _chunks(d, dtype, 1 << k, _index_bits)


def first_hit_ticks(graph: AttackGraph, inst: Instantiation) -> np.ndarray:
    """First-hit tick of every node under one instantiation, in ascending
    id order; n + 1 (for n nodes) means never."""
    _check_domain(graph, inst.bits, "instantiation")
    d = graph.dense
    n = len(d.ids)
    cells = np.array([[0 if inst.bits[v] else n + 1] for v in d.ids], dtype=_tick_dtype(n))
    return _evaluate(d, cells)[:, 0]


def enumerate_first_hits(
    graph: AttackGraph, limit: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """First-hit ticks (nodes x instantiations, n + 1 for never) of every
    instantiation of the fractional inputs, yielded per chunk with the
    chunk's enumeration indices. Raises :class:`TooLargeError` past
    ``limit`` fractional inputs."""
    d = graph.dense
    for start, hits in _enumerate(d, _tick_dtype(len(d.ids)), limit, "classification"):
        yield np.arange(start, start + hits.shape[1], dtype=np.int64), hits


def instantiation_at(graph: AttackGraph, index: int) -> Instantiation:
    """The instantiation at ``index`` in enumeration order."""
    d = graph.dense
    cells = np.empty((len(d.ids), 1), dtype=np.int8)
    _primes(d, lambda j, p, row: row.fill((index >> j) & 1), cells)
    return Instantiation({v: int(bit) for v, bit in zip(d.ids, cells[:, 0])})


def reachability_exact(graph: AttackGraph, v: int) -> ReachEstimate:
    """Exact probability that node ``v`` ever turns on.

    Only primed inputs with fractional probability are enumerated; inputs
    with probability 0 or 1 are folded to constants. Well-defined on
    cyclic graphs.
    """
    d = graph.dense
    row = d.row(v)
    fractional = _fractional_probs(d)
    sums = []
    for start, finals in _enumerate(d, bool, EXACT_ENUM_LIMIT, "enumeration"):
        idx = np.arange(start, start + finals.shape[1], dtype=np.int64)
        weights = np.ones(finals.shape[1])
        for j, p in enumerate(fractional):
            weights *= np.where((idx >> j) & 1, p, 1.0 - p)
        sums.append(math.fsum(weights[finals[row]].tolist()))
    return ReachEstimate(min(1.0, math.fsum(sums)), "exact", 1 << len(fractional), 0.0)


def reachability_mc(
    graph: AttackGraph, v: int, samples: int, seed: int
) -> ReachEstimate:
    """Monte Carlo estimate of the reach probability with binomial error.

    Samples are drawn in budget-sized chunks, one draw per fractional input
    in row order within a chunk; at most :data:`MC_SAMPLE_LIMIT` are taken.
    """
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

    def draw(j: int, p: float, row: np.ndarray) -> None:
        for a in range(0, len(row), piece):
            out = row[a : a + piece]
            np.less(rng.random(len(out)), p, out=out)

    chunks = _chunks(d, bool, samples, lambda start, m: draw)
    hits = sum(int(cells[row].sum()) for _, cells in chunks)
    phat = hits / samples
    std_error = math.sqrt(phat * (1.0 - phat) / samples)
    return ReachEstimate(phat, "monte-carlo", samples, std_error)
