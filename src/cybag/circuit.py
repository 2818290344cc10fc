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
(:func:`reachability_mc`). Both work through the instantiations in
chunks whose cell matrix fits :data:`CHUNK_BUDGET_BYTES`. On acyclic
graphs the exact value agrees with variable elimination; on cyclic
graphs it is the reference semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import TooLargeError
from .graph import KIND_OR, AttackGraph, DenseIndex, NodeKind

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


@dataclass(frozen=True)
class CircuitState:
    values: Mapping[int, int]
    iteration: int


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
    fit = CHUNK_BUDGET_BYTES // (n * cell_bytes)
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


def _prime_levels(n: int, dtype) -> tuple:
    """Cell values of a primed input that is on and off, in ``dtype``'s mode."""
    return (True, False) if np.dtype(dtype) == bool else (0, n + 1)


def _fractional_inputs(d: DenseIndex) -> list[int]:
    return [i for i, p in enumerate(d.probs) if 0.0 < p < 1.0]


def _evaluate(d: DenseIndex, cells: np.ndarray) -> np.ndarray:
    """Run the condensation-order pass over ``cells`` in place and return it.

    On entry each row holds its node's primed input: True/False in
    reachability mode, 0/n + 1 in tick mode. On exit each row holds the
    node's final value or first-hit tick (see the module docstring).
    """
    n, m = cells.shape
    _, off = _prime_levels(n, cells.dtype)
    ticks = cells.dtype != bool
    if ticks:
        conj, disj = np.maximum, np.minimum
    else:
        conj, disj = np.logical_and, np.logical_or
    fed = np.empty(m, dtype=cells.dtype)

    def gate(i: int, prime: np.ndarray, out: np.ndarray) -> None:
        ps = d.parents[i]
        if d.kinds[i] == KIND_OR:
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


def _input_cells(d: DenseIndex, fractional: list[int], idx: np.ndarray, dtype) -> np.ndarray:
    """Cell matrix holding the primed inputs of enumeration indices ``idx``
    in the encoding of ``dtype``'s mode, with constant inputs folded: bit j
    of an index drives the j-th fractional input."""
    on, off = _prime_levels(len(d.ids), dtype)
    cells = np.empty((len(d.ids), len(idx)), dtype=dtype)
    for i, p in enumerate(d.probs):
        cells[i] = on if p >= 1.0 else off
    for j, i in enumerate(fractional):
        cells[i] = np.where((idx >> j) & 1, on, off)
    return cells


def _enumerate(
    d: DenseIndex, dtype, limit: int, what: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Evaluate every instantiation of the fractional inputs in ``dtype``'s
    mode, yielding (enumeration indices, evaluated cells) per chunk of
    consecutive indices. Raises :class:`TooLargeError` past ``limit``
    fractional inputs."""
    fractional = _fractional_inputs(d)
    if len(fractional) > limit:
        raise TooLargeError(
            f"{len(fractional)} fractional inputs exceed the {limit}-bit {what} limit"
        )
    total = 1 << len(fractional)
    width = chunk_columns(len(d.ids), np.dtype(dtype).itemsize, total)
    for start in range(0, total, width):
        idx = np.arange(start, min(total, start + width), dtype=np.int64)
        yield idx, _evaluate(d, _input_cells(d, fractional, idx, dtype))


def first_hit_ticks(graph: AttackGraph, inst: Instantiation) -> np.ndarray:
    """First-hit tick of every node under one instantiation, in ascending
    id order; n + 1 (for n nodes) means never."""
    _check_domain(graph, inst.bits, "instantiation")
    d = graph.dense
    dtype = _tick_dtype(len(d.ids))
    on, off = _prime_levels(len(d.ids), dtype)
    cells = np.array([[on if inst.bits[v] else off] for v in d.ids], dtype=dtype)
    return _evaluate(d, cells)[:, 0]


def enumerate_first_hits(
    graph: AttackGraph, limit: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """First-hit ticks (nodes x instantiations, n + 1 for never) of every
    instantiation of the fractional inputs, yielded per chunk with the
    chunk's enumeration indices. Raises :class:`TooLargeError` past
    ``limit`` fractional inputs."""
    d = graph.dense
    return _enumerate(d, _tick_dtype(len(d.ids)), limit, "classification")


def instantiation_at(graph: AttackGraph, index: int) -> Instantiation:
    """The instantiation at ``index`` in enumeration order."""
    d = graph.dense
    cells = _input_cells(d, _fractional_inputs(d), np.array([index]), bool)
    return Instantiation({v: int(cells[i, 0]) for i, v in enumerate(d.ids)})


def reachability_exact(graph: AttackGraph, v: int) -> ReachEstimate:
    """Exact probability that node ``v`` ever turns on.

    Only primed inputs with fractional probability are enumerated; inputs
    with probability 0 or 1 are folded to constants. Well-defined on
    cyclic graphs.
    """
    d = graph.dense
    row = d.row(v)
    fractional = _fractional_inputs(d)
    sums = []
    total = 0
    for idx, finals in _enumerate(d, bool, EXACT_ENUM_LIMIT, "enumeration"):
        weights = np.ones(len(idx))
        for j, i in enumerate(fractional):
            weights *= np.where((idx >> j) & 1, d.probs[i], 1.0 - d.probs[i])
        sums.append(math.fsum(weights[finals[row]].tolist()))
        total += len(idx)
    return ReachEstimate(min(1.0, math.fsum(sums)), "exact", total, 0.0)


def reachability_mc(
    graph: AttackGraph, v: int, samples: int, seed: int
) -> ReachEstimate:
    """Monte Carlo estimate of the reach probability with binomial error.

    Samples are drawn in budget-sized chunks, node by node within a chunk;
    at most :data:`MC_SAMPLE_LIMIT` are taken.
    """
    d = graph.dense
    row = d.row(v)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MC_SAMPLE_LIMIT:
        raise TooLargeError(
            f"{samples} samples exceed the {MC_SAMPLE_LIMIT}-sample limit"
        )
    n = len(d.ids)
    rng = np.random.default_rng(seed)
    width = chunk_columns(n, 1, samples)
    hits = 0
    for start in range(0, samples, width):
        m = min(width, samples - start)
        bits = np.empty((n, m), dtype=bool)
        for i, p in enumerate(d.probs):
            if p <= 0.0:
                bits[i] = False
            elif p >= 1.0:
                bits[i] = True
            else:
                bits[i] = rng.random(m) < p
        hits += int(_evaluate(d, bits)[row].sum())
    phat = hits / samples
    std_error = math.sqrt(phat * (1.0 - phat) / samples)
    return ReachEstimate(phat, "monte-carlo", samples, std_error)
