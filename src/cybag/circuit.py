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
from typing import Mapping

import numpy as np

from .errors import TooLargeError
from .graph import AttackGraph, NodeKind
from .propagate import _OR, _Compiled, _lookup

EXACT_ENUM_LIMIT = 24
MC_SAMPLE_LIMIT = 1 << 32
# Bytes one chunk's cell matrix may take. Graphs of up to 64 nodes get
# 2^20 bool columns per chunk, as many as the engine used to take.
CHUNK_BUDGET_BYTES = 64 << 20


@dataclass(frozen=True)
class AugmentedGraph:
    """Base graph plus one primed input per node.

    The primed input feeding node ``v`` is addressed by ``v``'s own id in
    :class:`Instantiation` bit maps.
    """

    base: AttackGraph


@dataclass(frozen=True)
class Instantiation:
    """One 0/1 assignment to every primed input."""

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


def augment(graph: AttackGraph) -> AugmentedGraph:
    return AugmentedGraph(graph)


def _check_domain(aug: AugmentedGraph, mapping: Mapping[int, int], what: str) -> None:
    if set(mapping) != set(aug.base.node_ids):
        raise ValueError(f"{what} domain does not match the augmented graph")


def _gate(kind: NodeKind, parent_values: list[int], prime: int) -> int:
    if kind is NodeKind.OR:
        fed = any(parent_values)
    else:  # And and Leaf gates conjoin; an empty conjunction is true
        fed = all(parent_values)
    return 1 if fed and prime else 0


def step(aug: AugmentedGraph, state: CircuitState, inst: Instantiation) -> CircuitState:
    """One synchronous update of every gate from the previous state."""
    _check_domain(aug, state.values, "state")
    _check_domain(aug, inst.bits, "instantiation")
    g = aug.base
    new_values = {
        v: _gate(
            g.kind(v),
            [state.values[p] for p in g.parents[v]],
            inst.bits[v],
        )
        for v in g.node_ids
    }
    return CircuitState(new_values, state.iteration + 1)


def fixed_point(aug: AugmentedGraph, inst: Instantiation) -> tuple[CircuitState, int]:
    """Iterate from all-zero until the state repeats.

    Returns the steady state and the first iteration index k with
    state(k+1) == state(k); monotonicity bounds k by the node count.
    """
    state = CircuitState({v: 0 for v in aug.base.node_ids}, 0)
    n = len(aug.base.node_ids)
    while True:
        nxt = step(aug, state, inst)
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


def _fractional_inputs(c: _Compiled) -> list[int]:
    return [i for i, p in enumerate(c.probs) if 0.0 < p < 1.0]


def _evaluate(c: _Compiled, cells: np.ndarray) -> np.ndarray:
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
        ps = c.parents[i]
        if c.kinds[i] == _OR:
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
    for members, cyclic in c.blocks:
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


def _chunks(c: _Compiled, dtype, total: int):
    """Enumeration indices 0..total-1 in budget-sized consecutive chunks."""
    width = chunk_columns(len(c.ids), np.dtype(dtype).itemsize, total)
    for start in range(0, total, width):
        yield np.arange(start, min(total, start + width), dtype=np.int64)


def _enumeration_weights(c: _Compiled, fractional: list[int], idx: np.ndarray) -> np.ndarray:
    weights = np.ones(len(idx))
    for j, i in enumerate(fractional):
        bit = ((idx >> j) & 1).astype(bool)
        weights *= np.where(bit, c.probs[i], 1.0 - c.probs[i])
    return weights


def _input_cells(c: _Compiled, fractional: list[int], idx: np.ndarray, dtype) -> np.ndarray:
    """Cell matrix holding the primed inputs of enumeration indices ``idx``
    in the encoding of ``dtype``'s mode, with constant inputs folded."""
    on, off = _prime_levels(len(c.ids), dtype)
    cells = np.empty((len(c.ids), len(idx)), dtype=dtype)
    for i, p in enumerate(c.probs):
        cells[i] = on if p >= 1.0 else off
    for j, i in enumerate(fractional):
        cells[i] = np.where((idx >> j) & 1, on, off)
    return cells


def _check_enumerable(fractional: list[int], limit: int, what: str) -> int:
    """Number of instantiations to enumerate; TooLargeError past ``limit`` bits."""
    if len(fractional) > limit:
        raise TooLargeError(
            f"{len(fractional)} fractional inputs exceed the {limit}-bit {what} limit"
        )
    return 1 << len(fractional)


def reachability_exact(graph: AttackGraph, v: int) -> ReachEstimate:
    """Exact probability that node ``v`` ever turns on.

    Only primed inputs with fractional probability are enumerated; inputs
    with probability 0 or 1 are folded to constants. Well-defined on
    cyclic graphs.
    """
    c, row = _lookup(graph, v)
    fractional = _fractional_inputs(c)
    total = _check_enumerable(fractional, EXACT_ENUM_LIMIT, "enumeration")
    sums = []
    for idx in _chunks(c, bool, total):
        weights = _enumeration_weights(c, fractional, idx)
        finals = _evaluate(c, _input_cells(c, fractional, idx, bool))
        sums.append(math.fsum(weights[finals[row]].tolist()))
    return ReachEstimate(min(1.0, math.fsum(sums)), "exact", total, 0.0)


def reachability_mc(
    graph: AttackGraph, v: int, samples: int, seed: int
) -> ReachEstimate:
    """Monte Carlo estimate of the reach probability with binomial error.

    Samples are drawn in budget-sized chunks, node by node within a chunk;
    at most :data:`MC_SAMPLE_LIMIT` are taken.
    """
    c, row = _lookup(graph, v)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MC_SAMPLE_LIMIT:
        raise TooLargeError(
            f"{samples} samples exceed the {MC_SAMPLE_LIMIT}-sample limit"
        )
    n = len(c.ids)
    rng = np.random.default_rng(seed)
    width = chunk_columns(n, 1, samples)
    hits = 0
    for start in range(0, samples, width):
        m = min(width, samples - start)
        bits = np.empty((n, m), dtype=bool)
        for i, p in enumerate(c.probs):
            if p <= 0.0:
                bits[i] = False
            elif p >= 1.0:
                bits[i] = True
            else:
                bits[i] = rng.random(m) < p
        hits += int(_evaluate(c, bits)[row].sum())
    phat = hits / samples
    std_error = math.sqrt(phat * (1.0 - phat) / samples)
    return ReachEstimate(phat, "monte-carlo", samples, std_error)
