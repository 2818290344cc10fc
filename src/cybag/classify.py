"""Cycle classification driven by the circuit semantics.

Three behaviours distinguish cycles. A cycle is Type 1 when some node on
it never turns on under any instantiation of the primed inputs: the cycle
can never fire at all. Relative to a target node, a cycle is Type 2 when
no cycle node is ever on strictly before the target first turns on, so
the cycle contributes nothing to reaching the target, and Type 3 when
some instantiation lights a cycle node before the target first fires;
such a cycle genuinely feeds the target and cannot be cut. Type 3 reports
carry a witness: the instantiation, the early cycle node, and the tick at
which it was already on.

Type 1 needs no enumeration: the least fixed point is monotone in the
primed inputs, so one evaluation with every input of probability > 0
switched on shows which nodes can ever turn on. The Type 2/3 split
quantifies over all instantiations (sampling could not certify the
universal case), so :func:`classify_cycles` enumerates them in order,
once, on graphs with at most ``CLASSIFY_ENUM_LIMIT`` fractional inputs.
Each chunk of instantiations runs the synchronous trajectory
bit-parallel, and each cycle node collects the bits that turn on while
the target's bit is still off; those whose target does turn on are
early. The enumeration stops as soon as every cycle that is not Type 1
has a witness, and enumerates nothing when all are Type 1. A witness's
tick comes from a run of its one instantiation. :func:`classify_cycle`
and :func:`classify_all` are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .circuit import (
    Instantiation,
    enumerate_trajectories,
    first_hit_ticks,
    instantiation_at,
)
from .errors import TargetRequiredError
from .graph import AttackGraph, CyclePath, find_cycles

CLASSIFY_ENUM_LIMIT = 20


class CycleType(Enum):
    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3


@dataclass(frozen=True)
class FirstHit:
    """Earliest tick at which a node turns on; None when it never does."""

    node: int
    k_star_i: int | None


@dataclass(frozen=True)
class CycleReport:
    """``cycle_type`` is None only from :func:`classify_cycles` without a
    target, for a cycle that can fire."""

    cycle: CyclePath
    cycle_type: CycleType | None
    target: int | None = None
    witness: tuple[Instantiation, int, int] | None = None


def first_hit(graph: AttackGraph, inst: Instantiation) -> list[FirstHit]:
    """First-hit time of every node under one instantiation."""
    return [FirstHit(v, t) for v, t in zip(graph.node_ids, first_hit_ticks(graph, inst))]


def classify_cycles(
    graph: AttackGraph, cycles: list[CyclePath], target: int | None = None
) -> list[CycleReport]:
    """Classify every cycle, relative to ``target`` for the Type 2/3 split.

    Only instantiations in the support of the input distribution count:
    inputs with probability 0 or 1 are pinned. A cycle is Type 1 when one
    of its nodes never fires with every input of probability > 0 on. A
    Type 3 witness is the first instantiation in enumeration order that
    lights a cycle node before the target, the smallest node it lights
    early, and the tick before the target's first hit. Without a target,
    a cycle that can fire cannot be split into Type 2 or 3 and its report
    has ``cycle_type`` None.
    """
    d = graph.dense
    target_row = None if target is None else d.row(target)
    if not cycles:
        return []
    support = first_hit_ticks(
        graph, Instantiation({v: int(p > 0) for v, p in zip(d.ids, d.probs)})
    )
    members = [[(v, d.row(v)) for v in cycle.node_set] for cycle in cycles]
    type1 = [any(support[i] is None for _, i in rows) for rows in members]
    entries: dict[int, int] = {}  # row -> enumeration index of its first early column
    # Member rows of each cycle still undecided: not Type 1 and no member
    # with an entry yet. Later chunks hold only larger indices, so once a
    # member has an entry the cycle's witness is final.
    live = [] if target_row is None else [m for m, t1 in zip(members, type1) if not t1]
    if live:
        for start, trajectory in enumerate_trajectories(graph, CLASSIFY_ENUM_LIMIT):
            early = dict.fromkeys((i for rows in live for _, i in rows), 0)
            reached = 0
            for cells, on in trajectory:
                reached = cells[target_row]
                for i, bits in on:
                    if i in early:
                        early[i] |= bits & ~reached
            for i, bits in early.items():
                bits &= reached
                if bits:  # its lowest bit is the first early column
                    entries[i] = start + (bits & -bits).bit_length() - 1
            live = [rows for rows in live if not any(i in entries for _, i in rows)]
            if not live:
                break

    reports = []
    for cycle, rows, t1 in zip(cycles, members, type1):
        found = [(entries[i], v) for v, i in rows if i in entries]
        witness = None
        if t1:
            cycle_type = CycleType.TYPE1
        elif target is None:
            cycle_type = None
        elif not found:
            cycle_type = CycleType.TYPE2
        else:
            cycle_type = CycleType.TYPE3
            index, v = min(found)
            inst = instantiation_at(graph, index)
            tick = first_hit_ticks(graph, inst)[target_row]
            witness = (inst, v, tick - 1)
        reports.append(CycleReport(cycle, cycle_type, target, witness))
    return reports


def classify_cycle(
    graph: AttackGraph, cycle: CyclePath, target: int | None = None
) -> CycleReport:
    """Classify one cycle; see :func:`classify_cycles`.

    A target is required unless the cycle turns out to be Type 1.
    """
    (report,) = classify_cycles(graph, [cycle], target)
    if report.cycle_type is None:
        raise TargetRequiredError(
            "cycle can fire; classification as Type 2 or 3 needs a target node"
        )
    return report


def classify_all(graph: AttackGraph, target: int) -> list[CycleReport]:
    """Classify every simple cycle against the target; for another cycle
    cap than :func:`find_cycles`' default, call :func:`classify_cycles`."""
    return classify_cycles(graph, find_cycles(graph), target)


def closing_edge(graph: AttackGraph, cycle: CyclePath) -> tuple[int, int]:
    """The designated back-edge of a cycle.

    Under the all-ones instantiation the cycle node that fires first is
    the cycle's entry; the cycle edge pointing into it is the one
    edge-removal schemes would cut.
    """
    hits = first_hit_ticks(graph, Instantiation({v: 1 for v in graph.node_ids}))
    never = len(hits) + 1  # ticks start at 1, so ``or`` maps None to it
    head = min(cycle.node_set, key=lambda v: (hits[graph.dense.row(v)] or never, v))
    at = cycle.nodes.index(head, 1)  # a closed path enters each node once
    return (cycle.nodes[at - 1], head)
