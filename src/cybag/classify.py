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

Classification enumerates instantiations exhaustively (the definitions
quantify over all of them; sampling could not certify the universal
cases), so it is limited to graphs with at most ``CLASSIFY_ENUM_LIMIT``
fractional inputs. :func:`classify_cycles` runs that enumeration once,
in the circuit engine's tick mode, and reads every cycle's type and
witness off the same first-hit ticks; :func:`classify_cycle` and
:func:`classify_all` are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import Instantiation, enumerate_first_hits, first_hit_ticks, instantiation_at
from .errors import TargetRequiredError
from .graph import DEFAULT_MAX_CYCLES, AttackGraph, CyclePath, find_cycles

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
    hits = first_hit_ticks(graph, inst)
    never = len(graph.node_ids) + 1
    return [
        FirstHit(v, int(t) if t < never else None) for v, t in zip(graph.node_ids, hits)
    ]


def classify_cycles(
    graph: AttackGraph, cycles: list[CyclePath], target: int | None = None
) -> list[CycleReport]:
    """Classify every cycle, relative to ``target`` for the Type 2/3 split.

    One enumeration of the instantiations serves all cycles. Only
    instantiations in the support of the input distribution are
    considered: inputs with probability 0 or 1 are pinned. A Type 3
    witness is the first such instantiation in enumeration order, the
    smallest cycle node on before the target, and the tick before the
    target's first hit. Without a target, a cycle that can fire cannot be
    split into Type 2 or 3 and its report has ``cycle_type`` None.
    """
    d = graph.dense
    target_row = None if target is None else d.row(target)
    if not cycles:
        return []
    cycle_ids = [sorted(cycle.node_set) for cycle in cycles]
    cycle_rows = [[d.row(v) for v in ids] for ids in cycle_ids]
    on_cycles = sorted({i for rows in cycle_rows for i in rows})
    never = len(d.ids) + 1

    ever_on = np.zeros(len(d.ids), dtype=bool)
    witnesses: list[tuple[Instantiation, int, int] | None] = [None] * len(cycles)
    for idx, hits in enumerate_first_hits(graph, CLASSIFY_ENUM_LIMIT):
        for i in on_cycles:
            ever_on[i] |= bool(hits[i].min() < never)
        if target_row is None:
            continue
        th = hits[target_row]
        reached = th < never
        first = np.empty(len(idx), dtype=hits.dtype)
        for k, (ids, rows) in enumerate(zip(cycle_ids, cycle_rows)):
            if witnesses[k] is not None:
                continue
            np.copyto(first, hits[rows[0]])
            for i in rows[1:]:
                np.minimum(first, hits[i], out=first)
            early = reached & (first < th)
            if early.any():
                m = int(np.argmax(early))
                k_target = int(th[m])
                node_j = min(v for v, i in zip(ids, rows) if hits[i, m] < k_target)
                witnesses[k] = (instantiation_at(graph, int(idx[m])), node_j, k_target - 1)

    reports = []
    for cycle, rows, witness in zip(cycles, cycle_rows, witnesses):
        if not ever_on[rows].all():
            cycle_type = CycleType.TYPE1
        elif target is None:
            cycle_type = None
        elif witness is None:
            cycle_type = CycleType.TYPE2
        else:
            cycle_type = CycleType.TYPE3
        reports.append(
            CycleReport(
                cycle, cycle_type, target,
                witness if cycle_type is CycleType.TYPE3 else None,
            )
        )
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


def classify_all(
    graph: AttackGraph, target: int, max_cycles: int = DEFAULT_MAX_CYCLES
) -> list[CycleReport]:
    """Find every simple cycle and classify each against the target."""
    return classify_cycles(graph, find_cycles(graph, max_cycles), target)


def closing_edge(graph: AttackGraph, cycle: CyclePath) -> tuple[int, int]:
    """The designated back-edge of a cycle.

    Under the all-ones instantiation the cycle node that fires first is
    the cycle's entry; the cycle edge pointing into it is the one
    edge-removal schemes would cut.
    """
    hits = first_hit_ticks(graph, Instantiation({v: 1 for v in graph.node_ids}))
    head = min(cycle.node_set, key=lambda v: (int(hits[graph.dense.row(v)]), v))
    for src, dst in cycle.edge_list:
        if dst == head:
            return (src, dst)
    raise AssertionError("cycle path has no edge into its entry node")
