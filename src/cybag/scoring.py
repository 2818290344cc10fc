"""CVSS-based local probabilities.

The attack/access complexity component of a CVSS vector maps to a local
probability (Low 0.71, Medium 0.61, High 0.35, anything unknown 0.61).
Vulnerability data is ingested from an offline JSON feed file rather than
a live NVD client so runs stay hermetic; leaves are matched to feed
records by the CVE ids embedded in their labels.
"""

from __future__ import annotations

import logging
import re
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum

from .errors import SchemaError
from .formats import load_json
from .graph import AttackGraph, NodeKind

log = logging.getLogger(__name__)

CVE_PATTERN = re.compile(r"CVE-\d{4}-\d{4,}", re.IGNORECASE)


class Complexity(Enum):
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"
    UNKNOWN = "Unknown"


class ComplexityScore(namedtuple("ComplexityScore", "value cvss_version")):
    """A :class:`Complexity` and its CVSS version: 2, 3 or None for unknown."""

    __slots__ = ()

    def __new__(cls, value: Complexity, cvss_version: int | None):
        if value is Complexity.MEDIUM and cvss_version != 2:
            raise ValueError("Medium complexity exists only in CVSS version 2")
        return tuple.__new__(cls, (value, cvss_version))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too


class CveRecord(namedtuple("CveRecord", "cve_id complexity")):
    __slots__ = ()

    def __new__(cls, cve_id: str, complexity: ComplexityScore):
        if not CVE_PATTERN.fullmatch(cve_id):
            raise ValueError(f"not a CVE id: {cve_id!r}")
        return tuple.__new__(cls, (cve_id, complexity))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too


_LOCAL_PROBABILITY = {
    Complexity.LOW: 0.71,
    Complexity.MEDIUM: 0.61,
    Complexity.UNKNOWN: 0.61,
    Complexity.HIGH: 0.35,
}

_UNKNOWN = ComplexityScore(Complexity.UNKNOWN, None)


def probability_from_complexity(score: ComplexityScore) -> float:
    return _LOCAL_PROBABILITY[score.value]


def parse_cvss_vector(vector: str) -> ComplexityScore:
    """Extract the complexity component of a CVSS v2 or v3 vector.

    Total function: anything that does not parse maps to Unknown.
    """
    text = vector.strip()
    v3 = text.upper().startswith("CVSS:3.")
    levels = {"L": Complexity.LOW, "H": Complexity.HIGH}
    if not v3:
        levels["M"] = Complexity.MEDIUM
    for token in text.split("/")[v3:]:
        key, _, val = token.partition(":")
        if key.upper() == "AC" and val.upper() in levels:
            return ComplexityScore(levels[val.upper()], 3 if v3 else 2)
    return _UNKNOWN


def import_feed(path) -> list[CveRecord]:
    """Read a JSON array of ``{"cve_id": ..., "vector": ...}`` objects.

    Later duplicates of a CVE id win, with a warning. A feed that breaks
    this shape is a :class:`SchemaError` at the JSON path of the element.
    """
    data = load_json(path)
    if not isinstance(data, list):
        raise SchemaError("feed must be a JSON array of records", "$")

    by_id: dict[str, CveRecord] = {}
    for i, item in enumerate(data):
        if not isinstance(item, dict) or "cve_id" not in item or "vector" not in item:
            raise SchemaError("record must be an object with cve_id and vector", f"[{i}]")
        cve_id = str(item["cve_id"]).upper()
        if not CVE_PATTERN.fullmatch(cve_id):
            raise SchemaError(f"not a CVE id: {item['cve_id']!r}", f"[{i}].cve_id")
        if cve_id in by_id:
            log.warning("duplicate feed entry for %s; keeping the last one", cve_id)
        if not isinstance(item["vector"], str):
            raise SchemaError("vector must be a string", f"[{i}].vector")
        by_id[cve_id] = CveRecord(cve_id, parse_cvss_vector(item["vector"]))
    return list(by_id.values())


def apply_scores(graph: AttackGraph, records: Iterable[CveRecord]) -> AttackGraph:
    """New graph with leaf probabilities set from matching CVE records.

    A leaf matches when its label contains a CVE id present in the
    records; all other nodes are untouched, and the node/edge structure is
    never altered. Records that match no leaf are reported as warnings.
    """
    by_id = {r.cve_id: r for r in records}
    new_probs: dict[int, float] = {}
    used: set[str] = set()
    for node in graph.nodes:
        if node.kind is not NodeKind.LEAF:
            continue
        for match in CVE_PATTERN.finditer(node.label):
            cve_id = match.group(0).upper()
            record = by_id.get(cve_id)
            if record is not None:
                new_probs[node.id] = probability_from_complexity(record.complexity)
                used.add(cve_id)
                break
    for cve_id in sorted(set(by_id) - used):
        log.warning("feed record %s matches no leaf label", cve_id)
    return graph.replace_probs(new_probs)
