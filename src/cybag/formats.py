"""Serialization: canonical JSON graphs, MulVAL-style CSV import, DOT export.

The JSON document is ``{"version": "1", "notes": optional text, "nodes":
[{"id", "kind", "label", "p"}], "edges": [[src, dst], ...]}``. Nodes and
edges are written in ascending order and probabilities as shortest
round-tripping decimal strings, so writing the same graph twice yields
byte-identical files.

A companion document for bipartite exploit/condition graphs (used by the
``convert`` pipeline) has ``exploits``/``conditions`` lists of
``{"id", "p"}`` plus ``require_edges`` and ``imply_edges``.
"""

from __future__ import annotations

import csv
import json
from importlib import resources
from typing import Mapping

from .errors import IoError, ParseError, SchemaError
from .graph import AttackGraph, Node, NodeKind, PlainBag

FORMAT_VERSION = "1"

_KIND_NAMES = {NodeKind.LEAF: "leaf", NodeKind.AND: "and", NodeKind.OR: "or"}
_KINDS_BY_NAME = {v: k for k, v in _KIND_NAMES.items()}


def _parse_prob(raw, path: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise SchemaError("probability must be a number or decimal string", path)
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError(f"not a probability: {raw!r}", path) from None
    if not 0.0 <= value <= 1.0:
        raise SchemaError(f"probability {value} outside [0, 1]", path)
    return abs(value)  # "-0" parses to -0.0, which would print as -0.000000


def document_to_graph(doc) -> AttackGraph:
    """Decode a graph document, reporting the JSON path of any bad element."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object", "$")
    if doc.get("version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported version {doc.get('version')!r}", "version")
    if not isinstance(doc.get("nodes"), list):
        raise SchemaError("nodes must be a list", "nodes")
    if not isinstance(doc.get("edges"), list):
        raise SchemaError("edges must be a list", "edges")

    nodes: list[Node] = []
    ids: set[int] = set()
    for i, item in enumerate(doc["nodes"]):
        where = f"nodes[{i}]"
        if not isinstance(item, dict):
            raise SchemaError("node must be an object", where)
        nid = item.get("id")
        if not isinstance(nid, int) or isinstance(nid, bool) or nid < 0:
            raise SchemaError("id must be a non-negative integer", f"{where}.id")
        if nid in ids:
            raise SchemaError(f"duplicate node id {nid}", f"{where}.id")
        ids.add(nid)
        kind = _KINDS_BY_NAME.get(item.get("kind"))
        if kind is None:
            raise SchemaError(
                f"kind must be one of leaf/and/or, got {item.get('kind')!r}",
                f"{where}.kind",
            )
        label = item.get("label", "")
        if not isinstance(label, str):
            raise SchemaError("label must be a string", f"{where}.label")
        prob = _parse_prob(item.get("p", "1"), f"{where}.p")
        nodes.append(Node(nid, kind, label, prob))

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for i, item in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise SchemaError("edge must be a [src, dst] integer pair", where)
        src, dst = item
        if src not in ids or dst not in ids:
            raise SchemaError(f"edge [{src}, {dst}] references an unknown node", where)
        if src == dst:
            raise SchemaError(f"self-edge on node {src}", where)
        if (src, dst) in seen:
            raise SchemaError(f"duplicate edge [{src}, {dst}]", where)
        seen.add((src, dst))
        edges.append((src, dst))
    return AttackGraph(nodes, edges)


def graph_to_document(graph: AttackGraph, notes: str | None = None) -> dict:
    doc: dict = {"version": FORMAT_VERSION}
    if notes:
        doc["notes"] = notes
    doc["nodes"] = [
        {
            "id": n.id,
            "kind": _KIND_NAMES[n.kind],
            "label": n.label,
            "p": repr(n.local_prob),
        }
        for n in graph.nodes
    ]
    doc["edges"] = [[src, dst] for src, dst in graph.edges]
    return doc


def _read_document(path):
    """Parse a JSON file; bytes that are not UTF-8 or not JSON are schema errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc.reason}", "$") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc.msg} (line {exc.lineno})", "$") from exc
    except RecursionError as exc:
        raise SchemaError("JSON nested too deeply", "$") from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise SchemaError(f"not valid JSON: {exc}", "$") from exc


def read_json(path) -> AttackGraph:
    return document_to_graph(_read_document(path))


def write_json(graph: AttackGraph, path, notes: str | None = None) -> None:
    payload = json.dumps(graph_to_document(graph, notes), indent=2, ensure_ascii=False)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def plain_document_to_bag(doc) -> PlainBag:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object", "$")
    score: dict[int, float] = {}

    def read_side(key: str) -> set[int]:
        items = doc.get(key)
        if not isinstance(items, list):
            raise SchemaError(f"{key} must be a list", key)
        out: set[int] = set()
        for i, item in enumerate(items):
            where = f"{key}[{i}]"
            if not isinstance(item, dict) or not isinstance(item.get("id"), int):
                raise SchemaError("entry must be an object with an integer id", where)
            nid = item["id"]
            if nid in score:
                raise SchemaError(f"duplicate id {nid}", f"{where}.id")
            score[nid] = _parse_prob(item.get("p", "1"), f"{where}.p")
            out.add(nid)
        return out

    exploits = read_side("exploits")
    conditions = read_side("conditions")

    def read_edges(key: str) -> list[tuple[int, int]]:
        items = doc.get(key, [])
        if not isinstance(items, list):
            raise SchemaError(f"{key} must be a list", key)
        out = []
        for i, item in enumerate(items):
            if not isinstance(item, list) or len(item) != 2:
                raise SchemaError("edge must be a [src, dst] pair", f"{key}[{i}]")
            out.append((item[0], item[1]))
        return out

    try:
        return PlainBag(
            exploits,
            conditions,
            read_edges("require_edges"),
            read_edges("imply_edges"),
            score,
        )
    except ValueError as exc:
        raise SchemaError(str(exc), "$") from exc


def read_plain_json(path) -> PlainBag:
    return plain_document_to_bag(_read_document(path))


_MULVAL_KINDS = {"LEAF": NodeKind.LEAF, "AND": NodeKind.AND, "OR": NodeKind.OR}


def read_mulval_csv(vertices_path, arcs_path) -> AttackGraph:
    """Two-file CSV import: vertices ``id,"label",kind,p`` and arcs ``src,dst``.

    Real MulVAL emits a few extra columns; this reader takes the minimal
    shape. Labels must be quoted if they contain commas.
    """
    nodes: list[Node] = []
    ids: set[int] = set()
    try:
        with open(vertices_path, "r", encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if len(row) != 4:
                    raise ParseError(
                        f"expected 4 fields id,label,kind,p, got {len(row)}", lineno
                    )
                raw_id, label, raw_kind, raw_p = row
                try:
                    nid = int(raw_id)
                except ValueError:
                    raise ParseError(f"bad node id {raw_id!r}", lineno) from None
                kind = _MULVAL_KINDS.get(raw_kind.strip())
                if kind is None:
                    raise ParseError(f"unknown node kind {raw_kind!r}", lineno)
                try:
                    prob = float(raw_p)
                except ValueError:
                    raise ParseError(f"bad probability {raw_p!r}", lineno) from None
                if not 0.0 <= prob <= 1.0:
                    raise ParseError(f"probability {prob} outside [0, 1]", lineno)
                if nid in ids:
                    raise ParseError(f"duplicate node id {nid}", lineno)
                ids.add(nid)
                nodes.append(Node(nid, kind, label, abs(prob)))  # "-0" -> 0.0
    except OSError as exc:
        raise IoError(f"cannot read {vertices_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{vertices_path} is not UTF-8 text: {exc.reason}") from exc

    edges: list[tuple[int, int]] = []
    try:
        with open(arcs_path, "r", encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if len(row) != 2:
                    raise ParseError(f"expected 2 fields src,dst, got {len(row)}", lineno)
                try:
                    src, dst = int(row[0]), int(row[1])
                except ValueError:
                    raise ParseError(f"bad arc {row!r}", lineno) from None
                if src not in ids or dst not in ids:
                    raise ParseError(f"arc ({src}, {dst}) references unknown node", lineno)
                edges.append((src, dst))
    except OSError as exc:
        raise IoError(f"cannot read {arcs_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{arcs_path} is not UTF-8 text: {exc.reason}") from exc
    return AttackGraph(nodes, edges)


_DOT_SHAPES = {NodeKind.OR: "diamond", NodeKind.AND: "ellipse", NodeKind.LEAF: "box"}


def write_dot(
    graph: AttackGraph, path, probs: Mapping[int, float] | None = None
) -> None:
    """GraphViz export: Or nodes are diamonds, And ellipses, leaves boxes."""
    if probs is not None:
        missing = [v for v in graph.node_ids if v not in probs]
        if missing:
            raise ValueError(f"probability map is missing nodes {missing}")
    lines = ["digraph attack_graph {"]
    for node in graph.nodes:
        label = f"{node.id}: {node.label}" if node.label else str(node.id)
        if probs is not None:
            label += f"\\nP={probs[node.id]:.4f}"
        escaped = label.replace('"', '\\"')
        lines.append(
            f'  n{node.id} [shape={_DOT_SHAPES[node.kind]}, label="{escaped}"];'
        )
    for src, dst in graph.edges:
        lines.append(f"  n{src} -> n{dst};")
    lines.append("}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def fixture_path(name: str):
    """Filesystem path of a bundled fixture such as ``fig5.json``."""
    return resources.files("cybag").joinpath("fixtures", name)


def load_fixture(name: str) -> AttackGraph:
    return read_json(fixture_path(name))
