"""Serialization: canonical JSON graphs, MulVAL-style CSV import, DOT export.

This module is the package's only file boundary. :func:`read_text`,
:func:`load_json` and :func:`write_text` map every failure to a package
error: an unreadable or unwritable file is an ``IoError``, bytes that are
not UTF-8 text or not JSON/CSV a ``ParseError``, and input past
``INPUT_LIMIT_BYTES`` a ``TooLargeError``. One set of element rules
decides what a valid id, edge and probability is for every reader. The
edge rules come from :func:`cybag.graph.edge_issue`, which
:func:`cybag.graph.validate` applies too.

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

import io
import json
from collections.abc import Mapping

from .errors import IoError, ParseError, SchemaError, TooLargeError
from .graph import AttackGraph, Node, NodeKind, PlainBag, edge_issue

FORMAT_VERSION = "1"
INPUT_LIMIT_BYTES = 64 * 1024 * 1024

# JSON documents spell a kind by its value, MulVAL CSV files by its name
_KINDS_BY_VALUE = {k.value: k for k in NodeKind}


def read_text(path) -> str:
    """A file's UTF-8 text; reading stops past ``INPUT_LIMIT_BYTES``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(INPUT_LIMIT_BYTES + 1)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if len(data) > INPUT_LIMIT_BYTES:
        raise TooLargeError(f"{path} is larger than {INPUT_LIMIT_BYTES} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def load_json(path):
    """A file's decoded JSON value; anything that is not JSON is a ParseError."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON in {path}: {exc.msg}", exc.lineno) from exc
    except (RecursionError, ValueError) as exc:  # too deep, or past the digit limit
        raise ParseError(f"not valid JSON in {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write UTF-8 text as it is, LF line endings included. Text that
    UTF-8 cannot encode (a lone surrogate) is an ``IoError`` raised before
    the file is opened, so no file is left behind."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise IoError(f"cannot write {path}: {exc.reason} in the text") from exc
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _fail(where, message: str) -> Exception:
    """The reader's error: SchemaError at a JSON path, or ParseError at a
    ``(path, line)`` of a CSV file."""
    if isinstance(where, str):
        return SchemaError(message, where)
    path, line = where
    return ParseError(f"{message} in {path}", line)


def _parse_id(raw, where, ids: set[int]) -> int:
    """A node id not seen before: a non-negative integer, added to ``ids``."""
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 0:
        raise _fail(where, "id must be a non-negative integer")
    if raw in ids:
        raise _fail(where, f"duplicate node id {raw}")
    ids.add(raw)
    return raw


def _parse_edge(raw, where, ids: set[int], seen: set) -> tuple[int, int]:
    """An integer pair that breaks no rule of :func:`edge_issue`; added to ``seen``."""
    if not (isinstance(raw, list) and len(raw) == 2) or any(
        isinstance(x, bool) or not isinstance(x, int) for x in raw
    ):
        raise _fail(where, "edge must be a [src, dst] integer pair")
    src, dst = raw
    issue = edge_issue(src, dst, ids, seen)
    if issue is not None:
        raise _fail(where, issue.message)
    return src, dst


def _parse_prob(raw, where) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise _fail(where, "probability must be a number or decimal string")
    try:
        value = float(raw)
    except (ValueError, OverflowError):
        raise _fail(where, f"not a probability: {raw!r}") from None
    if not 0.0 <= value <= 1.0:
        raise _fail(where, f"probability {value} outside [0, 1]")
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
        # One test accepts the common node, built without Node's checks,
        # which it implies; any other item takes the per-field rules below.
        try:
            plain = (
                type(item) is dict
                and type(nid := item.get("id")) is int
                and nid >= 0
                and nid not in ids
                and type(raw_kind := item.get("kind")) is str
                and (kind := _KINDS_BY_VALUE.get(raw_kind)) is not None
                and type(label := item.get("label", "")) is str
                and label.isascii()
                and type(raw_p := item.get("p", "1")) is str
                and 0.0 <= (prob := float(raw_p)) <= 1.0
            )
        except ValueError:  # p does not spell a number
            plain = False
        if plain:
            ids.add(nid)
            nodes.append(tuple.__new__(Node, (nid, kind, label, abs(prob))))
            continue
        where = f"nodes[{i}]"
        if not isinstance(item, dict):
            raise SchemaError("node must be an object", where)
        nid = _parse_id(item.get("id"), f"{where}.id", ids)
        raw_kind = item.get("kind")
        kind = _KINDS_BY_VALUE.get(raw_kind) if isinstance(raw_kind, str) else None
        if kind is None:
            raise SchemaError(f"kind must be leaf/and/or, got {raw_kind!r}", f"{where}.kind")
        label = item.get("label", "")
        if not isinstance(label, str):
            raise SchemaError("label must be a string", f"{where}.label")
        try:  # JSON may spell a lone surrogate such as "\ud800", which no output holds
            label.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError("label holds a lone surrogate", f"{where}.label") from None
        prob = _parse_prob(item.get("p", "1"), f"{where}.p")
        nodes.append(Node(nid, kind, label, prob))

    seen: set[tuple[int, int]] = set()
    edges = []
    for i, e in enumerate(doc["edges"]):  # the common edge passes the same way
        if (
            type(e) is list
            and len(e) == 2
            and type(src := e[0]) is int
            and type(dst := e[1]) is int
            and src != dst
            and src in ids
            and dst in ids
            and (edge := (src, dst)) not in seen
        ):
            seen.add(edge)
            edges.append(edge)
        else:
            edges.append(_parse_edge(e, f"edges[{i}]", ids, seen))
    return AttackGraph(nodes, edges)


def graph_to_document(graph: AttackGraph, notes: str | None = None) -> dict:
    doc: dict = {"version": FORMAT_VERSION}
    if notes:
        doc["notes"] = notes
    doc["nodes"] = [
        {
            "id": n.id,
            "kind": n.kind.value,
            "label": n.label,
            "p": repr(n.local_prob),
        }
        for n in graph.nodes
    ]
    doc["edges"] = [[src, dst] for src, dst in graph.edges]
    return doc


def read_json(path) -> AttackGraph:
    return document_to_graph(load_json(path))


def write_json(graph: AttackGraph, path, notes: str | None = None) -> None:
    """Write the bytes of ``json.dumps(graph_to_document(graph, notes),
    indent=2, ensure_ascii=False)`` plus a newline, emitted directly: the
    indenting encoder runs in pure Python."""
    enc = json.encoder.encode_basestring
    nodes = ",\n".join(
        f'    {{\n      "id": {n.id},\n      "kind": {enc(n.kind.value)},\n'
        f'      "label": {enc(n.label)},\n      "p": "{n.local_prob!r}"\n    }}'
        for n in graph.nodes
    )
    edges = ",\n".join(f"    [\n      {src},\n      {dst}\n    ]" for src, dst in graph.edges)
    head = f'{{\n  "version": {enc(FORMAT_VERSION)},\n'
    if notes:
        head += f'  "notes": {enc(notes)},\n'
    nodes = f"[\n{nodes}\n  ]" if nodes else "[]"
    edges = f"[\n{edges}\n  ]" if edges else "[]"
    write_text(path, f'{head}  "nodes": {nodes},\n  "edges": {edges}\n}}\n')


def plain_document_to_bag(doc) -> PlainBag:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object", "$")
    score: dict[int, float] = {}
    ids: set[int] = set()

    def read_side(key: str) -> set[int]:
        items = doc.get(key)
        if not isinstance(items, list):
            raise SchemaError(f"{key} must be a list", key)
        for i, item in enumerate(items):
            where = f"{key}[{i}]"
            if not isinstance(item, dict):
                raise SchemaError("entry must be an object", where)
            nid = _parse_id(item.get("id"), f"{where}.id", ids)
            score[nid] = _parse_prob(item.get("p", "1"), f"{where}.p")
        return {item["id"] for item in items}

    exploits = read_side("exploits")
    conditions = read_side("conditions")
    seen: set[tuple[int, int]] = set()

    def read_edges(key: str) -> list[tuple[int, int]]:
        items = doc.get(key, [])
        if not isinstance(items, list):
            raise SchemaError(f"{key} must be a list", key)
        return [_parse_edge(item, f"{key}[{i}]", ids, seen) for i, item in enumerate(items)]

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
    return plain_document_to_bag(load_json(path))


def _csv_rows(path):
    """Non-empty rows of a CSV file, each with its ``(path, line)``."""
    import csv

    rows = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        for row in rows:
            if row:
                yield (path, rows.line_num), row
    except csv.Error as exc:
        raise ParseError(f"not valid CSV in {path}: {exc}", rows.line_num) from exc


def _csv_int(field: str):
    """A CSV field as an int when it spells one; other text fails the id rules."""
    try:
        return int(field)
    except ValueError:
        return field


def read_mulval_csv(vertices_path, arcs_path) -> AttackGraph:
    """Two-file CSV import: vertices ``id,"label",kind,p`` and arcs ``src,dst``.

    Real MulVAL emits a few extra columns; this reader takes the minimal
    shape. Labels must be quoted if they contain commas.
    """
    nodes: list[Node] = []
    ids: set[int] = set()
    for where, row in _csv_rows(vertices_path):
        if len(row) != 4:
            raise _fail(where, f"expected 4 fields id,label,kind,p, got {len(row)}")
        raw_id, label, raw_kind, raw_p = row
        nid = _parse_id(_csv_int(raw_id), where, ids)
        kind = NodeKind.__members__.get(raw_kind.strip())
        if kind is None:
            raise _fail(where, f"unknown node kind {raw_kind!r}")
        nodes.append(Node(nid, kind, label, _parse_prob(raw_p, where)))

    seen: set[tuple[int, int]] = set()
    edges = [
        _parse_edge([_csv_int(x) for x in row], where, ids, seen)
        for where, row in _csv_rows(arcs_path)
    ]
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
        text = f"{node.id}: {node.label}" if node.label else str(node.id)
        label = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        if probs is not None:
            label += f"\\nP={probs[node.id]:.4f}"
        lines.append(
            f'  n{node.id} [shape={_DOT_SHAPES[node.kind]}, label="{label}"];'
        )
    for src, dst in graph.edges:
        lines.append(f"  n{src} -> n{dst};")
    lines.append("}")
    write_text(path, "\n".join(lines) + "\n")


def fixture_path(name: str):
    """Filesystem path of a bundled fixture such as ``fig5.json``."""
    from importlib import resources

    return resources.files("cybag").joinpath("fixtures", name)


def load_fixture(name: str) -> AttackGraph:
    return read_json(fixture_path(name))
