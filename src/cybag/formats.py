"""Serialization: canonical JSON graphs and DOT export.

This module is the package's only file boundary. :func:`read_text`,
:func:`load_json` and :func:`write_text` map every failure to a package
error: an unreadable or unwritable file is an ``IoError``, bytes that are
not UTF-8 text or not JSON a ``ParseError``, and input past
``INPUT_LIMIT_BYTES`` a ``TooLargeError``. One set of element rules
decides what a valid id, edge and probability is for every reader. The
edge rules come from :func:`cybag.graph.edge_issue`, which
:func:`cybag.graph.validate` applies too. A probability is a number or
a decimal string in [0, 1]; a string with ``_``, a non-ASCII character or
surrounding whitespace is refused, though ``float()`` would take it.

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

import json
from collections.abc import Mapping

from .errors import IoError, ParseError, SchemaError, TooLargeError
from .graph import AttackGraph, Node, NodeKind, PlainBag, edge_issue

FORMAT_VERSION = "1"
INPUT_LIMIT_BYTES = 64 * 1024 * 1024

# JSON documents spell a kind by its value
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


def _parse_id(raw, where, ids: set[int]) -> int:
    """A node id not seen before: a non-negative integer, added to ``ids``."""
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 0:
        raise SchemaError("id must be a non-negative integer", where)
    if raw in ids:
        raise SchemaError(f"duplicate node id {raw}", where)
    ids.add(raw)
    return int(raw)  # plain, as Node makes it


def _parse_edge(raw, where, ids: set[int], seen: set) -> tuple[int, int]:
    """An integer pair that breaks no rule of :func:`edge_issue`; added to ``seen``."""
    if not (isinstance(raw, list) and len(raw) == 2) or any(
        isinstance(x, bool) or not isinstance(x, int) for x in raw
    ):
        raise SchemaError("edge must be a [src, dst] integer pair", where)
    src, dst = raw
    issue = edge_issue(src, dst, ids, seen)
    if issue is not None:
        raise SchemaError(issue.message, where)
    return src, dst


def _parse_label(raw, where) -> str:
    if not isinstance(raw, str):
        raise SchemaError("label must be a string", where)
    try:  # JSON may spell a lone surrogate such as "\ud800", which no output holds
        raw.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError("label holds a lone surrogate", where) from None
    return raw


def _parse_prob(raw, where) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise SchemaError("probability must be a number or decimal string", where)
    if isinstance(raw, str) and not (raw.isascii() and "_" not in raw and raw.strip() == raw):
        raise SchemaError(f"not a probability: {raw!r}", where)
    try:
        value = float(raw)
    except (ValueError, OverflowError):
        raise SchemaError(f"not a probability: {raw!r}", where) from None
    if not 0.0 <= value <= 1.0:
        raise SchemaError(f"probability {value} outside [0, 1]", where)
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
        # Each field's common form passes an inline test; any other form
        # takes the field's rule, which accepts a rare legal form (a JSON
        # number p, a non-ASCII label) or fails. Either way the fields meet
        # Node's checks, so the node is built without them.
        if not isinstance(item, dict):
            raise SchemaError("node must be an object", f"nodes[{i}]")
        nid = item.get("id")
        if type(nid) is int and nid >= 0 and nid not in ids:
            ids.add(nid)
        else:
            nid = _parse_id(nid, f"nodes[{i}].id", ids)
        raw_kind = item.get("kind")
        kind = _KINDS_BY_VALUE.get(raw_kind) if isinstance(raw_kind, str) else None
        if kind is None:
            raise SchemaError(f"kind must be leaf/and/or, got {raw_kind!r}", f"nodes[{i}].kind")
        label = item.get("label", "")
        if type(label) is not str or not label.isascii():
            label = _parse_label(label, f"nodes[{i}].label")
        raw_p = item.get("p", "1")
        try:  # -1.0 sends any p but a plain decimal string to the rule
            plain = type(raw_p) is str and raw_p.isascii() and "_" not in raw_p
            prob = float(raw_p) if plain and raw_p.strip() == raw_p else -1.0
        except ValueError:
            prob = -1.0
        if not 0.0 <= prob <= 1.0:
            prob = _parse_prob(raw_p, f"nodes[{i}].p")
        nodes.append(tuple.__new__(Node, (nid, kind, label, abs(prob))))

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
