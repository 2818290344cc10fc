"""Differential check of the JSON graph decoder against its per-field form.

``formats.document_to_graph`` tests each node field's common form, and
each edge, inline, and sends any other form through that field's or the
edge's rule. The oracle below is the decoder before the inline tests were
added, every item through the per-field rules: on any document both must
return the same graph, or fail with the same error type, message and
JSON path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybag.errors import SchemaError
from cybag.formats import (
    _KINDS_BY_VALUE,
    FORMAT_VERSION,
    _parse_edge,
    _parse_id,
    _parse_prob,
    document_to_graph,
)
from cybag.graph import AttackGraph, Node


def oracle_document_to_graph(doc) -> AttackGraph:
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
    edges = [_parse_edge(e, f"edges[{i}]", ids, seen) for i, e in enumerate(doc["edges"])]
    return AttackGraph(nodes, edges)


def outcome(decode, doc):
    """What a decoder makes of ``doc``: the graph with every field's type
    and the probabilities' sign, or the error's type, message and path."""
    try:
        g = decode(doc)
    except Exception as exc:  # noqa: BLE001 - any difference is a failure
        return type(exc), str(exc), getattr(exc, "path", None)
    return repr(g), [tuple(map(type, n)) for n in g.nodes], [str(n.local_prob) for n in g.nodes]


KINDS = ["leaf", "and", "or"]
GOOD_LABELS = ["", "execCode(1)", "CVE-2020-0001"]
GOOD_PS = ["0", "1", "0.5", "0.35", "1e-3", "0.0"]
BAD_IDS = [True, False, 1.0, 2.5, -1, None, "3"]
BAD_KINDS = ["xor", "LEAF", "", 1, None]
BAD_LABELS = [7, None, ["a"], "é", "日本", "\ud800", "a\udfffb"]
BAD_PS = ["-0", "-0.0", "nan", "inf", "-inf", "1.5", "-0.1", "x", "", " 0.5 ", "1_0",
          "1e999", 0.5, 1, 0, -0.0, 1.5, float("nan"), True, None, 10**400, ["0.5"]]
BAD_ITEMS = [None, "node", [0, "leaf"], 3]


@st.composite
def documents(draw):
    """A valid document of up to 6 nodes, then up to 2 mutations drawn
    from the ways a node or an edge can break the schema."""
    n = draw(st.integers(1, 6))
    nodes = [
        {
            "id": v,
            "kind": draw(st.sampled_from(KINDS)),
            "label": draw(st.sampled_from(GOOD_LABELS)),
            "p": draw(st.sampled_from(GOOD_PS)),
        }
        for v in draw(st.permutations(range(n)))
    ]
    pairs = [[a, b] for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=8)) if pairs else []
    valid = edges[:]
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from(["id", "kind", "label", "p", "drop", "item", "edge"]))
        i = draw(st.integers(0, n - 1))
        if where == "edge":
            a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            bad = [[a, 99], [99, a], [a, a], [a], [a, b, a], [True, b], [float(a), b],
                   (a, b), "0,1", None, []]
            if valid:
                bad.append(list(draw(st.sampled_from(valid))))  # a duplicate
            edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(bad)))
        elif where == "item":
            nodes[i] = draw(st.sampled_from(BAD_ITEMS))
        elif not isinstance(nodes[i], dict):
            continue
        elif where == "drop":
            nodes[i].pop(draw(st.sampled_from(["id", "kind", "label", "p"])), None)
        else:
            # the ids are 0..n-1, so another node's id is a duplicate
            pool = {"id": BAD_IDS + list(range(n)), "kind": BAD_KINDS,
                    "label": BAD_LABELS, "p": BAD_PS}[where]
            nodes[i][where] = draw(st.sampled_from(pool))
    return {"version": "1", "nodes": nodes, "edges": edges}


@settings(max_examples=400, deadline=None)
@given(documents())
def test_decoder_matches_the_per_field_oracle(doc):
    assert outcome(document_to_graph, doc) == outcome(oracle_document_to_graph, doc)


def node(**fields):
    return {"id": 1, "kind": "or", "label": "x", "p": "0.5", **fields}


LEAF = {"id": 0, "kind": "leaf", "label": "a", "p": "0.25"}


@pytest.mark.parametrize(
    "nodes, edges",
    [
        ([LEAF, node()], [[0, 1]]),
        ([LEAF, node(id=True)], []),
        ([LEAF, node(id=1.0)], []),
        ([LEAF, node(id=-1)], []),
        ([LEAF, node(id=0)], []),
        ([LEAF, node(kind="xor")], []),
        ([LEAF, node(label=3)], []),
        ([LEAF, node(label="é")], [[0, 1]]),
        ([LEAF, node(label="\ud800")], []),
        ([LEAF, node(p="-0")], [[0, 1]]),
        ([LEAF, node(p="-0.1")], []),
        ([LEAF, node(p="nan")], []),
        ([LEAF, node(p="inf")], []),
        ([LEAF, node(p=1.5)], []),
        ([LEAF, node(p=0.5)], [[0, 1]]),
        ([LEAF, node(p=1)], [[0, 1]]),
        ([LEAF, {"id": 1, "kind": "and"}], [[0, 1]]),
        ([LEAF, node()], [[0, 7]]),
        ([LEAF, node()], [[7, 1]]),
        ([LEAF, node()], [[1, 1]]),
        ([LEAF, node()], [[0, 1], [0, 1]]),
        ([LEAF, node()], [[0]]),
        ([LEAF, node()], [[0, 1, 1]]),
        ([LEAF, node()], [[False, 1]]),
        ([LEAF, node()], [[0.0, 1]]),
    ],
)
def test_decoder_matches_the_oracle_on_each_mutation(nodes, edges):
    doc = {"version": "1", "nodes": nodes, "edges": edges}
    assert outcome(document_to_graph, doc) == outcome(oracle_document_to_graph, doc)
