import hashlib
import json
import re

import numpy as np
import pytest

from cybag.errors import IoError, ParseError, SchemaError
from cybag.formats import (
    fixture_path,
    graph_to_document,
    load_fixture,
    read_json,
    read_plain_json,
    write_dot,
    write_json,
    write_text,
)
from cybag.generator import GenParams, generate
from cybag.graph import AttackGraph, Node, NodeKind, convert_plain, validate
from cybag.propagate import solve_all

FIXTURES = [
    "fig5.json",
    "diamond.json",
    "running-example.json",
    "type1.json",
    "type2.json",
    "type3.json",
    "wang-acyclic.json",
]
# not graphs: a plain bipartite graph and a CVSS feed, each as indented JSON
DOCUMENTS = ["wang-plain.json", "nvd-feed.json"]
# the committed files are the fixtures' only source; an edit to one is
# deliberate, like re-recording a golden, and updates its digest here
FIXTURE_SHA256 = {
    "diamond.json": "4737d8892600c016fdd5caf6177c38ccd44375905ab91fcc40597aeb20872f12",
    "fig5.json": "3d8087b2e28d7756fc93e255f4b444ec2f3edc69180937282f2dea5e4781c674",
    "nvd-feed.json": "216c31f08953df9ce8de7d31098cb5c1ce0b5c4c7c90de5f52e94fae06c77e13",
    "running-example.json": "6e74e5b0b03891369777ae4af780720a5b6b6c4814670da6a89dbe18f5b5c7b1",
    "type1.json": "81f8ac9b010270ac6016a432cc3e4cf75b73a83057ba5a197b7603bf0b02883e",
    "type2.json": "79c6d2d3ca7898d80d61bd64a35929ff39c7c6ad142ad801a00d46a878d65526",
    "type3.json": "35af08f41af75dde26d9813ad287d9c62fd5899473f9d83e6a9d08e22ed84f14",
    "wang-acyclic.json": "902823129e6ab3c75a6cc9cd511afa004360e9136e48f695a68a4b029e1a421e",
    "wang-plain.json": "6ee41582a6fd474f7aec062f48a054f6367c316e20e5f68bd9e5316645553157",
}


def test_bundled_fixtures_load():
    for name in FIXTURES:
        g = load_fixture(name)
        assert len(g.nodes) > 0


def test_fixture_directory_holds_exactly_the_pinned_files():
    bundled = fixture_path("fig5.json").parent
    assert sorted(FIXTURE_SHA256) == sorted(FIXTURES + DOCUMENTS)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in bundled.iterdir()}
    assert digests == FIXTURE_SHA256


def test_round_trip_fixtures(tmp_path):
    """Each graph fixture is written exactly as ``write_json`` writes it,
    with its own notes."""
    for name in FIXTURES:
        data = fixture_path(name).read_bytes()
        g = load_fixture(name)
        out = tmp_path / name
        write_json(g, out, json.loads(data).get("notes"))
        assert out.read_bytes() == data, name
        assert read_json(out) == g


@pytest.mark.parametrize("name", DOCUMENTS)
def test_document_fixtures_are_indented_json(name):
    data = fixture_path(name).read_bytes()
    assert data == (json.dumps(json.loads(data), indent=2) + "\n").encode()


def test_round_trip_generated_graphs(tmp_path):
    for seed in range(5):
        g = generate(GenParams(n=60, cyclicity=50, seed=seed))
        out = tmp_path / f"g{seed}.json"
        write_json(g, out)
        assert read_json(out) == g


@pytest.mark.parametrize(
    "graph, notes",
    [(load_fixture(name), None) for name in FIXTURES]
    + [
        (AttackGraph([], []), None),
        (AttackGraph([], []), "only notes"),
        (AttackGraph([Node(3, NodeKind.OR, "", 0.0)], []), ""),
        (
            AttackGraph(
                [
                    Node(0, NodeKind.LEAF, 'quote " back \\ slash / é ü 漢 \U0001f600', 1 / 3),
                    Node(2, NodeKind.AND, "tab\tnl\ncr\rnul\x00bell\x07\x1f\x7f\u2028", 1.0),
                    Node(5, NodeKind.OR, "\u00a0nbsp </script> \u200b", 1e-300),
                ],
                [(0, 2), (2, 5), (5, 2), (7, 0)],
            ),
            'notes with "quotes", \\, \u00e9 and\nnewlines',
        ),
    ],
)
def test_write_json_matches_the_indenting_encoder(tmp_path, graph, notes):
    out = tmp_path / "g.json"
    write_json(graph, out, notes)
    expected = json.dumps(graph_to_document(graph, notes), indent=2, ensure_ascii=False)
    assert out.read_bytes() == (expected + "\n").encode()


def test_write_is_byte_stable(tmp_path):
    g = load_fixture("running-example.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(g, a)
    write_json(g, b)
    assert a.read_bytes() == b.read_bytes()


def test_probabilities_survive_exactly(tmp_path):
    g = AttackGraph([Node(0, NodeKind.LEAF, "x", 1 / 3)], [])
    out = tmp_path / "third.json"
    write_json(g, out)
    assert read_json(out).local_prob(0) == 1 / 3


def test_numpy_scalars_round_trip(tmp_path):
    g = AttackGraph(
        [
            Node(np.int64(0), NodeKind.LEAF, "a", np.float64(0.5)),
            Node(np.int32(1), NodeKind.OR, "b", np.float32(0.25)),
        ],
        [(0, 1)],
    )
    assert [(type(n.id), type(n.local_prob)) for n in g.nodes] == [(int, float)] * 2
    out = tmp_path / "numpy.json"
    write_json(g, out)
    assert read_json(out) == g
    with pytest.raises(ValueError, match="real number"):
        Node(0, NodeKind.LEAF, "a", True)
    with pytest.raises(ValueError, match="integer"):
        Node(True, NodeKind.LEAF, "a", 0.5)


def make_doc(**overrides):
    doc = {
        "version": "1",
        "nodes": [
            {"id": 0, "kind": "leaf", "label": "a", "p": "0.5"},
            {"id": 1, "kind": "and", "label": "b", "p": "1"},
        ],
        "edges": [[0, 1]],
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return path


def test_schema_error_bad_kind(tmp_path):
    doc = make_doc()
    doc["nodes"][1]["kind"] = "xor"
    with pytest.raises(SchemaError) as exc:
        read_json(write_doc(tmp_path, doc))
    assert exc.value.path == "nodes[1].kind"


def test_schema_error_duplicate_edge(tmp_path):
    doc = make_doc(edges=[[0, 1], [0, 1]])
    with pytest.raises(SchemaError) as exc:
        read_json(write_doc(tmp_path, doc))
    assert "duplicate edge" in str(exc.value)
    assert exc.value.path == "edges[1]"


def test_schema_error_details(tmp_path):
    cases = [
        (make_doc(version="9"), "version"),
        (make_doc(edges=[[0, 9]]), "edges[0]"),
        (make_doc(edges=[[0, 0]]), "edges[0]"),
        (make_doc(nodes=[{"id": -1, "kind": "leaf"}]), "nodes[0].id"),
        (
            make_doc(
                nodes=[
                    {"id": 0, "kind": "leaf"},
                    {"id": 0, "kind": "leaf"},
                ],
                edges=[],
            ),
            "nodes[1].id",
        ),
    ]
    for doc, path in cases:
        with pytest.raises(SchemaError) as exc:
            read_json(write_doc(tmp_path, doc))
        assert exc.value.path == path


def test_schema_error_bad_probability(tmp_path):
    doc = make_doc()
    doc["nodes"][0]["p"] = "1.5"
    with pytest.raises(SchemaError):
        read_json(write_doc(tmp_path, doc))
    doc["nodes"][0]["p"] = "zero"
    with pytest.raises(SchemaError):
        read_json(write_doc(tmp_path, doc))


@pytest.mark.parametrize(
    "p",
    ["0.1_1", "1_0", " 0.5 ", "0.5\n", "٠.٥", "０.５"],
    ids=["underscore", "underscore-ten", "spaces", "newline", "arabic-indic", "fullwidth"],
)
def test_probability_strings_are_plain_ascii_decimals(p, tmp_path):
    """float() accepts each of these; neither reader does."""
    doc = make_doc(nodes=[{"id": 0, "kind": "leaf", "p": p}], edges=[])
    with pytest.raises(SchemaError) as exc:
        read_json(write_doc(tmp_path, doc))
    assert exc.value.path == "nodes[0].p"
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"exploits": [{"id": 1}], "conditions": [{"id": 0, "p": p}]}))
    with pytest.raises(SchemaError) as exc:
        read_plain_json(path)
    assert exc.value.path == "conditions[0].p"


@pytest.mark.parametrize(
    "node, path",
    [
        ({"id": 0, "kind": ["leaf"]}, "nodes[0].kind"),
        ({"id": 0, "kind": "leaf", "p": 10**400}, "nodes[0].p"),
        ({"id": 0.0, "kind": "leaf"}, "nodes[0].id"),
        (5, "nodes[0]"),
        ({"id": 0, "kind": "leaf", "label": 3}, "nodes[0].label"),
        ({"id": 0, "kind": "leaf", "p": True}, "nodes[0].p"),
    ],
)
def test_schema_error_for_mistyped_values(node, path, tmp_path):
    with pytest.raises(SchemaError) as exc:
        read_json(write_doc(tmp_path, make_doc(nodes=[node], edges=[])))
    assert exc.value.path == path


@pytest.mark.parametrize(
    "edge, code",
    [([0, 9], "DANGLING_EDGE"), ([1, 1], "SELF_EDGE"), ([0, 1], "DUPLICATE_EDGE")],
    ids=["unknown-end", "self-edge", "repeat"],
)
def test_readers_and_validate_share_the_edge_rules(edge, code, tmp_path):
    """validate names the rule the second edge breaks with the message the
    JSON reader raises after its path."""
    edges = [[0, 1], edge]
    graph = AttackGraph([Node(0, NodeKind.LEAF), Node(1, NodeKind.AND)], map(tuple, edges))
    [issue] = validate(graph).errors
    assert (issue.code, issue.subject) == (code, tuple(edge))

    with pytest.raises(SchemaError) as exc:
        read_json(write_doc(tmp_path, make_doc(edges=edges)))
    assert str(exc.value) == f"edges[1]: {issue.message}"


def test_plain_duplicate_edge_is_a_schema_error(tmp_path):
    path = tmp_path / "p.json"
    doc = {
        "exploits": [{"id": 1}],
        "conditions": [{"id": 0}],
        "require_edges": [[0, 1], [0, 1]],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        read_plain_json(path)
    assert exc.value.path == "require_edges[1]"


def test_read_json_missing_file(tmp_path):
    with pytest.raises(IoError):
        read_json(tmp_path / "nope.json")


def test_write_text_into_missing_directory(tmp_path):
    with pytest.raises(IoError):
        write_text(tmp_path / "missing" / "out.txt", "x\n")


def test_write_json_refuses_a_lone_surrogate_before_opening(tmp_path):
    out = tmp_path / "g.json"
    with pytest.raises(IoError):
        write_json(AttackGraph([Node(0, NodeKind.LEAF, "\ud800", 0.5)], []), out)
    assert not out.exists()


def test_read_json_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    with pytest.raises(ParseError):
        read_json(path)


def test_write_dot(tmp_path, fig5):
    out = tmp_path / "fig5.dot"
    write_dot(fig5, out)
    text = out.read_text()
    assert text.count("[shape=") == 3
    assert text.count(" -> ") == 2
    assert "shape=box" in text and "shape=ellipse" in text


def test_write_dot_shapes_and_probs(tmp_path, fig5, diamond):
    out = tmp_path / "d.dot"
    write_dot(diamond, out)
    assert "shape=diamond" in out.read_text()
    out2 = tmp_path / "f.dot"
    write_dot(fig5, out2, solve_all(fig5))
    assert "P=0.3360" in out2.read_text()


def test_write_dot_escapes_backslashes_quotes_and_newlines(tmp_path):
    labels = ["a\\", 'say "hi"', "two\nlines", "C:\\Net"]
    g = AttackGraph([Node(v, NodeKind.LEAF, lab, 0.5) for v, lab in enumerate(labels)], [])
    out = tmp_path / "esc.dot"
    write_dot(g, out, {v: 0.5 for v in range(4)})
    lines = out.read_text().splitlines()
    assert lines[1:5] == [
        r'  n0 [shape=box, label="0: a\\\nP=0.5000"];',
        r'  n1 [shape=box, label="1: say \"hi\"\nP=0.5000"];',
        r'  n2 [shape=box, label="2: two\nlines\nP=0.5000"];',
        r'  n3 [shape=box, label="3: C:\\Net\nP=0.5000"];',
    ]
    # every label is one well-formed DOT string that reads back to the text
    for v, line in enumerate(lines[1:5]):
        (body,) = re.fullmatch(r'.*label="((?:[^"\\\n]|\\.)*)"\];', line).groups()
        unescaped = re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], body)
        assert unescaped == f"{v}: {labels[v]}\nP=0.5000"


def test_write_dot_incomplete_probs(tmp_path, fig5):
    with pytest.raises(ValueError):
        write_dot(fig5, tmp_path / "x.dot", {0: 0.5})


def test_plain_round_trip_matches_bundled_conversion():
    plain = read_plain_json(fixture_path("wang-plain.json"))
    converted = convert_plain(plain)
    bundled = load_fixture("wang-acyclic.json")
    assert converted.edges == bundled.edges
    assert [(n.id, n.kind, n.local_prob) for n in converted.nodes] == [
        (n.id, n.kind, n.local_prob) for n in bundled.nodes
    ]


def test_plain_schema_errors(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"version": "1", "exploits": "nope"}))
    with pytest.raises(SchemaError):
        read_plain_json(path)
    path.write_text(
        json.dumps(
            {
                "version": "1",
                "exploits": [{"id": 1}],
                "conditions": [{"id": 1}],
                "require_edges": [],
                "imply_edges": [],
            }
        )
    )
    with pytest.raises(SchemaError):
        read_plain_json(path)


def test_plain_imply_edge_from_a_condition_is_a_schema_error(tmp_path):
    path = tmp_path / "p.json"
    doc = {
        "exploits": [{"id": 1}],
        "conditions": [{"id": 0}],
        "imply_edges": [[0, 1]],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="imply edge") as exc:
        read_plain_json(path)
    assert exc.value.path == "$"
