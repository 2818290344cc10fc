"""Generated inputs for the CLI's readers and engines.

Every example must end in exit code 0-3, never in an exception. Each
engine command (``solve``, exact and Monte Carlo ``circuit``, ``ve``,
``compare``, ``cycles``, ``dot --probs``) meets the same generated graph
documents and arbitrary bytes; ``convert`` and ``score`` meet their own
document shapes. The strategies stay close to each document's shape,
with mistyped fields mixed in, so that most examples get past JSON
decoding and exercise the element rules and the engines behind them;
arbitrary bytes cover the decoding itself. A 10^5-node chain checks
that no command hangs or overflows the stack on deep input.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cybag.cli import run
from cybag.formats import fixture_path, write_json
from cybag.graph import AttackGraph, Node, NodeKind

FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

scalars = (
    st.sampled_from([None, True, False, -0.0, 0.5, 2.5, 1e308, float("nan"), float("inf")])
    | st.integers(-2, 9)
    | st.text("01ab-. é", max_size=4)
)
keys = st.sampled_from(["id", "kind", "p", "cve_id", "vector", "nodes", "edges", ""])
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
    max_leaves=6,
)
ids = st.integers(-1, 7) | scalars
probs = (
    st.floats(0.0, 1.0)
    | st.sampled_from(["0.25", "-0", "1e400", "nan", "inf", "0x1", " 1 "])
    | scalars
)
edges = st.lists(st.integers(-1, 7), min_size=2, max_size=2) | st.lists(scalars, max_size=3)

graph_docs = st.fixed_dictionaries(
    {
        "version": st.just("1") | scalars,
        "nodes": st.lists(
            st.fixed_dictionaries(
                {"id": ids, "kind": st.sampled_from(["leaf", "and", "or"]) | scalars},
                optional={"label": st.text(max_size=4) | scalars, "p": probs},
            )
            | scalars,
            max_size=8,
        )
        | scalars,
        "edges": st.lists(edges, max_size=14) | scalars,
    }
)
plain_entries = st.lists(
    st.fixed_dictionaries({"id": ids}, optional={"p": probs}) | scalars, max_size=5
)
plain_docs = st.fixed_dictionaries(
    {"exploits": plain_entries, "conditions": plain_entries},
    optional={
        "require_edges": st.lists(edges, max_size=6) | scalars,
        "imply_edges": st.lists(edges, max_size=6) | scalars,
    },
)
feeds = st.lists(
    st.fixed_dictionaries(
        {
            "cve_id": st.sampled_from(["CVE-2007-0001", "cve-2019-12345"]) | scalars,
            "vector": st.sampled_from(["AV:N/AC:M/Au:N", "CVSS:3.1/AC:H"]) | scalars,
        }
    )
    | scalars,
    max_size=4,
)

RUNNING = str(fixture_path("running-example.json"))
COMMANDS = {
    "solve": (graph_docs, ["solve", "--in", "{doc}"]),
    "cycles": (graph_docs, ["cycles", "--in", "{doc}"]),
    "convert": (plain_docs, ["convert", "--plain", "{doc}", "--out", "{out}"]),
    "score": (feeds, ["score", "--in", RUNNING, "--feed", "{doc}", "--out", "{out}"]),
    "circuit": (graph_docs, ["circuit", "--in", "{doc}", "--node", "0"]),
    "circuit-mc": (graph_docs, ["circuit", "--in", "{doc}", "--node", "1", "--mc", "64"]),
    "ve": (graph_docs, ["ve", "--in", "{doc}", "--node", "1"]),
    "compare": (graph_docs, ["compare", "--in", "{doc}", "--node", "1"]),
    "dot-probs": (graph_docs, ["dot", "--in", "{doc}", "--probs", "--out", "{out}"]),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_on_file(command, content: bytes, workdir) -> None:
    path, out = workdir / f"{command}.json", workdir / "out"
    path.write_bytes(content)
    argv = [a.format(doc=path, out=out) for a in COMMANDS[command][1]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    assert code in (0, 1, 2, 3), (code, stderr.getvalue())


@pytest.mark.parametrize("command", sorted(COMMANDS))
@FUZZ
@given(data=st.data())
def test_cli_ends_in_an_exit_code(command, data, workdir):
    doc = data.draw(COMMANDS[command][0] | json_values, label="document")
    run_on_file(command, json.dumps(doc).encode("utf-8"), workdir)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@FUZZ
@given(content=st.binary(max_size=64))
def test_cli_ends_in_an_exit_code_on_arbitrary_bytes(command, content, workdir):
    run_on_file(command, content, workdir)


SRC = Path(__file__).resolve().parent.parent / "src"
CHAIN_NODES = 100_000


@pytest.fixture(scope="module")
def chain_file(workdir):
    """Leaf 0 feeding alternating And/Or nodes 1..n-1, every probability 0.9."""
    kinds = (NodeKind.OR, NodeKind.AND)
    nodes = [Node(0, NodeKind.LEAF, "", 0.9)]
    nodes += [Node(v, kinds[v % 2], "", 0.9) for v in range(1, CHAIN_NODES)]
    path = workdir / "chain.json"
    write_json(AttackGraph(nodes, [(v - 1, v) for v in range(1, CHAIN_NODES)]), path)
    return path


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["solve", "--node", "{last}"], 0),
        (["solve"], 0),
        (["cycles"], 0),
        (["dot", "--out", "{out}"], 0),
        (["dot", "--out", "{out}", "--probs"], 0),
        (["circuit", "--node", "{last}"], 3),
        (["ve", "--node", "{last}"], 0),
    ],
    ids=["solve", "solve-all", "cycles", "dot", "dot-probs", "circuit", "ve"],
)
def test_deep_chain_ends_in_its_exit_code(argv, expected, chain_file):
    fields = {"last": CHAIN_NODES - 1, "out": chain_file.with_suffix(".dot")}
    argv = [argv[0], "--in", str(chain_file)] + [a.format(**fields) for a in argv[1:]]
    proc = subprocess.run(
        [sys.executable, "-m", "cybag.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
