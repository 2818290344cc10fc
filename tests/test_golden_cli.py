"""Byte-exact CLI outputs on the bundled cyclic fixtures.

``golden_cli.json`` maps each command line (fixture name in place of the
path) to its stdout. The ``circuit`` and ``cycles`` outputs were recorded
before the circuit engine moved from synchronous sweeps to the
condensation-order pass; the ``solve``, ``compare`` and ``ve`` outputs on
the acyclic fixtures before the CLI's result rows got one writer; the
multi-chunk ``circuit --mc`` outputs on a generated graph before
enumeration and sampling shared one chunk loop. Any engine or CLI change
must reproduce these bytes. To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import json
from pathlib import Path

import pytest

from cybag.cli import run
from cybag.formats import fixture_path, load_fixture, write_json
from cybag.generator import GenParams, generate

GOLDEN = Path(__file__).with_name("golden_cli.json")
FIXTURES = ("type1", "type2", "type3", "running-example", "diamond")
# acyclic, so that ``ve`` answers on every node
ACYCLIC = ("fig5", "diamond", "wang-acyclic")
# generated graphs, written to a temporary file; 2000 nodes make a Monte
# Carlo run of 70,000 samples take 3 chunks of 32,768 columns
GENERATED = {"generated-2000-100-3": GenParams(n=2000, cyclicity=100, seed=3)}


def cases() -> list[list[str]]:
    out = []
    for name in FIXTURES:
        ids = load_fixture(f"{name}.json").node_ids
        for fmt in ("tsv", "json"):
            out.append(["cycles", "--in", name, "--format", fmt])
            for v in ids:
                out.append(["circuit", "--in", name, "--node", str(v), "--format", fmt])
                out.append(["cycles", "--in", name, "--target", str(v), "--format", fmt])
            out.append(
                ["circuit", "--in", name, "--node", str(ids[-1]), "--mc", "4000",
                 "--seed", "9", "--format", fmt]
            )
    for name in ACYCLIC:
        ids = load_fixture(f"{name}.json").node_ids
        out.append(["solve", "--in", name, "--precision", "17"])
        for fmt in ("tsv", "json"):
            out.append(["solve", "--in", name, "--format", fmt])
            for v in ids:
                out.append(["solve", "--in", name, "--node", str(v), "--format", fmt])
                out.append(["compare", "--in", name, "--node", str(v), "--format", fmt])
        for v in ids:
            out.append(["ve", "--in", name, "--node", str(v)])
    for name in GENERATED:
        out.append(["circuit", "--in", name, "--node", "1999", "--mc", "70000", "--seed", "3"])
        out.append(
            ["circuit", "--in", name, "--node", "1999", "--mc", "100000", "--seed", "11",
             "--format", "json"]
        )
    return out


def _real_argv(argv: list[str], tmp: Path) -> list[str]:
    name = argv[2]
    if name in GENERATED:
        path = tmp / f"{name}.json"
        if not path.exists():
            write_json(generate(GENERATED[name]), path)
    else:
        path = fixture_path(f"{name}.json")
    return argv[:2] + [str(path)] + argv[3:]


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(a) for a in cases())


@pytest.mark.parametrize("name", sorted(set(FIXTURES + ACYCLIC + tuple(GENERATED))))
def test_cli_output_matches_golden(name, golden, capsys, tmp_path):
    for argv in cases():
        if argv[2] == name:
            assert run(_real_argv(argv, tmp_path)) == 0
            assert capsys.readouterr().out == golden[" ".join(argv)], argv


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    recorded = {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in cases():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert run(_real_argv(argv, Path(tmp))) == 0
            recorded[" ".join(argv)] = buf.getvalue()
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} outputs to {GOLDEN}")
