"""Byte-exact CLI outputs on the bundled cyclic fixtures.

``golden_cli.json`` maps each command line (fixture name in place of the
path) to its stdout. The ``circuit`` and ``cycles`` outputs were recorded
before the circuit engine moved from synchronous sweeps to the
condensation-order pass; the ``solve``, ``compare`` and ``ve`` outputs on
the acyclic fixtures before the CLI's result rows got one writer. Any
engine or CLI change must reproduce these bytes. To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import json
from pathlib import Path

import pytest

from cybag.cli import run
from cybag.formats import fixture_path, load_fixture

GOLDEN = Path(__file__).with_name("golden_cli.json")
FIXTURES = ("type1", "type2", "type3", "running-example", "diamond")
# acyclic, so that ``ve`` answers on every node
ACYCLIC = ("fig5", "diamond", "wang-acyclic")


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
    return out


def _real_argv(argv: list[str]) -> list[str]:
    return argv[:2] + [str(fixture_path(f"{argv[2]}.json"))] + argv[3:]


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(a) for a in cases())


@pytest.mark.parametrize("name", sorted(set(FIXTURES + ACYCLIC)))
def test_cli_output_matches_golden(name, golden, capsys):
    for argv in cases():
        if argv[2] == name:
            assert run(_real_argv(argv)) == 0
            assert capsys.readouterr().out == golden[" ".join(argv)], argv


if __name__ == "__main__":
    import contextlib
    import io

    recorded = {}
    for argv in cases():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run(_real_argv(argv)) == 0
        recorded[" ".join(argv)] = buf.getvalue()
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} outputs to {GOLDEN}")
