"""The CLI's exit path.

``cli.main`` freezes the garbage collector's tracked objects before
``sys.exit``, so that the collections at interpreter shutdown skip them.
``cli.run`` must leave the collector alone for in-process callers, the
process must still leave through ``sys.exit`` (atexit handlers run), and
a ``python -m cybag.cli`` process must print the same bytes and exit
codes as an in-process ``run``.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cybag.circuit import EXACT_ENUM_LIMIT
from cybag.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "cybag" / "fixtures"
FIG5 = str(FIXTURES / "fig5.json")
RUNNING = str(FIXTURES / "running-example.json")


def cli(*argv, code=None):
    """A fresh ``python -m cybag.cli`` process, or ``python -c code``."""
    command = ["-c", code] if code else ["-m", "cybag.cli"]
    return subprocess.run(
        [sys.executable, *command, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        timeout=60,
    )


def test_run_leaves_the_freeze_count_unchanged(capsys):
    before = gc.get_freeze_count()
    assert run(["solve", "--in", FIG5]) == 0
    assert run(["solve"]) == 1
    assert gc.get_freeze_count() == before
    capsys.readouterr()


def test_main_freezes_and_still_runs_atexit_handlers():
    code = (
        "import atexit, gc, sys\n"
        "import cybag.cli\n"
        "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv[0] = 'cybag'\n"
        "cybag.cli.main()\n"
    )
    proc = cli("solve", "--in", FIG5, code=code)
    assert proc.returncode == 0
    assert proc.stdout == b"0\t0.700000\n1\t0.800000\n2\t0.336000\n"
    assert proc.stderr == b"atexit True\n"


@pytest.fixture
def too_many_inputs(tmp_path):
    """An Or node fed by one more fractional leaf than exact enumeration takes."""
    k = EXACT_ENUM_LIMIT + 1
    doc = {
        "version": "1",
        "nodes": [{"id": v, "kind": "leaf", "label": "", "p": "0.5"} for v in range(k)]
        + [{"id": k, "kind": "or", "label": "", "p": "1"}],
        "edges": [[v, k] for v in range(k)],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    return path, k


def test_exit_codes(tmp_path, too_many_inputs):
    unreadable = tmp_path / "bad.json"
    unreadable.write_bytes(b"\xff\xfe not a graph")
    wide, target = too_many_inputs
    cases = [
        (["solve", "--in", FIG5], 0, b""),
        (["solve", "--node", "0"], 1, b"usage error: "),
        (["solve", "--in", str(unreadable)], 2, b"error ["),
        (["circuit", "--in", str(wide), "--node", str(target)], 3, b"limit exceeded ["),
    ]
    for argv, code, err in cases:
        proc = cli(*argv)
        assert proc.returncode == code, (argv, proc.stderr)
        assert proc.stderr.startswith(err), (argv, proc.stderr)
        assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--in", RUNNING],
        ["solve", "--in", RUNNING, "--format", "json", "--out", "{out}"],
        ["circuit", "--in", RUNNING, "--node", "4"],
        ["cycles", "--in", RUNNING, "--target", "4"],
        ["cycles", "--in", RUNNING, "--format", "json"],
        ["generate", "--n", "300", "--cyclicity", "100", "--seed", "2", "--out", "{out}"],
    ],
    ids=["solve", "solve-out", "circuit", "cycles-target", "cycles-json", "generate"],
)
def test_process_prints_what_run_prints(argv, tmp_path, capsys):
    def filled(out):
        return [a.format(out=out) for a in argv]

    in_process, subprocess_out = tmp_path / "run.out", tmp_path / "main.out"
    assert run(filled(in_process)) == 0
    stdout = capsys.readouterr().out.encode()
    proc = cli(*filled(subprocess_out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout
    if "{out}" in argv:
        assert stdout == b""
        assert subprocess_out.read_bytes() == in_process.read_bytes()
    else:
        assert stdout
