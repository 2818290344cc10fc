"""Tests of the benchmark itself, on the smoke sizes.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import REPO, SMOKE, SRC, build_plan

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = REPO) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, last, proc.stdout


def test_smoke_run_checks_every_workload_and_reports_every_metric():
    rc, last, out = bench("--workload", "all", "--smoke", "--seconds", "1")
    assert rc == 0, out
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 3
    names = {f"{w['name']}.{m['name']}" for w in BENCHMARK["workloads"]
             for m in BENCHMARK["end_to_end"]}
    assert set(last["metrics"]) == names
    for workload in BENCHMARK["workloads"]:
        assert f"{workload['name']:16} error_rate" in out


def test_smoke_trace_reports_every_per_layer_metric():
    rc, last, out = bench("--workload", "exact-cyclic", "--smoke", "--seconds", "1",
                          "--trace", "1")
    assert rc == 0, out
    assert set(last["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    assert metrics["classify.instantiations"] == metrics["classify.calls"] * 2 ** 12
    assert metrics["circuit.instantiations"] > 0 and metrics["graph.cycles"] > 0
    assert metrics["trace.overhead"] > 0


def _corrupt_value(out: bytes) -> bytes:
    first, _, rest = out.partition(b"\n")
    node, _, _ = first.partition(b"\t")
    return node + b"\t1.500000\n" + rest


def _corrupt_digit(out: bytes) -> bytes:
    # still a valid probability, so only the recorded sha256 catches it
    i = out.index(b"\n") - 1
    return out[:i] + (b"1" if out[i:i + 1] != b"1" else b"2") + out[i + 1:]


@pytest.mark.parametrize("workload,corrupt", [
    ("solve-cyclic", _corrupt_value),
    ("solve-cyclic", _corrupt_digit),
    ("exact-cyclic", _corrupt_digit),
    ("generate-cyclic", lambda out: out.replace(b'"and"', b'"or"', 1)),
])
def test_corrupted_output_is_counted_as_a_failure(monkeypatch, capsys, workload, corrupt):
    clean = run.read_output
    monkeypatch.setattr(run, "read_output", lambda cmd, path: corrupt(clean(cmd, path)))
    rc = run.main(["--workload", workload, "--smoke", "--seconds", "0.1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert not last["correct"] and last["failed"] == last["attempted"] >= 1


def test_input_refs_are_checked_only_when_given(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    plan = build_plan("exact-cyclic", 0, SMOKE, tmp_path, refs={})
    assert plan.refs == {}
    stale = {f"input:{plan.commands[0].label}": "0" * 64}
    with pytest.raises(RuntimeError, match="differs from the recorded reference"):
        build_plan("exact-cyclic", 0, SMOKE, tmp_path, refs=stale)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, last, _ = bench("--workload", "solve-cyclic", "--seconds", "1", cwd=tmp_path)
    assert rc != 0 and last is None
