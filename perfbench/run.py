"""cybag benchmark: end-to-end CLI timings and per-layer spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-cyclic --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # all three workloads
    python3 perfbench/run.py --workload all --smoke       # tiny sizes, for tests

With ``--trace 0`` every command is a separate ``python -m cybag.cli``
process, run one after another (a closed loop with one client), and the
run reports ``op_s_p50``, ``throughput``, ``setup_s`` and ``peak_rss_mb``.
With ``--trace 1`` the same commands are replayed in-process under
``cybag.cli.run``, alternately with and without the per-layer wrappers
of ``tracing.py``, and the run reports the per-layer metrics and the
tracing overhead. End-to-end times are scaled to a reference speed (see
``REF_PROGRAM``); per-layer times are not. Every output is checked; any
failed check makes the exit code 1. Human-readable lines come first and
the last line of stdout is one JSON object. Spans, samples and the
machine record are written to ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    FULL,
    REPO,
    SMOKE,
    SRC,
    STATE,
    WORKLOADS,
    Plan,
    build_plan,
    cli_env,
    load_refs,
    src_lines,
)

SETUP_REPEATS = 5
# Other tenants slow this kind of shared machine by up to 1.6x for minutes
# at a time, which no run length averages away. Every timed process is
# therefore bracketed by runs of this fixed pure-Python reference process,
# and its wall time is scaled by REF_S over the mean of the two reference
# times: seconds at the speed at which the reference takes REF_S, its
# unloaded time on the 2-CPU Xeon the benchmark was tuned on. Unscaled
# medians are printed too, and every raw sample stays in the output file.
REF_PROGRAM = "s = 0\nfor i in range(2_000_000):\n    s += i * i % 7\n"
REF_S = 0.3
IMPORT_REPEATS = 3
COMMAND_TIMEOUT_S = 100.0
SETUP_PROBE = (
    "import sys, cybag.cli as c; g = c.formats.read_json(sys.argv[1]); "
    "sys.exit(0 if c.validate(g).ok else 2)"
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cybag.cli; "
    "print(time.perf_counter() - t)"
)

WORK_UNITS = {
    "solve-cyclic": "nodes solved",
    "exact-cyclic": "instantiations",
    "generate-cyclic": "nodes generated",
}
# metric name -> unit, for the end-to-end (untraced) and per-layer (traced) runs
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
UNITS = {traced: {m["name"]: m["unit"] for m in BENCHMARK[key]}
         for traced, key in ((False, "end_to_end"), (True, "per_layer"))}


# Runs in a helper process started before the benchmark loads any graph
# or array. Linux records the exec-ing process's peak RSS in a child's
# ru_maxrss, and subprocess starts children with vfork, so children
# started by the benchmark itself would report at least the benchmark's
# own peak. The helper holds only the standard library.
LAUNCHER = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    argv, out_path, err_path, cwd, env, timeout = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    watchdog.join()
    print(json.dumps([elapsed, proc.returncode, usage.ru_maxrss / 1024.0]), flush=True)
"""


class Launcher:
    """Times child processes from the helper process running ``LAUNCHER``."""

    def __init__(self):
        self._helper = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stdout_path: Path) -> tuple[float, int, float]:
        """Run one child to completion.

        Returns (wall seconds from launch to exit, exit code, max RSS in
        MB). A child still running after ``COMMAND_TIMEOUT_S`` is killed,
        which shows as a negative exit code.
        """
        request = [argv, str(stdout_path), str(stdout_path.with_suffix(".err")), str(REPO),
                   cli_env(), COMMAND_TIMEOUT_S]
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("launcher process exited")
        elapsed, rc, rss = json.loads(reply)
        return elapsed, rc, rss

    def probe(self, code: str, *args: str, stdout_path: Path) -> float:
        elapsed, rc, _ = self.run([sys.executable, "-c", code, *args], stdout_path)
        if rc != 0:
            raise RuntimeError(f"probe exited with {rc}: {stdout_path.with_suffix('.err')}")
        return elapsed

    def reference_s(self, workdir: Path) -> float:
        """Wall time of one run of the reference process."""
        return self.probe(REF_PROGRAM, stdout_path=workdir / "ref.out")

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=COMMAND_TIMEOUT_S)
        self._helper.stdout.close()


def read_output(cmd, stdout_path: Path) -> bytes:
    path = cmd.out_path or stdout_path
    return path.read_bytes() if path.exists() else b""


def measure(launcher: Launcher, plan: Plan, seconds: float, workdir: Path) -> dict:
    """Untraced run: set-up probes, then CLI processes until ``seconds`` pass.

    Reference processes run before the first and after every timed
    process; each wall time is scaled by REF_S over the mean of the two
    reference times that bracket it.
    """
    probe_out = workdir / "probe.out"
    probe_args = (str(plan.setup_input),) if plan.setup_input else ()
    code = SETUP_PROBE if plan.setup_input else "import cybag.cli"
    refs = [launcher.reference_s(workdir)]
    setup = []
    for _ in range(SETUP_REPEATS):
        elapsed = launcher.probe(code, *probe_args, stdout_path=probe_out)
        refs.append(launcher.reference_s(workdir))
        setup.append((elapsed, 2 * REF_S / (refs[-2] + refs[-1])))

    runs = []
    start = time.perf_counter()
    while len(runs) < len(plan.commands) or time.perf_counter() - start < seconds:
        cmd = plan.commands[len(runs) % len(plan.commands)]
        problem = plan.verify_input(cmd.input_path) if cmd.input_path else None
        if cmd.out_path:
            cmd.out_path.unlink(missing_ok=True)
        stdout_path = workdir / "cmd.out"
        elapsed, rc, rss = launcher.run(
            [sys.executable, "-m", "cybag.cli", *cmd.argv], stdout_path
        )
        output = read_output(cmd, stdout_path)
        refs.append(launcher.reference_s(workdir))
        scale = 2 * REF_S / (refs[-2] + refs[-1])
        runs.append((cmd, elapsed, scale, rc, rss, output, problem))

    failures = []
    for cmd, _, _, rc, _, output, problem in runs:
        problem = problem or (f"{cmd.label}: exit code {rc}" if rc != 0 else None)
        problem = problem or plan.check(cmd, output)
        if problem:
            failures.append(problem)
    scaled = [r[1] * r[2] for r in runs]
    metrics = {
        "op_s_p50": (statistics.median(scaled), len(runs)),
        "throughput": (sum(r[0].work for r in runs) / sum(scaled), len(runs)),
        "setup_s": (statistics.median(t * k for t, k in setup), len(setup)),
        "peak_rss_mb": (statistics.median(r[4] for r in runs), len(runs)),
    }
    return {
        "metrics": {k: {"value": metrics[k][0], "unit": unit, "n": metrics[k][1]}
                    for k, unit in UNITS[False].items()},
        "error_rate": {"value": len(failures) / len(runs), "unit": "fraction", "n": len(runs)},
        "raw": {"op_s_p50": statistics.median(r[1] for r in runs),
                "setup_s": statistics.median(t for t, _ in setup)},
        "attempted": len(runs),
        "failures": failures,
        "samples": [{"label": r[0].label, "seconds": r[1], "scale": r[2], "exit": r[3],
                     "rss_mb": r[4]} for r in runs],
        "setup_samples": setup,
    }


def replay(cli, cmd, tracer: Tracer | None) -> tuple[int, bytes, float]:
    """Run one command in this process; returns (exit code, output, seconds)."""
    if cmd.out_path:
        cmd.out_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        if tracer is None:
            rc = cli.run(cmd.argv)
        else:
            rc = tracer.run("cli.run", lambda: cli.run(cmd.argv))
        elapsed = time.perf_counter() - start
    output = cmd.out_path.read_bytes() if cmd.out_path and cmd.out_path.exists() else (
        out.getvalue().encode()
    )
    return rc, output, elapsed


def trace(launcher: Launcher, plan: Plan, seconds: float, workdir: Path) -> dict:
    """Traced run: each command replayed in-process with and without spans."""
    import cybag.cli as cli

    probe_out = workdir / "probe.out"
    import_s = []
    for _ in range(IMPORT_REPEATS):
        launcher.probe(IMPORT_PROBE, stdout_path=probe_out)
        import_s.append(float(probe_out.read_text()))

    tracer = Tracer()
    timings: dict[bool, list[float]] = {True: [], False: []}
    failures = []
    attempted = 0
    start = time.perf_counter()
    step = 0
    while step == 0 or time.perf_counter() - start < seconds:
        cmd = plan.commands[step % len(plan.commands)]
        # alternate which side runs first so warm caches favour neither
        for traced in ((True, False) if step % 2 == 0 else (False, True)):
            attempted += 1
            problem = plan.verify_input(cmd.input_path) if cmd.input_path else None
            if traced:
                tracer.command = len(timings[True])
                tracer.install()
            try:
                rc, output, elapsed = replay(cli, cmd, tracer if traced else None)
            except Exception as exc:  # a crash is a failed command, not a failed run
                failures.append(f"{cmd.label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                tracer.uninstall()
            tracer.flush_counts()
            timings[traced].append(elapsed)
            problem = problem or (f"{cmd.label}: exit code {rc}" if rc != 0 else None)
            problem = problem or plan.check(cmd, output)
            if problem:
                failures.append(problem)
        step += 1

    metrics = {"cli.import_s": statistics.median(import_s)}
    metrics.update(tracer.layer_metrics(len(timings[True])))
    traced_p50 = statistics.median(timings[True])
    plain_p50 = statistics.median(timings[False])
    metrics["trace.op_s_p50"] = traced_p50
    metrics["trace.untraced_op_s_p50"] = plain_p50
    metrics["trace.overhead"] = traced_p50 / plain_p50
    return {
        "metrics": {k: {"value": metrics[k], "unit": unit, "n": len(timings[True])}
                    for k, unit in UNITS[True].items()},
        "error_rate": {"value": len(failures) / attempted, "unit": "fraction", "n": attempted},
        "attempted": attempted,
        "failures": failures,
        "spans": tracer.dump(),
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    import networkx
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "git_commit": commit,
        "src_lines": src_lines(),
    }


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool) -> dict:
    mode = "smoke" if smoke else "full"
    workdir = STATE / "work" / f"{mode}-{name}"
    plan = build_plan(name, seed, SMOKE if smoke else FULL, workdir, load_refs(mode, name, seed))
    result = (trace if traced else measure)(launcher, plan, seconds, workdir)
    result.update(workload=name, seed=seed, seconds=seconds, mode=mode, trace=int(traced))
    return result


def report(result: dict) -> None:
    name = result["workload"]
    rows = dict(result["metrics"])
    rows["error_rate"] = result["error_rate"]
    for metric, entry in rows.items():
        unit = entry["unit"]
        if metric == "throughput":
            unit = f"{unit} ({WORK_UNITS[name]}/s)"
        print(f"{name:16} {metric:28} {entry['value']:<14.6g} {unit:10} n={entry['n']}")
    for metric, value in result.get("raw", {}).items():
        print(f"{name:16} {metric + ' (unscaled)':28} {value:<14.6g} s")
    for problem in result["failures"]:
        print(f"{name:16} FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)

    if not (SRC / "cybag" / "cli.py").is_file():
        print(f"error: cybag sources not found under {SRC}", file=sys.stderr)
        return 2
    launcher = Launcher()
    try:
        sys.path.insert(0, str(SRC))
        env = environment()
        print("environment " + json.dumps(env, sort_keys=True))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            result = run_workload(launcher, name, args.seed, args.seconds, bool(args.trace),
                                  args.smoke)
            report(result)
            results.append(result)
    finally:
        launcher.close()

    out_dir = STATE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"environment": env, "results": results}))

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for key, entry in result["metrics"].items():
            metrics[prefix + key] = {"value": entry["value"], "unit": entry["unit"]}
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
