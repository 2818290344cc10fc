"""Run alternating parent/change benchmark pairs and write a BENCH file.

For each seed, ``python3 perfbench/run.py --workload W --seed N`` runs once
in the parent checkout and once in the change checkout; the side that runs
first alternates from seed to seed. Every run's end-to-end metrics are
kept, with each side's median and interquartile range and the number of
pairs the change wins (metric directions come from BENCHMARK.json). With
``--trace`` the runs are ``--trace 1`` and the per-layer metrics are kept
instead. Each set of pairs is stored under its workload name, or under
the NAME of a ``--runs WORKLOAD:FIRST-LAST:NAME`` spec, so one workload
can hold several sets. Sets already in OUT are kept, so they can be run
one at a time. A set needs at least two seeds, for its quartiles. Every
argument is checked before the first run: each spec's form, its workload
and the claim's workload and metric against BENCHMARK.json, and that both
checkouts hold ``perfbench/run.py``. A run that prints no result line
stops the tool with that run's exit code and the tail of its stderr; the
sets finished before it are already in OUT.

Untraced runs also keep the median scaled seconds of each command label,
``circuit:*`` for the commands labelled ``circuit:0``, ``circuit:1``, ...,
read from the run's samples in ``.perfbench/out/<workload>-seed<N>-trace0.json``,
so a set whose workload mixes commands shows which of them moved.

Every run reads ``src_lines``, the line count of ``src/cybag/*.py``, from
perfbench's ``environment`` line; the file keeps each side's as
``"src_lines": {"parent": N, "change": M}``, next to the numbers.

``--ladder 4000,16000`` also times ``generate`` in-process on each side,
cyclicity 100, seed 0, three times per size in one fresh process, and
keeps the times and the sha256 of each side's ``write_json`` bytes.

Run from the repository root, with both checkouts as plain directories:

    python3 tools/bench_pairs.py PARENT CHANGE OUT.json \\
        --runs solve-cyclic:700-710 --runs exact-cyclic:800-802 \\
        --change "what the change does" --claim solve-cyclic:op_s_p50
    python3 tools/bench_pairs.py PARENT CHANGE OUT.json --trace \\
        --runs generate-cyclic:0-2:generate-cyclic-traced
    python3 tools/bench_pairs.py PARENT CHANGE OUT.json --ladder 4000,16000
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = """
import hashlib, sys, tempfile, time
from pathlib import Path
from cybag.formats import write_json
from cybag.generator import GenParams, generate
params = GenParams(n=int(sys.argv[1]), cyclicity=100, seed=0)
times = []
for _ in range(3):
    start = time.perf_counter()
    graph = generate(params)
    times.append(time.perf_counter() - start)
with tempfile.TemporaryDirectory() as tmp:
    write_json(graph, Path(tmp) / "g.json")
    print(*times, hashlib.sha256((Path(tmp) / "g.json").read_bytes()).hexdigest())
"""


def run_once(checkout: Path, workload: str, seed: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(int(trace))],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-1].startswith("{"):
        tail = "\n".join(proc.stderr.strip().splitlines()[-10:])
        print(f"{workload} seed {seed} in {checkout} printed no result line "
              f"(exit code {proc.returncode}); its stderr ends:\n{tail}", file=sys.stderr)
        raise SystemExit(proc.returncode or 1)
    env = json.loads(lines[0].removeprefix("environment "))
    last = json.loads(lines[-1])
    values = {name: entry["value"] for name, entry in last["metrics"].items()}
    machine = (f"{env['nproc']}-CPU {env['cpu_model']}; "
               f"Python {env['python']}, numpy {env['numpy']}")
    result = {"machine": machine, "src_lines": env["src_lines"], "failed": last["failed"],
              "attempted": last["attempted"], **values}
    if not trace:
        result["commands"] = command_medians(
            checkout / ".perfbench" / "out" / f"{workload}-seed{seed}-trace0.json")
    return result


def command_medians(path: Path) -> dict[str, float]:
    """Median scaled seconds per command label of one untraced run."""
    scaled: dict[str, list[float]] = {}
    for sample in json.loads(path.read_text())["results"][0]["samples"]:
        label = sample["label"].partition(":")[0] + ":*"
        scaled.setdefault(label, []).append(sample["seconds"] * sample["scale"])
    return {label: statistics.median(times) for label, times in sorted(scaled.items())}


def ladder_once(checkout: Path, n: int) -> tuple[list[float], str]:
    proc = subprocess.run([sys.executable, "-c", LADDER, str(n)], cwd=checkout,
                          env={**os.environ, "PYTHONPATH": str(checkout / "src")},
                          capture_output=True, text=True, check=True)
    *times, digest = proc.stdout.split()
    return [round(float(t), 4) for t in times], digest


def summary(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    return {
        "parent": [round(x, 4) for x in parent],
        "change": [round(x, 4) for x in change],
        "parent_median": round(statistics.median(parent), 4),
        "parent_iqr": round(q3 - q1, 4),
        "change_median": round(statistics.median(change), 4),
        "change_better_pairs": wins,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--runs", action="append", default=[],
                        help="WORKLOAD:FIRST-LAST[:NAME], an inclusive seed range")
    parser.add_argument("--trace", action="store_true",
                        help="run --trace 1 and keep the per-layer metrics")
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--claim", default="", help="WORKLOAD:METRIC the change claims")
    parser.add_argument("--ladder", default="",
                        help="N[,N...]: time generate in-process at these sizes")
    args = parser.parse_args()
    if not args.runs and not args.ladder:
        parser.error("give --runs, --ladder or both")
    if not re.fullmatch(r"(\d+(,\d+)*)?", args.ladder):
        parser.error(f"--ladder {args.ladder}: expected N[,N...]")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    lower = {m["name"]: m["better"] == "lower"
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    for checkout in (args.parent, args.change_dir):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} is not a checkout: it has no perfbench/run.py")
    sets = []
    for spec in args.runs:
        match = re.fullmatch(r"([^:]+):(\d+)-(\d+)(?::([^:]+))?", spec)
        if not match:
            parser.error(f"--runs {spec}: expected WORKLOAD:FIRST-LAST[:NAME]")
        workload, first, last, name = match.groups()
        if workload not in known:
            parser.error(f"--runs {spec}: unknown workload; BENCHMARK.json has {known}")
        if int(last) <= int(first):
            parser.error(f"--runs {spec}: a set needs at least two seeds for its quartiles")
        sets.append((workload, list(range(int(first), int(last) + 1)), name or workload))
    claim_workload, _, claim_metric = args.claim.partition(":")
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    if args.claim and (claim_workload not in known or claim_metric not in end_to_end):
        parser.error(f"--claim {args.claim}: expected WORKLOAD:METRIC, a workload of "
                     f"BENCHMARK.json and one of its end-to-end metrics {end_to_end}")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({
        "change": args.change or doc.get("change", ""),
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   "--trace <trace> (default --seconds 24)",
        "method": "alternating parent/change pairs, the side that runs first alternating "
                  "from seed to seed; one perfbench run per side and seed; values are the "
                  "run's end-to-end metrics (times scaled to the reference speed, see "
                  "perfbench/run.py REF_PROGRAM) with, under commands, the median scaled "
                  "seconds per command label, or its per-layer metrics (times not "
                  "scaled) in sets with trace 1",
    })
    if args.claim:
        doc["claim"] = {"workload": claim_workload, "metric": claim_metric}
    workloads = doc.setdefault("workloads", {})
    for workload, seeds, name in sets:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for k, seed in enumerate(seeds):
            sides = [("parent", args.parent), ("change", args.change_dir)]
            for side, checkout in sides if k % 2 == 0 else sides[::-1]:
                runs[side].append(run_once(checkout, workload, seed, args.trace))
                print(workload, seed, side, json.dumps(runs[side][-1]), flush=True)
        entry = {"workload": workload, "trace": int(args.trace), "seeds": seeds}
        for side in runs:
            entry.setdefault("failed", {})[side] = [r["failed"] for r in runs[side]]
            entry.setdefault("attempted", {})[side] = [r["attempted"] for r in runs[side]]
        for metric, is_lower in lower.items():
            entry[metric] = summary([r[metric] for r in runs["parent"]],
                                    [r[metric] for r in runs["change"]], is_lower)
        if not args.trace:
            entry["commands"] = {
                label: summary([r["commands"][label] for r in runs["parent"]],
                               [r["commands"][label] for r in runs["change"]], True)
                for label in runs["parent"][0]["commands"]
            }
        workloads[name] = entry
        doc["machine"] = runs["change"][-1]["machine"]
        doc["src_lines"] = {side: runs[side][-1]["src_lines"] for side in runs}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.ladder:
        rows = []
        for k, n in enumerate(int(x) for x in args.ladder.split(",")):
            sides = [("parent", args.parent), ("change", args.change_dir)]
            done = {side: ladder_once(checkout, n)
                    for side, checkout in (sides if k % 2 == 0 else sides[::-1])}
            row = {"n": n, "parent_s": done["parent"][0], "change_s": done["change"][0],
                   "parent_sha256": done["parent"][1], "change_sha256": done["change"][1],
                   "same_bytes": done["parent"][1] == done["change"][1]}
            print("ladder", json.dumps(row), flush=True)
            rows.append(row)
        doc["ladder"] = {"command": "generate(GenParams(n, cyclicity=100, seed=0)) "
                                    "in-process, 3 times per fresh process", "rows": rows}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
