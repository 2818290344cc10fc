"""Record the sha256 references that ``run.py`` compares outputs against.

    python3 perfbench/record_refs.py

For full seeds 0-9 (``REF_SEEDS``) and smoke seed 0 this builds each
workload's inputs, runs every command of its pool once as a CLI process,
applies the workload's own output checks, and stores the sha256 of each
input graph and of each output in ``refs.json``. The old ``refs.json`` is
ignored, not checked, so this also works after a change that alters the
graphs. Rerun it only when a change is meant to alter the graphs or the
CLI's output bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import Launcher, read_output
from workloads import FULL, REFS_PATH, SMOKE, SRC, STATE, WORKLOADS, build_plan

REF_SEEDS = {"full": range(10), "smoke": range(1)}


def record(launcher: Launcher, mode: str, workload: str, seed: int) -> dict[str, str]:
    sizes = SMOKE if mode == "smoke" else FULL
    workdir = STATE / "work" / f"record-{mode}-{workload}"
    plan = build_plan(workload, seed, sizes, workdir, refs={})
    refs = {}
    for cmd in plan.commands:
        if cmd.input_path:
            refs[f"input:{cmd.label}"] = plan.input_sha[cmd.input_path]
        stdout_path = workdir / "cmd.out"
        if cmd.out_path:
            cmd.out_path.unlink(missing_ok=True)
        _, rc, _ = launcher.run([sys.executable, "-m", "cybag.cli", *cmd.argv], stdout_path)
        output = read_output(cmd, stdout_path)
        problem = f"exit code {rc}" if rc != 0 else plan.check(cmd, output)
        if problem:
            raise SystemExit(f"{mode} {workload} seed {seed} {cmd.label}: {problem}")
        refs[cmd.label] = hashlib.sha256(output).hexdigest()
    return refs


def main() -> None:
    launcher = Launcher()
    sys.path.insert(0, str(SRC))
    refs: dict = {mode: {} for mode in REF_SEEDS}
    try:
        for workload in WORKLOADS:
            for mode, seeds in REF_SEEDS.items():
                for seed in seeds:
                    refs[mode].setdefault(workload, {})[str(seed)] = record(
                        launcher, mode, workload, seed
                    )
                    print(f"recorded {mode} {workload} seed {seed}", flush=True)
    finally:
        launcher.close()
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
