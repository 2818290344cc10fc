"""The three benchmark workloads: seeded inputs, CLI commands, work units and output checks.

Each workload turns a seed into a ``Plan``: a pool of input files built
in-process before anything is timed, and a cyclic list of ``cybag`` CLI
commands over that pool. Every command carries its own output check, so
the timed loop only launches processes and the checks run afterwards.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
STATE = REPO / ".perfbench"
REFS_PATH = Path(__file__).resolve().parent / "refs.json"

WORKLOADS = ("solve-cyclic", "exact-cyclic", "generate-cyclic")
CYCLICITY = 100
MC_SAMPLES = 1 << 16
MC_SEED = 7
MC_SIGMAS = 5.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark mode."""

    solve_n: int
    exact_n: int
    exact_cycles: int
    generate_n: int
    pools: tuple[int, int, int]  # graphs per seed for solve, exact, generate


# exact_n=36 gives 18 fractional leaf inputs, 2^18 instantiations per
# command; smoke's 25 nodes give 12. At 40 nodes (2^20) a command took
# 3-5 s, too few per run to average the graph-to-graph spread of
# classification time. Pools average that spread within a run: four
# exact graphs, which cost nothing to build, and two n=4000 graphs,
# which cost 5 s each to generate.
FULL = Sizes(solve_n=4000, exact_n=36, exact_cycles=3, generate_n=4000, pools=(2, 4, 2))
SMOKE = Sizes(solve_n=200, exact_n=25, exact_cycles=3, generate_n=300, pools=(2, 1, 1))


@dataclass
class Command:
    """One CLI invocation and how to judge what it printed or wrote."""

    label: str
    argv: list[str]
    work: int
    check: Callable[[bytes], str | None]
    input_path: Path | None = None
    out_path: Path | None = None


@dataclass
class Plan:
    commands: list[Command]
    setup_input: Path | None
    input_sha: dict[Path, str] = field(default_factory=dict)
    refs: dict[str, str] = field(default_factory=dict)

    def verify_input(self, path: Path) -> str | None:
        """Re-hash a reused input file against the hash taken when it was built."""
        if sha256_file(path) != self.input_sha[path]:
            return f"input {path.name} changed since it was built"
        return None

    def check(self, cmd: Command, output: bytes) -> str | None:
        try:
            problem = cmd.check(output)
        except (ValueError, IndexError) as exc:  # includes UnicodeDecodeError
            problem = f"{cmd.label}: unreadable output ({exc})"
        if problem is None and cmd.label in self.refs:
            if hashlib.sha256(output).hexdigest() != self.refs[cmd.label]:
                problem = f"{cmd.label}: output differs from the recorded reference"
        return problem


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sub_seed(seed: int, j: int) -> int:
    return seed * 10007 + j


def load_refs(mode: str, workload: str, seed: int) -> dict[str, str]:
    if not REFS_PATH.is_file():
        return {}
    refs = json.loads(REFS_PATH.read_text())
    return refs.get(mode, {}).get(workload, {}).get(str(seed), {})


def fractional_inputs(graph) -> int:
    return sum(1 for n in graph.nodes if 0.0 < n.local_prob < 1.0)


def highest_or(graph) -> int:
    from cybag.graph import NodeKind

    return max(n.id for n in graph.nodes if n.kind is NodeKind.OR)


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "cybag").glob("*.py")):
        h.update(p.read_bytes())
    return h.hexdigest()


def cached_graph(n: int, seed: int) -> Path:
    """In-process ``generate`` + ``write_json`` for (n, CYCLICITY, seed), done once.

    Files are kept under ``.perfbench/inputs`` keyed by the digest of the
    cybag sources, so an edited generator never reuses an old graph, and
    a reused file must still match the sha256 taken when it was written.
    """
    from cybag import formats, generator
    from cybag.generator import GenParams

    path = STATE / "inputs" / f"{source_digest()[:16]}-n{n}-c{CYCLICITY}-s{seed}.json"
    sidecar = path.with_suffix(".sha256")
    if path.is_file() and sidecar.is_file():
        if sha256_file(path) != sidecar.read_text():
            raise RuntimeError(f"cached input {path.name} no longer matches its sha256")
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    formats.write_json(generator.generate(GenParams(n=n, cyclicity=CYCLICITY, seed=seed)), path)
    sidecar.write_text(sha256_file(path))
    return path


def _check_solve(graph) -> Callable[[bytes], str | None]:
    ids = sorted(graph.node_ids)

    def check(out: bytes) -> str | None:
        lines = out.decode().splitlines()
        if len(lines) != len(ids):
            return f"solve: {len(lines)} lines for {len(ids)} nodes"
        for line, v in zip(lines, ids):
            node, _, value = line.partition("\t")
            if node != str(v) or not 0.0 <= float(value) <= 1.0:
                return f"solve: bad line {line!r}"
        return None

    return check


def _check_circuit(graph, target: int) -> Callable[[bytes], str | None]:
    expected: dict[str, object] = {}

    def check(out: bytes) -> str | None:
        from cybag import circuit

        if not expected:
            expected["exact"] = circuit.reachability_exact(graph, target)
            expected["mc"] = circuit.reachability_mc(graph, target, MC_SAMPLES, MC_SEED)
        exact, mc = expected["exact"], expected["mc"]
        fields = out.decode().rstrip("\n").split("\t")
        if len(fields) != 5 or fields[0] != str(target) or fields[2] != "exact":
            return f"circuit: malformed output {out[:80]!r}"
        if fields[1] != f"{exact.probability:.6f}" or int(fields[3]) != exact.samples:
            return f"circuit: {fields[1]} != in-process {exact.probability:.6f}"
        if abs(float(fields[1]) - mc.probability) > MC_SIGMAS * mc.std_error + 1e-6:
            return f"circuit: {fields[1]} is more than {MC_SIGMAS} SE from MC {mc.probability}"
        return None

    return check


def _check_cycles(n_cycles: int) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        rows = out.decode().splitlines()
        if len(rows) != n_cycles:
            return f"cycles: {len(rows)} rows for {n_cycles} cycles"
        for row in rows:
            fields = row.split("\t")
            if len(fields) < 2 or fields[1] not in ("type1", "type2", "type3"):
                return f"cycles: bad row {row!r}"
        return None

    return check


def _check_bytes(expected: bytes) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        if out != expected:
            return "generate: output differs from in-process generate + write_json"
        return None

    return check


def build_plan(workload: str, seed: int, sizes: Sizes, workdir: Path,
               refs: dict[str, str]) -> Plan:
    """Build every input of one run in-process; nothing here is timed.

    ``refs`` are the recorded sha256 references of this seed (see
    ``load_refs``); an input that differs from its reference raises.
    Pass ``{}`` to build without checking, as ``record_refs.py`` does.
    """
    from cybag import formats, generator
    from cybag.generator import GenParams
    from cybag.graph import find_cycles

    workdir.mkdir(parents=True, exist_ok=True)
    commands: list[Command] = []
    input_sha: dict[Path, str] = {}

    if workload == "solve-cyclic":
        for j in range(sizes.pools[0]):
            path = cached_graph(sizes.solve_n, sub_seed(seed, j))
            input_sha[path] = sha256_file(path)
            graph = formats.read_json(path)
            commands.append(
                Command(f"solve:{j}", ["solve", "--in", str(path)], len(graph.nodes),
                        _check_solve(graph), input_path=path)
            )
    elif workload == "exact-cyclic":
        # Classification enumerates all instantiations once per simple
        # cycle, and the cycle count varies from 3 to 11 between graphs of
        # this kind; fixing it keeps the seed spread small.
        j = 0
        while len(commands) < 2 * sizes.pools[1]:
            graph = generator.generate(
                GenParams(n=sizes.exact_n, cyclicity=CYCLICITY, seed=sub_seed(seed, j))
            )
            j += 1
            cycles = find_cycles(graph)
            if len(cycles) != sizes.exact_cycles:
                continue
            k = len(commands) // 2
            path = workdir / f"exact-{k}.json"
            formats.write_json(graph, path)
            input_sha[path] = sha256_file(path)
            target = highest_or(graph)
            work = 1 << fractional_inputs(graph)
            commands.append(
                Command(f"circuit:{k}", ["circuit", "--in", str(path), "--node", str(target)],
                        work, _check_circuit(graph, target), input_path=path)
            )
            commands.append(
                Command(f"cycles:{k}", ["cycles", "--in", str(path), "--target", str(target)],
                        work, _check_cycles(len(cycles)), input_path=path)
            )
    elif workload == "generate-cyclic":
        for j in range(sizes.pools[2]):
            s = sub_seed(seed, j)
            ref_path = cached_graph(sizes.generate_n, s)
            out = workdir / f"generated-{j}.json"
            argv = ["generate", "--n", str(sizes.generate_n), "--cyclicity", str(CYCLICITY),
                    "--seed", str(s), "--out", str(out)]
            commands.append(
                Command(f"generate:{j}", argv, sizes.generate_n,
                        _check_bytes(ref_path.read_bytes()), out_path=out)
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")

    setup_input = commands[0].input_path
    plan = Plan(commands, setup_input, input_sha, refs)
    for cmd in commands:
        digest = input_sha.get(cmd.input_path)
        if digest and plan.refs.get(f"input:{cmd.label}", digest) != digest:
            raise RuntimeError(
                f"input of {cmd.label} for seed {seed} differs from the recorded reference; "
                "the generator no longer produces the same graphs"
            )
    return plan


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "cybag").glob("*.py")))


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
