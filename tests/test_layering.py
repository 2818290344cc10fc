"""Module boundaries inside the package, checked on the source text.

Each engine decision has one owner: modules talk to each other through
public names only. ``graph.py`` owns the graph algorithms (components and
cycle enumeration) itself, so no module imports networkx, which the tests
keep only as a reference oracle. ``formats.py`` is the one file boundary:
no other module opens a file. ``DenseIndex.row`` in ``graph.py`` is the
one node lookup: no other module raises ``UnknownNodeError``. The package
root and the CLI import no engine at module level, so a command loads
only the engine it runs, and numpy only when that engine needs it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cybag"
MODULES = sorted(SRC.glob("*.py"))
ENGINES = {"bayes", "circuit", "classify", "generator", "propagate", "scoring"}
GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")


def import_entries(node):
    """(level, module, names) for each module an import statement imports."""
    if isinstance(node, ast.ImportFrom):
        yield node.level, node.module or "", [a.name for a in node.names]
    elif isinstance(node, ast.Import):
        for alias in node.names:
            yield 0, alias.name, []


def imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        yield from import_entries(node)


def test_modules_found():
    assert {"graph.py", "circuit.py", "classify.py"} <= {p.name for p in MODULES}


def test_no_private_names_cross_modules():
    leaks = [
        f"{path.name}: from .{module} import {name}"
        for path in MODULES
        for level, module, names in imports(path)
        if level == 1
        for name in names
        if name.startswith("_")
    ]
    assert leaks == []


def test_no_module_imports_networkx():
    users = sorted(
        path.name
        for path in MODULES
        for level, module, _ in imports(path)
        if level == 0 and module.split(".")[0] == "networkx"
    )
    assert users == []


def test_only_formats_opens_files():
    openers = {
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "open")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "open")
        )
    }
    assert openers == {"formats.py"}


def test_only_graph_raises_unknown_node():
    raisers = {
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "UnknownNodeError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    }
    assert raisers == {"graph.py"}


def module_level_imports(path):
    """Imports that run when the module loads: everything outside function bodies."""
    pending = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield from import_entries(node)
        pending.extend(ast.iter_child_nodes(node))


def package_modules_named(level, module, names):
    """The cybag modules an import statement names."""
    parts = module.split(".") if module else []
    if level == 0:
        if parts[:1] != ["cybag"]:
            return set()
        parts = parts[1:]
    return {parts[0]} if parts else set(names)


@pytest.mark.parametrize("name", ["cli.py", "__init__.py", "__main__.py"])
def test_no_engine_imported_at_module_level(name):
    named = set().union(*(package_modules_named(*i) for i in module_level_imports(SRC / name)))
    assert named & ENGINES == set()


def run_python(code, *args, cwd=None):
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True,
        text=True,
        check=True,
        cwd=cwd,
    )


def test_python_m_cybag_prints_what_cybag_cli_prints():
    def solve(module):
        argv = [sys.executable, "-m", module, "solve", "--in", str(SRC / "fixtures" / "fig5.json")]
        env = dict(os.environ, PYTHONPATH=str(SRC.parent))
        return subprocess.run(argv, env=env, capture_output=True, check=True).stdout

    assert solve("cybag") == solve("cybag.cli") == b"0\t0.700000\n1\t0.800000\n2\t0.336000\n"


def test_cli_import_leaves_networkx_unloaded():
    code = "import sys, cybag.cli; print('networkx' in sys.modules)"
    assert run_python(code).stdout == "False\n"


def test_package_import_leaves_numpy_unloaded():
    code = "import sys, cybag; print('numpy' in sys.modules)"
    assert run_python(code).stdout == "False\n"


# Runs one CLI command in a fresh process; stderr's last line says whether
# numpy was loaded and the exit code.
CLI_PROBE = (
    "import sys, cybag.cli\n"
    "code = cybag.cli.run(sys.argv[1:])\n"
    "print('numpy' in sys.modules, code, file=sys.stderr)\n"
)
RUNNING = str(SRC / "fixtures" / "running-example.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--in", RUNNING],
        ["generate", "--n", "60", "--cyclicity", "40", "--out", "g.json"],
        ["circuit", "--in", RUNNING, "--node", "9"],
        ["cycles", "--in", RUNNING, "--target", "14"],
        ["cycles", "--in", RUNNING],
    ],
    ids=["solve", "generate", "circuit", "cycles-target", "cycles"],
)
def test_pure_python_commands_leave_numpy_unloaded(argv, tmp_path):
    proc = run_python(CLI_PROBE, *argv, cwd=tmp_path)
    assert proc.stderr.splitlines()[-1] == "False 0"


def test_generate_leaves_the_solver_unloaded(tmp_path):
    code = CLI_PROBE.replace("'numpy'", "'cybag.propagate'")
    argv = ["generate", "--n", "60", "--cyclicity", "40", "--out", "g.json"]
    proc = run_python(code, *argv, cwd=tmp_path)
    assert proc.stderr.splitlines()[-1] == "False 0"


def test_exact_circuit_leaves_numpy_unloaded_and_prints_its_golden_output():
    proc = run_python(CLI_PROBE, "circuit", "--in", RUNNING, "--node", "9")
    assert proc.stderr.splitlines()[-1] == "False 0"
    golden = json.loads(GOLDEN_CLI.read_text())
    assert proc.stdout == golden["circuit --in running-example --node 9 --format tsv"]


def test_sampled_circuit_loads_numpy():
    proc = run_python(CLI_PROBE, "circuit", "--in", RUNNING, "--node", "9", "--mc", "100")
    assert proc.stderr.splitlines()[-1] == "True 0"
