"""Module boundaries inside the package, checked on the source text.

Each engine decision has one owner: modules talk to each other through
public names only. ``graph.py`` owns the graph algorithms (components and
cycle enumeration) itself, so no module imports networkx, which the tests
keep only as a reference oracle. ``formats.py`` is the one file boundary:
no other module opens a file. ``DenseIndex.row`` in ``graph.py`` is the
one node lookup: no other module raises ``UnknownNodeError``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cybag"
MODULES = sorted(SRC.glob("*.py"))


def imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            yield node.level, node.module or "", [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name, []


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


def test_cli_import_leaves_networkx_unloaded():
    code = "import sys, cybag.cli; print('networkx' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "False\n"
