"""Module boundaries inside the package, checked on the source text.

Each engine decision has one owner: modules talk to each other through
public names only, and only ``graph.py`` builds networkx graphs (cycle
enumeration and the strongly connected components of the dense index).
"""

import ast
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


def test_only_graph_imports_networkx():
    users = sorted(
        path.name
        for path in MODULES
        for level, module, _ in imports(path)
        if level == 0 and module.split(".")[0] == "networkx"
    )
    assert users == ["graph.py"]
