"""The public API of the package root.

The root resolves its names lazily, so these checks pin the list of
names and make sure every one of them resolves through each way a user
can reach it: attribute access, ``dir`` and ``from cybag import *``.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cybag

PUBLIC = [
    "AttackGraph", "BenchRow", "CircuitState", "Complexity",
    "ComplexityScore", "CveRecord", "CybagError", "CycleLimitError", "CyclePath",
    "CycleReport", "CycleType", "Factor", "GenParams", "GraphCyclicError",
    "InfeasibleError", "Instantiation", "IoError", "Node", "NodeKind", "ParseError",
    "PlainBag", "PlainCycleError", "ReachEstimate", "SchemaError", "TargetRequiredError",
    "TooLargeError", "UnknownNodeError", "ValidationReport", "WidthLimitError",
    "apply_scores", "bayes", "bench", "brute_force_marginal", "circuit", "classify",
    "classify_all", "classify_cycle", "closing_edge", "conjunction", "convert_plain",
    "cyclic_or_fraction", "disjunction", "eliminate", "elimination_order", "errors",
    "find_cycles", "fixed_point", "fixture_path", "formats", "generate",
    "generator", "graph", "import_feed", "is_loop_free", "load_fixture", "node_factor",
    "parse_cvss_vector", "probability_from_complexity", "propagate", "reachability_exact",
    "reachability_mc", "read_json", "read_plain_json", "scoring",
    "solve_acyclic_closed_form", "solve_all", "solve_node", "step", "topological_order",
    "validate", "write_dot", "write_json",
]


def test_public_names_are_pinned():
    assert sorted(cybag.__all__) == PUBLIC


def test_every_name_resolves_to_its_module():
    for name in PUBLIC:
        value = getattr(cybag, name)
        if isinstance(value, types.ModuleType):
            assert value.__name__ == f"cybag.{name}"
        else:
            assert value.__module__.startswith("cybag."), name
    # each resolved name is now bound, and dir lists it once
    assert dir(cybag) == sorted(set(PUBLIC) | set(vars(cybag)))


def test_dir_lists_every_name_before_any_is_resolved():
    code = "import cybag; print(sorted(set(cybag.__all__) - set(dir(cybag))))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(cybag.__file__).parent.parent)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cybag import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cybag.no_such_name
