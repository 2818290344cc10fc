"""Access-probability computation for Bayesian attack graphs, cycles included.

Three engines over one graph model: cycle-tolerant recursive propagation
(:mod:`cybag.propagate`), exact Bayesian-network inference for acyclic
graphs (:mod:`cybag.bayes`), and combinational-circuit reachability that
is exact on any graph small enough to enumerate (:mod:`cybag.circuit`).
Around them: cycle detection and classification, a synthetic graph
generator with controllable cyclicity, CVSS-based scoring, and JSON/CSV/
DOT serialization.

The package root is lazy (PEP 562): a public name imports its module on
first access, so a program that uses only the pure-Python engines never
loads numpy.
"""

from importlib import import_module as _import_module

# module -> the public names it contributes to the package root
_EXPORTS = {
    "bayes": ("Factor", "brute_force_marginal", "elimination_order", "eliminate", "node_factor"),
    "circuit": (
        "CircuitState",
        "Instantiation",
        "ReachEstimate",
        "fixed_point",
        "reachability_exact",
        "reachability_mc",
        "step",
    ),
    "classify": (
        "CycleReport",
        "CycleType",
        "classify_all",
        "classify_cycle",
        "closing_edge",
    ),
    "errors": (
        "CybagError",
        "CycleLimitError",
        "GraphCyclicError",
        "InfeasibleError",
        "IoError",
        "ParseError",
        "PlainCycleError",
        "SchemaError",
        "TargetRequiredError",
        "TooLargeError",
        "UnknownNodeError",
        "WidthLimitError",
    ),
    "formats": (
        "fixture_path",
        "load_fixture",
        "read_json",
        "read_plain_json",
        "write_dot",
        "write_json",
    ),
    "generator": ("BenchRow", "GenParams", "bench", "cyclic_or_fraction", "generate"),
    "graph": (
        "AttackGraph",
        "CyclePath",
        "Node",
        "NodeKind",
        "PlainBag",
        "ValidationReport",
        "convert_plain",
        "find_cycles",
        "is_loop_free",
        "topological_order",
        "validate",
    ),
    "propagate": (
        "conjunction",
        "disjunction",
        "solve_acyclic_closed_form",
        "solve_all",
        "solve_node",
    ),
    "scoring": (
        "Complexity",
        "ComplexityScore",
        "CveRecord",
        "apply_scores",
        "import_feed",
        "parse_cvss_vector",
        "probability_from_complexity",
    ),
}
# public name -> module that defines it; each module is public under its own name
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
