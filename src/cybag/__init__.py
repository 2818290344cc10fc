"""Access-probability computation for Bayesian attack graphs, cycles included.

Three engines over one graph model: cycle-tolerant recursive propagation
(:mod:`cybag.propagate`), exact Bayesian-network inference for acyclic
graphs (:mod:`cybag.bayes`), and combinational-circuit reachability that
is exact on any graph small enough to enumerate (:mod:`cybag.circuit`).
Around them: cycle detection and classification, a synthetic graph
generator with controllable cyclicity, CVSS-based scoring, and JSON/CSV/
DOT serialization.
"""

from .bayes import Factor, brute_force_marginal, elimination_order, eliminate, node_factor
from .circuit import (
    CircuitState,
    Instantiation,
    ReachEstimate,
    fixed_point,
    reachability_exact,
    reachability_mc,
    step,
)
from .classify import (
    CycleReport,
    CycleType,
    FirstHit,
    classify_all,
    classify_cycle,
    closing_edge,
    first_hit,
)
from .errors import (
    BadOrderError,
    CybagError,
    CycleLimitError,
    GraphCyclicError,
    InfeasibleError,
    IoError,
    ParseError,
    PlainCycleError,
    SchemaError,
    TargetRequiredError,
    TooLargeError,
    UnknownNodeError,
    WidthLimitError,
)
from .formats import (
    fixture_path,
    load_fixture,
    read_json,
    read_mulval_csv,
    read_plain_json,
    write_dot,
    write_json,
)
from .generator import BenchRow, GenParams, bench, cyclic_or_fraction, generate
from .graph import (
    AttackGraph,
    CyclePath,
    Node,
    NodeKind,
    PlainBag,
    ValidationReport,
    convert_plain,
    find_cycles,
    is_loop_free,
    topological_order,
    validate,
)
from .propagate import (
    conjunction,
    disjunction,
    solve_acyclic_closed_form,
    solve_all,
    solve_node,
)
from .scoring import (
    Complexity,
    ComplexityScore,
    CveRecord,
    apply_scores,
    import_feed,
    parse_cvss_vector,
    probability_from_complexity,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
