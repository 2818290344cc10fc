"""Command-line interface.

Machine-readable results go to stdout (TSV by default, JSON via
``--format json``); diagnostics go to stderr. Exit codes: 0 success,
1 usage error, 2 data or validation error, 3 resource limit hit.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

# Engines are imported inside the command that runs them, so that only
# circuit --mc, ve and compare pay for loading numpy.
from . import formats
from .errors import CybagError, GraphCyclicError, TooLargeError
from .graph import DEFAULT_MAX_CYCLES, AttackGraph, convert_plain, find_cycles, validate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_LIMIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _precision(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 1074:  # a double's fractional part has at most 1074 digits
        raise argparse.ArgumentTypeError(f"must be >= 0 and <= 1074, got {value}")
    return value


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"


def _load_graph(path) -> AttackGraph:
    graph = formats.read_json(path)
    report = validate(graph)
    if not report.ok:
        details = "; ".join(f"{i.code} {i.subject}" for i in report.errors)
        raise CybagError(f"invalid graph {path}: {details}")
    return graph


def _write_rows(args, fields: tuple[str, ...], rows, key: str | None = None) -> None:
    """Write result rows to ``--out`` or stdout.

    TSV is one tab-joined line per row. JSON is one object per row,
    ``dict(zip(fields, row))``, listed under ``key``; without a key the
    one row's object is printed. A row may be shorter than ``fields``.
    """
    if getattr(args, "format", "tsv") == "json":
        objects = [dict(zip(fields, row)) for row in rows]
        text = json.dumps({key: objects} if key else objects[0], indent=2) + "\n"
    else:
        text = "".join("\t".join(map(str, row)) + "\n" for row in rows)
    out = getattr(args, "out", None)
    if out:
        formats.write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    from . import propagate

    graph = _load_graph(args.infile)
    if args.node is not None:
        values = {args.node: propagate.solve_node(graph, args.node)}
    else:
        values = propagate.solve_all(graph)
    rows = [(v, _fmt(p, args.precision)) for v, p in sorted(values.items())]
    _write_rows(args, ("node", "probability"), rows, "probabilities")
    return EXIT_OK


def _cmd_ve(args) -> int:
    from . import bayes

    graph = _load_graph(args.infile)
    value = bayes.eliminate(graph, args.node)
    _write_rows(args, ("node", "probability"), [(args.node, _fmt(value, args.precision))])
    return EXIT_OK


def _cmd_circuit(args) -> int:
    from . import circuit

    graph = _load_graph(args.infile)
    if args.mc:
        est = circuit.reachability_mc(graph, args.node, args.mc, args.seed)
    else:
        est = circuit.reachability_exact(graph, args.node)
    p = args.precision
    row = (args.node, _fmt(est.probability, p), est.method, est.samples, _fmt(est.std_error, p))
    _write_rows(args, ("node", "probability", "method", "samples", "std_error"), [row])
    return EXIT_OK


def _cmd_compare(args) -> int:
    from . import bayes, circuit, propagate

    graph = _load_graph(args.infile)
    p = args.precision
    algorithm = propagate.solve_node(graph, args.node)
    exact = circuit.reachability_exact(graph, args.node).probability
    try:
        ve = bayes.eliminate(graph, args.node)
    except GraphCyclicError:
        ve = None
        print("graph is cyclic; variable elimination unavailable", file=sys.stderr)
    rows = [
        ("algorithm", _fmt(algorithm, p)),
        ("ve", _fmt(ve, p) if ve is not None else "NA"),
        ("circuit", _fmt(exact, p)),
        ("delta_algorithm_ve", _fmt(algorithm - ve, p) if ve is not None else "NA"),
        ("delta_algorithm_circuit", _fmt(algorithm - exact, p)),
    ]
    if args.format == "json":
        sys.stdout.write(json.dumps(dict(rows), indent=2) + "\n")
    else:
        sys.stdout.write("".join(f"{k}\t{v}\n" for k, v in rows))
    return EXIT_OK


def _cmd_cycles(args) -> int:
    from . import classify

    graph = _load_graph(args.infile)
    if args.target is not None:  # an unknown target fails before the enumeration
        graph.dense.row(args.target)
    found = find_cycles(graph, args.max)
    rows = []
    for report in classify.classify_cycles(graph, found, args.target):
        kind = report.cycle_type
        row = (
            ",".join(str(v) for v in report.cycle.nodes),
            kind.name.lower() if kind is not None else "needs-target",
        )
        if report.witness is not None:
            _, node_j, k = report.witness
            row += (str(node_j), str(k))
        rows.append(row)
    _write_rows(args, ("cycle", "type", "witness_node", "witness_k"), rows, "cycles")
    return EXIT_OK


def _parse_ratio(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"ratio must look like 50:35:15, got {text!r}")
    try:
        ratio = tuple(float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"ratio must be numeric, got {text!r}") from None
    return ratio  # type: ignore[return-value]


def _gen_params(**kwargs):
    """Generator parameters, validated by :class:`generator.GenParams`."""
    from . import generator

    try:
        return generator.GenParams(**kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_generate(args) -> int:
    from . import generator

    params = _gen_params(
        n=args.n,
        cyclicity=args.cyclicity,
        ratio=_parse_ratio(args.ratio),
        seed=args.seed,
        max_parents=args.max_parents,
    )
    graph = generator.generate(params)
    formats.write_json(graph, args.out)
    print(f"wrote {len(graph.nodes)} nodes, {len(graph.edges)} edges", file=sys.stderr)
    return EXIT_OK


def _parse_list(text: str, flag: str, cast, noun: str) -> list:
    try:
        return [cast(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise _UsageError(f"{flag} must be a comma-separated {noun} list") from None


def _cmd_bench(args) -> int:
    from . import generator

    sizes = _parse_list(args.sizes, "--sizes", int, "integer")
    cyclicities = _parse_list(args.cyclicities, "--cyclicities", float, "number")
    if not sizes or not cyclicities:
        raise _UsageError("--sizes and --cyclicities must be non-empty")
    for n in sizes:
        for c in cyclicities:
            _gen_params(n=n, cyclicity=c, seed=args.seed)
    if args.reps < 1:
        raise _UsageError("--reps must be at least 1")
    rows = generator.bench(sizes, cyclicities, args.reps, args.seed)
    generator.write_bench_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_score(args) -> int:
    from . import scoring

    graph = _load_graph(args.infile)
    records = scoring.import_feed(args.feed)
    formats.write_json(scoring.apply_scores(graph, records), args.out)
    return EXIT_OK


def _cmd_convert(args) -> int:
    plain = formats.read_plain_json(args.plain)
    formats.write_json(convert_plain(plain), args.out)
    return EXIT_OK


def _cmd_dot(args) -> int:
    from . import propagate

    graph = _load_graph(args.infile)
    probs = propagate.solve_all(graph) if args.probs else None
    formats.write_dot(graph, args.out, probs)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The argument parser; built once, since parsing never changes it."""
    parser = _Parser(prog="cybag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, node_required=False, with_format=True):
        p.add_argument("--in", dest="infile", required=True, help="graph JSON file")
        p.add_argument(
            "--node", type=int, required=node_required, help="node id to query"
        )
        p.add_argument("--precision", type=_precision, default=6)
        if with_format:
            p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p = sub.add_parser("solve", help="recursive propagation over all or one node")
    common(p)
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("ve", help="variable-elimination marginal (acyclic only)")
    common(p, node_required=True, with_format=False)
    p.set_defaults(func=_cmd_ve)

    p = sub.add_parser("circuit", help="circuit reachability, exact or Monte Carlo")
    common(p, node_required=True)
    p.add_argument(
        "--mc", type=_non_negative, default=0, help="sample count; 0 means exact"
    )
    p.add_argument("--seed", type=_non_negative, default=0)
    p.set_defaults(func=_cmd_circuit)

    p = sub.add_parser("compare", help="all three engines side by side")
    common(p, node_required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("cycles", help="find and classify simple cycles")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--max", type=_non_negative, default=DEFAULT_MAX_CYCLES)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("generate", help="synthesize a random cyclic graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cyclicity", type=float, required=True)
    p.add_argument("--ratio", default="50:35:15")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-parents", type=int, default=4, dest="max_parents")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="timing benchmark over generated graphs")
    p.add_argument("--sizes", required=True)
    p.add_argument("--cyclicities", required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("score", help="apply CVSS feed probabilities to leaves")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--feed", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("convert", help="bipartite exploit/condition graph to typed graph")
    p.add_argument("--plain", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("dot", help="GraphViz export")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--probs", action="store_true", help="annotate access probabilities")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dot)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TooLargeError as exc:  # every resource limit
        print(f"limit exceeded [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except CybagError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    code = run(sys.argv[1:])
    # The process ends here: freezing what it holds spares the collections
    # at interpreter shutdown a pass over every live object, while atexit
    # handlers, stream flushing and refcount deallocation still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
