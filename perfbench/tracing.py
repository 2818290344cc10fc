"""Per-layer spans recorded around calls into cybag's public functions.

The tracer replaces module attributes with wrappers for the duration of
one replayed command, so that every call ``cybag.cli`` makes through
those names opens a child span of the ``cli.run`` span. Counters that
need extra work (visit counts, cycle coverage, the peak memory of
``reachability_exact``) are computed after the command returns, outside
every span. Spans stay in memory until the benchmark writes them out at
the end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

from workloads import REPO, cli_env, fractional_inputs

# span name -> per-layer time metric it feeds
SPAN_METRICS = {
    "formats.read_json": "formats.read_json_s",
    "formats.write_json": "formats.write_json_s",
    "graph.validate": "graph.validate_s",
    "graph.find_cycles": "graph.find_cycles_s",
    "propagate.solve_all": "propagate.solve_s",
    "circuit.reachability_exact": "circuit.exact_s",
    "classify.classify_cycle": "classify.cycle_s",
    "generator.generate": "generator.generate_s",
}
LAYERS = ("cli", "formats", "graph", "propagate", "circuit", "classify", "generator")
COUNTERS = (
    "formats.bytes_in",
    "formats.bytes_out",
    "graph.cycles",
    "propagate.visits",
    "circuit.instantiations",
    "classify.calls",
    "classify.instantiations",
    "generator.nodes_on_cycles",
)

# Runs one reachability_exact call in a fresh process and prints how far it
# raises that process's RSS high-water mark (VmHWM), in MB. VmHWM belongs
# to the process's own address space, so nothing the benchmark's process
# holds or did before counts.
PEAK_PROBE = """
import json, sys
from cybag import circuit, formats

def hwm_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

graph = formats.document_to_graph(json.load(sys.stdin))
before = hwm_kb()
circuit.reachability_exact(graph, int(sys.argv[1]))
print((hwm_kb() - before) / 1024)
"""
PEAK_TIMEOUT_S = 100.0


@dataclass
class Span:
    id: int
    parent: int | None
    command: int
    name: str
    start: float
    end: float = 0.0
    error: str | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.command = -1
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._patches: list[tuple] = []
        self._visits: dict[tuple, int] = {}
        self._peaks: dict[tuple, float] = {}

    def run(self, name: str, fn):
        """Call ``fn`` inside a span named ``name``, nested under the open span."""
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    self.command, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            return fn()
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            result = self.run(name, lambda: original(*args, **kwargs))
            if count is not None:
                self._pending.append((count, args, result))
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self) -> None:
        import cybag.cli as cli
        from cybag import circuit, classify, formats, generator, propagate

        def exact_counts(args, r):
            self._exact_peak_mb(*args)  # fills self._peaks, read by layer_metrics
            return {"circuit.instantiations": r.samples}

        self._wrap(cli, "validate", "graph.validate")
        self._wrap(cli, "find_cycles", "graph.find_cycles",
                   lambda args, r: {"graph.cycles": len(r)})
        self._wrap(propagate, "solve_all", "propagate.solve_all",
                   lambda args, r: {"propagate.visits": self._visit_count(args[0])})
        self._wrap(circuit, "reachability_exact", "circuit.reachability_exact", exact_counts)
        self._wrap(classify, "classify_cycle", "classify.classify_cycle",
                   lambda args, r: {"classify.calls": 1,
                                    "classify.instantiations": 1 << fractional_inputs(args[0])})
        self._wrap(generator, "generate", "generator.generate",
                   lambda args, r: {"generator.nodes_on_cycles":
                                    len(generator.nodes_on_cycles(r))})
        self._wrap(formats, "read_json", "formats.read_json",
                   lambda args, r: {"formats.bytes_in": os.path.getsize(args[0])})
        self._wrap(formats, "write_json", "formats.write_json",
                   lambda args, r: {"formats.bytes_out": os.path.getsize(args[1])})

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def flush_counts(self) -> None:
        """Compute the deferred counters; call only after ``uninstall``."""
        for count, args, result in self._pending:
            for key, value in count(args, result).items():
                self.counts[key] += value
        self._pending.clear()

    def _visit_count(self, graph) -> int:
        from cybag.propagate import solve_node_stats

        key = (graph.edges, tuple(n.local_prob for n in graph.nodes))
        if key not in self._visits:
            self._visits[key] = sum(solve_node_stats(graph, v)[1] for v in graph.node_ids)
        return self._visits[key]

    def _exact_peak_mb(self, graph, v: int) -> float:
        """RSS high-water mark one ``reachability_exact(graph, v)`` call adds, in MB.

        Measured once per graph, untimed, in a fresh process running
        ``PEAK_PROBE``.
        """
        from cybag import formats

        key = (graph.edges, tuple(n.local_prob for n in graph.nodes), v)
        if key not in self._peaks:
            proc = subprocess.run(
                [sys.executable, "-c", PEAK_PROBE, str(v)],
                input=json.dumps(formats.graph_to_document(graph)), capture_output=True,
                text=True, cwd=REPO, env=cli_env(), timeout=PEAK_TIMEOUT_S, check=True,
            )
            self._peaks[key] = float(proc.stdout)
        return self._peaks[key]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self, commands: int) -> dict[str, float]:
        """Per-layer totals divided by the number of traced commands."""
        totals: dict[str, float] = defaultdict(float)
        own = self.self_times()
        for s in self.spans:
            layer = s.name.split(".")[0]
            if s.name in SPAN_METRICS:
                totals[SPAN_METRICS[s.name]] += s.end - s.start
            totals[f"{layer}.self_s"] += own[s.id]
            if s.error is not None:
                totals[f"{layer}.errors"] += 1
        totals.update(self.counts)
        n = max(commands, 1)
        metrics = {name: totals[name] / n for name in SPAN_METRICS.values()}
        for key in COUNTERS:
            metrics[key] = totals[key] / n
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = totals[f"{layer}.self_s"] / n
            metrics[f"{layer}.errors"] = totals[f"{layer}.errors"]
        metrics["circuit.rss_mb"] = max(self._peaks.values(), default=0.0)
        return metrics

    def dump(self) -> list[dict]:
        return [s.__dict__ for s in self.spans]
