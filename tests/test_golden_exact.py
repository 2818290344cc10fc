"""Bit-exact enumeration values.

``golden_exact.json`` maps each graph to the ``float.hex`` of
``reachability_exact(graph, v).probability`` for every node v, in id
order. The graphs are the bundled fixtures and the four graphs of the
exact-cyclic benchmark at ``--seed 0``: ``generate`` at n=36, cyclicity
100 and generator seeds 2, 3, 6 and 7, the first four of seeds 0, 1, ...
with exactly three simple cycles. The values were recorded with the numpy
cell-matrix engine, before the engine packed its columns into Python
ints, and any change to the enumeration must reproduce every bit. To
re-record after an intended change, run
``PYTHONPATH=src python tests/test_golden_exact.py``.
"""

import json
from pathlib import Path

import pytest

from cybag.circuit import reachability_exact
from cybag.formats import load_fixture
from cybag.generator import GenParams, generate
from cybag.graph import find_cycles

GOLDEN = Path(__file__).with_name("golden_exact.json")
FIXTURES = ("fig5", "diamond", "running-example", "type1", "type2", "type3", "wang-acyclic")
EXACT_CYCLIC_SEEDS = (2, 3, 6, 7)


def build(name: str):
    if name.startswith("exact-cyclic-"):
        return generate(GenParams(n=36, cyclicity=100, seed=int(name.rsplit("-", 1)[1])))
    return load_fixture(f"{name}.json")


NAMES = list(FIXTURES) + [f"exact-cyclic-{s}" for s in EXACT_CYCLIC_SEEDS]


def exact_hex(name: str) -> list[str]:
    graph = build(name)
    return [reachability_exact(graph, v).probability.hex() for v in graph.node_ids]


def test_exact_cyclic_graphs_are_the_benchmark_kind():
    for seed in range(max(EXACT_CYCLIC_SEEDS) + 1):
        cycles = find_cycles(generate(GenParams(n=36, cyclicity=100, seed=seed)))
        assert (len(cycles) == 3) == (seed in EXACT_CYCLIC_SEEDS), seed


@pytest.mark.parametrize("name", NAMES)
def test_exact_values_match_golden(name):
    assert exact_hex(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    recorded = {name: exact_hex(name) for name in NAMES}
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {sum(map(len, recorded.values()))} values to {GOLDEN}")
