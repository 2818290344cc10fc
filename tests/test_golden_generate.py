"""Byte-exact generator output on a seeded grid.

``golden_generate.json`` maps ``n/cyclicity/seed`` to the sha256 of the
``write_json`` bytes of ``generate(GenParams(n, cyclicity, seed=seed))``.
The grid covers n in {30, 200, 1000} x cyclicity in {0, 40, 100} x seeds
0-2, plus the benchmark size n=4000 x cyclicity in {40, 100} x seeds 0-1,
n=4000 x cyclicity 100 at seeds 10007 and 10008 (the graphs of perfbench
``--seed 1``), and two large graphs, n=16000 and n=32000 x cyclicity 100 x
seed 0, where the bridge loop merges many cycles (the n=32000 digest was
recorded with the node-level bridge loop, before the condensation).
A change to the generator that alters any graph fails here. To re-record
after an intended change, run ``PYTHONPATH=src python tests/test_golden_generate.py``.
"""

import hashlib
import json
from pathlib import Path

from cybag.formats import write_json
from cybag.generator import GenParams, generate

GOLDEN = Path(__file__).with_name("golden_generate.json")
SIZES = (30, 200, 1000)
CYCLICITIES = (0, 40, 100)
SEEDS = (0, 1, 2)
GRID = [(n, c, s) for n in SIZES for c in CYCLICITIES for s in SEEDS] + [
    (4000, c, s) for c in (40, 100) for s in (0, 1)
] + [(4000, 100, 10007), (4000, 100, 10008), (16000, 100, 0), (32000, 100, 0)]


def digests(tmp: Path) -> dict[str, str]:
    out = {}
    path = tmp / "g.json"
    for n, c, seed in GRID:
        write_json(generate(GenParams(n=n, cyclicity=c, seed=seed)), path)
        out[f"{n}/{c}/{seed}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_generated_graphs_match_golden(tmp_path):
    assert digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = digests(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} digests to {GOLDEN}")
