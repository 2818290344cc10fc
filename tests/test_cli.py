import argparse
import json
import time
from pathlib import Path

import pytest

from cybag.cli import build_parser, run
from cybag.formats import fixture_path, load_fixture, read_json, write_json
from cybag.graph import NodeKind

FIG5 = str(fixture_path("fig5.json"))
DIAMOND = str(fixture_path("diamond.json"))
RUNNING = str(fixture_path("running-example.json"))
TYPE1 = str(fixture_path("type1.json"))
TYPE2 = str(fixture_path("type2.json"))


def test_solve_single_node(capsys):
    assert run(["solve", "--in", FIG5, "--node", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "2\t0.336000\n"


def test_solve_all_nodes(capsys):
    assert run(["solve", "--in", FIG5]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["0\t0.700000", "1\t0.800000", "2\t0.336000"]


def test_solve_json_format(capsys):
    assert run(["solve", "--in", FIG5, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["probabilities"][2] == {"node": 2, "probability": "0.336000"}


def test_solve_precision(capsys):
    assert run(["solve", "--in", FIG5, "--node", "2", "--precision", "3"]) == 0
    assert capsys.readouterr().out == "2\t0.336\n"


def test_solve_out_file(tmp_path, capsys):
    out = tmp_path / "probs.tsv"
    assert run(["solve", "--in", FIG5, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().splitlines()[2] == "2\t0.336000"


def test_ve_command(capsys):
    assert run(["ve", "--in", DIAMOND, "--node", "3"]) == 0
    assert capsys.readouterr().out == "3\t0.500000\n"


def test_ve_rejects_cyclic(tmp_path, capsys):
    assert run(["ve", "--in", TYPE2, "--node", "3"]) == 2
    err = capsys.readouterr().err
    assert "GRAPH_CYCLIC" in err


def test_circuit_exact(capsys):
    assert run(["circuit", "--in", DIAMOND, "--node", "3"]) == 0
    fields = capsys.readouterr().out.strip().split("\t")
    assert fields[0] == "3"
    assert fields[1] == "0.500000"
    assert fields[2] == "exact"


def test_circuit_mc_deterministic(capsys):
    argv = ["circuit", "--in", DIAMOND, "--node", "3", "--mc", "4000", "--seed", "9"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert first.split("\t")[2] == "monte-carlo"


def test_compare_diamond(capsys):
    assert run(["compare", "--in", DIAMOND, "--node", "3"]) == 0
    lines = dict(l.split("\t") for l in capsys.readouterr().out.splitlines())
    assert lines["algorithm"] == "0.750000"
    assert lines["ve"] == "0.500000"
    assert lines["circuit"] == "0.500000"
    assert lines["delta_algorithm_ve"] == "0.250000"


def test_compare_cyclic_has_no_ve(capsys):
    assert run(["compare", "--in", RUNNING, "--node", "14"]) == 0
    captured = capsys.readouterr()
    lines = dict(l.split("\t") for l in captured.out.splitlines())
    assert lines["ve"] == "NA"
    assert "cyclic" in captured.err


def test_cycles_with_target(capsys):
    assert run(["cycles", "--in", RUNNING, "--target", "14"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    fields = line.split("\t")
    assert fields[0] == "6,21,14,12,11,9,8,7,6"
    assert fields[1] == "type3"


def test_cycles_without_target(capsys):
    assert run(["cycles", "--in", TYPE1]) == 0
    assert capsys.readouterr().out.splitlines()[0].split("\t")[1] == "type1"
    assert run(["cycles", "--in", TYPE2]) == 0
    assert capsys.readouterr().out.splitlines()[0].split("\t")[1] == "needs-target"


def test_cycles_unknown_target_without_cycles(capsys):
    assert run(["cycles", "--in", DIAMOND, "--target", "99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "UNKNOWN_NODE" in captured.err


def test_cycles_unknown_target_fails_before_the_cycle_enumeration(capsys):
    # --max 0 would stop the enumeration at the first cycle with exit 3
    assert run(["cycles", "--in", TYPE2, "--max", "0", "--target", "99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "UNKNOWN_NODE" in captured.err


def test_cycles_json(capsys):
    assert run(["cycles", "--in", RUNNING, "--target", "14", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cycles"][0]["type"] == "type3"


def test_generate_rejects_bad_cyclicity(tmp_path, capsys):
    code = run(
        ["generate", "--n", "10", "--cyclicity", "200", "--seed", "1",
         "--out", str(tmp_path / "g.json")]
    )
    assert code == 1
    assert "cyclicity" in capsys.readouterr().err


def test_generate_writes_valid_graph(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = run(
        ["generate", "--n", "60", "--cyclicity", "50", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    g = read_json(out)
    assert len(g.nodes) == 60
    assert capsys.readouterr().out == ""  # diagnostics stay on stderr


def test_generate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["generate", "--n", "50", "--cyclicity", "30", "--seed", "2", "--out"]
    assert run(argv + [str(a)]) == 0
    assert run(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run(
        ["bench", "--sizes", "40,60", "--cyclicities", "0,100", "--reps", "1",
         "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,cyclicity,replicate,wall_time_seconds,nodes_in_cycles"
    assert len(lines) == 5


def test_bench_rejects_garbage_sizes(tmp_path, capsys):
    code = run(
        ["bench", "--sizes", "abc", "--cyclicities", "0", "--reps", "1",
         "--seed", "1", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--n", "10", "--cyclicity", "10", "--max-parents", "0"],
        ["generate", "--n", "10", "--cyclicity", "101"],
        ["generate", "--n", "2", "--cyclicity", "0"],
        ["generate", "--n", "20", "--cyclicity", "0", "--ratio", "nan:50:50"],
        ["generate", "--n", "20", "--cyclicity", "0", "--ratio", "150:-25:-25"],
        ["bench", "--sizes", "2", "--cyclicities", "0", "--reps", "1"],
        ["bench", "--sizes", "40", "--cyclicities", "101", "--reps", "1"],
        ["generate", "--n", "20", "--cyclicity", "0", "--ratio", "50:50"],
        ["generate", "--n", "20", "--cyclicity", "0", "--ratio", "a:b:c"],
        ["bench", "--sizes", ",", "--cyclicities", "0", "--reps", "1"],
        ["bench", "--sizes", "40", "--cyclicities", "0", "--reps", "0"],
        # random.Random(-s) seeds like Random(s), so -7 would repeat 7
        ["generate", "--n", "20", "--cyclicity", "0", "--seed", "-7"],
        ["bench", "--sizes", "40", "--cyclicities", "0", "--reps", "1", "--seed", "-1"],
    ],
)
def test_generator_parameters_are_usage_errors(args, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


def test_bench_takes_the_fractional_cyclicities_generate_takes(tmp_path):
    from cybag.generator import nodes_on_cycles

    out, graph = tmp_path / "bench.csv", tmp_path / "g.json"
    argv = ["bench", "--sizes", "60", "--cyclicities", "12.5,100", "--reps", "1"]
    assert run(argv + ["--out", str(out)]) == 0
    assert run(["generate", "--n", "60", "--cyclicity", "12.5", "--out", str(graph)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["12.5", "100"]
    # bench's first graph has seed 0, as generate's default
    assert int(rows[0][4]) == len(nodes_on_cycles(read_json(graph)))


def test_cycles_max_must_be_non_negative(capsys):
    assert run(["cycles", "--in", TYPE2, "--max", "-1"]) == 1
    assert "must be >= 0" in capsys.readouterr().err
    assert run(["cycles", "--in", TYPE2, "--max", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_score_command(tmp_path):
    out = tmp_path / "scored.json"
    code = run(
        ["score", "--in", RUNNING, "--feed", str(fixture_path("nvd-feed.json")),
         "--out", str(out)]
    )
    assert code == 0
    g = read_json(out)
    assert g.local_prob(13) == 0.61
    assert g.local_prob(18) == 0.35


def test_convert_command(tmp_path):
    out = tmp_path / "converted.json"
    code = run(
        ["convert", "--plain", str(fixture_path("wang-plain.json")), "--out", str(out)]
    )
    assert code == 0
    converted = read_json(out)
    bundled = load_fixture("wang-acyclic.json")
    assert converted.edges == bundled.edges
    assert converted.kind(18) is NodeKind.AND


def test_dot_command(tmp_path):
    out = tmp_path / "g.dot"
    assert run(["dot", "--in", FIG5, "--probs", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph")
    assert "P=0.3360" in text


@pytest.mark.parametrize("command", ["dot", "score"])
def test_lone_surrogate_label_is_a_data_error(command, tmp_path, capsys):
    # json.loads accepts "\ud800", a string UTF-8 cannot encode
    graph = tmp_path / "g.json"
    graph.write_text('{"version": "1", "nodes": [{"id": 0, "kind": "leaf", '
                     '"label": "\\ud800", "p": "0.5"}], "edges": []}')
    out = tmp_path / "out"
    extra = ["--feed", str(fixture_path("nvd-feed.json"))] if command == "score" else []
    assert run([command, "--in", str(graph), *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "nodes[0].label" in err and "Traceback" not in err
    assert not out.exists()


def test_usage_errors(capsys, tmp_path):
    assert run(["nosuchcommand"]) == 1
    capsys.readouterr()
    assert run(["solve"]) == 1  # missing --in
    capsys.readouterr()
    assert run(["ve", "--in", FIG5]) == 1  # missing --node


def test_data_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["solve", "--in", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": "1", "nodes": [], "edges": [[0, 1]]}))
    assert run(["solve", "--in", str(bad)]) == 2
    # structurally valid JSON but semantically broken graph
    leafy = tmp_path / "leafy.json"
    leafy.write_text(
        json.dumps(
            {
                "version": "1",
                "nodes": [
                    {"id": 0, "kind": "leaf", "label": "", "p": "1"},
                    {"id": 1, "kind": "leaf", "label": "", "p": "1"},
                ],
                "edges": [[0, 1]],
            }
        )
    )
    assert run(["solve", "--in", str(leafy)]) == 2
    assert "LEAF_HAS_PARENT" in capsys.readouterr().err


def test_limit_exit_code(tmp_path, capsys):
    # complete digraph over 6 nodes has hundreds of simple cycles
    ids = list(range(6))
    doc = {
        "version": "1",
        "nodes": [{"id": v, "kind": "or", "label": "", "p": "1"} for v in ids],
        "edges": [[a, b] for a in ids for b in ids if a != b],
    }
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(doc))
    assert run(["cycles", "--in", str(dense), "--max", "10"]) == 3
    assert "CYCLE_LIMIT" in capsys.readouterr().err


def test_long_cycles_trip_the_byte_budget_before_the_count_cap(tmp_path, capsys):
    from cybag.graph import CYCLE_BUDGET_BYTES, DEFAULT_MAX_CYCLES

    # a ring of 1,000 Or nodes fed by one leaf, and 14 Or nodes that each
    # bypass one ring arc: 2^14 simple cycles of about 1,000 nodes, so the
    # 64 MiB at 8 bytes a node fill up before the 10,000th cycle
    ring = 1000
    ors = range(1, ring + 15)
    edges = [[0, 1]] + [[v, v + 1] for v in range(1, ring)] + [[ring, 1]]
    for k in range(14):
        arc = 1 + k * (ring // 14)
        edges += [[arc, ring + 1 + k], [ring + 1 + k, arc + 1]]
    doc = {
        "version": "1",
        "nodes": [{"id": 0, "kind": "leaf", "label": "", "p": "0.5"}]
        + [{"id": v, "kind": "or", "label": "", "p": "1"} for v in ors],
        "edges": edges,
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    assert run(["cycles", "--in", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"{CYCLE_BUDGET_BYTES}-byte cycle budget" in err and "CYCLE_LIMIT" in err
    held = int(err.split("beyond the first ")[1].split()[0])
    # each cycle holds between ring + 1 and ring + 15 node slots
    assert 8 * held * (ring + 1) <= CYCLE_BUDGET_BYTES < 8 * (held + 1) * (ring + 15)
    assert held < DEFAULT_MAX_CYCLES


@pytest.mark.parametrize(
    "argv",
    [
        ["circuit", "--in", DIAMOND, "--node", "3", "--mc", "-5"],
        ["circuit", "--in", DIAMOND, "--node", "3", "--mc", "10", "--seed", "-1"],
        ["solve", "--in", FIG5, "--precision", "-1"],
        ["compare", "--in", DIAMOND, "--node", "3", "--precision", "-2"],
        ["solve", "--in", FIG5, "--precision", "1075"],
    ],
)
def test_negative_counts_are_usage_errors(argv, capsys):
    assert run(argv) == 1
    assert "must be >= 0" in capsys.readouterr().err


def test_huge_sample_count_hits_the_limit_up_front(capsys):
    argv = ["circuit", "--in", DIAMOND, "--node", "3", "--mc", "100000000000000"]
    assert run(argv) == 3
    assert "TOO_LARGE" in capsys.readouterr().err


def test_cycles_enumerates_once_per_graph(engine_runs, tmp_path, capsys):
    chunks, runs = engine_runs
    doc = {
        "version": "1",
        "nodes": [{"id": v, "kind": "leaf", "label": "", "p": "0.5"} for v in range(3)]
        + [{"id": v, "kind": "or", "label": "", "p": "0.9"} for v in (3, 4, 5)],
        "edges": [[0, 3], [1, 4], [2, 5], [3, 4], [4, 3], [4, 5], [5, 4], [5, 3]],
    }
    path = tmp_path / "three-cycles.json"
    path.write_text(json.dumps(doc))
    assert run(["cycles", "--in", str(path), "--target", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert run(["cycles", "--in", str(path)]) == 0
    assert capsys.readouterr().out.count("needs-target") == 3
    # one chunk of all 2^6 instantiations for the Type 2/3 split; trajectory
    # runs: one column for Type 1 per command and the chunk, and one column
    # per witness
    assert chunks == [64]
    assert len(runs) == 1 + 1 + 3 + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "10000000000", "--cyclicity", "0", "--out", "{out}"],
        ["bench", "--sizes", "10000000000", "--cyclicities", "0", "--reps", "1", "--out", "{out}"],
        ["generate", "--n", "30", "--cyclicity", "0", "--max-parents", "100000000",
         "--out", "{out}"],
    ],
    ids=["generate", "bench", "max-parents"],
)
def test_huge_generated_graph_hits_the_limit_up_front(argv, tmp_path, capsys):
    out = str(tmp_path / "out")
    start = time.perf_counter()
    assert run([a.replace("{out}", out) for a in argv]) == 3
    assert time.perf_counter() - start < 1.0
    assert "TOO_LARGE" in capsys.readouterr().err


def test_ve_past_the_width_limit_exits_3(wide_products, tmp_path, capsys):
    path = tmp_path / "wide.json"
    write_json(wide_products, path)
    assert run(["ve", "--in", str(path), "--node", "69"]) == 3
    assert "WIDTH_LIMIT" in capsys.readouterr().err


def test_cycles_all_type1_past_the_enumeration_limit(tmp_path, capsys):
    # 21 fractional leaves feed the And node 21 on the cycle 21 <-> 22,
    # which never fires: Type 1 needs no enumeration, target or not
    doc = {
        "version": "1",
        "nodes": [{"id": v, "kind": "leaf", "label": "", "p": "0.5"} for v in range(21)]
        + [{"id": 21, "kind": "and", "label": "", "p": "1"}]
        + [{"id": 22, "kind": "or", "label": "", "p": "1"}],
        "edges": [[v, 21] for v in range(21)] + [[21, 22], [22, 21]],
    }
    path = tmp_path / "type1.json"
    path.write_text(json.dumps(doc))
    assert run(["cycles", "--in", str(path), "--target", "22"]) == 0
    assert capsys.readouterr().out == "21,22,21\ttype1\n"


def test_cycles_without_target_past_the_enumeration_limit(tmp_path, capsys):
    # 21 fractional leaves feed the Or cycle 21 <-> 22; the And cycle
    # 24 <-> 25 hangs off a leaf that is never on
    doc = {
        "version": "1",
        "nodes": [{"id": v, "kind": "leaf", "label": "", "p": "0.5"} for v in range(21)]
        + [{"id": v, "kind": "or", "label": "", "p": "1"} for v in (21, 22)]
        + [{"id": 23, "kind": "leaf", "label": "", "p": "0"}]
        + [{"id": 24, "kind": "and", "label": "", "p": "1"}]
        + [{"id": 25, "kind": "or", "label": "", "p": "1"}],
        "edges": [[v, 21] for v in range(21)]
        + [[21, 22], [22, 21], [23, 24], [24, 25], [25, 24]],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert run(["cycles", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "21,22,21\tneeds-target\n24,25,24\ttype1\n"
    assert run(["cycles", "--in", str(path), "--target", "22"]) == 3
    assert "TOO_LARGE" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--in", "{bin}"],
        ["convert", "--plain", "{bin}", "--out", "{out}"],
        ["score", "--in", RUNNING, "--feed", "{bin}", "--out", "{out}"],
    ],
)
def test_non_utf8_input_is_a_data_error(argv, tmp_path, capsys):
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe")
    out = tmp_path / "out.json"
    argv = [a.format(bin=binary, out=out) for a in argv]
    assert run(argv) == 2
    assert "error [" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--in", "{deep}"],
        ["convert", "--plain", "{deep}", "--out", "{out}"],
        ["score", "--in", RUNNING, "--feed", "{deep}", "--out", "{out}"],
        ["solve", "--in", "{big}"],
        ["convert", "--plain", "{big}", "--out", "{out}"],
        ["score", "--in", RUNNING, "--feed", "{big}", "--out", "{out}"],
    ],
)
def test_deeply_nested_json_is_a_data_error(argv, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    big = tmp_path / "big.json"
    big.write_text("[" + "9" * 5000 + "]")  # past Python's integer digit limit
    out = tmp_path / "out.json"
    argv = [a.format(deep=deep, big=big, out=out) for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error [" in err and "Traceback" not in err
    assert not out.exists()


def plain_doc(spare_id=3, require_src=0):
    return {
        "version": "1",
        "exploits": [{"id": 4, "p": "0.5"}],
        "conditions": [{"id": 0}, {"id": 2}, {"id": spare_id}],
        "require_edges": [[require_src, 4]],
        "imply_edges": [[4, 2]],
    }


@pytest.mark.parametrize("bad", [None, 0.7, True, -1])
@pytest.mark.parametrize("field", ["spare_id", "require_src"])
def test_convert_rejects_bad_plain_ids(field, bad, tmp_path, capsys):
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(plain_doc(**{field: bad})))
    out = tmp_path / "out.json"
    assert run(["convert", "--plain", str(plain), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error [SCHEMA_ERROR]" in err and "Traceback" not in err
    assert not out.exists()


def test_input_past_the_byte_ceiling_is_a_limit(monkeypatch, capsys):
    from cybag import formats

    monkeypatch.setattr(formats, "INPUT_LIMIT_BYTES", 64)
    assert run(["solve", "--in", FIG5]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "TOO_LARGE" in captured.err


def test_negative_zero_probability_prints_as_zero(tmp_path, capsys):
    doc = {
        "version": "1",
        "nodes": [
            {"id": 0, "kind": "leaf", "label": "", "p": "-0"},
            {"id": 1, "kind": "and", "label": "", "p": "1"},
        ],
        "edges": [[0, 1]],
    }
    path = tmp_path / "negzero.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "0\t0.000000\n1\t0.000000\n"


def test_readme_synopsis_lists_every_long_option():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    synopsis = {
        line.split()[1]: {word.strip("[]") for word in line.split()}
        for line in readme.splitlines()
        if line.startswith("cybag ")
    }
    (commands,) = (
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name, parser in commands.items():
        options = {
            o for a in parser._actions for o in a.option_strings if o.startswith("--")
        } - {"--help"}
        assert options <= synopsis[name], (name, sorted(options - synopsis[name]))
