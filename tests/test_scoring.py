import json
import logging

import pytest

from cybag.errors import IoError, ParseError, SchemaError
from cybag.formats import fixture_path, load_fixture
from cybag.scoring import (
    Complexity,
    ComplexityScore,
    CveRecord,
    apply_scores,
    import_feed,
    parse_cvss_vector,
    probability_from_complexity,
)


def score(value, version):
    return ComplexityScore(value, version)


def test_probability_table():
    assert probability_from_complexity(score(Complexity.LOW, 3)) == 0.71
    assert probability_from_complexity(score(Complexity.LOW, 2)) == 0.71
    assert probability_from_complexity(score(Complexity.MEDIUM, 2)) == 0.61
    assert probability_from_complexity(score(Complexity.UNKNOWN, None)) == 0.61
    assert probability_from_complexity(score(Complexity.HIGH, 2)) == 0.35
    assert probability_from_complexity(score(Complexity.HIGH, 3)) == 0.35


def test_probability_range_is_exactly_the_table():
    values = {
        probability_from_complexity(score(v, 2 if v is Complexity.MEDIUM else 3 if v is not Complexity.UNKNOWN else None))
        for v in Complexity
    }
    assert values == {0.71, 0.61, 0.35}


def test_medium_only_in_version_2():
    with pytest.raises(ValueError):
        ComplexityScore(Complexity.MEDIUM, 3)
    with pytest.raises(ValueError):
        ComplexityScore(Complexity.MEDIUM, None)


def test_parse_v2_vector():
    assert parse_cvss_vector("AV:N/AC:L/Au:N/C:P/I:P/A:P") == score(Complexity.LOW, 2)
    assert parse_cvss_vector("AV:N/AC:M/Au:N/C:C/I:C/A:C") == score(Complexity.MEDIUM, 2)
    assert parse_cvss_vector("AV:L/AC:H/Au:S/C:N/I:N/A:C") == score(Complexity.HIGH, 2)


def test_parse_v3_vector():
    assert parse_cvss_vector(
        "CVSS:3.1/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H"
    ) == score(Complexity.HIGH, 3)
    assert parse_cvss_vector(
        "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
    ) == score(Complexity.LOW, 3)


def test_parse_fallbacks():
    unknown = score(Complexity.UNKNOWN, None)
    assert parse_cvss_vector("garbage") == unknown
    assert parse_cvss_vector("") == unknown
    assert parse_cvss_vector("AV:N/Au:N") == unknown
    # v3 has no Medium
    assert parse_cvss_vector("CVSS:3.1/AV:N/AC:M/PR:N") == unknown
    # a v3 prefix with no components, and AC tokens without a value
    assert parse_cvss_vector("CVSS:3.1") == unknown
    assert parse_cvss_vector("CVSS:3.1AC:L") == unknown
    assert parse_cvss_vector("AV:N/AC/Au:N") == unknown
    assert parse_cvss_vector("CVSS:3.0/AC/PR:N") == unknown


def test_parse_is_case_insensitive():
    assert parse_cvss_vector("cvss:3.0/ac:l") == score(Complexity.LOW, 3)
    assert parse_cvss_vector("av:n/ac:m/au:n") == score(Complexity.MEDIUM, 2)


def test_parse_takes_the_first_valid_ac_token():
    assert parse_cvss_vector("AV:N/AC:X/AC:H") == score(Complexity.HIGH, 2)
    assert parse_cvss_vector("CVSS:3.1/AC:M/AC:H") == score(Complexity.HIGH, 3)
    assert parse_cvss_vector("AV:N/AC:L/AC:H") == score(Complexity.LOW, 2)


def test_cve_record_pattern():
    rec = CveRecord("CVE-2009-1918", score(Complexity.MEDIUM, 2))
    assert rec.cve_id == "CVE-2009-1918"
    with pytest.raises(ValueError):
        CveRecord("CVE-BAD", score(Complexity.LOW, 2))


def test_import_feed(tmp_path):
    feed = tmp_path / "feed.json"
    feed.write_text(
        json.dumps(
            [
                {"cve_id": "CVE-2020-0001", "vector": "AV:N/AC:L/Au:N/C:P/I:P/A:P"},
                {"cve_id": "CVE-2020-0002", "vector": "CVSS:3.1/AV:N/AC:H/PR:N"},
            ]
        )
    )
    records = import_feed(feed)
    assert len(records) == 2
    assert records[0].complexity == score(Complexity.LOW, 2)
    assert probability_from_complexity(records[1].complexity) == 0.35


def test_import_feed_duplicate_keeps_last(tmp_path, caplog):
    feed = tmp_path / "feed.json"
    feed.write_text(
        json.dumps(
            [
                {"cve_id": "CVE-2020-0001", "vector": "AV:N/AC:L/Au:N"},
                {"cve_id": "CVE-2020-0001", "vector": "AV:N/AC:H/Au:N"},
            ]
        )
    )
    with caplog.at_level(logging.WARNING, logger="cybag.scoring"):
        records = import_feed(feed)
    assert len(records) == 1
    assert records[0].complexity == score(Complexity.HIGH, 2)
    assert any("duplicate" in m for m in caplog.messages)


def test_import_feed_errors(tmp_path):
    with pytest.raises(IoError):
        import_feed(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[{,]")
    with pytest.raises(ParseError) as exc:
        import_feed(bad)
    assert exc.value.line is not None
    notalist = tmp_path / "obj.json"
    notalist.write_text('{"cve_id": "CVE-2020-0001"}')
    with pytest.raises(SchemaError) as exc:
        import_feed(notalist)
    assert exc.value.path == "$"
    badid = tmp_path / "badid.json"
    badid.write_text(json.dumps([{"cve_id": "nope", "vector": ""}]))
    with pytest.raises(SchemaError) as exc:
        import_feed(badid)
    assert exc.value.path == "[0].cve_id"
    for vector in (None, ["AV:N/AC:L"], 5):
        badvec = tmp_path / "badvec.json"
        badvec.write_text(json.dumps([{"cve_id": "CVE-2020-0001", "vector": vector}]))
        with pytest.raises(SchemaError) as exc:
            import_feed(badvec)
        assert exc.value.path == "[0].vector"


def test_import_feed_bad_record_is_a_schema_error(tmp_path):
    feed = tmp_path / "feed.json"
    feed.write_text(json.dumps([{"cve_id": "CVE-2020-0001", "vector": ""}, ["x"]]))
    with pytest.raises(SchemaError) as exc:
        import_feed(feed)
    assert exc.value.path == "[1]"


def test_apply_scores_running_example():
    g = load_fixture("running-example.json")
    records = import_feed(fixture_path("nvd-feed.json"))
    scored = apply_scores(g, records)
    assert scored.local_prob(13) == 0.61  # IE, medium complexity
    assert scored.local_prob(18) == 0.35  # apache, high complexity
    assert scored.local_prob(17) == 0.71  # mysql, low complexity
    # structure untouched
    assert scored.edges == g.edges
    assert [n.id for n in scored.nodes] == [n.id for n in g.nodes]
    assert [n.kind for n in scored.nodes] == [n.kind for n in g.nodes]
    assert [n.label for n in scored.nodes] == [n.label for n in g.nodes]


def test_apply_scores_without_cve_leaves(fig5):
    records = import_feed(fixture_path("nvd-feed.json"))
    assert apply_scores(fig5, records) == fig5


def test_apply_scores_unmatched_record_warns(fig5, caplog):
    records = [CveRecord("CVE-1999-9999", score(Complexity.LOW, 2))]
    with caplog.at_level(logging.WARNING, logger="cybag.scoring"):
        scored = apply_scores(fig5, records)
    assert scored == fig5
    assert any("CVE-1999-9999" in m for m in caplog.messages)
