"""The bundled fixtures are exactly what ``tools/make_fixtures.py`` writes."""

import importlib.util
from pathlib import Path

from cybag.formats import fixture_path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"


def test_make_fixtures_reproduces_every_bundled_fixture(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixtures", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "FIXDIR", tmp_path)
    tool.main()
    bundled = Path(str(fixture_path("fig5.json"))).parent
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(written) == sorted(p.name for p in bundled.iterdir() if p.is_file())
    for name, data in written.items():
        assert data == (bundled / name).read_bytes(), name
