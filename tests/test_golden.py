"""Golden `classify` and `series` JSON reports on a fixed fixture set.

Each `classify_*.json` file under tests/golden/ is the canonical report
of one orbit with the `timing_ms` key removed.  The set covers A/B/C/D,
the symplectic and orthogonal half-shift families (C 2,2; C 4,4,2,2;
D 3,3,1,1; D 5,5,3,3) and gl orbits with several pyramids.
`series_30.json` is the report of `series --order 30`, the largest
order the command accepts, in the same form.  A change to the engine
must leave every report byte-identical apart from the timing.
"""

import json
from pathlib import Path

import pytest

from goodgradings.cli import canonical_json, main

GOLDEN = Path(__file__).with_name("golden")
FILES = sorted(GOLDEN.glob("classify_*.json"))


def test_fixture_set_is_present():
    assert len(FILES) == 14


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_classify_report_is_byte_identical(path, capsys):
    _, family, parts = path.stem.split("_")
    code = main(["classify", "--family", family,
                 "--partition", parts.replace("-", ","), "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert isinstance(report.pop("timing_ms"), int)
    assert canonical_json(report) == path.read_text()


def test_series_report_is_byte_identical(capsys):
    code = main(["series", "--order", "30", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert isinstance(report.pop("timing_ms"), int)
    assert canonical_json(report) == (GOLDEN / "series_30.json").read_text()
