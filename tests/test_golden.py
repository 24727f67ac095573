"""Golden CLI reports on a fixed fixture set.

Each `classify_*.json` file under tests/golden/ is the canonical report
of one orbit with the `timing_ms` key removed.  The set covers A/B/C/D,
the symplectic and orthogonal half-shift families (C 2,2; C 4,4,2,2;
D 3,3,1,1; D 5,5,3,3) and gl orbits with several pyramids.
`series_30.json` is the report of `series --order 30` in the same form;
the tests of `cli.MAX_SERIES_ORDER` check the orders above it.

The commands that print box coordinates have goldens too: each
`pyramids_*.json` is a `pyramids --format json` report, covering every
row role (full, half, joint, v0half, center) and both half-shift
families (C 4,4,2,2; D 5,5,3,3), and `render_C_2-2_2.txt` is the text
picture of the half-shifted pyramid `render --family C --partition 2,2
--index 2`.

The report frame of the other commands is pinned by one JSON golden
each, named after its arguments: `verify --family D --partition
3,3,1,1`, `richardson --family C --composition 1,2`, `exceptional
--algebra E6 --orbit A4 --expand-symmetry` and `render --family C
--partition 2,2 --index 2`.  A change to the engine must leave every
report byte-identical apart from the timing.  Every JSON golden is parsed with
floats refused, so no coordinate may be written as a float.
"""

import json
from pathlib import Path

import pytest

from goodgradings.cli import canonical_json, main

GOLDEN = Path(__file__).with_name("golden")
FILES = sorted(GOLDEN.glob("classify_*.json"))
PYRAMID_FILES = sorted(GOLDEN.glob("pyramids_*.json"))
# golden file -> the command it is the json report of
FRAMES = {
    "verify_D_3-3-1-1.json": ["verify", "--family", "D",
                              "--partition", "3,3,1,1"],
    "richardson_C_1-2.json": ["richardson", "--family", "C",
                              "--composition", "1,2"],
    "exceptional_E6_A4.json": ["exceptional", "--algebra", "E6",
                               "--orbit", "A4", "--expand-symmetry"],
    "render_C_2-2_2.json": ["render", "--family", "C", "--partition", "2,2",
                            "--index", "2"],
}


def _no_float(text):
    raise ValueError(f"float in a golden report: {text}")


def _report(argv, capsys):
    code = main(argv + ["--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out, parse_float=_no_float)
    assert isinstance(report.pop("timing_ms"), int)
    return canonical_json(report)


def _golden(path):
    text = path.read_text()
    json.loads(text, parse_float=_no_float)
    return text


def test_fixture_set_is_present():
    assert len(FILES) == 14
    assert len(PYRAMID_FILES) == 6
    assert all((GOLDEN / name).is_file() for name in FRAMES)
    assert len(list(GOLDEN.iterdir())) == 14 + 6 + len(FRAMES) + 2


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_classify_report_is_byte_identical(path, capsys):
    _, family, parts = path.stem.split("_")
    assert _report(["classify", "--family", family,
                    "--partition", parts.replace("-", ",")], capsys) \
        == _golden(path)


@pytest.mark.parametrize("path", PYRAMID_FILES, ids=lambda p: p.stem)
def test_pyramids_report_is_byte_identical(path, capsys):
    _, family, parts = path.stem.split("_")
    assert _report(["pyramids", "--family", family,
                    "--partition", parts.replace("-", ",")], capsys) \
        == _golden(path)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_report_frame_is_byte_identical(name, capsys):
    assert _report(FRAMES[name], capsys) == _golden(GOLDEN / name)


def test_render_picture_is_byte_identical(capsys):
    code = main(["render", "--family", "C", "--partition", "2,2",
                 "--index", "2"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "render_C_2-2_2.txt").read_text()


def test_series_report_is_byte_identical(capsys):
    assert _report(["series", "--order", "30"], capsys) \
        == _golden(GOLDEN / "series_30.json")
