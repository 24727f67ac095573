import json
import time

from goodgradings.cli import canonical_json, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json(capsys):
    code, out, err = run_cli(capsys, "classify", "--family", "C",
                             "--partition", "2,2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["results"]["count"] == 3
    gradings = report["results"]["gradings"]
    assert sum(1 for g in gradings if g["is_dynkin"]) == 1
    assert all(g["verification"] == "verified" for g in gradings)
    # exact fractions as strings, never floats
    halves = [g for g in gradings
              if any("/" in x for x in g["diagonal"])]
    assert len(halves) == 1
    assert "3/2" in halves[0]["diagonal"]
    assert isinstance(report["timing_ms"], int)


def test_json_round_trip_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "B",
                           "--partition", "3,3,1", "--format", "json")
    assert code == 0
    assert canonical_json(json.loads(out)) == out


def test_classify_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "--family", "A",
                           "--partition", "2,1")
    assert code == 0
    assert "3 good grading(s)" in out


def test_invalid_input_exit_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--family", "C",
                           "--partition", "2,1")
    assert code == 2
    assert "symplectic" in err
    code, _, err = run_cli(capsys, "classify", "--family", "B",
                           "--partition", "3,1")
    assert code == 2
    code, _, err = run_cli(capsys, "classify", "--family", "Q",
                           "--partition", "2,1")
    assert code == 2
    code, _, err = run_cli(capsys, "classify", "--family", "A",
                           "--partition", "2,x")
    assert code == 2


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "C",
                           "--partition", "2,2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["match"] is True
    assert report["results"]["enumerated"] == 3


def test_verify_rejects_an_oversized_grid_fast(capsys):
    # (2*3/(1/10000) + 1)^2 = 60001^2 candidates: refused before the
    # enumeration or any grid is built
    started = time.monotonic()
    code, out, err = run_cli(capsys, "verify", "--family", "A",
                             "--partition", "3,2,1", "--step", "1/10000")
    assert time.monotonic() - started < 1
    assert code == 2 and out == ""
    assert "candidates" in err
    code, _, err = run_cli(capsys, "verify", "--family", "A",
                           "--partition", "3,2,1", "--step", "1/0")
    assert code == 2 and "rational" in err


def test_pyramids_subcommand(capsys):
    code, out, _ = run_cli(capsys, "pyramids", "--family", "D",
                           "--partition", "3,3,1,1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["count"] == 7


def test_series_subcommand(capsys):
    code, out, _ = run_cli(capsys, "series", "--order", "8",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["pyramid_counts"][:4] == [0, 1, 2, 5]
    assert report["results"]["product_form_identity"] is True
    assert report["results"]["series_match"] is True


def test_richardson_subcommand(capsys):
    code, out, _ = run_cli(capsys, "richardson", "--family", "A",
                           "--composition", "2,1,2")
    assert code == 0
    assert "not good (composition is not unimodal)" in out
    code, out, _ = run_cli(capsys, "richardson", "--family", "C",
                           "--composition", "1,2", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["good"] is True


def test_exceptional_subcommand(capsys):
    code, out, _ = run_cli(capsys, "exceptional", "--algebra", "G2",
                           "--orbit", "any")
    assert code == 0
    assert "Dynkin only" in out
    code, out, _ = run_cli(capsys, "exceptional", "--algebra", "E6",
                           "--orbit", "A4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["characteristics"] == [
        [2, 0, 0, 0, 2, 2], [2, 1, 0, 1, 0, 1], [2, 0, 0, 2, 2, 0]]
    code, _, err = run_cli(capsys, "exceptional", "--algebra", "E6",
                           "--orbit", "nope")
    assert code == 2


def test_render_subcommand(capsys):
    code, out, _ = run_cli(capsys, "render", "--family", "C",
                           "--partition", "2,2", "--index", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] != lines[1]  # half shift visible as an offset
    code, _, err = run_cli(capsys, "render", "--family", "C",
                           "--partition", "2,2", "--index", "9")
    assert code == 2

