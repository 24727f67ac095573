import json
import shlex
import time
from pathlib import Path

import pytest

from goodgradings.cli import (MAX_ALGEBRA_DIM, MAX_PYRAMIDS, MAX_SERIES_ORDER,
                              _family_spec, canonical_json, main)
from goodgradings.partitions import Partition


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


GUARDED = ("classify", "verify", "pyramids", "render")


def assert_refused_fast(capsys, letter, parts, reason):
    for command in GUARDED:
        started = time.monotonic()
        code, out, err = run_cli(capsys, command, "--family", letter,
                                 "--partition", parts)
        assert time.monotonic() - started < 1, (command, parts)
        assert code == 2 and out == "", (command, parts)
        assert reason in err, (command, parts, err)


def test_oversized_input_is_refused_fast(capsys):
    # gl_55 with 3^9 pyramids and gl_1000 with 10^6 basis elements:
    # refused before anything is built
    assert_refused_fast(capsys, "A", "10,9,8,7,6,5,4,3,2,1", "dimension")
    assert_refused_fast(capsys, "A", "1000", "dimension")


def test_input_limits_at_their_boundary(capsys):
    # the smallest algebra of each family above the dimension limit, and
    # a gl orbit with one pyramid more than the limit, are refused; their
    # neighbors below pass the check, which builds nothing, and are not
    # run
    assert (MAX_ALGEBRA_DIM, MAX_PYRAMIDS) == (1300, 242)
    for letter, parts in (("A", "37"), ("C", "52"), ("D", "51,1")):
        assert_refused_fast(capsys, letter, parts, "dimension")
    assert_refused_fast(capsys, "A", "6,5,4,3,2,1", "243 pyramids")
    for letter, parts, dim in (("A", "36", 1296), ("C", "50", 1275),
                               ("B", "51", 1275), ("A", "28,5,3", 1296)):
        assert _family_spec(letter, Partition.of(
            map(int, parts.split(",")))).dim == dim


def test_richardson_dimension_limit_at_its_boundary(capsys):
    # the smallest gl, sp, odd so and even so above the dimension limit
    # are refused before the parabolic is built: so_N with q = 0 alone
    # lists about s^2/2 middle forms of length about N, s = N/2
    for letter, composition, q in (("A", "37", 0), ("C", "26", 0),
                                   ("B", "26", 1), ("D", "25,1", 0)):
        started = time.monotonic()
        code, out, err = run_cli(capsys, "richardson", "--family", letter,
                                 "--composition", composition, "--q", str(q))
        assert time.monotonic() - started < 1, letter
        assert code == 2 and out == "", letter
        assert "dimension" in err, letter
    # one size below, each is answered
    for letter, composition, q in (("A", "36", 0), ("C", "25", 0),
                                   ("B", "25", 1), ("D", "24,1", 0)):
        code, out, _ = run_cli(capsys, "richardson", "--family", letter,
                               "--composition", composition, "--q", str(q))
        assert code == 0 and "Richardson element" in out, letter


def test_series_order_limit_at_its_boundary(capsys):
    # one order above the cap is refused before any series is built; the
    # cap keeps the whole command, a walk over every partition up to the
    # order, near 1 s (see the comment on cli.MAX_SERIES_ORDER)
    assert MAX_SERIES_ORDER == 39
    started = time.monotonic()
    code, out, err = run_cli(capsys, "series", "--order", "40")
    assert time.monotonic() - started < 1.0
    assert code == 2 and out == "" and "between 1 and 39" in err


def test_series_at_the_order_cap(capsys):
    code, out, _ = run_cli(capsys, "series", "--order", str(MAX_SERIES_ORDER),
                           "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["order"] == MAX_SERIES_ORDER
    assert len(results["pyramid_counts_by_partition"]) == MAX_SERIES_ORDER + 1
    assert results["series_match"] is True
    assert results["product_form_identity"] is True


def test_verify_has_no_grid_options(capsys):
    # the sweep's bounds come from the orbit itself
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "A", "--partition", "2,1",
              "--step", "1/2"])
    assert exc.value.code == 2


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


def test_richardson_rejects_a_family_parity_mismatch(capsys):
    # B is so of odd size, D of even size: 2*2 + 0 = 4 and 2*1 + 1 = 3
    code, out, err = run_cli(capsys, "richardson", "--family", "B",
                             "--composition", "2", "--q", "0")
    assert code == 2 and out == "" and "odd" in err
    code, out, err = run_cli(capsys, "richardson", "--family", "D",
                             "--composition", "1", "--q", "1")
    assert code == 2 and out == "" and "even" in err


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


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] != ["goodgradings"]:
            continue
        optional = [a for a in argv if a.startswith("[")]
        plain = [a for a in argv[1:] if a not in optional]
        commands.append(plain)
        if optional:
            commands.append(plain + [a.strip("[]") for a in optional])
    return commands


def test_readme_command_line_examples_run(capsys):
    commands = _readme_commands()
    assert len(commands) == 10
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
