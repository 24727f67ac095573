import argparse
import itertools
import json
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dense_reference import fraction_diagonal
from goodgradings import cli
from goodgradings.cli import (MAX_ALGEBRA_DIM, MAX_PYRAMIDS, MAX_SERIES_ORDER,
                              _diagonal, _family_spec, canonical_json,
                              fraction_str, main)
from goodgradings.algebras import AlgebraSpec, Family
from goodgradings.classify import center_torus, good_gradings
from goodgradings.partitions import (Partition, orthogonal_partitions,
                                     partitions, symplectic_partitions)
from goodgradings.pyramids import (orthogonal_center_parts,
                                   orthogonal_shift_vectors,
                                   symplectic_center_parts,
                                   symplectic_shift_vectors)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fraction_str_prints_what_fraction_prints():
    # reports keep the strings str(Fraction) printed before the library
    # held doubled ints
    for q in range(1, 101):
        for p in range(-300, 301):
            assert fraction_str(p, q) == str(Fraction(p, q)), (p, q)


def test_reported_diagonals_are_the_fraction_diagonals():
    # half the doubled entries for sp/so, the traceless representative
    # for gl, against the Fraction reference
    orbits = [(Family.GL, p) for n in range(2, 8) for p in partitions(n)] \
        + [(Family.SP, p) for p in symplectic_partitions(8)] \
        + [(Family.SO, p) for N in (7, 8) for p in orthogonal_partitions(N)]
    checked = 0
    for family, p in orbits:
        if p.is_zero_orbit():
            continue
        for ent in good_gradings(AlgebraSpec(family, p.n), p).entries:
            assert _diagonal(ent.H) \
                == [str(x) for x in fraction_diagonal(ent.H)], (family, p)
            checked += 1
    assert checked > 150


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


# every refusal the CLI or the library makes, with its full stderr line:
# the CLI's own checks and the library's ValueError both exit 2
REFUSALS = [
    ("classify --family Q --partition 2,1",
     "unknown family 'Q' (expected A/B/C/D or GL)"),
    ("classify --family B --partition 3,1",
     "family B needs an odd matrix size"),
    ("classify --family D --partition 3", "family D needs an even matrix size"),
    ("classify --family C --partition 2,1",
     "(2,1) is not a symplectic partition"),
    ("classify --family B --partition 2,1",
     "(2,1) is not an orthogonal partition"),
    ("classify --family A --partition 2,x",
     "expected comma-separated integers, got '2,x'"),
    ("classify --family A --partition 0,1", "parts must be positive"),
    ("classify --family A --partition 1,1,1",
     "the zero orbit has no good element"),
    ("classify --family B --partition 1,1,1",
     "the zero orbit has no good element"),
    ("classify --family A --partition 37",
     "algebra dimension 1369 exceeds 1300"),
    ("classify --family A --partition 6,5,4,3,2,1",
     "(6,5,4,3,2,1) has 243 pyramids, more than 242"),
    ("verify --family A --partition 1,1", "the zero orbit has no good element"),
    ("verify --family C --partition 3", "(3) is not a symplectic partition"),
    ("verify --family D --partition 51,1",
     "algebra dimension 1326 exceeds 1300"),
    ("pyramids --family D --partition 2,1",
     "(2,1) is not an orthogonal partition"),
    ("pyramids --family B --partition 53",
     "algebra dimension 1378 exceeds 1300"),
    ("render --family C --partition 2,2 --index 9",
     "pyramid index out of range (0..2)"),
    ("render --family C --partition 2,2 --index -1",
     "pyramid index out of range (0..2)"),
    ("render --family B --partition 4", "(4) is not an orthogonal partition"),
    ("series --order 0", "order must be between 1 and 46"),
    ("series --order 47", "order must be between 1 and 46"),
    ("series --order -3", "order must be between 1 and 46"),
    ("richardson --family A --composition a",
     "expected comma-separated integers, got 'a'"),
    ("richardson --family C --composition 1 --q -2",
     "N - q must be even and q >= 0"),
    ("richardson --family A --composition 1,1 --q -1",
     "type A parabolics have q = 0"),
    ("richardson --family A --composition 3", "the degree-2 piece is zero"),
    ("richardson --family B --composition 2 --q 0",
     "family B needs an odd matrix size"),
    ("richardson --family D --composition 1 --q 1",
     "family D needs an even matrix size"),
    ("richardson --family Q --composition 1,1",
     "unknown family 'Q' (expected A/B/C/D or GL)"),
    ("richardson --family A --composition 37",
     "algebra dimension 1369 exceeds 1300"),
    ("richardson --family C --composition 0,1",
     "composition parts must be positive"),
    ("richardson --family B --composition 1 --q 2",
     "family B needs an odd matrix size"),
    ("exceptional --algebra X --orbit A1", "unknown exceptional algebra 'X'"),
    ("exceptional --algebra F4 --orbit E8", "unknown orbit label 'E8' for F4"),
    ("exceptional --algebra E6 --orbit nope",
     "unknown orbit label 'nope' for E6"),
]


@pytest.mark.parametrize("argv, message", REFUSALS,
                         ids=[argv for argv, _ in REFUSALS])
def test_every_refusal_exits_2_with_its_message(capsys, argv, message):
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, *argv.split(), "--format", fmt)
        assert (code, out, err) == (2, "", f"error: {message}\n"), fmt


def test_a_sweep_value_error_is_an_internal_failure(capsys, monkeypatch):
    # the sweep runs on an orbit good_gradings accepted, so a ValueError
    # from it is a bug: exit 1, no report, never the exit 2 of a refusal
    def broken(fam):
        raise ValueError("a block spans two degrees")
    monkeypatch.setattr(cli, "sweep_oracle", broken)
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "verify", "--family", "C",
                                 "--partition", "2,2", "--format", fmt)
        assert (code, out) == (1, ""), fmt
        assert err == ("internal verification failure: "
                       "a block spans two degrees\n"), fmt


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
    for letter, composition, q in (("A", "35,1", 0), ("C", "25", 0),
                                   ("B", "25", 1), ("D", "24,1", 0)):
        code, out, _ = run_cli(capsys, "richardson", "--family", letter,
                               "--composition", composition, "--q", str(q))
        assert code == 0 and "Richardson element" in out, letter


def test_sp_so_pyramid_limit_counts_the_torus_pyramids():
    # the sp/so pyramid bound below counts shift vectors; on every
    # nonzero sp/so orbit with N <= 20 the torus lists one distinct
    # pyramid per shift vector
    orbits = [(Family.SP, p) for N in range(2, 21, 2)
              for p in symplectic_partitions(N)]
    orbits += [(Family.SO, p) for N in range(1, 21)
               for p in orthogonal_partitions(N)]
    orbits = [(family, p) for family, p in orbits if not p.is_zero_orbit()]
    assert len(orbits) == 1408
    for family, p in orbits:
        torus = center_torus(AlgebraSpec(family, p.n), p)
        assert len(set(torus.pyramids)) == len(torus.pyramids) \
            == len(torus.shift_vectors), p


SHIFTS = {Family.SP: (symplectic_center_parts, symplectic_shift_vectors, 0),
          Family.SO: (orthogonal_center_parts, orthogonal_shift_vectors, 1)}


def _reduced(family, p):
    """p with its parts outside the center replaced by the fewest copies
    of the smallest of them: one copy if it has the center parts' parity
    (a single such part is no center part), else a pair.  The shift
    vectors depend only on the center parts, the smallest part above 1,
    whether every part is a center part, and the parity of N, and the
    reduced partition keeps all four."""
    center_parts, _, parity = SHIFTS[family]
    center = center_parts(p)
    rest = [v for v in p.parts if v not in center]
    if not rest:
        return p
    f = min(rest)
    return Partition.of(center * 2 + ((f,) if f % 2 == parity else (f, f)))


def _reduced_partitions(family, largest):
    """Every reduced partition of size at most largest: each set of
    distinct center values, doubled, alone or with one filler value."""
    center_parts, _, parity = SHIFTS[family]

    def center_sets(low, budget):
        yield ()
        for v in range(low, budget + 1, 2):
            for rest in center_sets(v + 2, budget - v):
                yield (v,) + rest

    for center in center_sets(2 - parity, largest // 2):
        pairs = center * 2
        yield Partition.of(pairs)
        for f in range(1, largest - sum(pairs) + 1):
            filler = (f,) if f % 2 == parity else (f, f)
            if f not in center and sum(pairs + filler) <= largest:
                yield Partition.of(pairs + filler)


def test_sp_so_orbits_stay_under_the_pyramid_limit():
    # the CLI counts only gl pyramids before it builds anything: within
    # the dimension limit no sp/so orbit has more than MAX_PYRAMIDS.
    # The shift vectors of p are those of its reduction (checked on every
    # orbit with N <= 20), so the reduced partitions up to the largest
    # size under the limit carry every count, and the maxima are
    # 17 (sp_40, 8,8,6,6,4,4,2,2) and 67 (so_48, 23,23,1,1)
    started = time.monotonic()
    expected = {Family.SP: (17, (8, 8, 6, 6, 4, 4, 2, 2)),
                Family.SO: (67, (23, 23, 1, 1))}
    for family, (most, witness) in expected.items():
        _, shift_vectors, _ = SHIFTS[family]
        walk = symplectic_partitions if family is Family.SP \
            else orthogonal_partitions
        for N in range(1, 21):
            for p in walk(N):
                assert len(shift_vectors(p)) \
                    == len(shift_vectors(_reduced(family, p))), p
        sizes = itertools.count(2, 2) if family is Family.SP \
            else itertools.count(3)
        largest = max(itertools.takewhile(
            lambda N: AlgebraSpec(family, N).dim <= cli.MAX_ALGEBRA_DIM, sizes))
        counts = {p: len(shift_vectors(p))
                  for p in _reduced_partitions(family, largest)}
        assert max(counts.values()) == most <= cli.MAX_PYRAMIDS, family
        assert counts[Partition(witness)] == most
    assert time.monotonic() - started < 1.0


def test_series_order_limit_at_its_boundary(capsys):
    # one order above the cap is refused before any series is built; the
    # cap keeps the whole command, a walk over every partition up to the
    # order, near 1 s (see the comment on cli.MAX_SERIES_ORDER)
    assert MAX_SERIES_ORDER == 46
    started = time.monotonic()
    code, out, err = run_cli(capsys, "series", "--order", "47")
    assert time.monotonic() - started < 1.0
    assert code == 2 and out == "" and "between 1 and 46" in err


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


def test_verify_reports_a_mismatch(capsys, monkeypatch):
    # a sweep that misses gradings: the report is written, then the
    # mismatch goes to stderr and the exit code is 1
    monkeypatch.setattr(cli, "sweep_oracle", lambda fam: [
        ent.H for ent in fam.entries if ent.is_dynkin])
    code, out, err = run_cli(capsys, "verify", "--family", "C",
                             "--partition", "2,2", "--format", "json")
    assert code == 1
    assert json.loads(out)["results"] == {
        "enumerated": 3, "swept": 1, "match": False, "pyramids": 3}
    assert err == "verification mismatch between enumeration and sweep oracle\n"


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


def test_richardson_refuses_a_negative_q_before_sizing(capsys):
    # N = 2 * sum + q: a negative q must not reach the size checks, which
    # would report a size of 0 or 1 instead of the q
    for family, composition, q in (("C", "1", "-2"), ("B", "1", "-1"),
                                   ("C", "2", "-2"), ("D", "3,1", "-4")):
        code, out, err = run_cli(capsys, "richardson", "--family", family,
                                 "--composition", composition, "--q", q)
        assert code == 2 and out == "", (family, composition, q)
        assert err == "error: N - q must be even and q >= 0\n", \
            (family, composition, q)
    # type A has no middle jump, so it names q itself
    code, out, err = run_cli(capsys, "richardson", "--family", "A",
                             "--composition", "1,1", "--q", "-1")
    assert code == 2 and "type A parabolics have q = 0" in err


def test_richardson_refuses_a_single_type_a_block(capsys):
    # the parabolic is all of gl_n and its Richardson element is zero
    for n in range(1, 9):
        code, out, err = run_cli(capsys, "richardson", "--family", "A",
                                 "--composition", str(n))
        assert code == 2 and out == "", n
        assert "degree-2 piece is zero" in err, n


def test_exceptional_subcommand(capsys):
    code, out, _ = run_cli(capsys, "exceptional", "--algebra", "G2",
                           "--orbit", "g2(A1)")
    assert code == 0
    assert out == "G2 orbit G2(a1): Dynkin only\n"
    # an orbit label of another algebra is refused
    code, out, err = run_cli(capsys, "exceptional", "--algebra", "F4",
                             "--orbit", "E8")
    assert code == 2 and out == ""
    assert "unknown orbit label 'E8' for F4" in err
    code, out, _ = run_cli(capsys, "exceptional", "--algebra", "E6",
                           "--orbit", "A4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["characteristics"] == [
        [2, 0, 0, 0, 2, 2], [2, 1, 0, 1, 0, 1], [2, 0, 0, 2, 2, 0]]
    code, _, err = run_cli(capsys, "exceptional", "--algebra", "E6",
                           "--orbit", "nope")
    assert code == 2


# every option of every subcommand but --format
EVERY_OPTION = {
    "classify": ["--family", "C", "--partition", "2,2"],
    "verify": ["--family", "C", "--partition", "2,2"],
    "pyramids": ["--family", "C", "--partition", "2,2"],
    "render": ["--family", "C", "--partition", "2,2", "--index", "2"],
    "series": ["--order", "5"],
    "richardson": ["--family", "B", "--composition", "1,1", "--q", "1"],
    "exceptional": ["--algebra", "E6", "--orbit", "A4", "--expand-symmetry"],
}


def test_reports_echo_every_option_but_format(capsys):
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert set(EVERY_OPTION) == set(sub.choices)
    for command, argv in EVERY_OPTION.items():
        given = {a for a in argv if a.startswith("--")}
        accepted = {o for a in sub.choices[command]._actions
                    for o in a.option_strings} - {"-h", "--help", "--format"}
        assert given == accepted, command
        code, out, _ = run_cli(capsys, command, *argv, "--format", "json")
        assert code == 0, command
        echoed = json.loads(out)["input"]
        assert set(echoed) == {o[2:].replace("-", "_") for o in given}, command
    assert echoed["expand_symmetry"] is True


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
