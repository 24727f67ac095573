"""The equivalence fixture: one sha256 per (command, family letter, size)
over the CLI's JSON reports, so that a change to the engine can show it
leaves every report byte-identical apart from the timing.

Range:

* classify, verify, pyramids and `render --index 0` on every nonzero
  orbit (partition other than 1,...,1) of A n <= 8, B N <= 11,
  C N <= 12 and D N <= 12, and classify and verify again on the same
  orbits in the default text format (keys "classify-text" and
  "verify-text");
* richardson on the 512 parabolic classes of A n <= 8 and B/C/D
  N <= 12, listed with `pyramids.compositions`;
* exceptional on every orbit label of G2, F4, E6, E7 and E8, with and
  without `--expand-symmetry`, plus one unknown label per algebra;
* `series --order k` for k = 1..24;
* under the key "refused", one request per input guard, each refused
  with exit code 2.

Each request's digest input is its argument line, its exit code and its
canonical JSON report with `timing_ms` removed, or its text report,
which prints no timing (or its error message), in request order.
Budget: 3 to 9 s in-process for all 2,092 requests on a 2-CPU Xeon
(CPython 3.11.7).  The acceptance criteria check
enumeration against the sweep on wider ranges, with their own time
budgets.

`tests/test_equivalence.py` recomputes the digests on every test run.
A change that means to change reports regenerates them with

    PYTHONPATH=src python tests/equivalence.py

and says which reports differ.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from goodgradings.cli import canonical_json, main
from goodgradings.exceptional import orbit_labels
from goodgradings.partitions import (orthogonal_partitions, partitions,
                                     symplectic_partitions)
from goodgradings.pyramids import compositions

DIGESTS = Path(__file__).with_name("equivalence_digests.json")

# one request per input guard of the CLI, each expected to exit 2
REFUSED = (
    "classify --family A --partition 37",  # dim 1369 > 1300
    "classify --family A --partition 20,13,3",  # 315 pyramids > 242
    "series --order 47",
    "render --family C --partition 2,2 --index 99",
    "classify --family C --partition 3",  # not symplectic
    "classify --family B --partition 4,1",  # not orthogonal
    "classify --family A --partition 1,1,1",  # the zero orbit
    "richardson --family A --composition 3",  # degree-2 piece is zero
    "exceptional --algebra E9 --orbit A1",
)

ORBIT_FAMILIES = (("A", range(2, 9), partitions),
                  ("B", range(3, 12, 2), orthogonal_partitions),
                  ("C", range(2, 13, 2), symplectic_partitions),
                  ("D", range(4, 13, 2), orthogonal_partitions))


def requests():
    """(digest key, argv) for every request of the fixture, in order."""
    for letter, sizes, walk in ORBIT_FAMILIES:
        for n in sizes:
            orbits = [",".join(map(str, p.parts)) for p in walk(n)
                      if p.parts[0] > 1]
            for command in ("classify", "verify", "pyramids", "render"):
                for parts in orbits:
                    argv = [command, "--family", letter, "--partition", parts]
                    if command == "render":
                        argv += ["--index", "0"]
                    yield f"{command} {letter} {n}", argv
            for command in ("classify", "verify"):
                for parts in orbits:
                    yield f"{command}-text {letter} {n}", [
                        command, "--family", letter, "--partition", parts]
    for n in range(2, 9):
        for c in compositions(n):
            if len(c) >= 2:
                yield f"richardson A {n}", _richardson("A", c, 0)
    for letter, sizes in (("C", range(2, 13, 2)), ("B", range(3, 12, 2)),
                          ("D", range(4, 13, 2))):
        for size in sizes:
            for q in range(size % 2, size, 2):
                if letter == "D" and q == 2:
                    continue
                for c in compositions((size - q) // 2):
                    yield f"richardson {letter} {size}", _richardson(letter, c, q)
    for algebra in ("G2", "F4", "E6", "E7", "E8"):
        for label in orbit_labels(algebra):
            argv = ["exceptional", "--algebra", algebra, "--orbit", label]
            yield f"exceptional {algebra}", argv
            yield f"exceptional {algebra}", argv + ["--expand-symmetry"]
        yield f"exceptional {algebra}", ["exceptional", "--algebra", algebra,
                                         "--orbit", "Z9"]
    for k in range(1, 25):
        yield f"series {k}", ["series", "--order", str(k)]
    for argv in REFUSED:
        yield "refused", argv.split()


def _richardson(letter, c, q):
    return ["richardson", "--family", letter,
            "--composition", ",".join(map(str, c)), "--q", str(q)]


def _report(argv, text=False) -> str:
    """The exit code and then the error message, or the report: the
    canonical JSON without its timing, or the default text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv if text else argv + ["--format", "json"])
    if code != 0:
        return f"exit {code}\n{err.getvalue()}"
    if text:
        return f"exit 0\n{out.getvalue()}"
    report = json.loads(out.getvalue())
    del report["timing_ms"]
    return f"exit 0\n{canonical_json(report)}"


def digests() -> dict[str, str]:
    """{"command letter size": sha256 hex} over the whole range."""
    hashes = {}
    for key, argv in requests():
        h = hashes.setdefault(key, hashlib.sha256())
        report = _report(argv, text=key.split()[0].endswith("-text"))
        h.update(f"{' '.join(argv)}\n{report}".encode())
    return {key: h.hexdigest() for key, h in hashes.items()}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
