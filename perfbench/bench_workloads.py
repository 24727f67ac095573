"""Workload pools, the seeded request generator, and the answer checker.

Every workload is a set of strata, each a list of requests of about the
same cost and the number of them one pass takes.  A stratum is walked
through a seeded permutation, reshuffled when used up, so every request
of a stratum comes up equally often and every run asks for the same mix
of costs; a fractional take is carried over from pass to pass.  Passes
are short (one to three seconds), so a run is many of them and ends
close to its time limit.  The run-to-run spread then measures the host,
not the draw.

Requests go through the public entry points: `goodgradings.cli.main`
with stdout captured, or a library call where the CLI has none (the
generic Richardson oracle and the series identity at high order).
Names are looked up on the module at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from goodgradings import cli, parabolic, series
from goodgradings.algebras import AlgebraSpec, Family
from goodgradings.pyramids import compositions

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# (draws per pass, requests).  The comments give the cost of one request
# in calibration units (see run.py).  Each workload's median and tail
# percentile (run.TAIL_PERCENTILE) fall inside a stratum of requests of
# close cost, away from the edge between two strata, so the statistics
# stay on the same requests whatever the seed.
CLASSIFY = (
    (1, ["A 3,2,1", "A 3,3,2", "B 5,5,1", "B 6,6,1"]),            # ~6
    (4, ["A 12", "B 11,2,2,1,1", "B 15,2,2", "C 6,6,2,1,1",
         "C 5,5,2,2,1,1", "C 6,4,4,2", "D 5,5,3,1,1,1", "D 7,5,1,1",
         "D 13,5"]),                                              # 17-22
    (1, ["A 16", "A 5,4,1", "B 11,6,6", "C 11,11", "C 12,10",
         "D 6,6,4,4,2,2"]),                                       # 44-62
    (1, ["A 7,4,2,2", "A 6,4,4,1", "C 8,8,4,4,2,2",
         "D 9,9,7,7"]),                                           # 290-350
)

# Orbits of every family whose grid sweep has up to a few hundred
# candidates.
VERIFY = (
    (4, ["B 3,1,1", "D 5,3", "B 5,3,1", "B 3,3,1", "C 6,4", "B 5,1,1",
         "C 4,2,2", "A 4,2", "C 5,5,2", "A 3,3,1", "D 7,5"]),     # 4-14
    (3, ["C 6,2,2", "B 5,5,1", "D 5,3,1,1", "A 5,3", "A 3,2,1"]),  # 22-30
    (2, ["D 9,7", "B 11,5,1", "D 7,3,1,1", "A 6,3", "C 10,6,2", "C 10,8",
         "D 3,3,1,1"]),                                           # 36-57
    (3, ["C 6,6,2", "B 7,7,1", "B 9,3,3", "D 11,9"]),             # 60-72
)

# The partition walk's cost grows by about a third per order, so each
# order is a stratum of its own: a seeded order would move the median
# from one order to the next.  The seed draws the identity checks, which
# run only the power series and cost about the same at orders 88 to 90.
SERIES = (
    (1, ["series 20"]),                                           # ~28
    (1, ["series 22"]),                                           # ~52
    (2, ["identity 88", "identity 89", "identity 90"]),           # ~67
    (1, ["series 24"]),                                           # ~86
    (1, ["series 26"]),                                           # ~144
)


def _family_letter(family: Family, size: int) -> str:
    if family is Family.GL:
        return "A"
    if family is Family.SP:
        return "C"
    return "B" if size % 2 else "D"


def parabolic_classes():
    """All parabolic classes with A: n <= 8 and B/C/D: N <= 12, as keys
    'F N a,b,c q'.  In A one flag block is the whole algebra, which has
    no degree-2 piece for the oracle to sample."""
    for n in range(2, 9):
        for c in compositions(n):
            if len(c) >= 2:
                yield f"A {n} {','.join(map(str, c))} 0"
    for family, sizes in ((Family.SP, range(2, 13, 2)),
                          (Family.SO, range(3, 13))):
        for N in sizes:
            for q in range(N % 2, N, 2):
                if family is Family.SO and N % 2 == 0 and q == 2:
                    continue
                m = (N - q) // 2
                if m == 0:
                    continue
                for c in compositions(m):
                    yield (f"{_family_letter(family, N)} {N} "
                           f"{','.join(map(str, c))} {q}")


def richardson_strata(reference: dict) -> tuple:
    """One stratum per (family, size, verdict): a bad class runs all 16
    oracle samples and a good one usually stops at the first, so the
    verdict sets the cost.  A pass takes 1/32 of each stratum, so 32
    passes ask for every class once."""
    groups: dict[tuple, list[str]] = {}
    for key in parabolic_classes():
        fam, size, _, _ = key.split()
        groups.setdefault((fam, int(size), reference["richardson"][key]),
                          []).append(key)
    return tuple((Fraction(len(keys), 32), keys)
                 for _, keys in sorted(groups.items()))


def strata(workload: str, reference: dict) -> tuple:
    """The workload as (draws per pass, requests) groups."""
    if workload in ("classify", "verify"):
        pool = CLASSIFY if workload == "classify" else VERIFY
        return tuple((k, [f"{workload} {x}" for x in xs]) for k, xs in pool)
    if workload == "richardson":
        return tuple((k, [f"richardson {x}" for x in xs])
                     for k, xs in richardson_strata(reference))
    if workload == "series":
        return SERIES
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("classify", "verify", "richardson", "series")


class Passes:
    """The seeded request stream of one workload: pass i is the same
    list of requests for the same seed, whatever was run before it."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.strata = strata(workload, reference)
        self.rng = random.Random(f"{workload}/{seed}")
        self.queues: list[list[str]] = [[] for _ in self.strata]
        self.credit = [Fraction(0)] * len(self.strata)
        self.cache: list[list[str]] = []

    def _draw(self, stratum: int, take: int) -> list[str]:
        queue = self.queues[stratum]
        out = []
        while len(out) < take:
            if not queue:
                queue.extend(self.rng.sample(self.strata[stratum][1],
                                             len(self.strata[stratum][1])))
            out.append(queue.pop())
        return out

    def __getitem__(self, i: int) -> list[str]:
        while len(self.cache) <= i:
            batch = []
            for stratum, (take, _) in enumerate(self.strata):
                self.credit[stratum] += take
                whole = int(self.credit[stratum])
                self.credit[stratum] -= whole
                batch.extend(self._draw(stratum, whole))
            self.rng.shuffle(batch)
            self.cache.append(batch)
        return self.cache[i]


# -- execution ---------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _parabolic(key: str) -> parabolic.ParabolicSpec:
    fam, size, comp, q = key.split()
    family = {"A": Family.GL, "C": Family.SP}.get(fam, Family.SO)
    blocks = tuple(int(x) for x in comp.split(","))
    return parabolic.ParabolicSpec(AlgebraSpec(family, int(size)), blocks,
                                   int(q))


def execute(request: str):
    """Run one request and return its raw answer (the timed part)."""
    kind, _, rest = request.partition(" ")
    if kind in ("classify", "verify"):
        fam, part = rest.split()
        return _cli([kind, "--family", fam, "--partition", part,
                     "--format", "json"])
    if kind == "richardson":
        fam, _, comp, q = rest.split()
        closed = _cli(["richardson", "--family", fam, "--composition", comp,
                       "--q", q, "--format", "json"])
        return closed, parabolic.generic_richardson_oracle(_parabolic(rest))
    if kind == "series":
        return _cli(["series", "--order", rest, "--format", "json"])
    if kind == "identity":
        return series.pyramid_series_identity_check(int(rest))
    raise ValueError(f"unknown request kind {kind!r}")


# -- checking ----------------------------------------------------------------


class WrongAnswer(Exception):
    pass


def _results(code_and_text) -> dict:
    code, text = code_and_text
    if code != 0:
        raise WrongAnswer(f"exit code {code}")
    return json.loads(text)["results"]


def _expect(what: str, got, want) -> None:
    if got != want:
        raise WrongAnswer(f"{what}: got {got!r}, expected {want!r}")


def check(request: str, answer, reference: dict) -> None:
    """Raise WrongAnswer unless the answer matches the stored reference."""
    kind, _, rest = request.partition(" ")
    if kind == "classify":
        ref = reference["classify"][rest]
        res = _results(answer)
        _expect("count", res["count"], ref["count"])
        _expect("gradings listed", len(res["gradings"]), ref["count"])
        dynkin = [g for g in res["gradings"] if g["is_dynkin"]]
        _expect("Dynkin entries", len(dynkin), 1)
        _expect("Dynkin characteristic", dynkin[0]["characteristic"]["labels"],
                ref["dynkin_labels"])
    elif kind == "verify":
        ref = reference["verify"][rest]
        res = _results(answer)
        _expect("match", res["match"], True)
        _expect("swept", res["swept"], ref["swept"])
        _expect("enumerated", res["enumerated"], ref["swept"])
    elif kind == "richardson":
        want = reference["richardson"][rest]
        closed, oracle = answer
        _expect("closed form", _results(closed)["good"], want)
        _expect("generic oracle", oracle, want)
    elif kind == "series":
        k = int(rest)
        res = _results(answer)
        _expect("pyramid counts", res["pyramid_counts"],
                reference["series"]["pyramid_counts"][:k + 1])
        _expect("unimodal counts", res["unimodal_counts"],
                reference["series"]["unimodal_counts"][:k + 1])
        _expect("series_match", res["series_match"], True)
        _expect("product_form_identity", res["product_form_identity"], True)
    elif kind == "identity":
        _expect("product form identity", answer, True)
    else:
        raise WrongAnswer(f"unknown request kind {kind!r}")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
