"""Acceptance suite: one test per criterion, each printing a verdict line.

Every expected value here is exact; the time budgets are asserted too.
The zero orbit (all parts 1) is skipped throughout: the zero matrix is
never a good element, and the library rejects it by contract.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from dense_reference import grading_element
from goodgradings.algebras import (AlgebraSpec, Family, GradingElement,
                                   build_algebra, graded_decomposition)
from goodgradings.classify import good_gradings, sweep_oracle
from goodgradings.exceptional import exceptional_lookup, orbit_labels
from goodgradings.gradings import (ad_blocks, check_duality_form,
                                   check_torus_weights, graded_ad_ranks,
                                   grading_writer, is_good,
                                   nilpotent_of_pyramid)
from goodgradings.parabolic import (ParabolicSpec, generic_richardson_oracle,
                                    grading_is_good_generic,
                                    richardson_is_good)
from goodgradings.partitions import (Partition, orthogonal_partitions,
                                     partitions, symplectic_partitions)
from goodgradings.pyramids import (compositions, enumerate_pyramids,
                                   pyramid_to_unimodal, symmetric_pyramid,
                                   unimodal_compositions, unimodal_to_pyramid)
from goodgradings.series import (pyramid_count_formula, pyramid_count_series,
                                 pyramid_counts_by_partition,
                                 pyramid_series_identity_check,
                                 unimodal_count_series)

# the benchmark's reference answers, one per parabolic class for criterion 7
REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench"
             / "reference.json")


def report(number, budget, started, detail):
    elapsed = time.monotonic() - started
    print(f"PASS criterion {number}: {detail}  [{elapsed:.1f}s / {budget}s]")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def nonzero(ps):
    return (p for p in ps if not p.is_zero_orbit())


def test_criterion_01_pyramid_counts():
    started = time.monotonic()
    total_pyramids = 0
    for n in range(1, 11):
        for p in partitions(n):
            count = len(enumerate_pyramids(p))
            assert count == pyramid_count_formula(p)
            total_pyramids += count
    closed = pyramid_count_series(12)
    by_partition = pyramid_counts_by_partition(12)
    assert closed == by_partition
    report(1, 5, started,
           f"{total_pyramids} pyramids enumerated (n<=10) match the count "
           f"product; series coefficients match through q^12")


def test_criterion_02_series_identity():
    started = time.monotonic()
    assert pyramid_series_identity_check(40)
    report(2, 5, started, "pyramid series equals its product form through q^40")


def test_criterion_03_unimodal():
    started = time.monotonic()
    series = unimodal_count_series(12)
    for n in range(1, 13):
        assert len(unimodal_compositions(n)) == series[n]
    trips = 0
    for n in range(1, 11):
        for u in unimodal_compositions(n):
            assert pyramid_to_unimodal(unimodal_to_pyramid(u)) == u
            trips += 1
    report(3, 30, started,
           f"unimodal counts match the series (n<=12); {trips} bijection "
           f"round trips (n<=10)")


def sweep_matches(fam):
    swept = sweep_oracle(fam)
    assert fam.gradings() == set(swept), fam.partition
    assert len(swept) == len(fam), fam.partition


def test_criterion_04_type_a_soundness_completeness():
    started = time.monotonic()
    checked = 0
    orbits = 0
    for n in range(2, 10):
        spec = AlgebraSpec(Family.GL, n)
        g = build_algebra(spec)
        for p in nonzero(partitions(n)):
            if n <= 6:
                blocks = ad_blocks(g, nilpotent_of_pyramid(
                    g, symmetric_pyramid(p)))
                for pyr in enumerate_pyramids(p):
                    H = grading_writer(pyr)({})
                    assert is_good(H, blocks).verified, (p, pyr)
                    checked += 1
            sweep_matches(good_gradings(spec, p))
            orbits += 1
    for parts in ((6, 3, 2, 1), (5, 4, 3, 2, 1)):  # c = 3 and c = 4
        sweep_matches(good_gradings(AlgebraSpec(Family.GL, sum(parts)),
                                    Partition(parts)))
        orbits += 1
    report(4, 60, started,
           f"{checked} pyramid pairs verified good (n<=6); enumeration "
           f"equals the sweep oracle on {orbits} orbits (n<=9, plus "
           f"(6,3,2,1) and (5,4,3,2,1))")


def test_criterion_05_type_c():
    started = time.monotonic()
    families = 0
    for N in range(2, 15, 2):
        for p in nonzero(symplectic_partitions(N)):
            fam = good_gradings(AlgebraSpec(Family.SP, p.n), p)
            sweep_matches(fam)
            evens = sum(1 for ent in fam.entries if ent.is_even)
            all_even_mult2 = all(v % 2 == 0 and m == 2 for v, m in p.distinct())
            assert evens <= 2, p
            assert (evens == 2) == all_even_mult2, p
            families += 1
    sweep_matches(good_gradings(AlgebraSpec(Family.SP, 28),
                                Partition((8, 8, 4, 4, 2, 2))))  # c = 3
    report(5, 120, started,
           f"{families} symplectic orbits (N<=14): enumeration equals the "
           f"sweep; even-grading counts as stated; (8,8,4,4,2,2) swept")


def test_criterion_06_types_b_d():
    started = time.monotonic()
    families = 0
    half_seen = False
    orbits = [p for N in range(3, 15) for p in nonzero(orthogonal_partitions(N))]
    orbits += [Partition(parts) for parts in (        # c = 3, 4 and 5
        (5, 5, 3, 3, 1, 1), (7, 7, 5, 5, 3, 3, 1, 1),
        (9, 9, 7, 7, 5, 5, 3, 3, 1, 1))]
    for p in orbits:
        fam = good_gradings(AlgebraSpec(Family.SO, p.n), p)
        sweep_matches(fam)
        if any(any(x % 2 for x in ent.H.doubled) for ent in fam.entries):
            half_seen = True
        families += 1
    assert half_seen, "expected at least one half-integer family (e.g. (3,3,1,1))"
    report(6, 300, started,
           f"{families} orthogonal orbits (N<=14, plus three with c=3..5): "
           f"enumeration equals the sweep, half-integer family included")


def _parabolic_classes():
    """(reference key, class) for every parabolic class of A n <= 8 and
    B/C/D N <= 12, the range of the equivalence fixture and of the
    benchmark's reference answers."""
    for n in range(2, 9):
        for c in compositions(n):
            if len(c) >= 2:  # one block is the whole algebra: g_2 = 0
                yield f"A {n} {','.join(map(str, c))} 0", \
                    ParabolicSpec(AlgebraSpec(Family.GL, n), c)
    for family, sizes in ((Family.SP, range(2, 13, 2)),
                          (Family.SO, range(3, 13))):
        for N in sizes:
            letter = "C" if family is Family.SP else "BD"[N % 2 == 0]
            for q in range(N % 2, N, 2):
                if family is Family.SO and N % 2 == 0 and q == 2:
                    continue
                for c in compositions((N - q) // 2):
                    yield f"{letter} {N} {','.join(map(str, c))} {q}", \
                        ParabolicSpec(AlgebraSpec(family, N), c, q)


def test_criterion_07_richardson_agreement():
    started = time.monotonic()
    reference = json.loads(REFERENCE.read_text())["richardson"]
    checked = {}
    for key, par in _parabolic_classes():
        good = richardson_is_good(par)
        assert good == generic_richardson_oracle(par), par
        checked[key] = good
    assert checked == reference
    report(7, 300, started,
           f"closed-form criteria agree with the 16-sample oracle and the "
           f"benchmark's reference answers on all {len(checked)} parabolic "
           f"classes (A: n<=8, B/C/D: N<=12)")


def _single_node_even_gradings(spec):
    """The rank even gradings whose characteristic has one 0, rest 2s."""
    fam, N = spec.family, spec.size
    out = []
    if fam is Family.GL:
        r = N - 1
        for j in range(r):
            labels = [2] * r
            labels[j] = 0
            d = [0] * N
            for i in range(N - 2, -1, -1):
                d[i] = d[i + 1] + labels[i]
            out.append(grading_element(spec, d))  # gl: modulo scalars
        return out
    half = N // 2
    for j in range(half):
        labels = [2] * half
        labels[j] = 0
        d = [Fraction(0)] * half
        if fam is Family.SP:
            d[half - 1] = Fraction(labels[-1], 2)
            start = half - 1
        elif N % 2 == 1:
            d[half - 1] = Fraction(labels[-1])
            start = half - 1
        else:
            d[half - 1] = Fraction(labels[-1] - labels[-2], 2)
            d[half - 2] = Fraction(labels[-1] + labels[-2], 2)
            start = half - 2
        for i in range(start - 1, -1, -1):
            d[i] = d[i + 1] + labels[i]
        mid = (Fraction(0),) if N % 2 else ()
        out.append(grading_element(spec, tuple(d) + mid + tuple(-x for x in d)))
    return out


def test_criterion_08_fixture_orbits():
    started = time.monotonic()
    # regular: exactly one good grading, the Dynkin one, all labels 2
    for n in range(2, 7):
        fam = good_gradings(AlgebraSpec(Family.GL, n), Partition((n,)))
        assert len(fam) == 1 and fam.entries[0].is_dynkin
        assert fam.entries[0].characteristic.labels == (2,) * (n - 1)
    # minimal nilpotent of sl_n: exactly two non-Dynkin gradings, with the
    # degree-2 node at one end of the diagram
    for n in range(3, 7):
        p = Partition((2,) + (1,) * (n - 2))
        fam = good_gradings(AlgebraSpec(Family.GL, p.n), p)
        assert len(fam) == 3
        others = sorted(ent.characteristic.labels for ent in fam.entries
                        if not ent.is_dynkin)
        assert others == sorted([(2,) + (0,) * (n - 2), (0,) * (n - 2) + (2,)])
    # single-node even gradings (one simple root at 0, the rest at 2)
    expected = {("GL", 4): 3, ("SO", 5): 2, ("SO", 7): 3,
                ("SP", 6): 1, ("SO", 8): 1}
    for (fam_name, N), want in expected.items():
        spec = AlgebraSpec(Family(fam_name), N)
        g = build_algebra(spec)
        good = sum(1 for H in _single_node_even_gradings(spec)
                   if grading_is_good_generic(g, H))
        assert good == want, (fam_name, N, good, want)
    report(8, 60, started,
           "regular, minimal, and single-node-even fixtures all reproduce "
           "the stated counts and characteristics")


def _random_grading(rng, spec):
    n = spec.size
    half = n // 2
    if spec.family is Family.GL:
        return GradingElement(spec, tuple(2 * rng.randint(-3, 3)
                                          for _ in range(n)))
    pos = [2 * rng.randint(-3, 3) for _ in range(half)]
    mid = (0,) if n % 2 else ()
    return GradingElement(spec, tuple(pos) + mid + tuple(-x for x in pos))


def _injective_iff_surjective_sample(g, rng):
    H = _random_grading(rng, g.spec)
    degrees = graded_decomposition(g, H)
    sizes = Counter(degrees)
    if not sizes[2]:
        return None
    coords = [rng.randint(-2, 2) if d == 2 else 0 for d in degrees]
    e = g.from_coordinates(coords)
    if not e:
        return None
    ranks = graded_ad_ranks(ad_blocks(g, e), degrees)
    injective = all(ranks[d] == sizes[d] for d in sizes if d <= -1)
    surjective = all(ranks[d - 2] == sizes[d] for d in sizes if d >= 1)
    return injective == surjective


def test_criterion_09_property_suites():
    started = time.monotonic()
    rng = random.Random(20240817)
    # injectivity below iff surjectivity above, 100 random samples per family
    for spec in (AlgebraSpec(Family.GL, 5), AlgebraSpec(Family.SP, 6),
                 AlgebraSpec(Family.SO, 7)):
        g = build_algebra(spec)
        done = 0
        while done < 100:
            verdict = _injective_iff_surjective_sample(g, rng)
            if verdict is None:
                continue
            assert verdict, f"equivalence failed for {spec}"
            done += 1
    # label range on every emitted grading, and the duality form on every
    # emitted good pair with a nonzero degree -1 piece
    emitted = []
    for n in range(2, 6):
        spec = AlgebraSpec(Family.GL, n)
        for p in nonzero(partitions(n)):
            emitted.append((spec, p, good_gradings(spec, p)))
    for N in range(2, 9, 2):
        spec = AlgebraSpec(Family.SP, N)
        for p in nonzero(symplectic_partitions(N)):
            emitted.append((spec, p, good_gradings(spec, p)))
    for N in range(3, 9):
        spec = AlgebraSpec(Family.SO, N)
        for p in nonzero(orthogonal_partitions(N)):
            emitted.append((spec, p, good_gradings(spec, p)))
    gram_checked = 0
    for spec, p, fam in emitted:
        for ent in fam.entries:
            assert all(x in (0, 1, 2) for x in ent.characteristic.labels), \
                (spec, p, ent.characteristic)
            if -1 in graded_decomposition(fam.blocks.g, ent.H):
                assert check_duality_form(ent.H, fam.blocks), \
                    (spec, p, ent.source)
                gram_checked += 1
    # torus weights on all good pairs in gl_n, n <= 5
    torus_checked = 0
    for n in range(2, 6):
        for p in nonzero(partitions(n)):
            fam = good_gradings(AlgebraSpec(Family.GL, p.n), p)
            for ent in fam.entries:
                assert check_torus_weights(ent.H, fam.blocks), (p, ent.source)
                torus_checked += 1
    report(9, 300, started,
           f"300 equivalence samples, label ranges on all emitted gradings, "
           f"{gram_checked} nondegenerate pairing checks, "
           f"{torus_checked} torus-weight checks: zero violations")


def test_criterion_10_exceptional_data():
    started = time.monotonic()
    assert len(orbit_labels("E6")) == 10
    assert (len(orbit_labels("G2")), len(orbit_labels("F4"))) == (4, 15)
    for alg in ("G2", "F4"):
        for label in orbit_labels(alg):
            entry = exceptional_lookup(alg, label)
            assert entry.dynkin_only and entry.characteristics == ()
    a4 = exceptional_lookup("E6", "A4")
    assert a4.characteristics == ((2, 0, 0, 0, 2, 2),
                                  (2, 1, 0, 1, 0, 1),
                                  (2, 0, 0, 2, 2, 0))
    report(10, 5, started,
           "E6 stores the 10 listed orbits; the 4 G2 and 15 F4 orbits "
           "answer Dynkin-only; "
           "the E6 A4 row matches byte for byte")
