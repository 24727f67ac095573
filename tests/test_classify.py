import dataclasses
import itertools
from fractions import Fraction

import pytest

from dense_reference import fraction_diagonal
from goodgradings.algebras import AlgebraSpec, Family, GradingElement, \
    build_algebra, graded_decomposition
from goodgradings.classify import (_centralizer_weights, _entry,
                                   _lattice_points, center_torus,
                                   good_gradings, sweep_oracle)
from goodgradings.gradings import (AdBlocks, VerificationError, ad_blocks,
                                   characteristic_of, grading_writer,
                                   is_good, nilpotent_of_pyramid)
from goodgradings.parabolic import ParabolicSpec, parabolic_grading
from goodgradings.partitions import (Partition, orthogonal_partitions,
                                     partitions, symplectic_partitions)
from goodgradings.pyramids import (orthogonal_pyramid, orthogonal_pyramids,
                                   symmetric_pyramid, symplectic_pyramid,
                                   symplectic_pyramids)
from goodgradings.series import pyramid_count_series


# -- the grid walk: the reference the polytope sweep is compared against --


def grid_axis(p):
    """Every half-integer in [-B, B], B = max(3, p_1), doubled: one axis
    of the grid, which holds every center coordinate of a good grading
    (checked below) but rests on that classification for its bound."""
    bound = max(3, p.parts[0])
    return list(range(-2 * bound, 2 * bound + 1))


def grid_sweep(fam):
    """The good gradings h(p) + z(t) for t on the grid, as `sweep_oracle`
    returns them: deduplicated by sign for sp/so, sorted by coordinates."""
    spec, p, blocks = fam.spec, fam.partition, fam.blocks
    write, cparts = grading_writer(fam.torus.base), fam.torus.parts
    found = {}
    for t in itertools.product(grid_axis(p), repeat=len(cparts)):
        H = write(dict(zip(cparts, t)))
        if not H.is_integral() or not is_good(H, blocks).verified:
            continue
        ct = t if spec.family is Family.GL else tuple(abs(x) for x in t)
        found.setdefault(ct, write(dict(zip(cparts, ct))))
    return [found[ct] for ct in sorted(found)]


def small_orbits(max_gl, max_size):
    """Every nonzero orbit of gl_n, n <= max_gl, and of sp_N and so_N,
    N <= max_size, as (spec, partition)."""
    orbits = [(Family.GL, p) for n in range(2, max_gl + 1)
              for p in partitions(n)]
    for N in range(2, max_size + 1):
        if N % 2 == 0:
            orbits += [(Family.SP, p) for p in symplectic_partitions(N)]
        if N >= 3:
            orbits += [(Family.SO, p) for p in orthogonal_partitions(N)]
    return [(AlgebraSpec(family, p.n), p) for family, p in orbits
            if not p.is_zero_orbit()]


def gradings_of(family, parts):
    p = Partition(parts)
    return good_gradings(AlgebraSpec(family, p.n), p)


def dynkin_entry(fam):
    [dynkin] = [ent for ent in fam.entries if ent.is_dynkin]
    return dynkin


def even_count(fam):
    return sum(1 for ent in fam.entries if ent.is_even)


def test_gl_counts():
    assert len(gradings_of(Family.GL, (2, 1))) == 3
    assert len(gradings_of(Family.GL, (4,))) == 1
    assert len(gradings_of(Family.GL, (2, 2))) == 1
    assert len(gradings_of(Family.GL, (3, 1))) == 5


def test_sp_counts():
    assert len(gradings_of(Family.SP, (2, 2))) == 3
    assert len(gradings_of(Family.SP, (2, 1, 1))) == 1
    assert len(gradings_of(Family.SP, (4, 2))) == 1
    assert len(gradings_of(Family.SP, (4, 4, 2, 2))) == 5


def test_so_counts():
    assert len(gradings_of(Family.SO, (3, 1, 1))) == 3
    assert len(gradings_of(Family.SO, (3, 3, 1))) == 2
    assert len(gradings_of(Family.SO, (3, 3, 1, 1))) == 7
    assert len(gradings_of(Family.SO, (5, 3))) == 1


def test_counts_match_pyramid_counts():
    for parts in [(2, 2), (4, 2), (2, 2, 1, 1), (3, 3, 2, 2)]:
        assert len(gradings_of(Family.SP, parts)) \
            == len(symplectic_pyramids(Partition(parts)))
    for parts in [(3, 1), (3, 3, 1), (5, 1, 1), (3, 3, 1, 1), (2, 2, 1, 1)]:
        assert len(gradings_of(Family.SO, parts)) \
            == len(orthogonal_pyramids(Partition(parts)))


def test_exactly_one_dynkin():
    for fam in (gradings_of(Family.GL, (3, 1)), gradings_of(Family.SP, (2, 2)),
                gradings_of(Family.SO, (3, 3, 1, 1))):
        assert sum(1 for ent in fam.entries if ent.is_dynkin) == 1
        source = dynkin_entry(fam).source[1]
        assert source == (0,) * len(source)


def test_zero_orbit_rejected():
    with pytest.raises(ValueError):
        gradings_of(Family.GL, (1, 1, 1))
    with pytest.raises(ValueError):
        gradings_of(Family.SO, (1, 1, 1))


def test_family_mismatch_rejected():
    with pytest.raises(ValueError):
        gradings_of(Family.SP, (3, 1))
    with pytest.raises(ValueError):
        gradings_of(Family.SO, (2, 1, 1))
    with pytest.raises(ValueError):
        good_gradings(AlgebraSpec(Family.SP, 6), Partition((2, 2)))


def _nonzero_gl_families(max_n=9):
    for n in range(2, max_n + 1):
        for p in partitions(n):
            if not p.is_zero_orbit():
                yield p, good_gradings(AlgebraSpec(Family.GL, n), p)


def test_even_good_grading_gl():
    # every nonzero gl orbit has an even good grading among its entries
    # (every entry is checked good on the spot), with only even degrees
    orbits = 0
    for p, fam in _nonzero_gl_families():
        even = [ent for ent in fam.entries if ent.is_even]
        assert even, p
        for ent in even:
            assert all(d % 2 == 0
                       for d in graded_decomposition(fam.blocks.g, ent.H))
        orbits += 1
    assert orbits == 87


def test_even_good_grading_gl_even_nilpotent_is_dynkin():
    # the Dynkin grading is even exactly when all parts share one parity
    for p, fam in _nonzero_gl_families():
        one_parity = len({q % 2 for q in p.parts}) == 1
        assert dynkin_entry(fam).is_even == one_parity, p


def test_even_counts_sp():
    assert even_count(gradings_of(Family.SP, (2, 2))) == 2
    assert even_count(gradings_of(Family.SP, (3, 3))) == 1
    assert even_count(gradings_of(Family.SP, (2, 1, 1))) == 0
    assert even_count(gradings_of(Family.SP, (2, 2, 1, 1))) == 1
    # the two even gradings are t = (0,..) and t = (1,..), doubled
    fam = gradings_of(Family.SP, (2, 2))
    evens = [ent for ent in fam.entries if ent.is_even]
    assert sorted(ent.source[1] for ent in evens) == [(0,), (2,)]


def test_even_counts_sp_match_closed_conditions():
    for N in (2, 4, 6, 8):
        for p in symplectic_partitions(N):
            if p.is_zero_orbit():
                continue
            evens = even_count(good_gradings(AlgebraSpec(Family.SP, p.n), p))
            all_even_mult2 = all(v % 2 == 0 and m == 2 for v, m in p.distinct())
            dynkin_even = len({q % 2 for q in p.parts}) == 1
            even_parts_mult2 = all(m == 2 for v, m in p.distinct() if v % 2 == 0)
            assert evens <= 2
            assert (evens == 2) == all_even_mult2
            assert (evens >= 1) == (dynkin_even or even_parts_mult2)


def test_gl_block_system_matches_pyramids():
    # each distinct part below the largest shifts its rows by the sum of
    # the block differences above it, each bounded by the part gap
    for parts in [(2, 1), (3, 1), (5, 1), (3, 2, 1), (4, 2, 2)]:
        p = Partition(parts)
        spec = AlgebraSpec(Family.GL, p.n)
        base = symmetric_pyramid(p)
        blocks = p.distinct()
        ranges = [range(-(blocks[i][0] - blocks[i + 1][0]),
                        blocks[i][0] - blocks[i + 1][0] + 1)
                  for i in range(len(blocks) - 1)]
        system = set()
        for a in itertools.product(*ranges):
            shifts = {blocks[i + 1][0]: 2 * sum(a[:i + 1])
                      for i in range(len(a))}
            H = grading_writer(base)(shifts)
            assert sum(fraction_diagonal(H)) == 0
            system.add(H)
        assert system == good_gradings(spec, p).gradings()


def test_entry_refuses_a_pyramid_of_another_algebra():
    # the column characteristic is read off the pyramid alone, so a
    # pyramid of another family or size carries another diagram or rank,
    # and the cross-check with the dominant-chamber one refuses it
    fam = gradings_of(Family.SP, (2, 2))
    ent = dynkin_entry(fam)
    p = Partition((2, 2))
    for other in (symmetric_pyramid(p), orthogonal_pyramid(p),
                  symplectic_pyramid(Partition((2, 2, 2)))):
        assert other.spec != fam.spec
        with pytest.raises(VerificationError):
            _entry(ent.H, fam.blocks, other, ent.source, True)
    assert _entry(ent.H, fam.blocks, fam.torus.base, ent.source, True) == ent


def test_sign_symmetry_of_goodness():
    # negating all torus coordinates never changes the verdict
    for parts, fam in [((2, 2), Family.SP), ((3, 3, 1), Family.SO),
                       ((3, 3, 1, 1), Family.SO)]:
        p = Partition(parts)
        spec = AlgebraSpec(fam, p.n)
        g = build_algebra(spec)
        base = symplectic_pyramid(p) if fam is Family.SP \
            else orthogonal_pyramid(p)
        blocks = ad_blocks(g, nilpotent_of_pyramid(g, base))
        family = good_gradings(spec, p)
        from goodgradings.pyramids import (orthogonal_center_parts,
                                           symplectic_center_parts)
        cparts = symplectic_center_parts(p) if fam is Family.SP \
            else orthogonal_center_parts(p)
        for ent in family.entries:
            t = ent.source[1]
            flipped = grading_writer(base)({v: -x for v, x in zip(cparts, t)})
            assert is_good(flipped, blocks).verified


def test_sweep_counts_tie_to_the_pyramid_series():
    # the sweep reads its gradings off the orbit alone, yet over the
    # nonzero orbits of gl_n they number the pyramids of size n, less
    # the one pyramid of the zero orbit
    series = pyramid_count_series(10)
    sums = []
    for n in range(2, 11):
        spec = AlgebraSpec(Family.GL, n)
        sums.append(sum(len(sweep_oracle(good_gradings(spec, p)))
                        for p in partitions(n) if not p.is_zero_orbit()))
        assert sums[-1] == series[n] - 1, n
    assert sums == [1, 4, 10, 22, 44, 84, 153, 271, 467]


def test_sweep_matches_enumeration_spot_checks():
    fam = gradings_of(Family.SP, (2, 2))
    assert set(sweep_oracle(fam)) == fam.gradings()
    fam = gradings_of(Family.SO, (3, 3, 1))
    assert set(sweep_oracle(fam)) == fam.gradings()


def test_sweep_trivial_center():
    fam = gradings_of(Family.SP, (4, 2))
    swept = sweep_oracle(fam)
    assert len(swept) == 1
    assert swept[0] == dynkin_entry(fam).H


def test_sweep_guards():
    # the sweep takes an enumerated family, so good_gradings guards its
    # input
    with pytest.raises(ValueError, match="matrix size"):
        good_gradings(AlgebraSpec(Family.GL, 5), Partition((3, 1)))
    with pytest.raises(ValueError, match="symplectic"):
        good_gradings(AlgebraSpec(Family.SP, 4), Partition((3, 1)))


def sweep_orbits():
    """The small orbits with at most two center parts, where the grid
    walk is cheap enough to compare against."""
    return [(spec, p) for spec, p in small_orbits(7, 10)
            if len(center_torus(spec, p).parts) <= 2]


def test_sweep_reads_the_orbit_not_the_entries():
    # the sweep reads the ad e blocks and the torus's base and center
    # parts, never the enumerated entries, shift vectors or pyramids
    several = 0
    for spec, p in sweep_orbits():
        fam = good_gradings(spec, p)
        alone = dataclasses.replace(
            fam, entries=(dynkin_entry(fam),),
            torus=fam.torus._replace(shift_vectors=[], pyramids=[]))
        assert alone.blocks is fam.blocks and alone.torus.base is fam.torus.base
        swept = sweep_oracle(fam)
        assert len(swept) == len(fam), (spec, p)
        assert sweep_oracle(alone) == swept, (spec, p)
        several += len(fam) > 1 and alone != fam
    assert several > 50


@pytest.mark.parametrize("parts, dropped", [((5, 5, 1), (2,)),
                                            ((3, 3, 1, 1), (1, 3))])
def test_sweep_refuses_a_polytope_without_a_sign_copy(monkeypatch, parts,
                                                       dropped):
    # sp/so keep the points with nonnegative coordinates, each the
    # sign-folded copy |t| of the others; a polytope that lacks |t| for
    # one of its points is a bug, not a smaller answer
    import goodgradings.classify as classify
    real = classify._lattice_points

    def without(*args):
        points = real(*args)
        assert dropped in points
        return [s for s in points if s != dropped]

    fam = gradings_of(Family.SO, parts)
    monkeypatch.setattr(classify, "_lattice_points", without)
    with pytest.raises(VerificationError, match="sign flips"):
        sweep_oracle(fam)


@pytest.mark.parametrize("family, parts", [(Family.GL, (3, 2, 1)),
                                           (Family.SO, (3, 3, 1, 1))])
def test_sweep_refuses_a_grading_found_twice(monkeypatch, family, parts):
    # verify compares the sweep's gradings as a set, so the sweep itself
    # must refuse a duplicate rather than let the set merge it
    import goodgradings.classify as classify
    real = classify._lattice_points

    def doubled(*args):
        points = real(*args)
        return points + points[-1:]

    fam = gradings_of(family, parts)
    assert len(sweep_oracle(fam)) == len(fam) > 1
    monkeypatch.setattr(classify, "_lattice_points", doubled)
    with pytest.raises(VerificationError, match="twice"):
        sweep_oracle(fam)


def test_family_equality_ignores_the_orbit_build():
    p = Partition((3, 3, 1, 1))
    spec = AlgebraSpec(Family.SO, p.n)
    one, two = good_gradings(spec, p), good_gradings(spec, p)
    assert one.blocks.g is not two.blocks.g and one.blocks is not two.blocks
    assert one == two and hash(one) == hash(two)
    assert "blocks" not in repr(one) and "AlgebraBasis" not in repr(one)


def test_is_integral_matches_decomposition_on_sweep_candidates():
    # every point of the reference grid, including the gl half-shifts;
    # in sp (2,2) every shift keeps all entries congruent mod 1, so only
    # one verdict occurs there.  The reference degrees are differences of
    # diagonal entries; the decomposition refuses exactly the H where one
    # is not an integer, and otherwise returns them as ints
    for family, parts, expected in (
            (Family.GL, (3, 2, 1), {True, False}),
            (Family.SP, (2, 2), {True}),
            (Family.SO, (3, 3, 1, 1), {True, False})):
        p = Partition(parts)
        spec = AlgebraSpec(family, p.n)
        g = build_algebra(spec)
        torus = center_torus(spec, p)
        write, cparts = grading_writer(torus.base), torus.parts
        verdicts = set()
        for t in itertools.product(grid_axis(p), repeat=len(cparts)):
            H = write(dict(zip(cparts, t)))
            diag = fraction_diagonal(H)
            reference = [diag[g.position[i]] - diag[g.position[j]]
                         for i, j in g.labels]
            verdict = H.is_integral()
            assert verdict == all(d.denominator == 1 for d in reference), \
                (family, parts, t)
            if verdict:
                degrees = graded_decomposition(g, H)
                assert degrees == tuple(reference), (family, parts, t)
                assert all(type(d) is int for d in degrees)
            else:
                with pytest.raises(ValueError, match="not an integral"):
                    graded_decomposition(g, H)
            verdicts.add(verdict)
        assert verdicts == expected, (family, parts)


# the orbits of the classify benchmark workload
CLASSIFY_ORBITS = (
    "A 3,2,1", "A 3,3,2", "B 5,5,1", "B 6,6,1", "A 12", "B 11,2,2,1,1",
    "B 15,2,2", "C 6,6,2,1,1", "C 5,5,2,2,1,1", "C 6,4,4,2", "D 5,5,3,1,1,1",
    "D 7,5,1,1", "D 13,5", "A 16", "A 5,4,1", "B 11,6,6", "C 11,11",
    "C 12,10", "D 6,6,4,4,2,2", "A 7,4,2,2", "A 6,4,4,1", "C 8,8,4,4,2,2",
    "D 9,9,7,7")
LETTERS = {"A": Family.GL, "B": Family.SO, "C": Family.SP, "D": Family.SO}


def test_every_degree_is_an_int():
    # Z-gradings: the decompositions, the degrees of g^e and the sweep's
    # forms hold ints, not Fractions that equal them
    def ints(xs):
        return all(type(x) is int for x in xs)

    for orbit in CLASSIFY_ORBITS:
        letter, parts = orbit.split()
        p = Partition(tuple(map(int, parts.split(","))))
        fam = good_gradings(AlgebraSpec(LETTERS[letter], p.n), p)
        for ent in fam.entries:
            assert ints(is_good(ent.H, fam.blocks).degrees), (orbit, ent.source)
            assert ints(ent.centralizer_degrees), (orbit, ent.source)
        forms, _ = _centralizer_weights(fam, grading_writer(fam.torus.base))
        assert all(ints(a) and type(b) is int for a, b in forms), orbit
    for family, size, blocks, q in ((Family.GL, 5, (2, 1, 2), 0),
                                    (Family.GL, 6, (1, 3, 2), 0),
                                    (Family.SP, 8, (1, 2), 2),
                                    (Family.SP, 6, (2, 1), 0),
                                    (Family.SO, 9, (1, 2), 3),
                                    (Family.SO, 10, (2, 1, 2), 0)):
        spec = AlgebraSpec(family, size)
        H = parabolic_grading(ParabolicSpec(spec, blocks, q))
        assert ints(graded_decomposition(build_algebra(spec), H)), \
            (spec, blocks, q)


def test_verify_builds_the_orbit_once(monkeypatch, capsys):
    import goodgradings.classify as classify
    from goodgradings import cli, gradings
    calls = dict.fromkeys(("build_algebra", "nilpotent_of_pyramid",
                           "ad_blocks"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(classify, name,
                            counted(name, getattr(classify, name)))
    # and gradings builds none behind classify's back
    monkeypatch.setattr(gradings, "ad_blocks",
                        counted("ad_blocks", gradings.ad_blocks))
    code = cli.main(["verify", "--family", "D", "--partition", "3,3,1,1",
                     "--format", "json"])
    assert code == 0
    assert '"match": true' in capsys.readouterr().out
    assert calls == {"build_algebra": 1, "nilpotent_of_pyramid": 1,
                     "ad_blocks": 1}


def test_center_parts():
    def cparts(family, parts):
        p = Partition(parts)
        return center_torus(AlgebraSpec(family, p.n), p).parts

    assert cparts(Family.GL, (2, 1)) == (1,)
    assert cparts(Family.SP, (2, 2)) == (2,)
    assert cparts(Family.SO, (3, 3, 1, 1)) == (3, 1)
    # multiplicity exactly 2, not at least 2
    assert cparts(Family.SP, (2, 2, 2, 2)) == ()
    assert cparts(Family.SP, (2, 1, 1)) == ()


def test_sweep_grid_holds_every_shift_vector():
    # Every center coordinate of every good grading lies on the grid
    # axis of the reference walk, so the walk cannot miss one.  No
    # algebra is built.
    checked = 0
    for spec, p in small_orbits(7, 10):
        torus = center_torus(spec, p)
        axis = grid_axis(p)
        for shifts in torus.shift_vectors:
            assert set(shifts) <= set(torus.parts), (spec, p)
            assert all(x in axis for x in shifts.values()), (spec, p, shifts)
            checked += 1
    assert checked > 300


def test_sweep_equals_the_grid_walk():
    # the polytope sweep and the reference grid walk return the same
    # gradings in the same order on every small orbit with c <= 2
    compared = 0
    for spec, p in sweep_orbits():
        fam = good_gradings(spec, p)
        assert sweep_oracle(fam) == grid_sweep(fam), (spec, p)
        compared += 1
    assert compared > 100


def test_unbounded_polytope_raises():
    # s_0 >= 0 and s_0 + s_1 >= 0 bound nothing from above
    with pytest.raises(VerificationError, match="unbounded"):
        _lattice_points([((1, 0), 0), ((1, 1), 0)], set(), 2)
    # bounded: 0 <= s_0 <= 2 (the tighter of 2 and 3), s_0 even
    assert _lattice_points([((1,), 0), ((-1,), 3), ((-1,), 2)],
                           {((1,), 0)}, 1) == [(0,), (2,)]


def test_sweep_counts_the_centralizer_weights():
    # dropping a block of ad e drops centralizer weights; the sum no
    # longer matches the closed form for dim g^e
    fam = gradings_of(Family.SO, (3, 3, 1, 1))
    blocks = fam.blocks
    for k, (cols, _, rk) in enumerate(blocks.blocks):
        if len(cols) > rk:
            break
    torn = AdBlocks(blocks.g, blocks.e,
                    blocks.blocks[:k] + blocks.blocks[k + 1:])
    with pytest.raises(VerificationError, match="dim g\\^e"):
        sweep_oracle(dataclasses.replace(fam, blocks=torn))


def test_sweep_refuses_a_torus_that_moves_e_off_degree_2():
    # the writer moves the head of one arrow of e at the unit vector, so
    # e has degree 2 under H(0) but not on the whole torus; the sweep
    # checks that once per orbit, before it ranks anything
    fam = gradings_of(Family.GL, (3, 2))
    write = grading_writer(fam.torus.base)
    head, _ = next(iter(fam.blocks.e))

    def moved(shifts):
        H = write(shifts)
        if not shifts:
            return H
        diag = list(H.doubled)
        diag[head] += 2
        return GradingElement(H.spec, tuple(diag))

    with pytest.raises(VerificationError, match="degree 2"):
        _centralizer_weights(fam, moved)


def test_sweep_weights_are_the_centralizer_degrees():
    # the sweep's weights of g^e, evaluated at the t of each enumerated
    # grading, are the degrees of g^e that is_good reported for it
    orbits = gradings = 0
    for spec, p in small_orbits(7, 10):
        fam = good_gradings(spec, p)
        _, weights = _centralizer_weights(fam, grading_writer(fam.torus.base))
        cparts = fam.torus.parts
        keys = p.parts if spec.family is Family.GL else cparts
        for ent in fam.entries:
            # the source holds s = 2t
            shifts = dict(zip(keys, ent.source[1]))
            s = [shifts[v] for v in cparts]
            degrees = sorted(Fraction(b + sum(x * y for x, y in zip(s, a)), 2)
                             for (a, b), m in weights.items() for _ in range(m))
            assert tuple(degrees) == ent.centralizer_degrees, (spec, p, ent.source)
            gradings += 1
        orbits += 1
    assert (orbits, gradings) == (136, 311)


def test_sweep_checks_few_points(monkeypatch):
    # so_18, p = (5,5,3,3,1,1): 49 points of the polytope in 12 sign
    # classes; the grid walk made 2355 is_good calls
    import goodgradings.classify as classify
    calls = []
    real = classify.is_good

    def counted(*args):
        calls.append(1)
        return real(*args)

    fam = gradings_of(Family.SO, (5, 5, 3, 3, 1, 1))
    monkeypatch.setattr(classify, "is_good", counted)
    assert len(sweep_oracle(fam)) == 12
    assert 49 <= len(calls) <= 61


def test_entries_report_verified_data():
    fam = gradings_of(Family.SP, (2, 2))
    for ent in fam.entries:
        assert all(x in (0, 1, 2) for x in ent.characteristic.labels)
        assert all(d >= 0 for d in ent.centralizer_degrees)
    halfs = [ent for ent in fam.entries if any(x % 2 for x in ent.H.doubled)]
    assert len(halfs) == 1 and not halfs[0].is_even


def test_very_even_orbits_report_the_pyramid_orbit():
    # a very even partition (all parts even, each of even multiplicity)
    # labels two orbits of so_2n, swapped by the outer automorphism that
    # exchanges v_n and v_-n.  classify reports the orbit of the pyramid
    # nilpotent: one grading, whose characteristic ends in the fork pair
    # (0, 2); the other orbit's grading is the image, with (2, 0)
    very_even = [p for N in range(4, 17, 2) for p in orthogonal_partitions(N)
                 if all(v % 2 == 0 and m % 2 == 0 for v, m in p.distinct())]
    assert len(very_even) == 11
    for p in very_even:
        fam = good_gradings(AlgebraSpec(Family.SO, p.n), p)
        N, half = p.n, p.n // 2
        labels = dynkin_entry(fam).characteristic.labels
        assert len(fam) == 1 and labels[-2:] == (0, 2), p
        swap = {half - 1: N - 1, N - 1: half - 1}
        diag = list(dynkin_entry(fam).H.doubled)
        diag[half - 1], diag[N - 1] = diag[N - 1], diag[half - 1]
        H = GradingElement(fam.spec, tuple(diag))
        e = {(swap.get(a, a), swap.get(b, b)): v
             for (a, b), v in fam.blocks.e.items()}
        assert is_good(H, ad_blocks(fam.blocks.g, e)).verified, p
        assert characteristic_of(H).labels == labels[:-2] + (2, 0), p
