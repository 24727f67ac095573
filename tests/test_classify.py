import itertools
from fractions import Fraction

import pytest

from goodgradings.algebras import AlgebraSpec, Family, build_algebra, \
    graded_decomposition
from goodgradings.classify import (_shifted_grading,
                                   even_good_grading_gl, even_good_gradings_sp,
                                   good_gradings, good_gradings_gl,
                                   good_gradings_so, good_gradings_sp,
                                   MAX_SWEEP_CANDIDATES, sweep_grid,
                                   sweep_oracle)
from goodgradings.gradings import (is_good, nilpotent_of_pyramid,
                                   normalize_traceless)
from goodgradings.partitions import Partition, symplectic_partitions
from goodgradings.pyramids import (orthogonal_pyramid, orthogonal_pyramids,
                                   symmetric_pyramid, symplectic_pyramid,
                                   symplectic_pyramids)


def test_gl_counts():
    assert len(good_gradings_gl(Partition((2, 1)))) == 3
    assert len(good_gradings_gl(Partition((4,)))) == 1
    assert len(good_gradings_gl(Partition((2, 2)))) == 1
    assert len(good_gradings_gl(Partition((3, 1)))) == 5


def test_sp_counts():
    assert len(good_gradings_sp(Partition((2, 2)))) == 3
    assert len(good_gradings_sp(Partition((2, 1, 1)))) == 1
    assert len(good_gradings_sp(Partition((4, 2)))) == 1
    assert len(good_gradings_sp(Partition((4, 4, 2, 2)))) == 5


def test_so_counts():
    assert len(good_gradings_so(Partition((3, 1, 1)))) == 3
    assert len(good_gradings_so(Partition((3, 3, 1)))) == 2
    assert len(good_gradings_so(Partition((3, 3, 1, 1)))) == 7
    assert len(good_gradings_so(Partition((5, 3)))) == 1


def test_counts_match_pyramid_counts():
    for parts in [(2, 2), (4, 2), (2, 2, 1, 1), (3, 3, 2, 2)]:
        p = Partition(parts)
        assert len(good_gradings_sp(p)) == len(symplectic_pyramids(p))
    for parts in [(3, 1), (3, 3, 1), (5, 1, 1), (3, 3, 1, 1), (2, 2, 1, 1)]:
        p = Partition(parts)
        assert len(good_gradings_so(p)) == len(orthogonal_pyramids(p))


def test_exactly_one_dynkin():
    for fam in (good_gradings_gl(Partition((3, 1))),
                good_gradings_sp(Partition((2, 2))),
                good_gradings_so(Partition((3, 3, 1, 1)))):
        assert sum(1 for ent in fam.entries if ent.is_dynkin) == 1
        assert fam.dynkin.source[1] == tuple(
            Fraction(0) for _ in fam.dynkin.source[1])


def test_zero_orbit_rejected():
    with pytest.raises(ValueError):
        good_gradings_gl(Partition((1, 1, 1)))
    with pytest.raises(ValueError):
        sweep_oracle(AlgebraSpec(Family.GL, 3), Partition((1, 1, 1)))


def test_family_mismatch_rejected():
    with pytest.raises(ValueError):
        good_gradings_sp(Partition((3, 1)))
    with pytest.raises(ValueError):
        good_gradings_so(Partition((2, 1, 1)))
    with pytest.raises(ValueError):
        good_gradings(AlgebraSpec(Family.SP, 6), Partition((2, 2)))


def test_even_good_grading_gl():
    for parts in [(3, 1), (2, 1), (3, 2, 2, 1), (4, 3, 1)]:
        p = Partition(parts)
        H = even_good_grading_gl(p)
        spec = AlgebraSpec(Family.GL, p.n)
        g = build_algebra(spec)
        e = nilpotent_of_pyramid(spec, symmetric_pyramid(p))
        assert graded_decomposition(g, H).is_even()
        assert is_good(g, H, e).verified


def test_even_good_grading_gl_even_nilpotent_is_dynkin():
    p = Partition((3, 1))
    H = even_good_grading_gl(p)
    fam = good_gradings_gl(p)
    assert H.diagonal == fam.dynkin.H.diagonal


def test_even_counts_sp():
    assert len(even_good_gradings_sp(Partition((2, 2)))) == 2
    assert len(even_good_gradings_sp(Partition((3, 3)))) == 1
    assert len(even_good_gradings_sp(Partition((2, 1, 1)))) == 0
    assert len(even_good_gradings_sp(Partition((2, 2, 1, 1)))) == 1
    # the two even gradings are t = (0,..) and t = (1,..)
    fam = good_gradings_sp(Partition((2, 2)))
    evens = [ent for ent in fam.entries if ent.is_even]
    assert sorted(ent.source[1] for ent in evens) == \
        [(Fraction(0),), (Fraction(1),)]


def test_even_counts_sp_match_closed_conditions():
    for N in (2, 4, 6, 8):
        for p in symplectic_partitions(N):
            if p.is_zero_orbit():
                continue
            evens = even_good_gradings_sp(p)
            all_even_mult2 = all(v % 2 == 0 and m == 2 for v, m in p.distinct())
            dynkin_even = len({q % 2 for q in p.parts}) == 1
            even_parts_mult2 = all(m == 2 for v, m in p.distinct() if v % 2 == 0)
            assert len(evens) <= 2
            assert (len(evens) == 2) == all_even_mult2
            assert (len(evens) >= 1) == (dynkin_even or even_parts_mult2)


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
            shifts = {blocks[i + 1][0]: Fraction(sum(a[:i + 1]))
                      for i in range(len(a))}
            H = _shifted_grading(spec, base, shifts)
            assert normalize_traceless(H) == H
            system.add(H.diagonal)
        assert system == good_gradings_gl(p).diagonals()


def test_sign_symmetry_of_goodness():
    # negating all torus coordinates never changes the verdict
    for parts, fam in [((2, 2), Family.SP), ((3, 3, 1), Family.SO),
                       ((3, 3, 1, 1), Family.SO)]:
        p = Partition(parts)
        spec = AlgebraSpec(fam, p.n)
        g = build_algebra(spec)
        base = symplectic_pyramid(p) if fam is Family.SP \
            else orthogonal_pyramid(p)
        e = nilpotent_of_pyramid(spec, base)
        family = good_gradings_sp(p) if fam is Family.SP \
            else good_gradings_so(p)
        from goodgradings.pyramids import (orthogonal_center_parts,
                                           symplectic_center_parts)
        cparts = symplectic_center_parts(p) if fam is Family.SP \
            else orthogonal_center_parts(p)
        for ent in family.entries:
            t = ent.source[1]
            flipped = _shifted_grading(spec, base,
                                       {v: -x for v, x in zip(cparts, t)})
            assert is_good(g, flipped, e).verified


def test_sweep_matches_enumeration_spot_checks():
    p = Partition((2, 2))
    spec = AlgebraSpec(Family.SP, 4)
    assert {H.diagonal for H in sweep_oracle(spec, p, 2, Fraction(1, 2))} \
        == good_gradings_sp(p).diagonals()
    p = Partition((3, 3, 1))
    spec = AlgebraSpec(Family.SO, 7)
    assert {H.diagonal for H in sweep_oracle(spec, p, 2, Fraction(1, 2))} \
        == good_gradings_so(p).diagonals()


def test_sweep_trivial_center():
    p = Partition((4, 2))
    spec = AlgebraSpec(Family.SP, 6)
    swept = sweep_oracle(spec, p)
    assert len(swept) == 1
    assert swept[0].diagonal == good_gradings_sp(p).dynkin.H.diagonal


def test_sweep_guards():
    with pytest.raises(ValueError):
        sweep_oracle(AlgebraSpec(Family.GL, 4), Partition((3, 1)),
                     grid_step=Fraction(0))
    with pytest.raises(ValueError):
        sweep_oracle(AlgebraSpec(Family.GL, 5), Partition((3, 1)))


def test_sweep_grid_limit_boundary():
    # c = 2 and bound 3: step 2/33 gives 100 values per axis, 100^2 in
    # all, exactly the limit; step 1/17 gives 103^2.  Only the check runs.
    spec, p = AlgebraSpec(Family.GL, 6), Partition((3, 2, 1))
    assert MAX_SWEEP_CANDIDATES == 100 ** 2
    assert sweep_grid(spec, p, 3, Fraction(2, 33)) == (3, Fraction(2, 33), 2)
    with pytest.raises(ValueError, match="candidates"):
        sweep_grid(spec, p, 3, Fraction(1, 17))
    with pytest.raises(ValueError, match="candidates"):
        sweep_oracle(spec, p, 3, Fraction(1, 10000))


def test_entries_report_verified_data():
    fam = good_gradings_sp(Partition((2, 2)))
    for ent in fam.entries:
        assert all(x in (0, 1, 2) for x in ent.characteristic.labels)
        assert all(d >= 0 for d in ent.centralizer_degrees)
    halfs = [ent for ent in fam.entries
             if any(x.denominator == 2 for x in ent.H.diagonal)]
    assert len(halfs) == 1 and not halfs[0].is_even
