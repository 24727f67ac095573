import random
from collections import Counter
from fractions import Fraction

import pytest

from dense_reference import (Matrix, bracket, dense, fraction_diagonal, rank,
                             reference_jordan_type)
from goodgradings.algebras import (AlgebraSpec, Family, GradingElement,
                                   build_algebra, graded_decomposition)
from goodgradings.classify import center_torus, good_gradings
from goodgradings.gradings import (VerificationError, _expected_jordan_type,
                                   ad_blocks, characteristic_from_pyramid,
                                   characteristic_of, check_duality_form,
                                   check_torus_weights, fill_boxes,
                                   grading_writer, is_good, jordan_type,
                                   nilpotent_of_pyramid)
from goodgradings.partitions import (Partition, orthogonal_partitions,
                                     partitions, symplectic_partitions)
from goodgradings.pyramids import (Pyramid, Row, _shift_parts,
                                   enumerate_pyramids, orthogonal_pyramid,
                                   orthogonal_pyramids, symmetric_pyramid,
                                   symplectic_pyramid, symplectic_pyramids)

GL = Family.GL
SP = Family.SP
SO = Family.SO


def base_pyramid(spec, p):
    if spec.family is GL:
        return symmetric_pyramid(p)
    if spec.family is SP:
        return symplectic_pyramid(p)
    return orthogonal_pyramid(p)


NILPOTENT_CASES = [
    (GL, 2, (2,)), (GL, 3, (2, 1)), (GL, 4, (3, 1)),
    (SP, 4, (2, 2)), (SP, 4, (2, 1, 1)), (SP, 6, (4, 2)), (SP, 6, (2, 2, 2)),
    (SP, 8, (4, 4)), (SP, 8, (3, 3, 2)),
    (SO, 4, (3, 1)), (SO, 5, (3, 1, 1)), (SO, 5, (2, 2, 1)), (SO, 7, (3, 3, 1)),
    (SO, 8, (5, 3)), (SO, 8, (3, 3, 1, 1)), (SO, 9, (5, 3, 1)),
    (SO, 13, (5, 5, 3)), (SO, 7, (5, 1, 1)),
]
# then every other nonzero B/C/D orbit with N <= 12, appended so that the
# ids of the cases above stay put
NILPOTENT_CASES += [
    case for case in
    [(SP, N, p.parts) for N in range(2, 13, 2) for p in symplectic_partitions(N)]
    + [(SO, N, p.parts) for N in range(3, 13) for p in orthogonal_partitions(N)]
    if case[2][0] > 1 and case not in NILPOTENT_CASES]


@pytest.mark.parametrize("fam,n,parts", NILPOTENT_CASES)
def test_nilpotent_construction(fam, n, parts):
    p = Partition(parts)
    spec = AlgebraSpec(fam, n)
    g = build_algebra(spec)
    pyr = base_pyramid(spec, p)
    e = nilpotent_of_pyramid(g, pyr)
    assert g.contains(e)
    assert all(type(v) is int and v for v in e.values())
    assert jordan_type(e, n) == reference_jordan_type(dense(e, n)) == p
    H = grading_writer(pyr)({})
    h = dense({(i, i): d for i, d in enumerate(fraction_diagonal(H))}, n)
    assert bracket(h, dense(e, n)) == dense(e, n).scale(2)


def _pyramid_cases(top=14):
    """Every pyramid of A n <= 9 and B/C/D N <= top, with its partition
    and algebra."""
    cases = [(AlgebraSpec(GL, n), p, enumerate_pyramids(p))
             for n in range(1, 10) for p in partitions(n)]
    cases += [(AlgebraSpec(SP, N), p, symplectic_pyramids(p))
              for N in range(2, top + 1, 2) for p in symplectic_partitions(N)]
    cases += [(AlgebraSpec(SO, N), p, orthogonal_pyramids(p))
              for N in range(3, top + 1) for p in orthogonal_partitions(N)]
    return [(spec, p, pyr) for spec, p, pyrs in cases for pyr in pyrs]


def test_expected_jordan_type_is_the_partition():
    # the parts recorded on the rows give back p for every pyramid
    # (A n <= 9, B/C/D N <= 14), so nilpotent_of_pyramid checks e
    # against the partition itself
    cases = _pyramid_cases()
    assert len(cases) == 1104
    for _, p, pyr in cases:
        assert _expected_jordan_type(pyr) == p, (p, pyr)


def test_jordan_type_equals_the_dense_reference_on_pyramids():
    # the 1104 pyramids above and those of B/C/D N = 15, 16; they include
    # 157 B/D pyramids with joint rows, whose exceptional arrows give a box
    # a second incoming or outgoing arrow, so that their Jordan type is
    # not the multiset of arrow chain lengths (85 of them have N <= 14)
    cases = _pyramid_cases(16)
    assert len(cases) == 1450
    double = 0
    for spec, p, pyr in cases:
        e = nilpotent_of_pyramid(build_algebra(spec), pyr)
        n = spec.size
        assert jordan_type(e, n) == reference_jordan_type(dense(e, n)) == p
        rows = [i for i, _ in e]
        cols = [j for _, j in e]
        if len(set(rows)) < len(rows) or len(set(cols)) < len(cols):
            assert spec.family is SO and any(r.role == "joint" for r in pyr.rows)
            double += 1
    assert double == 157


def test_jordan_type_equals_the_dense_reference_on_random_nilpotents():
    # a strictly upper triangular matrix conjugated by a permutation
    rng = random.Random(13)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 8)
        sigma = list(range(n))
        rng.shuffle(sigma)
        e = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    v = rng.choice((-2, -1, 1, 2, 3, 5))
                    e[(sigma[i], sigma[j])] = v
        jt = jordan_type(e, n)
        assert jt == reference_jordan_type(dense(e, n)), (n, e)
        seen.add(jt.parts)
    assert len(seen) > 30


def test_jordan_type_refuses_entries_that_are_not_ints():
    # the ranks of the powers of e come from `rref`, which takes ints only
    for x in (Fraction(1, 2), Fraction(1), 1.0):
        with pytest.raises(TypeError):
            jordan_type({(0, 1): x, (1, 2): 1}, 3)


def test_single_block_nilpotent():
    spec = AlgebraSpec(GL, 2)
    e = dense(nilpotent_of_pyramid(build_algebra(spec),
                                   symmetric_pyramid(Partition((2,)))), 2)
    assert (e @ e).is_zero()
    assert rank(e) == 1


def test_self_mirrored_so_arrow_is_refused():
    # the centered even row of this so_4 pyramid has one arrow, and it is
    # its own mirror: no element of so_4 has an entry there
    pyr = Pyramid(SO, (Row(0, -2, 2), Row(1, 0, 1), Row(-1, 0, 1)))
    with pytest.raises(VerificationError):
        nilpotent_of_pyramid(build_algebra(pyr.spec), pyr)


def test_grading_examples():
    # boxes are labeled row by row, left to right; the doubled gl
    # diagonal is stored from its first entry
    H = grading_writer(symmetric_pyramid(Partition((2,))))({})
    assert H.doubled == (0, 4)
    assert fraction_diagonal(H) == (Fraction(-1), Fraction(1))
    H = grading_writer(symmetric_pyramid(Partition((2, 1))))({})
    assert H.doubled == (0, 4, 2)
    assert fraction_diagonal(H) == (Fraction(-1), Fraction(1), Fraction(0))
    H = grading_writer(symplectic_pyramid(Partition((2, 2))))({})
    assert H.doubled == (2, 2, -2, -2)
    assert fraction_diagonal(H) \
        == (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1))


def test_nilpotent_of_pyramid_refuses_another_algebra():
    # a pyramid names its algebra (`Pyramid.spec`), and its nilpotent is
    # built there only: another family or another size is refused
    p22, p31 = Partition((2, 2)), Partition((3, 1))
    cases = [(AlgebraSpec(GL, 4), symplectic_pyramid(p22)),
             (AlgebraSpec(SP, 4), symmetric_pyramid(p22)),
             (AlgebraSpec(SO, 4), symplectic_pyramid(p22)),
             (AlgebraSpec(SP, 4), orthogonal_pyramid(p31)),
             (AlgebraSpec(GL, 5), symmetric_pyramid(p22)),
             (AlgebraSpec(SP, 6), symplectic_pyramid(p22)),
             (AlgebraSpec(SO, 5), orthogonal_pyramid(p31)),
             (AlgebraSpec(GL, 3), symmetric_pyramid(p31))]
    for spec, pyr in cases:
        assert pyr.spec != spec
        with pytest.raises(ValueError, match="does not match"):
            nilpotent_of_pyramid(build_algebra(spec), pyr)
    assert symmetric_pyramid(p22).spec == AlgebraSpec(GL, 4)
    assert symplectic_pyramid(p22).spec == AlgebraSpec(SP, 4)
    assert orthogonal_pyramid(p31).spec == AlgebraSpec(SO, 4)
    for _, pyr in cases:
        assert nilpotent_of_pyramid(build_algebra(pyr.spec), pyr)


def test_every_type_a_pyramid_pair_is_good():
    for n in range(2, 6):
        spec = AlgebraSpec(GL, n)
        g = build_algebra(spec)
        for p in partitions(n):
            if p.is_zero_orbit():
                continue
            e = nilpotent_of_pyramid(g, symmetric_pyramid(p))
            for pyr in enumerate_pyramids(p):
                H = grading_writer(pyr)({})
                assert is_good(H, ad_blocks(g, e)).verified


def test_every_symplectic_pyramid_pair_is_good():
    for N in (2, 4, 6):
        spec = AlgebraSpec(SP, N)
        g = build_algebra(spec)
        for p in symplectic_partitions(N):
            if p.is_zero_orbit():
                continue
            for pyr in symplectic_pyramids(p):
                e = nilpotent_of_pyramid(g, pyr)
                H = grading_writer(pyr)({})
                assert is_good(H, ad_blocks(g, e)).verified


def test_every_orthogonal_pyramid_pair_is_good():
    for N in (4, 5, 6, 7):
        spec = AlgebraSpec(SO, N)
        g = build_algebra(spec)
        for p in orthogonal_partitions(N):
            if p.is_zero_orbit():
                continue
            for pyr in orthogonal_pyramids(p):
                e = nilpotent_of_pyramid(g, pyr)
                H = grading_writer(pyr)({})
                assert is_good(H, ad_blocks(g, e)).verified


def test_out_of_bound_shift_is_not_good():
    # block difference 2 exceeds p_1 - p_2 = 1 for (2,1)
    p = Partition((2, 1))
    spec = AlgebraSpec(GL, 3)
    g = build_algebra(spec)
    e = nilpotent_of_pyramid(g, symmetric_pyramid(p))
    H = GradingElement(spec, (0, 4, -2))  # diag(0, 2, -1) modulo scalars
    pair = is_good(H, ad_blocks(g, e))
    assert not pair.verified
    assert min(pair.centralizer_degrees) < 0


def test_is_good_errors():
    spec = AlgebraSpec(GL, 2)
    g = build_algebra(spec)
    e = nilpotent_of_pyramid(g, symmetric_pyramid(Partition((2,))))
    with pytest.raises(ValueError):
        is_good(GradingElement(spec, (0, 0)), ad_blocks(g, e))  # not degree 2
    with pytest.raises(ValueError):
        is_good(GradingElement(spec, (1, -1)), ad_blocks(g, {}))
    spec3 = AlgebraSpec(GL, 3)
    g3 = build_algebra(spec3)
    e12 = {(0, 1): 1}
    frac_H = GradingElement(spec3, (2, -2, 1))  # diag(1, -1, 1/2)
    with pytest.raises(ValueError):
        # e is homogeneous of degree 2 but the grading is not integral
        is_good(frac_H, ad_blocks(g3, e12))


def test_good_pair_centralizer_degrees():
    spec = AlgebraSpec(GL, 3)
    g = build_algebra(spec)
    p = Partition((2, 1))
    e = nilpotent_of_pyramid(g, symmetric_pyramid(p))
    H = grading_writer(symmetric_pyramid(p))({})
    pair = is_good(H, ad_blocks(g, e))
    assert pair.verified
    assert len(pair.centralizer_degrees) == 5
    assert min(pair.centralizer_degrees) >= 0


def test_characteristic_regular_and_minimal():
    for n in (3, 4, 5):
        fam = good_gradings(AlgebraSpec(Family.GL, n), Partition((n,)))
        assert fam.entries[0].characteristic.labels == (2,) * (n - 1)
    fam = good_gradings(AlgebraSpec(Family.GL, 4), Partition((2, 1, 1)))
    [dyn] = [ent.characteristic for ent in fam.entries if ent.is_dynkin]
    assert dyn.labels == (1, 0, 1)


def test_characteristic_subregular_sl3():
    spec = AlgebraSpec(GL, 3)
    H = grading_writer(symmetric_pyramid(Partition((2, 1))))({})
    assert characteristic_of(H).labels == (1, 1)


def torus_points():
    """(spec, base, shifts, pyramid) for every good grading of every
    nonzero orbit of gl_n, n <= 7, sp_N, N <= 10, and so_N, N <= 10."""
    specs = [AlgebraSpec(GL, n) for n in range(2, 8)] \
        + [AlgebraSpec(SP, N) for N in range(2, 11, 2)] \
        + [AlgebraSpec(SO, N) for N in range(3, 11)]
    orbits = {GL: partitions, SP: symplectic_partitions,
              SO: orthogonal_partitions}
    for spec in specs:
        for p in orbits[spec.family](spec.size):
            if p.is_zero_orbit():
                continue
            torus = center_torus(spec, p)
            for shifts, pyr in zip(torus.shift_vectors, torus.pyramids):
                yield spec, torus.base, shifts, pyr


def test_characteristic_methods_agree_on_families():
    for spec, base, shifts, pyr in torus_points():
        chamber = characteristic_of(grading_writer(base)(shifts))
        columns = characteristic_from_pyramid(pyr)
        assert chamber.normalized() == columns.normalized(), (spec, shifts)
        assert all(type(x) is int for x in chamber.labels + columns.labels)


def test_writer_and_pyramid_shift_rows_alike():
    # the writer moves each base box's entry with its row exactly as
    # _shift_parts moves the box (up to gl's scalar), rows in y order
    for spec, base, shifts, _ in torus_points():
        pos = build_algebra(spec).position
        labels = fill_boxes(base)
        diag = fraction_diagonal(grading_writer(base)(shifts))
        shifted = _shift_parts(base, shifts)
        mean = Fraction(sum(x for x, _ in shifted.boxes()), 2 * spec.size)
        for r, moved in zip(base.rows, shifted.rows):
            for x, x_moved in zip(r.coords(), moved.coords()):
                assert diag[pos[labels[(x, r.y)]]] \
                    == Fraction(x_moved, 2) - mean, (spec, shifts)


def test_characteristic_fork_pair_case():
    # one box pair at +-1/2 forces a 2 on a fork node
    p = Partition((3, 3, 1, 1))
    spec = AlgebraSpec(SO, 8)
    base = orthogonal_pyramid(p)
    H = grading_writer(base)({3: 1, 1: 3})  # t = (1/2, 3/2), doubled
    ch = characteristic_of(H)
    assert sorted(ch.labels[-2:]) == [1, 2]
    assert ch.labels[:2] == (1, 0)


def test_characteristic_rejects_non_integral():
    spec = AlgebraSpec(GL, 2)
    with pytest.raises(ValueError):
        characteristic_of(GradingElement(spec, (1, 0)))  # diag(1/2, 0)


def test_duality_form():
    # even grading: degree -1 piece empty, holds vacuously
    spec = AlgebraSpec(GL, 2)
    g = build_algebra(spec)
    e = nilpotent_of_pyramid(g, symmetric_pyramid(Partition((2,))))
    H = grading_writer(symmetric_pyramid(Partition((2,))))({})
    assert check_duality_form(H, ad_blocks(g, e))
    # sl_3 subregular Dynkin grading has a 2-dim degree -1 piece
    spec3 = AlgebraSpec(GL, 3)
    g3 = build_algebra(spec3)
    p = Partition((2, 1))
    e3 = nilpotent_of_pyramid(g3, symmetric_pyramid(p))
    H3 = grading_writer(symmetric_pyramid(p))({})
    assert graded_decomposition(g3, H3).count(-1) == 2
    assert check_duality_form(H3, ad_blocks(g3, e3))
    # sp_4, (2,1,1) Dynkin
    spec_sp = AlgebraSpec(SP, 4)
    gsp = build_algebra(spec_sp)
    psp = Partition((2, 1, 1))
    esp = nilpotent_of_pyramid(gsp, symplectic_pyramid(psp))
    Hsp = grading_writer(symplectic_pyramid(psp))({})
    assert check_duality_form(Hsp, ad_blocks(gsp, esp))


def test_duality_form_requires_good_pair():
    spec = AlgebraSpec(GL, 3)
    g = build_algebra(spec)
    p = Partition((2, 1))
    e = nilpotent_of_pyramid(g, symmetric_pyramid(p))
    H = GradingElement(spec, (0, 4, -2))  # diag(0, 2, -1) modulo scalars
    with pytest.raises(ValueError):
        check_duality_form(H, ad_blocks(g, e))


def test_torus_weights():
    spec = AlgebraSpec(GL, 3)
    g = build_algebra(spec)
    p = Partition((2, 1))
    e = nilpotent_of_pyramid(g, symmetric_pyramid(p))
    for pyr in enumerate_pyramids(p):
        H = grading_writer(pyr)({})
        assert check_torus_weights(H, ad_blocks(g, e))
    with pytest.raises(ValueError):
        gsp = build_algebra(AlgebraSpec(SP, 4))
        psp = Partition((2, 2))
        esp = nilpotent_of_pyramid(gsp, symplectic_pyramid(psp))
        Hsp = grading_writer(symplectic_pyramid(psp))({})
        check_torus_weights(Hsp, ad_blocks(gsp, esp))


def test_jordan_type_requires_nilpotent():
    with pytest.raises(ValueError):
        jordan_type({(0, 0): 1, (1, 1): 1}, 2)
    with pytest.raises(ValueError):
        jordan_type({(0, 1): 1, (1, 0): 1}, 2)  # squares to the identity
    with pytest.raises(ValueError):
        reference_jordan_type(Matrix.identity(2))


def test_good_pair_graded_kernel_dimensions():
    # for a good pair, ad e is injective below and surjective above, so the
    # kernel in degree j is 0 for j <= -1 and dim g_j - dim g_{j+2} for j >= 0
    cases = [(GL, Partition((3, 1))), (SP, Partition((2, 2))),
             (SO, Partition((3, 3, 1)))]
    for fam, p in cases:
        spec = AlgebraSpec(fam, p.n)
        g = build_algebra(spec)
        pyr = base_pyramid(spec, p)
        e = nilpotent_of_pyramid(g, pyr)
        H = grading_writer(pyr)({})
        pair = is_good(H, ad_blocks(g, e))
        assert pair.verified
        sizes = Counter(graded_decomposition(g, H))
        kernel_dims = Counter(pair.centralizer_degrees)
        for d in sizes:
            expected = 0 if d <= -1 else sizes[d] - sizes[d + 2]
            assert kernel_dims[d] == expected, (fam, p, d)
