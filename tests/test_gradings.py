from fractions import Fraction

import pytest

from goodgradings.algebras import (AlgebraSpec, Family, GradingElement,
                                   build_algebra, graded_decomposition)
from goodgradings.classify import _shifted_grading, good_gradings_gl
from goodgradings.gradings import (characteristic_from_pyramid,
                                   characteristic_of, check_duality_form,
                                   check_torus_weights, fill_boxes,
                                   grading_of_pyramid, is_good, jordan_type,
                                   nilpotent_of_pyramid, normalize_traceless)
from goodgradings.linalg import Matrix, bracket
from goodgradings.partitions import (Partition, orthogonal_partitions,
                                     partitions, symplectic_partitions)
from goodgradings.pyramids import (enumerate_pyramids, orthogonal_pyramid,
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


@pytest.mark.parametrize("fam,n,parts", NILPOTENT_CASES)
def test_nilpotent_construction(fam, n, parts):
    p = Partition(parts)
    spec = AlgebraSpec(fam, n)
    g = build_algebra(spec)
    pyr = base_pyramid(spec, p)
    e = nilpotent_of_pyramid(spec, pyr)
    assert g.contains(e)
    assert jordan_type(e) == p
    H = grading_of_pyramid(spec, pyr)
    assert bracket(H.matrix(), e) == e.scale(2)


def test_single_block_nilpotent():
    spec = AlgebraSpec(GL, 2)
    e = nilpotent_of_pyramid(spec, symmetric_pyramid(Partition((2,))))
    assert (e @ e).is_zero()
    from goodgradings.linalg import rank
    assert rank(e) == 1


def test_grading_examples():
    # boxes are labeled row by row, left to right
    assert grading_of_pyramid(AlgebraSpec(GL, 2),
                              symmetric_pyramid(Partition((2,)))).diagonal \
        == (Fraction(-1), Fraction(1))
    assert grading_of_pyramid(AlgebraSpec(GL, 3),
                              symmetric_pyramid(Partition((2, 1)))).diagonal \
        == (Fraction(-1), Fraction(1), Fraction(0))
    assert grading_of_pyramid(AlgebraSpec(SP, 4),
                              symplectic_pyramid(Partition((2, 2)))).diagonal \
        == (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1))


def test_fill_boxes_flavor_mismatch():
    with pytest.raises(ValueError):
        fill_boxes(AlgebraSpec(SP, 4), symmetric_pyramid(Partition((2, 2))))
    with pytest.raises(ValueError):
        nilpotent_of_pyramid(AlgebraSpec(GL, 4),
                             symplectic_pyramid(Partition((2, 2))))


def test_every_type_a_pyramid_pair_is_good():
    for n in range(2, 6):
        spec = AlgebraSpec(GL, n)
        g = build_algebra(spec)
        for p in partitions(n):
            if p.is_zero_orbit():
                continue
            e = nilpotent_of_pyramid(spec, symmetric_pyramid(p))
            for pyr in enumerate_pyramids(p):
                H = normalize_traceless(grading_of_pyramid(spec, pyr))
                assert is_good(g, H, e).verified


def test_every_symplectic_pyramid_pair_is_good():
    for N in (2, 4, 6):
        spec = AlgebraSpec(SP, N)
        g = build_algebra(spec)
        for p in symplectic_partitions(N):
            if p.is_zero_orbit():
                continue
            for pyr in symplectic_pyramids(p):
                e = nilpotent_of_pyramid(spec, pyr)
                H = grading_of_pyramid(spec, pyr)
                assert is_good(g, H, e).verified


def test_every_orthogonal_pyramid_pair_is_good():
    for N in (4, 5, 6, 7):
        spec = AlgebraSpec(SO, N)
        g = build_algebra(spec)
        for p in orthogonal_partitions(N):
            if p.is_zero_orbit():
                continue
            for pyr in orthogonal_pyramids(p):
                e = nilpotent_of_pyramid(spec, pyr)
                H = grading_of_pyramid(spec, pyr)
                assert is_good(g, H, e).verified


def test_out_of_bound_shift_is_not_good():
    # block difference 2 exceeds p_1 - p_2 = 1 for (2,1)
    p = Partition((2, 1))
    spec = AlgebraSpec(GL, 3)
    g = build_algebra(spec)
    e = nilpotent_of_pyramid(spec, symmetric_pyramid(p))
    H = GradingElement(spec, (Fraction(-1, 3), Fraction(5, 3), Fraction(-4, 3)))
    pair = is_good(g, H, e)
    assert not pair.verified
    assert min(pair.centralizer_degrees) < 0


def test_is_good_errors():
    spec = AlgebraSpec(GL, 2)
    g = build_algebra(spec)
    e = nilpotent_of_pyramid(spec, symmetric_pyramid(Partition((2,))))
    with pytest.raises(ValueError):
        is_good(g, GradingElement(spec, (0, 0)), e)  # not degree 2
    with pytest.raises(ValueError):
        is_good(g, GradingElement(spec, (1, -1)), Matrix.zeros(2, 2))
    spec3 = AlgebraSpec(GL, 3)
    g3 = build_algebra(spec3)
    e12 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    frac_H = GradingElement(spec3, (Fraction(5, 4), Fraction(-3, 4),
                                    Fraction(-1, 2)))
    with pytest.raises(ValueError):
        # e is homogeneous of degree 2 but the grading is not integral
        is_good(g3, frac_H, e12)


def test_good_pair_centralizer_degrees():
    spec = AlgebraSpec(GL, 3)
    g = build_algebra(spec)
    p = Partition((2, 1))
    e = nilpotent_of_pyramid(spec, symmetric_pyramid(p))
    H = grading_of_pyramid(spec, symmetric_pyramid(p))
    pair = is_good(g, H, e)
    assert pair.verified
    assert len(pair.centralizer_degrees) == 5
    assert min(pair.centralizer_degrees) >= 0


def test_characteristic_regular_and_minimal():
    for n in (3, 4, 5):
        fam = good_gradings_gl(Partition((n,)))
        assert fam.entries[0].characteristic.labels == (Fraction(2),) * (n - 1)
    fam = good_gradings_gl(Partition((2, 1, 1)))
    dyn = fam.dynkin.characteristic
    assert dyn.labels == (Fraction(1), Fraction(0), Fraction(1))


def test_characteristic_subregular_sl3():
    spec = AlgebraSpec(GL, 3)
    g = build_algebra(spec)
    H = normalize_traceless(grading_of_pyramid(
        spec, symmetric_pyramid(Partition((2, 1)))))
    assert characteristic_of(g, H).labels == (Fraction(1), Fraction(1))


def test_characteristic_methods_agree_on_families():
    for N in (4, 6, 8):
        spec = AlgebraSpec(SP, N)
        g = build_algebra(spec)
        for p in symplectic_partitions(N):
            if p.is_zero_orbit():
                continue
            base = symplectic_pyramid(p)
            from goodgradings.pyramids import symplectic_shift_vectors
            for shifts, pyr in zip(symplectic_shift_vectors(p),
                                   symplectic_pyramids(p)):
                H = _shifted_grading(spec, base, shifts)
                assert characteristic_of(g, H).normalized() == \
                    characteristic_from_pyramid(spec, pyr).normalized()


def test_characteristic_fork_pair_case():
    # one box pair at +-1/2 forces a 2 on a fork node
    p = Partition((3, 3, 1, 1))
    spec = AlgebraSpec(SO, 8)
    g = build_algebra(spec)
    base = orthogonal_pyramid(p)
    H = _shifted_grading(spec, base, {3: Fraction(1, 2), 1: Fraction(3, 2)})
    ch = characteristic_of(g, H)
    assert sorted(ch.labels[-2:]) == [Fraction(1), Fraction(2)]
    assert ch.labels[:2] == (Fraction(1), Fraction(0))


def test_characteristic_rejects_non_integral():
    spec = AlgebraSpec(GL, 2)
    g = build_algebra(spec)
    with pytest.raises(ValueError):
        characteristic_of(g, GradingElement(spec, (Fraction(1, 2), 0)))


def test_duality_form():
    # even grading: degree -1 piece empty, holds vacuously
    spec = AlgebraSpec(GL, 2)
    g = build_algebra(spec)
    e = nilpotent_of_pyramid(spec, symmetric_pyramid(Partition((2,))))
    H = grading_of_pyramid(spec, symmetric_pyramid(Partition((2,))))
    assert check_duality_form(g, H, e)
    # sl_3 subregular Dynkin grading has a 2-dim degree -1 piece
    spec3 = AlgebraSpec(GL, 3)
    g3 = build_algebra(spec3)
    p = Partition((2, 1))
    e3 = nilpotent_of_pyramid(spec3, symmetric_pyramid(p))
    H3 = grading_of_pyramid(spec3, symmetric_pyramid(p))
    assert graded_decomposition(g3, H3).piece_dim(-1) == 2
    assert check_duality_form(g3, H3, e3)
    # sp_4, (2,1,1) Dynkin
    spec_sp = AlgebraSpec(SP, 4)
    gsp = build_algebra(spec_sp)
    psp = Partition((2, 1, 1))
    esp = nilpotent_of_pyramid(spec_sp, symplectic_pyramid(psp))
    Hsp = grading_of_pyramid(spec_sp, symplectic_pyramid(psp))
    assert check_duality_form(gsp, Hsp, esp)


def test_duality_form_requires_good_pair():
    spec = AlgebraSpec(GL, 3)
    g = build_algebra(spec)
    p = Partition((2, 1))
    e = nilpotent_of_pyramid(spec, symmetric_pyramid(p))
    H = GradingElement(spec, (Fraction(-1, 3), Fraction(5, 3), Fraction(-4, 3)))
    with pytest.raises(ValueError):
        check_duality_form(g, H, e)


def test_torus_weights():
    spec = AlgebraSpec(GL, 3)
    g = build_algebra(spec)
    p = Partition((2, 1))
    e = nilpotent_of_pyramid(spec, symmetric_pyramid(p))
    for pyr in enumerate_pyramids(p):
        H = normalize_traceless(grading_of_pyramid(spec, pyr))
        assert check_torus_weights(g, H, e)
    with pytest.raises(ValueError):
        gsp = build_algebra(AlgebraSpec(SP, 4))
        psp = Partition((2, 2))
        esp = nilpotent_of_pyramid(AlgebraSpec(SP, 4), symplectic_pyramid(psp))
        Hsp = grading_of_pyramid(AlgebraSpec(SP, 4), symplectic_pyramid(psp))
        check_torus_weights(gsp, Hsp, esp)


def test_jordan_type_requires_nilpotent():
    with pytest.raises(ValueError):
        jordan_type(Matrix.identity(2))


def test_good_pair_graded_kernel_dimensions():
    # for a good pair, ad e is injective below and surjective above, so the
    # kernel in degree j is 0 for j <= -1 and dim g_j - dim g_{j+2} for j >= 0
    cases = [(GL, Partition((3, 1))), (SP, Partition((2, 2))),
             (SO, Partition((3, 3, 1)))]
    for fam, p in cases:
        spec = AlgebraSpec(fam, p.n)
        g = build_algebra(spec)
        pyr = base_pyramid(spec, p)
        e = nilpotent_of_pyramid(spec, pyr)
        H = grading_of_pyramid(spec, pyr)
        pair = is_good(g, H, e)
        assert pair.verified
        dec = graded_decomposition(g, H)
        kernel_dims = {}
        for d in pair.centralizer_degrees:
            kernel_dims[d] = kernel_dims.get(d, 0) + 1
        for d in dec.degrees:
            expected = 0 if d <= -1 else dec.piece_dim(d) - dec.piece_dim(d + 2)
            assert kernel_dims.get(d, 0) == expected, (fam, p, d)
