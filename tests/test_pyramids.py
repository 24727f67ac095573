from fractions import Fraction

import pytest

from goodgradings.algebras import AlgebraSpec, Family
from goodgradings.classify import center_torus
from goodgradings.partitions import (Partition, orthogonal_partitions,
                                     partitions, symplectic_partitions)
from goodgradings.pyramids import (Pyramid, Row, TYPE_A, compositions,
                                   enumerate_pyramids, is_unimodal,
                                   orthogonal_pyramid, orthogonal_pyramids,
                                   pyramid_to_unimodal, render_pyramid,
                                   symmetric_pyramid, symplectic_pyramid,
                                   symplectic_pyramids, unimodal_compositions,
                                   unimodal_to_pyramid)
from goodgradings.series import pyramid_count_formula


def coords(pyr):
    return sorted(pyr.boxes())


def test_symmetric_pyramid_examples():
    p3 = symmetric_pyramid(Partition((3,)))
    assert [x for x, _ in p3.boxes()] == [-2, 0, 2]
    p21 = symmetric_pyramid(Partition((2, 1)))
    assert coords(p21) == [(-1, 1), (0, 2), (1, 1)]
    p22 = symmetric_pyramid(Partition((2, 2)))
    assert coords(p22) == [(-1, 1), (-1, 2), (1, 1), (1, 2)]


def test_type_a_validation():
    with pytest.raises(ValueError):
        # bottom row not centered
        Pyramid(TYPE_A, (Row(y=1, first=Fraction(0), count=2),))
    with pytest.raises(ValueError):
        # second row sticks out
        Pyramid(TYPE_A, (Row(y=1, first=Fraction(-1), count=2),
                         Row(y=2, first=Fraction(-3), count=2)))
    # composition parts are ints: neither truncated nor rounded
    for u in [(1.7, 2.2), (Fraction(3, 2), 2)]:
        with pytest.raises(TypeError):
            unimodal_to_pyramid(u)


def test_enumeration_counts_to_ten():
    for n in range(1, 11):
        for p in partitions(n):
            assert len(enumerate_pyramids(p)) == pyramid_count_formula(p)


def test_enumeration_examples():
    assert len(enumerate_pyramids(Partition((4,)))) == 1
    pyrs = enumerate_pyramids(Partition((2, 1)))
    assert [pyr.rows[1].first for pyr in pyrs] == [-1, 0, 1]


def test_symplectic_pyramid_counts():
    assert len(symplectic_pyramids(Partition((2, 2)))) == 3
    assert len(symplectic_pyramids(Partition((4, 4, 2, 2)))) == 5
    assert len(symplectic_pyramids(Partition((3, 3, 2, 2)))) == 2
    assert len(symplectic_pyramids(Partition((2, 1, 1)))) == 1
    assert len(symplectic_pyramids(Partition((4, 2)))) == 1


def test_orthogonal_pyramid_counts():
    assert len(orthogonal_pyramids(Partition((3, 1)))) == 1
    assert len(orthogonal_pyramids(Partition((5, 3, 1)))) == 1
    assert len(orthogonal_pyramids(Partition((3, 3, 1)))) == 2
    assert len(orthogonal_pyramids(Partition((5, 1, 1)))) == 5
    assert len(orthogonal_pyramids(Partition((3, 3, 1, 1)))) == 7
    assert len(orthogonal_pyramids(Partition((2, 2, 1, 1)))) == 2


def test_half_shift_pyramids_have_half_coordinates():
    pyrs = symplectic_pyramids(Partition((2, 2)))
    halves = [pyr for pyr in pyrs
              if any(x.denominator == 2 for x, _ in pyr.boxes())]
    assert len(halves) == 1
    assert sorted(x for x, _ in halves[0].boxes()) == \
        [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]


def test_box_coordinates_are_exact_ints_or_halves():
    # an integral coordinate is an int, never an integral Fraction, so
    # integer pyramids are hashed, sorted and added as ints
    def exact(pyr):
        return all(type(x) is int or (type(x) is Fraction and x.denominator == 2)
                   for x, _ in pyr.boxes())

    specs = [(AlgebraSpec(Family.GL, n), partitions) for n in range(1, 10)] \
        + [(AlgebraSpec(Family.SP, N), symplectic_partitions)
           for N in range(2, 15, 2)] \
        + [(AlgebraSpec(Family.SO, N), orthogonal_partitions)
           for N in range(3, 15)]
    for spec, orbits in specs:
        for p in orbits(spec.size):
            assert all(exact(pyr) for pyr in center_torus(spec, p).pyramids), \
                (spec, p)
    for n in range(1, 9):
        assert all(exact(unimodal_to_pyramid(u)) for u in unimodal_compositions(n))
    first = Row(y=1, first=Fraction(4, 2), count=1).first
    assert type(first) is int and first == 2
    with pytest.raises(TypeError):
        Row(y=1, first=0.5, count=1)


def test_joint_row_structure():
    pyr = orthogonal_pyramid(Partition((5, 3)))
    joint = [r for r in pyr.rows if r.role == "joint" and r.y > 0]
    assert len(joint) == 1
    assert joint[0].coords() == (Fraction(-2), Fraction(0), Fraction(2), Fraction(4))


def test_middle_box_routing_rows():
    pyr = orthogonal_pyramid(Partition((5, 5, 3)))
    roles = {r.role for r in pyr.rows}
    assert "center" in roles and "v0half" in roles
    half = next(r for r in pyr.rows if r.role == "v0half" and r.y > 0)
    assert half.coords() == (Fraction(2),)


def test_central_symmetry_everywhere():
    for n in range(2, 9):
        for p in symplectic_partitions(n) if n % 2 == 0 else []:
            for pyr in symplectic_pyramids(p):
                boxes = pyr.boxes()
                assert sorted(boxes) == sorted((-x, -y) for x, y in boxes)
        for p in orthogonal_partitions(n):
            for pyr in orthogonal_pyramids(p):
                boxes = pyr.boxes()
                assert sorted(boxes) == sorted((-x, -y) for x, y in boxes)


def test_box_totals():
    for parts in [(2, 2), (4, 2), (3, 3, 2, 2)]:
        p = Partition(parts)
        assert symplectic_pyramid(p).size() == p.n
    for parts in [(3, 1), (5, 3, 1), (3, 3, 1, 1), (5, 5, 3)]:
        p = Partition(parts)
        assert orthogonal_pyramid(p).size() == p.n


def test_unimodal_recognition():
    assert is_unimodal((1, 2, 1))
    assert is_unimodal((1, 1, 1))
    assert not is_unimodal((2, 1, 2))


def test_unimodal_counts():
    assert unimodal_compositions(1) == [(1,)]
    assert len(unimodal_compositions(3)) == 4
    assert len(unimodal_compositions(5)) == 15
    assert (2, 1, 2) not in unimodal_compositions(5)


def test_unimodal_bijection_examples():
    pyr = unimodal_to_pyramid((1, 1, 1))
    assert len(pyr.rows) == 1 and pyr.rows[0].count == 3
    assert pyramid_to_unimodal(pyr) == (1, 1, 1)
    pyr = unimodal_to_pyramid((1, 2, 1))
    assert Partition(tuple(sorted((r.count for r in pyr.rows), reverse=True))) \
        == Partition((3, 1))
    with pytest.raises(ValueError):
        unimodal_to_pyramid((2, 1, 2))


def test_unimodal_bijection_round_trip():
    for n in range(1, 11):
        for u in unimodal_compositions(n):
            assert pyramid_to_unimodal(unimodal_to_pyramid(u)) == u


def test_mixed_parity_pyramid_rejected_by_column_reading():
    pyr = enumerate_pyramids(Partition((2, 1)))[1]  # middle shift: odd grading
    with pytest.raises(ValueError):
        pyramid_to_unimodal(pyr)


def test_render_basic():
    out = render_pyramid(symmetric_pyramid(Partition((3,))))
    assert out == "[__][__][__]"
    stairs = render_pyramid(symmetric_pyramid(Partition((2, 1))))
    lines = stairs.splitlines()
    assert len(lines) == 2
    assert lines[1] == "[__][__]"


def test_render_half_shift_offsets_by_one_char():
    half = symplectic_pyramids(Partition((2, 2)))[-1]
    lines = render_pyramid(half).splitlines()
    assert lines[0].startswith("  [__]")  # upper row shifted right by 1/2
    assert lines[1].startswith("[__]")


def test_compositions_count():
    assert sum(1 for _ in compositions(5)) == 16
