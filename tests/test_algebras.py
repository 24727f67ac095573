import itertools
import random
from fractions import Fraction

import pytest

from goodgradings.algebras import (AlgebraSpec, Family, GradingElement,
                                   build_algebra, centralizer,
                                   graded_decomposition, matrix_to_sparse,
                                   sparse_bracket, sparse_to_matrix)
from goodgradings.gradings import nilpotent_of_pyramid
from goodgradings.linalg import Matrix, bracket
from goodgradings.partitions import Partition, gl_centralizer_dim
from goodgradings.pyramids import symmetric_pyramid


def test_dimensions():
    assert build_algebra(AlgebraSpec(Family.SP, 2)).dim == 3
    assert build_algebra(AlgebraSpec(Family.SO, 4)).dim == 6
    assert build_algebra(AlgebraSpec(Family.GL, 3)).dim == 9
    assert build_algebra(AlgebraSpec(Family.SP, 6)).dim == 21
    assert build_algebra(AlgebraSpec(Family.SO, 7)).dim == 21


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec(Family.SP, 5)
    with pytest.raises(ValueError):
        AlgebraSpec(Family.SO, 2)


def test_basis_lies_in_algebra():
    for spec in [AlgebraSpec(Family.GL, 3), AlgebraSpec(Family.SP, 4),
                 AlgebraSpec(Family.SO, 5), AlgebraSpec(Family.SO, 6)]:
        g = build_algebra(spec)
        for k in range(g.dim):
            assert g.contains(g.basis_matrix(k))


def test_bracket_closure_and_coordinates():
    rng = random.Random(3)
    for spec in [AlgebraSpec(Family.SP, 4), AlgebraSpec(Family.SO, 5),
                 AlgebraSpec(Family.GL, 3)]:
        g = build_algebra(spec)
        for _ in range(25):
            a = rng.randrange(g.dim)
            b = rng.randrange(g.dim)
            m = bracket(g.basis_matrix(a), g.basis_matrix(b))
            assert g.contains(m)
            coords = g.coordinates(m)
            assert g.from_coordinates(coords) == m


def test_contains_matches_coordinate_roundtrip():
    # m lies in g exactly when rebuilding it from its coordinates gives
    # m back; members get a random entry perturbed half of the time
    rng = random.Random(7)
    for spec in [AlgebraSpec(Family.SP, 4), AlgebraSpec(Family.SO, 5),
                 AlgebraSpec(Family.SO, 6), AlgebraSpec(Family.GL, 3)]:
        g = build_algebra(spec)
        n = spec.size
        seen = set()
        for _ in range(300):
            m = g.from_coordinates([rng.choice((0, 0, 1, -2))
                                    for _ in range(g.dim)])
            if rng.random() < 0.5:
                i, j = rng.randrange(n), rng.randrange(n)
                m.data[i][j] += rng.choice((1, -1))
            member = g.from_coordinates(g.coordinates(m)) == m
            assert g.contains(m) == member
            seen.add(member)
        assert seen == ({True} if spec.family is Family.GL else {True, False})


def test_bracket_antisymmetry_and_jacobi():
    g = build_algebra(AlgebraSpec(Family.SP, 4))
    rng = random.Random(5)
    mats = [g.basis_matrix(rng.randrange(g.dim)) for _ in range(6)]
    for x, y in itertools.combinations(mats, 2):
        assert bracket(x, y) == -bracket(y, x)
    for x, y, z in itertools.combinations(mats, 3):
        total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) \
            + bracket(z, bracket(x, y))
        assert total.is_zero()


def test_sl2_relations_in_gl2():
    e = Matrix([[0, 1], [0, 0]])
    f = Matrix([[0, 0], [1, 0]])
    h = Matrix([[1, 0], [0, -1]])
    assert bracket(e, f) == h
    assert bracket(h, e) == e.scale(2)
    assert bracket(e, e).is_zero()


def test_centralizer_dimensions():
    spec = AlgebraSpec(Family.GL, 3)
    g = build_algebra(spec)
    zero = Matrix.zeros(3, 3)
    assert centralizer(g, zero).dim == 9
    for n in range(2, 6):
        gn = build_algebra(AlgebraSpec(Family.GL, n))
        e = nilpotent_of_pyramid(AlgebraSpec(Family.GL, n),
                                 symmetric_pyramid(Partition((n,))))
        assert centralizer(gn, e).dim == n
    e = nilpotent_of_pyramid(spec, symmetric_pyramid(Partition((2, 1))))
    assert centralizer(g, e).dim == 5


def test_centralizer_matches_dual_square_sum():
    for n in range(2, 7):
        spec = AlgebraSpec(Family.GL, n)
        g = build_algebra(spec)
        from goodgradings.partitions import partitions
        for p in partitions(n):
            if p.is_zero_orbit():
                continue
            e = nilpotent_of_pyramid(spec, symmetric_pyramid(p))
            assert centralizer(g, e).dim == gl_centralizer_dim(p)


def test_centralizer_requires_membership():
    g = build_algebra(AlgebraSpec(Family.SP, 4))
    with pytest.raises(ValueError):
        centralizer(g, Matrix([[1, 0, 0, 0], [0, 0, 0, 0],
                               [0, 0, 0, 0], [0, 0, 0, 0]]))


def test_graded_decomposition_gl2():
    spec = AlgebraSpec(Family.GL, 2)
    g = build_algebra(spec)
    H = GradingElement(spec, (Fraction(1), Fraction(-1)))
    dec = graded_decomposition(g, H)
    assert dec.degrees == (Fraction(-2), Fraction(0), Fraction(2))
    assert [dec.piece_dim(d) for d in dec.degrees] == [1, 2, 1]


def test_graded_decomposition_sp4():
    spec = AlgebraSpec(Family.SP, 4)
    g = build_algebra(spec)
    H = GradingElement(spec, (1, 1, -1, -1))
    dec = graded_decomposition(g, H)
    assert dec.degrees == (Fraction(-2), Fraction(0), Fraction(2))
    assert [dec.piece_dim(d) for d in dec.degrees] == [3, 4, 3]
    assert sum(dec.piece_dim(d) for d in dec.degrees) == g.dim


def test_trivial_grading():
    spec = AlgebraSpec(Family.GL, 3)
    g = build_algebra(spec)
    dec = graded_decomposition(g, GradingElement(spec, (0, 0, 0)))
    assert dec.degrees == (Fraction(0),)
    assert dec.piece_dim(0) == 9


def test_grading_element_validation():
    with pytest.raises(ValueError):
        GradingElement(AlgebraSpec(Family.SP, 4), (1, 1, -1, 1))
    with pytest.raises(ValueError):
        GradingElement(AlgebraSpec(Family.SO, 5), (1, 1, 1, -1, -1))


def test_bracket_degree_additivity():
    spec = AlgebraSpec(Family.SP, 6)
    g = build_algebra(spec)
    H = GradingElement(spec, tuple(map(Fraction, (2, 1, 0, -2, -1, 0))))
    dec = graded_decomposition(g, H)
    rng = random.Random(11)
    for _ in range(40):
        a = rng.randrange(g.dim)
        b = rng.randrange(g.dim)
        da = next(d for d, ks in dec.buckets.items() if a in ks)
        db = next(d for d, ks in dec.buckets.items() if b in ks)
        m = sparse_bracket(g.elements[a], g.elements[b])
        coords = g.coordinates_sparse(m)
        for k, c in enumerate(coords):
            if c != 0:
                dk = next(d for d, ks in dec.buckets.items() if k in ks)
                assert dk == da + db


def test_piece_dims_symmetric_under_negation():
    for spec, diag in [
        (AlgebraSpec(Family.GL, 4), (3, 1, 0, -2)),
        (AlgebraSpec(Family.SO, 7), (2, 1, 0, 0, -2, -1, 0)),
        (AlgebraSpec(Family.SP, 4), (Fraction(3, 2), Fraction(1, 2),
                                     Fraction(-3, 2), Fraction(-1, 2))),
    ]:
        g = build_algebra(spec)
        dec = graded_decomposition(g, GradingElement(spec, tuple(map(Fraction, diag))))
        for d in dec.degrees:
            assert dec.piece_dim(d) == dec.piece_dim(-d)


def test_sparse_roundtrip():
    m = Matrix([[0, 2, 0], [0, 0, -1], [3, 0, 0]])
    assert sparse_to_matrix(matrix_to_sparse(m), 3) == m
