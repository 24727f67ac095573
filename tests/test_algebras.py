import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from dense_reference import (Matrix, bracket, dense, fraction_diagonal,
                             grading_element, rank)
from goodgradings.algebras import (AlgebraSpec, Family, GradingElement,
                                   ad_coordinate_matrix, build_algebra,
                                   ad, graded_decomposition)
from goodgradings.gradings import ad_blocks, nilpotent_of_pyramid
from goodgradings.partitions import (Partition, centralizer_dim,
                                     orthogonal_partitions, partitions,
                                     symplectic_partitions)
from goodgradings.pyramids import (orthogonal_pyramid, symmetric_pyramid,
                                   symplectic_pyramid)


def dense_coordinates(g, x):
    """The coordinate tuple of a member, zeros included."""
    coords = g.sparse_coordinates(x)
    return tuple(coords.get(k, 0) for k in range(g.dim))


def dense_centralizer_dim(g, e):
    """dim g^e from the dense ad e: dim g minus its rank."""
    return g.dim - rank(Matrix(ad_coordinate_matrix(g, e)))


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
            assert g.contains(g.elements[k])


def test_bracket_closure_and_coordinates():
    rng = random.Random(3)
    for spec in [AlgebraSpec(Family.SP, 4), AlgebraSpec(Family.SO, 5),
                 AlgebraSpec(Family.GL, 3)]:
        g = build_algebra(spec)
        for _ in range(25):
            a = rng.randrange(g.dim)
            b = rng.randrange(g.dim)
            m = ad(g.elements[a])(g.elements[b])
            n = spec.size
            assert dense(m, n) == bracket(dense(g.elements[a], n),
                                          dense(g.elements[b], n))
            assert g.contains(m)
            assert g.from_coordinates(dense_coordinates(g, m)) == m


def test_ad_equals_the_dense_bracket_on_elements_with_many_entries():
    # basis elements have at most two entries, which never share a row
    # or a column; pyramid nilpotents and dense random combinations do,
    # so the row and column index of ad(x) meets several entries of y
    rng = random.Random(17)
    cases = [(AlgebraSpec(Family.GL, 5), partitions, symmetric_pyramid),
             (AlgebraSpec(Family.SP, 6), symplectic_partitions,
              symplectic_pyramid),
             (AlgebraSpec(Family.SO, 7), orthogonal_partitions,
              orthogonal_pyramid),
             (AlgebraSpec(Family.SO, 8), orthogonal_partitions,
              orthogonal_pyramid)]
    for spec, walk, pyramid in cases:
        g = build_algebra(spec)
        n = spec.size
        elems = [nilpotent_of_pyramid(g, pyramid(p)) for p in walk(n)]
        elems += [g.from_coordinates([rng.choice((0, 1, -1, 2, -3))
                                      for _ in range(g.dim)])
                  for _ in range(6)]
        assert all(len({i for i, _ in x}) < len(x) for x in elems[-6:])
        for x in elems:
            ad_x = ad(x)
            for y in elems:
                m = ad_x(y)
                assert dense(m, n) == bracket(dense(x, n), dense(y, n))
                assert all(type(v) is int and v for v in m.values())
                assert g.contains(m)


def test_contains_matches_coordinate_roundtrip():
    # m lies in g exactly when rebuilding it from its coordinates gives
    # m back; members get a random entry perturbed half of the time
    rng = random.Random(7)
    for spec in [AlgebraSpec(Family.SP, 4), AlgebraSpec(Family.SO, 5),
                 AlgebraSpec(Family.SO, 6), AlgebraSpec(Family.GL, 3)]:
        g = build_algebra(spec)
        n = spec.size
        # fixed cases: the entry at (v_1, v_{-1}) is its own mirror, so it
        # lies in sp but not in so; a two-entry basis element with its
        # mirror entry negated, or either half alone, lies in neither
        if spec.family is not Family.GL:
            corner = (g.position[1], g.position[-1])
            assert g.contains({corner: 1}) == (spec.family is Family.SP)
        for elem in g.elements:
            if len(elem) == 2:
                (k1, v1), (k2, v2) = elem.items()
                assert not g.contains({k1: v1, k2: -v2})
                assert not g.contains({k1: v1})
                assert not g.contains({k2: v2})
        seen = set()
        for _ in range(300):
            m = g.from_coordinates([rng.choice((0, 0, 1, -2))
                                    for _ in range(g.dim)])
            if rng.random() < 0.5:
                key = rng.randrange(n), rng.randrange(n)
                m[key] = m.get(key, 0) + rng.choice((1, -1))
                if not m[key]:
                    del m[key]
            member = g.from_coordinates(dense_coordinates(g, m)) == m
            assert g.contains(m) == member
            seen.add(member)
        assert seen == ({True} if spec.family is Family.GL else {True, False})


def test_bracket_antisymmetry_and_jacobi():
    g = build_algebra(AlgebraSpec(Family.SP, 4))
    rng = random.Random(5)
    mats = [dense(g.elements[rng.randrange(g.dim)], 4) for _ in range(6)]
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
    assert dense_centralizer_dim(g, {}) == 9
    for n in range(2, 6):
        gn = build_algebra(AlgebraSpec(Family.GL, n))
        e = nilpotent_of_pyramid(gn,
                                 symmetric_pyramid(Partition((n,))))
        assert dense_centralizer_dim(gn, e) == n
    e = nilpotent_of_pyramid(g, symmetric_pyramid(Partition((2, 1))))
    assert dense_centralizer_dim(g, e) == 5


def test_centralizer_matches_dual_square_sum():
    # the closed form against dim g minus the block ranks of ad e on every
    # nonzero orbit of gl_n (n <= 6, and the dense rank too), sp_N and
    # so_N (N <= 10)
    families = [(Family.GL, range(2, 7), partitions, symmetric_pyramid),
                (Family.SP, range(2, 11, 2), symplectic_partitions,
                 symplectic_pyramid),
                (Family.SO, range(3, 11), orthogonal_partitions,
                 orthogonal_pyramid)]
    seen = Counter()
    for family, sizes, walk, pyramid in families:
        for n in sizes:
            g = build_algebra(AlgebraSpec(family, n))
            for p in walk(n):
                if p.is_zero_orbit():
                    continue
                e = nilpotent_of_pyramid(g, pyramid(p))
                ranks = sum(rk for *_, rk in ad_blocks(g, e).blocks)
                assert centralizer_dim(family, p) == g.dim - ranks, (n, p)
                if family is Family.GL:
                    assert dense_centralizer_dim(g, e) == g.dim - ranks
                seen[family] += 1
    assert seen == {Family.GL: 23, Family.SP: 47, Family.SO: 52}


def test_centralizer_requires_membership():
    # dim g^e comes from the blocks of ad e, which refuse a diagonal
    # entry of sp_4 without its mirror entry
    g = build_algebra(AlgebraSpec(Family.SP, 4))
    with pytest.raises(ValueError, match="does not lie in the algebra"):
        ad_blocks(g, {(0, 0): 1})


def test_graded_decomposition_gl2():
    spec = AlgebraSpec(Family.GL, 2)
    g = build_algebra(spec)
    H = GradingElement(spec, (2, -2))  # 2H for H = diag(1, -1)
    degrees = graded_decomposition(g, H)
    assert degrees == (2, -2, 0, 0)  # E_12, E_21, E_11, E_22
    assert Counter(degrees) == {-2: 1, 0: 2, 2: 1}


def test_graded_decomposition_sp4():
    spec = AlgebraSpec(Family.SP, 4)
    g = build_algebra(spec)
    H = GradingElement(spec, (2, 2, -2, -2))
    degrees = graded_decomposition(g, H)
    assert len(degrees) == g.dim
    assert Counter(degrees) == {-2: 3, 0: 4, 2: 3}


def test_trivial_grading():
    spec = AlgebraSpec(Family.GL, 3)
    g = build_algebra(spec)
    assert graded_decomposition(g, GradingElement(spec, (0, 0, 0))) == (0,) * 9


def test_degrees_are_ints():
    # the diagonal holds half-integers too; the degrees are exact ints,
    # so a piece g_d is counted under the int d only
    gl = {0: 3, 2: 2, -2: 2, 4: 1, -4: 1}
    for spec, diag, sizes in [
            (AlgebraSpec(Family.GL, 3), (2, 0, -2), gl),
            (AlgebraSpec(Family.GL, 3),
             (Fraction(5, 2), Fraction(1, 2), Fraction(-3, 2)), gl),
            (AlgebraSpec(Family.SP, 4),
             (Fraction(3, 2), Fraction(1, 2), Fraction(-3, 2), Fraction(-1, 2)),
             {0: 2, 1: 2, -1: 2, 2: 1, -2: 1, 3: 1, -3: 1})]:
        degrees = graded_decomposition(build_algebra(spec),
                                       grading_element(spec, diag))
        assert all(type(d) is int for d in degrees), diag
        assert Counter(degrees) == sizes, diag


def test_gl_grading_elements_are_stored_traceless():
    # a scalar acts trivially under ad, so d and d + c are one grading:
    # 2(d - d_0) is stored, and the traceless diagonal is read off it
    spec = AlgebraSpec(Family.GL, 4)
    for diag in [(3, 1, 0, -2), (Fraction(5, 2), Fraction(1, 2),
                                 Fraction(-1, 2), Fraction(3, 2))]:
        H = grading_element(spec, diag)
        assert H.doubled[0] == 0
        assert all(type(d) is int for d in H.doubled)
        traceless = fraction_diagonal(H)
        assert sum(traceless) == 0
        assert [a - b for a, b in zip(traceless, traceless[1:])] \
            == [a - b for a, b in zip(diag, diag[1:])]
        for c in (1, -3, Fraction(1, 2), Fraction(-7, 2)):
            shifted = grading_element(spec, tuple(d + c for d in diag))
            assert shifted == H and shifted.doubled == H.doubled
            assert hash(shifted) == hash(H)
    assert GradingElement(AlgebraSpec(Family.GL, 1), (5,)).doubled == (0,)
    # sp/so diagonals sum to zero by their pairing and are stored as given
    for spec, doubled in [(AlgebraSpec(Family.SP, 4), (4, 2, -4, -2)),
                          (AlgebraSpec(Family.SO, 5), (3, 1, 0, -3, -1))]:
        assert GradingElement(spec, doubled).doubled == doubled


def test_grading_element_refuses_entries_that_are_not_ints():
    # the doubled diagonal is read through operator.index, as rref reads
    # its rows: an integral Fraction is refused too
    for spec, diag in [(AlgebraSpec(Family.GL, 2), [2, -2]),
                       (AlgebraSpec(Family.SP, 2), [1, -1]),
                       (AlgebraSpec(Family.SO, 3), [2, 0, -2])]:
        GradingElement(spec, tuple(diag))
        for bad in (Fraction(1, 2), Fraction(2), 2.0, 0.5):
            with pytest.raises(TypeError):
                GradingElement(spec, (bad,) + tuple(diag[1:]))


def test_grading_element_validation():
    pairing, middle = "not form-compatible", "middle diagonal entry"
    with pytest.raises(ValueError, match=pairing):
        GradingElement(AlgebraSpec(Family.SP, 4), (1, 1, -1, 1))
    with pytest.raises(ValueError, match=pairing):
        GradingElement(AlgebraSpec(Family.SO, 6), (2, 1, 0, -2, 1, 0))
    with pytest.raises(ValueError, match=middle):
        GradingElement(AlgebraSpec(Family.SO, 5), (1, 1, 1, -1, -1))
    # pairing is checked before the middle entry
    with pytest.raises(ValueError, match=pairing):
        GradingElement(AlgebraSpec(Family.SO, 5), (1, 1, 1, -1, 1))
    # only the pairing fails: the middle entry vanishes
    with pytest.raises(ValueError, match=pairing):
        GradingElement(AlgebraSpec(Family.SO, 7), (3, 1, 2, 0, -3, -1, 2))
    GradingElement(AlgebraSpec(Family.SO, 7), (3, 1, 2, 0, -3, -1, -2))


def check_integral_decomposition(g, H):
    """The reference for `is_integral` and `graded_decomposition`: the
    ad H degrees, computed here as differences of the Fraction diagonal
    entries over the basis.  H is integral iff they are all integers;
    the decomposition refuses exactly the other H, and otherwise returns
    them as ints.  Returns the verdict."""
    pos, diag = g.position, fraction_diagonal(H)
    reference = [diag[pos[i]] - diag[pos[j]] for i, j in g.labels]
    verdict = H.is_integral()
    assert verdict == all(d.denominator == 1 for d in reference), H
    if not verdict:
        with pytest.raises(ValueError, match="not an integral grading"):
            graded_decomposition(g, H)
        return verdict
    degrees = graded_decomposition(g, H)
    assert degrees == tuple(reference), H
    assert all(type(d) is int for d in degrees), H
    return verdict


def test_is_integral_matches_decomposition_on_seeded_diagonals():
    # doubled entries share a random parity, then half the time one of
    # them is redrawn with either parity, so both verdicts occur in
    # every family; the odd so middle entry 0 makes an odd parity
    # nonintegral there.  gl_1 and sp_2 (one root, 2 d_1) have only
    # integral half-integer diagonals
    rng = random.Random(5)
    specs = [AlgebraSpec(Family.GL, n) for n in range(1, 8)] \
        + [AlgebraSpec(Family.SP, N) for N in range(2, 11, 2)] \
        + [AlgebraSpec(Family.SO, N) for N in range(3, 11)]
    for spec in specs:
        g = build_algebra(spec)
        width = spec.size if spec.family is Family.GL else spec.size // 2
        verdicts = set()
        for _ in range(100):
            parity = rng.randrange(2)
            free = [2 * rng.randint(-4, 4) + parity for _ in range(width)]
            if rng.random() < 0.5:
                free[rng.randrange(width)] = rng.randint(-8, 8)
            if spec.family is Family.GL:
                doubled = free
            else:
                doubled = free + [0] * (spec.size % 2) + [-x for x in free]
            verdicts.add(check_integral_decomposition(
                g, GradingElement(spec, tuple(doubled))))
        if spec in (AlgebraSpec(Family.GL, 1), AlgebraSpec(Family.SP, 2)):
            assert verdicts == {True}
        else:
            assert verdicts == {True, False}, spec


def test_bracket_degree_additivity():
    spec = AlgebraSpec(Family.SP, 6)
    g = build_algebra(spec)
    H = GradingElement(spec, (4, 2, 0, -4, -2, 0))
    degrees = graded_decomposition(g, H)
    rng = random.Random(11)
    for _ in range(40):
        a = rng.randrange(g.dim)
        b = rng.randrange(g.dim)
        m = ad(g.elements[a])(g.elements[b])
        for k in g.sparse_coordinates(m):
            assert degrees[k] == degrees[a] + degrees[b]


def test_piece_dims_symmetric_under_negation():
    for spec, diag in [
        (AlgebraSpec(Family.GL, 4), (3, 1, 0, -2)),
        (AlgebraSpec(Family.SO, 7), (2, 1, 0, 0, -2, -1, 0)),
        (AlgebraSpec(Family.SP, 4), (Fraction(3, 2), Fraction(1, 2),
                                     Fraction(-3, 2), Fraction(-1, 2))),
    ]:
        g = build_algebra(spec)
        sizes = Counter(graded_decomposition(g, grading_element(spec, diag)))
        for d in sizes:
            assert sizes[d] == sizes[-d]


def test_sparse_roundtrip():
    # coordinates and from_coordinates invert each other on members; int
    # coordinates give int entries, zero entries are never stored, and
    # coordinates that are not ints are refused
    rng = random.Random(2)
    for spec in [AlgebraSpec(Family.GL, 3), AlgebraSpec(Family.SP, 4),
                 AlgebraSpec(Family.SO, 5), AlgebraSpec(Family.SO, 6)]:
        g = build_algebra(spec)
        for _ in range(50):
            coords = tuple(rng.choice((0, 0, 0, 1, -1, 3)) for _ in range(g.dim))
            x = g.from_coordinates(coords)
            assert all(type(v) is int and v for v in x.values())
            assert g.contains(x) and dense_coordinates(g, x) == coords
        for bad in (Fraction(1, 2), Fraction(1), 0.5):
            with pytest.raises(TypeError):
                g.from_coordinates([bad] * g.dim)
        with pytest.raises(ValueError):
            g.from_coordinates([1] * (g.dim + 1))


def test_contains_rejects_keys_outside_the_matrix():
    for spec in [AlgebraSpec(Family.GL, 3), AlgebraSpec(Family.SP, 4),
                 AlgebraSpec(Family.SO, 5)]:
        g = build_algebra(spec)
        n = spec.size
        assert g.contains({}) and g.contains(g.elements[0])
        for key in [(n, 0), (0, n), (-1, 0), (0, -1), (n, n)]:
            assert not g.contains({key: 1}), (spec, key)
            assert not g.contains({**g.elements[0], key: 1}), (spec, key)
