"""The block engine for ad e against the dense reference.

The dense reference is `ad_coordinate_matrix` with rational row
reduction of its degree slices, and `centralizer` (the kernel of the
whole dense ad e).  The block engine never builds either.
"""

from fractions import Fraction

import pytest

from goodgradings import parabolic
from goodgradings.algebras import (AlgebraSpec, Family, GradingElement,
                                   ad_coordinate_matrix, build_algebra,
                                   centralizer)
from goodgradings.classify import good_gradings
from goodgradings.gradings import (ad_blocks, graded_ad_ranks, is_good,
                                   nilpotent_of_pyramid)
from goodgradings.linalg import Matrix, rref
from goodgradings.parabolic import ParabolicSpec, grading_is_good_generic
from goodgradings.partitions import (orthogonal_partitions, partitions,
                                     symplectic_partitions)
from goodgradings.pyramids import (orthogonal_pyramid, symmetric_pyramid,
                                   symplectic_pyramid)

GL = Family.GL
SP = Family.SP
SO = Family.SO


def _orbits():
    """Every nonzero orbit with A: n <= 7 and B/C/D: N <= 10, with the
    pyramid its nilpotent is built from."""
    for n in range(2, 8):
        for p in partitions(n):
            yield AlgebraSpec(GL, n), p, symmetric_pyramid(p)
    for N in range(2, 11, 2):
        for p in symplectic_partitions(N):
            yield AlgebraSpec(SP, N), p, symplectic_pyramid(p)
    for N in range(3, 11):
        for p in orthogonal_partitions(N):
            yield AlgebraSpec(SO, N), p, orthogonal_pyramid(p)


def _dense_ranks(ad: Matrix, dec) -> dict:
    ranks = {}
    for d, cols in dec.buckets.items():
        rows = dec.buckets.get(d + 2, ())
        sub = [[ad.data[r][c] for c in cols] for r in rows]
        ranks[d] = len(rref(sub)[1]) if rows else 0
    return ranks


def _check_against_dense(g, e, ranks, dec, ad=None):
    ad = ad_coordinate_matrix(g, e) if ad is None else ad
    assert ranks == _dense_ranks(ad, dec)


def test_block_ranks_equal_dense_slices_on_every_orbit():
    orbits = gradings = 0
    for spec, p, base in _orbits():
        if p.is_zero_orbit():
            continue
        g = build_algebra(spec)
        e = nilpotent_of_pyramid(spec, base)
        ad = ad_coordinate_matrix(g, e)
        blocks = ad_blocks(g, e)
        centralizer_dim = centralizer(g, e).dim
        for ent in good_gradings(spec, p).entries:
            dec, ranks = graded_ad_ranks(g, ent.H, e, blocks)
            _check_against_dense(g, e, ranks, dec, ad)
            assert g.dim - sum(ranks.values()) == centralizer_dim, (spec, p)
            gradings += 1
        orbits += 1
    assert (orbits, gradings) == (136, 311)


def test_block_ranks_equal_dense_slices_on_generic_samples(monkeypatch):
    seen = []

    def checked(g, H, e, blocks=None, dec=None):
        dec, ranks = graded_ad_ranks(g, H, e, blocks, dec)
        _check_against_dense(g, e, ranks, dec)
        seen.append(e)
        return dec, ranks

    monkeypatch.setattr(parabolic, "graded_ad_ranks", checked)
    for spec, blocks, q, good in [
        (AlgebraSpec(GL, 4), (1, 2, 1), 0, True),
        (AlgebraSpec(GL, 5), (2, 1, 2), 0, False),
        (AlgebraSpec(SP, 6), (2, 1), 0, False),
        (AlgebraSpec(SO, 7), (1, 1), 3, True),
        (AlgebraSpec(SO, 8), (2, 1, 1), 0, False),
    ]:
        par = ParabolicSpec(spec, blocks, q)
        g = build_algebra(spec)
        H = parabolic.parabolic_grading(par)
        assert grading_is_good_generic(g, H) is good
    assert len(seen) >= 3 * 16


def test_blocks_are_disjoint_and_cover_the_nonzero_columns():
    spec = AlgebraSpec(SO, 9)
    g = build_algebra(spec)
    e = nilpotent_of_pyramid(spec, orthogonal_pyramid(
        next(p for p in orthogonal_partitions(9) if p.parts == (3, 3, 1, 1, 1))))
    ad = ad_coordinate_matrix(g, e)
    blocks = ad_blocks(g, e).blocks
    columns = [c for cols, _, _ in blocks for c in cols]
    rows = [r for _, rs, _ in blocks for r in rs]
    assert len(columns) == len(set(columns)) and len(rows) == len(set(rows))
    assert set(columns) == {c for c in range(g.dim)
                            if any(ad.data[r][c] for r in range(g.dim))}
    assert set(rows) == {r for r in range(g.dim) if any(ad.data[r])}
    assert all(rk == 1 for cols, rs, rk in blocks
               if len(cols) == 1 or len(rs) == 1)


def test_inhomogeneous_element_is_rejected_not_ranked():
    spec = AlgebraSpec(GL, 3)
    g = build_algebra(spec)
    H = GradingElement(spec, (Fraction(2), Fraction(0), Fraction(0)))
    e12 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # degree 2
    e23 = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])  # degree 0
    e13 = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])  # degree 2
    dec, ranks = graded_ad_ranks(g, H, e12 + e13)  # degree 2: accepted
    _check_against_dense(g, e12 + e13, ranks, dec)
    for e in (e12 + e23, e23):
        with pytest.raises(ValueError):
            is_good(g, H, e)
        with pytest.raises(ValueError):
            graded_ad_ranks(g, H, e)
    # homogeneous, but of degree 4
    H4 = GradingElement(spec, (Fraction(4), Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        is_good(g, H4, e12)
    with pytest.raises(ValueError):
        graded_ad_ranks(g, H4, e12)


def test_blocks_of_another_element_are_rejected():
    spec = AlgebraSpec(GL, 3)
    g = build_algebra(spec)
    H = GradingElement(spec, (Fraction(2), Fraction(0), Fraction(-2)))
    e12 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e23 = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    other = ad_blocks(g, e23)
    with pytest.raises(ValueError):
        is_good(g, H, e12, other)
    with pytest.raises(ValueError):
        graded_ad_ranks(g, H, e12, other)
    copy = Matrix(e12.data)
    assert is_good(g, H, e12, ad_blocks(g, copy)) == is_good(g, H, e12)


def test_element_outside_the_algebra_is_rejected():
    # a lone matrix unit without its mirror entry lies in neither so_5 nor
    # sp_4; sparse coordinates would drop the unowned entry, so the
    # blocks must refuse it, and is_good with them
    for spec, diag in [(AlgebraSpec(SO, 5), (2, 0, 0, -2, 0)),
                       (AlgebraSpec(SP, 4), (2, 0, -2, 0))]:
        g = build_algebra(spec)
        H = GradingElement(spec, tuple(map(Fraction, diag)))
        e = Matrix.zeros(spec.size, spec.size)
        e.data[0][1] = Fraction(1)  # degree 2 under H
        with pytest.raises(ValueError, match="does not lie in the algebra"):
            ad_blocks(g, e)
        with pytest.raises(ValueError, match="does not lie in the algebra"):
            is_good(g, H, e)
