from fractions import Fraction

import pytest

from goodgradings.algebras import AlgebraSpec, Family, build_algebra, \
    graded_decomposition
from goodgradings.parabolic import (ParabolicSpec, generic_richardson_oracle,
                                    grading_is_good_generic, parabolic_grading,
                                    richardson_is_good)

A = Family.GL
C = Family.SP
SO = Family.SO


def par(fam, size, blocks, q=0):
    return ParabolicSpec(AlgebraSpec(fam, size), blocks, q)


def test_validation():
    with pytest.raises(ValueError):
        par(A, 4, (2, 1))          # wrong total
    with pytest.raises(ValueError):
        par(A, 3, (2, 1), q=1)     # q must vanish in type A
    with pytest.raises(ValueError):
        par(C, 6, (1, 2), q=1)     # N - q odd
    with pytest.raises(ValueError):
        par(SO, 8, (3,), q=2)      # q = 2 excluded for even size
    with pytest.raises(ValueError):
        par(C, 6, (), q=6)         # empty composition
    with pytest.raises(ValueError):
        par(C, 6, (0, 3), q=0)
    # blocks and q are ints: floats and Fractions are not truncated
    with pytest.raises(TypeError):
        par(A, 3, (2.0, 1))
    with pytest.raises(TypeError):
        par(A, 3, (Fraction(2), 1))
    with pytest.raises(TypeError):
        par(C, 8, (1, 2), q=2.0)


def test_type_a_criterion():
    assert richardson_is_good(par(A, 4, (1, 2, 1)))
    assert not richardson_is_good(par(A, 5, (2, 1, 2)))
    assert richardson_is_good(par(A, 5, (1, 1, 1, 1, 1)))


def test_single_type_a_block_is_refused():
    # one block is all of gl_n: its Richardson element is zero, so the
    # closed form refuses it as the generic oracle does
    for n in range(1, 9):
        p = par(A, n, (n,))
        with pytest.raises(ValueError, match="degree-2 piece is zero"):
            richardson_is_good(p)
        with pytest.raises(ValueError, match="degree-2 piece is zero"):
            generic_richardson_oracle(p)


def test_sp_criterion():
    assert richardson_is_good(par(C, 6, (1, 2)))
    assert not richardson_is_good(par(C, 6, (2, 1)))
    # q > 0 requires cap and distinct odd values
    assert richardson_is_good(par(C, 8, (1, 2), q=2))
    assert not richardson_is_good(par(C, 8, (1, 1), q=4))  # odd value twice
    assert not richardson_is_good(par(C, 8, (3,), q=2))    # exceeds cap


def test_so_odd_criterion():
    # increasing within cap
    assert richardson_is_good(par(SO, 7, (1, 1), q=3))
    # one entry q+1 at the very end
    assert richardson_is_good(par(SO, 5, (2,), q=1))
    # q+1 inside a run of q's
    assert richardson_is_good(par(SO, 9, (1, 2, 1), q=1))
    assert richardson_is_good(par(SO, 9, (2, 1, 1), q=1))
    # two entries above the cap
    assert not richardson_is_good(par(SO, 11, (2, 2, 1), q=1))
    assert not richardson_is_good(par(SO, 7, (3,), q=1))


def test_so_even_criterion():
    assert richardson_is_good(par(SO, 8, (2, 2)))
    assert richardson_is_good(par(SO, 8, (1, 3)))
    assert not richardson_is_good(par(SO, 8, (1, 1, 2)))   # odd value twice
    assert richardson_is_good(par(SO, 8, (1, 1), q=4))
    # sporadic small-part families
    assert richardson_is_good(par(SO, 8, (1, 2, 1)))
    assert richardson_is_good(par(SO, 8, (3, 1)))
    assert richardson_is_good(par(SO, 8, (1, 1, 1, 1)))
    assert richardson_is_good(par(SO, 6, (2, 1)))
    assert not richardson_is_good(par(SO, 8, (2, 1, 1)))


def test_parabolic_grading_shapes():
    H = parabolic_grading(par(A, 4, (1, 2, 1)))
    assert H.diagonal == (Fraction(2), Fraction(0), Fraction(0), Fraction(-2))
    H = parabolic_grading(par(C, 4, (1,), q=2))
    assert H.diagonal == (Fraction(2), Fraction(0), Fraction(-2), Fraction(0))
    # Lagrangian flag ending in a 1-jump pins the last vector to degree 0
    H = parabolic_grading(par(SO, 8, (1, 2, 1)))
    assert H.diagonal[:4] == (Fraction(4), Fraction(2), Fraction(2), Fraction(0))
    H = parabolic_grading(par(SO, 8, (2, 2)))
    assert H.diagonal[:4] == (Fraction(3), Fraction(3), Fraction(1), Fraction(1))


def test_parabolic_gradings_are_even():
    for p in [par(A, 5, (2, 3)), par(C, 6, (1, 2)), par(SO, 7, (1, 2), q=1),
              par(SO, 8, (3, 1)), par(SO, 8, (1, 1), q=4)]:
        fam = p.spec.family
        spec = AlgebraSpec(Family.GL, p.spec.size) if fam is A else p.spec
        g = build_algebra(spec)
        assert graded_decomposition(g, parabolic_grading(p)).is_even()


def test_oracle_examples():
    assert generic_richardson_oracle(par(A, 4, (1, 1, 1, 1)))
    assert not generic_richardson_oracle(par(A, 5, (2, 1, 2)))
    assert generic_richardson_oracle(par(SO, 8, (1, 1), q=4))
    assert generic_richardson_oracle(par(SO, 8, (1, 2, 1)))
    assert not generic_richardson_oracle(par(SO, 8, (2, 1, 1)))


def test_oracle_empty_degree_two_piece():
    with pytest.raises(ValueError):
        generic_richardson_oracle(par(A, 3, (3,)))


def test_oracle_seed_reproducible():
    p = par(SO, 8, (1, 3))
    assert generic_richardson_oracle(p) == generic_richardson_oracle(p)


def test_grading_is_good_generic_rejects_empty():
    spec = AlgebraSpec(Family.GL, 2)
    g = build_algebra(spec)
    from goodgradings.algebras import GradingElement
    with pytest.raises(ValueError):
        grading_is_good_generic(g, GradingElement(spec, (0, 0)))
