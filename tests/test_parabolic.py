import functools
from fractions import Fraction

import pytest

from dense_reference import fraction_diagonal
from goodgradings.algebras import AlgebraSpec, Family, build_algebra, \
    graded_decomposition
from goodgradings.classify import good_gradings
from goodgradings.gradings import characteristic_of
from goodgradings.parabolic import (ParabolicSpec, generic_richardson_oracle,
                                    grading_is_good_generic, parabolic_grading,
                                    richardson_is_good)
from goodgradings.partitions import (centralizer_dim, orthogonal_partitions,
                                     partitions, symplectic_partitions)
from goodgradings.pyramids import compositions

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
    # the elements hold 2H; a gl one modulo scalars
    H = parabolic_grading(par(A, 4, (1, 2, 1)))
    assert fraction_diagonal(H) == (2, 0, 0, -2)
    H = parabolic_grading(par(C, 4, (1,), q=2))
    assert H.doubled == (4, 0, -4, 0)
    # Lagrangian flag ending in a 1-jump pins the last vector to degree 0
    H = parabolic_grading(par(SO, 8, (1, 2, 1)))
    assert H.doubled[:4] == (8, 4, 4, 0)
    H = parabolic_grading(par(SO, 8, (2, 2)))
    assert H.doubled[:4] == (6, 6, 2, 2)


def test_parabolic_gradings_are_even():
    for p in [par(A, 5, (2, 3)), par(C, 6, (1, 2)), par(SO, 7, (1, 2), q=1),
              par(SO, 8, (3, 1)), par(SO, 8, (1, 1), q=4)]:
        fam = p.spec.family
        spec = AlgebraSpec(Family.GL, p.spec.size) if fam is A else p.spec
        g = build_algebra(spec)
        assert all(d % 2 == 0
                   for d in graded_decomposition(g, parabolic_grading(p)))


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


# -- an exact decider for the closed form ---------------------------------------


@functools.cache
def good_characteristics(spec):
    """{dim g^e: the fork-normalized characteristics of the good
    gradings of e}, over the nonzero orbits of the algebra."""
    walk = {A: partitions, C: symplectic_partitions,
            SO: orthogonal_partitions}[spec.family]
    found = {}
    for p in walk(spec.size):
        if not p.is_zero_orbit():
            found.setdefault(centralizer_dim(spec.family, p), set()).update(
                ent.characteristic.normalized()
                for ent in good_gradings(spec, p).entries)
    return found


def exact_richardson_is_good(p):
    """The parabolic's even grading H is good iff it is, up to
    conjugacy, a good grading of an orbit with dim g^e = dim g_0.  A good
    element of an even grading has dim g^e = dim g_0, so its G_0-orbit is
    open in g_2: it is the Richardson element."""
    H = parabolic_grading(p)
    dim_g0 = graded_decomposition(build_algebra(p.spec), H).count(0)
    return characteristic_of(H).normalized() \
        in good_characteristics(p.spec).get(dim_g0, ())


def test_closed_form_equals_the_exact_decider():
    # the 512 parabolic classes of the equivalence fixture: A n <= 8 and
    # B/C/D N <= 12
    classes = [par(A, n, c) for n in range(2, 9) for c in compositions(n)
               if len(c) >= 2]
    for fam, sizes in ((C, range(2, 13, 2)), (SO, range(3, 13))):
        for N in sizes:
            for q in range(N % 2, N, 2):
                if not (fam is SO and N % 2 == 0 and q == 2):
                    classes += [par(fam, N, c, q)
                                for c in compositions((N - q) // 2)]
    assert len(classes) == 512
    for p in classes:
        assert richardson_is_good(p) == exact_richardson_is_good(p), p
