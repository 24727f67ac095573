import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import Matrix, bracket, rank, reference_rref
from goodgradings.linalg import as_fraction, integer_row, rref


def test_rank_examples():
    assert rank(Matrix.identity(4)) == 4
    assert rank(Matrix.zeros(3, 5)) == 0
    assert rank(Matrix([[1, 2], [2, 4]])) == 1


def test_echelon_idempotent():
    rows = [[2, 4, 6], [1, 3, 5], [0, 1, 1]]
    once, piv = rref(rows)
    twice, piv2 = rref(once)
    assert once == twice and piv == piv2


def test_floats_rejected():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        Matrix([[0.5]])
    with pytest.raises(TypeError):
        rref([[0.5]])
    with pytest.raises(TypeError):
        rref([[1, Fraction(1, 2), 0.5]])


def test_bracket_size_mismatch():
    with pytest.raises(ValueError):
        bracket(Matrix.identity(2), Matrix.identity(3))


small_int = st.integers(min_value=-6, max_value=6)


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    data = [[draw(small_int) for _ in range(cols)] for _ in range(rows)]
    return Matrix(data)


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())


entry = st.one_of(small_int, st.builds(Fraction, small_int,
                                       st.integers(min_value=1, max_value=4)))


@st.composite
def exact_rows(draw):
    """Integer and rational rows, tall or wide, with zero and duplicate
    rows mixed in."""
    rows = draw(st.integers(min_value=1, max_value=7))
    cols = draw(st.integers(min_value=1, max_value=7))
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "duplicate")))
        if kind == "zero":
            out.append([0] * cols)
        elif kind == "duplicate" and out:
            out.append(list(draw(st.sampled_from(out))))
        else:
            out.append([draw(entry) for _ in range(cols)])
    return out


@given(exact_rows())
@settings(max_examples=300, deadline=None)
def test_rref_equals_rational_elimination(rows):
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == reference_rref(rows)
    assert all(type(x) is Fraction for row in reduced for x in row)


@given(exact_rows())
@settings(max_examples=100, deadline=None)
def test_integer_row_is_a_primitive_positive_multiple(rows):
    row = rows[0]
    ints = integer_row(row)
    assert all(type(x) is int for x in ints)
    nonzero = [(Fraction(x), y) for x, y in zip(row, ints) if x]
    assert [x == 0 for x in row] == [y == 0 for y in ints]
    if nonzero:
        ratio = nonzero[0][1] / nonzero[0][0]
        assert ratio > 0 and all(y == ratio * x for x, y in nonzero)
        assert math.gcd(*ints) == 1
