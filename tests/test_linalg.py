import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import Matrix, as_fraction, bracket, rank, reference_rref
from goodgradings.linalg import rref


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
    # the dense reference takes ints and Fractions only: a float or a
    # string raises TypeError
    for x in (0.5, "1/2", "3"):
        with pytest.raises(TypeError):
            as_fraction(x)
    with pytest.raises(TypeError):
        Matrix([[0.5]])
    with pytest.raises(TypeError):
        rref([[0.5]])
    with pytest.raises(TypeError):
        rref([[1, Fraction(1, 2), 0.5]])
    # rref takes int rows only: an integral Fraction is refused too
    for x in (Fraction(1, 2), Fraction(2), 2.0):
        with pytest.raises(TypeError):
            rref([[1, 0], [0, x]])


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


entry = st.integers(min_value=-50, max_value=50)


@st.composite
def exact_rows(draw):
    """Integer rows, tall or wide, with zero and duplicate rows mixed
    in; entries up to 50 in size, so rows have common factors for the
    gcd step to remove."""
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
    # each row is the rational reduced row times the lcm of its
    # denominators: a primitive int row with a positive pivot
    reduced, pivots = rref(rows)
    expected, expected_pivots = reference_rref(rows)
    assert pivots == expected_pivots
    assert reduced == [[int(x * math.lcm(*(y.denominator for y in row)))
                        for x in row] for row in expected]
    assert all(type(x) is int for row in reduced for x in row)
    for row, c in zip(reduced, pivots):
        assert row[c] > 0 and math.gcd(*row) == 1
