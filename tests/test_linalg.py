from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodgradings.linalg import (Matrix, Subspace, as_fraction, bracket,
                                 kernel, rank, rref)


def test_kernel_identity_is_zero():
    assert kernel(Matrix.identity(3)) == Subspace.zero(3)


def test_kernel_zero_matrix_is_full():
    assert kernel(Matrix.zeros(2, 3)) == Subspace.full(3)


def test_kernel_rank_one():
    m = Matrix([[1, 1], [2, 2]])
    k = kernel(m)
    assert k.dim == 1
    assert k.basis == ((Fraction(1), Fraction(-1)),)


def test_rank_examples():
    assert rank(Matrix.identity(4)) == 4
    assert rank(Matrix.zeros(3, 5)) == 0
    assert rank(Matrix([[1, 2], [2, 4]])) == 1


def test_membership():
    s = Subspace.from_vectors(2, [[1, 1]])
    assert s.contains([2, 2])
    assert s.contains([0, 0])
    assert not s.contains([1, -1])
    with pytest.raises(ValueError):
        s.contains([1, 1, 1])


def test_subspace_canonical_equality():
    a = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 2]])
    b = Subspace.from_vectors(3, [[2, 2, 2], [1, 1, 5]])
    assert a == b
    assert a.basis == b.basis


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
def test_rank_nullity(m):
    assert rank(m) + kernel(m).dim == m.cols


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())


@given(small_matrix())
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_annihilate(m):
    k = kernel(m)
    for v in k.basis:
        image = [sum(m.data[i][j] * v[j] for j in range(m.cols))
                 for i in range(m.rows)]
        assert all(x == 0 for x in image)
