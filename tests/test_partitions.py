from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodgradings.algebras import Family
from goodgradings.partitions import (Partition, centralizer_dim,
                                     orthogonal_partitions, partitions,
                                     symplectic_partitions)


def test_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition.of([1, 3, 2]).parts == (3, 2, 1)
    # parts are ints: floats and Fractions are not truncated
    with pytest.raises(TypeError):
        Partition.of([2.7, 1.2])
    with pytest.raises(TypeError):
        Partition((3.0, 1))
    with pytest.raises(TypeError):
        Partition((Fraction(3), 1))


def test_dual_examples():
    assert Partition((2, 1)).dual() == Partition((2, 1))
    assert Partition((3, 1)).dual() == Partition((2, 1, 1))
    assert Partition((1, 1, 1)).dual() == Partition((3,))


def test_dual_involution_exhaustive():
    for n in range(1, 21):
        for p in partitions(n):
            assert p.dual().dual() == p


def test_multiplicity():
    # multiplicities are read off `distinct`
    assert dict(Partition((2, 2, 1)).distinct()) == {2: 2, 1: 1}
    q = Partition((4, 2, 2, 1))
    assert q.distinct() == ((4, 1), (2, 2), (1, 1))
    d = q.dual()
    assert d.parts == (4, 3, 1, 1) and d.parts[1] - d.parts[2] == 2


def test_multiplicity_weight_identity():
    for n in range(1, 13):
        for p in partitions(n):
            assert sum(j * m for j, m in p.distinct()) == n


def test_symplectic_orthogonal_membership():
    assert Partition((2, 2)).is_symplectic()
    # even part with even multiplicity: (2,2) is orthogonal as well (so_4)
    assert Partition((2, 2)).is_orthogonal()
    assert not Partition((2, 1, 1)).is_orthogonal()
    assert Partition((3, 3, 1, 1)).is_symplectic()
    assert Partition((3, 1)).is_orthogonal()
    assert not Partition((3, 1)).is_symplectic()


def _recursive_partitions(n, max_part=None):
    """The partitions of n with parts at most max_part, by recursion on
    the largest part: the reference walk for `partitions`."""
    if n < 0:
        return
    if n == 0:
        yield Partition(())
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in _recursive_partitions(n - first, first):
            yield Partition((first,) + rest.parts)


def _euler_partition_numbers(top):
    """p(0..top) by Euler's pentagonal-number recurrence:
    p(n) = sum_{k>=1} (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2))."""
    p = [1] + [0] * top
    for n in range(1, top + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    p[n] += sign * p[n - g]
            k += 1
    return p


def test_partitions_match_the_recursive_walk():
    assert [p.parts for p in partitions(5)] == [
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
        (1, 1, 1, 1, 1)]
    for n in range(-2, 26):
        walk = list(partitions(n))
        assert walk == list(_recursive_partitions(n)), n
        # reverse lexicographic, each partition once
        parts = [p.parts for p in walk]
        assert parts == sorted(set(parts), reverse=True), n


def test_partition_counts_follow_euler_recurrence():
    euler = _euler_partition_numbers(40)
    assert euler[:11] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert euler[40] == 37338
    for n in range(41):
        assert sum(1 for _ in partitions(n)) == euler[n], n


def test_partitions_edge_inputs():
    assert list(partitions(0)) == [Partition(())]
    assert list(partitions(-1)) == []
    # n must be an int: a float is refused, not truncated
    with pytest.raises(TypeError):
        list(partitions(2.0))


def test_partition_generators():
    assert sum(1 for _ in partitions(10)) == 42
    assert [p.parts for p in symplectic_partitions(4)] == \
        [(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [p.parts for p in orthogonal_partitions(4)] == \
        [(3, 1), (2, 2), (1, 1, 1, 1)]


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_dual_involution_property(parts):
    p = Partition.of(parts)
    assert p.dual().dual() == p
    assert p.dual().n == p.n


def test_centralizer_dim_formulas():
    # cross-checked against dim g minus the block ranks of ad e on every
    # nonzero orbit of gl_n (n <= 6) and sp/so_N (N <= 10) in test_algebras
    assert centralizer_dim(Family.GL, Partition((2, 1))) == 5
    assert centralizer_dim(Family.SP, Partition((2, 2))) == 4
    assert centralizer_dim(Family.SO, Partition((3, 3, 1, 1))) == 10
    # the regular orbit of gl_n, sp_2n and so_2n+1 has a centralizer of
    # dimension n
    for n in range(1, 9):
        assert centralizer_dim(Family.GL, Partition((n,))) == n
        assert centralizer_dim(Family.SP, Partition((2 * n,))) == n
        assert centralizer_dim(Family.SO, Partition((2 * n + 1,))) == n
