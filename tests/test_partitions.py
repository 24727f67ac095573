import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodgradings.algebras import AlgebraSpec, Family
from goodgradings.partitions import (Partition, center_dim, gl_centralizer_dim,
                                     orbit_dimension, orthogonal_partitions,
                                     partitions, so_centralizer_dim,
                                     sp_centralizer_dim, symplectic_partitions)


def test_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition.of([1, 3, 2]).parts == (3, 2, 1)


def test_dual_examples():
    assert Partition((2, 1)).dual() == Partition((2, 1))
    assert Partition((3, 1)).dual() == Partition((2, 1, 1))
    assert Partition((1, 1, 1)).dual() == Partition((3,))


def test_dual_involution_exhaustive():
    for n in range(1, 21):
        for p in partitions(n):
            assert p.dual().dual() == p


def test_multiplicity():
    p = Partition((2, 2, 1))
    assert p.multiplicity(2) == 2
    assert p.multiplicity(3) == 0
    q = Partition((4, 2, 2, 1))
    assert q.multiplicity(2) == 2
    d = q.dual()
    assert d.part(2) - d.part(3) == 2


def test_multiplicity_weight_identity():
    for n in range(1, 13):
        for p in partitions(n):
            assert sum(j * p.multiplicity(j) for j in range(1, n + 1)) == n


def test_orbit_dimension():
    assert orbit_dimension(Partition((1, 1, 1, 1))) == 0
    for n in range(2, 7):
        assert orbit_dimension(Partition((n,))) == n * n - n
    assert orbit_dimension(Partition((2, 1))) == 4


def test_symplectic_orthogonal_membership():
    assert Partition((2, 2)).is_symplectic()
    # even part with even multiplicity: (2,2) is orthogonal as well (so_4)
    assert Partition((2, 2)).is_orthogonal()
    assert not Partition((2, 1, 1)).is_orthogonal()
    assert Partition((3, 3, 1, 1)).is_symplectic()
    assert Partition((3, 1)).is_orthogonal()
    assert not Partition((3, 1)).is_symplectic()


def test_center_dim():
    assert center_dim(AlgebraSpec(Family.GL, 3), Partition((2, 1))) == 1
    assert center_dim(AlgebraSpec(Family.SP, 4), Partition((2, 2))) == 1
    assert center_dim(AlgebraSpec(Family.SO, 8), Partition((3, 3, 1, 1))) == 2
    # multiplicity exactly 2, not at least 2
    assert center_dim(AlgebraSpec(Family.SP, 8), Partition((2, 2, 2, 2))) == 0
    assert center_dim(AlgebraSpec(Family.SP, 4), Partition((2, 1, 1))) == 0
    with pytest.raises(ValueError):
        center_dim(AlgebraSpec(Family.SP, 4), Partition((3, 1)))


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
    # cross-checked against kernel computations in test_algebras
    assert gl_centralizer_dim(Partition((2, 1))) == 5
    assert sp_centralizer_dim(Partition((2, 2))) == 4
    assert so_centralizer_dim(Partition((3, 3, 1, 1))) == 10
