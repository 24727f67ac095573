"""Integer partitions and the nilpotent-orbit bookkeeping built on them.

A partition encodes a nilpotent orbit: Jordan type in gl_n, and in
sp_N / so_N the orbits correspond to symplectic / orthogonal
partitions (odd resp. even parts occur with even multiplicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .algebras import AlgebraSpec, Family


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers (trailing zeros implicit)."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Partition":
        return cls(tuple(sorted((int(p) for p in parts), reverse=True)))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def part(self, i: int) -> int:
        """1-indexed part, 0 beyond the end."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def dual(self) -> "Partition":
        """Conjugate partition: dual_j = #{i : p_i >= j}."""
        if not self.parts:
            return Partition(())
        return Partition(tuple(sum(1 for p in self.parts if p >= j)
                               for j in range(1, self.parts[0] + 1)))

    def multiplicity(self, j: int) -> int:
        if j < 1:
            raise ValueError("parts are positive")
        return sum(1 for p in self.parts if p == j)

    def distinct(self) -> tuple[tuple[int, int], ...]:
        """(value, multiplicity) pairs, values strictly decreasing."""
        out = []
        for p in self.parts:
            if out and out[-1][0] == p:
                out[-1][1] += 1
            else:
                out.append([p, 1])
        return tuple((v, m) for v, m in out)

    def is_symplectic(self) -> bool:
        """Odd parts occur with even multiplicity."""
        return all(m % 2 == 0 for v, m in self.distinct() if v % 2 == 1)

    def is_orthogonal(self) -> bool:
        """Even parts occur with even multiplicity."""
        return all(m % 2 == 0 for v, m in self.distinct() if v % 2 == 0)

    def is_zero_orbit(self) -> bool:
        return all(p == 1 for p in self.parts)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def orbit_dimension(p: Partition) -> int:
    """Dimension of the nilpotent orbit of Jordan type p in gl_n."""
    n = p.n
    return n * n - sum(d * d for d in p.dual().parts)


def gl_centralizer_dim(p: Partition) -> int:
    """dim of the centralizer of e(p) in gl_n: sum of squared dual parts."""
    return sum(d * d for d in p.dual().parts)


def sp_centralizer_dim(p: Partition) -> int:
    s = sum(d * d for d in p.dual().parts)
    odd = sum(1 for q in p.parts if q % 2 == 1)
    return (s + odd) // 2


def so_centralizer_dim(p: Partition) -> int:
    s = sum(d * d for d in p.dual().parts)
    odd = sum(1 for q in p.parts if q % 2 == 1)
    return (s - odd) // 2


def center_dim(spec: AlgebraSpec, p: Partition) -> int:
    """Dimension of the center of the reductive part of the centralizer.

    This counts the degrees of freedom a good grading has beyond the
    Dynkin one: number of distinct parts minus one for gl (scalars act
    trivially on the grading, so they are quotiented out, as for sl),
    odd parts of multiplicity exactly 2 for so, even parts of
    multiplicity exactly 2 for sp.
    """
    fam = spec.family
    if fam is Family.GL:
        if p.n != spec.size:
            raise ValueError("partition total != matrix size")
        return len(p.distinct()) - 1
    if fam is Family.SP:
        if p.n != spec.size or not p.is_symplectic():
            raise ValueError("not a symplectic partition of the right size")
        return sum(1 for v, m in p.distinct() if v % 2 == 0 and m == 2)
    if p.n != spec.size or not p.is_orthogonal():
        raise ValueError("not an orthogonal partition of the right size")
    return sum(1 for v, m in p.distinct() if v % 2 == 1 and m == 2)


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first, in lexicographic order."""
    if n < 0:
        return
    if n == 0:
        yield Partition(())
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield Partition((first,) + rest.parts)


def symplectic_partitions(n: int) -> Iterator[Partition]:
    return (p for p in partitions(n) if p.is_symplectic())


def orthogonal_partitions(n: int) -> Iterator[Partition]:
    return (p for p in partitions(n) if p.is_orthogonal())
