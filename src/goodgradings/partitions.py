"""Integer partitions and the nilpotent-orbit bookkeeping built on them.

A partition encodes a nilpotent orbit: Jordan type in gl_n, and in
sp_N / so_N the orbits correspond to symplectic / orthogonal
partitions (odd resp. even parts occur with even multiplicity).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers (trailing zeros implicit).

    Parts must be ints: a float or a `Fraction` raises TypeError.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(map(operator.index, self.parts))
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Partition":
        return cls(tuple(sorted(map(operator.index, parts), reverse=True)))

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


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse lexicographic order: (n) first,
    (1, ..., 1) last, each a validated `Partition` of the parts
    `_part_tuples(n)` walks."""
    return map(Partition, _part_tuples(n))


def _part_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """The parts of every partition of n, as plain weakly decreasing
    tuples in reverse lexicographic order.

    The walk is ZS1 (Zoghbi and Stojmenovic, "Fast algorithms for
    generating integer partitions", Int. J. Comput. Math. 70, 1998): one
    array x of parts, of which x[:m] is the current partition and x[h]
    its last part above 1.  The next partition lowers x[h] by one and
    refills the tail with copies of the new value, so each step costs
    constant amortized time, plus the tuple it yields.
    """
    n = operator.index(n)
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def symplectic_partitions(n: int) -> Iterator[Partition]:
    return (p for p in partitions(n) if p.is_symplectic())


def orthogonal_partitions(n: int) -> Iterator[Partition]:
    return (p for p in partitions(n) if p.is_orthogonal())
