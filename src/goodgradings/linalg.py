"""Exact linear algebra over the rationals.

Every verdict downstream (Jordan types, goodness) is a rank condition,
where any rounding would corrupt the answer.  So this module keeps to
a minimal exact toolkit on ints and ``fractions.Fraction``: reduced row
echelon form of rows of exact scalars, which is the one elimination
the runtime uses, and the dense reference the tests check it against
(`Matrix`, `rank`, `kernel`, and subspaces stored by a canonical
echelon basis).

Elimination is fraction-free: `rref` scales each row to integers and
row-reduces with integer operations, creating Fractions only for the
reduced rows it returns.  The ranks of ad e, whose blocks are integer
matrices, never build a Fraction in the inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Scalar = int | Fraction


def as_fraction(x: Scalar | str) -> Fraction:
    """Coerce an exact value to Fraction.  Floats are deliberately rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Matrix:
    """A dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Scalar]]):
        self.data = [[as_fraction(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence[Scalar]) -> "Matrix":
        n = len(entries)
        m = cls.zeros(n, n)
        for i, x in enumerate(entries):
            m.data[i][i] = as_fraction(x)
        return m

    def _check_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("size mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.data])

    def scale(self, c: Scalar) -> "Matrix":
        c = as_fraction(c)
        return Matrix([[c * a for a in row] for row in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("size mismatch in product")
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.data[i]
            orow = out[i]
            for k in range(self.cols):
                a = row[k]
                if a == 0:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b != 0:
                        orow[j] += a * b
        return Matrix(out)

    def transpose(self) -> "Matrix":
        return Matrix([[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def bracket(a: Matrix, b: Matrix) -> Matrix:
    """Commutator ab - ba of two square matrices of equal size."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("bracket needs square matrices of equal size")
    return a @ b - b @ a


def integer_row(row: Iterable[Scalar]) -> list[int]:
    """The row times the positive rational that makes its entries coprime
    integers: the lcm of its denominators, over the gcd of the results.
    Non-int entries go through `as_fraction`, so a float raises TypeError
    before its (missing) denominator is read."""
    exact = [x if type(x) is int else as_fraction(x) for x in row]
    # the lcm of the denominators, by a loop: passing a generator to
    # math.lcm here raised the richardson benchmark's peak RSS by 13 %
    # (CPython 3.11.7)
    scale = 1
    for x in exact:
        d = x.denominator
        if scale % d:
            scale *= d // gcd(scale, d)
    return _primitive([x.numerator * (scale // x.denominator) for x in exact])


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


_ZERO = Fraction(0)


def rref(rows: Iterable[Sequence[Scalar]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns).

    Fraction-free: each row is scaled to primitive integers, Gauss-Jordan
    runs on integers (a row becomes p*row - f*pivot_row, then is divided
    by the gcd of its entries), and each reduced row is divided by its
    pivot only at the end.  The reduced echelon form is unique, so the rows equal those
    of rational elimination.
    """
    work = [integer_row(row) for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        p = prow[c]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                work[i] = _primitive([p * x - f * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [[Fraction(x, row[c]) if x else _ZERO for x in row]
            for row, c in zip(work, pivots)], pivots


def rank(m: Matrix) -> int:
    """Row rank (= column rank) of a matrix."""
    return len(rref(m.data)[1])


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held by its reduced-echelon basis.

    The echelon form is the canonical representative: two equal
    subspaces always store identical bases, so equality is decidable
    by direct comparison.
    """

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int,
                     vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        if not vecs:
            return cls(ambient_dim, ())
        reduced, _ = rref(vecs)
        return cls(ambient_dim, tuple(tuple(row) for row in reduced))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(ambient_dim,
                                [[1 if i == j else 0 for j in range(ambient_dim)]
                                 for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence[Scalar]) -> bool:
        """Membership test by reduction against the echelon basis."""
        if len(vector) != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        v = [as_fraction(x) for x in vector]
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x != 0)
            if v[lead] != 0:
                f = v[lead]
                v = [a - f * b for a, b in zip(v, row)]
        return all(x == 0 for x in v)


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m v = 0}, canonically represented."""
    reduced, pivots = rref(m.data)
    n = m.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        vectors.append(v)
    return Subspace.from_vectors(n, vectors)
