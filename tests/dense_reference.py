"""Dense exact linear algebra: the reference the library is checked against.

The library decides every verdict with sparse int elements, the block
ranks of ad e and fraction-free `linalg.rref`.  These independent dense
versions live here, next to the tests that compare against them; none
of them calls the library's elimination:

* `Matrix`, a dense matrix of Fractions, with `bracket` and `rank`;
* `dense`, the Matrix of a sparse element;
* `reference_rref`, Gauss-Jordan elimination over Fraction;
* `reference_jordan_type`, Jordan block sizes from ranks of dense powers;
* `grading_element` and `fraction_diagonal`, a grading element from a
  rational diagonal and back, by Fraction arithmetic instead of the
  library's doubled ints.
"""

from fractions import Fraction

from goodgradings.algebras import Family, GradingElement
from goodgradings.partitions import Partition


def as_fraction(x):
    """Coerce an int or a Fraction to Fraction.  Floats and strings are
    deliberately rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def grading_element(spec, diagonal):
    """The GradingElement of a diagonal of ints and Fractions, each an
    integer or a half-integer."""
    doubled = [2 * as_fraction(x) for x in diagonal]
    if any(d.denominator != 1 for d in doubled):
        raise ValueError("entries must be integers or half-integers")
    return GradingElement(spec, tuple(int(d) for d in doubled))


def fraction_diagonal(H):
    """The diagonal of H as Fractions: half the doubled entries, and for
    gl the traceless representative, the one the reports print."""
    diag = [Fraction(d, 2) for d in H.doubled]
    if H.spec.family is Family.GL:
        mean = sum(diag) / len(diag)
        diag = [d - mean for d in diag]
    return tuple(diag)


class Matrix:
    """A dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [[as_fraction(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("size mismatch")

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.data])

    def scale(self, c):
        c = as_fraction(c)
        return Matrix([[c * a for a in row] for row in self.data])

    def __matmul__(self, other):
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

    def transpose(self):
        return Matrix([[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data == other.data

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def bracket(a, b):
    """Commutator ab - ba of two square matrices of equal size."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("bracket needs square matrices of equal size")
    return a @ b - b @ a


def rank(m):
    """Row rank (= column rank) of a matrix, by `reference_rref`, so that
    the dense reference shares no elimination with the library."""
    return len(reference_rref(m.data)[1])


def dense(x, n):
    """The n x n Matrix of a sparse element."""
    return Matrix([[x.get((i, j), 0) for j in range(n)] for i in range(n)])


def reference_rref(rows):
    """Gauss-Jordan over Fraction: the reference the fraction-free
    `rref` must match row for row, once each row here is scaled by the
    lcm of its denominators."""
    work = [[as_fraction(x) for x in row] for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c]
        if inv != 1:
            work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def reference_jordan_type(e):
    """Jordan block sizes of a nilpotent Matrix, from the ranks of its
    dense powers: the reference for the sparse `jordan_type`."""
    n = e.rows
    ranks = [n]
    power = Matrix.identity(n)
    for _ in range(n):
        if ranks[-1] == 0:
            break
        power = power @ e
        ranks.append(rank(power))
    if ranks[-1] != 0:
        raise ValueError("matrix is not nilpotent")
    # counts[k-1] = rank(e^{k-1}) - rank(e^k) = number of blocks of size >= k
    counts = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    sizes = []
    for size in range(len(counts), 0, -1):
        mult = counts[size - 1] - (counts[size] if size < len(counts) else 0)
        sizes.extend([size] * mult)
    return Partition.of(s for s in sizes if s > 0)
