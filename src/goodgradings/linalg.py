"""Exact linear algebra over the rationals.

Every verdict downstream (Jordan types, goodness) is a rank condition,
where any rounding would corrupt the answer.  So this module keeps to
a minimal exact toolkit on ints and ``fractions.Fraction``: reduced row
echelon form of rows of exact scalars, the one elimination in the
library.  The dense matrices the tests check it against live in
``tests/dense_reference.py``.

Elimination is fraction-free: `rref` scales each row to integers and
row-reduces with integer operations, creating Fractions only for the
reduced rows it returns.  The ranks of ad e, whose blocks are integer
matrices, never build a Fraction in the inner loop.
"""

from __future__ import annotations

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
