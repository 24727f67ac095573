"""Exact linear algebra over the integers.

Every verdict downstream (Jordan types, goodness) is a rank condition,
where any rounding would corrupt the answer.  Every matrix the library
ranks has int entries: ad e of an integer nilpotent, the powers of e,
and the duality form's Gram matrix.  So this module is one exact
elimination on int rows, the reduced row echelon form, and takes
nothing else: a `Fraction` or a float raises TypeError.  The rational
elimination the tests check it against lives in
``tests/dense_reference.py``.

Elimination is fraction-free: rows stay primitive integer rows
throughout.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from math import gcd


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rref(rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of int rows.  Returns (nonzero rows,
    pivot columns).

    Each returned row is the reduced echelon row times the positive lcm
    of its denominators: a primitive integer row with a positive pivot,
    zero in every other pivot column.  That multiple is unique, so the
    rows still define the reduced echelon form.  Entries are read
    through `operator.index`, so a Fraction or a float raises TypeError.

    Gauss-Jordan on integers: a row becomes p*row - f*pivot_row, then is
    divided by the gcd of its entries.
    """
    work = [_primitive(list(map(operator.index, row))) for row in rows]
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
    return [row if row[c] > 0 else [-x for x in row]
            for row, c in zip(work, pivots)], pivots
