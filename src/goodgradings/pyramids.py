"""Pyramids: box arrangements encoding nilpotents and their gradings.

A pyramid is a finite set of unit boxes with integer or half-integer
center coordinates organized in rows; within a row the first
coordinates form an arithmetic progression with difference 2.  Every
first coordinate is stored doubled, as an int (a box at x = -3/2 has
the coordinate -3), so a row steps by 4 and pyramids are built,
shifted, validated and read with int arithmetic only.  Row lengths
encode the Jordan blocks of a nilpotent, doubled first coordinates the
doubled diagonal of a grading element (`algebras.GradingElement`).

Three flavors, one per algebra `Family` (GL, SP, SO):

* type A pyramids: rows indexed 1..k bottom-up, nested supports
  (f_j <= f_{j+1}, l_j >= l_{j+1}), bottom row centered;
* symplectic pyramids: centrally symmetric about (0,0), built per part
  of a symplectic partition, with right half-rows for even parts of odd
  multiplicity;
* orthogonal pyramids: centrally symmetric, with joint rows pairing
  unequal odd-multiplicity parts (even size) and a middle box routing
  through v_0 (odd size).

Row roles record how each row participates in the nilpotent's arrows:
"full" ordinary rows, "half" symplectic right half-rows, "joint"
orthogonal paired rows, "v0half" the right half-row chained through the
middle box, "center" the lone middle box.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .algebras import AlgebraSpec, Family
from .partitions import Partition
from .series import pyramid_count_formula


@dataclass(frozen=True)
class Row:
    """One pyramid row: y index, doubled first coordinate, box count.

    `first` is twice the first box's x coordinate, an int read through
    `operator.index`, so a Fraction or a float raises TypeError; the
    doubled coordinates of the row step by 4.
    """

    y: int
    first: int
    count: int
    parts: tuple[int, ...] = ()
    role: str = "full"

    def __post_init__(self):
        object.__setattr__(self, "first", operator.index(self.first))
        if self.count < 1:
            raise ValueError("empty row")

    @property
    def last(self) -> int:
        return self.first + 4 * (self.count - 1)

    def coords(self) -> tuple[int, ...]:
        return tuple(range(self.first, self.last + 1, 4))


@dataclass(frozen=True)
class Pyramid:
    flavor: Family
    rows: tuple[Row, ...]

    def __post_init__(self):
        rows = tuple(sorted(self.rows, key=lambda r: r.y))
        object.__setattr__(self, "rows", rows)
        self.validate()

    def validate(self):
        ys = [r.y for r in self.rows]
        if len(set(ys)) != len(ys):
            raise ValueError("duplicate row index")
        if not isinstance(self.flavor, Family):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor is Family.GL:
            if ys != list(range(1, len(ys) + 1)):
                raise ValueError("type A rows must be indexed 1..k")
            rows = self.rows
            if rows and rows[0].first != -rows[0].last:
                raise ValueError("bottom row must be centered")
            for a, b in zip(rows, rows[1:]):
                if not (a.first <= b.first and a.last >= b.last):
                    raise ValueError("row supports must be nested upward")
        else:
            boxes = self.boxes()
            mirrored = sorted((-x, -y) for x, y in boxes)
            if sorted(boxes) != mirrored:
                raise ValueError("pyramid is not centrally symmetric")

    def size(self) -> int:
        return sum(r.count for r in self.rows)

    @property
    def spec(self) -> AlgebraSpec:
        """The algebra whose nilpotent and gradings the pyramid encodes."""
        return AlgebraSpec(self.flavor, self.size())

    def boxes(self) -> list[tuple[int, int]]:
        """All box centers as (doubled x, y), row by row."""
        return [(x, r.y) for r in self.rows for x in r.coords()]


# -- type A ---------------------------------------------------------------


def symmetric_pyramid(p: Partition) -> Pyramid:
    """The centered pyramid of a partition: row j holds p_j boxes."""
    rows = [Row(y=j + 1, first=2 - 2 * pj, count=pj, parts=(pj,))
            for j, pj in enumerate(p.parts)]
    return Pyramid(Family.GL, tuple(rows))


def type_a_center_parts(p: Partition) -> tuple[int, ...]:
    """Distinct parts below the largest, in decreasing order.

    The center of the reductive centralizer in gl_n is one scalar per
    distinct part; the scalars act trivially under ad, so the rows of the
    largest part stay put and every other distinct part carries a shift.
    """
    return tuple(v for v, _ in p.distinct()[1:])


def type_a_shift_vectors(p: Partition) -> list[dict[int, int]]:
    """Doubled shift amounts per center part for every type A pyramid of p.

    All rows of one part slide together.  The relative shift between
    consecutive distinct parts v > w ranges over the integers in
    [-(v - w), v - w], and a part's shift is the sum of the relative
    shifts from the largest part down to it.  Order: lexicographic in
    the relative shifts.
    """
    values = [v for v, _ in p.distinct()]
    ranges = [range(2 * (w - v), 2 * (v - w) + 1, 2)
              for v, w in zip(values, values[1:])]
    return [dict(zip(values[1:], itertools.accumulate(rel)))
            for rel in itertools.product(*ranges)]


def enumerate_pyramids(p: Partition) -> list[Pyramid]:
    """All pyramids with row lengths p, in canonical shift-vector order.

    Rows above the bottom one slide horizontally; the relative shift
    between rows j and j+1 ranges over [-(p_j - p_{j+1}), p_j - p_{j+1}].
    """
    base = symmetric_pyramid(p)
    out = [_shift_parts(base, s) for s in type_a_shift_vectors(p)]
    if len(out) != pyramid_count_formula(p):
        raise AssertionError("pyramid enumeration disagrees with the count product")
    return out


# -- symplectic pyramids ---------------------------------------------------


def symplectic_pyramid(p: Partition) -> Pyramid:
    """The base symplectic pyramid of a symplectic partition.

    Odd-multiplicity (necessarily even) parts contribute a centered row
    at y=0 for the largest part, and right half-rows 1,3,...,v-1 for
    later parts; everything else comes in full mirrored row pairs.
    """
    if not p.is_symplectic():
        raise ValueError(f"{p} is not symplectic")
    upper: list[Row] = []
    zero: list[Row] = []
    y = 1
    for pos, (v, m) in enumerate(p.distinct()):
        if m % 2 == 1:
            if pos == 0:
                zero.append(Row(y=0, first=2 - 2 * v, count=v, parts=(v,)))
            else:
                upper.append(Row(y=y, first=2, count=v // 2,
                                 parts=(v,), role="half"))
                y += 1
        for _ in range(m // 2):
            upper.append(Row(y=y, first=2 - 2 * v, count=v, parts=(v,)))
            y += 1
    return Pyramid(Family.SP, tuple(zero + upper + [_mirror(r) for r in upper]))


def _mirror(r: Row) -> Row:
    return Row(y=-r.y, first=-r.last, count=r.count, parts=r.parts, role=r.role)


def row_shift(r: Row, shifts: dict[int, int]) -> int:
    """How far a row moves under a doubled shift per part: the full rows of a
    part move by +s in the upper half-plane and -s in the lower one;
    other rows stay.  In sp/so only parts of multiplicity 2 are ever
    shifted, so the row pair of a part is unambiguous; in type A (every
    row in the upper half-plane) all rows of a part move together."""
    if r.role != "full" or r.y == 0:
        return 0
    s = shifts.get(r.parts[0], 0)
    return s if r.y > 0 else -s


def _shift_parts(pyr: Pyramid, shifts: dict[int, int]) -> Pyramid:
    """The pyramid with every row moved by `row_shift`."""
    rows = []
    for r in pyr.rows:
        s = row_shift(r, shifts)
        rows.append(r if s == 0 else Row(y=r.y, first=r.first + s, count=r.count,
                                         parts=r.parts, role=r.role))
    return Pyramid(pyr.flavor, tuple(rows))


def symplectic_center_parts(p: Partition) -> tuple[int, ...]:
    """Even parts of multiplicity exactly 2, in decreasing order."""
    return tuple(v for v, m in p.distinct() if v % 2 == 0 and m == 2)


def _subset_shifts(p: Partition,
                   cparts: tuple[int, ...]) -> list[dict[int, int]]:
    """The sp/so doubled shift vectors without a part-1 parameter: every
    subset of the center parts, then the half shift when all parts are
    center parts and the size is even."""
    out = [dict(zip(cparts, bits))
           for bits in itertools.product((0, 2), repeat=len(cparts))]
    if cparts and len(cparts) == len(p.distinct()) and p.n % 2 == 0:
        out.append({v: 1 for v in cparts})
    return out


def symplectic_shift_vectors(p: Partition) -> list[dict[int, int]]:
    """Doubled shift amounts per center part for every symplectic pyramid of p.

    One vector per subset of the even multiplicity-2 parts (unit shift
    outward); when every part is even of multiplicity 2 there is one
    extra vector shifting all rows outward by 1/2.  Order: subsets in
    lexicographic 0/1 order, the half shift last.
    """
    return _subset_shifts(p, symplectic_center_parts(p))


def symplectic_pyramids(p: Partition) -> list[Pyramid]:
    """All symplectic pyramids of p, in canonical shift-vector order."""
    base = symplectic_pyramid(p)
    return [_shift_parts(base, s) for s in symplectic_shift_vectors(p)]


# -- orthogonal pyramids ----------------------------------------------------


def orthogonal_pyramid(p: Partition) -> Pyramid:
    """The base orthogonal pyramid of an orthogonal partition.

    Odd-multiplicity (necessarily odd) parts pair up, the larger P with
    the next smaller odd-multiplicity part Q, into a joint row with
    coordinates -Q+1, -Q+3, ..., P-1.  For odd total size either the
    largest part has odd multiplicity and owns a centered row at y=0,
    or the middle box (0,0) stands alone and the one unpaired part
    contributes the right half-row 2, 4, ..., v-1 chained through it.
    """
    if not p.is_orthogonal():
        raise ValueError(f"{p} is not orthogonal")
    n = p.n
    items = [[v, m] for v, m in p.distinct()]
    zero: list[Row] = []
    if n % 2 == 1:
        if items and items[0][1] % 2 == 1:
            v = items[0][0]
            zero.append(Row(y=0, first=2 - 2 * v, count=v, parts=(v,)))
            items[0][1] -= 1
    upper: list[Row] = []
    y = 1
    center_part = None
    for i in range(len(items)):
        v, m = items[i]
        for _ in range(m // 2):
            upper.append(Row(y=y, first=2 - 2 * v, count=v, parts=(v,)))
            y += 1
        if m % 2 == 1:
            j = i + 1
            while j < len(items) and items[j][1] % 2 == 0:
                j += 1
            if j < len(items):
                w = items[j][0]
                items[j][1] -= 1
                upper.append(Row(y=y, first=2 - 2 * w, count=(v + w) // 2,
                                 parts=(v, w), role="joint"))
                y += 1
            else:
                center_part = v
                if v > 1:
                    upper.append(Row(y=y, first=4, count=(v - 1) // 2,
                                     parts=(v,), role="v0half"))
                    y += 1
    if n % 2 == 1 and not zero:
        if center_part is None:
            raise AssertionError("odd size needs an unpaired part for the middle box")
        zero.append(Row(y=0, first=0, count=1, parts=(center_part,),
                        role="center"))
    return Pyramid(Family.SO, tuple(zero + upper + [_mirror(r) for r in upper]))


def orthogonal_center_parts(p: Partition) -> tuple[int, ...]:
    """Odd parts of multiplicity exactly 2, in decreasing order."""
    return tuple(v for v, m in p.distinct() if v % 2 == 1 and m == 2)


def orthogonal_shift_vectors(p: Partition) -> list[dict[int, int]]:
    """Doubled shift amounts per center part for every orthogonal pyramid of p.

    Subsets of the odd multiplicity-2 parts shift by one unit; when the
    part 1 is among them it instead carries an integer parameter t
    capped by the smallest part q greater than 1 (with tighter caps when
    q itself is a center part); when additionally every part is a center
    part and the size is even, there are half-shift vectors with the
    part-1 parameter running over half-integers.
    """
    n = p.n
    cparts = orthogonal_center_parts(p)
    c = len(cparts)
    if c == 0 or cparts[-1] != 1:
        return _subset_shifts(p, cparts)
    if all(v == 1 for v in p.parts):
        # (1,1): the zero orbit of so_2; no parameter to range over
        return [{}]
    out: list[dict[int, int]] = []
    q = min(v for v in p.parts if v > 1)
    if c >= 2 and cparts[-2] == q:
        rest = cparts[:-2]
        for bits in itertools.product((0, 2), repeat=len(rest)):
            for tq in (0, 2):
                for t in range(0, 2 * q - tq, 2):
                    shifts = dict(zip(rest, bits))
                    shifts[q] = tq
                    shifts[1] = t
                    out.append(shifts)
        if n % 2 == 0 and c == len(p.distinct()):
            # t = 1/2, 3/2, ..., q - 3/2
            for t in range(1, 2 * q - 2, 2):
                shifts = {v: 1 for v in cparts[:-1]}
                shifts[1] = t
                out.append(shifts)
    else:
        rest = cparts[:-1]
        for bits in itertools.product((0, 2), repeat=len(rest)):
            for t in range(0, 2 * q, 2):
                shifts = dict(zip(rest, bits))
                shifts[1] = t
                out.append(shifts)
    return out


def orthogonal_pyramids(p: Partition) -> list[Pyramid]:
    """All orthogonal pyramids of p, in canonical shift-vector order."""
    base = orthogonal_pyramid(p)
    return [_shift_parts(base, s) for s in orthogonal_shift_vectors(p)]


# -- unimodal compositions and the even-grading bijection -------------------


def is_unimodal(comp: Sequence[int]) -> bool:
    """Rises (weakly) to a peak, then falls (weakly)."""
    falling = False
    for a, b in zip(comp, comp[1:]):
        if b < a:
            falling = True
        elif b > a and falling:
            return False
    return True


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def unimodal_compositions(n: int) -> list[tuple[int, ...]]:
    """All unimodal compositions of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [c for c in compositions(n) if is_unimodal(c)]


def unimodal_to_pyramid(u: Sequence[int]) -> Pyramid:
    """Pyramid whose odd-place column heights are the composition.

    The bottom row has len(u) boxes; the column over the i-th bottom box
    carries u_i boxes.  Inverse of pyramid_to_unimodal.  Parts must be
    ints: a float or a `Fraction` raises TypeError.
    """
    u = tuple(map(operator.index, u))
    if not u or any(x < 1 for x in u):
        raise ValueError("composition parts must be positive")
    if not is_unimodal(u):
        raise ValueError(f"composition {u} is not unimodal")
    k = len(u)
    rows = []
    for j in range(1, max(u) + 1):
        support = [i for i, h in enumerate(u) if h >= j]
        rows.append(Row(y=j, first=2 - 2 * k + 4 * support[0], count=len(support),
                        parts=(len(support),)))
    return Pyramid(Family.GL, tuple(rows))


def pyramid_to_unimodal(pyr: Pyramid) -> tuple[int, ...]:
    """Nonzero column heights of an even-type pyramid, left to right."""
    if pyr.flavor is not Family.GL:
        raise ValueError("column reading is defined for type A pyramids")
    parities = {(x - pyr.rows[0].first) % 4 for x, _ in pyr.boxes()}
    if parities != {0}:
        raise ValueError("pyramid has mixed column parities (grading is odd)")
    columns = Counter(x for x, _ in pyr.boxes())
    heights = tuple(columns[x] for x in pyr.rows[0].coords())
    if not is_unimodal(heights):
        raise AssertionError("nested rows must give unimodal heights")
    return heights


# -- rendering ---------------------------------------------------------------


def render_pyramid(pyr: Pyramid) -> str:
    """ASCII picture, one 4-character cell per box, top row first.

    Cells start at character column 2*(x - xmin), the difference of the
    doubled coordinates, so a half-integer shift shows up as a
    one-character offset.
    """
    boxes = pyr.boxes()
    xmin = min(x for x, _ in boxes)
    lines = []
    for r in reversed(pyr.rows):  # rows are sorted by y
        chars: list[str] = []
        for x in r.coords():
            col = x - xmin
            if col > len(chars):
                chars.extend(" " * (col - len(chars)))
            chars.extend("[__]")
        lines.append("".join(chars))
    return "\n".join(lines)
