"""Classical matrix Lie algebras gl_n, sp_2n, so_N.

Realizations fix the ordered basis v_1,...,v_n,(v_0),v_{-1},...,v_{-n}
of the defining representation and the bilinear forms

    sp_2n:  <v_i, v_{-j}> = delta_ij  (skew),
    so_N :  (v_i, v_{-j}) = delta_ij  (symmetric),

i.e. antidiagonal Gram matrices.  With this choice every diagonal
matrix diag(d_1..d_n, (0), -d_1..-d_n) lies in the algebra, so grading
elements are literally diagonal, and each basis element of the algebra
is an eigenvector of ad H for diagonal H.  A graded decomposition is
then one eigenvalue per basis element, an int: these are Z-gradings,
and `graded_decomposition` refuses any other H.

Type A is realized as gl_n only: a grading of sl_n is a grading of gl_n
modulo scalars, so `GradingElement` stores one representative of a type
A diagonal modulo scalars.

Every element of the algebra is kept sparse, as `Sparse`
({(row, col): int} with no zero entries): basis elements have at most
two nonzero entries, each the int 1 or -1, and every element the
library builds is an integer combination of them, so brackets stay
integers.  `ad(a)` is the one bracket: it indexes a by row and by
column once, and each [a, b] then reads only the entries of a that
meet an entry of b.  Coordinates are ints too, read through
`operator.index`, so a Fraction or a float raises TypeError.  A grading
element's diagonal has integer or half-integer entries (the box
coordinates of a pyramid), so it is stored doubled, as ints, and every
degree is an int difference and one halving; only `cli` prints it as a
fraction.  The dense rows of ad e from `ad_coordinate_matrix` are the
test reference for the block engine in `gradings`; no runtime path
builds them.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum

Sparse = dict[tuple[int, int], int]


class Family(str, Enum):
    GL = "GL"
    SP = "SP"
    SO = "SO"


@dataclass(frozen=True)
class AlgebraSpec:
    """A classical family together with the matrix size N."""

    family: Family
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("matrix size must be positive")
        if self.family is Family.SP and self.size % 2 != 0:
            raise ValueError("sp requires even matrix size")
        if self.family is Family.SO and self.size < 3:
            raise ValueError("so requires size >= 3")

    @property
    def dim(self) -> int:
        n = self.size
        return {
            Family.GL: n * n,
            Family.SP: (n // 2) * (n + 1),
            Family.SO: n * (n - 1) // 2,
        }[self.family]

    @property
    def rank(self) -> int:
        """Rank of the associated simple algebra (A/B/C/D convention)."""
        if self.family is Family.GL:
            return self.size - 1
        return self.size // 2

    @property
    def diagram(self) -> str:
        """Dynkin diagram letter used for characteristics."""
        if self.family is Family.GL:
            return "A"
        if self.family is Family.SP:
            return "C"
        return "B" if self.size % 2 else "D"


def _signed_indices(spec: AlgebraSpec) -> tuple[int, ...]:
    n = spec.size
    if spec.family is Family.GL:
        return tuple(range(1, n + 1))
    half = n // 2
    mid = (0,) if n % 2 else ()
    return tuple(range(1, half + 1)) + mid + tuple(-i for i in range(1, half + 1))


def _eps(i: int) -> int:
    return 1 if i > 0 else -1


class AlgebraBasis:
    """A classical Lie algebra with a fixed ordered basis of matrices."""

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.n = spec.size
        self.indices = _signed_indices(spec)
        self.position = {i: a for a, i in enumerate(self.indices)}
        self.labels: list[tuple[int, int]] = []  # (i, j) of each E_ij
        self.elements: list[Sparse] = []
        self._build()
        self.dim = len(self.elements)
        if self.dim != spec.dim:
            raise AssertionError("basis size does not match the dimension formula")
        # matrix position -> index of the E basis element that owns it:
        # the element has coefficient 1 there and no other has an entry
        self.label_positions = [(self.position[i], self.position[j])
                                for i, j in self.labels]
        self.entry_index = {key: k for k, key in enumerate(self.label_positions)}

    # -- construction -------------------------------------------------

    def _build(self):
        fam = self.spec.family
        n = self.n
        if fam is Family.GL:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        self._add((i, j), {(i - 1, j - 1): 1})
            for i in range(1, n + 1):
                self._add((i, i), {(i - 1, i - 1): 1})
            return
        skew = fam is Family.SP
        for a, i in enumerate(self.indices):
            for b, j in enumerate(self.indices):
                am, bm = self.position[-j], self.position[-i]
                if (a, b) == (am, bm):
                    # entry position paired with itself (j == -i)
                    if skew:
                        self._add((i, j), {(a, b): 1})
                    continue
                if (a, b) > (am, bm):
                    continue
                coeff = -_eps(i) * _eps(j) if skew else -1
                self._add((i, j), {(a, b): 1, (am, bm): coeff})

    def _add(self, label: tuple[int, int], elem: Sparse):
        self.labels.append(label)
        self.elements.append(elem)

    # -- membership and coordinates -------------------------------------

    def contains(self, x: Sparse) -> bool:
        """Membership: the keys of x are positions of an n x n matrix, and
        x is the combination of basis elements its owned entries give.
        Basis elements have disjoint supports, so nothing is summed."""
        n = self.n
        if any(not (0 <= a < n and 0 <= b < n) for a, b in x):
            return False
        spanned = {key: c * v for k, c in self.sparse_coordinates(x).items()
                   for key, v in self.elements[k].items()}
        return spanned == {key: v for key, v in x.items() if v}

    def sparse_coordinates(self, x: Sparse) -> dict[int, int]:
        """Nonzero coordinates {basis index: value} of a member.

        Each basis element's coordinate is the entry at the position it
        owns.  Entries at positions no element owns (the mirror halves in
        sp/so) are dropped, so x must lie in the algebra.
        """
        index = self.entry_index
        return {index[key]: v for key, v in x.items()
                if v != 0 and key in index}

    def from_coordinates(self, coords: Sequence[int]) -> Sparse:
        """The element with these int coordinates.  Each goes through
        `operator.index`, so a Fraction or a float raises TypeError."""
        if len(coords) != self.dim:
            raise ValueError("coordinate vector has the wrong length")
        acc: Sparse = {}
        for c, elem in zip(coords, self.elements):
            c = operator.index(c)
            if c == 0:
                continue
            for key, v in elem.items():
                acc[key] = acc.get(key, 0) + c * v
        return {key: v for key, v in acc.items() if v}


def build_algebra(spec: AlgebraSpec) -> AlgebraBasis:
    """Realize the algebra of a spec with its fixed basis."""
    return AlgebraBasis(spec)


# -- the bracket ----------------------------------------------------------

def ad(a: Sparse) -> Callable[[Sparse], Sparse]:
    """The map b -> [a, b] = ab - ba, with a indexed by row and by column
    once.  An entry (r, c) of b meets only the entries of a in column r
    (ab) and in row c (ba), so each bracket reads just those."""
    by_row: dict[int, list[tuple[int, int]]] = {}
    by_col: dict[int, list[tuple[int, int]]] = {}
    for (i, j), v in a.items():
        by_row.setdefault(i, []).append((j, v))
        by_col.setdefault(j, []).append((i, v))

    def bracket(b: Sparse) -> Sparse:
        out: Sparse = {}
        for (r, c), w in b.items():
            for i, v in by_col.get(r, ()):
                out[i, c] = out.get((i, c), 0) + v * w
            for j, v in by_row.get(c, ()):
                out[r, j] = out.get((r, j), 0) - w * v
        return {key: x for key, x in out.items() if x}

    return bracket


# -- grading elements ----------------------------------------------------

@dataclass(frozen=True)
class GradingElement:
    """A diagonal matrix H in g; ad H defines the grading.

    `doubled` lists 2H, the diagonal times two, in the fixed basis order
    of the defining representation: the entries of H are integers or
    half-integers, so 2H is exact in ints.  Each entry goes through
    `operator.index`, so a Fraction or a float raises TypeError.  For
    sp/so the entries pair as d(v_{-i}) = -d(v_i) and d(v_0) = 0.  A gl
    diagonal is stored as 2(d - d_0), d_0 its first entry: a scalar acts
    trivially under ad, so GradingElement(GL, d) and
    GradingElement(GL, d + c) are equal.
    """

    spec: AlgebraSpec
    doubled: tuple[int, ...]

    def __post_init__(self):
        diag = tuple(map(operator.index, self.doubled))
        if len(diag) != self.spec.size:
            raise ValueError("diagonal length != matrix size")
        if self.spec.family is Family.GL:
            first = diag[0]
            diag = tuple(d - first for d in diag)
        else:
            half = len(diag) // 2
            if diag[-half:] != tuple(-d for d in diag[:half]):
                raise ValueError("diagonal not form-compatible (pairing)")
            if len(diag) % 2 and diag[half] != 0:
                raise ValueError("middle diagonal entry must vanish")
        object.__setattr__(self, "doubled", diag)

    def is_integral(self) -> bool:
        """Whether ad H has integer eigenvalues.  They are differences of
        diagonal entries, and in gl, sp and so_N (N >= 3) every such
        difference is a sum of them: all entries agree modulo 1, so all
        doubled entries share one parity."""
        parity = self.doubled[0] % 2
        return all(d % 2 == parity for d in self.doubled)


def graded_decomposition(g: AlgebraBasis, H: GradingElement) -> tuple[int, ...]:
    """The ad H eigenvalue of each basis element of g, an int.

    Every basis element is an ad H eigenvector because H is diagonal,
    so the decomposition is exact bookkeeping, not linear algebra: the
    piece g_d holds the basis elements of degree d.  Raises ValueError
    unless H is integral.
    """
    if H.spec != g.spec:
        raise ValueError("grading element spec does not match the algebra")
    if not H.is_integral():
        raise ValueError("not an integral grading")
    # doubled entries of one parity: floor halving keeps their differences
    diag = [d >> 1 for d in H.doubled]
    return tuple(diag[a] - diag[b] for a, b in g.label_positions)


def ad_coordinate_matrix(g: AlgebraBasis, e: Sparse) -> list[list[int]]:
    """Dense rows of ad e on g in basis coordinates: column k holds the
    coordinates of [e, b_k].  The test reference for the block engine in
    `gradings`, which never builds it."""
    ad_e = ad(e)
    cols = [g.sparse_coordinates(ad_e(elem)) for elem in g.elements]
    return [[col.get(k, 0) for col in cols] for k in range(g.dim)]
