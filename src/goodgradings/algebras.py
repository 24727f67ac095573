"""Classical matrix Lie algebras gl_n, sp_2n, so_N.

Realizations fix the ordered basis v_1,...,v_n,(v_0),v_{-1},...,v_{-n}
of the defining representation and the bilinear forms

    sp_2n:  <v_i, v_{-j}> = delta_ij  (skew),
    so_N :  (v_i, v_{-j}) = delta_ij  (symmetric),

i.e. antidiagonal Gram matrices.  With this choice every diagonal
matrix diag(d_1..d_n, (0), -d_1..-d_n) lies in the algebra, so grading
elements are literally diagonal, and each basis element of the algebra
is an eigenvector of ad H for diagonal H.  Graded decompositions are
then a matter of bucketing basis elements by eigenvalue, an int: these
are Z-gradings, and `graded_decomposition` refuses any other H.

Type A is realized as gl_n only: a grading of sl_n is a grading of gl_n
modulo scalars, so type A grading elements are normalized traceless.

Every element of the algebra is kept sparse, as `Sparse`
({(row, col): value} with int or Fraction values and no zero entries).
Basis elements have at most two nonzero entries, each the int 1 or -1,
so brackets of integer matrices stay integers.  The dense rows of ad e
from `ad_coordinate_matrix` are the test reference for the block engine
in `gradings`; no runtime path builds them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .linalg import Scalar, as_fraction

Sparse = dict[tuple[int, int], Scalar]


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
        self.labels: list[tuple] = []
        self.elements: list[Sparse] = []
        self._build()
        self.dim = len(self.elements)
        if self.dim != spec.dim:
            raise AssertionError("basis size does not match the dimension formula")
        # matrix position -> index of the E basis element that owns it:
        # the element has coefficient 1 there and no other has an entry
        self.entry_index = {(self.position[i], self.position[j]): k
                            for k, (_, i, j) in enumerate(self.labels)}

    # -- construction -------------------------------------------------

    def _build(self):
        fam = self.spec.family
        n = self.n
        if fam is Family.GL:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        self._add(("E", i, j), {(i - 1, j - 1): 1})
            for i in range(1, n + 1):
                self._add(("E", i, i), {(i - 1, i - 1): 1})
            return
        skew = fam is Family.SP
        for a, i in enumerate(self.indices):
            for b, j in enumerate(self.indices):
                am, bm = self.position[-j], self.position[-i]
                if (a, b) == (am, bm):
                    # entry position paired with itself (j == -i)
                    if skew:
                        self._add(("E", i, j), {(a, b): 1})
                    continue
                if (a, b) > (am, bm):
                    continue
                coeff = -_eps(i) * _eps(j) if skew else -1
                self._add(("E", i, j), {(a, b): 1, (am, bm): coeff})

    def _add(self, label: tuple, elem: Sparse):
        self.labels.append(label)
        self.elements.append(elem)

    # -- membership and coordinates -------------------------------------

    def contains(self, x: Sparse) -> bool:
        """Form-compatibility of an element: its keys are positions of an
        n x n matrix, and for sp/so each entry has its mirror entry."""
        n = self.n
        if any(not (0 <= a < n and 0 <= b < n) for a, b in x):
            return False
        fam = self.spec.family
        if fam is Family.GL:
            return True
        pos, idx = self.position, self.indices
        skew = fam is Family.SP
        for (a, b), v in x.items():
            if not v:
                continue  # a nonzero mirror entry fails its own check
            i, j = idx[a], idx[b]
            sign = _eps(i) * _eps(j) if skew else 1
            if x.get((pos[-j], pos[-i]), 0) != -sign * v:
                return False
        return True

    def coordinates(self, x: Sparse) -> tuple[Scalar, ...]:
        """Dense coordinate tuple of a member given by its entries."""
        coords = self.sparse_coordinates(x)
        return tuple(coords.get(k, Fraction(0)) for k in range(self.dim))

    def sparse_coordinates(self, x: Sparse) -> dict[int, Scalar]:
        """Nonzero coordinates {basis index: value} of a member.

        Each basis element's coordinate is the entry at the position it
        owns.  Entries at positions no element owns (the mirror halves in
        sp/so) are dropped, so x must lie in the algebra.
        """
        index = self.entry_index
        return {index[key]: v for key, v in x.items()
                if v != 0 and key in index}

    def from_coordinates(self, coords: Sequence[Scalar]) -> Sparse:
        """The element with these coordinates.  Int coordinates give int
        entries; any other value goes through `as_fraction`, so a float
        raises TypeError."""
        if len(coords) != self.dim:
            raise ValueError("coordinate vector has the wrong length")
        acc: Sparse = {}
        for c, elem in zip(coords, self.elements):
            if type(c) is not int:
                c = as_fraction(c)
            if c == 0:
                continue
            for key, v in elem.items():
                acc[key] = acc.get(key, 0) + c * v
        return {key: v for key, v in acc.items() if v}


def build_algebra(spec: AlgebraSpec) -> AlgebraBasis:
    """Realize the algebra of a spec with its fixed basis."""
    return AlgebraBasis(spec)


# -- sparse helpers -----------------------------------------------------

def sparse_bracket(a: Sparse, b: Sparse) -> Sparse:
    out: Sparse = {}
    for (r1, c1), v1 in a.items():
        for (r2, c2), v2 in b.items():
            if c1 == r2:
                key = (r1, c2)
                out[key] = out.get(key, 0) + v1 * v2
            if c2 == r1:
                key = (r2, c1)
                out[key] = out.get(key, 0) - v2 * v1
    return {k: v for k, v in out.items() if v != 0}


# -- grading elements ----------------------------------------------------

@dataclass(frozen=True)
class GradingElement:
    """A diagonal matrix H in g; ad H defines the grading.

    The diagonal is listed in the fixed basis order of the defining
    representation.  For sp/so the entries pair as d(v_{-i}) = -d(v_i)
    and d(v_0) = 0.
    """

    spec: AlgebraSpec
    diagonal: tuple[Fraction, ...]

    def __post_init__(self):
        diag = tuple(as_fraction(x) for x in self.diagonal)
        object.__setattr__(self, "diagonal", diag)
        if len(diag) != self.spec.size:
            raise ValueError("diagonal length != matrix size")
        if self.spec.family in (Family.SP, Family.SO):
            half = len(diag) // 2
            if diag[-half:] != tuple(-d for d in diag[:half]):
                raise ValueError("diagonal not form-compatible (pairing)")
            if len(diag) % 2 and diag[half] != 0:
                raise ValueError("middle diagonal entry must vanish")

    def is_integral(self) -> bool:
        """Whether ad H has integer eigenvalues.  They are differences of
        diagonal entries, and in gl, sp and so_N (N >= 3) every such
        difference is a sum of them: all entries agree modulo 1."""
        first = self.diagonal[0]
        return all((d - first).denominator == 1 for d in self.diagonal)


@dataclass(frozen=True)
class GradedDecomposition:
    """Eigenspace decomposition of g under ad H for diagonal H."""

    degrees: tuple[int, ...]
    buckets: dict  # degree -> tuple of basis indices
    of: tuple[int, ...]  # the degree of each basis element

    def piece_dim(self, degree: Scalar) -> int:
        d = as_fraction(degree)  # a float raises TypeError
        return len(self.buckets.get(d.numerator, ())) if d.denominator == 1 else 0

    def is_even(self) -> bool:
        return all(d % 2 == 0 for d in self.degrees)


def graded_decomposition(g: AlgebraBasis, H: GradingElement) -> GradedDecomposition:
    """Bucket the fixed basis of g by ad H eigenvalue, an int.

    Every basis element is an ad H eigenvector because H is diagonal,
    so the decomposition is exact bookkeeping, not linear algebra.
    Raises ValueError unless H is integral.
    """
    if H.spec != g.spec:
        raise ValueError("grading element spec does not match the algebra")
    if not H.is_integral():
        raise ValueError("not an integral grading")
    first, pos = H.diagonal[0], g.position
    diag = [int(d - first) for d in H.diagonal]
    of = tuple(diag[pos[i]] - diag[pos[j]] for _, i, j in g.labels)
    buckets: dict[int, list[int]] = {}
    for k, d in enumerate(of):
        buckets.setdefault(d, []).append(k)
    frozen = {d: tuple(ks) for d, ks in buckets.items()}
    return GradedDecomposition(tuple(sorted(frozen)), frozen, of)


def ad_coordinate_matrix(g: AlgebraBasis, e: Sparse) -> list[list[Scalar]]:
    """Dense rows of ad e on g in basis coordinates: column k holds the
    coordinates of [e, b_k].  The test reference for the block engine in
    `gradings`, which never builds it."""
    cols = [g.coordinates(sparse_bracket(e, elem)) for elem in g.elements]
    return [list(row) for row in zip(*cols)]
