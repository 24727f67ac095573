"""Enumeration of all good gradings per nilpotent orbit, plus a sweep oracle.

For each classical family the good gradings of e(p) form a finite
family H = h(p) + z, with h(p) the Dynkin element of the base pyramid
and z ranging over a small set of vectors in the center of the
reductive part of the centralizer:

* gl/sl: one grading per pyramid with row lengths p (block shifts
  bounded by consecutive part differences);
* sp: unit shifts of the even multiplicity-2 parts, plus a global
  half shift when every part is even of multiplicity 2;
* so: unit shifts of the odd multiplicity-2 parts, with the part-1
  parameter running up to the smallest part above 1, plus half-shift
  families for even size when every part is a center part.

Every emitted grading is verified good on the spot, and the pyramid
column characteristic is cross-checked against the dominant-chamber
one; failures raise VerificationError because they would mean a bug,
not bad input.

The sweep oracle ignores the casework: it grids the center z-space and
keeps whatever passes the goodness check, deduplicated by the sign
action.  The requested grid bound is widened to the largest part of p,
which dominates every shift any good grading can use, so equality of
the oracle's output with the enumerations is a genuine completeness
check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebras import (AlgebraBasis, AlgebraSpec, Family, GradingElement,
                       _signed_indices, build_algebra, graded_decomposition)
from .gradings import (AdBlocks, Characteristic, VerificationError,
                       ad_blocks, characteristic_from_pyramid,
                       characteristic_of, fill_boxes, grading_of_pyramid,
                       is_good, nilpotent_of_pyramid, normalize_traceless)
from .linalg import Matrix, as_fraction
from .partitions import Partition, center_dim
from .pyramids import (TYPE_A, Pyramid, Row, enumerate_pyramids,
                       orthogonal_center_parts, orthogonal_pyramid,
                       orthogonal_pyramids, orthogonal_shift_vectors,
                       symmetric_pyramid, symplectic_center_parts,
                       symplectic_pyramid, symplectic_pyramids,
                       symplectic_shift_vectors)


@dataclass(frozen=True)
class GradingEntry:
    """One good grading: the element, where it came from, and its data."""

    H: GradingElement
    source: tuple
    characteristic: Characteristic
    is_dynkin: bool
    is_even: bool
    centralizer_degrees: tuple[Fraction, ...]


@dataclass(frozen=True)
class GoodGradingFamily:
    spec: AlgebraSpec
    partition: Partition
    entries: tuple[GradingEntry, ...]

    def __post_init__(self):
        if sum(1 for ent in self.entries if ent.is_dynkin) != 1:
            raise VerificationError("expected exactly one Dynkin entry")
        if len(self.diagonals()) != len(self.entries):
            raise VerificationError("duplicate gradings emitted")

    def diagonals(self) -> set[tuple[Fraction, ...]]:
        return {ent.H.diagonal for ent in self.entries}

    @property
    def dynkin(self) -> GradingEntry:
        return next(ent for ent in self.entries if ent.is_dynkin)

    def even_entries(self) -> list[GradingEntry]:
        return [ent for ent in self.entries if ent.is_even]

    def __len__(self):
        return len(self.entries)


def _reject_zero(p: Partition):
    if p.is_zero_orbit():
        raise ValueError("the zero orbit has no good element")


def _shifted_grading(spec: AlgebraSpec, base: Pyramid,
                     shifts: dict[int, Fraction]) -> GradingElement:
    """h(base) plus the center vector shifting the given parts' row pairs.

    Uses the base pyramid's box filling, so the result is literally
    h(p) + z(t) on the same basis vectors.
    """
    labels = fill_boxes(spec, base)
    pos = {i: a for a, i in enumerate(_signed_indices(spec))}
    diag = [Fraction(0)] * spec.size
    for r in base.rows:
        s = Fraction(0)
        if r.role == "full" and r.y != 0:
            s = shifts.get(r.parts[0], Fraction(0))
            if r.y < 0:
                s = -s
        for x in r.coords():
            diag[pos[labels[(x, r.y)]]] = x + s
    return GradingElement(spec, tuple(diag))


def _entry(g: AlgebraBasis, H: GradingElement, e: Matrix, blocks: AdBlocks,
           pyr: Pyramid, source: tuple, is_dynkin: bool) -> GradingEntry:
    pair = is_good(g, H, e, blocks)
    if not pair.verified:
        raise VerificationError(f"enumerated grading failed the goodness check "
                                f"({g.spec.family.value}, source {source})")
    char = characteristic_of(g, H)
    pyramid_char = characteristic_from_pyramid(g.spec, pyr)
    if pyramid_char.normalized() != char.normalized():
        raise VerificationError("column characteristic disagrees with the "
                                "dominant-chamber characteristic")
    return GradingEntry(H=H, source=source, characteristic=char,
                        is_dynkin=is_dynkin,
                        is_even=graded_decomposition(g, H).is_even(),
                        centralizer_degrees=pair.centralizer_degrees)


def good_gradings_gl(p: Partition) -> GoodGradingFamily:
    """All good gradings for the nilpotent of Jordan type p in gl_n.

    One per pyramid with row lengths p; output normalized traceless.
    """
    _reject_zero(p)
    spec = AlgebraSpec(Family.GL, p.n)
    g = build_algebra(spec)
    base = symmetric_pyramid(p)
    e = nilpotent_of_pyramid(spec, base)
    blocks = ad_blocks(g, e)
    entries = []
    for pyr in enumerate_pyramids(p):
        H = normalize_traceless(grading_of_pyramid(spec, pyr))
        shifts = tuple(int(r.first + r.count - 1) for r in pyr.rows)
        entries.append(_entry(g, H, e, blocks, pyr, ("shifts", shifts),
                              all(s == 0 for s in shifts)))
    return GoodGradingFamily(spec, p, tuple(entries))


def good_gradings_sp(p: Partition) -> GoodGradingFamily:
    """All good gradings for the nilpotent of a symplectic partition in sp_N."""
    _reject_zero(p)
    if not p.is_symplectic():
        raise ValueError(f"{p} is not symplectic")
    spec = AlgebraSpec(Family.SP, p.n)
    g = build_algebra(spec)
    base = symplectic_pyramid(p)
    e = nilpotent_of_pyramid(spec, base)
    blocks = ad_blocks(g, e)
    cparts = symplectic_center_parts(p)
    entries = []
    for shifts, pyr in zip(symplectic_shift_vectors(p), symplectic_pyramids(p)):
        H = _shifted_grading(spec, base, shifts)
        t = tuple(shifts.get(v, Fraction(0)) for v in cparts)
        entries.append(_entry(g, H, e, blocks, pyr, ("t", t),
                              all(x == 0 for x in t)))
    return GoodGradingFamily(spec, p, tuple(entries))


def good_gradings_so(p: Partition, size: int | None = None) -> GoodGradingFamily:
    """All good gradings for the nilpotent of an orthogonal partition in so_N."""
    _reject_zero(p)
    if not p.is_orthogonal():
        raise ValueError(f"{p} is not orthogonal")
    if size is not None and size != p.n:
        raise ValueError("partition total != requested size")
    spec = AlgebraSpec(Family.SO, p.n)
    g = build_algebra(spec)
    base = orthogonal_pyramid(p)
    e = nilpotent_of_pyramid(spec, base)
    blocks = ad_blocks(g, e)
    cparts = orthogonal_center_parts(p)
    entries = []
    for shifts, pyr in zip(orthogonal_shift_vectors(p), orthogonal_pyramids(p)):
        H = _shifted_grading(spec, base, shifts)
        t = tuple(shifts.get(v, Fraction(0)) for v in cparts)
        entries.append(_entry(g, H, e, blocks, pyr, ("t", t),
                              all(x == 0 for x in t)))
    return GoodGradingFamily(spec, p, tuple(entries))


def good_gradings(spec: AlgebraSpec, p: Partition) -> GoodGradingFamily:
    if spec.family in (Family.GL, Family.SL):
        if p.n != spec.size:
            raise ValueError("partition total != matrix size")
        return good_gradings_gl(p)
    if spec.family is Family.SP:
        if p.n != spec.size:
            raise ValueError("partition total != matrix size")
        return good_gradings_sp(p)
    return good_gradings_so(p, spec.size)


# -- even gradings ------------------------------------------------------------


def even_good_grading_gl(p: Partition) -> GradingElement:
    """An even good grading for any nilpotent of gl_n.

    Slide rows one step at every parity break between consecutive
    parts, so all box coordinates share one parity.
    """
    _reject_zero(p)
    parts = p.parts
    spec = AlgebraSpec(Family.GL, p.n)
    g = build_algebra(spec)
    rows = [Row(y=1, first=Fraction(-parts[0] + 1), count=parts[0],
                parts=(parts[0],))]
    shift = 0
    for j in range(1, len(parts)):
        shift += (parts[j - 1] - parts[j]) % 2
        rows.append(Row(y=j + 1, first=Fraction(-parts[j] + 1 + shift),
                        count=parts[j], parts=(parts[j],)))
    pyr = Pyramid(TYPE_A, tuple(rows))
    H = normalize_traceless(grading_of_pyramid(spec, pyr))
    e = nilpotent_of_pyramid(spec, symmetric_pyramid(p))
    pair = is_good(g, H, e)
    if not pair.verified or not graded_decomposition(g, H).is_even():
        raise VerificationError("parity-break shifts failed to give an even good grading")
    return H


def even_good_gradings_sp(p: Partition) -> list[GradingElement]:
    """The even gradings among the good gradings of e(p) in sp_N."""
    return [ent.H for ent in good_gradings_sp(p).entries if ent.is_even]


# -- the sweep oracle ----------------------------------------------------------


def _grid(bound: Fraction, step: Fraction) -> list[Fraction]:
    vals = []
    v = -bound
    while v <= bound:
        vals.append(v)
        v += step
    return vals


def _gl_center_grading(spec: AlgebraSpec, p: Partition, base: Pyramid,
                       t: tuple[Fraction, ...]) -> GradingElement:
    """h(p) plus the block-constant center vector with consecutive
    block differences t, normalized to trace zero."""
    blocks = p.distinct()
    d = len(blocks)
    suffix = [Fraction(0)] * (d + 1)
    for i in range(d - 1, 0, -1):
        suffix[i] = suffix[i + 1] + (t[i - 1] if i <= len(t) else Fraction(0))
    total = sum(Fraction(v * m) * suffix[i + 1] for i, (v, m) in enumerate(blocks))
    x = -total / p.n
    consts = [x + suffix[i + 1] for i in range(d)]
    h = grading_of_pyramid(spec, base)
    diag = list(h.diagonal)
    k = 0
    for (v, m), cst in zip(blocks, consts):
        for _ in range(v * m):
            diag[k] += cst
            k += 1
    return GradingElement(spec, tuple(diag))


# Largest grid a sweep may walk: (floor(2 bound / step) + 1)^c candidates.
# The sweeps in the tests and in the verify benchmark need at most 169
# (13^2: c = 2, bound 3, step 1/2); the c = 3 sweep of so_18 with
# p = (5,5,3,3,1,1) at step 1/2 needs 21^3 = 9261.
MAX_SWEEP_CANDIDATES = 10_000


def sweep_grid(spec: AlgebraSpec, p: Partition, grid_bound, grid_step
               ) -> tuple[Fraction, Fraction, int]:
    """The sweep's widened grid bound, its step and the center dimension c.

    Raises ValueError, before anything is allocated, for a bad step, for
    c > 3, or for a grid of more than MAX_SWEEP_CANDIDATES candidates.
    """
    _reject_zero(p)
    if p.n != spec.size:
        raise ValueError("partition total != matrix size")
    c = center_dim(spec, p)
    if c > 3:
        raise ValueError("center dimension too large for a grid sweep")
    bound = max(as_fraction(grid_bound), Fraction(p.parts[0]))
    step = as_fraction(grid_step)
    if step <= 0:
        raise ValueError("grid step must be positive")
    if (2 * bound // step + 1) ** c > MAX_SWEEP_CANDIDATES:
        raise ValueError(f"grid sweep exceeds {MAX_SWEEP_CANDIDATES} "
                         f"candidates; use a larger step")
    return bound, step, c


def sweep_oracle(spec: AlgebraSpec, p: Partition,
                 grid_bound=Fraction(3), grid_step=Fraction(1, 2)
                 ) -> list[GradingElement]:
    """Brute-force search for good gradings H = h(p) + z over a grid.

    z runs over the center of the reductive part of the centralizer of
    e(p): block constants for gl (coordinates = consecutive block
    differences), signed part shifts for sp/so.  Candidates that do not
    define an integral grading are skipped; survivors are exactly those
    passing the goodness check, deduplicated by componentwise sign
    flips (which the casework never distinguishes) and returned with
    all coordinates nonnegative, sorted by coordinate vector.

    The grid bound is raised to the largest part of p when necessary:
    no good grading shifts any row by more than that, so the sweep is
    exhaustive over the whole candidate space.
    """
    bound, step, c = sweep_grid(spec, p, grid_bound, grid_step)
    vals = _grid(bound, step)
    fam = spec.family
    if fam in (Family.GL, Family.SL):
        base = symmetric_pyramid(p)
        spec = AlgebraSpec(Family.GL, p.n)

        def candidate(t):
            if any(x.denominator != 1 for x in t):
                return None
            return _gl_center_grading(spec, p, base, t)

        def canonical(t):
            return t
    else:
        if fam is Family.SP:
            if not p.is_symplectic():
                raise ValueError(f"{p} is not symplectic")
            base = symplectic_pyramid(p)
            cparts = symplectic_center_parts(p)
        else:
            if not p.is_orthogonal():
                raise ValueError(f"{p} is not orthogonal")
            base = orthogonal_pyramid(p)
            cparts = orthogonal_center_parts(p)

        def candidate(t):
            return _shifted_grading(spec, base, dict(zip(cparts, t)))

        def canonical(t):
            return tuple(abs(x) for x in t)

    g = build_algebra(spec)
    e = nilpotent_of_pyramid(spec, base)
    blocks = ad_blocks(g, e)
    found: dict[tuple, GradingElement] = {}
    for t in itertools.product(vals, repeat=c):
        H = candidate(t)
        if H is None:
            continue
        if not graded_decomposition(g, H).is_integral():
            continue
        if not is_good(g, H, e, blocks).verified:
            continue
        ct = canonical(t)
        if ct not in found:
            Hc = candidate(ct)
            if not is_good(g, Hc, e, blocks).verified:
                raise VerificationError("sign flip changed the goodness verdict")
            found[ct] = Hc
    return [found[ct] for ct in sorted(found)]
