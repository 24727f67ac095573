"""Enumeration of all good gradings per nilpotent orbit, plus a sweep oracle.

For each classical family the good gradings of e(p) form a finite
family H = h(p) + z, with h(p) the Dynkin element of the base pyramid
and z ranging over a small set of vectors in the center of the
reductive part of the centralizer:

* gl (sl is gl modulo scalars; outputs are normalized traceless): one
  grading per pyramid with row lengths p (shifts of the distinct parts
  below the largest, bounded by consecutive part differences);
* sp: unit shifts of the even multiplicity-2 parts, plus a global
  half shift when every part is even of multiplicity 2;
* so: unit shifts of the odd multiplicity-2 parts, with the part-1
  parameter running up to the smallest part above 1, plus half-shift
  families for even size when every part is a center part.

Every emitted grading is verified good on the spot, and the pyramid
column characteristic is cross-checked against the dominant-chamber
one; failures raise VerificationError because they would mean a bug,
not bad input.

All families share one parametrization: a grading is
`_shifted_grading(spec, base, shifts)`, one shift per center part, and
`center_torus` makes the family choice (base pyramid, center parts,
shift vectors, pyramids) in one place for the enumeration, the sweep
and the CLI.

The sweep oracle ignores the casework: on the algebra and ad e blocks
the enumeration built, it grids the center z-space and keeps whatever
passes the goodness check, deduplicated by the sign action.  The grid
is fixed by p: every half-integer in [-B, B] on each axis, with
B = max(3, p_1).  Every center coordinate of an integral grading is a
half-integer and none exceeds the largest part, so the grid holds every
candidate, and equality of the oracle's output with the enumerations
is a genuine completeness check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebras import (AlgebraBasis, AlgebraSpec, Family, GradingElement,
                       _signed_indices, build_algebra)
from .gradings import (AdBlocks, Characteristic, VerificationError,
                       ad_blocks, characteristic_from_pyramid,
                       characteristic_of, fill_boxes, is_good,
                       nilpotent_of_pyramid, normalize_traceless)
from .partitions import Partition
from .pyramids import (Pyramid, enumerate_pyramids, orthogonal_center_parts,
                       orthogonal_pyramid, orthogonal_pyramids,
                       orthogonal_shift_vectors, symmetric_pyramid,
                       symplectic_center_parts, symplectic_pyramid,
                       symplectic_pyramids, symplectic_shift_vectors,
                       type_a_center_parts, type_a_shift_vectors)


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
    """The good gradings of e(p) = blocks.e, plus the algebra and ad e
    blocks they were verified on; eq, hash and repr ignore those two."""

    spec: AlgebraSpec
    partition: Partition
    entries: tuple[GradingEntry, ...]
    g: AlgebraBasis = field(compare=False, repr=False)
    blocks: AdBlocks = field(compare=False, repr=False)

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


class CenterTorus(NamedTuple):
    """A family's choice of pyramids, as functions of the partition p.

    Every good grading of e(p) is h(base(p)) plus a vector of the center
    of the reductive centralizer of e(p): one shift per center part.
    The shift vectors list the good ones in the order of the pyramids.
    """

    base: Callable[[Partition], Pyramid]
    center_parts: Callable[[Partition], tuple[int, ...]]
    shift_vectors: Callable[[Partition], list[dict[int, Fraction]]]
    pyramids: Callable[[Partition], list[Pyramid]]


def center_torus(spec: AlgebraSpec) -> CenterTorus:
    """The one place where the family picks its pyramid functions.

    The table is built per call from the module's names, so a name
    rebound at run time (the traced benchmark wraps these) takes effect.
    """
    return {
        Family.GL: CenterTorus(symmetric_pyramid, type_a_center_parts,
                               type_a_shift_vectors, enumerate_pyramids),
        Family.SP: CenterTorus(symplectic_pyramid, symplectic_center_parts,
                               symplectic_shift_vectors, symplectic_pyramids),
        Family.SO: CenterTorus(orthogonal_pyramid, orthogonal_center_parts,
                               orthogonal_shift_vectors, orthogonal_pyramids),
    }[spec.family]


def _shifted_grading(spec: AlgebraSpec, base: Pyramid,
                     shifts: dict[int, Fraction]) -> GradingElement:
    """h(base) plus the center vector shifting the given parts' rows.

    Uses the base pyramid's box filling, so the result is literally
    h(p) + z(t) on the same basis vectors.  The rows of a part move by
    its shift in the upper half-plane and against it in the lower one.
    The result is normalized traceless: for gl that removes the scalar,
    which acts trivially under ad; sp/so diagonals already sum to zero.
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
    return normalize_traceless(GradingElement(spec, tuple(diag)))


def _entry(g: AlgebraBasis, H: GradingElement, blocks: AdBlocks,
           pyr: Pyramid, source: tuple, is_dynkin: bool) -> GradingEntry:
    pair = is_good(g, H, blocks.e, blocks)
    if not pair.verified:
        raise VerificationError(f"enumerated grading failed the goodness check "
                                f"({g.spec.family.value}, source {source})")
    char = characteristic_of(H)
    pyramid_char = characteristic_from_pyramid(g.spec, pyr)
    if pyramid_char.normalized() != char.normalized():
        raise VerificationError("column characteristic disagrees with the "
                                "dominant-chamber characteristic")
    return GradingEntry(H=H, source=source, characteristic=char,
                        is_dynkin=is_dynkin,
                        is_even=pair.decomposition.is_even(),
                        centralizer_degrees=pair.centralizer_degrees)


def good_gradings(spec: AlgebraSpec, p: Partition) -> GoodGradingFamily:
    """All good gradings for the nilpotent of Jordan type p in the algebra.

    One per pyramid of p.  The source holds the grading's center
    coordinates: one shift per row for gl ("shifts"), one per center
    part for sp/so ("t").
    """
    _reject_zero(p)
    if p.n != spec.size:
        raise ValueError("partition total != matrix size")
    torus = center_torus(spec)
    base = torus.base(p)
    g = build_algebra(spec)
    e = nilpotent_of_pyramid(spec, base)
    blocks = ad_blocks(g, e)
    kind, keys = ("shifts", p.parts) if spec.family is Family.GL \
        else ("t", torus.center_parts(p))
    entries = []
    for shifts, pyr in zip(torus.shift_vectors(p), torus.pyramids(p)):
        H = _shifted_grading(spec, base, shifts)
        values = tuple(shifts.get(v, Fraction(0)) for v in keys)
        entries.append(_entry(g, H, blocks, pyr, (kind, values),
                              all(x == 0 for x in values)))
    return GoodGradingFamily(spec, p, tuple(entries), g, blocks)


def good_gradings_gl(p: Partition) -> GoodGradingFamily:
    """All good gradings for the nilpotent of Jordan type p in gl_n."""
    return good_gradings(AlgebraSpec(Family.GL, p.n), p)


def good_gradings_sp(p: Partition) -> GoodGradingFamily:
    """All good gradings for the nilpotent of a symplectic partition in sp_N."""
    return good_gradings(AlgebraSpec(Family.SP, p.n), p)


def good_gradings_so(p: Partition) -> GoodGradingFamily:
    """All good gradings for the nilpotent of an orthogonal partition in so_N."""
    return good_gradings(AlgebraSpec(Family.SO, p.n), p)


# -- even gradings ------------------------------------------------------------


def even_good_grading_gl(p: Partition) -> GradingElement:
    """An even good grading for any nilpotent of gl_n.

    Slide rows one step at every parity break between consecutive
    parts, so all box coordinates share one parity.
    """
    _reject_zero(p)
    spec = AlgebraSpec(Family.GL, p.n)
    g = build_algebra(spec)
    base = symmetric_pyramid(p)
    values = [v for v, _ in p.distinct()]
    breaks = ((v - w) % 2 for v, w in zip(values, values[1:]))
    shifts = dict(zip(values[1:], map(Fraction, itertools.accumulate(breaks))))
    H = _shifted_grading(spec, base, shifts)
    pair = is_good(g, H, nilpotent_of_pyramid(spec, base))
    if not pair.verified or not pair.decomposition.is_even():
        raise VerificationError("parity-break shifts failed to give an even good grading")
    return H


# -- the sweep oracle ----------------------------------------------------------


# Largest grid a sweep may walk: (4B + 1)^c candidates, B = max(3, p_1)
# and c center parts.  The sweeps in the tests and in the verify
# benchmark need at most 169 (13^2: c = 2, B = 3); the c = 3 sweep of
# so_18 with p = (5,5,3,3,1,1) needs 21^3 = 9261.  Since B >= 3, any
# c >= 4 needs at least 13^4 = 28561 and is refused.
MAX_SWEEP_CANDIDATES = 10_000


def sweep_grid(spec: AlgebraSpec, p: Partition
               ) -> tuple[list[Fraction], tuple[int, ...]]:
    """The sweep's grid axis and the center parts it runs over.

    The axis holds every half-integer in [-B, B], B = max(3, p_1), and
    the sweep walks one axis per center part of `center_torus`.  Raises
    ValueError, before anything is built, for a grid of more than
    MAX_SWEEP_CANDIDATES candidates.
    """
    _reject_zero(p)
    if p.n != spec.size:
        raise ValueError("partition total != matrix size")
    cparts = center_torus(spec).center_parts(p)
    bound = max(3, p.parts[0])
    if (4 * bound + 1) ** len(cparts) > MAX_SWEEP_CANDIDATES:
        raise ValueError(f"grid sweep of {p} exceeds "
                         f"{MAX_SWEEP_CANDIDATES} candidates")
    return [Fraction(k, 2) for k in range(-2 * bound, 2 * bound + 1)], cparts


def sweep_oracle(fam: GoodGradingFamily) -> list[GradingElement]:
    """Brute-force search for good gradings H = h(p) + z over a grid.

    Runs on the orbit the enumeration built (`fam.g`, `fam.blocks`) and
    never reads `fam.entries`, so it stays independent of the casework.
    z runs over the center of the reductive part of the centralizer of
    e(p): one coordinate per center part of `center_torus`, the shift of
    that part's rows (for gl relative to the largest part, whose rows
    stay put).  Candidates that do not define an integral grading are
    skipped; survivors are exactly those passing the goodness check.
    For sp/so they are deduplicated by componentwise sign flips (which
    the casework never distinguishes) and returned with all coordinates
    nonnegative; for gl each shift vector is a grading of its own.  The
    result is sorted by coordinate vector.

    The grid is `sweep_grid(spec, p)`: no good grading shifts any row by
    more than the largest part of p, nor by anything but a half-integer,
    so the sweep is exhaustive over the whole candidate space.
    """
    spec, p, g, blocks = fam.spec, fam.partition, fam.g, fam.blocks
    vals, cparts = sweep_grid(spec, p)
    base = center_torus(spec).base(p)
    type_a = spec.family is Family.GL

    def candidate(t):
        return _shifted_grading(spec, base, dict(zip(cparts, t)))

    found: dict[tuple, GradingElement] = {}
    for t in itertools.product(vals, repeat=len(cparts)):
        # gl rows hold integer coordinates, so a non-integer shift puts
        # half-integer degrees between two blocks: skip it unbuilt
        if type_a and any(x.denominator != 1 for x in t):
            continue
        H = candidate(t)
        if not H.is_integral():
            continue
        if not is_good(g, H, blocks.e, blocks).verified:
            continue
        ct = t if type_a else tuple(abs(x) for x in t)
        if ct not in found:
            Hc = candidate(ct)
            if not is_good(g, Hc, blocks.e, blocks).verified:
                raise VerificationError("sign flip changed the goodness verdict")
            found[ct] = Hc
    return [found[ct] for ct in sorted(found)]
