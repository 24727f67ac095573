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
`gradings.grading_of_pyramid(spec, base, shifts)`, one shift per center
part, and `center_torus` makes the family choice (base pyramid, center
parts, shift vectors, pyramids) in one place for the enumeration, the
sweep and the CLI.

The sweep oracle ignores the casework: on the ad e blocks the
enumeration built, it finds the good gradings h(p) + z(t) as the
integral points of a polytope.  Its bounds come from the weights of the
centralizer of e by Fourier-Motzkin elimination, not from the
classification, so equality with the enumeration is a genuine
completeness check.  It builds its gradings with `grading_of_pyramid` too.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebras import (AlgebraSpec, Family, GradingElement, build_algebra,
                       graded_decomposition)
from .gradings import (AdBlocks, Characteristic, VerificationError,
                       ad_blocks, characteristic_from_pyramid,
                       characteristic_of, graded_ad_ranks,
                       grading_of_pyramid, is_good, nilpotent_of_pyramid)
from .linalg import Scalar
from .partitions import (Partition, gl_centralizer_dim, so_centralizer_dim,
                         sp_centralizer_dim)
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
    centralizer_degrees: tuple[int, ...]


@dataclass(frozen=True)
class GoodGradingFamily:
    """The good gradings of e(p) = blocks.e, plus the ad e blocks (on
    the algebra blocks.g) they were verified on; eq, hash and repr
    ignore the blocks."""

    spec: AlgebraSpec
    partition: Partition
    entries: tuple[GradingEntry, ...]
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
    shift_vectors: Callable[[Partition], list[dict[int, Scalar]]]
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


def _entry(H: GradingElement, blocks: AdBlocks, pyr: Pyramid, source: tuple,
           is_dynkin: bool) -> GradingEntry:
    pair = is_good(H, blocks)
    if not pair.verified:
        raise VerificationError(f"enumerated grading failed the goodness check "
                                f"({H.spec.family.value}, source {source})")
    char = characteristic_of(H)
    pyramid_char = characteristic_from_pyramid(H.spec, pyr)
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
    blocks = ad_blocks(g, nilpotent_of_pyramid(g, base))
    kind, keys = ("shifts", p.parts) if spec.family is Family.GL \
        else ("t", torus.center_parts(p))
    entries = []
    for shifts, pyr in zip(torus.shift_vectors(p), torus.pyramids(p)):
        H = grading_of_pyramid(spec, base, shifts)
        values = tuple(shifts.get(v, 0) for v in keys)
        entries.append(_entry(H, blocks, pyr, (kind, values),
                              all(x == 0 for x in values)))
    return GoodGradingFamily(spec, p, tuple(entries), blocks)


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
    base = symmetric_pyramid(p)
    values = [v for v, _ in p.distinct()]
    breaks = ((v - w) % 2 for v, w in zip(values, values[1:]))
    shifts = dict(zip(values[1:], itertools.accumulate(breaks)))
    H = grading_of_pyramid(spec, base, shifts)
    g = build_algebra(spec)
    pair = is_good(H, ad_blocks(g, nilpotent_of_pyramid(g, base)))
    if not pair.verified or not pair.decomposition.is_even():
        raise VerificationError("parity-break shifts failed to give an even good grading")
    return H


# -- the sweep oracle ----------------------------------------------------------


def _lattice_points(rows: list[tuple[tuple[int, ...], int]], parity: set,
                    c: int) -> list[tuple[int, ...]]:
    """The points s of Z^c with a.s + b >= 0 for every row (a, b) and
    a.s + b even for every parity row.  Fourier-Motzkin elimination, last
    coordinate first, files each row under its last nonzero coefficient
    k, where it bounds s_k once s_0..s_{k-1} are fixed.  A coordinate
    not bounded on both sides raises VerificationError."""
    def value(a, b, s):
        return b + sum(x * y for x, y in zip(a, s))

    levels = []
    for k in reversed(range(c)):
        # one row per coefficient vector: sorted, its tightest b comes last
        rows = list(dict(sorted(rows, reverse=True)).items())
        here = [(a, b) for a, b in rows if a[k]]
        if {a[k] > 0 for a, _ in here} != {True, False}:
            raise VerificationError(f"the polytope is unbounded in coordinate {k}")
        levels.insert(0, here)
        rows = [(a, b) for a, b in rows if not a[k]] + [
            (tuple(-a2[k] * x + a1[k] * y for x, y in zip(a1, a2)),
             -a2[k] * b1 + a1[k] * b2)
            for (a1, b1), (a2, b2) in itertools.product(here, repeat=2)
            if a1[k] > 0 > a2[k]]
    points = [()] if all(b >= 0 for _, b in rows) else []
    for k, level in enumerate(levels):
        points = [s + (x,) for s in points for x in range(
            max(-(value(a, b, s) // a[k]) for a, b in level if a[k] > 0),
            min(value(a, b, s) // -a[k] for a, b in level if a[k] < 0) + 1)]
    return [s for s in points if all(value(a, b, s) % 2 == 0 for a, b in parity)]


def _centralizer_weights(fam: GoodGradingFamily):
    """(forms, weights): twice the degree of basis element k under H(t)
    is a.s + b, s = 2t, for forms[k] = (a, b), read off the degrees of
    H(0) and of H at the unit vectors; weights counts the forms of a
    basis of g^e, checked against the closed form for dim g^e."""
    spec, p, g = fam.spec, fam.partition, fam.blocks.g
    torus = center_torus(spec)
    base = torus.base(p)
    of_0, *of_steps = (
        graded_decomposition(g, grading_of_pyramid(spec, base, shifts)).of
        for shifts in [{}] + [{v: 1} for v in torus.center_parts(p)])
    forms = [(tuple(of_i[k] - d for of_i in of_steps), 2 * d)
             for k, d in enumerate(of_0)]
    weights = Counter(forms) - graded_ad_ranks(fam.blocks, forms)
    closed_form = {Family.GL: gl_centralizer_dim, Family.SP: sp_centralizer_dim,
                   Family.SO: so_centralizer_dim}[spec.family]
    if sum(weights.values()) != closed_form(p):
        raise VerificationError("centralizer weights disagree with dim g^e")
    return forms, weights


def sweep_oracle(fam: GoodGradingFamily) -> list[GradingElement]:
    """Every good grading H(t) = h(p) + z(t), read off a polytope in t.

    Runs on the orbit the enumeration built (`fam.blocks`), not on
    `fam.entries`.  t holds one shift per center part (for gl relative
    to the largest part).  In s = 2t every degree of ad H(t) is affine
    with integer coefficients, and `graded_ad_ranks` on those forms
    gives the weights of g^e for every t at once.  H(t) is good iff
    every degree is an integer (the parity rows) and every weight of g^e
    has degree >= 0.  So the bounds on t come from the orbit, not from
    the classification.  `is_good` confirms every point; sp/so points
    are deduplicated by sign flips to nonnegative coordinates.  Sorted
    by coordinate vector.
    """
    spec, p, blocks = fam.spec, fam.partition, fam.blocks
    torus = center_torus(spec)
    base, parts = torus.base(p), torus.center_parts(p)
    forms, weights = _centralizer_weights(fam)
    parity = {(tuple(x % 2 for x in a), b % 2) for a, b in forms}

    def grading(t):
        return grading_of_pyramid(spec, base, dict(zip(parts, t)))

    found: dict[tuple, GradingElement] = {}
    for s in _lattice_points(list(weights), parity, len(parts)):
        t = tuple(Fraction(x, 2) for x in s)
        H = grading(t)
        if not is_good(H, blocks).verified:
            raise VerificationError("a point of the polytope is not good")
        ct = t if spec.family is Family.GL else tuple(abs(x) for x in t)
        if ct not in found:
            found[ct] = H if ct == t else grading(ct)
            if ct != t and not is_good(found[ct], blocks).verified:
                raise VerificationError("sign flip changed the goodness verdict")
    return [found[ct] for ct in sorted(found)]
