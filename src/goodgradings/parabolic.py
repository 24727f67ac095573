"""Parabolic subalgebras, their even gradings, and Richardson goodness.

Parabolic classes are encoded by a composition (a_1..a_t) of the flag
dimension jumps, plus for sp/so the middle jump q of the isotropic
flag (q = 0 for type A; N - q even; q != 2 for so of even size).

Every parabolic corresponds to an even grading: list the full chain of
flag blocks (a_1..a_t, q, a_t..a_1) and give consecutive blocks
eigenvalues decreasing by 2, centered at zero.  The Richardson element
of the parabolic is good for that grading exactly when the composition
matches a family-specific closed-form pattern; the generic-element
oracle checks the same statement from first principles by sampling
degree-2 elements and comparing centralizer dimension with dim g_0.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebras import (AlgebraBasis, AlgebraSpec, Family, GradingElement,
                       build_algebra, graded_decomposition)
from .gradings import ad_blocks, graded_ad_ranks, normalize_traceless
from .pyramids import is_unimodal

SAMPLES, SEED = 16, 0  # elements of g_2 the generic oracle draws, and its seed


@dataclass(frozen=True)
class ParabolicSpec:
    """A conjugacy class of parabolics: composition plus middle jump q.

    The blocks and q must be ints: a float or a `Fraction` raises
    TypeError.
    """

    spec: AlgebraSpec
    blocks: tuple[int, ...]
    q: int = 0

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(map(operator.index, self.blocks)))
        object.__setattr__(self, "q", operator.index(self.q))
        if not self.blocks or any(a < 1 for a in self.blocks):
            raise ValueError("composition parts must be positive")
        fam = self.spec.family
        n = self.spec.size
        if fam is Family.GL:
            if self.q != 0:
                raise ValueError("type A parabolics have q = 0")
            if sum(self.blocks) != n:
                raise ValueError("composition must sum to n")
            return
        if self.q < 0 or (n - self.q) % 2 != 0:
            raise ValueError("N - q must be even and q >= 0")
        if sum(self.blocks) * 2 + self.q != n:
            raise ValueError("composition must sum to (N - q)/2")
        if fam is Family.SO and n % 2 == 0 and self.q == 2:
            raise ValueError("so of even size has no parabolic with q = 2")


def parabolic_grading(par: ParabolicSpec) -> GradingElement:
    """The even grading element attached to a parabolic class.

    Simple roots inside the Levi get degree 0, the rest degree 2.  That
    makes the flag blocks' eigenvalues step down by 2, ending at 1 for
    an empty middle (both roots through the last block boundary reach
    degree 2), except for an even orthogonal Lagrangian flag whose last
    jump is 1: there both fork roots lie outside the Levi, which pins
    the final vector to degree 0 and the remaining blocks to even
    values.
    """
    fam = par.spec.family
    if fam is Family.GL:
        m = len(par.blocks)
        diag: list[Fraction] = []
        for i, a in enumerate(par.blocks, start=1):
            diag.extend([Fraction(m + 1 - 2 * i)] * a)
        return normalize_traceless(GradingElement(par.spec, tuple(diag)))
    t = len(par.blocks)
    n = par.spec.size
    half = n // 2
    values: list[Fraction] = []
    lagrangian_tail = (fam is Family.SO and n % 2 == 0 and par.q == 0
                       and par.blocks[-1] == 1)
    for i, a in enumerate(par.blocks, start=1):
        if par.q > 0:
            y = Fraction(2 * (t + 1 - i))
        elif lagrangian_tail:
            y = Fraction(2 * (t - i))
        else:
            y = Fraction(2 * (t - i) + 1)
        values.extend([y] * a)
    values.extend([Fraction(0)] * (half - len(values)))
    mid = (Fraction(0),) if n % 2 else ()
    diag = tuple(values) + mid + tuple(-v for v in values)
    return GradingElement(par.spec, diag)


# -- closed-form criteria ------------------------------------------------------


def _weakly_increasing(c) -> bool:
    return all(c[i] <= c[i + 1] for i in range(len(c) - 1))


def _odd_values_distinct(c) -> bool:
    odd = [a for a in c if a % 2 == 1]
    return len(odd) == len(set(odd))


def _plus_one_pattern(c, q: int) -> bool:
    """One entry q+1 inserted into a run of q's after an increasing
    prefix bounded by q; everything after the q+1 must equal q."""
    hits = [i for i, a in enumerate(c) if a == q + 1]
    if len(hits) != 1:
        return False
    i = hits[0]
    rest = c[:i] + c[i + 1:]
    if any(a > q for a in rest):
        return False
    if not _weakly_increasing(rest):
        return False
    return all(a == q for a in c[i + 1:])


def _sporadic_even_middle_forms(n: int) -> set[tuple[int, ...]]:
    """The small-part families of compositions that are good for so of
    even size with q = 0, beyond the monotone patterns."""
    forms: set[tuple[int, ...]] = set()
    if n % 2 == 1:
        s = (n - 1) // 2
        for i in range(0, s + 1):
            forms.add((1,) * (2 * (s - i)) + (2,) * i + (1,))
        for i in range(2, s + 1):
            for l in range(2, i + 1):
                forms.add((1,) * (2 * (s - i) + 1) + (2,) * (i - l) + (3,)
                          + (2,) * (l - 2) + (1,))
        for i in range(1, s):
            forms.add((2,) * (s - i - 1) + (3,) + (2,) * i)
    else:
        s = (n - 2) // 2
        for i in range(0, s + 1):
            forms.add((1,) * (2 * (s - i) + 1) + (2,) * i + (1,))
        for i in range(1, s + 1):
            for l in range(1, i + 1):
                forms.add((1,) * (2 * (s - i)) + (2,) * (i - l) + (3,)
                          + (2,) * (l - 1) + (1,))
        for i in range(1, s):
            forms.add((1,) + (2,) * (i - 1) + (3,) + (2,) * (s - i))
    return forms


def _descent_by_one_pattern(c) -> bool:
    """Increasing except the final entry drops by exactly one from an
    odd value >= 5 already present earlier; odd values distinct."""
    if len(c) < 2:
        return False
    body, last = c[:-1], c[-1]
    if not _weakly_increasing(body):
        return False
    if last != body[-1] - 1 or last <= 0:
        return False
    if body[-1] % 2 == 0 or body[-1] < 5:
        return False
    if last not in body:
        return False
    return _odd_values_distinct(body)


def richardson_is_good(par: ParabolicSpec) -> bool:
    """Closed-form test: is the Richardson element of the parabolic a
    good element of the associated even grading?

    A single type A block is all of gl_n: its Richardson element is
    zero, so this raises ValueError, as the generic oracle does.
    """
    c = par.blocks
    q = par.q
    fam = par.spec.family
    if fam is Family.GL:
        if len(c) == 1:
            raise ValueError("the degree-2 piece is zero")
        return is_unimodal(c)
    if fam is Family.SP:
        if not _weakly_increasing(c):
            return False
        if q > 0 and (c[-1] > q or not _odd_values_distinct(c)):
            return False
        return True
    # so: odd size has q odd, even size q even != 2
    if par.spec.size % 2 == 1:
        if _weakly_increasing(c) and c[-1] <= q:
            return True
        return _plus_one_pattern(c, q)
    if q > 0:
        if _weakly_increasing(c) and c[-1] <= q:
            return True
        return _plus_one_pattern(c, q)
    if _weakly_increasing(c) and _odd_values_distinct(c):
        return True
    if _descent_by_one_pattern(c):
        return True
    return c in _sporadic_even_middle_forms(sum(c))


# -- the generic-element oracle -------------------------------------------------


def grading_is_good_generic(g: AlgebraBasis, H: GradingElement) -> bool:
    """Sample random integral elements of g_2 and test the centralizer
    dimension identity dim g^e = dim g_0 + dim g_{-1}.

    The dimension is always >= the right side, with equality exactly on
    the (dense) good locus, so one sample that reaches it certifies True;
    False means no sample did.  A sample lies in g_2 by construction, so
    H grades its ad e blocks; `graded_ad_ranks` checks that they are
    homogeneous.
    """
    dec = graded_decomposition(g, H)
    idxs = dec.buckets.get(2, ())
    if not idxs:
        raise ValueError("the degree-2 piece is zero")
    target = dec.piece_dim(0) + dec.piece_dim(-1)
    rng = random.Random(SEED)
    for _ in range(SAMPLES):
        coords = [0] * g.dim
        for k in idxs:
            coords[k] = rng.randint(-3, 3)
        e = g.from_coordinates(coords)
        if not e:
            continue
        ranks = graded_ad_ranks(ad_blocks(g, e), dec.of)
        if g.dim - sum(ranks.values()) == target:
            return True
    return False


def generic_richardson_oracle(par: ParabolicSpec) -> bool:
    """Richardson goodness decided from first principles.

    Builds the parabolic's even grading and asks whether a generic
    degree-2 element has centralizer of dimension dim g_0 (the grading
    is even, so the degree -1 piece vanishes).
    """
    g = build_algebra(par.spec)
    H = parabolic_grading(par)
    return grading_is_good_generic(g, H)
