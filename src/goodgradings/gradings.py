"""Nilpotents and grading elements from pyramids, plus the goodness verdict.

A pyramid yields a nilpotent e (arrows along rows, with the flavor's
exceptional arrows), kept sparse with int entries like every element
of the algebra, and a diagonal grading element h (box first
coordinates, doubled like the pyramid's, so h is stored as 2h in
ints).  A pair (H, e) with homogeneous e of degree 2 is good iff ad e
is injective on every negative-degree piece; equivalently iff

    dim g^e = dim g_0 + dim g_{-1}.

Both characterizations are computed here and must agree; a mismatch is
an internal error, never a property of the input.

The ranks come from a block engine built once per nilpotent, the one
per-orbit object every verdict takes (`AdBlocks`: the algebra, e and
the blocks).  ad e is assembled column by column as the sparse int
coordinates of [e, b_k] (`ad_blocks` refuses an e whose entries are not
all ints).  The map is `algebras.ad(e)`, which indexes e by row and by
column once, so each column reads only the entries of e that meet b_k.
The columns are split into connected blocks (columns that reach a
common row), and each block is ranked once by fraction-free integer
elimination (`linalg.rref`).
Every diagonal H with [H, e] = 2e maps each block from one degree d
into degree d + 2, so g^e has dim g_d minus a sum of block ranks
vectors of degree d.  `graded_ad_ranks` sums them for any degree per
basis element (one H's, or the sweep's affine forms) and serves
`is_good` (the one goodness verdict, which the generic oracle asks of
every sample) and the sweep.  The degrees are ints.
The tests compare the block ranks with the dense rows of ad e from
`algebras.ad_coordinate_matrix`, ranked by the dense `Matrix` reference
in ``tests/dense_reference.py``; no runtime path builds either.

The nilpotent is the sum of the basis elements of g that own its
arrows' places, so `algebras.AlgebraBasis` alone knows how the sp/so
form pairs an entry with its mirror entry.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass

from .algebras import (AlgebraBasis, Family, GradingElement, Sparse,
                       ad, graded_decomposition, _signed_indices)
from .linalg import rref
from .partitions import Partition
from .pyramids import Pyramid, row_shift

# a box center (doubled x, y), as `Pyramid.boxes` lists them
Box = tuple[int, int]


class VerificationError(RuntimeError):
    """An internal cross-check failed; this signals a bug, not bad input."""


def fill_boxes(pyr: Pyramid) -> dict[Box, int]:
    """Assign a signed basis-vector index to every box.

    Type A: boxes are numbered 1..n row by row from the bottom row up,
    left to right.  sp/so: boxes in the right half-plane (x > 0, or
    x = 0 with y > 0) get positive indices top-to-bottom left-to-right,
    the middle box gets 0, and mirror boxes get the negated index.
    """
    if pyr.flavor is Family.GL:
        return {box: k + 1 for k, box in enumerate(pyr.boxes())}
    labels: dict[Box, int] = {}
    positives = [b for b in pyr.boxes() if b[0] > 0 or (b[0] == 0 and b[1] > 0)]
    positives.sort(key=lambda b: (-b[1], b[0]))
    for k, (x, y) in enumerate(positives):
        labels[(x, y)] = k + 1
        labels[(-x, -y)] = -(k + 1)
    if pyr.size() % 2 == 1:
        labels[(0, 0)] = 0
    return labels


def _arrows(pyr: Pyramid) -> list[tuple[Box, Box]]:
    out: list[tuple[Box, Box]] = []
    for r in pyr.rows:
        cs = r.coords()
        out.extend(((cs[i], r.y), (cs[i + 1], r.y)) for i in range(len(cs) - 1))
    if pyr.flavor is Family.SP:
        for r in pyr.rows:
            if r.role == "half" and r.y > 0:
                out.append(((-2, -r.y), (2, r.y)))
    if pyr.flavor is Family.SO:
        for r in pyr.rows:
            if r.y <= 0:
                continue
            if r.role == "joint":
                out.append(((0, -r.y), (4, r.y)))
                out.append(((-4, -r.y), (0, r.y)))
            if r.role == "v0half":
                out.append(((-4, -r.y), (0, 0)))
                out.append(((0, 0), (4, r.y)))
    return out


def _expected_jordan_type(pyr: Pyramid) -> Partition:
    # each row records the parts it was built for; a mirror pair counts
    # once (the upper row), and the middle box only as a lone (1,) block
    return Partition.of(v for r in pyr.rows
                        if r.role == "full" or r.y > 0 or r.parts == (1,)
                        for v in r.parts)


def jordan_type(e: Sparse, n: int) -> Partition:
    """Jordan block sizes of a nilpotent n x n matrix.

    rank(e^k) is the rank of the images e^k v_j of the unit vectors,
    each kept sparse and pushed through e once per power.
    """
    by_col: dict[int, list[tuple[int, int]]] = {}
    for (i, j), v in e.items():
        by_col.setdefault(j, []).append((i, v))
    images = [{j: 1} for j in range(n)]
    ranks = [n]
    for _ in range(n):
        if ranks[-1] == 0:
            break
        nxt = []
        for vec in images:
            out: dict[int, int] = {}
            for j, x in vec.items():
                for i, v in by_col.get(j, ()):
                    out[i] = out.get(i, 0) + v * x
            out = {i: x for i, x in out.items() if x}
            if out:
                nxt.append(out)
        images = nxt
        # a column no image reaches is zero and leaves the rank alone
        reached = sorted({i for vec in images for i in vec})
        ranks.append(len(rref([[vec.get(i, 0) for i in reached]
                               for vec in images])[1]))
    if ranks[-1] != 0:
        raise ValueError("matrix is not nilpotent")
    # rank(e^{k-1}) - rank(e^k) counts the blocks of size >= k: the
    # conjugate of the Jordan type
    return Partition(tuple(a - b for a, b in zip(ranks, ranks[1:]))).dual()


def nilpotent_of_pyramid(g: AlgebraBasis, pyr: Pyramid) -> Sparse:
    """The nilpotent of g along the rows of the pyramid, with int entries.

    e is the sum of the basis elements of g that own an arrow's place,
    so it lies in g.  Verified on construction: their entries fill
    exactly the arrows' places, and its Jordan type matches the
    partition the pyramid encodes.  Raises ValueError unless the pyramid
    encodes a nilpotent of g (`Pyramid.spec`).
    """
    if pyr.spec != g.spec:
        raise ValueError("the pyramid's family or size does not match g")
    labels = fill_boxes(pyr)
    pos = g.position
    places = {(pos[labels[dst]], pos[labels[src]]) for src, dst in _arrows(pyr)}
    e: Sparse = {}
    for key in places:
        if key in g.entry_index:
            e.update(g.elements[g.entry_index[key]])
    if set(e) != places:
        raise VerificationError("the arrows are not the support of a sum "
                                "of basis elements")
    if jordan_type(e, g.n) != _expected_jordan_type(pyr):
        raise VerificationError("constructed nilpotent has the wrong Jordan type")
    return e


def grading_writer(pyr: Pyramid) -> Callable[[dict[int, int]], GradingElement]:
    """The writer of h(pyr) plus the center vector shifting the given
    parts' rows, from a doubled shift per part.

    Fills the boxes once: each row keeps the (matrix position, doubled
    coordinate) of its boxes.  A grading then moves each box with its
    row by `pyramids.row_shift`, so a shift is literally h(pyr) + z on
    the same basis vectors, written with int additions only.
    """
    spec, labels = pyr.spec, fill_boxes(pyr)
    pos = {i: a for a, i in enumerate(_signed_indices(spec))}
    rows = [(r, [(pos[labels[(x, r.y)]], x) for x in r.coords()])
            for r in pyr.rows]

    def grading(shifts: dict[int, int]) -> GradingElement:
        diag = [0] * spec.size
        for r, boxes in rows:
            s = row_shift(r, shifts)
            for a, x in boxes:
                diag[a] = x + s
        return GradingElement(spec, tuple(diag))

    return grading


# -- goodness ---------------------------------------------------------------


@dataclass(frozen=True)
class GoodPair:
    """Verdict of the goodness check for a homogeneous nilpotent.

    Carries the degree of each basis element that the check read, so
    callers read the grading's pieces (evenness, g_{-1}) without
    rebuilding them.
    """

    verified: bool
    centralizer_degrees: tuple[int, ...]
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class AdBlocks:
    """ad e on the algebra g split into connected blocks, each ranked once.

    A block is (columns, rows, rank): the basis indices k whose images
    [e, b_k] it holds, the basis indices those images reach, and the
    rank of that submatrix of ad e.  Columns that reach a common row
    share a block, so rows and columns of distinct blocks are disjoint
    and the rest of ad e is zero.  Under any diagonal H with [H, e] = 2e
    a column and the rows it reaches differ in degree by exactly 2, so
    each block maps one degree d into degree d + 2, and the rank of
    ad e : g_d -> g_{d+2} is the sum of the ranks of the blocks at d.
    """

    g: AlgebraBasis
    e: Sparse
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]


def ad_blocks(g: AlgebraBasis, e: Sparse) -> AdBlocks:
    """Assemble ad e sparsely, split it into connected blocks, rank each.

    Raises TypeError unless every entry of e is an int: blocks with one
    row or one column are never eliminated, so `rref` would not see
    every entry.  Raises ValueError unless e lies in g: sparse
    coordinates drop the entries no basis element owns, so the blocks of
    a non-member would be silently wrong.  Both are checked here once
    per e, not once per grading.
    """
    if not all(isinstance(v, int) for v in e.values()):
        raise TypeError("ad e is built for int entries of e only")
    if not g.contains(e):
        raise ValueError("element does not lie in the algebra")
    ad_e = ad(e)
    cols = {}
    for k, elem in enumerate(g.elements):
        col = g.sparse_coordinates(ad_e(elem))
        if col:
            cols[k] = col
    parent = {k: k for k in cols}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    owner: dict[int, int] = {}  # row -> first column reaching it
    for k, col in cols.items():
        for r in col:
            j = owner.setdefault(r, k)
            if j != k:
                parent[find(k)] = find(j)
    members: dict[int, tuple[list[int], list[int]]] = {}
    for k in cols:
        members.setdefault(find(k), ([], []))[0].append(k)
    for r, k in owner.items():
        members[find(k)][1].append(r)
    blocks = []
    for columns, rows in members.values():
        rows.sort()
        if len(columns) == 1 or len(rows) == 1:
            rk = 1
        else:
            rk = len(rref([[cols[c].get(r, 0) for c in columns]
                           for r in rows])[1])
        blocks.append((tuple(columns), tuple(rows), rk))
    return AdBlocks(g, e, tuple(blocks))


def graded_ad_ranks(blocks: AdBlocks, degree: Sequence[Hashable]) -> Counter:
    """The rank of ad e leaving each degree, from one degree per basis
    element: `graded_decomposition` for one grading, or the sweep
    oracle's affine forms for all of them at once.

    Sums the block ranks under their first column's degree; degree d of
    g^e then has dim g_d minus the rank at d.  Checks nothing: every
    caller has made sure that e has degree 2 under each grading the
    degrees describe, which makes every block homogeneous (`AdBlocks`).
    """
    ranks = Counter()
    for columns, _, rk in blocks.blocks:
        ranks[degree[columns[0]]] += rk
    return ranks


def is_good(H: GradingElement, blocks: AdBlocks) -> GoodPair:
    """Decide whether e = blocks.e is a good element of the grading
    defined by H on the algebra blocks.g.

    Requires an integral H of the algebra, which `graded_decomposition`
    checks, and e != 0 with [H, e] = 2e; `ad_blocks` has checked that e
    lies in g.  The degrees of g^e come from `graded_ad_ranks`.  The
    verdict is the dimension identity dim g^e = dim g_0 + dim g_{-1},
    cross-checked against injectivity of ad e on negative degrees (no
    degree of g^e below 0); the two agree for every nonzero e in g_2,
    good or not, or a VerificationError is raised.
    """
    degrees = graded_decomposition(blocks.g, H)
    if not blocks.e:
        raise ValueError("a good element is a nonzero nilpotent")
    diag = H.doubled
    # [H, e] = 2e entrywise: (H_i - H_j) e_ij = 2 e_ij, doubled
    if any(diag[i] - diag[j] != 4 for i, j in blocks.e):
        raise ValueError("element is not homogeneous of degree 2 under H")
    sizes = Counter(degrees)
    # not a tuple of a generator: that form made peak RSS creep
    centralizer_degs = tuple(sorted(
        (sizes - graded_ad_ranks(blocks, degrees)).elements()))
    dim_identity = len(centralizer_degs) == sizes[0] + sizes[-1]
    injective_negative = not centralizer_degs or centralizer_degs[0] >= 0
    if dim_identity != injective_negative:
        raise VerificationError(
            "dimension identity and negative-degree injectivity disagree")
    return GoodPair(verified=dim_identity, centralizer_degrees=centralizer_degs,
                    degrees=degrees)


# -- characteristics ---------------------------------------------------------


@dataclass(frozen=True)
class Characteristic:
    """Labels in {0,1,2} on the simple roots of the ambient diagram.

    Node order: the chain alpha_1..alpha_{rank}; for D the last two
    labels are the fork pair (interchangeable by the diagram symmetry).
    """

    diagram: str
    rank: int
    labels: tuple[int, ...]

    def normalized(self) -> tuple:
        """Fork-insensitive form used for comparisons in type D."""
        if self.diagram == "D" and self.rank >= 2:
            body = self.labels[:-2]
            fork = tuple(sorted(self.labels[-2:]))
            return (self.diagram, self.rank, body + fork)
        return (self.diagram, self.rank, self.labels)

    def __str__(self):
        return f"{self.diagram}{self.rank}:" + ",".join(str(x) for x in self.labels)


def characteristic_of(H: GradingElement) -> Characteristic:
    """Characteristic read off the dominant-chamber representative.

    Sort the diagonal into the dominant chamber of the family's Weyl
    group and take the degrees of the simple root vectors: consecutive
    differences, then for B/C/D the last simple root (d_n, 2 d_n or
    d_{n-1} + d_n).  This is the uniform definition; the pyramid column
    algorithm is checked against it.  The doubled diagonal gives twice
    each label, an even int for an integral H.
    """
    if not H.is_integral():
        raise ValueError("characteristics are defined for integral gradings")
    spec = H.spec
    if spec.family is Family.GL:
        d = sorted(H.doubled, reverse=True)
    else:
        entries = H.doubled[:spec.size // 2]
        d = sorted((abs(x) for x in entries), reverse=True)
        # D's Weyl group flips signs in pairs: an odd count of negative
        # entries leaves the smallest one negative
        if spec.diagram == "D" and sum(x < 0 for x in entries) % 2:
            d[-1] = -d[-1]
    labels = [a - b for a, b in zip(d, d[1:])]
    if spec.diagram == "B":
        labels.append(d[-1])
    elif spec.diagram == "C":
        labels.append(2 * d[-1])
    elif spec.diagram == "D":
        labels.append(d[-2] + d[-1])
    return Characteristic(spec.diagram, spec.rank, tuple(x // 2 for x in labels))


def characteristic_from_pyramid(pyr: Pyramid) -> Characteristic:
    """Characteristic via column heights of the pyramid.

    Scan columns from the right edge inward, one unit (two doubled
    units) at a time; each nonempty column emits (height-1) zeros and
    then a separator: 2 if the next column inward is empty, 1 if not.
    The scan ends at gl's leftmost column, which
    emits only its zeros, or at sp/so's middle column.  At 0 that
    column contributes one zero per mirror pair, except that a single
    pair in D makes the fork partner of the zero entry repeat the
    smallest positive coordinate.  At 1/2 (half-integer pyramids) it
    ends the sequence with its zeros and a single 1, or a 2 in D when
    it holds just one box (the dominant-chamber computation forces the
    larger label there).
    """
    spec = pyr.spec
    heights = Counter(x for x, _ in pyr.boxes())
    gl = spec.family is Family.GL
    # sp/so stop at 0, or at 1/2 (doubled: 1) in a half-integer pyramid
    low = min(heights) if gl else min(abs(x) for x in heights) % 2
    labels: list[int] = []
    x = max(heights)
    while x > low:
        if heights[x]:
            labels += [0] * (heights[x] - 1) + [1 if heights[x - 2] else 2]
        x -= 2
    h = heights[low]
    if gl:
        labels += [0] * (h - 1)
    elif low:
        labels += [0] * (h - 1) + [1 if spec.diagram == "C" or h >= 2 else 2]
    elif spec.diagram == "D" and h == 2:
        labels.append(min(c for c in heights if c > 0) // 2)
    else:
        labels += [0] * (h // 2)
    if len(labels) != spec.rank:
        raise VerificationError(
            f"column algorithm produced {len(labels)} labels for rank {spec.rank}")
    return Characteristic(spec.diagram, spec.rank, tuple(labels))


# -- additional certificates --------------------------------------------------


def check_duality_form(H: GradingElement, blocks: AdBlocks) -> bool:
    """Nondegeneracy of <a, b> = trace(e [a, b]) on the degree -1 piece.

    Must hold for every good pair; raises if the pair is not good.
    """
    pair = is_good(H, blocks)
    if not pair.verified:
        raise ValueError("pair is not good")
    elems = [b for b, d in zip(blocks.g.elements, pair.degrees) if d == -1]
    if not elems:
        return True
    gram = []
    for a in elems:
        ad_a = ad(a)
        row = []
        for b in elems:
            br = ad_a(b)
            row.append(sum(v * br.get((c, r), 0)
                           for (r, c), v in blocks.e.items()))
        gram.append(row)
    return len(rref(gram)[1]) == len(elems)


def check_torus_weights(H: GradingElement, blocks: AdBlocks) -> bool:
    """No nonzero vector of g_1 is killed by the whole diagonal torus of g^e_0.

    Supported for gl (type A).  The torus is the space of diagonal matrices
    commuting with e: constant along the arrow-connected classes of
    basis vectors.  Since it acts diagonally on the matrix-unit basis,
    the joint kernel on g_1 is spanned by the matrix units it fixes.
    """
    g = blocks.g
    if g.spec.family is not Family.GL:
        raise ValueError("torus-weight check is supported for gl only")
    pair = is_good(H, blocks)
    if not pair.verified:
        raise ValueError("pair is not good")
    n = g.spec.size
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in blocks.e:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return not any(d == 1 and find(i - 1) == find(j - 1)
                   for (i, j), d in zip(g.labels, pair.degrees))
