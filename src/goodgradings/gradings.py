"""Nilpotents and grading elements from pyramids, plus the goodness verdict.

A pyramid yields a nilpotent e (arrows along rows, with the flavor's
exceptional arrows), kept sparse with int entries like every element
of the algebra, and a diagonal grading element h (box first
coordinates).  A pair (H, e) with homogeneous e of degree 2 is good iff
ad e is injective on every negative-degree piece; equivalently iff

    dim g^e = dim g_0 + dim g_{-1}.

Both characterizations are computed here and must agree; a mismatch is
an internal error, never a property of the input.

The ranks come from a block engine built once per nilpotent, the one
per-orbit object every verdict takes (`AdBlocks`: the algebra, e and
the blocks).  ad e is assembled column by column as sparse integer
coordinates (bracketing with an integer multiple of e, which changes
no rank), split into connected blocks (columns that reach a common
row), and each block is ranked once by fraction-free integer
elimination (`linalg.rref`).
Every diagonal H with [H, e] = 2e maps each block from one degree d
into degree d + 2, so g^e has dim g_d minus a sum of block ranks
vectors of degree d.  `graded_ad_ranks` sums them for any degree per
basis element (one H's, or the sweep's affine forms) and serves
`is_good`, the sweep and the generic oracle.  The degrees are ints.
The tests compare the block ranks with the dense rows of ad e from
`algebras.ad_coordinate_matrix`, ranked by the dense `Matrix` reference
in ``tests/dense_reference.py``; no runtime path builds either.

Signs in the nilpotent: the prose picture "send each box to its right
neighbor" needs coefficients +-1 to land inside sp/so.  Arrows come in
mirror pairs a: s->d versus a': -d->-s, and membership forces
gamma(a') = -eps(s)eps(d) gamma(a) for sp (eps = sign of the index) and
gamma(a') = -gamma(a) for so.  One representative per pair gets +1.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .algebras import (AlgebraBasis, AlgebraSpec, Family, GradedDecomposition,
                       GradingElement, Sparse, graded_decomposition,
                       sparse_bracket, _signed_indices)
from .linalg import Scalar, integer_row, rref
from .partitions import Partition
from .pyramids import ORTHOGONAL, SYMPLECTIC, TYPE_A, Pyramid, row_shift

Box = tuple[Scalar, int]


class VerificationError(RuntimeError):
    """An internal cross-check failed; this signals a bug, not bad input."""


def _check_flavor(spec: AlgebraSpec, pyr: Pyramid):
    wanted = {Family.GL: TYPE_A, Family.SP: SYMPLECTIC,
              Family.SO: ORTHOGONAL}[spec.family]
    if pyr.flavor != wanted:
        raise ValueError(f"pyramid flavor {pyr.flavor} does not match {spec.family}")
    if pyr.size() != spec.size:
        raise ValueError("box count != matrix size")


def fill_boxes(spec: AlgebraSpec, pyr: Pyramid) -> dict[Box, int]:
    """Assign a signed basis-vector index to every box.

    Type A: boxes are numbered 1..n row by row from the bottom row up,
    left to right.  sp/so: boxes in the right half-plane (x > 0, or
    x = 0 with y > 0) get positive indices top-to-bottom left-to-right,
    the middle box gets 0, and mirror boxes get the negated index.
    """
    _check_flavor(spec, pyr)
    if spec.family is Family.GL:
        boxes = [(x, r.y) for r in pyr.rows for x in r.coords()]
        return {box: k + 1 for k, box in enumerate(boxes)}
    labels: dict[Box, int] = {}
    positives = [b for b in pyr.boxes() if b[0] > 0 or (b[0] == 0 and b[1] > 0)]
    positives.sort(key=lambda b: (-b[1], b[0]))
    for k, (x, y) in enumerate(positives):
        labels[(x, y)] = k + 1
        labels[(-x, -y)] = -(k + 1)
    if spec.size % 2 == 1:
        labels[(0, 0)] = 0
    return labels


def _arrows(pyr: Pyramid) -> list[tuple[Box, Box]]:
    out: list[tuple[Box, Box]] = []
    for r in pyr.rows:
        cs = r.coords()
        out.extend(((cs[i], r.y), (cs[i + 1], r.y)) for i in range(len(cs) - 1))
    if pyr.flavor == SYMPLECTIC:
        for r in pyr.rows:
            if r.role == "half" and r.y > 0:
                out.append(((-1, -r.y), (1, r.y)))
    if pyr.flavor == ORTHOGONAL:
        for r in pyr.rows:
            if r.y <= 0:
                continue
            if r.role == "joint":
                out.append(((0, -r.y), (2, r.y)))
                out.append(((-2, -r.y), (0, r.y)))
            if r.role == "v0half":
                out.append(((-2, -r.y), (0, 0)))
                out.append(((0, 0), (2, r.y)))
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
    by_col: dict[int, list[tuple[int, Scalar]]] = {}
    for (i, j), v in e.items():
        by_col.setdefault(j, []).append((i, v))
    images = [{j: 1} for j in range(n)]
    ranks = [n]
    for _ in range(n):
        if ranks[-1] == 0:
            break
        nxt = []
        for vec in images:
            out: dict[int, Scalar] = {}
            for j, x in vec.items():
                for i, v in by_col.get(j, ()):
                    out[i] = out.get(i, 0) + v * x
            out = {i: x for i, x in out.items() if x}
            if out:
                nxt.append(out)
        images = nxt
        ranks.append(len(rref([[vec.get(i, 0) for i in range(n)]
                               for vec in images])[1]))
    if ranks[-1] != 0:
        raise ValueError("matrix is not nilpotent")
    # counts[k-1] = rank(e^{k-1}) - rank(e^k) = number of blocks of size >= k
    counts = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    sizes: list[int] = []
    for size in range(len(counts), 0, -1):
        mult = counts[size - 1] - (counts[size] if size < len(counts) else 0)
        sizes.extend([size] * mult)
    return Partition.of(s for s in sizes if s > 0)


def nilpotent_of_pyramid(g: AlgebraBasis, pyr: Pyramid) -> Sparse:
    """The nilpotent of g along the rows of the pyramid, with int entries.

    Verified on construction: lies in g, and its Jordan type matches the
    partition the pyramid encodes.
    """
    labels = fill_boxes(g.spec, pyr)
    pos = g.position
    arrows = _arrows(pyr)
    arrow_set = set(arrows)
    entries: Sparse = {}
    fam = g.spec.family

    def put(src: Box, dst: Box, coeff: int):
        key = (pos[labels[dst]], pos[labels[src]])
        entries[key] = entries.get(key, 0) + coeff

    if fam is Family.GL:
        for src, dst in arrows:
            put(src, dst, 1)
    elif fam is Family.SP:
        for src, dst in arrows:
            ls, ld = labels[src], labels[dst]
            put(src, dst, -1 if ls < 0 and ld < 0 else 1)
    else:
        for src, dst in arrows:
            mirror = ((-dst[0], -dst[1]), (-src[0], -src[1]))
            if mirror == (src, dst):
                raise VerificationError("self-mirrored arrow cannot lie in so")
            if mirror not in arrow_set:
                raise VerificationError("arrow set is not mirror-closed")
            put(src, dst, 1 if (src, dst) > mirror else -1)
    e = {key: v for key, v in entries.items() if v}
    if not g.contains(e):
        raise VerificationError("constructed nilpotent fails form compatibility")
    if jordan_type(e, g.n) != _expected_jordan_type(pyr):
        raise VerificationError("constructed nilpotent has the wrong Jordan type")
    return e


def grading_of_pyramid(spec: AlgebraSpec, pyr: Pyramid,
                       shifts: dict[int, Scalar]) -> GradingElement:
    """h(pyr) plus the center vector shifting the given parts' rows.

    The entry of each basis vector is the first coordinate of its box,
    moved with the box's row by `pyramids.row_shift`; the box filling is
    pyr's, so a shift is literally h(pyr) + z on the same basis vectors.
    The result is normalized traceless: for gl that removes the scalar,
    which acts trivially under ad; sp/so diagonals already sum to zero.
    """
    labels = fill_boxes(spec, pyr)
    pos = {i: a for a, i in enumerate(_signed_indices(spec))}
    diag: list[Scalar] = [0] * spec.size
    for r in pyr.rows:
        s = row_shift(r, shifts)
        for x in r.coords():
            diag[pos[labels[(x, r.y)]]] = x + s
    return normalize_traceless(GradingElement(spec, tuple(diag)))


def normalize_traceless(H: GradingElement) -> GradingElement:
    """Subtract the scalar matrix so the diagonal sums to zero.

    Scalars act trivially under ad, so this does not change the grading;
    it makes type A outputs canonical and sl-compatible.
    """
    mean = sum(H.diagonal, Fraction(0)) / len(H.diagonal)
    return GradingElement(H.spec, tuple(d - mean for d in H.diagonal))


# -- goodness ---------------------------------------------------------------


@dataclass(frozen=True)
class GoodPair:
    """Verdict of the goodness check for a homogeneous nilpotent.

    Carries the graded decomposition the check built, so callers read
    the grading's pieces (evenness, g_{-1}) without rebuilding it.
    """

    verified: bool
    centralizer_degrees: tuple[int, ...]
    decomposition: GradedDecomposition


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

    Raises ValueError unless e lies in g: sparse coordinates drop the
    entries no basis element owns, so the blocks of a non-member would
    be silently wrong.  Checked here once per e, not once per grading.
    """
    if not g.contains(e):
        raise ValueError("element does not lie in the algebra")
    # bracket with a positive multiple of e that has integer entries:
    # scaling changes no block and no rank, and keeps Fractions out of ad e
    scaled = dict(zip(e, integer_row(e.values())))
    cols = {}
    for k, elem in enumerate(g.elements):
        col = g.sparse_coordinates(sparse_bracket(scaled, elem))
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
    element: `GradedDecomposition.of` for one grading, or the sweep
    oracle's affine forms for all of them at once.

    Sums the block ranks under their columns' degree; degree d of g^e
    then has dim g_d minus the rank at d.  Raises ValueError unless the
    columns of each block share one degree and its rows share one.
    """
    ranks = Counter()
    for columns, rows, rk in blocks.blocks:
        d = degree[columns[0]]
        if any(degree[c] != d for c in columns):
            raise ValueError("a block of ad e has columns of different degrees")
        r = degree[rows[0]]
        if any(degree[x] != r for x in rows):
            raise ValueError("a block of ad e has rows of different degrees")
        ranks[d] += rk
    return ranks


def is_good(H: GradingElement, blocks: AdBlocks) -> GoodPair:
    """Decide whether e = blocks.e is a good element of the grading
    defined by H on the algebra blocks.g.

    Requires e != 0, [H, e] = 2e, and an integral grading, which
    `graded_decomposition` checks; `ad_blocks` has checked that e lies
    in g.  The degrees of g^e come from `graded_ad_ranks`.  The verdict
    is the centralizer dimension identity dim g^e = dim g_0 + dim g_{-1},
    cross-checked against injectivity of ad e on negative degrees (no
    degree of g^e below 0); the two must agree or a VerificationError is
    raised.
    """
    g = blocks.g
    if H.spec != g.spec:
        raise ValueError("grading element spec does not match the algebra")
    if not blocks.e:
        raise ValueError("a good element is a nonzero nilpotent")
    diag = H.diagonal
    # [H, e] = 2e entrywise: (H_i - H_j) e_ij = 2 e_ij
    if any(diag[i] - diag[j] != 2 for i, j in blocks.e):
        raise ValueError("element is not homogeneous of degree 2 under H")
    dec = graded_decomposition(g, H)
    ranks = graded_ad_ranks(blocks, dec.of)
    centralizer_degs = tuple(d for d in dec.degrees
                             for _ in range(len(dec.buckets[d]) - ranks[d]))
    dim_identity = len(centralizer_degs) == dec.piece_dim(0) + dec.piece_dim(-1)
    injective_negative = not centralizer_degs or centralizer_degs[0] >= 0
    if dim_identity != injective_negative:
        raise VerificationError(
            "dimension identity and negative-degree injectivity disagree")
    return GoodPair(verified=dim_identity, centralizer_degrees=centralizer_degs,
                    decomposition=dec)


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
    algorithm is checked against it.
    """
    if not H.is_integral():
        raise ValueError("characteristics are defined for integral gradings")
    spec = H.spec
    if spec.family is Family.GL:
        d = sorted(H.diagonal, reverse=True)
    else:
        entries = H.diagonal[:spec.size // 2]
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
    return Characteristic(spec.diagram, spec.rank, tuple(int(x) for x in labels))


def characteristic_from_pyramid(spec: AlgebraSpec, pyr: Pyramid) -> Characteristic:
    """Characteristic via column heights of the pyramid.

    Scan columns from the right edge inward; each nonempty column emits
    (height-1) zeros and then a separator: 2 if the next column inward
    is empty, 1 if not.  The scan ends at gl's leftmost column, which
    emits only its zeros, or at sp/so's middle column.  At 0 that
    column contributes one zero per mirror pair, except that a single
    pair in D makes the fork partner of the zero entry repeat the
    smallest positive coordinate.  At 1/2 (half-integer pyramids) it
    ends the sequence with its zeros and a single 1, or a 2 in D when
    it holds just one box (the dominant-chamber computation forces the
    larger label there).
    """
    _check_flavor(spec, pyr)
    heights = Counter(x for x, _ in pyr.boxes())
    gl = spec.family is Family.GL
    # sp/so stop at 0, or at 1/2 in a half-integer pyramid
    low = min(heights) if gl else min(abs(x) for x in heights) % 1
    labels: list[int] = []
    x = max(heights)
    while x > low:
        if heights[x]:
            labels += [0] * (heights[x] - 1) + [1 if heights[x - 1] else 2]
        x -= 1
    h = heights[low]
    if gl:
        labels += [0] * (h - 1)
    elif low:
        labels += [0] * (h - 1) + [1 if spec.diagram == "C" or h >= 2 else 2]
    elif spec.diagram == "D" and h == 2:
        labels.append(min(c for c in heights if c > 0))
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
    idxs = pair.decomposition.buckets.get(-1, ())
    if not idxs:
        return True
    elems = [blocks.g.elements[k] for k in idxs]
    gram = []
    for a in elems:
        row = []
        for b in elems:
            br = sparse_bracket(a, b)
            row.append(sum(v * br.get((c, r), 0)
                           for (r, c), v in blocks.e.items()))
        gram.append(row)
    return len(rref(gram)[1]) == len(idxs)


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
    for k in pair.decomposition.buckets.get(1, ()):
        _, i, j = g.labels[k]
        if find(i - 1) == find(j - 1):
            return False
    return True
