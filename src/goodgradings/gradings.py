"""Nilpotents and grading elements from pyramids, plus the goodness verdict.

A pyramid yields a nilpotent e (arrows along rows, with the flavor's
exceptional arrows) and a diagonal grading element h (box first
coordinates).  A pair (H, e) with homogeneous e of degree 2 is good iff
ad e is injective on every negative-degree piece; equivalently iff

    dim g^e = dim g_0 + dim g_{-1}.

Both characterizations are computed here and must agree; a mismatch is
an internal error, never a property of the input.

The ranks come from a block engine built once per nilpotent: ad e is
assembled column by column as sparse coordinates, split into connected
blocks (columns that reach a common row), and each block is ranked
once by rational row reduction.  Every diagonal H with [H, e] = 2e maps
each block from one degree d into degree d + 2, so the per-degree ranks
for any such H are sums of block ranks, and the blocks serve every
candidate grading of e (`is_good`, the sweep oracle, the generic
oracle).  The dense ad e of `algebras.ad_coordinate_matrix` is the
reference the tests compare against; no runtime path builds it.

Signs in the nilpotent: the prose picture "send each box to its right
neighbor" needs coefficients +-1 to land inside sp/so.  Arrows come in
mirror pairs a: s->d versus a': -d->-s, and membership forces
gamma(a') = -eps(s)eps(d) gamma(a) for sp (eps = sign of the index) and
gamma(a') = -gamma(a) for so.  One representative per pair gets +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import (AlgebraBasis, AlgebraSpec, Family, GradedDecomposition,
                       GradingElement, Sparse, graded_decomposition,
                       matrix_to_sparse, sparse_bracket, sparse_to_matrix,
                       _signed_indices)
from .linalg import Matrix, rank, rref
from .partitions import Partition
from .pyramids import ORTHOGONAL, SYMPLECTIC, TYPE_A, Pyramid

Box = tuple[Fraction, int]


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
        labels[(Fraction(0), 0)] = 0
    return labels


def _arrows(pyr: Pyramid) -> list[tuple[Box, Box]]:
    out: list[tuple[Box, Box]] = []
    for r in pyr.rows:
        cs = r.coords()
        out.extend(((cs[i], r.y), (cs[i + 1], r.y)) for i in range(len(cs) - 1))
    if pyr.flavor == SYMPLECTIC:
        for r in pyr.rows:
            if r.role == "half" and r.y > 0:
                out.append(((Fraction(-1), -r.y), (Fraction(1), r.y)))
    if pyr.flavor == ORTHOGONAL:
        for r in pyr.rows:
            if r.y <= 0:
                continue
            if r.role == "joint":
                out.append(((Fraction(0), -r.y), (Fraction(2), r.y)))
                out.append(((Fraction(-2), -r.y), (Fraction(0), r.y)))
            if r.role == "v0half":
                out.append(((Fraction(-2), -r.y), (Fraction(0), 0)))
                out.append(((Fraction(0), 0), (Fraction(2), r.y)))
    return out


def _expected_jordan_type(pyr: Pyramid) -> Partition:
    blocks: list[int] = []
    has_v0half = any(r.role == "v0half" for r in pyr.rows)
    for r in pyr.rows:
        if r.role == "full":
            blocks.append(r.count)
        elif r.role == "center":
            if not has_v0half:
                blocks.append(1)
        elif r.y > 0:
            if r.role == "half":
                blocks.append(2 * r.count)
            elif r.role == "joint":
                blocks.extend(r.parts)
            elif r.role == "v0half":
                blocks.append(2 * r.count + 1)
    return Partition.of(blocks)


def jordan_type(e: Matrix) -> Partition:
    """Jordan block sizes of a nilpotent matrix."""
    n = e.rows
    ranks = [n]
    power = Matrix.identity(n)
    for _ in range(n):
        if ranks[-1] == 0:
            break
        power = power @ e
        ranks.append(rank(power))
    if ranks[-1] != 0:
        raise ValueError("matrix is not nilpotent")
    # counts[k-1] = rank(e^{k-1}) - rank(e^k) = number of blocks of size >= k
    counts = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    sizes: list[int] = []
    for size in range(len(counts), 0, -1):
        mult = counts[size - 1] - (counts[size] if size < len(counts) else 0)
        sizes.extend([size] * mult)
    return Partition.of(s for s in sizes if s > 0)


def nilpotent_of_pyramid(spec: AlgebraSpec, pyr: Pyramid) -> Matrix:
    """The nilpotent acting along the rows of the pyramid.

    Verified on construction: lies in the algebra, and its Jordan type
    matches the partition the pyramid encodes.
    """
    _check_flavor(spec, pyr)
    labels = fill_boxes(spec, pyr)
    pos = {i: a for a, i in enumerate(_signed_indices(spec))}
    arrows = _arrows(pyr)
    arrow_set = set(arrows)
    entries: Sparse = {}
    fam = spec.family

    def put(src: Box, dst: Box, coeff: int):
        key = (pos[labels[dst]], pos[labels[src]])
        entries[key] = entries.get(key, Fraction(0)) + coeff

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
    e = sparse_to_matrix(entries, spec.size)
    g = AlgebraBasis(spec)
    if not g.contains(e):
        raise VerificationError("constructed nilpotent fails form compatibility")
    if jordan_type(e) != _expected_jordan_type(pyr):
        raise VerificationError("constructed nilpotent has the wrong Jordan type")
    return e


def grading_of_pyramid(spec: AlgebraSpec, pyr: Pyramid) -> GradingElement:
    """Diagonal grading element: entry of each basis vector = box first coordinate."""
    labels = fill_boxes(spec, pyr)
    pos = {i: a for a, i in enumerate(_signed_indices(spec))}
    diag = [Fraction(0)] * spec.size
    for (x, _y), lab in labels.items():
        diag[pos[lab]] = x
    return GradingElement(spec, tuple(diag))


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

    H: GradingElement
    e: Matrix
    verified: bool
    centralizer_degrees: tuple[Fraction, ...]
    decomposition: GradedDecomposition

    @property
    def centralizer_dim(self) -> int:
        return len(self.centralizer_degrees)


@dataclass(frozen=True)
class AdBlocks:
    """ad e split into connected blocks, each ranked once.

    A block is (columns, rows, rank): the basis indices k whose images
    [e, b_k] it holds, the basis indices those images reach, and the
    rank of that submatrix of ad e.  Columns that reach a common row
    share a block, so rows and columns of distinct blocks are disjoint
    and the rest of ad e is zero.  Under any diagonal H with [H, e] = 2e
    a column and the rows it reaches differ in degree by exactly 2, so
    each block maps one degree d into degree d + 2, and the rank of
    ad e : g_d -> g_{d+2} is the sum of the ranks of the blocks at d.
    """

    e: Matrix
    entries: Sparse
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]


def ad_blocks(g: AlgebraBasis, e: Matrix) -> AdBlocks:
    """Assemble ad e sparsely, split it into connected blocks, rank each.

    Raises ValueError unless e lies in g: sparse coordinates drop the
    entries no basis element owns, so the blocks of a non-member would
    be silently wrong.  Checked here once per e, not once per grading.
    """
    if not g.contains(e):
        raise ValueError("element does not lie in the algebra")
    es = matrix_to_sparse(e)
    cols = {}
    for k, elem in enumerate(g.elements):
        col = g.sparse_coordinates(sparse_bracket(es, elem))
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
    return AdBlocks(e, es, tuple(blocks))


def _blocks_of(g: AlgebraBasis, e: Matrix, blocks: AdBlocks | None) -> AdBlocks:
    if blocks is None:
        return ad_blocks(g, e)
    if blocks.e is not e and blocks.e != e:
        raise ValueError("ad e blocks were built from a different element")
    return blocks


def graded_ad_ranks(g: AlgebraBasis, H: GradingElement, e: Matrix,
                    blocks: AdBlocks | None = None, dec=None):
    """Per-degree ranks of ad e: g_j -> g_{j+2}; returns (decomposition, ranks).

    Sums the block ranks by degree.  Raises ValueError unless every block
    maps one degree d of H into degree d + 2, that is unless ad e is
    homogeneous of degree 2 under H.
    """
    if dec is None:
        dec = graded_decomposition(g, H)
    blocks = _blocks_of(g, e, blocks)
    degree = [Fraction(0)] * g.dim
    for d, idxs in dec.buckets.items():
        for k in idxs:
            degree[k] = d
    ranks = dict.fromkeys(dec.buckets, 0)
    for columns, rows, rk in blocks.blocks:
        d = degree[columns[0]]
        target = d + 2
        if any(degree[c] != d for c in columns) \
                or any(degree[r] != target for r in rows):
            raise ValueError("ad e does not raise degrees by 2 under H")
        ranks[d] += rk
    return dec, ranks


def is_good(g: AlgebraBasis, H: GradingElement, e: Matrix,
            blocks: AdBlocks | None = None) -> GoodPair:
    """Decide whether e is a good element of the grading defined by H.

    Requires e in g, e != 0, [H, e] = 2e, and an integral grading.  The
    verdict is the centralizer dimension identity, cross-checked against
    per-degree injectivity of ad e on negative degrees; the two must
    agree or a VerificationError is raised.  `blocks` must come from
    `ad_blocks(g, e)` for this e, which checks that e lies in g; they
    are built when omitted.
    """
    if H.spec != g.spec:
        raise ValueError("grading element spec does not match the algebra")
    if e.is_zero():
        raise ValueError("a good element is a nonzero nilpotent")
    blocks = _blocks_of(g, e, blocks)
    diag = H.diagonal
    # [H, e] = 2e entrywise: (H_i - H_j) e_ij = 2 e_ij
    if any(diag[i] - diag[j] != 2 for i, j in blocks.entries):
        raise ValueError("element is not homogeneous of degree 2 under H")
    dec = graded_decomposition(g, H)
    if not dec.is_integral():
        raise ValueError("not an integral grading")
    dec, ranks = graded_ad_ranks(g, H, e, blocks, dec)
    centralizer_degs: list[Fraction] = []
    for d, idxs in dec.buckets.items():
        null = len(idxs) - ranks[d]
        centralizer_degs.extend([d] * null)
    centralizer_degs.sort()
    dim_centralizer = len(centralizer_degs)
    dim_identity = dim_centralizer == dec.piece_dim(0) + dec.piece_dim(-1)
    injective_negative = all(
        ranks[d] == len(dec.buckets[d]) for d in dec.degrees if d <= -1)
    if dim_identity != injective_negative:
        raise VerificationError(
            "dimension identity and negative-degree injectivity disagree")
    if dim_identity and centralizer_degs and centralizer_degs[0] < 0:
        raise VerificationError("good pair with negative centralizer degree")
    return GoodPair(H=H, e=e, verified=dim_identity,
                    centralizer_degrees=tuple(centralizer_degs),
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
    labels: tuple[Fraction, ...]

    def normalized(self) -> tuple:
        """Fork-insensitive form used for comparisons in type D."""
        if self.diagram == "D" and self.rank >= 2:
            body = self.labels[:-2]
            fork = tuple(sorted(self.labels[-2:]))
            return (self.diagram, self.rank, body + fork)
        return (self.diagram, self.rank, self.labels)

    def as_ints(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.labels)

    def __str__(self):
        return f"{self.diagram}{self.rank}:" + ",".join(str(x) for x in self.labels)


def characteristic_of(g: AlgebraBasis, H: GradingElement) -> Characteristic:
    """Characteristic read off the dominant-chamber representative.

    Sort the diagonal into the dominant chamber of the family's Weyl
    group and take the degrees of the simple root vectors.  This is the
    uniform definition; the pyramid column algorithm is checked against
    it.
    """
    dec = graded_decomposition(g, H)
    if not dec.is_integral():
        raise ValueError("characteristics are defined for integral gradings")
    fam = g.spec.family
    n = g.spec.size
    if fam is Family.GL:
        d = sorted(H.diagonal, reverse=True)
        labels = tuple(d[i] - d[i + 1] for i in range(n - 1))
        return Characteristic("A", n - 1, labels)
    half = n // 2
    entries = [H.diagonal[i] for i in range(half)]
    if fam is Family.SP:
        d = sorted((abs(x) for x in entries), reverse=True)
        labels = tuple(d[i] - d[i + 1] for i in range(half - 1)) + (2 * d[-1],)
        return Characteristic("C", half, labels)
    if n % 2 == 1:
        d = sorted((abs(x) for x in entries), reverse=True)
        labels = tuple(d[i] - d[i + 1] for i in range(half - 1)) + (d[-1],)
        return Characteristic("B", half, labels)
    negatives = sum(1 for x in entries if x < 0)
    d = sorted((abs(x) for x in entries), reverse=True)
    if negatives % 2 == 1:
        d[-1] = -d[-1]
    labels = tuple(d[i] - d[i + 1] for i in range(half - 2)) \
        + (d[-2] - d[-1], d[-2] + d[-1])
    return Characteristic("D", half, labels)


def characteristic_from_pyramid(spec: AlgebraSpec, pyr: Pyramid) -> Characteristic:
    """Characteristic via column heights of the pyramid.

    Scan columns from the right edge inward; each nonempty column emits
    (height-1) zeros and then a separator: 2 if the next column inward
    is empty, 1 if not.  The middle column contributes trailing zeros
    (one per mirror pair); for half-integer pyramids the column at 1/2
    ends the sequence with a single 1, or a 2 when it holds just one box
    (the dominant-chamber computation forces the larger label there).
    """
    _check_flavor(spec, pyr)
    heights: dict[Fraction, int] = {}
    for x, _ in pyr.boxes():
        heights[x] = heights.get(x, 0) + 1
    if spec.family is Family.GL:
        xs = sorted(heights)
        labels: list[Fraction] = []
        bottom = xs[0]
        x = xs[-1]
        # scan right to left so the labels come out in the descending
        # diagonal order (the left-to-right scan is its diagram flip)
        while x >= bottom:
            h = heights.get(x, 0)
            if h > 0:
                labels.extend([Fraction(0)] * (h - 1))
                if x > bottom:
                    labels.append(Fraction(2 if heights.get(x - 1, 0) == 0 else 1))
            x -= 1
        return Characteristic("A", spec.size - 1, tuple(labels))
    half_shift = any(x.denominator == 2 for x in heights)
    rank = spec.rank
    diagram = spec.diagram
    labels = []
    if not half_shift:
        top = max(heights)
        x = top
        smallest_positive = None
        while x >= 1:
            h = heights.get(x, 0)
            if h > 0:
                smallest_positive = x
                labels.extend([Fraction(0)] * (h - 1))
                labels.append(Fraction(2 if heights.get(x - 1, 0) == 0 else 1))
            x -= 1
        middle = heights.get(Fraction(0), 0)
        if diagram == "D" and middle == 2:
            # one mirror pair at coordinate 0: the fork partner of the
            # zero entry repeats the smallest positive coordinate
            labels.append(Fraction(smallest_positive))
        else:
            labels.extend([Fraction(0)] * (middle // 2))
    else:
        top = max(heights)
        x = top
        while x > Fraction(1, 2):
            h = heights.get(x, 0)
            if h > 0:
                labels.extend([Fraction(0)] * (h - 1))
                labels.append(Fraction(2 if heights.get(x - 1, 0) == 0 else 1))
            x -= 1
        h = heights.get(Fraction(1, 2), 0)
        labels.extend([Fraction(0)] * (h - 1))
        if diagram == "C":
            labels.append(Fraction(1))
        else:
            labels.append(Fraction(1 if h >= 2 else 2))
    if len(labels) != rank:
        raise VerificationError(
            f"column algorithm produced {len(labels)} labels for rank {rank}")
    return Characteristic(diagram, rank, tuple(labels))


# -- additional certificates --------------------------------------------------


def check_duality_form(g: AlgebraBasis, H: GradingElement, e: Matrix) -> bool:
    """Nondegeneracy of <a, b> = trace(e [a, b]) on the degree -1 piece.

    Must hold for every good pair; raises if the pair is not good.
    """
    pair = is_good(g, H, e)
    if not pair.verified:
        raise ValueError("pair is not good")
    idxs = pair.decomposition.buckets.get(Fraction(-1), ())
    if not idxs:
        return True
    es = matrix_to_sparse(e)
    elems = [g.elements[k] for k in idxs]
    gram = []
    for a in elems:
        row = []
        for b in elems:
            br = sparse_bracket(a, b)
            val = Fraction(0)
            for (r, c), v in es.items():
                val += v * br.get((c, r), Fraction(0))
            row.append(val)
        gram.append(row)
    return len(rref(gram)[1]) == len(idxs)


def check_torus_weights(g: AlgebraBasis, H: GradingElement, e: Matrix) -> bool:
    """No nonzero vector of g_1 is killed by the whole diagonal torus of g^e_0.

    Supported for gl (type A).  The torus is the space of diagonal matrices
    commuting with e: constant along the arrow-connected classes of
    basis vectors.  Since it acts diagonally on the matrix-unit basis,
    the joint kernel on g_1 is spanned by the matrix units it fixes.
    """
    if g.spec.family is not Family.GL:
        raise ValueError("torus-weight check is supported for gl only")
    pair = is_good(g, H, e)
    if not pair.verified:
        raise ValueError("pair is not good")
    n = g.spec.size
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(n):
            if e.data[i][j] != 0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    for k in pair.decomposition.buckets.get(Fraction(1), ()):
        _, i, j = g.labels[k]
        if find(i - 1) == find(j - 1):
            return False
    return True
