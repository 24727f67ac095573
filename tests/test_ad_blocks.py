"""The block engine for ad e against the dense reference.

The dense reference is the rows of ad e from `ad_coordinate_matrix`,
with the ranks of its degree slices and of the whole matrix (dim g^e
is dim g minus that rank).  The block engine never builds it.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from dense_reference import Matrix, bracket, dense, rank
from goodgradings import algebras, cli, gradings, parabolic
from goodgradings.algebras import (AlgebraSpec, Family, GradingElement,
                                   ad_coordinate_matrix, build_algebra,
                                   graded_decomposition)
from goodgradings.classify import good_gradings
from goodgradings.gradings import (ad_blocks, graded_ad_ranks, is_good,
                                   nilpotent_of_pyramid)
from goodgradings.parabolic import (ParabolicSpec, generic_richardson_oracle,
                                    grading_is_good_generic)
from goodgradings.partitions import (orthogonal_partitions, partitions,
                                     symplectic_partitions)
from goodgradings.pyramids import (orthogonal_pyramid, symmetric_pyramid,
                                   symplectic_pyramid)

GL = Family.GL
SP = Family.SP
SO = Family.SO


def _orbits():
    """Every nonzero orbit with A: n <= 7 and B/C/D: N <= 10, with the
    pyramid its nilpotent is built from."""
    for n in range(2, 8):
        for p in partitions(n):
            yield AlgebraSpec(GL, n), p, symmetric_pyramid(p)
    for N in range(2, 11, 2):
        for p in symplectic_partitions(N):
            yield AlgebraSpec(SP, N), p, symplectic_pyramid(p)
    for N in range(3, 11):
        for p in orthogonal_partitions(N):
            yield AlgebraSpec(SO, N), p, orthogonal_pyramid(p)


def _dense_ranks(ad, degrees) -> dict:
    pieces = {}
    for k, d in enumerate(degrees):
        pieces.setdefault(d, []).append(k)
    ranks = {}
    for d, cols in pieces.items():
        rows = pieces.get(d + 2, ())
        sub = [[ad[r][c] for c in cols] for r in rows]
        ranks[d] = rank(Matrix(sub)) if rows else 0
    return ranks


def _check_against_dense(g, e, ranks, degrees, ad=None):
    # a Counter treats a missing degree as rank 0
    ad = ad_coordinate_matrix(g, e) if ad is None else ad
    assert ranks == Counter(_dense_ranks(ad, degrees))


def test_block_ranks_equal_dense_slices_on_every_orbit():
    orbits = gradings = 0
    for spec, p, base in _orbits():
        if p.is_zero_orbit():
            continue
        g = build_algebra(spec)
        e = nilpotent_of_pyramid(g, base)
        ad = ad_coordinate_matrix(g, e)
        blocks = ad_blocks(g, e)
        centralizer_dim = g.dim - rank(Matrix(ad))
        for ent in good_gradings(spec, p).entries:
            degrees = graded_decomposition(g, ent.H)
            ranks = graded_ad_ranks(blocks, degrees)
            _check_against_dense(g, e, ranks, degrees, ad)
            assert g.dim - sum(ranks.values()) == centralizer_dim, (spec, p)
            gradings += 1
        orbits += 1
    assert (orbits, gradings) == (136, 311)


def test_integer_multiple_of_e_has_the_same_blocks():
    # scaling e scales ad e, which changes no block and no rank: -3e
    # gives the blocks of e, with the same columns, rows and ranks
    for spec, p, base in _orbits():
        if p.is_zero_orbit():
            continue
        g = build_algebra(spec)
        e = nilpotent_of_pyramid(g, base)
        e3 = {key: -3 * v for key, v in e.items()}
        scaled = ad_blocks(g, e3)
        assert scaled.blocks == ad_blocks(g, e).blocks, (spec, p)
        assert scaled.e is e3 and scaled.g is g


def test_ad_blocks_refuses_entries_that_are_not_ints():
    # e/3 has the blocks of e, but ad e takes int entries only; a single
    # non-int entry is refused although some blocks would never reach
    # the elimination that refuses it
    for spec, p, base in _orbits():
        if p.is_zero_orbit():
            continue
        g = build_algebra(spec)
        e = nilpotent_of_pyramid(g, base)
        key = next(iter(e))
        for bad in ({k: Fraction(v, 3) for k, v in e.items()},
                    {**e, key: Fraction(e[key])}, {**e, key: float(e[key])}):
            with pytest.raises(TypeError):
                ad_blocks(g, bad)


def test_block_ranks_equal_dense_slices_on_generic_samples(monkeypatch):
    seen = []
    current = {}

    def checked(blocks, degree):
        g, degrees = current["g"], current["degrees"]
        assert degree == degrees
        ranks = graded_ad_ranks(blocks, degree)
        _check_against_dense(g, blocks.e, ranks, degrees)
        seen.append(blocks.e)
        return ranks

    # the oracle reaches the ranks only through is_good
    monkeypatch.setattr(gradings, "graded_ad_ranks", checked)
    for spec, composition, q, good in [
        (AlgebraSpec(GL, 4), (1, 2, 1), 0, True),
        (AlgebraSpec(GL, 5), (2, 1, 2), 0, False),
        (AlgebraSpec(SP, 6), (2, 1), 0, False),
        (AlgebraSpec(SO, 7), (1, 1), 3, True),
        (AlgebraSpec(SO, 8), (2, 1, 1), 0, False),
    ]:
        par = ParabolicSpec(spec, composition, q)
        g = build_algebra(spec)
        H = parabolic.parabolic_grading(par)
        current.update(g=g, degrees=graded_decomposition(g, H))
        assert grading_is_good_generic(g, H) is good
    assert len(seen) >= 3 * 16


def test_ad_coordinate_matrix_equals_the_dense_bracket_on_generic_samples(
        monkeypatch):
    # ad_blocks and ad_coordinate_matrix share algebras.ad, so the dense
    # product of matrices is the independent witness for both: column k
    # holds the entries of e b_k - b_k e at the places the basis owns,
    # and those coordinates rebuild the whole dense bracket
    samples = []

    def recorded(g, e):
        samples.append((g, e))
        return ad_blocks(g, e)

    monkeypatch.setattr(parabolic, "ad_blocks", recorded)
    for spec, composition, q in [(AlgebraSpec(GL, 4), (1, 2, 1), 0),
                                 (AlgebraSpec(GL, 5), (2, 1, 2), 0),
                                 (AlgebraSpec(SP, 6), (2, 1), 0),
                                 (AlgebraSpec(SO, 7), (1, 1), 3),
                                 (AlgebraSpec(SO, 8), (2, 1, 1), 0)]:
        generic_richardson_oracle(ParabolicSpec(spec, composition, q))
    assert len(samples) >= 3 * 16
    for g, e in samples:
        n = g.n
        products = [bracket(dense(e, n), dense(elem, n))
                    for elem in g.elements]
        expected = [[m.data[a][b] for m in products]
                    for a, b in g.label_positions]
        assert ad_coordinate_matrix(g, e) == expected
        for k, m in enumerate(products):
            column = g.from_coordinates([int(row[k]) for row in expected])
            assert dense(column, n) == m


def test_blocks_are_disjoint_and_cover_the_nonzero_columns():
    spec = AlgebraSpec(SO, 9)
    g = build_algebra(spec)
    e = nilpotent_of_pyramid(g, orthogonal_pyramid(
        next(p for p in orthogonal_partitions(9) if p.parts == (3, 3, 1, 1, 1))))
    ad = ad_coordinate_matrix(g, e)
    blocks = ad_blocks(g, e).blocks
    columns = [c for cols, _, _ in blocks for c in cols]
    rows = [r for _, rs, _ in blocks for r in rs]
    assert len(columns) == len(set(columns)) and len(rows) == len(set(rows))
    assert set(columns) == {c for c in range(g.dim)
                            if any(ad[r][c] for r in range(g.dim))}
    assert set(rows) == {r for r in range(g.dim) if any(ad[r])}
    assert all(rk == 1 for cols, rs, rk in blocks
               if len(cols) == 1 or len(rs) == 1)


def test_inhomogeneous_element_is_rejected_not_ranked(monkeypatch):
    spec = AlgebraSpec(GL, 3)
    g = build_algebra(spec)
    H = GradingElement(spec, (4, 0, 0))  # 2H for H = diag(2, 0, 0)
    e12 = {(0, 1): 1}  # degree 2
    e23 = {(1, 2): 1}  # degree 0
    e13 = {(0, 2): 1}  # degree 2
    degrees = graded_decomposition(g, H)
    ranks = graded_ad_ranks(ad_blocks(g, e12 | e13), degrees)  # accepted
    _check_against_dense(g, e12 | e13, ranks, degrees)

    def unreachable(blocks, degree):
        raise AssertionError("an inhomogeneous pair reached the ranks")

    # is_good refuses before it ranks anything: e12 + e23 and e23 are
    # not of degree 2 under H, and e12 is homogeneous but of degree 4
    # under 2H, so only the entrywise [H, e] = 2e check can refuse it
    monkeypatch.setattr(gradings, "graded_ad_ranks", unreachable)
    H4 = GradingElement(spec, (8, 0, 0))
    for grading, e in ((H, e12 | e23), (H, e23), (H4, e12)):
        with pytest.raises(ValueError, match="not homogeneous of degree 2"):
            is_good(grading, ad_blocks(g, e))


def test_grading_of_another_algebra_is_rejected():
    g3 = build_algebra(AlgebraSpec(GL, 3))
    H = GradingElement(AlgebraSpec(GL, 4), (2, 0, -2, 0))
    with pytest.raises(ValueError, match="does not match the algebra"):
        is_good(H, ad_blocks(g3, {(0, 1): 1}))


def test_element_outside_the_algebra_is_rejected():
    # a lone matrix unit without its mirror entry lies in neither so_5 nor
    # sp_4; sparse coordinates would drop the unowned entry, so the
    # blocks must refuse it, and is_good can only take blocks; so must a
    # key outside the matrix, which no basis element owns either
    for spec in [AlgebraSpec(SO, 5), AlgebraSpec(SP, 4)]:
        g = build_algebra(spec)
        n = spec.size
        for e in [{(0, 1): 1}, {(0, n): 1}, {(n, 0): 1}]:
            with pytest.raises(ValueError, match="does not lie in the algebra"):
                ad_blocks(g, e)


def test_no_runtime_path_builds_a_dense_matrix(monkeypatch, capsys):
    # elements are sparse on every runtime path: classify, verify and the
    # generic oracle never call the one dense builder the library keeps
    # for the tests, under whatever name a library module holds it
    calls = Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    real = algebras.ad_coordinate_matrix
    wrapped = counted("ad_coordinate_matrix", real)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "goodgradings":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, wrapped)
    for argv in (["classify", "--family", "D", "--partition", "5,5,3,3,1,1"],
                 ["verify", "--family", "C", "--partition", "4,4,2,2"],
                 ["verify", "--family", "A", "--partition", "3,2,1"]):
        assert cli.main(argv + ["--format", "json"]) == 0
    capsys.readouterr()
    verdicts = [generic_richardson_oracle(ParabolicSpec(AlgebraSpec(fam, n),
                                                        comp, q))
                for fam, n, comp, q in [(SO, 12, (2, 1, 1, 2), 0),
                                        (SP, 12, (3, 1, 2), 0),
                                        (GL, 8, (2, 1, 3, 2), 0)]]
    assert verdicts == [False, False, False]
    assert calls == Counter()
    # the counter sees the builder when it runs
    algebras.ad_coordinate_matrix(build_algebra(AlgebraSpec(GL, 2)),
                                  {(0, 1): 1})
    assert calls == Counter(ad_coordinate_matrix=1)
