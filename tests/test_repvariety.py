"""Representation ideals, finite representation sets, Lie rep varieties, invariance."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from hopfrep.alggroups import LiePresentation, make_group, make_lie, parse_lie_expr, pullback
from hopfrep.groups import (
    FreeWord,
    GroupPresentation,
    WordError,
    cyclic_group,
    enumerate_homs,
    evaluate_word,
    parse_word,
    symmetric_group,
)
from hopfrep.polyalg import Polynomial, groebner, ideal_member
from hopfrep.repvariety import (
    check_observable_invariance,
    check_trace_invariance,
    finite_rep_algebra,
    lie_rep_ideal,
    rep_ideal,
)

Z2 = GroupPresentation(("a",), (parse_word("a^2", ("a",)),))
ZSQ = GroupPresentation(("a", "b"), (parse_word("a b a^-1 b^-1", ("a", "b")),))
F2 = GroupPresentation.free(2)


def _sl2_point(x1, x2):
    values = {}
    for block, matrix in ((1, x1), (2, x2)):
        for i in range(2):
            for j in range(2):
                values[f"x{block}_{i + 1}{j + 1}"] = Fraction(matrix[i][j])
    return values


# -- group representation ideals ----------------------------------------------


def test_free_group_degeneration(sl2, gl2, torus1, additive):
    for target in (sl2, gl2, torus1, additive, make_group("torus:2")):
        base = target.defining_ideal.generators
        for n in range(0, 4):
            pres = rep_ideal(GroupPresentation.free(n), target)
            assert len(pres.ideal.generators) == n * len(base)
            assert all(tag.startswith("copy_ideal:") for tag in pres.provenance)
            assert len(pres.ring) == n * len(target.variables)


def test_commuting_pair_points(sl2):
    pres = rep_ideal(ZSQ, sl2)
    good = _sl2_point(
        [[2, 0], [0, Fraction(1, 2)]], [[3, 0], [0, Fraction(1, 3)]]
    )
    bad = _sl2_point([[1, 1], [0, 1]], [[1, 0], [1, 1]])
    assert pres.satisfies(good)
    assert not pres.satisfies(bad)
    assert any(v != 0 for v in pres.evaluate_point(bad))


def test_torus_relator_groebner(torus1):
    pres = rep_ideal(Z2, torus1)
    texts = [str(g) for g in pres.ideal.generators]
    assert texts == ["z1*t1 - 1", "z1^2 - 1"]
    gb = groebner(pres.ideal)
    z1 = Polynomial.variable(pres.ring, "z1")
    assert ideal_member(z1**2 - 1, gb)


def test_torus_power_relators_at_the_field_width_boundary(torus1):
    # The pullback of a^k has degree k: 1-byte exponent fields for 255, 2-byte for 256.
    for k in (255, 256):
        word = parse_word(f"a^{k}", ("a",))
        assert [str(v) for v in pullback(word, torus1)] == [f"z1^{k}", f"t1^{k}"]
        for relator, variable in ((word, "z1"), (word.inverse(), "t1")):
            pres = rep_ideal(GroupPresentation(("a",), (relator,)), torus1)
            assert [str(g) for g in pres.ideal.generators] == ["z1*t1 - 1", f"{variable}^{k} - 1"]


def test_rep_ideal_json_schema(sl2):
    payload = rep_ideal(Z2, make_group("torus:1")).to_json()
    assert payload["variables"] == ["z1", "t1"]
    assert payload["provenance"][0] == {"generator_index": 0, "source": "copy_ideal:1"}
    assert payload["provenance"][1] == {
        "generator_index": 1,
        "source": "relator:0:entry:1,1",
    }


def test_presentation_independence_at_points(sl2):
    # the same abelian group on two and on three generators; candidates are
    # checked in one variety iff their lift (c-block copied from b) is in
    # the other.
    small = ZSQ
    names = ("a", "b", "c")
    big = GroupPresentation(
        names,
        (
            parse_word("a b a^-1 b^-1", names),
            parse_word("c b^-1", names),
        ),
    )
    pres_small = rep_ideal(small, sl2)
    pres_big = rep_ideal(big, sl2)
    rng = random.Random(101)

    candidates = []
    for k in range(8):  # structured: commuting diagonal pairs
        d1, d2 = Fraction(k + 2), Fraction(k + 3, 2)
        candidates.append(
            ([[d1, 0], [0, 1 / d1]], [[d2, 0], [0, 2 / Fraction(k + 3)]])
        )
    candidates.append(([[1, 1], [0, 1]], [[1, 0], [1, 1]]))  # dets fine, noncommuting
    candidates.append(([[1, 1], [0, 1]], [[1, 2], [0, 1]]))  # commuting unipotents
    while len(candidates) < 20:  # random junk, mostly off-variety
        candidates.append(
            (
                [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(2)],
                [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(2)],
            )
        )

    for x1, x2 in candidates:
        point2 = _sl2_point(x1, x2)
        point3 = dict(point2)
        for i in range(1, 3):
            for j in range(1, 3):
                point3[f"x3_{i}{j}"] = point2[f"x2_{i}{j}"]
        assert pres_small.satisfies(point2) == pres_big.satisfies(point3)


def _permutation_matrix_point(perm: tuple[int, ...], block: int, sign: int) -> dict:
    point = {}
    size = len(perm)
    for i in range(size):
        for j in range(size):
            point[f"x{block}_{i + 1}{j + 1}"] = Fraction(1 if perm[i] == j else 0)
    point[f"t{block}"] = Fraction(sign)
    return point


def test_enumerated_points_satisfy_rep_ideal():
    # permutation-matrix images of enumerated homomorphisms are points of
    # the corresponding matrix representation variety
    s3 = symmetric_group(3)
    gl3 = make_group("gl:3")
    perms = sorted(itertools.permutations(range(3)))
    signs = {}
    for p in perms:
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    sign = -sign
        signs[p] = sign

    for source in (Z2, GroupPresentation(("a",), (parse_word("a^3", ("a",)),)), F2):
        pres = rep_ideal(source, gl3)
        for hom in enumerate_homs(source, s3):
            point = {}
            for block, index in enumerate(hom, start=1):
                perm = perms[index]
                point.update(_permutation_matrix_point(perm, block, signs[perm]))
            assert pres.satisfies(point)


# -- finite targets ----------------------------------------------------------------


def test_rep_counts(s3):
    z3 = GroupPresentation(("a",), (parse_word("a^3", ("a",)),))
    assert len(finite_rep_algebra(Z2, s3)) == 4
    assert len(finite_rep_algebra(z3, s3)) == 3
    assert len(finite_rep_algebra(F2, s3)) == 36
    trivial = GroupPresentation((), ())
    assert finite_rep_algebra(trivial, s3) == ((),)
    z = GroupPresentation.free(1)
    assert len(finite_rep_algebra(z, cyclic_group(3))) == 3


def test_rep_points_are_distinct_and_kill_every_relator(s3):
    # k^Hom(G, S3) is the ring of functions on these points, so they must be
    # distinct and be exactly the image tuples that kill every relator.
    for source in (Z2, ZSQ, F2):
        points = finite_rep_algebra(source, s3)
        assert len(set(points)) == len(points)
        assert set(points) == {
            images
            for images in itertools.product(range(s3.order), repeat=source.n_generators)
            if all(evaluate_word(r, images, s3) == s3.identity for r in source.relators)
        }


def test_algebra_rejects_foreign_points(s3):
    three_cycle = s3.names.index("(0 1 2)")
    assert evaluate_word(parse_word("x1^2", 1), [three_cycle], s3) != s3.identity
    assert (three_cycle,) not in finite_rep_algebra(Z2, s3)


# -- Lie representation ideals -----------------------------------------------------


def test_free_lie_source_zero_ideal(sl2_lie):
    for target in (sl2_lie, make_lie("abelian:3")):
        for n in (1, 2, 3):
            pres = lie_rep_ideal(LiePresentation.free(n), target)
            assert pres.ideal.generators == ()
            assert len(pres.ring) == n * target.dimension


def test_abelian_pair_into_sl2(sl2_lie):
    source = LiePresentation(("a", "b"), (parse_lie_expr("[a,b]", ("a", "b")),))
    pres = lie_rep_ideal(source, sl2_lie)
    assert len(pres.ideal.generators) == 3
    assert all(g.total_degree() == 2 for g in pres.ideal.generators)
    point_fails = {f"y1_{k}": Fraction(v) for k, v in ((1, 1), (2, 0), (3, 0))}
    point_fails.update({f"y2_{k}": Fraction(v) for k, v in ((1, 0), (2, 0), (3, 1))})
    point_holds = {f"y1_{k}": Fraction(v) for k, v in ((1, 1), (2, 0), (3, 0))}
    point_holds.update({f"y2_{k}": Fraction(v) for k, v in ((1, 1), (2, 0), (3, 0))})
    assert not pres.satisfies(point_fails)  # X = e, Y = h has [X,Y] = -2e
    assert pres.satisfies(point_holds)  # X = e, Y = e commutes


def test_vanishing_generator_relator(sl2_lie):
    source = LiePresentation(("a",), (parse_lie_expr("a", ("a",)),))
    pres = lie_rep_ideal(source, sl2_lie)
    expected = tuple(Polynomial.variable(pres.ring, f"y1_{k}") for k in (1, 2, 3))
    assert pres.ideal.generators == expected


# -- invariance ----------------------------------------------------------------------


def test_trace_invariance_basic(sl2):
    assert check_trace_invariance(parse_word("a", ("a", "b")), F2, sl2)


def test_trace_invariance_refuses_a_word_of_another_rank(sl2):
    with pytest.raises(WordError, match="word rank 1 does not match 2 generators"):
        check_trace_invariance(parse_word("a", ("a",)), F2, sl2)


def test_entry_observable_fails(sl2):
    from hopfrep.alggroups import block_ring

    ring = block_ring(sl2, [1, 2])
    entry = Polynomial.variable(ring, "x1_12")
    assert not check_observable_invariance(entry, F2, sl2)


def test_trace_invariance_with_relators(sl2):
    # still invariant over a non-free group
    assert check_trace_invariance(parse_word("a b", ("a", "b")), ZSQ, sl2)


def test_trace_invariance_torus(torus1):
    z = GroupPresentation.free(1)
    assert check_trace_invariance(parse_word("a", ("a",)), z, torus1)


def test_trace_invariance_gl2(gl2):
    # exercises the adjugate-times-inverse-determinant antipode under conjugation
    for text in ("a", "a b", "a b^-1"):
        assert check_trace_invariance(parse_word(text, ("a", "b")), F2, gl2), text


def test_trace_invariance_all_short_words(sl2):
    # every freely reduced word of length <= 3 on two letters
    alphabet = [(i, e) for i in (1, 2) for e in (1, -1)]
    for length in range(4):
        for letters in itertools.product(alphabet, repeat=length):
            w = FreeWord(2, letters)
            if len(w.letters) != length:
                continue
            assert check_trace_invariance(w, F2, sl2), w


# -- printed reduced bases, pinned -------------------------------------------------
#
# Recorded before the Groebner engine took its pairs from a heap and kept the
# terms of a division in one; the Z^2 (ZSQ) and Z/3 bases were recorded before
# it kept its divisors prepared and pruned pairs by Gebauer-Moller.  Any change
# to the engine must print the same.

BS12 = GroupPresentation(("a", "b"), (parse_word("a b a^-1 b^-2", ("a", "b")),))
Z3 = GroupPresentation(("a",), (parse_word("a^3", ("a",)),))

_Z2_SL3_GREVLEX = (
    "x1_11^2 - x1_22^2 - 2*x1_22*x1_33 - x1_33^2 + 2*x1_11 + 1",
    "x1_11*x1_12 + x1_12*x1_22 + x1_12*x1_33 + x1_12",
    "x1_11*x1_13 + x1_12*x1_23 + x1_13*x1_33",
    "x1_11*x1_21 + x1_21*x1_22 + x1_21*x1_33 + x1_21",
    "x1_12*x1_21 + x1_22^2 + x1_22*x1_33 - x1_11 - 1",
    "x1_13*x1_21 + x1_22*x1_23 + x1_23*x1_33",
    "x1_11*x1_22 + x1_22^2 + x1_22*x1_33 - x1_11 - x1_33 - 1",
    "x1_13*x1_22 - x1_12*x1_23 + x1_13",
    "x1_11*x1_23 + x1_22*x1_23 + x1_23*x1_33 + x1_23",
    "x1_11*x1_31 + x1_21*x1_32 + x1_31*x1_33",
    "x1_12*x1_31 + x1_22*x1_32 + x1_32*x1_33",
    "x1_13*x1_31 + x1_22*x1_33 + x1_33^2 - x1_11 - 1",
    "x1_22*x1_31 - x1_21*x1_32 + x1_31",
    "x1_23*x1_31 - x1_21*x1_33 - x1_21",
    "x1_11*x1_32 + x1_22*x1_32 + x1_32*x1_33 + x1_32",
    "x1_13*x1_32 - x1_12*x1_33 - x1_12",
    "x1_23*x1_32 - x1_22*x1_33 + x1_11",
    "x1_11*x1_33 + x1_22*x1_33 + x1_33^2 - x1_11 - x1_22 - 1",
)

_Z2_SL3_LEX = (
    "x1_23*x1_32 - x1_22*x1_33 + x1_11",
    "x1_12*x1_21 + x1_22^2 + x1_23*x1_32 - 1",
    "-x1_13*x1_22 + x1_12*x1_23 - x1_13",
    "x1_12*x1_31 + x1_22*x1_32 + x1_32*x1_33",
    "-x1_13*x1_32 + x1_12*x1_33 + x1_12",
    "x1_13*x1_21 + x1_22*x1_23 + x1_23*x1_33",
    "-x1_13*x1_23*x1_32 + x1_13*x1_22*x1_33 + x1_13*x1_22 + x1_13*x1_33 + x1_13",
    "x1_13*x1_31 + x1_23*x1_32 + x1_33^2 - 1",
    "-x1_22*x1_31 + x1_21*x1_32 - x1_31",
    "-x1_23*x1_31 + x1_21*x1_33 + x1_21",
    "-x1_22*x1_23*x1_32 + x1_22^2*x1_33 + x1_22^2 + x1_23*x1_32 - x1_33 - 1",
    "-x1_23^2*x1_32 + x1_22*x1_23*x1_33 + x1_22*x1_23 + x1_23*x1_33 + x1_23",
    "-x1_23*x1_31*x1_32 + x1_22*x1_31*x1_33 + x1_22*x1_31 + x1_31*x1_33 + x1_31",
    "-x1_23*x1_32^2 + x1_22*x1_32*x1_33 + x1_22*x1_32 + x1_32*x1_33 + x1_32",
    "-x1_23*x1_32*x1_33 + x1_22*x1_33^2 + x1_23*x1_32 + x1_33^2 - x1_22 - 1",
)

_BS12_SL2_GREVLEX = (
    "x1_22^2*x2_12^2 - 2*x1_12*x1_22*x2_12*x2_22 + x1_12^2*x2_22^2 - x1_12^2*x2_11 + x1_11*x1_12*x2_12 - 1/2*x2_11*x2_12^2 - 1/2*x2_12^2*x2_22 + 1/2*x2_12^2",
    "x1_22^2*x2_21^2 - 2*x1_21*x1_22*x2_21*x2_22 + x1_21^2*x2_22^2 - x1_21^2*x2_11 + 2*x1_11*x1_21*x2_21 + x1_21*x1_22*x2_21 - x2_11*x2_21^2 - x2_21^2*x2_22",
    "x1_11^2*x2_12 - x1_22^2*x2_12 + 2*x1_11*x1_12*x2_22 + 2*x1_12*x1_22*x2_22 - 2*x1_11*x1_12 - 2*x1_12*x1_22 - 1/2*x2_11*x2_12 - 1/2*x2_12*x2_22 - 1/2*x2_12",
    "x1_11*x1_21*x2_12 + x1_21*x1_22*x2_12 + x1_11*x1_22*x2_22 + x1_22^2*x2_22 - x1_11*x1_22 - x1_22^2 - x2_11*x2_22 - x2_22^2 + x2_11 + 1",
    "x1_11*x1_22*x2_12 + x1_22^2*x2_12 - x1_11*x1_12*x2_22 - x1_12*x1_22*x2_22 + x1_11*x1_12 + x1_12*x1_22 - 1/2*x2_11*x2_12 - 1/2*x2_12*x2_22 - 1/2*x2_12",
    "x1_21*x2_11*x2_12 + 2*x1_21*x2_12*x2_22 + x1_12*x2_21*x2_22 - x1_11*x2_22^2 + x1_22*x2_22^2 - x1_12*x2_21 - x1_22*x2_22 + x1_11",
    "x1_21*x2_12^2 - x1_11*x2_12*x2_22 + x1_22*x2_12*x2_22 - x1_12*x2_22^2 + x1_12*x2_11 + x1_22*x2_12",
    "x1_11^2*x2_21 - x1_22^2*x2_21 + 2*x1_11*x1_21*x2_22 + 2*x1_21*x1_22*x2_22 - 2*x1_11*x1_21 - 2*x1_21*x1_22 + 1/2*x2_11*x2_21 + 1/2*x2_21*x2_22 + 1/2*x2_21",
    "x1_11*x1_12*x2_21 + x1_12*x1_22*x2_21 + x1_11*x1_22*x2_22 + x1_22^2*x2_22 - x1_11*x1_22 - x1_22^2 - 1/2*x2_11*x2_22 - 1/2*x2_22^2 + 1/2*x2_11 + 1/2",
    "x1_11*x1_22*x2_21 + x1_22^2*x2_21 - x1_11*x1_21*x2_22 - x1_21*x1_22*x2_22 + x1_11*x1_21 + x1_21*x1_22 - x2_11*x2_21 - x2_21*x2_22 - x2_21",
    "x1_12*x2_11*x2_21 + x1_21*x2_12*x2_22 + 2*x1_12*x2_21*x2_22 - x1_11*x2_22^2 + x1_22*x2_22^2 - x1_21*x2_12 + x1_11*x2_22 - x1_22",
    "x1_12*x2_21^2 - x1_11*x2_21*x2_22 + x1_22*x2_21*x2_22 - x1_21*x2_22^2 + x1_21*x2_11 - x1_11*x2_21",
    "x1_11^2*x2_22 + 2*x1_11*x1_22*x2_22 + x1_22^2*x2_22 - x1_11^2 - 2*x1_11*x1_22 - x1_22^2 - 3/2*x2_11*x2_22 - 3/2*x2_22^2 + 3/2*x2_11 + 3/2",
    "x1_12*x1_21 - x1_11*x1_22 + 1",
    "x1_11*x2_11 + x1_21*x2_12 + x1_12*x2_21 + x1_22*x2_22 - x1_11 - x1_22",
    "x1_22*x2_11 - x1_21*x2_12 - x1_12*x2_21 + x1_11*x2_22 - x1_11 - x1_22",
    "x2_11^2 + 2*x2_11*x2_22 + x2_22^2 - x2_11 - x2_22 - 2",
    "x2_12*x2_21 - x2_11*x2_22 + 1",
)


_ZSQ_SL2_GREVLEX = (
    "x1_11*x1_22*x2_21^2 - x1_11*x1_21*x2_21*x2_22 + x1_21*x1_22*x2_21*x2_22 - x1_21^2*x2_22^2 + x1_21^2 - x2_21^2",
    "x1_11*x1_22*x2_11 - x1_11*x1_12*x2_21 + x1_12*x1_22*x2_21 - x1_11*x1_22*x2_22 - x2_11 + x2_22",
    "x1_11*x1_22*x2_12 - x1_12^2*x2_21 - x2_12",
    "x1_12*x2_21^2 - x1_11*x2_21*x2_22 + x1_22*x2_21*x2_22 - x1_21*x2_22^2 + x1_21",
    "x1_12*x1_21 - x1_11*x1_22 + 1",
    "x1_12*x2_11 - x1_11*x2_12 + x1_22*x2_12 - x1_12*x2_22",
    "x1_21*x2_11 - x1_11*x2_21 + x1_22*x2_21 - x1_21*x2_22",
    "x1_21*x2_12 - x1_12*x2_21",
    "x2_12*x2_21 - x2_11*x2_22 + 1",
)

_ZSQ_SL2_LEX = (
    "-x1_12*x1_21 + x1_11*x1_22 - 1",
    "-x1_12*x2_11 + x1_11*x2_12 - x1_22*x2_12 + x1_12*x2_22",
    "-x1_21*x2_11 + x1_11*x2_21 - x1_22*x2_21 + x1_21*x2_22",
    "-x1_12*x1_22*x2_11 + x1_12*x1_21*x2_12 - x1_22^2*x2_12 + x1_12*x1_22*x2_22 + x2_12",
    "-x1_21*x2_12 + x1_12*x2_21",
    "-x1_21*x1_22*x2_11 + x1_21^2*x2_12 - x1_22^2*x2_21 + x1_21*x1_22*x2_22 + x2_21",
    "-x2_12*x2_21 + x2_11*x2_22 - 1",
)

_ZSQ_GL2_GREVLEX = (
    "x1_11*x1_22*t1*x2_21^2*t2 - x1_11*x1_21*t1*x2_21*x2_22*t2 + x1_21*x1_22*t1*x2_21*x2_22*t2 - x1_21^2*t1*x2_22^2*t2 + x1_21^2*t1 - x2_21^2*t2",
    "x1_11*x1_22*t1*x2_11 - x1_11*x1_12*t1*x2_21 + x1_12*x1_22*t1*x2_21 - x1_11*x1_22*t1*x2_22 - x2_11 + x2_22",
    "x1_11*x1_22*t1*x2_12 - x1_12^2*t1*x2_21 - x2_12",
    "x1_12*x2_21^2*t2 - x1_11*x2_21*x2_22*t2 + x1_22*x2_21*x2_22*t2 - x1_21*x2_22^2*t2 + x1_21",
    "x1_12*x1_21*t1 - x1_11*x1_22*t1 + 1",
    "x2_12*x2_21*t2 - x2_11*x2_22*t2 + 1",
    "x1_12*x2_11 - x1_11*x2_12 + x1_22*x2_12 - x1_12*x2_22",
    "x1_21*x2_11 - x1_11*x2_21 + x1_22*x2_21 - x1_21*x2_22",
    "x1_21*x2_12 - x1_12*x2_21",
)

_ZSQ_GL2_LEX = (
    "-x1_12*x1_21*t1 + x1_11*x1_22*t1 - 1",
    "-x1_12*x2_11 + x1_11*x2_12 - x1_22*x2_12 + x1_12*x2_22",
    "-x1_21*x2_11 + x1_11*x2_21 - x1_22*x2_21 + x1_21*x2_22",
    "-x1_12*x1_22*t1*x2_11 + x1_12*x1_21*t1*x2_12 - x1_22^2*t1*x2_12 + x1_12*x1_22*t1*x2_22 + x2_12",
    "-x1_21*x2_12 + x1_12*x2_21",
    "-x1_21*x1_22*t1*x2_11 + x1_21^2*t1*x2_12 - x1_22^2*t1*x2_21 + x1_21*x1_22*t1*x2_22 + x2_21",
    "-x2_12*x2_21*t2 + x2_11*x2_22*t2 - 1",
)

_Z3_SL2_GREVLEX = (
    "x1_11^2 - x1_22^2 + x1_11 - x1_22",
    "x1_11*x1_12 + x1_12*x1_22 + x1_12",
    "x1_11*x1_21 + x1_21*x1_22 + x1_21",
    "x1_12*x1_21 + x1_22^2 - x1_11",
    "x1_11*x1_22 + x1_22^2 - x1_11 - 1",
)


@pytest.mark.parametrize(
    "group, target, order, expected",
    [
        (Z2, "sl:3", "grevlex", _Z2_SL3_GREVLEX),
        (Z2, "sl:3", "lex", _Z2_SL3_LEX),
        (BS12, "sl:2", "grevlex", _BS12_SL2_GREVLEX),
        (ZSQ, "sl:2", "grevlex", _ZSQ_SL2_GREVLEX),
        (ZSQ, "sl:2", "lex", _ZSQ_SL2_LEX),
        (ZSQ, "gl:2", "grevlex", _ZSQ_GL2_GREVLEX),
        (ZSQ, "gl:2", "lex", _ZSQ_GL2_LEX),
        (Z3, "sl:2", "grevlex", _Z3_SL2_GREVLEX),
    ],
    ids=[
        "z2-sl3-grevlex",
        "z2-sl3-lex",
        "bs12-sl2-grevlex",
        "zsq-sl2-grevlex",
        "zsq-sl2-lex",
        "zsq-gl2-grevlex",
        "zsq-gl2-lex",
        "z3-sl2-grevlex",
    ],
)
def test_printed_groebner_basis_is_pinned(group, target, order, expected):
    gb = groebner(rep_ideal(group, make_group(target)).ideal, order)
    assert tuple(str(g) for g in gb.basis) == expected


# The S-polynomials, the pair update and the reductions behind these bases,
# pinned as (pairs, reductions, zero reductions): a rewrite of how an
# S-polynomial is formed must reduce the same pairs in the same order.
@pytest.mark.parametrize(
    "group, target, order, counts",
    [
        (ZSQ, "sl:2", "grevlex", (334, 79, 44)),
        (ZSQ, "sl:2", "lex", (79, 33, 16)),
        (ZSQ, "gl:2", "grevlex", (397, 100, 59)),
        (ZSQ, "gl:2", "lex", (93, 36, 17)),
        (Z2, "sl:3", "grevlex", (732, 120, 67)),
        (Z2, "sl:3", "lex", (888, 242, 181)),
        (Z3, "sl:2", "grevlex", (41, 21, 10)),
        (BS12, "sl:2", "grevlex", (1003, 166, 87)),
    ],
    ids=[
        "zsq-sl2-grevlex",
        "zsq-sl2-lex",
        "zsq-gl2-grevlex",
        "zsq-gl2-lex",
        "z2-sl3-grevlex",
        "z2-sl3-lex",
        "z3-sl2-grevlex",
        "bs12-sl2-grevlex",
    ],
)
def test_groebner_counters_are_pinned(group, target, order, counts):
    stats = groebner(rep_ideal(group, make_group(target)).ideal, order).stats
    assert (stats["pairs"], stats["reductions"], stats["zero_reductions"]) == counts
