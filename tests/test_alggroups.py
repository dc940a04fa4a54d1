"""Presented algebraic groups: structure maps, matrices, cotangent, Lie data."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrep.alggroups import (
    GroupDataError,
    LieDataError,
    LieParseError,
    LiePresentation,
    MissingMatrixShapeError,
    PresentedCommHopf,
    block_ideal_generators,
    block_ring,
    conjugation_substitution,
    cotangent_at_identity,
    evaluate_lie_expr,
    lie_from_constants,
    make_group,
    make_lie,
    matrix_word,
    parse_lie_expr,
    trace_of_word,
)
from hopfrep.groups import (
    FreeWord,
    GroupPresentation,
    GroupTableError,
    WordError,
    make_finite_group,
    parse_word,
)
from hopfrep.polyalg import (
    Ideal,
    Polynomial,
    embed,
    groebner,
    ideal_member,
    parse_polynomial,
)

from conftest import random_free_word


def _matrix_mul(
    a: Sequence[Sequence[Polynomial]], b: Sequence[Sequence[Polynomial]], ring
) -> list[list[Polynomial]]:
    """Reference matrix product of polynomial matrices."""
    size = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(size)), Polynomial.zero(ring))
            for j in range(size)
        ]
        for i in range(size)
    ]


# -- construction ------------------------------------------------------------


def test_sl2_presentation(sl2):
    assert sl2.variables == ("x11", "x12", "x21", "x22")
    (gen,) = sl2.defining_ideal.generators
    assert gen == parse_polynomial("x11*x22 - x12*x21 - 1", sl2.variables)


def test_torus_presentation(torus1):
    (gen,) = torus1.defining_ideal.generators
    assert gen == parse_polynomial("z*t - 1", torus1.variables)
    doubled = ("z'", "t'", "z''", "t''")
    assert torus1.comultiplication[0] == parse_polynomial("z'*z''", doubled)
    assert torus1.antipode[0] == Polynomial.variable(torus1.variables, "t")


def test_gl2_counit_is_identity_point(gl2):
    point = gl2.counit_point()
    assert point["x11"] == point["x22"] == point["t"] == 1
    assert point["x12"] == point["x21"] == 0
    for g in gl2.defining_ideal.generators:
        assert g.evaluate(point) == 0


def test_counit_axiom_legs(sl2, gl2, torus1, additive):
    # collapsing either leg of the coproduct with the counit returns the variable
    for group in (sl2, gl2, torus1, additive):
        point = group.counit_point()
        base = group.variables
        collapse_left = {}
        collapse_right = {}
        for v in base:
            collapse_left[f"{v}'"] = Polynomial.constant(base, point[v])
            collapse_left[f"{v}''"] = Polynomial.variable(base, v)
            collapse_right[f"{v}'"] = Polynomial.variable(base, v)
            collapse_right[f"{v}''"] = Polynomial.constant(base, point[v])
        for v, image in zip(base, group.comultiplication):
            expected = Polynomial.variable(base, v)
            assert image.substitute(collapse_left) == expected
            assert image.substitute(collapse_right) == expected


def test_antipode_is_inverse_matrix(gl2):
    # X * S(X) is the identity modulo the defining ideal, S(X) taken from the antipode map
    antipode_map = dict(zip(gl2.variables, gl2.antipode))
    inverse = [[entry.substitute(antipode_map) for entry in row] for row in gl2.matrix]
    gb = groebner(gl2.defining_ideal)
    product = _matrix_mul(gl2.matrix, inverse, gl2.variables)
    for i in range(2):
        for j in range(2):
            assert ideal_member(product[i][j] - (1 if i == j else 0), gb)


def test_shipped_sizes():
    assert len(make_group("sl:3").variables) == 9
    assert len(make_group("gl:3").variables) == 10
    assert len(make_group("torus:2").variables) == 4
    with pytest.raises(GroupDataError):
        make_group("sl:4")
    with pytest.raises(GroupDataError):
        make_group("mystery:1")


SHIPPED_SPECS = [f"{kind}:{m}" for kind in ("sl", "gl") for m in (1, 2, 3)] + [
    f"torus:{k}" for k in range(1, 9)
] + ["ga"]
SHIPPED_PINS = Path(__file__).parent / "data" / "shipped_targets.json"


def _printed_target(group: PresentedCommHopf) -> dict:
    """Everything a shipped target holds, as printed text."""
    return {
        "name": group.name,
        "variables": list(group.variables),
        "copy_templates": list(group.copy_templates),
        "ideal": [str(g) for g in group.defining_ideal.generators],
        "counit": [str(value) for value in group.counit],
        "comultiplication": [str(p) for p in group.comultiplication],
        "antipode": [str(p) for p in group.antipode],
        "matrix": group.matrix and [[str(p) for p in row] for row in group.matrix],
    }


@pytest.mark.parametrize("spec", SHIPPED_SPECS)
def test_shipped_targets_keep_their_printed_data(spec):
    # Pinned from the hand-built constructors, before the group laws replaced them.
    expected = json.loads(SHIPPED_PINS.read_text())[spec]
    assert _printed_target(make_group(spec)) == expected


# One reader for every spec: a family name, then -?[0-9]+, or an existing JSON path.
MALFORMED_SPECS = [
    (make_group, GroupDataError, "group", "gl:x"),
    (make_group, GroupDataError, "group", "gl:"),
    (make_group, GroupDataError, "group", "sl: 3"),
    (make_group, GroupDataError, "group", "sl:+3"),
    (make_group, GroupDataError, "group", "torus:"),
    (make_finite_group, GroupTableError, "finite group", "cyclic:zz"),
    (make_finite_group, GroupTableError, "finite group", "cyclic: 4"),
    (make_finite_group, GroupTableError, "finite group", "sym:"),
    (make_lie, LieDataError, "Lie", "abelian:q"),
    # '' is no path (not the working directory), int() refuses a k of more
    # than 4,300 digits, and a name can be too long for the file system.
    pytest.param(make_group, GroupDataError, "group", "", id="empty-group"),
    pytest.param(make_finite_group, GroupTableError, "finite group", "", id="empty-finite group"),
    pytest.param(make_lie, LieDataError, "Lie", "", id="empty-Lie"),
    pytest.param(make_group, GroupDataError, "group", "sl:" + "9" * 5000, id="sl:5000-digits"),
    pytest.param(
        make_finite_group, GroupTableError, "finite group", "cyclic:" + "9" * 5000,
        id="cyclic:5000-digits",
    ),
    pytest.param(make_lie, LieDataError, "Lie", "abelian:" + "9" * 5000, id="abelian:5000-digits"),
    pytest.param(make_group, GroupDataError, "group", "x" * 5000, id="5000-character-name"),
]


@pytest.mark.parametrize("make, error, kind, spec", MALFORMED_SPECS)
def test_a_malformed_shipped_spec_is_an_unknown_spec(make, error, kind, spec):
    with pytest.raises(error) as caught:
        make(spec)
    assert str(caught.value) == f"unknown {kind} spec {spec!r}"


def test_a_shipped_object_is_built_once_per_k():
    assert make_group("sl:03") is make_group("sl:3")
    assert make_finite_group("cyclic:04") is make_finite_group("cyclic:4")
    assert make_lie("abelian:02") is make_lie("abelian:2")


@pytest.mark.parametrize(
    "make, error, spec, message",
    [
        (make_group, GroupDataError, "sl:4", "sl(4): only sizes 1..3 ship"),
        (make_group, GroupDataError, "torus:-1", "torus supported for 1 <= k <= 8"),
        (make_lie, LieDataError, "abelian:-1", "abelian Lie algebra supported for 0 <= d <= 8"),
        (make_lie, LieDataError, "abelian:9", "abelian Lie algebra supported for 0 <= d <= 8"),
        (make_finite_group, GroupTableError, "cyclic:0", "cyclic group supported for 1 <= k <= 720"),
        (make_finite_group, GroupTableError, "sym:7", "symmetric group supported for 1 <= k <= 6"),
    ],
)
def test_shipped_caps_keep_their_messages(make, error, spec, message):
    with pytest.raises(error) as caught:
        make(spec)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "presentation, error", [(GroupPresentation, WordError), (LiePresentation, LieParseError)]
)
def test_both_presentation_kinds_share_one_base(presentation, error):
    with pytest.raises(error, match="generator names must be distinct"):
        presentation(("a", "a"))
    with pytest.raises(error, match="generator names must be distinct"):
        presentation.from_json({"generators": ["a", "a"]})
    free = presentation.free(2)
    assert type(free) is presentation
    assert (free.generators, free.relators, free.n_generators) == (("x1", "x2"), (), 2)
    assert type(presentation.from_json({"generators": ["a"]})) is presentation


def test_custom_group_json(tmp_path):
    # multiplicative group written out by hand
    data = {
        "name": "units",
        "variables": ["z", "w"],
        "ideal": ["z*w - 1"],
        "counit": {"z": "1", "w": "1"},
        "delta": {"z": "z'*z''", "w": "w'*w''"},
        "antipode": {"z": "w", "w": "z"},
        "matrix": [["z"]],
        "antipode_matrix": [["w"]],
    }
    path = tmp_path / "units.json"
    path.write_text(json.dumps(data))
    group = make_group(str(path))
    assert len(cotangent_at_identity(group)) == 1

    bad = dict(data, counit={"z": "2", "w": "1"})
    path.write_text(json.dumps(bad))
    with pytest.raises(GroupDataError):
        make_group(str(path))

    bad = dict(data, antipode={"z": "z", "w": "w"}, matrix=[["z"]])
    path.write_text(json.dumps(bad))
    with pytest.raises(GroupDataError):
        make_group(str(path))


def test_custom_group_json_rejects_non_square_matrix(tmp_path):
    data = {
        "variables": ["z", "w"],
        "ideal": ["z*w - 1"],
        "counit": {"z": "1", "w": "1"},
        "delta": {"z": "z'*z''", "w": "w'*w''"},
        "antipode": {"z": "w", "w": "z"},
        "matrix": [["z", "w"]],
    }
    path = tmp_path / "units.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GroupDataError, match="square"):
        make_group(str(path))


def test_custom_group_json_rejects_matrix_that_is_not_a_representation(tmp_path):
    data = {
        "variables": ["z", "w"],
        "ideal": ["z*w - 1"],
        "counit": {"z": "1", "w": "1"},
        "delta": {"z": "z'*z''", "w": "w'*w''"},
        "antipode": {"z": "w", "w": "z"},
    }
    path = tmp_path / "units.json"
    # z + 1 is 2 at the identity; 2*z - 1 is 1 there but not multiplicative
    for matrix, message in (([["z + 1"]], "identity"), ([["2*z - 1"]], "multiplicative")):
        path.write_text(json.dumps(dict(data, matrix=matrix)))
        with pytest.raises(GroupDataError, match=message):
            make_group(str(path))


def _one_variable_group(ideal, delta, antipode, counit):
    ring = ("x",)
    return PresentedCommHopf(
        name="custom",
        variables=ring,
        defining_ideal=Ideal(ring, tuple(parse_polynomial(g, ring) for g in ideal)),
        counit=(Fraction(counit),),
        comultiplication=(parse_polynomial(delta, ("x'", "x''")),),
        antipode=(parse_polynomial(antipode, ring),),
        copy_templates=("x{c}",),
    )


@pytest.mark.parametrize(
    "ideal, delta, antipode, counit, message",
    [
        (["x - 1"], "x'*x''", "x", 2, "counit is not a zero"),
        (["x^2 - 1"], "x'*x''", "x + 1", 1, "antipode does not preserve the ideal"),
        (["x^2 - 1"], "x' + x''", "x", 1, "comultiplication does not preserve the ideal"),
        ([], "x' + x''", "x", 0, "antipode axiom fails at x"),
        # S(x).x = e holds, x.S(x) = -3x does not
        ([], "x' + 2*x''", "-2*x", 0, "antipode axiom fails at x"),
        # both antipode identities hold, e.x = 1 + x does not
        ([], "x' + x''", "1 - x", 1, "counit axiom fails at x"),
        # a loop on the line: identity 0 and inverse -x, but (1.1).2 = 54 and 1.(1.2) = 100
        (
            [], "x' + x'' + x'^2*x'' + x'*x''^2", "-x", 0,
            "comultiplication is not coassociative at x",
        ),
    ],
)
def test_presented_group_is_validated_on_construction(ideal, delta, antipode, counit, message):
    with pytest.raises(GroupDataError, match=message):
        _one_variable_group(ideal, delta, antipode, counit)


def test_presented_group_refuses_a_repeated_variable():
    ring = ("u", "u")
    doubled = ("u'", "u'", "u''", "u''")
    delta = parse_polynomial("u' + u''", doubled)
    with pytest.raises(GroupDataError, match="variable u is repeated"):
        PresentedCommHopf(
            name="custom",
            variables=ring,
            defining_ideal=Ideal(ring, ()),
            counit=(Fraction(0), Fraction(0)),
            comultiplication=(delta, delta),
            antipode=(parse_polynomial("-u", ring),) * 2,
            copy_templates=("u{c}", "u{c}"),
        )


# -- matrix words -------------------------------------------------------------


def test_matrix_word_single_letter(sl2):
    m = matrix_word(FreeWord(1, ((1, 1),)), sl2)
    ring = block_ring(sl2, [1])
    assert m == [
        [Polynomial.variable(ring, "x1_11"), Polynomial.variable(ring, "x1_12")],
        [Polynomial.variable(ring, "x1_21"), Polynomial.variable(ring, "x1_22")],
    ]


def test_matrix_word_inverse_is_adjugate(sl2):
    m = matrix_word(FreeWord(1, ((1, -1),)), sl2)
    ring = block_ring(sl2, [1])
    assert m[0][0] == Polynomial.variable(ring, "x1_22")
    assert m[0][1] == -Polynomial.variable(ring, "x1_12")
    assert m[1][0] == -Polynomial.variable(ring, "x1_21")
    assert m[1][1] == Polynomial.variable(ring, "x1_11")


def test_matrix_word_cancellation_modulo_ideal(sl2):
    # x1 * x1^-1 multiplies out to det * identity, which reduces to identity
    ring = block_ring(sl2, [1])
    gb = groebner(Ideal(ring, tuple(block_ideal_generators(sl2, 1, ring))))
    x = matrix_word(FreeWord(1, ((1, 1),)), sl2)
    xinv = matrix_word(FreeWord(1, ((1, -1),)), sl2)
    product = _matrix_mul(x, xinv, ring)
    for i in range(2):
        for j in range(2):
            assert ideal_member(product[i][j] - (1 if i == j else 0), gb)


def test_matrix_word_empty_word_is_identity(sl2):
    m = matrix_word(FreeWord(2), sl2)
    ring = block_ring(sl2, [1, 2])
    assert m[0][0] == Polynomial.one(ring) and m[0][1] == Polynomial.zero(ring)


@pytest.mark.parametrize("spec", ["sl:2", "gl:2"])
def test_matrix_word_is_multiplicative(spec):
    # splitting a reduced word anywhere (ends included) multiplies the halves' matrices
    group = make_group(spec)
    rng = random.Random(20161008)
    ring = block_ring(group, [1, 2])
    for _ in range(20):
        word = random_free_word(rng, 2, 6)
        for cut in range(len(word.letters) + 1):
            left = FreeWord(2, word.letters[:cut])
            right = FreeWord(2, word.letters[cut:])
            product = _matrix_mul(matrix_word(left, group), matrix_word(right, group), ring)
            assert matrix_word(word, group) == product


def test_matrix_word_requires_shape(additive):
    with pytest.raises(MissingMatrixShapeError):
        matrix_word(FreeWord(1, ((1, 1),)), additive)


# -- traces and conjugation -----------------------------------------------------


def test_trace_examples(sl2):
    ring = block_ring(sl2, [1])
    assert trace_of_word(FreeWord(1, ((1, 1),)), sl2) == parse_polynomial(
        "x1_11 + x1_22", ring
    )
    assert trace_of_word(FreeWord(1), sl2) == Polynomial.constant(ring, 2)
    ring2 = block_ring(sl2, [1, 2])
    expected = parse_polynomial(
        "x1_11*x2_11 + x1_12*x2_21 + x1_21*x2_12 + x1_22*x2_22", ring2
    )
    assert trace_of_word(parse_word("a b", ("a", "b")), sl2) == expected


def test_conjugated_trace_congruent_modulo_conjugator_ideal(sl2):
    p = trace_of_word(FreeWord(1, ((1, 1),)), sl2)
    q = conjugation_substitution(p, sl2)
    extended = q.ring
    conj_gb = groebner(Ideal(extended, tuple(block_ideal_generators(sl2, 0, extended))))
    assert ideal_member(q - embed(p, extended), conj_gb)


def test_conjugated_entry_not_congruent(sl2):
    ring = block_ring(sl2, [1])
    p = Polynomial.variable(ring, "x1_12")
    q = conjugation_substitution(p, sl2)
    extended = q.ring
    conj_gb = groebner(Ideal(extended, tuple(block_ideal_generators(sl2, 0, extended))))
    assert not ideal_member(q - embed(p, extended), conj_gb)


def test_conjugation_rejects_a_polynomial_outside_the_copy_blocks(sl2):
    # The base ring x11..x22 is not the block ring x1_11..x1_22 of copy 1.
    with pytest.raises(GroupDataError, match="does not live in the copy block ring"):
        conjugation_substitution(Polynomial.variable(sl2.variables, "x11"), sl2)


def test_conjugation_fixes_constants(sl2):
    ring = block_ring(sl2, [1])
    one = Polynomial.one(ring)
    assert conjugation_substitution(one, sl2) == Polynomial.one(
        block_ring(sl2, [0, 1])
    )


@pytest.mark.parametrize("spec", ["sl:2", "gl:2", "torus:1"])
def test_conjugation_on_no_copies_lands_in_the_conjugator_ring(spec):
    # No copy gives no image to take a ring from; the constant is embedded.
    group = make_group(spec)
    two = Polynomial.constant(block_ring(group, []), 2)
    assert conjugation_substitution(two, group) == Polynomial.constant(block_ring(group, [0]), 2)


# -- cotangent spaces -------------------------------------------------------------


def test_torus_antipode_inverts_without_matrix_shape():
    torus2 = make_group("torus:2")
    gb = groebner(torus2.defining_ideal)
    for v, image in zip(torus2.variables, torus2.antipode):
        product = Polynomial.variable(torus2.variables, v) * image
        assert ideal_member(product - 1, gb)


def test_cotangent_dimensions(sl2, gl2, torus1, additive):
    assert len(cotangent_at_identity(sl2)) == 3
    assert len(cotangent_at_identity(gl2)) == 4
    assert len(cotangent_at_identity(torus1)) == 1
    assert len(cotangent_at_identity(additive)) == 1
    assert len(cotangent_at_identity(make_group("sl:3"))) == 8
    assert len(cotangent_at_identity(make_group("gl:3"))) == 9


def test_cotangent_linear_part_sl2(sl2):
    # the only generator linearizes to x11 + x22, whose kernel is sl(2)
    assert cotangent_at_identity(sl2) == [[0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 1]]


# -- Lie algebras ------------------------------------------------------------------


def test_abelian_lie():
    lie = make_lie("abelian:2")
    assert lie.dimension == 2
    assert all(c == 0 for plane in lie.constants for row in plane for c in row)


def test_shipped_lie_algebras_are_built_once_and_capped():
    assert make_lie("sl2") is make_lie("sl2")
    assert make_lie("abelian:3") is make_lie("abelian:3")
    assert make_lie("abelian:0").dimension == 0
    for spec in ("abelian:-1", "abelian:9"):
        with pytest.raises(LieDataError, match="0 <= d <= 8"):
            make_lie(spec)


def test_sl2_brackets(sl2_lie):
    ring = ("s",)
    one = Polynomial.one(ring)
    zero = Polynomial.zero(ring)
    e = [one, zero, zero]
    f = [zero, one, zero]
    h = [zero, zero, one]
    assert sl2_lie.bracket_coords(h, e, ring) == [one * 2, zero, zero]
    assert sl2_lie.bracket_coords(h, f, ring) == [zero, one * -2, zero]
    assert sl2_lie.bracket_coords(e, f, ring) == [zero, zero, one]


def test_lie_validation_errors():
    with pytest.raises(LieDataError, match=r"^antisymmetry fails at c\[0\]\[0\]\[1\]$"):
        lie_from_constants([[[0, 1], [0, 0]], [[0, 0], [0, 0]]])  # not antisymmetric
    # antisymmetric but failing Jacobi: [e1,e2]=e2, [e2,e3]=e1, [e3,e1]=0
    # gives [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = [e2,e3] = e1
    constants = [
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, -1, 0], [0, 0, 0], [1, 0, 0]],
        [[0, 0, 0], [-1, 0, 0], [0, 0, 0]],
    ]
    with pytest.raises(LieDataError, match=r"^Jacobi identity fails at \(0,1,2\) component 0$"):
        lie_from_constants(constants)


def _first_lie_failure(c) -> str | None:
    """Reference oracle: antisymmetry, then the Jacobi identity, entry by entry in index order."""
    d = len(c)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if c[i][j][k] != -c[j][i][k]:
                    return f"antisymmetry fails at c[{i}][{j}][{k}]"
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    total = Fraction(0)
                    for m in range(d):
                        total += (
                            c[i][j][m] * c[m][k][l]
                            + c[j][k][m] * c[m][i][l]
                            + c[k][i][m] * c[m][j][l]
                        )
                    if total != 0:
                        return f"Jacobi identity fails at ({i},{j},{k}) component {l}"
    return None


def _lie_verdict(constants) -> str | None:
    try:
        lie_from_constants(constants)
    except LieDataError as err:
        return str(err)
    return None


@st.composite
def _lie_tables(draw):
    """A d x d x d table, d <= 5, mostly zeros; half of them made antisymmetric."""
    d = draw(st.integers(0, 5))
    entry = st.sampled_from((0, 0, 0, 0, 0, 0, 1, -1, 2, Fraction(1, 2)))
    c = [[[draw(entry) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    if draw(st.booleans()):
        for i in range(d):
            c[i][i] = [0] * d
            for j in range(i):
                c[i][j] = [-x for x in c[j][i]]
    return c


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lie_tables())
def test_lie_validation_agrees_with_the_index_loops(constants):
    assert _lie_verdict(constants) == _first_lie_failure(constants)


def _gl(n: int) -> list:
    """gl(n) on the matrix units E_ij (index n*i + j): [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    c = [[[0] * n * n for _ in range(n * n)] for _ in range(n * n)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        c[n * i + j][n * k + l][n * i + l] += j == k
        c[n * i + j][n * k + l][n * k + j] -= l == i
    return c


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gl_tables_are_lie_algebras(n):
    assert lie_from_constants(_gl(n)).dimension == n * n


def test_a_changed_gl3_table_is_refused_like_the_index_loops():
    once = _gl(3)
    once[4][2][5] += 1
    pair = _gl(3)
    pair[1][3][0], pair[3][1][0] = 2, -2  # still antisymmetric: [E_01, E_10] = 2 E_00 - E_11
    for constants in (once, pair):
        expected = _first_lie_failure(constants)
        assert expected is not None and _lie_verdict(constants) == expected


def test_lie_basis_must_name_each_element_once():
    constants = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    assert lie_from_constants(constants, ["e", "f", "h"]).basis == ("e", "f", "h")
    with pytest.raises(LieDataError, match="^basis must have 3 names, not 1$"):
        lie_from_constants(constants, ["e"])
    with pytest.raises(LieDataError, match="^basis must have 3 names, not 4$"):
        lie_from_constants(constants, ["a", "b", "c", "d"])
    with pytest.raises(LieDataError, match="^basis repeats 'e'$"):
        lie_from_constants(constants, ["e", "f", "e"])


def test_lie_expr_parsing_and_evaluation(sl2_lie):
    names = ("a", "b")
    expr = parse_lie_expr("[a,[a,b]] - 2*b", names)
    ring = ("c",)
    one = Polynomial.one(ring)
    zero = Polynomial.zero(ring)
    assignment = {"a": [zero, zero, one], "b": [one, zero, zero]}  # a = h, b = e
    value = evaluate_lie_expr(expr, assignment, sl2_lie, ring)
    # [h,[h,e]] - 2e = [h, 2e] - 2e = 4e - 2e = 2e
    assert value == [one * 2, zero, zero]
    # a juxtaposed coefficient scales like ``*``: -3h + [e, -h] = -3h + 2e
    expr = parse_lie_expr("-3 a + [b, -a]", names)
    assert evaluate_lie_expr(expr, assignment, sl2_lie, ring) == [one * 2, zero, one * -3]
    for bad in ("[a,b", "q", "3 ", "1/0 a", "(3)*a", "a * 2", "--a", "[a,b,a]"):
        with pytest.raises(LieParseError):
            parse_lie_expr(bad, names)


def test_lie_errors_name_their_column():
    names = ("a", "b")
    with pytest.raises(LieParseError) as err:
        parse_lie_expr("[a,,b]", names)
    assert err.value.column == 4
    assert str(err.value) == "column 4: unexpected ','"
    for text, message in (
        ("[a, q]", "column 5: unknown generator 'q'"),
        ("a + 1/0 b", "column 5: zero denominator in '1/0'"),
        ("a $ b", "column 3: unexpected character '$'"),
        ("[a, b", "column 3: unclosed ','"),
        ("a * 2", "column 3: '*' must follow a coefficient"),
        ("- 3", "column 3: a coefficient alone is not an element"),
    ):
        with pytest.raises(LieParseError) as err:
            parse_lie_expr(text, names)
        assert str(err.value) == message


def test_lie_relators_skip_any_whitespace():
    names = ("a", "b")
    assert parse_lie_expr("[a,\t[a, b]]\n- 2 *\rb", names) == parse_lie_expr("[a,[a,b]]-2*b", names)


def test_a_prefix_plus_changes_no_lie_relator():
    names = ("a", "b")
    assert parse_lie_expr("+[a,b]", names) == parse_lie_expr("[a,b]", names)
    assert parse_lie_expr("[+a, (+b)] - 2*a", names) == parse_lie_expr("[a,b] - 2*a", names)


def test_lie_presentation_json(tmp_path):
    path = tmp_path / "ab2.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "relators": ["[a,b]"]}))
    pres = LiePresentation.from_json(path)
    assert pres.n_generators == 2
    assert len(pres.relators) == 1
