"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact (rational arithmetic throughout) and carries
its wall-clock budget as an assertion.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import time
from fractions import Fraction

from conftest import random_free_word, random_hmorphism, random_term

from hopfrep.alggroups import (
    LiePresentation,
    block_ring,
    cotangent_at_identity,
    make_group,
    make_lie,
    parse_lie_expr,
)
from hopfrep.cli import run
from hopfrep.groups import (
    FreeWord,
    GroupPresentation,
    evaluate_word,
    parse_word,
    symmetric_group,
)
from hopfrep.polyalg import Polynomial, groebner, ideal_member
from hopfrep.prop_h import (
    GroupAlgebraModel,
    HMorphism,
    TensorAlgebraModel,
    compose_h,
    eval_term,
    group_model_tuple_action,
    hopf_action,
    multilinear_part,
    reduce_word,
    tensor_h,
    verify_axioms,
)
from hopfrep.repvariety import (
    check_observable_invariance,
    check_trace_invariance,
    finite_rep_algebra,
    lie_rep_ideal,
    rep_ideal,
)


def _report(number: int, description: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number:>2} PASS ({elapsed:.2f}s / budget {budget:.0f}s): {description}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_axiom_suite():
    started = time.time()
    checks = verify_axioms()
    assert len(checks) == 10
    for check in checks:
        assert check.holds, f"axiom {check.number} ({check.name}) fails"
        assert all(side == check.sides[0] for side in check.sides)
    _report(1, "all ten Hopf identities hold as exact normal-form equalities", started, 1.0)


def test_criterion_02_model_soundness():
    started = time.time()
    s3 = symmetric_group(3)
    model = GroupAlgebraModel(s3)
    rng = random.Random(2024)
    for _ in range(100):
        term, width = random_term(rng)
        morphism = eval_term(term)
        inputs = [rng.randrange(s3.order) for _ in range(width)]
        structural = hopf_action(morphism, model, inputs)
        direct = {group_model_tuple_action(morphism, s3, inputs): Fraction(1)}
        assert structural == direct
    _report(2, "100 random composites act on the group algebra exactly as word substitution", started, 5.0)


def test_criterion_03_composition_law():
    started = time.time()
    rng = random.Random(777)
    for _ in range(200):
        a, b, c, d = (rng.randint(0, 4) for _ in range(4))
        f = random_hmorphism(rng, a, b, max_len=6)
        g = random_hmorphism(rng, b, c, max_len=6)
        h = random_hmorphism(rng, c, d, max_len=6)
        assert compose_h(compose_h(f, g), h) == compose_h(f, compose_h(g, h))
        a2, b2, c2 = (rng.randint(0, 4) for _ in range(3))
        f2 = random_hmorphism(rng, a2, b2, max_len=6)
        g2 = random_hmorphism(rng, b2, c2, max_len=6)
        assert tensor_h(compose_h(f, g), compose_h(f2, g2)) == compose_h(
            tensor_h(f, f2), tensor_h(g, g2)
        )
    _report(3, "200 random composites: associativity and the interchange law, exactly", started, 5.0)


def _all_reduced_words(rank: int, max_len: int):
    alphabet = [(i, e) for i in range(1, rank + 1) for e in (1, -1)]
    for length in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            word = FreeWord(rank, letters)
            if len(word.letters) == length:
                yield word


def _check_reduction(word: FreeWord, rank: int) -> None:
    model = TensorAlgebraModel(max(rank, 1), max(rank, 1))
    generators = [model.generator(i) for i in range(1, rank + 1)]
    reduced = reduce_word(word)
    oracle = multilinear_part(
        hopf_action(HMorphism(rank, 1, (word,)), model, generators), rank
    )
    assert reduced == oracle
    for morphism in reduced:
        letters = morphism.words[0].letters
        assert sorted(i for i, _ in letters) == list(range(1, rank + 1))
        assert all(e == 1 for _, e in letters)


def test_criterion_04_multilinear_reduction():
    started = time.time()
    total = 0
    for rank in (1, 2, 3):
        for word in _all_reduced_words(rank, 4):
            _check_reduction(word, rank)
            total += 1
    rng = random.Random(404)
    for _ in range(50):
        rank = rng.randint(1, 3)
        word = random_free_word(rng, rank, 8)
        _check_reduction(word, rank)
        total += 1
    _report(
        4,
        f"reduction of {total} words matches the tensor-algebra multilinear component, "
        "and is permutation-supported",
        started,
        30.0,
    )


def test_criterion_05_free_case():
    started = time.time()
    for spec in ("sl:2", "gl:2", "torus:1"):
        target = make_group(spec)
        for n in (0, 1, 2, 3):
            presentation = rep_ideal(GroupPresentation.free(n), target)
            expected = []
            for copy in range(1, n + 1):
                mapping = {
                    v: template.format(c=copy)
                    for v, template in zip(target.variables, target.copy_templates)
                }
                for g in target.defining_ideal.generators:
                    expected.append(g.rename(presentation.ring, mapping))
            assert list(presentation.ideal.generators) == expected
            assert all(tag.startswith("copy_ideal:") for tag in presentation.provenance)
    _report(5, "free groups into SL(2), GL(2), torus(1) give exactly the copied ideals", started, 5.0)


def test_criterion_06_relator_case():
    started = time.time()
    sl2 = make_group("sl:2")
    zsq = GroupPresentation(("a", "b"), (parse_word("a b a^-1 b^-1", ("a", "b")),))
    presentation = rep_ideal(zsq, sl2)

    diagonal = {}
    for block, (top, bottom) in ((1, (2, Fraction(1, 2))), (2, (3, Fraction(1, 3)))):
        diagonal.update(
            {
                f"x{block}_11": Fraction(top),
                f"x{block}_12": Fraction(0),
                f"x{block}_21": Fraction(0),
                f"x{block}_22": Fraction(bottom),
            }
        )
    assert presentation.satisfies(diagonal)

    unipotent = {
        "x1_11": Fraction(1), "x1_12": Fraction(1), "x1_21": Fraction(0), "x1_22": Fraction(1),
        "x2_11": Fraction(1), "x2_12": Fraction(0), "x2_21": Fraction(1), "x2_22": Fraction(1),
    }
    assert not presentation.satisfies(unipotent)

    torus = make_group("torus:1")
    z2 = GroupPresentation(("a",), (parse_word("a^2", ("a",)),))
    torus_presentation = rep_ideal(z2, torus)
    basis = groebner(torus_presentation.ideal)
    z1 = Polynomial.variable(torus_presentation.ring, "z1")
    assert ideal_member(z1**2 - 1, basis)
    _report(
        6,
        "commuting-pair ideal separates the stated points; torus relator ideal reduces "
        "the square relation to zero",
        started,
        60.0,
    )


def test_criterion_07_finite_targets():
    started = time.time()
    s3 = symmetric_group(3)
    z2 = GroupPresentation(("a",), (parse_word("a^2", ("a",)),))
    z3 = GroupPresentation(("a",), (parse_word("a^3", ("a",)),))
    f2 = GroupPresentation.free(2)
    points = {
        "Z/2": finite_rep_algebra(z2, s3),
        "Z/3": finite_rep_algebra(z3, s3),
        "F2": finite_rep_algebra(f2, s3),
    }
    assert len(points["Z/2"]) == 4
    assert len(points["Z/3"]) == 3
    assert len(points["F2"]) == 36

    # The coordinate ring is k^points: its delta functions are orthogonal
    # idempotents summing to 1 exactly when the points are distinct.
    for source, name in ((z2, "Z/2"), (z3, "Z/3"), (f2, "F2")):
        assert len(set(points[name])) == len(points[name])
        for images in points[name]:
            assert all(evaluate_word(r, images, s3) == s3.identity for r in source.relators)
    _report(7, "representation counts 4 / 3 / 36; distinct points killing every relator", started, 5.0)


def test_criterion_08_lie_case():
    started = time.time()
    sl2_lie = make_lie("sl2")
    free_presentation = lie_rep_ideal(LiePresentation.free(2), sl2_lie)
    assert free_presentation.ideal.generators == ()
    assert len(free_presentation.ring) == 6

    abelian = LiePresentation(("a", "b"), (parse_lie_expr("[a,b]", ("a", "b")),))
    presentation = lie_rep_ideal(abelian, sl2_lie)
    assert len(presentation.ideal.generators) == 3
    assert all(g.total_degree() == 2 for g in presentation.ideal.generators)
    x_e_y_h = {
        "y1_1": Fraction(1), "y1_2": Fraction(0), "y1_3": Fraction(0),
        "y2_1": Fraction(0), "y2_2": Fraction(0), "y2_3": Fraction(1),
    }
    x_e_y_e = {
        "y1_1": Fraction(1), "y1_2": Fraction(0), "y1_3": Fraction(0),
        "y2_1": Fraction(1), "y2_2": Fraction(0), "y2_3": Fraction(0),
    }
    assert not presentation.satisfies(x_e_y_h)
    assert presentation.satisfies(x_e_y_e)

    assert len(cotangent_at_identity(make_group("sl:2"))) == 3
    assert len(cotangent_at_identity(make_group("gl:2"))) == 4
    assert len(cotangent_at_identity(make_group("torus:1"))) == 1
    _report(
        8,
        "free Lie source gives the zero ideal on 6 coordinates, the abelian pair the 3 "
        "bracket quadrics, and tangent dimensions are 3 / 4 / 1",
        started,
        10.0,
    )


def test_criterion_09_trace_invariance():
    started = time.time()
    sl2 = make_group("sl:2")
    f2 = GroupPresentation.free(2)
    names = ("a", "b")
    for text in ("a", "b", "a b", "a b a^-1 b"):
        assert check_trace_invariance(parse_word(text, names), f2, sl2), text
    entry = Polynomial.variable(block_ring(sl2, [1, 2]), "x1_12")
    assert not check_observable_invariance(entry, f2, sl2)
    _report(
        9,
        "tr(X1), tr(X2), tr(X1 X2), tr(X1 X2 X1^-1 X2) are conjugation-invariant; the "
        "bare entry x1_12 is not",
        started,
        60.0,
    )


def test_criterion_10_cli_determinism(tmp_path):
    started = time.time()
    z2 = tmp_path / "z2.json"
    z2.write_text(json.dumps({"generators": ["a"], "relators": ["a^2"]}))
    f2 = tmp_path / "f2.json"
    f2.write_text(json.dumps({"generators": ["a", "b"], "relators": []}))
    lie = tmp_path / "ab2.json"
    lie.write_text(json.dumps({"generators": ["a", "b"], "relators": ["[a,b]"]}))

    commands = [
        ("axioms",),
        ("--format", "json", "axioms"),
        ("normalize", "--term", "mu . (id:1 * S) . delta"),
        ("reduce", "--n", "3", "--word", "x1 x2 x3 x1^-1"),
        ("rep-ideal", "--group", str(z2), "--target", "torus:1", "--groebner"),
        ("--format", "json", "rep-ideal", "--group", str(f2), "--target", "sl:2"),
        ("lie-rep-ideal", "--source", str(lie), "--target", "sl2"),
        ("rep-count", "--group", str(z2), "--finite", "sym:3"),
        ("--format", "json", "rep-count", "--group", str(z2), "--finite", "sym:3"),
        ("cotangent", "--target", "gl:2"),
        ("invariance", "--word", "a b", "--group", str(f2), "--target", "sl:2"),
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            code = run(list(argv), out=out, err=err)
            runs.append((code, out.getvalue().encode(), err.getvalue().encode()))
        assert runs[0] == runs[1], argv
        assert runs[0][0] == 0, argv
    _report(10, "every CLI subcommand is byte-identical across consecutive runs", started, 60.0)
