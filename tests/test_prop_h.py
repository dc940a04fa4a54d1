"""Morphism normal forms, the axiom suite, models, multilinear reduction."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest
from conftest import random_hmorphism, random_term

from hopfrep.groups import FreeWord, parse_word
from hopfrep.prop_h import (
    ArityError,
    BasisLabelError,
    Compose,
    Gen,
    GroupAlgebraModel,
    HMorphism,
    Id,
    LinHom,
    Tensor,
    TensorAlgebraModel,
    TermSyntaxError,
    compose_h,
    eval_term,
    format_hmorphism,
    format_linhom,
    generator_morphism,
    group_model_tuple_action,
    hopf_action,
    identity_morphism,
    multilinear_part,
    multilinear_reduce,
    parse_term,
    reduce_word,
    tensor_h,
    verify_axioms,
)


def word(text, rank):
    return parse_word(text, [f"x{i}" for i in range(1, rank + 1)])


def single(text, rank):
    return HMorphism(rank, 1, (word(text, rank),))


# -- generators and composition ----------------------------------------------


def test_generator_tuples():
    assert generator_morphism("mu") == single("x1 x2", 2)
    assert generator_morphism("delta") == HMorphism(
        1, 2, (word("x1", 1), word("x1", 1))
    )
    assert generator_morphism("antipode") == single("x1^-1", 1)
    assert generator_morphism("eta") == HMorphism(0, 1, (FreeWord(0),))
    assert generator_morphism("epsilon") == HMorphism(1, 0, ())
    assert generator_morphism("tau") == HMorphism(2, 2, (word("x2", 2), word("x1", 2)))


def test_generator_arities_and_unknown_names():
    expected = {
        "mu": (2, 1),
        "delta": (1, 2),
        "antipode": (1, 1),
        "eta": (0, 1),
        "epsilon": (1, 0),
        "tau": (2, 2),
    }
    for name, arity in expected.items():
        assert Gen(name).arity() == arity
        morphism = generator_morphism(name)
        assert (morphism.dom, morphism.cod) == arity
    for name in ("nu", "S", "eps"):
        with pytest.raises(ValueError, match="unknown generator"):
            generator_morphism(name)
        with pytest.raises(ValueError, match="unknown generator"):
            Gen(name)


def test_term_arity_is_the_normal_form_arity():
    assert Tensor(Gen("mu"), Compose(Gen("delta"), Id(1))).arity() == (3, 3)
    rng = random.Random(29)
    for _ in range(200):
        term, _ = random_term(rng)
        morphism = eval_term(term)
        assert term.arity() == (morphism.dom, morphism.cod)
    # Deeper than the interpreter's recursion limit: building and typing walk no recursion.
    term = Id(1)
    for _ in range(5000):
        term = Compose(Gen("antipode"), term)
    assert term.arity() == (1, 1)


def test_term_arity_evaluates_nothing(monkeypatch):
    from hopfrep import prop_h

    term = parse_term("(mu * id:2) . (delta * tau) . (id:1 * eta * S)")

    def refuse(*args):
        raise AssertionError("arity evaluated the term")

    for name in ("eval_term", "compose_h", "identity_morphism"):
        monkeypatch.setattr(prop_h, name, refuse)
    assert term.arity() == (2, 3)


def test_an_ill_typed_term_cannot_be_built():
    with pytest.raises(ArityError, match=re.escape("cannot compose [2]->[1] with [2]->[1]")):
        Compose(Gen("mu"), Gen("mu"))
    with pytest.raises(ArityError, match="a tensor of width 1000001 is more than 1000000"):
        Tensor(Id(10**6), Id(1))
    # A type fault is met as the term is built, before a later unknown symbol is read.
    with pytest.raises(ArityError, match=re.escape("cannot compose [2]->[1] with [2]->[1]")):
        parse_term("(mu . mu) * foo")


def _public_identity(n):
    return HMorphism(n, n, tuple(FreeWord(n, ((i, 1),)) for i in range(1, n + 1)))


def _public_inverse(w):
    return FreeWord(w.rank, tuple((i, -e) for i, e in reversed(w.letters)))


def _public_substitute(w, images, rank):
    letters = []
    for i, e in w.letters:
        letters += (images[i - 1] if e == 1 else _public_inverse(images[i - 1])).letters
    return FreeWord(rank, tuple(letters))


def _public_compose(f, g):
    return HMorphism(f.dom, g.cod, tuple(_public_substitute(w, f.words, f.dom) for w in g.words))


def _public_tensor(f, g):
    dom = f.dom + g.dom
    shifted = [tuple((i + f.dom, e) for i, e in w.letters) for w in g.words]
    words = [FreeWord(dom, w.letters) for w in f.words] + [FreeWord(dom, x) for x in shifted]
    return HMorphism(dom, f.cod + g.cod, tuple(words))


def _public_eval(term):
    """`eval_term` spelled out with the validating constructors only."""
    if isinstance(term, Gen):
        return generator_morphism(term.name)
    if isinstance(term, Id):
        return _public_identity(term.width)
    if isinstance(term, Compose):
        return _public_compose(_public_eval(term.inner), _public_eval(term.outer))
    return _public_tensor(_public_eval(term.left), _public_eval(term.right))


def _assert_valid_word(w, rank):
    """The invariants `FreeWord(...)` enforces: rank, indices, exponents, free reduction."""
    assert type(w) is FreeWord and w.rank == rank and type(w.letters) is tuple
    assert all(type(x) is tuple and 1 <= x[0] <= rank and x[1] in (1, -1) for x in w.letters)
    assert all(a != (b[0], -b[1]) for a, b in zip(w.letters, w.letters[1:]))


def _assert_valid_morphism(h):
    """The invariants `HMorphism(...)` enforces, on every word."""
    assert type(h) is HMorphism and h.dom >= 0 and h.cod >= 0
    assert type(h.words) is tuple and len(h.words) == h.cod
    for w in h.words:
        _assert_valid_word(w, h.dom)


def test_results_built_by_construction_equal_the_validated_ones():
    rng = random.Random(19)
    for _ in range(200):
        term, _ = random_term(rng)
        got, expected = eval_term(term), _public_eval(term)
        _assert_valid_morphism(got)
        assert got == expected and hash(got) == hash(expected)

        a, b, c = (rng.randint(0, 4) for _ in range(3))
        f, g = random_hmorphism(rng, a, b, 8), random_hmorphism(rng, b, c, 8)
        h = random_hmorphism(rng, rng.randint(0, 4), rng.randint(0, 4), 8)
        for got, expected in [
            (compose_h(f, g), _public_compose(f, g)),
            (tensor_h(f, h), _public_tensor(f, h)),
            (tensor_h(h, g), _public_tensor(h, g)),
            (identity_morphism(a), _public_identity(a)),
        ]:
            _assert_valid_morphism(got)
            assert got == expected and hash(got) == hash(expected)

        k = random_hmorphism(rng, rng.randint(0, 4), a, 8)  # images for f's words
        for w, images in [(w, f) for w in g.words] + [(w, k) for w in f.words]:
            _assert_valid_word(w.inverse(), w.rank)
            assert w.inverse() == _public_inverse(w)
            got = w.substitute(images.words, rank=images.dom)
            _assert_valid_word(got, images.dom)
            assert got == _public_substitute(w, images.words, images.dom)


def test_compose_delta_mu():
    assert compose_h(generator_morphism("delta"), generator_morphism("mu")) == single(
        "x1^2", 1
    )


def test_compose_identity_laws():
    rng = random.Random(3)
    for _ in range(30):
        f = random_hmorphism(rng, rng.randint(0, 3), rng.randint(0, 3))
        assert compose_h(f, identity_morphism(f.cod)) == f
        assert compose_h(identity_morphism(f.dom), f) == f


def test_compose_arity_mismatch():
    with pytest.raises(ArityError):
        compose_h(generator_morphism("mu"), generator_morphism("mu"))


def test_tensor_examples():
    assert tensor_h(identity_morphism(1), identity_morphism(1)) == identity_morphism(2)
    assert tensor_h(generator_morphism("mu"), generator_morphism("eta")) == HMorphism(
        2, 2, (word("x1 x2", 2), FreeWord(2))
    )
    s = generator_morphism("antipode")
    assert tensor_h(s, s) == HMorphism(2, 2, (word("x1^-1", 2), word("x2^-1", 2)))


def test_interchange_law():
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = (rng.randint(0, 3) for _ in range(3))
        a2, b2, c2 = (rng.randint(0, 3) for _ in range(3))
        f = random_hmorphism(rng, a, b)
        g = random_hmorphism(rng, b, c)
        f2 = random_hmorphism(rng, a2, b2)
        g2 = random_hmorphism(rng, b2, c2)
        assert tensor_h(compose_h(f, g), compose_h(f2, g2)) == compose_h(
            tensor_h(f, f2), tensor_h(g, g2)
        )


# -- terms ---------------------------------------------------------------------


def test_eval_associativity_both_sides():
    lhs = parse_term("mu . (mu * id:1)")
    rhs = parse_term("mu . (id:1 * mu)")
    assert eval_term(lhs) == eval_term(rhs) == single("x1 x2 x3", 3)


def test_eval_cocommutativity():
    assert eval_term(parse_term("tau . delta")) == eval_term(parse_term("delta"))


def test_eval_bialgebra_compatibility():
    lhs = parse_term("delta . mu")
    rhs = parse_term("(mu * mu) . (id:1 * tau * id:1) . (delta * delta)")
    expected = HMorphism(2, 2, (word("x1 x2", 2), word("x1 x2", 2)))
    assert eval_term(lhs) == eval_term(rhs) == expected


def test_parse_term_errors():
    with pytest.raises(TermSyntaxError):
        parse_term("mu . (")
    with pytest.raises(TermSyntaxError):
        parse_term("bogus")
    with pytest.raises(TermSyntaxError):
        parse_term("")
    with pytest.raises(ArityError):
        eval_term(parse_term("mu . mu"))


def test_eval_term_bounds_the_evaluated_width(monkeypatch):
    from hopfrep import prop_h

    monkeypatch.setattr(prop_h, "SIZE_LIMIT", 4)
    assert eval_term(parse_term("id:2 * id:2")).dom == 4
    assert eval_term(parse_term("(eps * eps * eps * eps) . (eta * id:3)")).dom == 3
    for term, width in (("id:3 * id:2", 5), ("delta * delta * delta", 6), ("mu * mu * mu", 6)):
        with pytest.raises(ArityError, match=f"a tensor of width {width} is more than 4"):
            parse_term(term)
    with pytest.raises(ArityError, match="identity width 5 is more than 4"):
        Id(5)


def test_a_term_too_wide_builds_no_identity(monkeypatch):
    from hopfrep import prop_h

    def refuse(n):
        raise AssertionError(f"id:{n} was built")

    monkeypatch.setattr(prop_h, "identity_morphism", refuse)
    with pytest.raises(ArityError, match="a tensor of width 2000000 is more than 1000000"):
        parse_term("id:1000000 * id:1000000 * id:1000000 * id:1000000")
    # The same check runs where the width is given by generators around an identity.
    with pytest.raises(ArityError, match="a tensor of width 1000002 is more than 1000000"):
        parse_term("(mu * id:1000000) . (delta * id:1000000)")
    # A term both ill-typed and too wide names the first fault met while it is built.
    message = re.escape("cannot compose [1000000]->[1000000] with [2]->[1]")
    with pytest.raises(ArityError, match=message):
        parse_term("(mu . id:1000000) * id:1000000")


def test_identity_morphism_words_are_the_generators():
    for n in (0, 1, 3):
        generators = tuple(FreeWord.generator(n, i) for i in range(1, n + 1))
        assert FreeWord.generators(n) == generators
        assert identity_morphism(n).words == generators


def test_term_errors_name_their_column():
    with pytest.raises(TermSyntaxError) as err:
        parse_term("mu . )")
    assert err.value.column == 6
    assert str(err.value) == "column 6: unexpected ')'"
    with pytest.raises(TermSyntaxError, match="column 8: unexpected character '#'"):
        parse_term("mu\t. (\n#")
    with pytest.raises(TermSyntaxError, match="column 9: unexpected end of input"):
        parse_term("mu . S .  ")
    with pytest.raises(TermSyntaxError, match="column 6: unknown symbol 'nu'"):
        parse_term("mu . nu")


def test_term_formatting_example():
    assert format_hmorphism(eval_term(parse_term("mu . tau"))) == "[2]->[1]: (x2 x1)"
    assert (
        format_hmorphism(eval_term(parse_term("eta . eps"))) == "[1]->[1]: (e)"
    )


# -- axiom suite ----------------------------------------------------------------


def test_all_axioms_hold():
    checks = verify_axioms()
    assert len(checks) == 10
    assert all(c.holds for c in checks)


def test_axiom_terms_are_built_once(monkeypatch):
    def refuse(self):
        raise AssertionError("an axiom term was built again")

    monkeypatch.setattr(Compose, "__post_init__", refuse)
    checks = verify_axioms()
    assert len(checks) == 10
    assert all(c.holds for c in checks)


def test_axiom_normal_forms():
    checks = {c.number: c for c in verify_axioms()}
    # antipode axiom sides all equal eta . eps
    assert checks[6].sides[0] == single("e", 1)
    # antipode-comultiplication compatibility: both sides (x1^-1, x1^-1)
    assert checks[7].sides[0] == HMorphism(1, 2, (word("x1^-1", 1), word("x1^-1", 1)))
    # involutive antipode: identity
    assert checks[10].sides[0] == identity_morphism(1)


# -- models ----------------------------------------------------------------------


def test_group_model_matches_word_semantics(s3):
    model = GroupAlgebraModel(s3)
    rng = random.Random(17)
    for _ in range(40):
        term, width = random_term(rng)
        morphism = eval_term(term)
        inputs = [rng.randrange(s3.order) for _ in range(width)]
        acted = hopf_action(morphism, model, inputs)
        expected = {group_model_tuple_action(morphism, s3, inputs): Fraction(1)}
        assert acted == expected


def test_group_model_mu_example(s3):
    model = GroupAlgebraModel(s3)
    a = s3.names.index("(1 2)")
    b = s3.names.index("(0 2)")
    acted = hopf_action(generator_morphism("mu"), model, [a, b])
    assert acted == {(s3.mul(a, b),): Fraction(1)}
    ab = s3.mul(a, b)
    assert ab != s3.identity and s3.mul(ab, s3.mul(ab, ab)) == s3.identity


def test_epsilon_action_is_counit_scalar(s3):
    model = GroupAlgebraModel(s3)
    acted = hopf_action(generator_morphism("epsilon"), model, [4])
    assert acted == {(): Fraction(1)}
    tensor = TensorAlgebraModel(1, 1)
    assert hopf_action(generator_morphism("epsilon"), tensor, [tensor.generator(1)]) == {}


def test_tensor_model_square_word():
    model = TensorAlgebraModel(1, 2)
    acted = hopf_action(single("x1^2", 1), model, [model.generator(1)])
    assert acted == {((1,),): Fraction(2)}
    assert multilinear_part(acted, 1) == {single("x1", 1): Fraction(2)}


def test_hopf_action_arity_check(s3):
    with pytest.raises(ArityError):
        hopf_action(generator_morphism("mu"), GroupAlgebraModel(s3), [0])


def test_hopf_action_refuses_labels_outside_the_model(s3):
    # Python's negative indexing once read -1 as the last group element.
    mu = generator_morphism("mu")
    for labels in ([-1, 0], [0, 6], [0, True], [{0: 1, 2.0: 1}, 0]):
        with pytest.raises(BasisLabelError):
            hopf_action(mu, GroupAlgebraModel(s3), labels)
    model = TensorAlgebraModel(2, 2)
    for word in [(5,), (0,), (1, 1, 1), ("1",), 1]:
        with pytest.raises(BasisLabelError):
            hopf_action(mu, model, [{word: Fraction(1)}, model.generator(1)])
    assert hopf_action(mu, model, [model.generator(2), {(): Fraction(1), (1, 2): 3}]) == {
        ((2,),): Fraction(1)
    }


def test_hopf_action_skips_a_zero_coefficient_input():
    # A zero coefficient is spread like any other and its products dropped.
    model = TensorAlgebraModel(2, 2)
    mu, zero = generator_morphism("mu"), {(1,): Fraction(0), (2,): Fraction(1)}
    assert hopf_action(identity_morphism(1), model, [zero]) == {((2,),): Fraction(1)}
    assert hopf_action(mu, model, [zero, model.generator(1)]) == {((2, 1),): Fraction(1)}


def test_delta_action_correlates_legs():
    # the coproduct of a primitive element splits across the two outputs
    model = TensorAlgebraModel(1, 1)
    acted = hopf_action(generator_morphism("delta"), model, [model.generator(1)])
    assert acted == {((), (1,)): Fraction(1), ((1,), ()): Fraction(1)}


# -- multilinear reduction ---------------------------------------------------------


def test_reduce_examples():
    assert reduce_word(word("x1^2", 1)) == {single("x1", 1): Fraction(2)}
    assert reduce_word(word("x1^-1", 1)) == {single("x1", 1): Fraction(-1)}
    assert reduce_word(FreeWord(1)) == {}
    assert reduce_word(word("x1 x2", 2)) == {single("x1 x2", 2): Fraction(1)}
    assert reduce_word(word("x2 x1", 2)) == {single("x2 x1", 2): Fraction(1)}
    assert single("x1 x2", 2) != single("x2 x1", 2)


def test_reduce_requires_cod_one():
    with pytest.raises(ArityError):
        multilinear_reduce(LinHom.of(generator_morphism("delta")))


def test_reduce_linear_combination():
    element = LinHom.of(single("x1^2", 1)) + LinHom.of(single("x1", 1), -2)
    assert multilinear_reduce(element).is_zero()


def _assert_reduce_matches_oracle(n, max_len):
    # every reduced word of rank n up to length max_len, against the tensor-algebra oracle
    model = TensorAlgebraModel(n, n)
    gens = [model.generator(i) for i in range(1, n + 1)]
    alphabet = [(i, e) for i in range(1, n + 1) for e in (1, -1)]
    for length in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            w = FreeWord(n, letters)
            if len(w.letters) != length:
                continue
            reduced = reduce_word(w)
            acted = multilinear_part(hopf_action(HMorphism(n, 1, (w,)), model, gens), n)
            assert reduced == acted


def test_reduce_matches_oracle_exhaustively():
    for n in (1, 2):
        _assert_reduce_matches_oracle(n, 4)


def test_reduce_strategy_independent_f3_length5():
    # the one-pass reduction has no strategy left to vary; all 4,687 reduced F3 words
    # of length <= 5 are checked against the oracle instead
    _assert_reduce_matches_oracle(3, 5)


def test_reduce_long_alternating_word():
    # each x1 pairs with the x2 at or after it, each x2 with the x1 after it
    k = 2000
    w = FreeWord(2, ((1, 1), (2, 1)) * k)
    assert reduce_word(w) == {
        single("x1 x2", 2): Fraction(k * (k + 1) // 2),
        single("x2 x1", 2): Fraction(k * (k - 1) // 2),
    }


def test_reduce_output_is_permutation_supported():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        w = FreeWord(
            n,
            tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(rng.randint(0, 7))),
        )
        for h in reduce_word(w):
            indices = sorted(i for i, _ in h.words[0].letters)
            assert indices == list(range(1, n + 1))
            assert all(e == 1 for _, e in h.words[0].letters)


# -- linear combinations --------------------------------------------------------


def test_linhom_canonical_form():
    a = LinHom.of(single("x1 x2", 2))
    b = LinHom.of(single("x2 x1", 2), Fraction(-1))
    combo = a + b
    assert format_linhom(combo) == "(x1 x2) - (x2 x1)"
    negated = LinHom.of(single("x1 x2", 2), -1) + LinHom.of(single("x2 x1", 2))
    assert (combo + negated).is_zero()
    assert format_linhom(combo + negated) == "0"


def test_linhom_rejects_mixed_arity():
    with pytest.raises(ArityError):
        LinHom.of(single("x1", 1)) + LinHom.of(single("x1", 2))


# -- refusals --------------------------------------------------------------------

_ID1 = identity_morphism(1)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: HMorphism(-1, 0, ()), ArityError, "arities must be non-negative"),
        (lambda: HMorphism(1, 2, (FreeWord.generator(1, 1),)), ArityError, "expected 2 words, got 1"),
        (
            lambda: HMorphism(1, 1, (FreeWord.generator(2, 1),)),
            ArityError,
            "word rank 2 does not match domain 1",
        ),
        (lambda: Id(-1), ArityError, "identity width must be non-negative"),
        (lambda: LinHom(1, 1, ((single("x1", 2), Fraction(1)),)), ArityError, "mixes arities"),
        (lambda: LinHom(1, 1, ((_ID1, Fraction(0)),)), ValueError, "zero coefficient stored"),
        (
            lambda: LinHom(1, 1, ((_ID1, Fraction(1)), (_ID1, Fraction(2)))),
            ValueError,
            "duplicate morphism stored",
        ),
        (lambda: TensorAlgebraModel(2, 0), ValueError, "truncation degree must be at least 1"),
        (lambda: TensorAlgebraModel(2, 3).generator(3), ValueError, r"index 3 outside 1\.\.2"),
    ],
    ids=[
        "negative-arity", "too-few-words", "word-rank", "negative-identity", "mixed-arities",
        "zero-coefficient", "duplicate-morphism", "zero-truncation", "generator-index",
    ],
)
def test_malformed_values_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()
