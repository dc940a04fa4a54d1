"""Exact polynomial kernel: arithmetic, Groebner bases, kernels, text syntax."""

from __future__ import annotations

import itertools
import re
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfrep import polyalg
from hopfrep.polyalg import (
    GREVLEX,
    LEX,
    Ideal,
    Polynomial,
    PolynomialParseError,
    RingMismatchError,
    SubstitutionError,
    format_polynomial,
    groebner,
    ideal_member,
    linear_kernel,
    normal_form,
    parse_polynomial,
)

RING = ("x", "y", "z")
X = Polynomial.variable(RING, "x")
Y = Polynomial.variable(RING, "y")
Z = Polynomial.variable(RING, "z")


def P(text, ring=RING):
    return parse_polynomial(text, ring)


# -- arithmetic -------------------------------------------------------------


def test_difference_of_squares():
    assert (X + Y) * (X - Y) == X**2 - Y**2


def test_substitute_to_zero():
    p = X * Y + Y
    target = ("y",)
    image = {
        "x": Polynomial.zero(target),
        "y": Polynomial.variable(target, "y"),
        "z": Polynomial.zero(target),
    }
    assert p.substitute(image) == Polynomial.variable(target, "y")


def test_substitute_shifted_determinant():
    # a*d - b*c - 1 with a -> 1+alpha, d -> 1+delta, b -> beta, c -> gamma,
    # cross-checked by expanding the right-hand side with the same arithmetic.
    src = ("a", "b", "c", "d")
    dst = ("alpha", "beta", "gamma", "delta")
    a, b, c, d = (Polynomial.variable(src, v) for v in src)
    alpha, beta, gamma, delta = (Polynomial.variable(dst, v) for v in dst)
    image = {"a": alpha + 1, "b": beta, "c": gamma, "d": delta + 1}
    lhs = (a * d - b * c - 1).substitute(image)
    rhs = alpha + delta + alpha * delta - beta * gamma
    assert lhs == rhs


def test_substitution_errors():
    with pytest.raises(SubstitutionError):
        X.substitute({"x": X})  # y, z missing
    with pytest.raises(SubstitutionError):
        X.evaluate({"x": Fraction(1)})
    with pytest.raises(RingMismatchError):
        X + Polynomial.variable(("x",), "x")


def test_power_and_scalars():
    p = 2 * X - Fraction(1, 2)
    assert p**0 == Polynomial.one(RING)
    assert p**3 == p * p * p
    assert (p - p).is_zero()


_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# Units are drawn often, as in the shipped groups' polynomials; these
# properties are the kernel's oracle apart from digests.
_kernel_coeffs = st.one_of(st.sampled_from((Fraction(1), Fraction(-1))), _coeffs)
_exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
_polys = st.dictionaries(_exponents, _kernel_coeffs, max_size=5).map(
    lambda d: Polynomial.from_dict(RING, d)
)
_TARGET = ("s", "t")
_image = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), _kernel_coeffs, max_size=4
).map(lambda d: Polynomial.from_dict(_TARGET, d))
_images = st.fixed_dictionaries({v: _image for v in RING})


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(_polys, _images, st.tuples(_coeffs, _coeffs))
def test_substitute_then_evaluate_is_evaluate_at_the_images(p, images, point):
    at = dict(zip(_TARGET, point))
    values = {v: image.evaluate(at) for v, image in images.items()}
    assert p.substitute(images).evaluate(at) == p.evaluate(values)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(_exponents, st.one_of(st.just(Fraction(0)), _kernel_coeffs), max_size=8))
def test_from_dict_terms_strictly_descend_in_grevlex(mapping):
    p = Polynomial.from_dict(RING, mapping)
    keys = [_order_key(GREVLEX)(e) for e, _ in p.terms]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    assert dict(p.terms) == {e: c for e, c in mapping.items() if c}


_S, _T = (Polynomial.variable(_TARGET, v) for v in _TARGET)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Polynomial.variable(RING, "w"), RingMismatchError, "'w' is not in the ring"),
        (lambda: X**-1, ValueError, "powers must be non-negative integers"),
        (
            lambda: X.substitute({"x": _S, "y": _T, "z": _T, "w": _S}),
            SubstitutionError,
            r"maps unknown variables \['w'\]",
        ),
        (
            lambda: X.substitute({"x": _S, "y": _T, "z": Polynomial.zero(("q",))}),
            RingMismatchError,
            "images live in different rings",
        ),
        (lambda: X.rename(_TARGET, {}), RingMismatchError, "'x' is not in the target ring"),
        (lambda: Ideal(RING, (_S,)), RingMismatchError, "ideal generator in a different ring"),
        (lambda: groebner(Ideal(RING, (X,)), "deglex"), ValueError, "unknown monomial order"),
        (
            lambda: ideal_member(_S, groebner(Ideal(RING, (X,)))),
            RingMismatchError,
            "does not match the basis ring",
        ),
        (lambda: linear_kernel([[1, 2], [3]]), ValueError, "matrix rows have unequal lengths"),
    ],
    ids=[
        "variable", "negative-power", "extra-image", "image-rings", "rename", "ideal-ring",
        "order", "member-ring", "kernel-rows",
    ],
)
def test_malformed_operands_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


# -- the packed product kernel ----------------------------------------------
#
# `*`, `**`, `substitute` and `fold_substitute` all multiply packed
# monomials.  The oracle is a product on plain ``{exponents: coefficient}``
# dicts written here, which shares no code with the kernel.


def _reference_product(left, right):
    """Product of two ``{exponents: coefficient}`` dicts, zero sums left in."""
    out = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _reference_power(base, k, width):
    result = {(0,) * width: 1}
    while k:
        if k & 1:
            result = _reference_product(result, base)
        k >>= 1
        if k:
            base = _reference_product(base, base)
    return result


def _naive_substitute(p, images):
    """``sum(c * prod(images[v] ** e_v))``, expanded by `_reference_product`."""
    (target,) = {image.ring for image in images.values()}
    total = {}
    for exponents, coeff in p.terms:
        term = {(0,) * len(target): coeff}
        for v, power in zip(p.ring, exponents):
            factor = _reference_power(dict(images[v].terms), power, len(target))
            term = _reference_product(term, factor)
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return Polynomial.from_dict(target, total)


# Exponents on both sides of the 1-byte and 2-byte field limits, so that a
# product's degree bound lands on either side of 255/256 and 65535/65536.
_WIDE_EXPONENTS = st.one_of(
    st.integers(0, 2), st.sampled_from((127, 128, 255, 256, 32767, 32768, 65535, 65536))
)


@st.composite
def _product_operands(draw):
    ring = draw(st.sampled_from((RING, ("s",), ())))
    monomials = st.tuples(*[_WIDE_EXPONENTS] * len(ring))
    a, b = (
        Polynomial.from_dict(ring, draw(st.dictionaries(monomials, _kernel_coeffs, max_size=3)))
        for _ in range(2)
    )
    return a, b, draw(st.integers(0, 4))


@settings(max_examples=100, deadline=None)
@given(_product_operands())
@example((X**128, X**127 - Y, 2))
@example((X**128 + Z**128, X**128 - 1, 1))
@example((Y**65535, Y - 2, 1))
@example((Y**32768, Y**32768 + 1, 2))
@example((Polynomial.zero(RING), X**300, 0))
@example((Polynomial.constant((), 3), Polynomial.constant((), Fraction(-1, 2)), 3))
def test_product_and_power_are_the_reference_product(operands):
    a, b, k = operands
    ring = a.ring
    assert a * b == Polynomial.from_dict(ring, _reference_product(dict(a.terms), dict(b.terms)))
    assert a**k == Polynomial.from_dict(ring, _reference_power(dict(a.terms), k, len(ring)))
    if k == 0:
        assert a**0 == Polynomial.one(ring)  # 0 ** 0 included


def test_product_and_power_reject_a_degree_bound_past_64_bits():
    big = X ** (2**63)
    assert big.terms == (((2**63, 0, 0), 1),)
    assert (big * X ** (2**63 - 1)).terms == (((2**64 - 1, 0, 0), 1),)
    too_big = (
        lambda: big * big,
        lambda: big * (big + Y),
        lambda: (X**2) ** (2**63),
        lambda: X ** (2**64),
    )
    for make in too_big:
        with pytest.raises(ValueError, match="64-bit"):
            make()


_ZERO_IMAGE = Polynomial.zero(_TARGET)
# Exponents of x reach 300, so both the 1-byte and the 2-byte fields run; x's
# image has at most two terms to keep the expansion small.
_packed_polys = st.dictionaries(
    st.one_of(
        st.just((0, 0, 0)),
        _exponents,
        st.tuples(st.integers(0, 300), st.integers(0, 2), st.integers(0, 2)),
    ),
    _kernel_coeffs,
    max_size=4,
).map(lambda d: Polynomial.from_dict(RING, d))
_small_image = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), _kernel_coeffs, max_size=2
).map(lambda d: Polynomial.from_dict(_TARGET, d))
_packed_images = st.fixed_dictionaries(
    {
        "x": st.one_of(st.just(_ZERO_IMAGE), _small_image),
        "y": st.one_of(st.just(_ZERO_IMAGE), _image),
        "z": st.one_of(st.just(_ZERO_IMAGE), _image),
    }
)


@settings(max_examples=60, deadline=None)
@given(_packed_polys, _packed_images)
def test_substitute_is_the_naive_expansion(p, images):
    assert p.substitute(images) == _naive_substitute(p, images)


def test_substitute_at_the_field_width_boundaries():
    s, t = (Polynomial.variable(_TARGET, v) for v in _TARGET)
    images = {"x": s + t, "y": s * t, "z": 1 - t}
    for k in (255, 256):  # the degree bound is k: 1-byte, then 2-byte fields
        p = X**k - Y * Z + 1
        assert p.substitute(images) == _naive_substitute(p, images)
    for k in (2**16 - 1, 2**16, 2**32 - 1, 2**32):
        assert (X**k).substitute({"x": s, "y": t, "z": t}).terms == (((k, 0), 1),)


def test_substitute_into_a_ring_with_no_variables():
    images = {"x": Polynomial.constant((), 3), "y": Polynomial.constant((), 2), "z": Polynomial.zero(())}
    assert (X**2 + 3 * X * Y - Z - 1).substitute(images) == Polynomial.constant((), 26)


def test_substitute_rejects_a_degree_bound_past_64_bits():
    # Every operand is built before `pytest.raises`, so the error is the substitution's.
    s, t = (Polynomial.variable(_TARGET, v) for v in _TARGET)
    images = {"x": s, "y": t, "z": t}

    def x_to_the(k):  # built from its term, not with `**`
        return Polynomial(RING, (((k, 0, 0), 1),))

    assert x_to_the(2**64 - 1).substitute(images).terms == (((2**64 - 1, 0), 1),)
    with pytest.raises(ValueError, match="64-bit"):  # no polynomial holds the next degree
        x_to_the(2**64)
    p = X ** (2**63) + Y  # the bound passes 2^64 only once x maps to s^2
    squared = {**images, "x": s**2}
    assert (X ** (2**63 - 1) * Y).substitute(squared).terms == (((2**64 - 2, 1), 1),)
    with pytest.raises(ValueError, match="64-bit"):
        p.substitute(squared)
    with pytest.raises(ValueError, match="64-bit"):
        polyalg.fold_substitute([p], [], [[squared[v] for v in RING]], [0])


def test_substitute_counts_every_image_in_the_degree_bound():
    # An image's degree widens the packed fields even where no term uses it;
    # the widest image a polynomial can be, degree 2^64 - 1, still fits, and
    # the result is stored in its own narrow fields.
    s, t = (Polynomial.variable(_TARGET, v) for v in _TARGET)
    for degree in (300, 2**64 - 1):
        wide = Polynomial(_TARGET, (((degree, 0), 1),))
        image = (X * Y + 1).substitute({"x": s, "y": t, "z": wide})
        assert image == s * t + 1 and image._size == 1


def test_fold_substitute_rejects_a_degree_bound_past_64_bits_mid_fold():
    # u -> u^(2^32) v once gives degree 2^32 + 1, which fits; twice passes 2^64.
    u, v = (Polynomial.variable(("u", "v"), name) for name in ("u", "v"))
    s = Polynomial.variable(_TARGET, "s")
    maps = [u ** (2**32) * v]
    assert polyalg.fold_substitute(maps, [s], [[s]], [0])[0].terms == (((2**32 + 1, 0), 1),)
    with pytest.raises(ValueError, match="64-bit"):
        polyalg.fold_substitute(maps, [s], [[s]], [0, 0])


_DOUBLED = ("a'", "b'", "a''", "b''")


def test_fold_substitute_is_substitution_step_by_step():
    # b's degree passes 255 after one step on block 0, so the fields widen.
    a1, b1, a2, b2 = (Polynomial.variable(_DOUBLED, v) for v in _DOUBLED)
    s, t = (Polynomial.variable(_TARGET, v) for v in _TARGET)
    maps = [a2, a1**200 + b1 * b2 - 3]
    start = [Polynomial.one(_TARGET), Polynomial.zero(_TARGET)]
    blocks = [[s**2 + t, t], [s, 1 - t], [_ZERO_IMAGE, s]]
    for order in ([], [0], [0, 1], [0, 1, 1], [1, 0, 2, 0], [2, 2]):
        values = start
        for index in order:
            images = dict(zip(_DOUBLED, values + blocks[index]))
            values = [m.substitute(images) for m in maps]
        assert polyalg.fold_substitute(maps, start, blocks, order) == tuple(values), order


def test_fold_substitute_checks_its_rings():
    a1, _, a2, _ = (Polynomial.variable(_DOUBLED, v) for v in _DOUBLED)
    s = Polynomial.variable(_TARGET, "s")
    with pytest.raises(SubstitutionError):
        polyalg.fold_substitute([a1 * a2], [s], [[s]], [0])
    with pytest.raises(RingMismatchError):
        polyalg.fold_substitute([a1 * a2, X], [s, s], [[s, s]], [0])
    with pytest.raises(RingMismatchError):
        polyalg.fold_substitute([a1 * a2, a1], [s, X], [[s, s]], [0])


# -- coefficient types ------------------------------------------------------
#
# An integer value is stored as an int and any other as a Fraction; a float,
# a bool or an integral Fraction never reaches a polynomial.

_mixed_coeffs = st.one_of(st.integers(-3, 3), _coeffs)
_LOW_DEGREE = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]
_mixed_polys = st.dictionaries(st.sampled_from(_LOW_DEGREE), _mixed_coeffs, max_size=4).map(
    lambda d: Polynomial.from_dict(RING, d)
)


def _assert_canonical_coefficients(p):
    for _, c in p.terms:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), p.terms


@settings(max_examples=40, deadline=None)
@given(_mixed_polys, _mixed_polys, _mixed_coeffs, _images)
def test_every_coefficient_is_an_int_or_a_non_integral_fraction(p, q, scalar, images):
    results = [p, p + q, p - q, p - scalar, p * q, p * scalar, scalar * p, p**3]
    results += [p.substitute(images), p.rename(("u", "v"), {"x": "u", "y": "v", "z": "u"})]
    results += [normal_form(p, [q, p - q], order) for order in (GREVLEX, LEX)]
    results += groebner(Ideal(RING, (p, q))).basis
    for result in results:
        _assert_canonical_coefficients(result)


@settings(max_examples=60, deadline=None)
@given(_mixed_polys, _mixed_coeffs)
def test_adding_a_constant_is_adding_the_constant_polynomial(p, c):
    constant = Polynomial.constant(RING, c)
    last = p.terms[-1][1] if p.terms else 0  # cancels a constant term
    assert p + c == c + p == p + constant
    assert p - c == p - constant
    assert c - p == constant - p
    assert p - last == p - Polynomial.constant(RING, last)
    for result in (p + c, p - c, c - p, p - last):
        _assert_canonical_coefficients(result)
    half = X + Fraction(1, 2)
    assert (half + Fraction(1, 2)).terms == (((1, 0, 0), 1), ((0, 0, 0), 1))
    assert type((half + Fraction(1, 2)).terms[-1][1]) is int


def test_inexact_coefficients_are_rejected():
    for bad in (0.5, 1.0, True):
        with pytest.raises(TypeError):
            Polynomial(RING, (((1, 0, 0), bad),))
        with pytest.raises(TypeError):
            Polynomial.from_dict(RING, {(1, 0, 0): bad})
        with pytest.raises(TypeError):
            X * bad


def test_division_by_an_integer_leading_coefficient_is_exact():
    assert str(normal_form(X, [2 * X + 1])) == "-1/2"
    assert [str(g) for g in groebner(Ideal(RING, (2 * X + 1,))).basis] == ["x + 1/2"]
    kernel = linear_kernel([[2, 1]])
    assert kernel == [[Fraction(-1, 2), 1]]
    assert all(type(x) is Fraction for x in kernel[0])
    assert P("3*x + 1/2").terms == (((1, 0, 0), 3), ((0, 0, 0), Fraction(1, 2)))
    assert type(P("3*x").terms[0][1]) is int


# -- Groebner bases ---------------------------------------------------------


def test_groebner_univariate():
    ring = ("x",)
    x = Polynomial.variable(ring, "x")
    gb = groebner(Ideal(ring, (x**2 - 1, x - 1)), LEX)
    assert gb.basis == (x - 1,)
    assert ideal_member(x**2 - 1, gb)


def test_groebner_zero_ideal():
    gb = groebner(Ideal(RING, ()))
    assert gb.basis == ()
    assert not ideal_member(X, gb)
    assert ideal_member(Polynomial.zero(RING), gb)


def test_groebner_unit_ideal():
    ring = ("x", "y")
    x = Polynomial.variable(ring, "x")
    y = Polynomial.variable(ring, "y")
    gb = groebner(Ideal(ring, (x * y - 1, x**2)))
    assert gb.basis == (Polynomial.one(ring),)
    # brute-force confirmation that 1 is in the ideal:
    # y^2*(x^2) - (x*y + 1)*(x*y - 1) = 1
    combo = y**2 * x**2 - (x * y + 1) * (x * y - 1)
    assert combo == Polynomial.one(ring)


def test_membership_examples():
    ring = ("x",)
    x = Polynomial.variable(ring, "x")
    gb = groebner(Ideal(ring, (x**2,)))
    assert not ideal_member(x, gb)
    assert ideal_member(x**3, gb)


def test_groebner_idempotent_and_sound():
    ideals = [
        Ideal(RING, (X * Y - 1, X**2 - Z)),
        Ideal(RING, (X + Y + Z, X * Y + Y * Z + Z * X, X * Y * Z - 1)),
    ]
    for order in (GREVLEX, LEX):
        for ideal in ideals:
            gb = groebner(ideal, order)
            again = groebner(Ideal(RING, gb.basis), order)
            assert again.basis == gb.basis
            for g in ideal.generators:
                assert ideal_member(g, gb)
            key = _order_key(order)
            # every pair's S-polynomial reduces to zero; the basis is monic
            for f, g in itertools.combinations(gb.basis, 2):
                lf, lg = (max((e for e, _ in h.terms), key=key) for h in (f, g))
                lcm = tuple(map(max, lf, lg))
                shift_f, shift_g = (
                    Polynomial.from_dict(RING, {tuple(a - b for a, b in zip(lcm, lm)): 1})
                    for lm in (lf, lg)
                )
                s = shift_f * f - shift_g * g
                assert normal_form(s, gb.basis, order).is_zero()


# -- an independent Groebner certificate -------------------------------------
#
# Plain {exponents: Fraction} dicts and a division written here, so the check
# shares no code with the engine's normal form or S-polynomials.


def _order_key(order):
    if order == GREVLEX:
        return lambda e: (sum(e), tuple(-x for x in reversed(e)))
    return lambda e: e


def _lead(poly, key):
    return max(poly, key=key)


def _remainder(poly, divisors, key):
    """Full division of ``poly`` by ``divisors``, first divisor that fits wins."""
    work = dict(poly)
    remainder = {}
    while work:
        m = _lead(work, key)
        c = work.pop(m)
        for d in divisors:
            lm = _lead(d, key)
            if all(a <= b for a, b in zip(lm, m)):
                factor = Fraction(c) / d[lm]
                for e, v in d.items():
                    if e != lm:
                        t = tuple(x + y - z for x, y, z in zip(e, m, lm))
                        work[t] = work.get(t, 0) - factor * v
                        if work[t] == 0:
                            del work[t]
                break
        else:
            remainder[m] = c
    return remainder


def _assert_groebner_certificate(ideal, gb):
    key = _order_key(gb.order)
    basis = [dict(g.terms) for g in gb.basis]
    leads = [_lead(g, key) for g in basis]
    for g, lm in zip(basis, leads):
        assert g[lm] == 1  # monic
    for i, g in enumerate(basis):
        for j, lm in enumerate(leads):
            if i != j:
                assert not any(all(a <= b for a, b in zip(lm, e)) for e in g)
    for generator in ideal.generators:
        assert _remainder(dict(generator.terms), basis, key) == {}
    for (f, lf), (g, lg) in itertools.combinations(zip(basis, leads), 2):
        lcm = tuple(map(max, lf, lg))
        s = {}
        for poly, lm, sign in ((f, lf, 1), (g, lg, -1)):
            for e, v in poly.items():
                t = tuple(x + y - z for x, y, z in zip(e, lcm, lm))
                s[t] = s.get(t, 0) + sign * v
        s = {e: v for e, v in s.items() if v != 0}
        assert _remainder(s, basis, key) == {}


@st.composite
def _small_ideals(draw):
    ring = RING[: draw(st.integers(1, 3))]
    monomials = [e for e in itertools.product(range(4), repeat=len(ring)) if sum(e) <= 3]
    generators = draw(
        st.lists(
            st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3), max_size=4),
            max_size=3,
        )
    )
    return Ideal(ring, tuple(Polynomial.from_dict(ring, g) for g in generators))


# No per-example deadline: about one draw in a few thousand has a lex basis
# whose coefficients grow past a thousand bits, which takes seconds.
@settings(max_examples=80, deadline=None)
@given(_small_ideals(), st.sampled_from((GREVLEX, LEX)))
def test_groebner_certificate_random_ideals(ideal, order):
    gb = groebner(ideal, order)
    _assert_groebner_certificate(ideal, gb)
    assert groebner(Ideal(ideal.ring, gb.basis), order).basis == gb.basis


def test_normal_form_term_cancels_then_reenters():
    # Reducing x^2 by x^2 - y cancels the -y of p; reducing x*y by x*y - y
    # creates y again, which y - z then reduces to z:
    # p - (x^2 - y) - (x*y - y) - (y - z) = z.
    p = P("x^2 + x*y - y")
    divisors = [P("x^2 - y"), P("x*y - y"), P("y - z")]
    for order in (GREVLEX, LEX):
        assert normal_form(p, divisors, order) == Z
    # x^3 -> y^3 leaves -y^3; x^2*y -> y^3 cancels it; x*y^2 -> -y^3 + z^3
    # creates it again, and this time it stays in the remainder.
    p = P("x^3 + x^2*y + x*y^2 - 2*y^3")
    divisors = [P("x^3 - y^3"), P("x^2*y - y^3"), P("x*y^2 + y^3 - z^3")]
    for order in (GREVLEX, LEX):
        assert normal_form(p, divisors, order) == P("z^3 - y^3")


def test_groebner_determinism():
    ideal = Ideal(RING, (X * Y - Z, Y * Z - X, Z * X - Y))
    first = groebner(ideal)
    second = groebner(ideal)
    assert first == second
    assert [format_polynomial(g) for g in first.basis] == [
        format_polynomial(g) for g in second.basis
    ]


def test_one_member_iff_unit_basis():
    ring = ("x",)
    x = Polynomial.variable(ring, "x")
    unit = groebner(Ideal(ring, (x - 1, x - 2)))
    assert unit.basis == (Polynomial.one(ring),)
    assert ideal_member(Polynomial.one(ring), unit)
    proper = groebner(Ideal(ring, (x - 1,)))
    assert not ideal_member(Polynomial.one(ring), proper)


def test_stats_reductions_are_the_normal_form_calls(monkeypatch):
    calls = []
    original = polyalg.normal_form

    def counted(p, divisors, order=GREVLEX):
        result = original(p, divisors, order)
        calls.append(result.is_zero())
        return result

    monkeypatch.setattr(polyalg, "normal_form", counted)
    ideals = [
        Ideal(RING, (X * Y - Z, Y * Z - X, Z * X - Y)),
        Ideal(RING, (X + Y + Z, X * Y + Y * Z + Z * X, X * Y * Z - 1)),
        Ideal(RING, (X**2 - Y, X * Y - Z, Y**2 - X * Z, X - 1)),
    ]
    for order in (GREVLEX, LEX):
        for ideal in ideals:
            calls.clear()
            gb = groebner(ideal, order)
            stats = gb.stats
            assert stats["reductions"] == len(calls)
            assert stats["zero_reductions"] == sum(calls)
            # Each pair is dropped by one criterion or reduced once; the tail
            # reduction adds one call per basis element.
            reduced_pairs = stats["reductions"] - len(gb.basis)
            assert stats["pairs"] == stats["product_skips"] + stats["gm_skips"] + reduced_pairs
            assert stats["max_degree"] >= max(g.total_degree() for g in ideal.generators)
            assert stats["max_terms"] >= max(len(g.terms) for g in gb.basis)


def test_stats_by_hand_and_left_out_of_equality():
    # x - 1 and y - 1: one pair, coprime; two tail reductions.
    gb = groebner(Ideal(RING, (X - 1, Y - 1)))
    assert dict(gb.stats) == {
        "pairs": 1,
        "product_skips": 1,
        "gm_skips": 0,
        "reductions": 2,
        "zero_reductions": 0,
        "peak_divisors": 2,
        "max_degree": 1,
        "max_terms": 2,
        "max_coeff_bits": 1,
    }
    assert gb == polyalg.GroebnerBasis(gb.ideal, gb.order, gb.basis)
    # x*y, y*z, x*z: the pair (x*y, y*z) is queued first.  x*z keeps it, since
    # its lcm x*y*z is also that of (x*y, x*z); of the two new pairs, both with
    # lcm x*y*z, one goes.  Two S-pairs reduce to zero, then three tail reductions.
    stats = groebner(Ideal(RING, (X * Y, Y * Z, X * Z))).stats
    assert (stats["pairs"], stats["gm_skips"], stats["product_skips"]) == (3, 1, 0)
    assert (stats["reductions"], stats["zero_reductions"], stats["peak_divisors"]) == (5, 2, 3)
    # x^2 then x: x's leading monomial divides x^2's, which leaves the divisor set.
    gb = groebner(Ideal(RING, (X**2 - 1, X - 1)))
    assert gb.basis == (X - 1,)
    assert gb.stats["peak_divisors"] == 1


# -- the packed Groebner kernel ---------------------------------------------
#
# `groebner` and `normal_form` keep every monomial as one integer, with a
# guard bit atop each field.  The references are tuple definitions written here.


def _tuple_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _tuple_lcm(a, b):
    return tuple(map(max, a, b))


@pytest.mark.parametrize("size", [1, 2], ids=lambda size: f"{size}-{polyalg._FIELDS[size]}")
@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_packed_divisibility_lcm_and_order_agree_with_tuples(order, size):
    rng = random.Random(14)
    width, bound = 4, 1 << 8 * size - 1  # every exponent, in grevlex every degree, below bound
    packing = polyalg._Packing(width, size, order)
    key = _order_key(order)

    def fields(e):  # the plain fields of a packed monomial
        return packing.prepare([(packing.pack(e), 1)])[0]

    def draw():
        top = rng.choice((3, bound))  # small exponents make divisibility common
        while True:
            e = tuple(rng.randrange(top) for _ in range(width))
            if order == LEX or sum(e) < bound:
                return e

    edges = [(bound - 1, 0, 0, 0), (0, 0, 0, bound - 1), (0, 0, 0, 0)]
    if order == LEX:
        edges.append((bound - 1,) * width)
    monomials = edges + [draw() for _ in range(300)]
    for a, b in itertools.product(monomials[:40], monomials):
        ka, kb = packing.pack(a), packing.pack(b)
        assert [*map(tuple, packing.unpack([ka]))] == [a]
        assert (ka < kb) == (key(a) < key(b)) and (ka == kb) == (a == b)
        assert (not (fields(b) - fields(a)) & packing.guards) == _tuple_divides(a, b)
        lcm = _tuple_lcm(a, b)
        assert packing.lcm(fields(a), fields(b)) == (packing.pack(lcm), fields(lcm))
        # A product of monomials is a sum; one that outgrows the fields is caught.
        product = tuple(map(sum, zip(a, b)))
        if order == LEX:
            assert bool((ka + kb) & packing.overflow) == (max(product) >= bound)
        else:
            assert (ka + kb > packing.limit) == (sum(product) >= bound)
        if max(product) < bound and (order == LEX or sum(product) < bound):
            assert ka + kb == packing.pack(product)


def test_groebner_reruns_in_wider_fields():
    # Under their guard bits the grevlex generators fit 8-bit fields and the
    # lex ones 16-bit fields, where lex starts.  An lcm of degree 200 (grevlex)
    # and a reduction to y^40000 (lex) outgrow them, so the run starts again in
    # wider fields.  The stats are those the tuple engine reported for the
    # same ideals.
    names = ["pairs", "product_skips", "gm_skips", "reductions", "zero_reductions"]
    names += ["peak_divisors", "max_degree", "max_terms", "max_coeff_bits"]
    cases = [
        (GREVLEX, ["x^100*y - z", "x*y^100 - z"], [6, 0, 2, 8, 2, 4, 200, 2, 1]),
        (LEX, ["x - y^2", "x^20000 - 1"], [3, 1, 1, 3, 0, 3, 40000, 2, 1]),
    ]
    for order, texts, expected in cases:
        ideal = Ideal(RING, tuple(P(t) for t in texts))
        gb = groebner(ideal, order)
        assert dict(gb.stats) == dict(zip(names, expected))
        _assert_groebner_certificate(ideal, gb)
    assert [str(g) for g in gb.basis] == ["-y^2 + x", "y^40000 - 1"]
    assert normal_form(P("x^20000"), [P("x - y^2")], LEX) == P("y^40000")
    with pytest.raises(ValueError, match="63-bit"):
        groebner(Ideal(RING, (X ** (2**63) - 1,)))


def test_ideal_member_packs_only_its_operand(monkeypatch):
    # A basis from `groebner` answers in the fields it was computed in (8-bit
    # grevlex, 16-bit lex here).  An operand of too high a degree, or one whose
    # reduction outgrows the fields (x^20000 -> y^40000), goes through
    # `normal_form`; a basis built directly always does.  The answers agree.
    calls = []
    monkeypatch.setattr(polyalg, "normal_form", lambda *args: calls.append(args) or normal_form(*args))
    cases = [
        (GREVLEX, "x*y - 1", [("x^3*y^3 - 1", True, 0), ("x^3", False, 0), ("x^200*y^200 - 1", True, 1)]),
        (LEX, "x - y^2", [("x^3 - y^6", True, 0), ("x^20000 - y^40000", True, 1), ("x^20000", False, 1)]),
    ]
    for order, generator, operands in cases:
        gb = groebner(Ideal(RING, (P(generator),)), order)
        bare = polyalg.GroebnerBasis(gb.ideal, gb.order, gb.basis)
        for text, member, fallbacks in operands:
            calls.clear()
            assert ideal_member(P(text), gb) is member, text
            assert len(calls) == fallbacks, text
            assert ideal_member(P(text), bare) is member, text
            assert len(calls) == fallbacks + 1, text


# -- linear algebra ---------------------------------------------------------


def test_kernel_identity():
    assert linear_kernel([[1, 0], [0, 1]]) == []


def test_kernel_zero_matrix():
    basis = linear_kernel([[0, 0, 0], [0, 0, 0]])
    assert len(basis) == 3


def test_kernel_rank_one():
    basis = linear_kernel([[1, 1, 0]])
    assert len(basis) == 2
    # (1, -1, 0) lies in the span: it is -1 times the first basis vector
    assert [-v for v in basis[0]] == [Fraction(1), Fraction(-1), Fraction(0)]


def test_kernel_no_rows_needs_width():
    assert len(linear_kernel([], width=4)) == 4
    with pytest.raises(ValueError):
        linear_kernel([])


def _pivot_columns(rows, width):
    """Pivot columns of a row echelon form, by forward elimination written here."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(width):
        top = len(pivots)
        found = next((r for r in range(top, len(matrix)) if matrix[r][col]), None)
        if found is None:
            continue
        matrix[top], matrix[found] = matrix[found], matrix[top]
        for r in range(top + 1, len(matrix)):
            factor = matrix[r][col] / matrix[top][col]
            matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[top])]
        pivots.append(col)
    return pivots


def test_kernel_of_matrices_with_planted_dependent_rows():
    # Dependent rows make the elimination clear a pivot column from other rows.
    rng = random.Random(20161)
    for _ in range(200):
        width = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, 3)):
            weights = [rng.randint(-2, 2) for _ in rows]
            rows.append([sum(w * row[c] for w, row in zip(weights, rows)) for c in range(width)])
        rng.shuffle(rows)
        basis = linear_kernel(rows)
        pivots = _pivot_columns(rows, width)
        free = [c for c in range(width) if c not in pivots]
        assert len(basis) == width - len(pivots), rows
        for vector, column in zip(basis, free):
            assert all(sum(a * x for a, x in zip(row, vector)) == 0 for row in rows), rows
            assert [vector[c] for c in free] == [int(c == column) for c in free], rows


# -- text syntax ------------------------------------------------------------


def test_parse_print_roundtrip():
    samples = ["3*x^2*y - 1", "x*y*z + 1/2*z - 7", "-x + y", "0 + x - x", "5/3"]
    for text in samples:
        p = P(text)
        assert parse_polynomial(format_polynomial(p), RING) == p


def test_print_descending_order():
    assert format_polynomial(P("1 + x + x^2")) == "x^2 + x + 1"
    assert format_polynomial(Polynomial.zero(RING)) == "0"


def _format_oracle(p):
    """The printer spelled out factor by factor: one f-string per nonzero exponent."""
    if not p.terms:
        return "0"
    pieces = []
    for position, (exponents, coeff) in enumerate(p.terms):
        factors = [
            name if power == 1 else f"{name}^{power}"
            for name, power in zip(p.ring, exponents)
            if power
        ]
        text = str(coeff)
        negative = text[0] == "-"
        magnitude = text[1:] if negative else text
        if not factors or magnitude != "1":
            factors.insert(0, magnitude)
        body = "*".join(factors)
        if position == 0:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


_CAP = polyalg._TABLE_POWERS


@st.composite
def _printable_polys(draw):
    """Rings of 0, 1, 3 or 30 variables; powers around the table cap and 2^59.

    Thirty powers of 2^59 sum to less than 2^64, so every draw is a polynomial.
    """
    ring = tuple(f"v{i}" for i in range(draw(st.sampled_from((0, 1, 3, 30)))))
    power = st.one_of(
        st.sampled_from((0, 0, 0, 1, _CAP, _CAP + 1, 2**59)), st.integers(0, _CAP + 2)
    )
    coefficient = st.one_of(
        st.sampled_from((1, -1, Fraction(1, 2), Fraction(-1, 2))),
        st.integers(-(10**20), 10**20),
        st.fractions(max_denominator=50),
    )
    terms = draw(st.dictionaries(st.tuples(*[power] * len(ring)), coefficient, max_size=6))
    return Polynomial.from_dict(ring, terms)


@given(_printable_polys())
@example(Polynomial.zero(()))
@example(Polynomial.constant((), -1))
@example(Polynomial.from_dict(RING, {(0, 0, 0): 1, (_CAP, 1, 0): -1, (0, _CAP + 1, 2): Fraction(-1, 2)}))
@example(Polynomial(RING, (((2**64 - 1, 0, 0), Fraction(1, 2)), ((0, 0, 0), -1))))
def test_format_matches_the_factor_by_factor_oracle(p):
    assert format_polynomial(p) == _format_oracle(p) == str(p)


def test_format_tables_stay_capped():
    huge = Polynomial(RING, (((2**64 - 1, 0, 0), 1),))
    assert format_polynomial(huge) == f"x^{2**64 - 1}"
    assert format_polynomial(-X ** (_CAP + 1) * Y**_CAP) == f"-x^{_CAP + 1}*y^{_CAP}"
    assert all(len(table) == _CAP + 1 for table in map(polyalg._powers, RING))
    assert polyalg._powers.cache_info().maxsize is not None


# -- one value, one stored form ----------------------------------------------
#
# A polynomial's packed fields follow from its total degree, so a value built
# along any path compares, hashes and prints the same.  Exponents sit at the
# edges of the field widths: 127/128 (a Groebner guard bit), 255/256,
# 65535/65536, 2^32, and 2^63 and 2^64 - 1, the largest degree a polynomial
# holds; an exponent tuple of a larger degree is refused when it is built.

_EDGE_EXPONENTS = (0, 1, 2, 127, 128, 255, 256, 65535, 65536, 2**32, 2**63, 2**64 - 1)
_edge_terms = st.dictionaries(
    st.tuples(*[st.sampled_from(_EDGE_EXPONENTS)] * 3).filter(lambda e: sum(e) < 2**64),
    _kernel_coeffs,
    max_size=4,
)
_PADDED = ("a", *RING, "b")


def _built_every_way(mapping):
    """The polynomial of ``mapping`` from each path that can build it."""
    items = [(e, c) for e, c in mapping.items() if c]
    base = Polynomial.from_dict(RING, mapping)
    swap = {"x": "y", "y": "x"}
    built = [
        base,
        Polynomial(RING, items[::-1]),
        Polynomial(RING, base.terms),
        parse_polynomial(str(base), RING),
        base.rename(RING, swap).rename(RING, swap),
        -(-base),
        base + X**300 - X**300,  # through 2-byte fields and back
        base + 1 - 1,
    ]
    monomials = (c * X ** e[0] * Y ** e[1] * Z ** e[2] for e, c in items)
    built.append(sum(monomials, Polynomial.zero(RING)))
    swapped = {"x": Y, "y": X, "z": Z}
    built.append(base.substitute(swapped).substitute(swapped))
    built.append(base * 1 * Polynomial.one(RING))
    return built


@settings(max_examples=80, deadline=None)
@given(_edge_terms)
@example({(255, 0, 0): 1, (0, 1, 0): -1})
@example({(256, 0, 0): Fraction(1, 2), (0, 0, 65535): 1})
@example({(2**64 - 1, 0, 0): 1, (0, 2**63, 2**63 - 1): 3})
def test_equal_values_built_along_every_path_are_one_value(mapping):
    built = _built_every_way(mapping)
    base = built[0]
    for p in built:
        assert p == base and hash(p) == hash(base), (p, base)
        assert str(p) == str(base) == _format_oracle(p)
        assert p.terms == base.terms and Polynomial(RING, p.terms) == p
    padded = Polynomial.from_dict(_PADDED, {(0, *e, 0): c for e, c in mapping.items()})
    assert polyalg.embed(base, _PADDED) == padded and str(padded) == str(base)


def test_the_stored_form_follows_the_degree_not_the_path():
    # The same value from a product in 1-byte fields and from a cancellation
    # out of 2-byte fields.
    narrow = X**127 * X
    from_wide = (X**128 + X**300) - X**300
    assert narrow == from_wide and hash(narrow) == hash(from_wide)
    assert narrow._size == from_wide._size == 1
    assert (X**255)._size == 1 and (X**256)._size == 2 and (X**65536)._size == 4
    assert Polynomial(RING, (((2**64 - 1, 0, 0), 1),))._size == 8
    for exponents in ((2**64, 0, 0), (2**63, 2**63, 0), (2**70, 0, 1)):
        with pytest.raises(ValueError, match="64-bit"):
            Polynomial(RING, ((exponents, 1),))
    with pytest.raises(ValueError, match="repeated"):
        Polynomial(RING, (((1, 0, 0), 1), ((1, 0, 0), 2)))
    with pytest.raises(ValueError, match="exponents for the ring"):
        Polynomial(RING, (((1, -1, 0), 1),))


def test_parse_errors_carry_column():
    with pytest.raises(PolynomialParseError) as err:
        P("x + $")
    assert err.value.column == 5
    with pytest.raises(PolynomialParseError):
        P("w + 1")  # unknown variable
    with pytest.raises(PolynomialParseError):
        P("x ^ y")  # non-integer exponent
    with pytest.raises(PolynomialParseError):
        P("")
    with pytest.raises(PolynomialParseError):
        P("1/0*x")


def test_operator_error_names_its_column():
    with pytest.raises(PolynomialParseError) as err:
        P("x + * y")
    assert err.value.column == 5
    assert str(err.value) == "column 5: unexpected '*'"


# The reader before it ran on `groups.to_postfix`: a hand-written recursive
# descent kept here as the oracle for the postfix reader.
_ORACLE_TOKEN = re.compile(
    rf"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>{polyalg.VARIABLE_NAME.pattern})|(?P<op>[-+*^()]))"
)


def _parse_oracle(text, ring):
    ring = tuple(ring)
    index = {name: i for i, name in enumerate(ring)}
    tokens = []
    pos = 0
    while pos < len(text):
        match = _ORACLE_TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + (len(rest) - len(rest.lstrip()))
            raise PolynomialParseError(f"unexpected character {text[bad]!r}", bad + 1)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind) + 1))
        pos = match.end()

    result = {}
    cursor = 0

    def peek():
        return tokens[cursor] if cursor < len(tokens) else (None, None, len(text) + 1)

    def parse_factor():
        nonlocal cursor
        kind, value, column = peek()
        if kind == "number":
            cursor += 1
            try:
                return (Fraction(value) if "/" in value else int(value)), {}
            except ZeroDivisionError:
                raise PolynomialParseError(f"zero denominator in {value!r}", column)
        if kind == "name":
            cursor += 1
            if value not in index:
                raise PolynomialParseError(f"unknown variable {value!r}", column)
            power = 1
            kind2, value2, _ = peek()
            if kind2 == "op" and value2 == "^":
                cursor += 1
                kind3, value3, column3 = peek()
                if kind3 != "number" or "/" in (value3 or ""):
                    raise PolynomialParseError("expected integer exponent after '^'", column3)
                cursor += 1
                power = int(value3)
            return 1, {index[value]: power}
        raise PolynomialParseError("expected a coefficient or variable", column)

    def parse_term():
        nonlocal cursor
        coeff, powers = parse_factor()
        exponents = [0] * len(ring)
        for i, power in powers.items():
            exponents[i] += power
        while True:
            kind, value, _ = peek()
            if kind == "op" and value == "*":
                cursor += 1
                more_coeff, more_powers = parse_factor()
                coeff *= more_coeff
                for i, power in more_powers.items():
                    exponents[i] += power
            else:
                break
        return coeff, tuple(exponents)

    if not tokens:
        raise PolynomialParseError("empty polynomial", 1)
    sign = 1
    kind, value, _ = peek()
    if kind == "op" and value in "+-":
        cursor += 1
        sign = -1 if value == "-" else 1
    while True:
        coeff, exponents = parse_term()
        coeff *= sign
        result[exponents] = result.get(exponents, 0) + coeff
        kind, value, column = peek()
        if kind is None:
            break
        if kind == "op" and value in "+-":
            cursor += 1
            sign = -1 if value == "-" else 1
            continue
        raise PolynomialParseError(f"expected '+' or '-', got {value!r}", column)
    return Polynomial.from_dict(ring, result)


def _outcome(parse, text, ring):
    try:
        return parse(text, ring)
    except Exception as err:  # the class is what is compared
        return type(err)


def test_postfix_reader_matches_the_recursive_descent_oracle():
    pieces = "x y z' w 2 1/2 3 0 1/0 + - * ^ ( ) $ x^2 y^10".split() + [" ", "  "]
    ring = ("x", "y", "z'")
    rng = random.Random(20261019)
    accepted = 0
    for _ in range(20_000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 9)))
        expected = _outcome(_parse_oracle, text, ring)
        got = _outcome(parse_polynomial, text, ring)
        assert got == expected, text
        accepted += isinstance(got, Polynomial)
    assert accepted > 1_000
