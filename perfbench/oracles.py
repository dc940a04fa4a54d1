"""Independent correctness oracles for the benchmark.

Nothing here calls the library's arithmetic: printed polynomials are parsed
and evaluated by hand, Groebner certificates use a division routine of their
own, the multilinear reduction is checked against its closed form, and
homomorphism counts against a brute-force product count.  The oracles run
outside the timed region.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence

Exponents = tuple[int, ...]


# ---------------------------------------------------------------------------
# Printed polynomials
# ---------------------------------------------------------------------------


def parse_printed(text: str, ring: Sequence[str]) -> dict[Exponents, Fraction]:
    """Terms of a polynomial in the library's printed form (``3*x^2*y - 1``).

    Terms are separated by `` + `` / `` - ``; a term is ``*``-joined factors,
    each a rational literal, ``name`` or ``name^k``.
    """
    index = {name: i for i, name in enumerate(ring)}
    terms: dict[Exponents, Fraction] = {}
    if text == "0":
        return terms
    sign = 1
    for token in text.split(" "):
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -sign, token[1:]
        coeff = Fraction(sign)
        exponents = [0] * len(ring)
        for factor in token.split("*"):
            name, _, power = factor.partition("^")
            if name[0].isdigit():
                coeff *= Fraction(name)
            else:
                exponents[index[name]] += int(power or 1)
        key = tuple(exponents)
        terms[key] = terms.get(key, Fraction(0)) + coeff
        sign = 1
    return {e: c for e, c in terms.items() if c != 0}


def evaluate_printed(text: str, point: Mapping[str, Fraction]) -> Fraction:
    """Value of a printed polynomial at a rational point."""
    ring = tuple(point)
    total = Fraction(0)
    for exponents, coeff in parse_printed(text, ring).items():
        for name, power in zip(ring, exponents):
            if power:
                coeff *= Fraction(point[name]) ** power
        total += coeff
    return total


# ---------------------------------------------------------------------------
# Groebner certificates
# ---------------------------------------------------------------------------


def order_key(order: str):
    """Standard grevlex / lex keys; a larger key is a larger monomial."""
    if order == "grevlex":
        return lambda e: (sum(e), tuple(-x for x in reversed(e)))
    if order == "lex":
        return lambda e: e
    raise ValueError(f"unknown monomial order {order!r}")


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _reduces_to_zero(f: Mapping[Exponents, Fraction], divisors, key) -> bool:
    """Top-reduce ``f`` by ``divisors`` (lm, lc, terms); true iff it reaches 0."""
    work = dict(f)
    while work:
        m = max(work, key=key)
        c = work[m]
        for lm, lc, terms in divisors:
            if _divides(lm, m):
                shift = tuple(x - y for x, y in zip(m, lm))
                factor = c / lc
                for e, gc in terms.items():
                    moved = tuple(x + y for x, y in zip(e, shift))
                    value = work.get(moved, Fraction(0)) - factor * gc
                    if value:
                        work[moved] = value
                    else:
                        work.pop(moved, None)
                break
        else:
            return False
    return True


def groebner_problems(
    generators: Sequence[Mapping[Exponents, Fraction]],
    printed_basis: Sequence[str],
    ring: Sequence[str],
    order: str,
) -> list[str]:
    """Check a printed basis: monic, reduced, sorted, and containing the input ideal."""
    key = order_key(order)
    basis = [parse_printed(text, ring) for text in printed_basis]
    problems = []
    if any(not g for g in basis):
        return ["basis contains zero"]
    leads = [max(g, key=key) for g in basis]
    for i, (g, lm) in enumerate(zip(basis, leads)):
        if g[lm] != 1:
            problems.append(f"basis element {i} is not monic")
        for j, other in enumerate(leads):
            if j != i and any(_divides(other, e) for e in g):
                problems.append(f"basis element {i} is not reduced by element {j}")
                break
    if any(key(a) <= key(b) for a, b in zip(leads, leads[1:])):
        problems.append("basis is not sorted by decreasing leading monomial")
    divisors = [(lm, g[lm], g) for g, lm in zip(basis, leads)]
    for i, f in enumerate(generators):
        if not _reduces_to_zero(f, divisors, key):
            problems.append(f"input generator {i} does not reduce to zero")
    return problems


# ---------------------------------------------------------------------------
# Multilinear reduction in closed form
# ---------------------------------------------------------------------------


def multilinear_closed_form(
    rank: int, letters: Sequence[tuple[int, int]]
) -> dict[tuple[int, ...], Fraction]:
    """Sum over one chosen occurrence per letter, signed by the chosen exponents.

    Keys are permutations of ``1..rank`` in the order the chosen occurrences
    appear in the word; a word missing a letter gives the empty sum.
    """
    occurrences: list[list[tuple[int, int]]] = [[] for _ in range(rank)]
    for position, (index, exponent) in enumerate(letters):
        occurrences[index - 1].append((position, exponent))
    out: dict[tuple[int, ...], Fraction] = {}
    for choice in itertools.product(*occurrences):
        sign = 1
        for _, exponent in choice:
            sign *= exponent
        perm = tuple(i for _, i in sorted((p, i + 1) for i, (p, _) in enumerate(choice)))
        out[perm] = out.get(perm, Fraction(0)) + sign
    return {perm: c for perm, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# Finite targets
# ---------------------------------------------------------------------------


def brute_force_homs(
    n: int,
    relators: Sequence[Sequence[tuple[int, int]]],
    table: Sequence[Sequence[int]],
    inverses: Sequence[int],
    identity: int,
) -> list[tuple[int, ...]]:
    """Every tuple in G^n that sends each relator to the identity, in lex order."""
    points = []
    for images in itertools.product(range(len(table)), repeat=n):
        for relator in relators:
            value = identity
            for index, exponent in relator:
                factor = images[index - 1]
                value = table[value][factor if exponent == 1 else inverses[factor]]
            if value != identity:
                break
        else:
            points.append(images)
    return points
