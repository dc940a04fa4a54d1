"""F_p point counts: the representation ideal agrees with the finite enumeration.

Rep(Γ, G) is a functor of points, so its F_p-points are Hom(Γ, G(F_p)).
G(F_p) is built from the target's own data alone: the F_p-points of its
defining ideal are found by brute force, the product table is Δ evaluated
on pairs of points mod p, and `FiniteGroup.from_table` checks that table
for the group law.  The F_p-points of `rep_ideal(Γ, G)` over G(F_p)^n must
then number as many as `enumerate_homs(Γ, G(F_p))` finds.  The two sides
share only the target: the ideal never sees the table, and the enumeration
never sees a polynomial.  Arithmetic is on integers mod p, from
`Polynomial.terms`.

Z² and BS(1,2) into SL(3, 2) agree too, but take 8 s and 46 s, so they are
left out.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace

import pytest

from hopfrep.alggroups import make_group
from hopfrep.groups import FiniteGroup, GroupPresentation, GroupTableError, enumerate_homs
from hopfrep.polyalg import Polynomial, parse_polynomial
from hopfrep.repvariety import rep_ideal

# The four presentations of the `variety` benchmark.
GROUPS = {
    "Z2": {"generators": ["a", "b"], "relators": ["a b a^-1 b^-1"]},
    "BS(1,2)": {"generators": ["a", "b"], "relators": ["a b a^-1 b^-2"]},
    "Z/2": {"generators": ["a"], "relators": ["a^2"]},
    "Z/3": {"generators": ["a"], "relators": ["a^3"]},
}

# (target, p) -> the F_p-point count of each group's representation ideal.
COUNTS = {
    ("sl:2", 3): {"Z2": 168, "BS(1,2)": 24, "Z/2": 2, "Z/3": 9},
    ("gl:2", 3): {"Z2": 384, "BS(1,2)": 96, "Z/2": 14, "Z/3": 9},
    ("torus:1", 5): {"Z2": 16, "BS(1,2)": 4, "Z/2": 2, "Z/3": 1},
    ("sl:2", 5): {"Z2": 1080, "BS(1,2)": 240, "Z/2": 2, "Z/3": 21},
    ("sl:3", 2): {"Z/2": 22, "Z/3": 57},
}
CASES = [(t, p, g, n) for (t, p), counts in COUNTS.items() for g, n in counts.items()]


def _mod_p(polynomial: Polynomial, p: int) -> list[tuple[int, tuple[int, ...]]]:
    """The terms of ``polynomial`` as (coefficient mod p, exponents) pairs."""
    return [(c.numerator * pow(c.denominator, -1, p) % p, e) for e, c in polynomial.terms]


def _value(terms: list[tuple[int, tuple[int, ...]]], point: tuple[int, ...], p: int) -> int:
    total = 0
    for c, exponents in terms:
        for x, k in zip(point, exponents):
            if k:
                c *= x**k
        total += c
    return total % p


def _zeros(polynomials, points, p: int) -> list[tuple[int, ...]]:
    """The points of ``points`` where every polynomial vanishes mod p."""
    reduced = [_mod_p(f, p) for f in polynomials]
    return [x for x in points if not any(_value(f, x, p) for f in reduced)]


def _table(points, delta, p: int) -> list[list[int]]:
    """``table[a][b]``: the index of Δ evaluated on the points a and b, mod p."""
    index = {x: i for i, x in enumerate(points)}
    reduced = [_mod_p(f, p) for f in delta]
    return [[index[tuple(_value(f, x + y, p) for f in reduced)] for y in points] for x in points]


def _points_group(target, p: int) -> tuple[list[tuple[int, ...]], FiniteGroup]:
    """G(F_p): the points of the defining ideal and the group their Δ table makes."""
    cube = itertools.product(range(p), repeat=len(target.variables))
    points = _zeros(target.defining_ideal.generators, cube, p)
    return points, FiniteGroup.from_table(_table(points, target.comultiplication, p))


@functools.lru_cache(maxsize=None)
def _shipped(spec: str, p: int):
    target = make_group(spec)
    return (target, *_points_group(target, p))


def _counts(presentation: GroupPresentation, target, points, group, p: int) -> tuple[int, int]:
    """F_p-points of the representation ideal over G(F_p)^n, and the homomorphisms."""
    blocks = itertools.product(points, repeat=presentation.n_generators)
    ideal = rep_ideal(presentation, target).ideal.generators
    ideal_points = _zeros(ideal, (sum(block, ()) for block in blocks), p)
    return len(ideal_points), len(enumerate_homs(presentation, group))


@pytest.mark.parametrize("spec, p", sorted(COUNTS))
def test_the_points_group_is_the_target_group(spec, p):
    target, points, group = _shipped(spec, p)
    index = {x: i for i, x in enumerate(points)}
    assert points[group.identity] == tuple(int(c) % p for c in target.counit)
    antipode = [_mod_p(f, p) for f in target.antipode]
    inverses = [index[tuple(_value(f, x, p) for f in antipode)] for x in points]
    assert inverses == list(group.inverses)
    matrix = [[_mod_p(f, p) for f in row] for row in target.matrix]

    def at(x):
        return [[_value(f, x, p) for f in row] for row in matrix]

    matrices = [at(x) for x in points]
    size = range(len(matrix))
    for a, b in itertools.product(range(len(points)), repeat=2):
        product = [
            [sum(matrices[a][i][k] * matrices[b][k][j] for k in size) % p for j in size]
            for i in size
        ]
        assert matrices[group.table[a][b]] == product


@pytest.mark.parametrize("spec, p, name, expected", CASES)
def test_ideal_points_are_the_homomorphisms(spec, p, name, expected):
    target, points, group = _shipped(spec, p)
    presentation = GroupPresentation.from_json(GROUPS[name])
    assert _counts(presentation, target, points, group, p) == (expected, expected)


@pytest.mark.xfail(
    strict=True,
    reason="relators read only the matrix until ROADMAP item 5 writes them on every coordinate",
)
def test_a_torus_whose_matrix_misses_a_factor_is_caught():
    # torus:2 with the matrix [[z1]]: the relator a^2 then says nothing
    # about z2, so the ideal has 8 points over F_5 where Z/2 has 4 maps.
    torus2 = make_group("torus:2")
    z1 = Polynomial.variable(torus2.variables, "z1")
    target = replace(torus2, name="torus:2 on z1", matrix=((z1,),))
    points, group = _points_group(target, 5)
    presentation = GroupPresentation.from_json(GROUPS["Z/2"])
    assert _counts(presentation, target, points, group, 5) == (4, 4)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_coproduct_that_is_not_coassociative_is_refused(p):
    # x.y = x + y + xy(x + y) on the line has identity 0 and inverses mod p,
    # but (1.1).2 and 1.(1.2) differ.
    delta = parse_polynomial("u' + u'' + u'^2*u'' + u'*u''^2", ("u'", "u''"))
    line = [(x,) for x in range(p)]
    with pytest.raises(GroupTableError, match=r"associativity fails at \(1, 1, 2\)"):
        FiniteGroup.from_table(_table(line, [delta], p))
