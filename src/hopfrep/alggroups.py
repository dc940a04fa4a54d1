"""Coordinate Hopf algebras of affine algebraic groups, and Lie structure data.

A group is presented by polynomial generators, a defining ideal, and the
three structure maps as polynomial data: the counit is the identity point,
the comultiplication lands in a doubled ring (primed and double-primed
variable copies), and the antipode is polynomial thanks to the adjugate
trick -- inverse matrix entries are adjugate entries times a determinant-
inverse generator, so no localization is ever needed.

Shipped groups: GL(m) and SL(m) for m <= 3, tori, and the additive group,
each written as its group law on points (product and inverse), from which
`_from_law` reads Delta and S.  Arbitrary presented groups load from JSON
and are validated, not trusted.
Multiple copies of a group live in block-renamed variable rings, which is
the concrete form of the iterated tensor power of the coordinate ring.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .groups import SIZE_LIMIT, FreeWord, JsonObject, ParseError, Presentation, read_spec
from .groups import read_number, to_postfix, tokenize
from .polyalg import (
    GREVLEX,
    VARIABLE_NAME,
    DegreeBoundError,
    Ideal,
    Polynomial,
    Ring,
    _degree_bound,
    embed,
    fold_substitute,
    groebner,
    ideal_member,
    linear_kernel,
    parse_polynomial,
)


class GroupDataError(ValueError):
    """Inconsistent presented-group data (bad counit, ideal, or structure map)."""


class MissingMatrixShapeError(ValueError):
    """The operation needs a matrix realization the group does not carry."""


class LieDataError(ValueError):
    """Structure constants fail antisymmetry or the Jacobi identity."""


# ---------------------------------------------------------------------------
# Presented commutative Hopf algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PresentedCommHopf:
    """Coordinate ring of an affine algebraic group, as explicit polynomial data.

    ``comultiplication[i]`` is the image of ``variables[i]`` in the doubled
    ring (every variable once primed, once double-primed, in that order);
    ``antipode[i]`` lives in the base ring; ``counit[i]`` is the value at
    the identity point.  ``copy_templates[i]`` names variable ``i`` of copy
    ``c`` via ``.format(c=c)``.  ``matrix``, when present, is a square matrix
    of coordinate polynomials realizing the group as a matrix group.
    Construction runs `_validate_hopf`, so no unchecked instance exists.
    """

    name: str
    variables: Ring
    defining_ideal: Ideal
    counit: tuple[Fraction, ...]
    comultiplication: tuple[Polynomial, ...]
    antipode: tuple[Polynomial, ...]
    copy_templates: tuple[str, ...]
    matrix: tuple[tuple[Polynomial, ...], ...] | None = None

    def __post_init__(self) -> None:
        _validate_hopf(self)

    def counit_point(self) -> dict[str, Fraction]:
        return dict(zip(self.variables, self.counit))

    def __str__(self) -> str:
        return self.name


def _doubled(variables: Sequence[str]) -> Ring:
    """Every variable once primed, then once double-primed: the ring of Delta."""
    return tuple(f"{v}'" for v in variables) + tuple(f"{v}''" for v in variables)


def block_ring(group: PresentedCommHopf, copies: Sequence[int]) -> Ring:
    """Concatenated variable blocks, one per copy, in the given copy order."""
    return tuple(template.format(c=c) for c in copies for template in group.copy_templates)


def block_ideal_generators(
    group: PresentedCommHopf, copy: int, ring: Ring
) -> list[Polynomial]:
    mapping = dict(zip(group.variables, block_ring(group, [copy])))
    return [g.rename(ring, mapping) for g in group.defining_ideal.generators]


def pullback(
    word: FreeWord, group: PresentedCommHopf, ring: Ring | None = None
) -> tuple[Polynomial, ...]:
    """Every coordinate of ``group`` evaluated on the word, in variable order.

    Letter ``i`` is the point of the ``i``-th variable block of ``ring``,
    which defaults to the block ring of copies ``1..rank``.  The value is
    folded through the comultiplication: the primed variables take the
    prefix's values and the double-primed ones the letter's block, which for
    an inverse letter is the antipode renamed into that block
    (`fold_substitute`, packed from the first letter to the last).  The
    empty word gives the counit.
    """
    if ring is None:
        ring = block_ring(group, range(1, word.rank + 1))
    width = len(group.variables)
    blocks: dict[tuple[int, int], list[Polynomial]] = {}
    for letter in word.letters:
        if letter not in blocks:
            index, exponent = letter
            names = ring[(index - 1) * width : index * width]
            if exponent == 1:
                blocks[letter] = [Polynomial.variable(ring, name) for name in names]
            else:
                mapping = dict(zip(group.variables, names))
                blocks[letter] = [s.rename(ring, mapping) for s in group.antipode]
    position = {letter: i for i, letter in enumerate(blocks)}
    return fold_substitute(
        group.comultiplication,
        [Polynomial.constant(ring, e) for e in group.counit],
        list(blocks.values()),
        [position[letter] for letter in word.letters],
    )


def matrix_word(word: FreeWord, group: PresentedCommHopf) -> list[list[Polynomial]]:
    """The group's matrix evaluated on a word: its entries pulled back along it.

    Letter ``i`` is copy ``i``; inverse letters go through the antipode, so
    the result is honestly polynomial.  The empty word gives the identity.
    """
    if group.matrix is None:
        raise MissingMatrixShapeError(f"group {group.name} has no matrix shape")
    images = dict(zip(group.variables, pullback(word, group)))
    return [[entry.substitute(images) for entry in row] for row in group.matrix]


def trace_of_word(word: FreeWord, group: PresentedCommHopf) -> Polynomial:
    """Trace of the matrix realized by a word; the standard invariant observable."""
    matrix = matrix_word(word, group)
    target = matrix[0][0].ring
    return sum((matrix[i][i] for i in range(len(matrix))), Polynomial.zero(target))


def conjugation_substitution(p: Polynomial, group: PresentedCommHopf) -> Polynomial:
    """Substitute every copy's point g by x0 g x0^-1, x0 the conjugator copy 0.

    ``p`` must live in the block ring of copies ``1..n``, ``n`` read off its
    ring; the result lives in the ring with the conjugator block prepended.
    Each coordinate of copy ``c`` becomes its pullback along the word
    ``x0 xc x0^-1``.
    """
    copies = list(range(1, len(p.ring) // len(group.variables) + 1))
    if p.ring != block_ring(group, copies):
        raise GroupDataError("polynomial does not live in the copy block ring")
    extended = block_ring(group, [0] + copies)
    if not copies:
        # A constant: there is nothing to conjugate, and no image to give a ring.
        return embed(p, extended)
    images: dict[str, Polynomial] = {}
    for c in copies:
        word = FreeWord(len(copies) + 1, ((1, 1), (c + 1, 1), (1, -1)))
        conjugated = pullback(word, group, ring=extended)
        images.update(zip(block_ring(group, [c]), conjugated))
    return p.substitute(images)


def cotangent_at_identity(group: PresentedCommHopf) -> list[list[Fraction]]:
    """A basis of the tangent space at the identity, in ``group.variables`` coordinates.

    The tangent space is the kernel of the Jacobian of the defining ideal at
    the counit p: a term c*x^e of a generator adds c*e_v*prod(p_w^(e_w - [w = v]))
    to entry v of its row, w running over the term's variables.  The basis
    is `linear_kernel`'s, and its length is the tangent dimension.
    """
    point = [int(x) if x.denominator == 1 else x for x in group.counit]
    rows = []
    for g in group.defining_ideal.generators:
        row = [0] * len(point)
        for exponents, coeff in g.terms:
            support = [(w, e) for w, e in enumerate(exponents) if e]
            for v, e_v in support:
                entry = coeff * e_v
                for w, e in support:
                    entry *= point[w] ** (e - (w == v))
                row[v] += entry
        rows.append(row)
    return linear_kernel(rows, width=len(point))


# ---------------------------------------------------------------------------
# Construction of the shipped groups
# ---------------------------------------------------------------------------


def _determinant(matrix: Sequence[Sequence[Polynomial]], ring: Ring) -> Polynomial:
    """Leibniz's signed sum over permutations; the empty matrix gives 1."""
    total = Polynomial.zero(ring)
    for perm in itertools.permutations(range(len(matrix))):
        term = Polynomial.one(ring)
        for row, column in enumerate(perm):
            term = term * matrix[row][column]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return total


def _validate_hopf(group: PresentedCommHopf) -> None:
    """Check the structural data really is a Hopf algebra presentation.

    Delta, S and eps are substitutions, hence algebra maps; what is left is
    that they are well defined and that the group law holds on points.  The
    points x, y, z are three blocks of fresh variables, and x.y is folded
    through Delta as in `pullback`.  The counit is a point, so the ideal is
    proper and one grevlex basis of its three block copies decides, in
    order: S and Delta preserve the ideal; a matrix is a representation,
    M(e) = I and M(x.y) = M(x) M(y); S(x).x = x.S(x) = e; e.x = x.e = x;
    and (x.y).z = x.(y.z).
    """
    ring = group.variables
    repeated = next((v for i, v in enumerate(ring) if v in ring[:i]), None)
    if repeated is not None:
        raise GroupDataError(f"{group.name}: variable {repeated} is repeated")
    clash = next((v for v in ring if v + "'" in ring), None)
    if clash is not None:
        raise GroupDataError(f"{group.name}: variable {clash}' is also the primed copy of {clash}")
    ideal = group.defining_ideal.generators
    point = [Polynomial.constant((), value) for value in group.counit]

    def at_counit(polynomials: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
        return fold_substitute(polynomials, point, [[]], [0])

    missed = next((g for g, v in zip(ideal, at_counit(ideal)) if not v.is_zero()), None)
    if missed is not None:
        raise GroupDataError(f"{group.name}: counit is not a zero of generator {missed}")

    blocks = tuple(f"{c}{i}" for c in "xyz" for i in range(len(ring)))
    x, y, z = ([Polynomial.variable(blocks, f"{c}{i}") for i in range(len(ring))] for c in "xyz")
    e = [Polynomial.constant(blocks, value) for value in group.counit]

    def at(p: Polynomial, values: Sequence[Polynomial]) -> Polynomial:
        return p.substitute(dict(zip(ring, values)))

    def product(a: Sequence[Polynomial], b: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
        return fold_substitute(group.comultiplication, a, [b], [0])

    gb = groebner(Ideal(blocks, tuple(at(g, p) for p in (x, y, z) for g in ideal)), GREVLEX)

    def require(sides: Sequence[Polynomial], values: Sequence[Polynomial], message: str) -> None:
        for v, side, value in zip(ring, sides, values):
            if not ideal_member(side - value, gb):
                raise GroupDataError(f"{group.name}: {message} at {v}")

    inverse = [at(s, x) for s in group.antipode]
    xy = product(x, y)
    for image, name in ((inverse, "antipode"), (xy, "comultiplication")):
        if not all(ideal_member(at(g, image), gb) for g in ideal):
            raise GroupDataError(f"{group.name}: {name} does not preserve the ideal")
    if group.matrix is not None:
        size = len(group.matrix)
        identity = [Polynomial.constant((), int(i == j)) for i in range(size) for j in range(size)]
        if list(at_counit([entry for row in group.matrix for entry in row])) != identity:
            raise GroupDataError(f"{group.name}: matrix is not the identity at the counit")
        left, right = ([[at(entry, p) for entry in row] for row in group.matrix] for p in (x, y))
        for i, row in enumerate(group.matrix):
            for j, entry in enumerate(row):
                terms = (left[i][k] * right[k][j] for k in range(len(row)))
                if not ideal_member(at(entry, xy) - sum(terms, Polynomial.zero(blocks)), gb):
                    raise GroupDataError(
                        f"{group.name}: matrix is not multiplicative at entry {i + 1},{j + 1}"
                    )
    require(product(inverse, x), e, "antipode axiom fails")
    require(product(x, inverse), e, "antipode axiom fails")
    require(product(e, x), x, "counit axiom fails")
    require(product(x, e), x, "counit axiom fails")
    require(product(xy, z), product(x, product(y, z)), "comultiplication is not coassociative")


Point = Sequence[Polynomial]


def _from_law(
    name: str, variables: Ring, templates: tuple[str, ...], counit: Sequence[int],
    ideal: Callable, product: Callable, inverse: Callable, matrix: Callable | None = None,
) -> PresentedCommHopf:
    """A group read off its law on points, a point being a list of coordinate polynomials.

    ``ideal``, ``inverse`` and ``matrix`` (the rows) take a point and
    ``product`` two.  Delta is the product of the primed point and the
    double-primed one, and S the inverse of the point the variables make;
    the ideal and the matrix are read on that point too.
    """
    point = [Polynomial.variable(variables, v) for v in variables]
    doubled = _doubled(variables)
    copies = [Polynomial.variable(doubled, v) for v in doubled]
    return PresentedCommHopf(
        name=name,
        variables=variables,
        defining_ideal=Ideal(variables, tuple(ideal(point))),
        counit=tuple(Fraction(value) for value in counit),
        comultiplication=tuple(product(copies[: len(point)], copies[len(point) :])),
        antipode=tuple(inverse(point)),
        copy_templates=templates,
        matrix=None if matrix is None else tuple(map(tuple, matrix(point))),
    )


def _matrix_group(kind: str, size: int) -> PresentedCommHopf:
    """GL(m) or SL(m): the matrix product, and the adjugate as inverse; GL's t is 1/det."""
    if not 1 <= size <= 3:
        raise GroupDataError(f"{kind}({size}): only sizes 1..3 ship")
    has_t, square = kind == "gl", range(size)
    cells = [(i, j) for i in square for j in square]

    def rows(point: Point) -> list[Point]:
        return [point[i * size : (i + 1) * size] for i in square]

    def det(point: Point) -> Polynomial:
        return _determinant(rows(point), point[0].ring)

    def product(a: Point, b: Point) -> list[Polynomial]:
        x, y, zero = rows(a), rows(b), Polynomial.zero(a[0].ring)
        entries = [sum((x[i][k] * y[k][j] for k in square), zero) for i, j in cells]
        return entries + [a[-1] * b[-1]] if has_t else entries

    def inverse(point: Point) -> list[Polynomial]:
        # Entry (i, j) of the adjugate is the signed minor without row j and column i.
        x, ring = rows(point), point[0].ring
        adjugate = [
            (-1) ** (i + j) * _determinant([r[:i] + r[i + 1 :] for r in x[:j] + x[j + 1 :]], ring)
            for i, j in cells
        ]
        return [entry * point[-1] for entry in adjugate] + [det(point)] if has_t else adjugate

    names = [f"{i + 1}{j + 1}" for i, j in cells]
    return _from_law(
        f"{kind}:{size}",
        tuple("x" + name for name in names) + (("t",) if has_t else ()),
        tuple("x{c}_" + name for name in names) + (("t{c}",) if has_t else ()),
        [int(i == j) for i, j in cells] + ([1] if has_t else []),
        lambda point: [point[-1] * det(point) - 1 if has_t else det(point) - 1],
        product,
        inverse,
        rows,
    )


def _torus_group(k: int) -> PresentedCommHopf:
    """(G_m)^k: each z and its inverse t multiply coordinatewise; the inverse swaps them."""
    # Building grows about 6x per doubling of k; the cap matches abelian:d.
    if not 1 <= k <= 8:
        raise GroupDataError("torus supported for 1 <= k <= 8")
    pairs = [("z", "t")] if k == 1 else [(f"z{i}", f"t{i}") for i in range(1, k + 1)]
    suffix = "{c}" if k == 1 else "_{c}"
    return _from_law(
        f"torus:{k}",
        tuple(name for pair in pairs for name in pair),
        tuple(name + suffix for pair in pairs for name in pair),
        [1] * 2 * k,
        lambda point: [z * t - 1 for z, t in zip(point[::2], point[1::2])],
        lambda a, b: [p * q for p, q in zip(a, b)],
        lambda point: [c for z, t in zip(point[::2], point[1::2]) for c in (t, z)],
        (lambda point: [[point[0]]]) if k == 1 else None,
    )


def _additive_group() -> PresentedCommHopf:
    """G_a: the sum, and the negation as inverse."""
    return _from_law(
        "ga", ("u",), ("u{c}",), [0],
        lambda point: [], lambda a, b: [a[0] + b[0]], lambda point: [-point[0]],
    )


def _per_variable(data: JsonObject, key: str, variables: Sequence[str], leaf=str) -> list:
    table = data[key]
    if not isinstance(table, dict) or not all(isinstance(x, leaf) for x in table.values()):
        raise data.fail(f'"{key}" must map variables to {"strings" if leaf is str else "numbers"}')
    for v in variables:
        if v not in table:
            raise data.fail(f'"{key}" has no entry for variable {v!r}')
    return [table[v] for v in variables]


# The cap on sum(e[i] * bits(counit[i])) over a term's variables, where bits
# counts numerator and denominator: a term of degree `SIZE_LIMIT` at a counit
# of 1 or -1 (two bits) is read, one of degree 10**5 at 10**64 is not.
_COUNIT_BITS = 2 * SIZE_LIMIT


def _group_from_json(data: JsonObject) -> PresentedCommHopf:
    variables = data.array("variables")
    if not variables:
        raise data.fail('"variables" must not be empty')
    repeated = next((v for i, v in enumerate(variables) if v in variables[:i]), None)
    if repeated is not None:
        raise data.fail(f'"variables" repeats {repeated!r}')
    unreadable = next((v for v in variables if not VARIABLE_NAME.fullmatch(v)), None)
    if unreadable is not None:
        raise data.fail(f'"variables" has {unreadable!r}, which is not a polynomial variable name')

    def read(key: str, texts: Sequence[str], ring: Ring = variables) -> tuple[Polynomial, ...]:
        """The polynomials under ``key``, each of total degree at most `SIZE_LIMIT`."""
        try:
            polynomials = tuple(parse_polynomial(text, ring) for text in texts)
        except DegreeBoundError:  # no `Polynomial` holds the degree, far past the cap
            polynomials = None
        if polynomials is None or any(p.total_degree() > SIZE_LIMIT for p in polynomials):
            raise data.fail(f'"{key}" has a polynomial of degree over {SIZE_LIMIT}')
        return polynomials

    ideal = Ideal(variables, read("ideal", data.array("ideal") if "ideal" in data else ()))
    counit = _per_variable(data, "counit", variables, (int, float, str))
    counit = tuple(data.rational("counit", x) for x in counit)
    comultiplication = read("delta", _per_variable(data, "delta", variables), _doubled(variables))
    antipode = read("antipode", _per_variable(data, "antipode", variables))
    matrix = None
    if "matrix" in data:
        rows = data.array("matrix", 2)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise data.fail('"matrix" must be a non-empty square matrix')
        matrix = tuple(read("matrix", row) for row in rows)
    # Validation reads the ideal, the matrix and one block of Delta at the
    # counit, so every term's size there is capped before anything is evaluated.
    bits = [abs(c.numerator).bit_length() + c.denominator.bit_length() for c in counit]
    read_at_counit = (
        ("ideal", ideal.generators, bits),
        ("delta", comultiplication, bits * 2),
        ("matrix", [entry for row in matrix or () for entry in row], bits),
    )
    for key, polynomials, sizes in read_at_counit:
        if any(_degree_bound(p.terms, sizes) > _COUNIT_BITS for p in polynomials):
            raise data.fail(f'"counit" makes a term of "{key}" over {_COUNIT_BITS} bits')
    return PresentedCommHopf(
        name=str(data.get("name", "custom")),
        variables=variables,
        defining_ideal=ideal,
        counit=counit,
        comultiplication=comultiplication,
        antipode=antipode,
        copy_templates=tuple(f"{v}_{{c}}" for v in variables),
        matrix=matrix,
    )


_SHIPPED_GROUPS = {
    "gl:": functools.partial(_matrix_group, "gl"),
    "sl:": functools.partial(_matrix_group, "sl"),
    "torus:": _torus_group,
    "ga": _additive_group,
}


def make_group(spec: str) -> PresentedCommHopf:
    """Build a presented group from a spec string, never from a built group.

    ``gl:m`` / ``sl:m`` (1 <= m <= 3), ``torus:k`` (1 <= k <= 8), ``ga``,
    or a path to a JSON file with the full presentation schema, whose
    polynomials have total degree at most `SIZE_LIMIT` and whose terms
    read at the counit at most `_COUNIT_BITS` bits.  A shipped group is
    built and validated once per process.
    """
    return read_spec(spec, "group", GroupDataError, _SHIPPED_GROUPS, _group_from_json)


# ---------------------------------------------------------------------------
# Lie algebra data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieAlgebraData:
    """A finite-dimensional Lie algebra via structure constants.

    ``constants[i][j][k]`` is the coefficient of basis element ``k`` in
    the bracket of basis elements ``i`` and ``j`` (0-based).  Antisymmetry
    and the Jacobi identity are verified on construction.
    """

    name: str
    dimension: int
    basis: tuple[str, ...]
    constants: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def bracket_coords(self, u: Sequence, v: Sequence, ring: Ring) -> list[Polynomial]:
        """Componentwise bracket of coordinate vectors of polynomials."""
        d = self.dimension
        out = [Polynomial.zero(ring) for _ in range(d)]
        for i in range(d):
            if u[i].is_zero():
                continue
            for j in range(d):
                for k in range(d):
                    c = self.constants[i][j][k]
                    if c != 0:
                        out[k] = out[k] + u[i] * v[j] * c
        return out


def _sl2_lie() -> LieAlgebraData:
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    e, f, h = 0, 1, 2
    c[h][e][e], c[e][h][e] = 2, -2
    c[h][f][f], c[f][h][f] = -2, 2
    c[e][f][h], c[f][e][h] = 1, -1
    return lie_from_constants(c, ("e", "f", "h"), "sl2")


def _abelian_lie(d: int) -> LieAlgebraData:
    # The cap bounds the d^3 constants; it is the dimension of sl(3).
    if not 0 <= d <= 8:
        raise LieDataError("abelian Lie algebra supported for 0 <= d <= 8")
    return lie_from_constants([[[0] * d] * d] * d, name=f"abelian:{d}")


def _lie_from_json(data: JsonObject) -> LieAlgebraData:
    basis = data.array("basis") if "basis" in data else None
    numbers = data.array("constants", 3, (int, float, str), "numbers")
    constants = [[[data.rational("constants", x) for x in row] for row in p] for p in numbers]
    try:
        return lie_from_constants(constants, basis, str(data.get("name", "custom")))
    except LieDataError as err:
        raise data.fail(str(err)) from None


_SHIPPED_LIE = {"sl2": _sl2_lie, "abelian:": _abelian_lie}


def make_lie(spec: str) -> LieAlgebraData:
    """Build a Lie algebra from a spec string: ``sl2``, ``abelian:d`` (0 <= d <= 8) or a JSON path.

    ``sl2`` has basis (e, f, h) with [h,e] = 2e, [h,f] = -2f, [e,f] = h.
    A shipped algebra is built and validated once per process.
    """
    return read_spec(spec, "Lie", LieDataError, _SHIPPED_LIE, _lie_from_json)


def lie_from_constants(
    constants: Sequence, basis: Sequence[str] | None = None, name: str = "custom"
) -> LieAlgebraData:
    d = len(constants)
    parsed = tuple(
        tuple(tuple(Fraction(str(x)) for x in row) for row in plane)
        for plane in constants
    )
    for plane in parsed:
        if len(plane) != d or any(len(row) != d for row in plane):
            raise LieDataError("constants must form a d x d x d array")
    basis = tuple(f"e{i}" for i in range(1, d + 1)) if basis is None else tuple(basis)
    if len(basis) != d:
        raise LieDataError(f"basis must have {d} names, not {len(basis)}")
    repeated = next((b for i, b in enumerate(basis) if b in basis[:i]), None)
    if repeated is not None:
        raise LieDataError(f"basis repeats {repeated!r}")
    data = LieAlgebraData(name, d, basis, parsed)
    _validate_lie(data)
    return data


# ---------------------------------------------------------------------------
# Lie presentations
# ---------------------------------------------------------------------------


class LieParseError(ParseError):
    """Malformed Lie relator text, or a fault in a Lie presentation JSON."""


_LIE_TOKEN = r"\d+/\d+|\d+|[A-Za-z_][A-Za-z0-9_]*|[][(),*+-]"
_LIE_PRECEDENCES = {"+": 1, "-": 1, "*": 2}
_LIE_BINARY = ("+", "-", "*", "[]")


def parse_lie_expr(text: str, names: Sequence[str]) -> tuple:
    """Parse a bracket expression with rational coefficients into postfix.

    Grammar: ``expr := [sign] term (("+" | "-") term)*``, ``term :=
    [number ["*"]] atom``, ``atom := name | "[" expr "," expr "]" | "("
    expr ")"``; a sign may open only the whole text or a group, and a
    number is ``k`` or ``k/m``.  Example: ``[a,[a,b]] - 2*b``.  The result
    is the postfix token tuple that `evaluate_lie_expr` reads, numbers as
    Fractions.
    """
    infix: list[tuple[str, int]] = []
    for token, column in tokenize(text, _LIE_TOKEN, LieParseError):
        after_number = bool(infix) and infix[-1][0][0].isdigit()
        if token == "*" and not after_number:
            raise LieParseError("'*' must follow a coefficient", column)
        if after_number and token not in ("+", "-", "*", ",", ")", "]"):
            infix.append(("*", column))  # a juxtaposed coefficient: ``3 a``
        infix.append((token, column))
    # Coefficients (True) may only scale elements (False) from the left.  A
    # signed coefficient never reaches an operator: ``-3*a`` signs the product.
    postfix: list = []
    kinds: list[bool] = []
    for token, column in to_postfix(infix, _LIE_PRECEDENCES, LieParseError):
        if token in _LIE_BINARY:
            right = kinds.pop()
            if right or kinds[-1] != (token == "*"):
                raise LieParseError(f"bad operands for {token!r}", column)
            kinds[-1] = False
        elif token[0].isdigit():
            token, number_at = Fraction(read_number(token, column, LieParseError)), column
            kinds.append(True)
        elif token == "u+":  # a prefix plus changes nothing
            continue
        elif token != "u-":
            if token not in names:
                raise LieParseError(f"unknown generator {token!r}", column)
            kinds.append(False)
        postfix.append(token)
    if kinds[0]:
        raise LieParseError("a coefficient alone is not an element", number_at)
    return tuple(postfix)


class LiePresentation(Presentation):
    """A finitely presented Lie algebra: relators are `parse_lie_expr` postfix tuples."""

    error = LieParseError
    parse_relator = staticmethod(parse_lie_expr)


def evaluate_lie_expr(
    expr: tuple,
    assignment: Mapping[str, Sequence[Polynomial]],
    lie: LieAlgebraData,
    ring: Ring,
) -> list[Polynomial]:
    """Evaluate a postfix expression to a coordinate vector over ``ring``."""
    stack: list = []
    for token in expr:
        if isinstance(token, Fraction):
            stack.append(token)
        elif token == "u-":
            stack[-1] = [-v for v in stack[-1]]
        elif token in _LIE_BINARY:
            right = stack.pop()
            left = stack[-1]
            if token == "[]":
                stack[-1] = lie.bracket_coords(left, right, ring)
            elif token == "*":
                stack[-1] = [v * left for v in right]
            elif token == "+":
                stack[-1] = [a + b for a, b in zip(left, right)]
            else:
                stack[-1] = [a - b for a, b in zip(left, right)]
        else:
            stack.append(list(assignment[token]))
    return stack[0]


_LIE_AXIOMS = tuple(  # antisymmetry and the Jacobi identity, each with its failure message
    (parse_lie_expr(text, ("u", "v", "w")), message)
    for text, message in (
        ("[u,v] + [v,u]", "antisymmetry fails at c[{}][{}][{}]"),
        ("[[u,v],w] + [[v,w],u] + [[w,u],v]", "Jacobi identity fails at ({},{},{}) component {}"),
    )
)


def _validate_lie(data: LieAlgebraData) -> None:
    # The coefficient of u_i v_j (w_k) in component l is the axiom on basis
    # elements i, j (k) in coordinate l, so the least nonzero one fails first.
    d = data.dimension
    ring = tuple(f"{x}{i}" for x in "uvw" for i in range(d))
    vectors = {x: [Polynomial.variable(ring, f"{x}{i}") for i in range(d)] for x in "uvw"}
    for axiom, message in _LIE_AXIOMS:
        value = evaluate_lie_expr(axiom, vectors, data, ring)
        failures = [
            (*(n % d for n, e in enumerate(exponents) if e), component)
            for component, p in enumerate(value) for exponents, _ in p.terms
        ]
        if failures:
            raise LieDataError(message.format(*min(failures)))
