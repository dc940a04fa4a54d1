"""Exact polynomial and linear-algebra kernel over the rationals.

Sparse multivariate polynomials with exact rational coefficients (an
``int`` for an integer value, a ``Fraction`` only where there is a
denominator), reduced Groebner bases computed by Buchberger's algorithm
(product and chain criteria, full auto-reduction, monic output), ideal
membership via normal forms, and exact right-kernel computation.

All values are immutable and hashable.  Determinism is a design goal:
identical inputs, including the variable order of the ring, produce
bit-identical results and printed output.  A ring is simply a tuple of
variable names; the position in the tuple fixes the variable order used
by every monomial order.

Monomials are packed (Monagan and Pearce, CASC 2007): in an n-variable
ring a monomial e is the key ``(deg e << 8wn) - sum(e[i] << 8w*i)``, n
fields of w bytes under the total degree.  Descending key order is
descending grevlex, and while every exponent stays below ``2**8w`` the
product of two monomials is the sum of their keys.  A `Polynomial` keeps
keys in the narrowest w of 1, 2, 4 and 8 bytes that holds its degree, so
one value has one stored form and a total degree of 2**64 or more is
refused; every kernel reads and returns keys, and exponent tuples exist
only on input, in `Polynomial.terms` and in `rename` when it reorders
variables.  One packed product loop serves ``*``, ``**``, `substitute`
and `fold_substitute`, in the smallest w that holds a degree bound on
every monomial it can form, and refuses a bound no w holds: ``deg a +
deg b`` for a product, ``k * deg a`` for a k-th power, and for
`fold_substitute` (`substitute` is one step of it) the largest
``sum(e[i] * deg(value[i]))`` at every step of the fold, since a map
need not raise degree monotonically.  `groebner` and `normal_form` add a
guard bit atop each field and rerun in wider fields on overflow
(`_Packing`); lex runs and operands in other fields repack.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from heapq import heapify, heappop, heappush
from operator import add, getitem, mul
from typing import IO, Callable, Iterable, Mapping, Sequence

from .groups import ParseError, read_number, to_postfix, tokenize

Exponents = tuple[int, ...]
Ring = tuple[str, ...]
Coefficient = int | Fraction

GREVLEX = "grevlex"
LEX = "lex"
MONOMIAL_ORDERS = (GREVLEX, LEX)


class RingMismatchError(ValueError):
    """Operands live in different polynomial rings."""


class SubstitutionError(ValueError):
    """A substitution map does not match the variables of the operand's ring."""


class PolynomialParseError(ParseError):
    """Malformed polynomial text.  Carries the 1-based offending column."""


class DegreeBoundError(ValueError):
    """A degree bound of 2**64 or more, which no packed monomial holds."""


def _exact(value) -> Coefficient:
    """``value`` as a coefficient: an ``int`` if it is an integer, else a ``Fraction``.

    Anything but an ``int`` or a ``Fraction``, a float or a bool say, is a TypeError.
    """
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True, init=False, repr=False)
class Polynomial:
    """A sparse multivariate polynomial with exact rational coefficients.

    Stored as ``(key, coefficient)`` pairs, largest key (in descending
    grevlex order) first, with keys in fields of ``_size`` bytes, the
    narrowest that hold the total degree (see the module docstring).  No
    coefficient is zero, and one is an ``int`` when its value is an integer
    and a ``Fraction`` otherwise.  ``terms`` is the same as ``(exponents,
    coefficient)`` pairs, built on first use; ``Polynomial(ring, terms)``
    reads such pairs in any order.  The operators and factory methods build
    the stored form directly.
    """

    ring: Ring
    _terms: tuple[tuple[int, Coefficient], ...]
    _size: int

    def __init__(self, ring: Ring, terms: Iterable[tuple[Exponents, Coefficient]] = ()) -> None:
        ring, terms = tuple(ring), [(tuple(e), _exact(c)) for e, c in terms]
        if any(len(e) != len(ring) or min(e, default=0) < 0 or not c for e, c in terms):
            raise ValueError("a term needs a nonzero coefficient and exponents for the ring")
        size = _field_size(max((sum(e) for e, _ in terms), default=0))
        pack = _packer(len(ring), size)[0]
        packed = sorted([(pack(e), c) for e, c in terms], reverse=True)
        if any(a[0] == b[0] for a, b in zip(packed, packed[1:])):
            raise ValueError("repeated exponent tuple")
        _polynomial(ring, tuple(packed), size, self)

    def __repr__(self) -> str:
        return f"Polynomial(ring={self.ring!r}, terms={self.terms!r})"

    @cached_property
    def terms(self) -> tuple[tuple[Exponents, Coefficient], ...]:
        """``(exponents, coefficient)`` pairs in descending grevlex order."""
        exponents = _packer(len(self.ring), self._size)[1]([k for k, _ in self._terms])
        return tuple(zip(map(tuple, exponents), [c for _, c in self._terms]))

    # -- construction -------------------------------------------------

    @staticmethod
    def from_dict(ring: Ring, mapping: Mapping[Exponents, Coefficient]) -> "Polynomial":
        return Polynomial(ring, [(e, c) for e, c in mapping.items() if c])

    @staticmethod
    def zero(ring: Ring) -> "Polynomial":
        return _polynomial(tuple(ring), (), 1)

    @staticmethod
    def constant(ring: Ring, value) -> "Polynomial":
        value = _exact(value)
        return _polynomial(tuple(ring), ((0, value),) if value else (), 1)

    @staticmethod
    def one(ring: Ring) -> "Polynomial":
        return Polynomial.constant(ring, 1)

    @staticmethod
    def variable(ring: Ring, name: str) -> "Polynomial":
        ring = tuple(ring)
        try:
            index = ring.index(name)
        except ValueError:
            raise RingMismatchError(f"variable {name!r} is not in the ring") from None
        return _polynomial(ring, (((1 << 8 * len(ring)) - (1 << 8 * index), 1),), 1)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        # The leading term's: its key's top field, rounded up past the others' borrow.
        return -(-self._terms[0][0] >> 8 * self._size * len(self.ring)) if self._terms else -1

    def _check_same_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"rings differ: {self.ring} vs {other.ring}"
            )

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_same_ring(other)
            return other
        return Polynomial.constant(self.ring, other)

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self._add_constant(_exact(other))
        self._check_same_ring(other)
        size = max(self._size, other._size)
        acc = dict(_terms_in(self, size))
        for k, c in _terms_in(other, size):
            acc[k] = acc.get(k, 0) + c
        return _from_acc(self.ring, acc, size)

    __radd__ = __add__

    def _add_constant(self, value: Coefficient) -> "Polynomial":
        # The constant monomial, key 0, is the smallest: only the last term
        # changes, and a constant's fields are 1 byte, so the size stands.
        terms = self._terms
        if terms and not terms[-1][0]:
            value, terms = _exact(terms[-1][1] + value), terms[:-1]
        return _polynomial(self.ring, terms + ((0, value),) if value else terms, self._size)

    def __neg__(self) -> "Polynomial":
        return _polynomial(self.ring, tuple([(k, -c) for k, c in self._terms]), self._size)

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self._add_constant(-_exact(other))
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            value = _exact(other)
            terms = tuple([(k, _exact(c * value)) for k, c in self._terms]) if value else ()
            return _polynomial(self.ring, terms, self._size if value else 1)
        other = self._coerce(other)
        size = _field_size(sum(_degrees((self, other))))
        product = _mul_into({}, _terms_in(self, size), _terms_in(other, size))
        return _from_acc(self.ring, product, size)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        if not exponent:
            return Polynomial.one(self.ring)
        size = _field_size(exponent * max(self.total_degree(), 0))
        return _from_acc(self.ring, dict(_pow_packed(_terms_in(self, size), exponent)), size)

    # -- substitution and evaluation ----------------------------------

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring homomorphism determined by ``images``.

        Every variable of this polynomial's ring must be mapped, and all
        image polynomials must share one target ring; the result lives in
        that ring.
        """
        missing = [v for v in self.ring if v not in images]
        if missing:
            raise SubstitutionError(f"substitution missing variables {missing}")
        variables = set(self.ring)
        extra = [v for v in images if v not in variables]
        if extra:
            raise SubstitutionError(f"substitution maps unknown variables {extra}")
        rings = {image.ring for image in images.values()}
        if len(rings) != 1:
            raise RingMismatchError("substitution images live in different rings")
        ordered = [images[v] for v in self.ring]
        if len(self._terms) == 1 and self._terms[0][1] == 1 and self.total_degree() == 1:
            # A bare variable maps to its image; sharing it avoids copying a
            # large image, as when matrix entries take a word's pullback.
            return ordered[self.terms[0][0].index(1)]
        return fold_substitute((self,), (), (ordered,), (0,))[0]

    def evaluate(self, point: Mapping[str, Coefficient]) -> Coefficient:
        """Evaluate at a rational point, one value per ring variable, by substituting constants."""
        missing = [v for v in self.ring if v not in point]
        if missing:
            raise SubstitutionError(f"evaluation point missing variables {missing}")
        constants = {v: Polynomial.constant((), point[v]) for v in self.ring}
        value = self.substitute(constants) if constants else self
        return value._terms[0][1] if value._terms else 0

    def rename(self, ring: Ring, mapping: Mapping[str, str]) -> "Polynomial":
        """Inject into ``ring`` by renaming each variable via ``mapping``."""
        ring = tuple(ring)
        positions = []
        for v in self.ring:
            name = mapping.get(v, v)
            try:
                positions.append(ring.index(name))
            except ValueError:
                raise RingMismatchError(f"variable {name!r} is not in the target ring") from None
        first, bits, width = min(positions, default=0), 8 * self._size, len(self.ring)
        if positions == [*range(first, first + width)]:
            # The variables stay consecutive and in order: each key keeps its
            # degree and its place, and its fields move up ``first`` places.
            shift, mask, top = bits * width, (1 << bits * width) - 1, bits * len(ring)
            terms = []
            for k, c in self._terms:
                low = -k & mask
                terms.append((((k + low) >> shift << top) - (low << bits * first), c))
            return _polynomial(ring, tuple(terms), self._size)
        acc: dict[Exponents, Coefficient] = {}
        for exponents, coeff in self.terms:
            new = [0] * len(ring)
            for position, power in zip(positions, exponents):
                new[position] += power
            acc[tuple(new)] = acc.get(tuple(new), 0) + coeff
        return Polynomial.from_dict(ring, acc)

    def __str__(self) -> str:
        return format_polynomial(self)


_new, _set = object.__new__, object.__setattr__


def _polynomial(ring: Ring, terms: tuple, size: int, p: Polynomial | None = None) -> Polynomial:
    """``p``, by default a new polynomial, stored as ``terms`` in fields of ``size`` bytes."""
    p = _new(Polynomial) if p is None else p
    _set(p, "ring", ring)
    _set(p, "_terms", terms)
    _set(p, "_size", size)
    return p


# ---------------------------------------------------------------------------
# Packed monomials (see the module docstring)
# ---------------------------------------------------------------------------

_FIELDS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # field size in bytes -> `struct` code


def _field_size(degree: int) -> int:
    """The narrowest of 1, 2, 4 and 8 bytes that holds ``degree``."""
    for size in _FIELDS:
        if not degree >> 8 * size:
            return size
    raise DegreeBoundError(f"degree bound {degree} does not fit a 64-bit exponent")


def _degrees(polynomials: Sequence[Polynomial]) -> list[int]:
    """Total degrees, the zero polynomial's taken as 0 for degree bounds."""
    return [max(p.total_degree(), 0) for p in polynomials]


def _degree_bound(terms, degrees: Sequence[int]) -> int:
    """Largest ``sum(e[i] * degrees[i])`` over the terms: the degree bound of a substitution."""
    return max((sum(map(mul, e, degrees)) for e, _ in terms), default=0)


@lru_cache(maxsize=None)
def _packer(width: int, size: int, lex: bool = False) -> tuple[Callable, Callable]:
    """``(pack, unpack)`` between exponent tuples and keys in fields of ``size`` bytes."""
    code = _FIELDS[size]
    shift = 8 * size * width
    mask = (1 << shift) - 1
    # A pad byte keeps the layout non-empty, as `iter_unpack` needs, in a ring
    # with no variables; it is the top byte of every packed value, 0.
    nbytes = size * width + 1
    from_bytes = int.from_bytes
    if lex:  # `_Packing`'s lex packing: the first variable in the top field
        layout = struct.Struct(f">x{width}{code}")
        return (
            lambda e: from_bytes(layout.pack(*e), "big"),
            lambda keys: layout.iter_unpack(b"".join([k.to_bytes(nbytes, "big") for k in keys])),
        )
    layout = struct.Struct(f"<{width}{code}x")

    def pack(e: Exponents) -> int:
        return (sum(e) << shift) - from_bytes(layout.pack(*e), "little")

    def unpack(keys: Sequence[int]):
        """The exponents of packed monomials, in order (1-byte fields as `bytes`, read lazily)."""
        if size == 1:
            return ((-k & mask).to_bytes(width, "little") for k in keys)
        return layout.iter_unpack(b"".join([(-k & mask).to_bytes(nbytes, "little") for k in keys]))

    return pack, unpack


def _terms_in(p: Polynomial, size: int, lex: bool = False) -> Sequence[tuple[int, Coefficient]]:
    """The terms of ``p`` with keys in fields of ``size`` bytes, largest first (in lex if asked)."""
    if p._size == size and not lex:
        return p._terms
    width = len(p.ring)
    pack, unpack = _packer(width, size, lex)[0], _packer(width, p._size)[1]
    terms = zip(map(pack, unpack([k for k, _ in p._terms])), [c for _, c in p._terms])
    return sorted(terms, reverse=True) if lex else tuple(terms)


def _from_acc(ring: Ring, acc: Mapping[int, Coefficient], size: int, lex=False) -> Polynomial:
    """The polynomial of ``acc``, which maps keys in ``size``-byte fields to coefficients."""
    if lex:  # a remainder or basis element of a lex run: nonzero coefficients
        exponents = _packer(len(ring), size, True)[1](list(acc))
        return Polynomial(ring, zip(exponents, acc.values()))
    keys = sorted([k for k, c in acc.items() if c], reverse=True)
    coeffs = [acc[k] for k in keys]
    if {*map(type, coeffs)} - {int}:
        coeffs = [_exact(c) for c in coeffs]
    p = _polynomial(ring, tuple(zip(keys, coeffs)), size)
    own = _field_size(max(p.total_degree(), 0))
    return p if own == size else _polynomial(ring, _terms_in(p, own), own)


_ONE = ((0, 1),)  # the packed constant 1


def _mul_into(out: dict[int, Coefficient], left, right, scale: Coefficient = 1) -> dict:
    """Add ``scale`` times the product of two packed term sequences into ``out``."""
    if len(left) > len(right):
        left, right = right, left
    get = out.get
    for k1, c1 in left:
        c1 *= scale
        for k2, c2 in right:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _pow_packed(terms, power: int):
    result = None
    while True:
        if power & 1:
            result = terms if result is None else _mul_into({}, result, terms).items()
        power >>= 1
        if not power:
            return result
        terms = _mul_into({}, terms, terms).items()


def _substitute_packed(terms, images) -> dict[int, Coefficient]:
    """``sum(c * prod(images[i] ** e[i]))`` over ``terms``, the images packed."""
    factors: dict[tuple[int, int], object] = {}
    acc: dict[int, Coefficient] = {}
    for exponents, coeff in terms:
        # The last factor multiplies straight into ``acc``.
        term = last = None
        for position, power in enumerate(exponents):
            if power:
                factor = factors.get((position, power))
                if factor is None:
                    factor = factors[(position, power)] = _pow_packed(images[position], power)
                if last is not None:
                    term = last if term is None else _mul_into({}, term, last).items()
                last = factor
        _mul_into(acc, _ONE if term is None else term, _ONE if last is None else last, coeff)
    return acc


def fold_substitute(
    maps: Sequence[Polynomial],
    start: Sequence[Polynomial],
    blocks: Sequence[Sequence[Polynomial]],
    order: Sequence[int],
) -> tuple[Polynomial, ...]:
    """Fold ``values = [m.substitute(values + block) for m in maps]`` over ``order``.

    ``values`` starts at ``start``; step ``s`` appends ``blocks[order[s]]``,
    so the variables of the maps' common ring take the current values and
    then the block, in ring order.  ``start`` and every block share one
    target ring, which the result lives in.  Equal to calling `substitute`
    step by step, but the values stay packed between steps.
    """
    rings = {m.ring for m in maps}
    targets = {p.ring for p in start} | {p.ring for block in blocks for p in block}
    if len(rings) > 1 or len(targets) != 1:
        raise RingMismatchError("fold maps or values live in different rings")
    if any(len(start) + len(block) != len(ring) for block in blocks for ring in rings):
        raise SubstitutionError("fold values and block do not match the maps' variables")
    (target,) = targets
    block_degrees = [_degrees(block) for block in blocks]
    current = _degrees(start)
    bound = max([0, *current, *(d for degrees in block_degrees for d in degrees)])
    for index in order:
        current = [_degree_bound(m.terms, current + block_degrees[index]) for m in maps]
        bound = max([bound, *current])
    size = _field_size(bound)
    values = [_terms_in(p, size) for p in start]
    packed_blocks = [[_terms_in(p, size) for p in block] for block in blocks]
    for index in order:
        images = values + packed_blocks[index]
        values = [[t for t in _substitute_packed(m.terms, images).items() if t[1]] for m in maps]
    return tuple(_from_acc(target, dict(v), size) for v in values)


def embed(p: Polynomial, ring: Ring) -> Polynomial:
    """Reinterpret ``p`` in a larger ring containing all its variables."""
    return p.rename(ring, {})


# ---------------------------------------------------------------------------
# Ideals and Groebner bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    ring: Ring
    generators: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.ring != self.ring:
                raise RingMismatchError("ideal generator in a different ring")


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced, monic Groebner basis, its defining data and `groebner`'s counters."""

    ideal: Ideal
    order: str
    basis: tuple[Polynomial, ...]
    stats: Mapping[str, int] = field(default_factory=dict, compare=False)
    # The `_Packing` `groebner` finished in, so that `ideal_member` packs
    # only its operand; a basis built directly has none.
    _packing: _Packing | None = field(default=None, compare=False, repr=False)

    @property
    def ring(self) -> Ring:
        return self.ideal.ring

    @cached_property
    def _divisors(self) -> list[tuple]:
        """The basis prepared for `_reduce`, at the first membership test."""
        packing = self._packing
        return [packing.prepare(_terms_in(g, packing.size, packing.lex)) for g in self.basis]


class _Overflow(Exception):
    """A monomial of a packed Groebner computation outgrew its fields."""


class _Packing:
    """One integer per monomial for `groebner` and `normal_form`, in fields of B bits.

    Grevlex uses the product kernel's packing, lex ``sum(e[i] << B*(n-1-i))``
    with no degree field; either way descending integer order is the
    monomial order and a product of monomials is a sum.  Every exponent (in
    grevlex every degree) stays below ``2**(B-1)``, so the top bit of each
    field is a guard.  On the plain fields (``-k & mask`` in grevlex, ``k``
    in lex) ``a`` divides ``b`` iff ``(b - a) & guards`` is 0.  A lex
    monomial that sets a guard, or a grevlex lcm above ``limit``, raises
    `_Overflow`.
    """

    def __init__(self, width: int, size: int, order: str) -> None:
        bits, lex = 8 * size, order == LEX
        self.size, self.bits, self.lex = size, bits, lex
        self.pack, self.unpack = _packer(width, size, lex)
        shift = bits * width
        self.mask = (1 << shift) - 1
        ones = sum(1 << bits * i for i in range(width))  # a degree: top field of fields * ones
        guards = self.guards = ones << bits - 1
        self.overflow = guards if lex else 0
        self.limit = self.mask if lex else ((1 << bits - 1) - 1) << shift
        top, field = bits * max(width - 1, 0), (1 << bits) - 1

        def lcm(a: int, b: int) -> tuple[int, int]:
            """``(packed, plain fields)`` of the lcm of plain fields ``a`` and ``b``."""
            t = ((a | guards) - b) & guards  # the guard of each field where a >= b
            m = t - (t >> bits - 1)
            low = (a & m) | (b & ~m)
            return (low if lex else (((low * ones) >> top & field) << shift) - low), low

        self.lcm = lcm

    def prepare(self, terms) -> tuple:
        """``(lm plain fields, lm, lc, tail)`` of a divisor's packed ``terms``, largest first."""
        lm, lc = terms[0]
        return (lm if self.lex else -lm & self.mask), lm, lc, terms[1:]


def _packed_run(width: int, order: str, degree: int, run: Callable):
    """``run(packing)`` in the narrowest fields that hold ``degree``, wider after an overflow."""
    # Lex starts at 16 bits: its reductions raise exponents far past the input's.
    for size in list(_FIELDS)[order == LEX :]:
        if degree >> 8 * size - 1 == 0:
            try:
                return run(_Packing(width, size, order))
            except _Overflow:
                pass
    raise ValueError("a Groebner computation outgrew 63-bit exponents")


@dataclass(slots=True)
class _Packed:
    """A polynomial inside `groebner`: its packed terms and their `_Packing`."""

    terms: list | dict
    packing: _Packing

    def is_zero(self) -> bool:
        return not self.terms


def _monic(terms: list) -> list:
    if terms[0][1] == 1:
        return terms
    inverse = _exact(Fraction(1, terms[0][1]))
    return [(k, _exact(c * inverse)) for k, c in terms]


def _reduce(terms, divisors, packing: _Packing) -> list:
    """Packed remainder of ``terms`` by prepared ``divisors``, largest first."""
    guards, mask, lex, overflow = packing.guards, packing.mask, packing.lex, packing.overflow
    work = terms if type(terms) is dict else dict(terms)  # a dict is worked in, not copied
    # Each monomial is pushed once, when it enters ``work``.  A step only adds
    # monomials below the one it reduces, so a popped monomial never comes
    # back; one that cancels keeps its zero in ``work`` and is skipped when
    # popped, and one that cancels and re-enters needs no second push.
    pending = [-k for k in work]
    heapify(pending)
    remainder = []
    while pending:
        k = -heappop(pending)
        coeff = work.pop(k)
        if not coeff:
            continue
        low = k if lex else -k & mask
        for d, lm, lc, tail in divisors:
            if not (low - d) & guards:
                shift = k - lm
                factor = coeff if lc == 1 else Fraction(coeff, lc)
                for t, c in tail:
                    moved = t + shift
                    previous = work.get(moved)
                    if previous is None:
                        if moved & overflow:
                            raise _Overflow
                        work[moved] = -factor * c
                        heappush(pending, -moved)
                    else:
                        work[moved] = previous - factor * c
                break
        else:
            remainder.append((k, coeff))
    return remainder


def normal_form(p: Polynomial | _Packed, divisors, order: str = GREVLEX) -> Polynomial | _Packed:
    """Remainder of full multivariate division of ``p`` by ``divisors``.

    Every term of the result is irreducible: divisible by no divisor's
    leading monomial.  Divisors are tried in the given order, so the
    output is deterministic for a fixed sequence.  Inside `groebner`, ``p``
    and the result are `_Packed` and ``divisors`` maps indices to prepared
    divisors.
    """
    if type(p) is _Packed:
        return _Packed(_reduce(p.terms, divisors.values(), p.packing), p.packing)
    divisors = [g for g in divisors if not g.is_zero()]

    def run(packing: _Packing) -> Polynomial:
        size, lex = packing.size, packing.lex
        prepared = [packing.prepare(_terms_in(g, size, lex)) for g in divisors]
        remainder = _reduce(_terms_in(p, size, lex), prepared, packing)
        return _from_acc(p.ring, dict(remainder), size, lex)

    return _packed_run(len(p.ring), order, max(_degrees([p, *divisors])), run)


def _s_polynomial(f: tuple, g: tuple, lcm: int, packing: _Packing) -> _Packed:
    """S-polynomial of two prepared monic divisors: their tails shifted up to ``lcm``, a dict."""
    (_, lf, _, tail_f), (_, lg, _, tail_g) = f, g
    acc = {t + lcm - lf: c for t, c in tail_f}
    for t, c in tail_g:
        moved = t + lcm - lg
        acc[moved] = acc.get(moved, 0) - c
    if lcm > packing.limit or packing.overflow and any(k & packing.overflow for k in acc):
        raise _Overflow
    return _Packed(acc, packing)


# When set, `groebner` writes one line of stats here per basis (``--verbose``).
stats_stream: IO[str] | None = None


def groebner(ideal: Ideal, order: str = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of ``ideal`` for the requested monomial order.

    Buchberger's algorithm with the Gebauer–Möller pair update (Becker and
    Weispfenning's UPDATE), followed by minimalization and full tail
    reduction, on packed monomials from start to end (`_Packing`; a run
    that outgrows its fields starts again with wider ones).  Basis elements
    are monic and sorted with the largest leading monomial first.
    ``stats`` counts every `normal_form` call as a reduction; its maxima
    run over every element that entered the divisor set.
    """
    if order not in MONOMIAL_ORDERS:
        raise ValueError(f"unknown monomial order {order!r}")
    generators = [g for g in ideal.generators if not g.is_zero()]
    run = partial(_buchberger, ideal, order, generators)
    return _packed_run(len(ideal.ring), order, max(_degrees(generators), default=0), run)


def _buchberger(ideal: Ideal, order: str, generators: list, packing: _Packing) -> GroebnerBasis:
    guards, lcm = packing.guards, packing.lcm
    names = ("pairs", "product_skips", "gm_skips", "reductions", "zero_reductions", "peak_divisors")
    count = dict.fromkeys(names, 0)
    basis: list[list] = []  # every element ever added, monic, by index
    # Every element's prepared tuple: a queued pair can outlive its elements'
    # membership in the divisor set.
    prepared: list[tuple] = []
    members: dict[int, tuple] = {}  # the divisor set
    # Pairs pop in order of (lcm, i, j); the lcm's plain fields ride along.
    pairs: list[tuple] = []
    incoming = [_monic(_terms_in(g, packing.size, packing.lex)) for g in reversed(generators)]
    while incoming or pairs:
        if incoming:
            h = incoming.pop()
        else:
            m, i, j, _ = heappop(pairs)
            r = normal_form(_s_polynomial(prepared[i], prepared[j], m, packing), members, order)
            count["reductions"] += 1
            if r.is_zero():
                count["zero_reductions"] += 1
                continue
            h = _monic(r.terms)
        new, d = len(basis), packing.prepare(h)
        lm = d[0]  # the plain fields of lm(h)
        basis.append(h)
        prepared.append(d)
        # lcm(lm_i, lm) of every member i, for both passes below.
        with_h = {i: lcm(p[0], lm) for i, p in members.items()}

        def low_with_h(i: int) -> int:
            return with_h[i][1] if i in with_h else lcm(prepared[i][0], lm)[1]

        # Gebauer–Möller.  An old pair goes if lm divides its lcm, unless the
        # lcm is also that of one of its elements with h.
        kept_pairs = [
            pair for pair in pairs
            if (pair[3] - lm) & guards or pair[3] in (low_with_h(pair[1]), low_with_h(pair[2]))
        ]
        if len(kept_pairs) < len(pairs):
            count["gm_skips"] += len(pairs) - len(kept_pairs)
            pairs = kept_pairs
            heapify(pairs)
        # A new pair goes if another new pair's lcm divides its own; of equal
        # lcms one stays, a coprime one if there is one.  Smallest lcm first, so
        # only kept pairs need checking.  Coprime survivors prune, then go.
        fresh = sorted((m, low != members[i][0] + lm, i, low) for i, (m, low) in with_h.items())
        count["pairs"] += len(fresh)
        kept: list[int] = []
        for m, shares, i, low in fresh:
            for other in kept:
                if not (low - other) & guards:
                    count["gm_skips"] += 1
                    break
            else:
                kept.append(low)
                if shares:
                    heappush(pairs, (m, i, new, low))
                else:
                    count["product_skips"] += 1
        # Elements whose leading monomial lm divides leave the divisor set.
        members = {i: p for i, p in members.items() if (p[0] - lm) & guards}
        members[new] = d
        count["peak_divisors"] = max(count["peak_divisors"], len(members))

    # Drop input generators whose leading monomial an earlier element's
    # divides, then tail-reduce each element against the others in one pass.
    keep = [
        i for i in members
        if all((prepared[i][0] - prepared[j][0]) & guards for j in members if j < i)
    ]
    reduced = [
        normal_form(_Packed(basis[i], packing), {j: members[j] for j in keep if j != i}, order)
        for i in keep
    ]
    count["reductions"] += len(keep)
    reduced = sorted((_monic(r.terms) for r in reduced), key=lambda t: t[0][0], reverse=True)
    if packing.lex:
        monomials = packing.unpack([k for terms in basis for k, _ in terms])
        count["max_degree"] = max(map(sum, monomials), default=0)
    else:  # each leading key's degree, as `Polynomial.total_degree` reads it
        top = packing.mask.bit_length()
        count["max_degree"] = max((-(-terms[0][0] >> top) for terms in basis), default=0)
    count["max_terms"] = max(map(len, basis), default=0)
    sizes = [x.bit_length() for terms in basis for _, c in terms for x in c.as_integer_ratio()]
    count["max_coeff_bits"] = max(sizes, default=0)
    if stats_stream is not None:
        line = " ".join(f"{k}={v}" for k, v in count.items())
        print(f"groebner {order}, {len(ideal.ring)} variables: {line}", file=stats_stream)
    basis_out = tuple(_from_acc(ideal.ring, dict(t), packing.size, packing.lex) for t in reduced)
    return GroebnerBasis(ideal, order, basis_out, count, packing)


def ideal_member(p: Polynomial, gb: GroebnerBasis) -> bool:
    """True iff the normal form of ``p`` modulo the basis is zero.

    Only ``p`` is packed, in the basis's own fields when its degree fits
    them; an operand that needs wider fields goes through `normal_form`.
    """
    if p.ring != gb.ring:
        raise RingMismatchError("polynomial ring does not match the basis ring")
    packing = gb._packing
    if packing is not None and p.total_degree() < 1 << packing.bits - 1:
        try:
            return not _reduce(_terms_in(p, packing.size, packing.lex), gb._divisors, packing)
        except _Overflow:
            pass
    return normal_form(p, gb.basis, gb.order).is_zero()


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def linear_kernel(rows: Sequence[Sequence], width: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix, via exact RREF.

    ``width`` is only needed for a matrix with no rows.  The basis vectors
    are indexed by the free columns in increasing order, each with a 1 in
    its free coordinate; the kernel dimension is the length of the result.
    """
    matrix = [[Fraction(_exact(x)) for x in row] for row in rows]
    if matrix:
        widths = {len(row) for row in matrix}
        if len(widths) != 1:
            raise ValueError("matrix rows have unequal lengths")
        width = widths.pop()
    elif width is None:
        raise ValueError("width is required for a matrix with no rows")

    pivot_cols: list[int] = []
    row = 0
    for col in range(width):
        pivot = next((r for r in range(row, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        scale = matrix[row][col]
        matrix[row] = [x / scale for x in matrix[row]]
        for r in range(len(matrix)):
            if r != row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[row])]
        pivot_cols.append(col)
        row += 1

    free_cols = [c for c in range(width) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vector = [Fraction(0)] * width
        vector[free] = Fraction(1)
        for r, col in enumerate(pivot_cols):
            vector[col] = -matrix[r][free]
        basis.append(vector)
    return basis


# ---------------------------------------------------------------------------
# Text syntax
# ---------------------------------------------------------------------------

# A variable name `parse_polynomial` reads back.
VARIABLE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_TOKEN = rf"\d+(?:/\d+)?|{VARIABLE_NAME.pattern}|[-+*^]"
_PRECEDENCES = {"+": 1, "-": 1, "*": 2, "^": 3}


_TABLE_POWERS = 16


@lru_cache(maxsize=1024)
def _powers(name: str) -> tuple[str, ...]:
    """How ``name`` prints to the powers 0 .. 16: ``("", x, x^2, ..., x^16)``."""
    return ("", name, *(f"{name}^{k}" for k in range(2, _TABLE_POWERS + 1)))


def format_polynomial(p: Polynomial) -> str:
    """Deterministic text form: terms in descending grevlex order.

    Monomials print as ``coef*var^exp*...`` with unit coefficients and
    unit exponents elided, e.g. ``3*x1_11^2*t1 - 1``.  Powers up to 16 come
    from a table per variable name (the last 1,024 names are cached); a
    term with a higher power is spelled out, so no table grows with an
    exponent.
    """
    if not p._terms:
        return "0"
    tables = [*map(_powers, p.ring)]
    pieces = []
    rows = _packer(len(p.ring), p._size)[1]([k for k, _ in p._terms])
    for exponents, (_, coeff) in zip(rows, p._terms):
        try:
            monomial = "*".join(filter(None, map(getitem, tables, exponents)))
        except IndexError:  # a power above the tables
            monomial = "*".join(f"{x}^{e}" if e > 1 else x for x, e in zip(p.ring, exponents) if e)
        magnitude = abs(coeff)
        if magnitude != 1:
            text = str(magnitude)
            monomial = f"{text}*{monomial}" if monomial else text
        pieces += " - " if coeff < 0 else " + ", monomial or "1"
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse the textual polynomial syntax over the given ring.

    Grammar: an optional sign, then terms joined by ``+``/``-``; a term is
    ``*``-separated factors, each a rational literal, ``var`` or ``var^k``
    with k an unsigned integer literal.  The text is read by
    `groups.to_postfix`, and every error names its 1-based column.
    """
    ring = tuple(ring)
    index = {name: i for i, name in enumerate(ring)}

    def read(operand) -> list:
        """``operand`` as a term ``[coefficient, exponents]``; a token is read here."""
        if type(operand) is list:
            return operand
        token, column = operand
        exponents = [0] * len(ring)
        if token[0].isdigit():
            return [read_number(token, column, PolynomialParseError), exponents]
        if token not in index:
            raise PolynomialParseError(f"unknown variable {token!r}", column)
        exponents[index[token]] = 1
        return [1, exponents]

    tokens = tokenize(text, _TOKEN, PolynomialParseError)
    if not tokens:
        raise PolynomialParseError("empty polynomial", 1)
    # Operands are (token, column) pairs until read.  ``+`` leaves its right
    # term on the stack and ``-`` negates it, so the stack ends as the terms.
    stack: list = []
    for token, column in to_postfix(tokens, _PRECEDENCES, PolynomialParseError):
        if token == "^":
            (power, at), base = stack.pop(), stack[-1]
            if type(base) is list or base[0][0].isdigit():
                raise PolynomialParseError("'^' must follow a variable", column)
            if not power.isdigit():
                raise PolynomialParseError("expected integer exponent after '^'", at)
            stack[-1] = read(base)
            stack[-1][1][index[base[0]]] = read_number(power, at, PolynomialParseError)
        elif token == "*":
            left, right = read(stack[-2]), read(stack.pop())
            stack[-1] = [left[0] * right[0], [*map(add, left[1], right[1])]]
        elif token in ("-", "u-"):
            coefficient, exponents = read(stack[-1])
            stack[-1] = [-coefficient, exponents]
        elif token not in ("+", "u+"):
            stack.append((token, column))
    result: dict[Exponents, Coefficient] = {}
    for coefficient, exponents in map(read, stack):
        exponents = tuple(exponents)
        result[exponents] = result.get(exponents, 0) + coefficient
    return Polynomial.from_dict(ring, result)
