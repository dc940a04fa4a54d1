"""The PROP of cocommutative Hopf algebras, in free-group normal form.

A morphism ``[n] -> [m]`` is an m-tuple of freely reduced words on n
letters; composition is componentwise word substitution and the tensor
product shifts letter indices.  Formal composites of the six generating
operations (multiplication, comultiplication, antipode, unit, counit,
symmetry) are normalized by evaluating them into this model, which makes
equality of composites decidable without any rewriting on terms.

The module also carries two concrete Hopf-algebra models with a generic
structural evaluator (`hopf_action`), and the reduction of a linear
combination of words to its multilinear part supported on permutation
words (`multilinear_reduce`), whose correctness is cross-checked against
the tensor-algebra model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .groups import FiniteGroup, FreeWord, ParseError, evaluate_word, format_word
from .groups import SIZE_LIMIT, _substitute, _word, read_size, to_postfix, tokenize


class ArityError(ValueError):
    """Domains and codomains do not line up."""


class TermSyntaxError(ParseError):
    """Malformed generator-term text."""


class BasisLabelError(ValueError):
    """A basis label that is not one of the model's."""


# ---------------------------------------------------------------------------
# Morphisms in normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HMorphism:
    """A morphism ``[dom] -> [cod]``: one rank-``dom`` word per output."""

    dom: int
    cod: int
    words: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        if self.dom < 0 or self.cod < 0:
            raise ArityError("arities must be non-negative")
        if len(self.words) != self.cod:
            raise ArityError(f"expected {self.cod} words, got {len(self.words)}")
        for w in self.words:
            if w.rank != self.dom:
                raise ArityError(f"word rank {w.rank} does not match domain {self.dom}")

    def __str__(self) -> str:
        return format_hmorphism(self)


def _morphism(dom: int, cod: int, words: tuple[FreeWord, ...]) -> HMorphism:
    """A morphism built without the checks, for ``cod`` rank-``dom`` words by construction."""
    h = object.__new__(HMorphism)
    fields = h.__dict__
    fields["dom"], fields["cod"], fields["words"] = dom, cod, words
    return h


def identity_morphism(n: int) -> HMorphism:
    return _morphism(n, n, FreeWord.generators(n))


# Name -> morphism of the six generating operations.
GENERATORS = {
    "mu": HMorphism(2, 1, (FreeWord(2, ((1, 1), (2, 1))),)),
    "delta": HMorphism(1, 2, (FreeWord.generator(1, 1), FreeWord.generator(1, 1))),
    "antipode": HMorphism(1, 1, (FreeWord(1, ((1, -1),)),)),
    "eta": HMorphism(0, 1, (FreeWord.identity(0),)),
    "epsilon": HMorphism(1, 0, ()),
    "tau": HMorphism(2, 2, (FreeWord.generator(2, 2), FreeWord.generator(2, 1))),
}


def generator_morphism(name: str) -> HMorphism:
    """The free-group-tuple interpretation of one generating operation.

    mu ``(2->1)``: x1 x2; delta ``(1->2)``: (x1, x1); antipode: x1^-1;
    eta ``(0->1)``: e; epsilon ``(1->0)``: (); tau ``(2->2)``: (x2, x1).
    """
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}")
    return GENERATORS[name]


def compose_h(f: HMorphism, g: HMorphism) -> HMorphism:
    """``f`` then ``g``; each word of ``g`` has f's words substituted in."""
    if f.cod != g.dom:  # raises; checked here first to keep the common case cheap
        _compose_arity((f.dom, f.cod), (g.dom, g.cod))
    return _morphism(f.dom, g.cod, _substitute(g.words, f.words, f.dom))


def _compose_arity(f: tuple[int, int], g: tuple[int, int]) -> tuple[int, int]:
    """``(dom, cod)`` of arities ``f`` then ``g``, refused unless they meet."""
    if f[1] != g[0]:
        raise ArityError(f"cannot compose [{f[0]}]->[{f[1]}] with [{g[0]}]->[{g[1]}]")
    return f[0], g[1]


def tensor_h(f: HMorphism, g: HMorphism) -> HMorphism:
    """Side-by-side juxtaposition; g's letters are shifted past f's domain.

    A result wider than `SIZE_LIMIT` raises ArityError before it is built.
    """
    (dom, cod), offset = _tensor_arity((f.dom, f.cod), (g.dom, g.cod)), f.dom
    words = [_word(dom, w.letters) for w in f.words]
    words += [_word(dom, tuple([(i + offset, e) for i, e in w.letters])) for w in g.words]
    return _morphism(dom, cod, tuple(words))


def _tensor_arity(f: tuple[int, int], g: tuple[int, int]) -> tuple[int, int]:
    """``(dom, cod)`` of a tensor of arities ``f`` and ``g``, refused above `SIZE_LIMIT`."""
    dom, cod = f[0] + g[0], f[1] + g[1]
    if dom > SIZE_LIMIT or cod > SIZE_LIMIT:
        raise ArityError(f"a tensor of width {max(dom, cod)} is more than {SIZE_LIMIT}")
    return dom, cod


def format_hmorphism(h: HMorphism) -> str:
    inner = "; ".join(format_word(w) for w in h.words)
    return f"[{h.dom}]->[{h.cod}]: ({inner})"


# ---------------------------------------------------------------------------
# Generator terms
# ---------------------------------------------------------------------------


class GeneratorTerm:
    """Formal expression over the generating operations; see subclasses.

    A term is typed as it is built: each node stores its ``(dom, cod)``,
    worked out from its children's, so a composite whose arities do not
    meet, or one wider than `SIZE_LIMIT`, raises ArityError and never exists.
    """

    _arity: tuple[int, int]

    def arity(self) -> tuple[int, int]:
        """``(dom, cod)`` of the term, stored when it was built."""
        return self._arity


@dataclass(frozen=True)
class Gen(GeneratorTerm):
    name: str

    def __post_init__(self) -> None:
        morphism = generator_morphism(self.name)
        object.__setattr__(self, "_arity", (morphism.dom, morphism.cod))


@dataclass(frozen=True)
class Id(GeneratorTerm):
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ArityError("identity width must be non-negative")
        if self.width > SIZE_LIMIT:
            raise ArityError(f"identity width {self.width} is more than {SIZE_LIMIT}")
        object.__setattr__(self, "_arity", (self.width, self.width))


@dataclass(frozen=True)
class Compose(GeneratorTerm):
    """``outer`` after ``inner`` (the inner term acts first)."""

    outer: GeneratorTerm
    inner: GeneratorTerm

    def __post_init__(self) -> None:
        object.__setattr__(self, "_arity", _compose_arity(self.inner._arity, self.outer._arity))


@dataclass(frozen=True)
class Tensor(GeneratorTerm):
    left: GeneratorTerm
    right: GeneratorTerm

    def __post_init__(self) -> None:
        object.__setattr__(self, "_arity", _tensor_arity(self.left._arity, self.right._arity))


def eval_term(term: GeneratorTerm) -> HMorphism:
    """Normalize a formal composite to its free-group-tuple morphism.

    Two terms equal modulo the Hopf relations evaluate to the same
    HMorphism.  The term was typed when it was built, so evaluation meets
    no arity fault and no width past `SIZE_LIMIT`.
    """
    return _fold_term(term, generator_morphism, identity_morphism, compose_h, tensor_h)


def _fold_term(term: GeneratorTerm, generator, identity, compose, tensor):
    """``term`` folded bottom up.

    Leaves go to ``generator(name)`` and ``identity(width)``, nodes to
    ``compose(inner, outer)`` and ``tensor(left, right)``.  The walk keeps
    its own stack, so the depth of a term is bounded only by memory.
    """
    pending: list = [term]
    values: list = []
    while pending:
        node = pending.pop()
        kind = type(node)
        if kind is Compose:
            pending += (compose, node.outer, node.inner)
        elif kind is Tensor:
            pending += (tensor, node.right, node.left)
        elif kind is Gen:
            values.append(generator(node.name))
        elif kind is Id:
            values.append(identity(node.width))
        elif node is compose or node is tensor:
            second = values.pop()
            values[-1] = node(values[-1], second)
        else:
            raise TypeError(f"not a generator term: {node!r}")
    return values[0]


_TERM_TOKEN = r"id:\d+|[A-Za-z]+|[.*()]"
_TERM_LEAVES = {
    "mu": "mu",
    "delta": "delta",
    "S": "antipode",
    "eta": "eta",
    "eps": "epsilon",
    "tau": "tau",
}
_TERM_PRECEDENCES = {".": 1, "*": 2}


def parse_term(text: str) -> GeneratorTerm:
    """Parse the generator-term syntax.

    ``.`` is composition (right factor acts first), ``*`` is the tensor
    product and binds tighter; both associate to the left.  Leaves are
    ``mu``, ``delta``, ``S``, ``eta``, ``eps``, ``tau`` and ``id:<k>`` with
    k at most `SIZE_LIMIT`.  Example: ``mu . (id:1 * S) . delta``.  Errors
    name their 1-based column.
    """
    tokens = tokenize(text, _TERM_TOKEN, TermSyntaxError)
    stack: list[GeneratorTerm] = []
    for token, column in to_postfix(tokens, _TERM_PRECEDENCES, TermSyntaxError):
        if token in _TERM_PRECEDENCES:
            right = stack.pop()
            stack[-1] = Compose(stack[-1], right) if token == "." else Tensor(stack[-1], right)
        elif token.startswith("id:"):
            width = read_size(token[3:])
            if width > SIZE_LIMIT:
                raise TermSyntaxError(f"{token!r} is wider than {SIZE_LIMIT}", column)
            stack.append(Id(width))
        elif token in _TERM_LEAVES:
            stack.append(Gen(_TERM_LEAVES[token]))
        else:
            raise TermSyntaxError(f"unknown symbol {token!r}", column)
    return stack[0]


# ---------------------------------------------------------------------------
# Axiom suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    number: int
    name: str
    holds: bool
    sides: tuple[HMorphism, ...]


def _axiom_terms() -> tuple[tuple[str, tuple[GeneratorTerm, ...]], ...]:
    mu, delta, S = Gen("mu"), Gen("delta"), Gen("antipode")
    eta, eps, tau = Gen("eta"), Gen("epsilon"), Gen("tau")
    i1 = Id(1)
    return (
        ("associativity", (Compose(mu, Tensor(mu, i1)), Compose(mu, Tensor(i1, mu)))),
        ("unit", (Compose(mu, Tensor(eta, i1)), Compose(mu, Tensor(i1, eta)), i1)),
        (
            "coassociativity",
            (Compose(Tensor(i1, delta), delta), Compose(Tensor(delta, i1), delta)),
        ),
        ("counit", (Compose(Tensor(i1, eps), delta), Compose(Tensor(eps, i1), delta), i1)),
        (
            "multiplication-comultiplication compatibility",
            (
                Compose(delta, mu),
                Compose(
                    Compose(Tensor(mu, mu), Tensor(i1, Tensor(tau, i1))),
                    Tensor(delta, delta),
                ),
            ),
        ),
        (
            "antipode",
            (
                Compose(Compose(mu, Tensor(i1, S)), delta),
                Compose(eta, eps),
                Compose(Compose(mu, Tensor(S, i1)), delta),
            ),
        ),
        (
            "antipode-comultiplication compatibility",
            (Compose(delta, S), Compose(Compose(Tensor(S, S), tau), delta)),
        ),
        (
            "antipode-multiplication compatibility",
            (Compose(S, mu), Compose(Compose(mu, tau), Tensor(S, S))),
        ),
        ("cocommutativity", (Compose(tau, delta), delta)),
        ("involutive antipode", (Compose(S, S), i1)),
    )


_AXIOM_TERMS = _axiom_terms()  # terms are immutable and typed when built


def verify_axioms() -> list[AxiomCheck]:
    """Evaluate both sides of each Hopf axiom and compare the normal forms."""
    checks = []
    for number, (name, terms) in enumerate(_AXIOM_TERMS, start=1):
        sides = tuple(eval_term(t) for t in terms)
        holds = all(side == sides[0] for side in sides[1:])
        checks.append(AxiomCheck(number, name, holds, sides))
    return checks


# ---------------------------------------------------------------------------
# Linear combinations of morphisms
# ---------------------------------------------------------------------------


def _lc_add(acc: dict, extra: Mapping, factor: Fraction | int = 1) -> None:
    """Add ``factor * extra`` into ``acc`` in place, dropping zero coefficients."""
    for b, c in extra.items():
        value = acc.get(b, 0) + c * factor
        if value == 0:
            acc.pop(b, None)
        else:
            acc[b] = value


def _hmorphism_sort_key(h: HMorphism):
    return (h.dom, h.cod, tuple(w.letters for w in h.words))


@dataclass(frozen=True)
class LinHom:
    """A formal rational linear combination of parallel morphisms."""

    dom: int
    cod: int
    terms: tuple[tuple[HMorphism, Fraction], ...]

    def __post_init__(self) -> None:
        seen = set()
        for h, c in self.terms:
            if (h.dom, h.cod) != (self.dom, self.cod):
                raise ArityError("linear combination mixes arities")
            if c == 0:
                raise ValueError("zero coefficient stored")
            if h in seen:
                raise ValueError("duplicate morphism stored")
            seen.add(h)

    @staticmethod
    def from_dict(dom: int, cod: int, mapping: Mapping[HMorphism, Fraction]) -> "LinHom":
        terms = tuple(
            (h, mapping[h])
            for h in sorted(mapping, key=_hmorphism_sort_key)
            if mapping[h] != 0
        )
        return LinHom(dom, cod, terms)

    @staticmethod
    def of(h: HMorphism, coefficient=Fraction(1)) -> "LinHom":
        return LinHom.from_dict(h.dom, h.cod, {h: Fraction(coefficient)})

    def __add__(self, other: "LinHom") -> "LinHom":
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise ArityError("cannot add combinations of different arities")
        acc = dict(self.terms)
        _lc_add(acc, dict(other.terms))
        return LinHom.from_dict(self.dom, self.cod, acc)

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return format_linhom(self)


def format_linhom(element: LinHom) -> str:
    """Words only, coefficients in front: ``(x1 x2) - (x2 x1)``; empty sum is ``0``."""
    if not element.terms:
        return "0"
    pieces = []
    for position, (h, c) in enumerate(element.terms):
        body = "(" + "; ".join(format_word(w) for w in h.words) + ")"
        magnitude = abs(c)
        prefix = "" if magnitude == 1 else f"{magnitude}*"
        if position == 0:
            pieces.append(f"{prefix}{body}" if c > 0 else f"-{prefix}{body}")
        else:
            pieces.append(f"+ {prefix}{body}" if c > 0 else f"- {prefix}{body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# Hopf models and the generic structural evaluator
# ---------------------------------------------------------------------------

Basis = Union[int, tuple]
Element = dict  # basis label -> Fraction


@dataclass(frozen=True)
class GroupAlgebraModel:
    """The group algebra of a finite group: basis = element indices.

    Basis elements are group-like: the coproduct duplicates, the counit
    is 1, and the antipode inverts.
    """

    group: FiniteGroup

    def unit(self) -> Element:
        return {self.group.identity: Fraction(1)}

    def mul(self, a: int, b: int) -> Element:
        return {self.group.mul(a, b): Fraction(1)}

    def comul(self, a: int) -> Element:
        return {(a, a): Fraction(1)}

    def antipode(self, a: int) -> Element:
        return {self.group.inverse(a): Fraction(1)}

    def counit(self, a: int) -> Fraction:
        return Fraction(1)

    def check(self, a) -> None:
        if type(a) is not int or not 0 <= a < self.group.order:
            raise BasisLabelError(f"group element {a!r} is not in 0..{self.group.order - 1}")


@dataclass(frozen=True)
class TensorAlgebraModel:
    """Truncated tensor algebra on primitive generators ``v1..vg``.

    Basis labels are tuples of generator indices (noncommutative words);
    products above the truncation degree are dropped.  Generators are
    primitive, so the coproduct splits a word across all position subsets,
    the antipode reverses with sign ``(-1)^len``, and the counit kills
    everything but the empty word.
    """

    generators: int
    truncation: int

    def __post_init__(self) -> None:
        if self.truncation < 1:
            raise ValueError("truncation degree must be at least 1")

    def generator(self, index: int) -> Element:
        if not 1 <= index <= self.generators:
            raise ValueError(f"generator index {index} outside 1..{self.generators}")
        return {(index,): Fraction(1)}

    def unit(self) -> Element:
        return {(): Fraction(1)}

    def mul(self, a: tuple, b: tuple) -> Element:
        if len(a) + len(b) > self.truncation:
            return {}
        return {a + b: Fraction(1)}

    def comul(self, a: tuple) -> Element:
        out: Element = {}
        for mask in range(1 << len(a)):
            left = tuple(a[i] for i in range(len(a)) if mask >> i & 1)
            right = tuple(a[i] for i in range(len(a)) if not mask >> i & 1)
            _lc_add(out, {(left, right): Fraction(1)})
        return out

    def antipode(self, a: tuple) -> Element:
        return {tuple(reversed(a)): Fraction(-1) ** len(a)}

    def counit(self, a: tuple) -> Fraction:
        return Fraction(1) if a == () else Fraction(0)

    def check(self, a) -> None:
        g, t = self.generators, self.truncation
        if type(a) is not tuple or len(a) > t or not all(type(i) is int and 1 <= i <= g for i in a):
            raise BasisLabelError(f"tensor word {a!r} is not a tuple over 1..{g} of length <= {t}")


HopfModel = Union[GroupAlgebraModel, TensorAlgebraModel]


def _as_element(model: HopfModel, value) -> Element:
    element = dict(value) if isinstance(value, dict) else {value: Fraction(1)}
    for label in element:
        model.check(label)
    return element


def _iterated_comul(model: HopfModel, element: Element, legs: int) -> dict:
    """Spread an element over ``legs`` tensor slots; keys are leg tuples."""
    current: dict = {(b,): c for b, c in element.items()}
    for _ in range(legs - 1):
        expanded: dict = {}
        for key, c in current.items():
            head, last = key[:-1], key[-1]
            for (left, right), c2 in model.comul(last).items():
                _lc_add(expanded, {head + (left, right): c * c2})
        current = expanded
    return current


def _word_product(model: HopfModel, slots: Sequence[tuple[Basis, int]]) -> Element:
    """Multiply slot values in order, taking antipodes on negative slots."""
    result = model.unit()
    for basis, exponent in slots:
        operand = model.antipode(basis) if exponent < 0 else {basis: Fraction(1)}
        combined: Element = {}
        for b1, c1 in result.items():
            for b2, c2 in operand.items():
                for b3, c3 in model.mul(b1, b2).items():
                    _lc_add(combined, {b3: c1 * c2 * c3})
        result = combined
    return result


def hopf_action(f: HMorphism, model: HopfModel, inputs: Sequence) -> dict:
    """Act by ``f`` on a tuple of model elements using only structural maps.

    Each input is copied with the iterated coproduct, one leg per
    occurrence of its letter across all output words (its counit scalar
    if it never occurs), legs in negative-exponent positions pass through
    the antipode, and each output word multiplies its slots in order.
    The result maps cod-tuples of basis labels to coefficients.  An input
    label outside the model raises `BasisLabelError`.
    """
    if len(inputs) != f.dom:
        raise ArityError(f"morphism with domain {f.dom} got {len(inputs)} inputs")
    elements = [_as_element(model, x) for x in inputs]

    occurrences: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, f.dom + 1)}
    for j, w in enumerate(f.words):
        for p, (index, _) in enumerate(w.letters):
            occurrences[index].append((j, p))

    scalar = Fraction(1)
    spreads: list[tuple[int, dict]] = []
    for i in range(1, f.dom + 1):
        count = len(occurrences[i])
        if count == 0:
            scalar *= sum(
                (c * model.counit(b) for b, c in elements[i - 1].items()),
                Fraction(0),
            )
        else:
            spreads.append((i, _iterated_comul(model, elements[i - 1], count)))
    if scalar == 0:
        return {}

    result: dict = {}
    for combo in itertools.product(*(s.items() for _, s in spreads)):
        coeff = scalar
        assignment: dict[tuple[int, int], Basis] = {}
        for (variable, _), (legs, c) in zip(spreads, combo):
            coeff *= c
            for slot, leg in zip(occurrences[variable], legs):
                assignment[slot] = leg
        if coeff == 0:
            continue
        word_values = []
        for j, w in enumerate(f.words):
            value = _word_product(
                model,
                [(assignment[(j, p)], exponent) for p, (_, exponent) in enumerate(w.letters)],
            )
            word_values.append(value)
        for parts in itertools.product(*(v.items() for v in word_values)):
            key = tuple(b for b, _ in parts)
            c = coeff
            for _, part_coeff in parts:
                c *= part_coeff
            _lc_add(result, {key: c})
    return result


def group_model_tuple_action(
    f: HMorphism, group: FiniteGroup, inputs: Sequence[int]
) -> tuple[int, ...]:
    """Direct word-substitution semantics on basis tuples, for cross-checks."""
    return tuple(evaluate_word(w, list(inputs), group) for w in f.words)


# ---------------------------------------------------------------------------
# Multilinear reduction
# ---------------------------------------------------------------------------

def _permutation_morphism(n: int, indices: Sequence[int]) -> HMorphism:
    return HMorphism(n, 1, (FreeWord(n, tuple((i, 1) for i in indices)),))


def reduce_word(word: FreeWord) -> dict[HMorphism, Fraction]:
    """Rewrite one word into its multilinear normal form.

    For primitive variables the multilinear part of a word is the sum, over
    every choice of exactly one occurrence per variable, of the permutation
    word those occurrences spell, signed by the product of their exponents;
    a word that misses a variable gives zero.  One left-to-right pass keeps
    the partial permutations chosen so far with integer coefficients and
    drops a state at the last occurrence of a variable it has not chosen, so
    the cost is the word length times the number of partial permutations
    alive at once.  The output is supported on permutation words: every
    variable exactly once, exponent +1.
    """
    last = {i: p for p, (i, _) in enumerate(word.letters)}
    if len(last) < word.rank:
        return {}
    states: dict[tuple[int, ...], int] = {(): 1}
    for p, (i, e) in enumerate(word.letters):
        step = {
            chosen: c
            for chosen, c in states.items()
            if i in chosen or p != last[i]
        }
        _lc_add(
            step,
            {chosen + (i,): c * e for chosen, c in states.items() if i not in chosen},
        )
        states = step
    return {
        _permutation_morphism(word.rank, chosen): Fraction(c)
        for chosen, c in states.items()
    }


def multilinear_reduce(element: LinHom) -> LinHom:
    """Reduce a combination of single-word morphisms to permutation words."""
    if element.cod != 1:
        raise ArityError("multilinear reduction expects codomain 1")
    acc: dict[HMorphism, Fraction] = {}
    for h, coefficient in element.terms:
        _lc_add(acc, reduce_word(h.words[0]), coefficient)
    return LinHom.from_dict(element.dom, 1, acc)


def multilinear_part(
    action_result: Mapping, n: int
) -> dict[HMorphism, Fraction]:
    """Extract the degree-(1,..,1) component of a tensor-model action on cod 1.

    Keys of ``action_result`` are 1-tuples of tensor-algebra words; the
    words that are permutations of ``1..n`` are converted back to
    permutation morphisms for comparison with `multilinear_reduce`.
    """
    out: dict[HMorphism, Fraction] = {}
    for (tensor_word,), coefficient in action_result.items():
        if sorted(tensor_word) == list(range(1, n + 1)):
            _lc_add(out, {_permutation_morphism(n, tensor_word): coefficient})
    return out
