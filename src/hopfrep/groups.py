"""Free-group words, finite presentations, and finite groups.

Words are kept freely reduced at all times.  Finite groups are plain
multiplication tables validated on construction (identity, inverses, and
associativity via Light's test on a greedily found generating set), with
homomorphism enumeration by backtracking over generator images.
`JsonObject` reads every JSON input file of the package, `read_spec` every spec.

Convention: products read left to right, ``mul(g, h)`` applies ``g``
first, so permutations compose as ``(g*h)(i) = h(g(i))``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence


class WordError(ValueError):
    """Rank mismatch or malformed word data."""


class GroupTableError(ValueError):
    """A purported multiplication table is not a group law."""


class WordParseError(ValueError):
    """Malformed word text; carries the offending token."""


class ParseError(ValueError):
    """Malformed input text; carries the 1-based column of the fault when known."""

    def __init__(self, message: str, column: int | None = None) -> None:
        super().__init__(message if column is None else f"column {column}: {message}")
        self.column = column


# The largest word length, rank or identity width read from text; a larger
# one is refused before anything of that size is built.
SIZE_LIMIT = 10**6


def read_size(digits: str) -> int:
    """The decimal ``[-]digits`` as an int, or ``SIZE_LIMIT + 1`` signed if it has more digits.

    Such a size is past the limit whatever its value, so it never reaches
    ``int()``, which refuses strings of more than 4,300 digits.
    """
    magnitude = digits.lstrip("-").lstrip("0") or "0"
    size = int(magnitude) if len(magnitude) <= len(str(SIZE_LIMIT)) else SIZE_LIMIT + 1
    return -size if digits.startswith("-") else size


# ---------------------------------------------------------------------------
# Free words
# ---------------------------------------------------------------------------


def _free_reduce(letters: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    stack: list[tuple[int, int]] = []
    for index, exponent in letters:
        if stack and stack[-1][0] == index and stack[-1][1] == -exponent:
            stack.pop()
        else:
            stack.append((index, exponent))
    return tuple(stack)


def _word(rank: int, letters: tuple[tuple[int, int], ...]) -> FreeWord:
    """A word built unchecked (fields set in the instance dict) from valid ``letters``."""
    word = object.__new__(FreeWord)
    fields = word.__dict__
    fields["rank"], fields["letters"] = rank, letters
    return word


def _substitute(words: Sequence[FreeWord], images: Sequence[FreeWord], rank: int) -> tuple:
    """``words`` with ``x<i>`` replaced by ``images[i-1]``; the caller checks every rank."""
    table: dict = {}  # letter -> its image's letters, an inverse built on first use
    out = []
    for word in words:
        letters: list = []
        for letter in word.letters:
            if letter not in table:
                image = images[letter[0] - 1]
                table[letter] = (image if letter[1] == 1 else image.inverse()).letters
            letters += table[letter]
        out.append(_word(rank, _free_reduce(letters)))
    return tuple(out)


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in the free group on ``rank`` generators.

    Letters are pairs ``(generator index, exponent)`` with 1-based indices
    and exponents +1 or -1; the empty tuple is the identity.  Construction
    checks and reduces the letter sequence, so adjacent inverse pairs never
    survive; operations build their valid results unchecked, by `_word`.
    """

    rank: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise WordError("rank must be non-negative")
        for index, exponent in self.letters:
            if not 1 <= index <= self.rank:
                raise WordError(f"letter index {index} outside 1..{self.rank}")
            if exponent not in (1, -1):
                raise WordError(f"letter exponent must be +1 or -1, got {exponent}")
        object.__setattr__(self, "letters", _free_reduce(self.letters))

    @staticmethod
    def identity(rank: int) -> "FreeWord":
        return FreeWord(rank, ())

    @staticmethod
    def generator(rank: int, index: int) -> "FreeWord":
        return FreeWord(rank, ((index, 1),))

    @staticmethod
    def generators(rank: int) -> tuple["FreeWord", ...]:
        """``x1 .. x_rank``: one letter each is reduced and in range."""
        return tuple(_word(rank, ((i, 1),)) for i in range(1, rank + 1))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise WordError(f"rank mismatch: {self.rank} vs {other.rank}")
        return _word(self.rank, _free_reduce(self.letters + other.letters))

    def inverse(self) -> "FreeWord":
        return _word(self.rank, tuple((i, -e) for i, e in reversed(self.letters)))

    def substitute(
        self, images: Sequence["FreeWord"], rank: int | None = None
    ) -> "FreeWord":
        """Replace generator ``i`` by ``images[i-1]`` (inverted under negative letters).

        All images must share one rank, which becomes the rank of the
        result; for a rank-0 word the target ``rank`` must be passed since
        there is no image to infer it from.
        """
        if len(images) != self.rank:
            raise WordError(
                f"substitution needs {self.rank} images, got {len(images)}"
            )
        ranks = {w.rank for w in images}
        if rank is not None:
            ranks.add(rank)
        if not ranks:
            raise WordError("target rank is required when substituting with no images")
        if len(ranks) != 1:
            raise WordError("substitution images have unequal ranks")
        return _substitute((self,), images, ranks.pop())[0]

    def __str__(self) -> str:
        return format_word(self)


_WORD_TOKEN = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)(?:\^(?P<exp>-?\d+))?$")


def _x_position(rank: int, name: str) -> int | None:
    """``i`` if ``name`` is ``x<i>`` with ``1 <= i <= rank``, else None."""
    digits = name[1:]
    if name[:1] != "x" or not digits.isdigit() or digits[0] == "0":
        return None
    return int(digits) if len(digits) <= len(str(rank)) and int(digits) <= rank else None


def parse_word(text: str, names: Sequence[str] | int) -> FreeWord:
    """Parse space-separated ``name`` / ``name^k`` tokens over the alphabet ``names``.

    The token ``e`` denotes the identity when no generator shadows it.  An
    int ``n`` stands for ``x1 .. xn``, the letters `format_word` prints by
    default; each is read from its digits, so the cost follows the text, not n.
    """
    if isinstance(names, int):
        rank, position = names, functools.partial(_x_position, names)
    else:
        rank, position = len(names), {name: i + 1 for i, name in enumerate(names)}.get
    letters: list[tuple[int, int]] = []
    for token in text.split():
        if token == "e" and position("e") is None:
            continue
        match = _WORD_TOKEN.match(token)
        if match is None:
            raise WordParseError(f"bad word token {token!r}")
        name = match.group("name")
        index = position(name)
        if index is None:
            raise WordParseError(f"unknown generator {name!r}")
        exponent = read_size(match.group("exp")) if match.group("exp") else 1
        if len(letters) + abs(exponent) > SIZE_LIMIT:
            raise WordParseError(f"{token!r} makes the word longer than {SIZE_LIMIT} letters")
        sign = 1 if exponent > 0 else -1
        letters.extend(((index, sign),) * abs(exponent))
    return FreeWord(rank, tuple(letters))


def format_word(word: FreeWord) -> str:
    """Render a word with runs collapsed (``x1^2 x2^-1``); identity prints as ``e``."""
    if not word.letters:
        return "e"
    runs: list[tuple[int, int]] = []
    for index, exponent in word.letters:
        if runs and runs[-1][0] == index and (runs[-1][1] > 0) == (exponent > 0):
            runs[-1] = (index, runs[-1][1] + exponent)
        else:
            runs.append((index, exponent))
    # Each letter is named as it is printed, so the cost follows the word, not the rank.
    return " ".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in runs)


# ---------------------------------------------------------------------------
# Operator-precedence reader
# ---------------------------------------------------------------------------


def tokenize(text: str, token: str, error: type[ParseError]) -> list[tuple[str, int]]:
    """Split ``text`` into matches of the pattern ``token``, each with its 1-based column.

    Whitespace between tokens is skipped; a character that starts no token
    raises ``error`` at its column.
    """
    tokens: list[tuple[str, int]] = []
    for match in re.finditer(rf"\s*(?:(?P<token>{token})|(?P<bad>\S))", text):
        if match["bad"]:
            raise error(f"unexpected character {match['bad']!r}", match.start("bad") + 1)
        tokens.append((match["token"], match.start("token") + 1))
    return tokens


def read_number(token: str, column: int, error: type[ParseError]) -> int | Fraction:
    """An unsigned ``k`` or ``k/m`` as an exact number; a fault raises ``error`` at ``column``."""
    try:
        return Fraction(token) if "/" in token else int(token)
    except ZeroDivisionError:
        raise error(f"zero denominator in {token!r}", column) from None
    except ValueError:  # more digits than `int()` reads
        raise error(f"a number of {len(token)} characters is too long", column) from None


def to_postfix(
    tokens: Sequence[tuple[str, int]], precedences: Mapping[str, int], error: type[ParseError]
) -> list[tuple[str, int]]:
    """Reorder infix ``(token, column)`` pairs into postfix with explicit stacks (shunting yard).

    Tokens in ``precedences`` are left-associative binary operators, higher
    binding tighter; ``+`` or ``-`` at the start of the text or of a group
    is a prefix sign, written ``u+`` / ``u-`` in the output and binding as
    its binary form.  ``( )`` groups, ``[x, y]`` comes out as ``x y []``
    (at the column of ``]``), and every other token is an operand.  Every
    token keeps its column; malformed input raises ``error`` at the column
    of the fault.
    """
    output: list[tuple[str, int]] = []
    pending: list[tuple[int, str, int]] = []  # operators and open groups; groups rank -1
    openers = (None, "(", "[", ",")
    previous, end = None, 1
    for token, column in tokens:
        want_operand = previous in openers or previous in precedences
        if token in ("(", "["):
            if not want_operand:
                raise error(f"unexpected {token!r} after an operand", column)
            pending.append((-1, token, column))
        elif token in (")", "]", ","):
            if want_operand:
                raise error(f"unexpected {token!r}", column)
            while pending and pending[-1][0] >= 0:
                output.append(pending.pop()[1:])
            opener = {")": "(", ",": "[", "]": ","}[token]
            if not pending or pending.pop()[1] != opener:
                raise error(f"unbalanced {token!r}", column)
            if token == ",":
                pending.append((-1, ",", column))
            elif token == "]":
                output.append(("[]", column))
        elif token in precedences:
            rank = precedences[token]
            if want_operand:
                if token not in ("+", "-") or previous not in openers:
                    raise error(f"unexpected {token!r}", column)
                pending.append((rank, "u" + token, column))
            else:
                while pending and pending[-1][0] >= rank:
                    output.append(pending.pop()[1:])
                pending.append((rank, token, column))
        elif want_operand:
            output.append((token, column))
        else:
            raise error(f"unexpected {token!r} after an operand", column)
        previous, end = token, column + len(token)
    if previous in openers or previous in precedences:
        raise error("unexpected end of input", end)
    while pending:
        rank, op, column = pending.pop()
        if rank < 0:
            raise error(f"unclosed {op!r}", column)
        output.append((op, column))
    return output


# ---------------------------------------------------------------------------
# JSON input files
# ---------------------------------------------------------------------------


class JsonObject:
    """One JSON object of an input ``kind``, read from a file or given as a mapping.

    Every fault is raised as the caller's ``error`` class with a one-line
    message naming the file or the key: a file that cannot be read, text
    that is not JSON, nests past the recursion limit or holds a number too
    long for `int()`, a top level that is not an object, a missing key, or
    a field of the wrong type.
    """

    def __init__(self, source, kind: str, error: type[ValueError]) -> None:
        self.kind = kind
        self.error = error
        self.origin = f"{kind} JSON" if isinstance(source, Mapping) else f"{kind} JSON {source}"
        if isinstance(source, Mapping):
            self.data = source
            return
        try:
            text = Path(source).read_text()
        except OSError as err:
            raise error(f"cannot read {source}: {err.strerror}")
        try:
            self.data = json.loads(text)
        except json.JSONDecodeError as err:
            raise error(f"{source}: line {err.lineno} column {err.colno}: {err.msg}")
        except ValueError:  # a number literal with more digits than `int()` reads
            raise error(f"{source}: a number is too long")
        except RecursionError:
            raise error(f"{source}: JSON nests too deeply")
        if not isinstance(self.data, dict):
            raise self.fail("expected an object")

    def fail(self, message: str) -> ValueError:
        return self.error(f"{self.kind} JSON: {message}")

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def __getitem__(self, key: str):
        if key not in self.data:
            raise self.fail(f'missing key "{key}"')
        return self.data[key]

    def get(self, key: str, default):
        return self.data.get(key, default)

    def rational(self, key: str, value) -> Fraction:
        """``value``, found under ``key``, as a rational: a number or a string like "-3/4"."""
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            raise self.error(f'{self.origin}: "{key}" holds {value!r}, not a rational') from None

    def array(self, key: str, depth: int = 1, leaf=str, what: str = "strings") -> tuple:
        """The ``depth`` times nested list of ``leaf`` values under ``key``, which must exist."""
        def fits(x, levels: int) -> bool:
            if levels == 0:
                return isinstance(x, leaf)
            return isinstance(x, list) and all(fits(y, levels - 1) for y in x)

        if not fits(self[key], depth):
            raise self.fail(f'"{key}" must be a list of {"lists of " * (depth - 1)}{what}')
        return tuple(self[key])


# At most 640 digits: `int()` reads that many under any `sys.set_int_max_str_digits` limit.
_SPEC = re.compile(r"(?P<family>[^:]*:)(?P<k>-?[0-9]{1,640})|(?P<name>[^:]*)")


@functools.lru_cache(maxsize=None)
def _build_shipped(builder: Callable, k: int | None):
    """A shipped object, built and validated once per process."""
    return builder() if k is None else builder(k)


def read_spec(spec, kind: str, error: type[ValueError], shipped: Mapping[str, Callable], read):
    """The object a spec names: ``shipped[name]()``, ``shipped[name:](k)`` or a JSON file.

    ``k`` is written ``-?[0-9]+`` with at most 640 digits, and each (builder,
    k) is built once per process.  Any other spec naming an existing path is
    given to ``read`` as a `JsonObject`; the empty spec names none.
    """
    text = str(spec)
    match = _SPEC.fullmatch(text)
    key = match and (match["family"] or match["name"])
    if key in shipped:
        return _build_shipped(shipped[key], None if match["k"] is None else int(match["k"]))
    if os.path.exists(text):
        return read(JsonObject(Path(text), kind, error))
    raise error(f"unknown {kind} spec {text!r}")


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Named generators and relators; a subclass sets ``error`` and ``parse_relator``."""

    generators: tuple[str, ...]
    relators: tuple = ()

    def __post_init__(self) -> None:
        if len(set(self.generators)) != len(self.generators):
            raise self.error("generator names must be distinct")

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    @classmethod
    def free(cls, n: int):
        return cls(tuple(f"x{i}" for i in range(1, n + 1)), ())

    @classmethod
    def from_json(cls, source):
        """Read ``{"generators": [...], "relators": [...]}`` from a path or a mapping."""
        data = JsonObject(source, "presentation", cls.error)
        generators = data.array("generators")
        texts = data.array("relators") if "relators" in data else ()
        return cls(generators, tuple(cls.parse_relator(text, generators) for text in texts))


class GroupPresentation(Presentation):
    """A finitely presented group: relators are words, each ``r`` imposing ``r = e``.

    The empty relator list presents a free group.
    """

    error = WordError
    parse_relator = staticmethod(parse_word)

    def __post_init__(self) -> None:
        super().__post_init__()
        for r in self.relators:
            if r.rank != len(self.generators):
                raise WordError("relator rank does not match generator count")


# ---------------------------------------------------------------------------
# Finite groups
# ---------------------------------------------------------------------------


def _closure(rows: Sequence[tuple], columns: Sequence[tuple], seed: set[int]) -> set[int]:
    """The smallest superset of ``seed`` holding ``a b`` and ``b a`` for each two members."""
    current = set(seed)
    frontier = set(seed)
    while frontier:
        fresh: set[int] = set()
        for a in frontier:
            fresh.update(map(rows[a].__getitem__, current), map(columns[a].__getitem__, current))
        frontier = fresh - current
        current |= frontier
    return current


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a validated multiplication table.

    ``table[a][b]`` is the product "a then b".  ``names`` are display
    labels only; all computation happens on indices.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]
    names: tuple[str, ...]

    @staticmethod
    def from_table(
        table: Sequence[Sequence[int]], names: Sequence[str] | None = None
    ) -> "FiniteGroup":
        n = len(table)
        if n == 0:
            raise GroupTableError("empty table")
        rows = tuple(tuple(row) for row in table)
        for row in rows:
            if len(row) != n or min(row) < 0 or max(row) >= n:
                raise GroupTableError("table is not square over element indices")
        # Whole rows and columns are compared at once; each check names the
        # element or triple a search entry by entry would name first.
        columns = tuple(zip(*rows))
        elements = tuple(range(n))
        identity = next((e for e in elements if rows[e] == elements == columns[e]), None)
        if identity is None:
            raise GroupTableError("table has no two-sided identity")

        inverses = []
        for a, row in enumerate(rows):
            inverse = row.index(identity) if identity in row else None
            if inverse is None or rows[inverse][a] != identity:  # then the table is no group
                inverse = next(
                    (b for b in elements if row[b] == identity and rows[b][a] == identity), None
                )
                if inverse is None:
                    raise GroupTableError(f"element {a} has no two-sided inverse")
            inverses.append(inverse)

        # Light's associativity test: full associativity follows from
        # associativity of all triples (a, t, b) with t in a generating set.
        generators: list[int] = []
        reached = {identity}
        for a in elements:
            if a not in reached:
                generators.append(a)
                reached = _closure(rows, columns, reached | {a})
        for t in generators:  # n > 1, so each ``then_t`` gives a tuple
            row_t, then_t = rows[t], itemgetter(*rows[t])
            for a, row in enumerate(rows):
                row_at = rows[row[t]]
                if row_at != then_t(row):
                    b = next(b for b in elements if row_at[b] != row[row_t[b]])
                    raise GroupTableError(f"associativity fails at ({a}, {t}, {b})")

        if names is None:
            names = tuple(str(i) for i in range(n))
        else:
            names = tuple(names)
            if len(names) != n:
                raise GroupTableError("wrong number of element names")
        return FiniteGroup(n, rows, identity, tuple(inverses), names)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inverses[a]


def _cycle_notation(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append("(" + " ".join(str(x) for x in cycle) + ")")
    return "".join(cycles) if cycles else "e"


def cyclic_group(k: int) -> FiniteGroup:
    """Z/k with elements ``g^i``, 1 <= k <= 720 (the order of S_6): the table has k² entries."""
    if not 1 <= k <= 720:
        raise GroupTableError("cyclic group supported for 1 <= k <= 720")
    table = [[(a + b) % k for b in range(k)] for a in range(k)]
    return FiniteGroup.from_table(table, [f"g^{i}" for i in range(k)])


def symmetric_group(k: int) -> FiniteGroup:
    """S_k on {0..k-1}; elements in lexicographic one-line order, k <= 6."""
    if not 1 <= k <= 6:
        raise GroupTableError("symmetric group supported for 1 <= k <= 6")
    elements = sorted(itertools.permutations(range(k)))
    position = {p: i for i, p in enumerate(elements)}
    # Entry (p, q) is q o p = itemgetter(*p)(q), but for k = 1 that is no tuple.
    compose = [itemgetter(*p) for p in elements] if k > 1 else [tuple]
    table = [[*map(position.__getitem__, map(get, elements))] for get in compose]
    return FiniteGroup.from_table(table, [_cycle_notation(p) for p in elements])


def _finite_group_from_json(data: JsonObject) -> FiniteGroup:
    names = data.array("names") if "names" in data else None
    return FiniteGroup.from_table(data.array("table", 2, int, "integers"), names)


_SHIPPED_FINITE_GROUPS = {"cyclic:": cyclic_group, "sym:": symmetric_group}


def make_finite_group(spec: str) -> FiniteGroup:
    """Build a finite group from a spec string, never from a built group.

    Accepted forms: ``cyclic:k`` (1 <= k <= 720), ``sym:k`` (1 <= k <= 6), or a
    path to JSON ``{"table": [[...]], "names": [...]}``.  A shipped group is
    built and validated once per process; a JSON file is read on every call.
    """
    return read_spec(
        spec, "finite group", GroupTableError, _SHIPPED_FINITE_GROUPS, _finite_group_from_json
    )


# ---------------------------------------------------------------------------
# Word evaluation and homomorphism enumeration
# ---------------------------------------------------------------------------


def evaluate_word(word: FreeWord, images: Sequence[int], group: FiniteGroup) -> int:
    """Product of the images along the word; identity for the empty word."""
    if len(images) != word.rank:
        raise WordError(
            f"word of rank {word.rank} needs {word.rank} images, got {len(images)}"
        )
    result = group.identity
    for index, exponent in word.letters:
        factor = images[index - 1]
        if exponent == -1:
            factor = group.inverses[factor]
        result = group.table[result][factor]
    return result


def enumerate_homs(
    source: GroupPresentation, target: FiniteGroup
) -> list[tuple[int, ...]]:
    """All homomorphisms source -> target as tuples of generator images.

    Backtracking over generator images in index order: once a prefix fixes
    every generator of a relator but its last, x, the relator is folded once
    into ``c0 x^e1 c1 ... x^ek ck`` and its conjugate ``x^e1 c1 ... x^ek
    (ck c0)`` is tested for every candidate x by table lookups.  The output
    is the tuples killing every relator, in lexicographic order.
    """
    n = source.n_generators
    table, inverses, identity = target.table, target.inverses, target.identity
    by_depth: list[list] = [[] for _ in range(n + 1)]  # depth 0: empty relators, always killed
    for relator in source.relators:
        by_depth[max((i for i, _ in relator.letters), default=0)].append(relator.letters)
    results: list[tuple[int, ...]] = []
    images, pending = [], []

    def survivors(depth: int) -> Sequence[int]:
        """The images of generator ``depth`` that kill its relators after ``images``."""
        keep: Sequence[int] = range(target.order)
        for letters in by_depth[depth]:
            signs, constants = [], [identity]
            for index, exponent in letters:
                if index == depth:
                    signs.append(exponent > 0)
                    constants.append(identity)
                else:
                    g = images[index - 1]
                    constants[-1] = table[constants[-1]][g if exponent > 0 else inverses[g]]
            constants[-1] = table[constants[-1]][constants[0]]
            values, inverted = [identity] * len(keep), [inverses[x] for x in keep]
            for positive, c in zip(signs, constants[1:]):
                factors = keep if positive else inverted
                values = [table[table[v][x]][c] for v, x in zip(values, factors)]
            keep = [x for x, v in zip(keep, values) if v == identity]
        return keep

    def descend() -> None:
        if len(images) < n - 1:
            pending.append(iter(survivors(len(images) + 1)))
        else:
            prefix = tuple(images)
            results.extend([prefix + (x,) for x in survivors(n)])

    if n == 0:
        return [()]
    descend()
    while pending:
        x = next(pending[-1], None)
        del images[len(pending) - 1 :]
        if x is None:
            pending.pop()
        else:
            images.append(x)
            descend()
    return results
