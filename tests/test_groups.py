"""Words, presentations, finite groups, homomorphism enumeration."""

from __future__ import annotations

import itertools
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfrep.groups import (
    FiniteGroup,
    FreeWord,
    GroupPresentation,
    GroupTableError,
    WordError,
    WordParseError,
    cyclic_group,
    enumerate_homs,
    evaluate_word,
    format_word,
    make_finite_group,
    parse_word,
    symmetric_group,
)


def W(text, names=("a", "b", "c")):
    return parse_word(text, names)


# -- free words --------------------------------------------------------------


def test_concat_reduces():
    ab = W("a b", ("a", "b"))
    binv = W("b^-1", ("a", "b"))
    assert ab * binv == W("a", ("a", "b"))


def test_inverse():
    assert W("a b", ("a", "b")).inverse() == W("b^-1 a^-1", ("a", "b"))


def test_substitute_with_reduction():
    w = parse_word("x1 x2 x1^-1", ("x1", "x2"))
    images = (W("a b", ("a", "b")), W("b", ("a", "b")))
    assert w.substitute(images) == W("a b a^-1", ("a", "b"))


def test_substitute_identity_tuple():
    rng = random.Random(7)
    for _ in range(50):
        letters = tuple(
            (rng.randint(1, 3), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))
        )
        w = FreeWord(3, letters)
        idt = tuple(FreeWord.generator(3, i) for i in (1, 2, 3))
        assert w.substitute(idt) == w


def test_substitute_functorial():
    # substituting twice equals substituting by the composite tuple
    rng = random.Random(11)
    for _ in range(60):
        w = FreeWord(
            2,
            tuple((rng.randint(1, 2), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))),
        )
        T = tuple(
            FreeWord(3, tuple((rng.randint(1, 3), rng.choice((1, -1))) for _ in range(3)))
            for _ in range(2)
        )
        U = tuple(
            FreeWord(2, tuple((rng.randint(1, 2), rng.choice((1, -1))) for _ in range(3)))
            for _ in range(3)
        )
        left = w.substitute(T).substitute(U)
        right = w.substitute(tuple(t.substitute(U) for t in T))
        assert left == right


def test_reduction_idempotent_and_shorter():
    raw = ((1, 1), (2, 1), (2, -1), (1, -1), (1, 1))
    w = FreeWord(2, raw)
    assert len(w.letters) <= len(raw)
    assert FreeWord(2, w.letters) == w


def test_word_validation():
    with pytest.raises(WordError):
        FreeWord(1, ((2, 1),))
    with pytest.raises(WordError):
        FreeWord(1, ((1, 2),))
    with pytest.raises(WordError):
        FreeWord(2, ()).substitute((FreeWord(1),))


def test_word_parse_and_format():
    w = W("a^2 b^-3 a", ("a", "b"))
    assert format_word(w) == "x1^2 x2^-3 x1"
    assert format_word(FreeWord(2)) == "e"
    with pytest.raises(WordParseError):
        W("a$", ("a",))
    with pytest.raises(WordParseError):
        W("q", ("a",))


def test_format_word_memory_follows_the_word_not_the_rank():
    word = FreeWord(10**6, ((10**6, 1),))
    tracemalloc.start()
    try:
        assert format_word(word) == "x1000000"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_word_over_x_names_reads_only_the_names_it_meets():
    # An int alphabet is x1..xn, named as it is read; every answer, error
    # included, is the one the spelled-out alphabet gives.
    texts = ("x1 x2^-3 x1", "x10 x12^2", "e", "x0", "x01", "x13", "x", "y1", "x" + "9" * 5000)
    for rank, text in itertools.product((0, 1, 9, 10, 12), texts):
        try:
            expected = parse_word(text, [f"x{i}" for i in range(1, rank + 1)])
        except WordParseError as err:
            with pytest.raises(WordParseError, match=re.escape(str(err))):
                parse_word(text, rank)
        else:
            assert parse_word(text, rank) == expected, (rank, text)
    assert parse_word("x1000000 x1^-1", 10**6).letters == ((10**6, 1), (1, -1))
    with pytest.raises(WordParseError, match="unknown generator 'x1000001'"):
        parse_word("x1000001", 10**6)


def test_word_longer_than_the_size_limit_is_refused():
    assert len(W("a^1000000", ("a",))) == 10**6
    with pytest.raises(WordParseError, match="'a' makes the word longer than 1000000 letters"):
        W("a^1000000 a", ("a",))
    with pytest.raises(WordParseError, match="'a\\^-100000000000'"):
        W("a^-100000000000", ("a",))


_X1, _Y1 = FreeWord.generator(1, 1), FreeWord.generator(2, 1)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: FreeWord(-1), WordError, "rank must be non-negative"),
        (lambda: _X1 * _Y1, WordError, "rank mismatch: 1 vs 2"),
        (lambda: FreeWord.identity(0).substitute([]), WordError, "target rank is required"),
        (lambda: _Y1.substitute([_X1, _Y1]), WordError, "images have unequal ranks"),
        (lambda: _X1.substitute([_X1], rank=2), WordError, "images have unequal ranks"),
        (lambda: FiniteGroup.from_table([]), GroupTableError, "empty table"),
        (lambda: FiniteGroup.from_table([[0]], ["e", "f"]), GroupTableError, "number of element names"),
    ],
    ids=[
        "negative-rank", "product-ranks", "no-images", "image-ranks", "target-rank",
        "empty-table", "names",
    ],
)
def test_malformed_words_and_tables_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


# -- presentations -----------------------------------------------------------


def test_presentation_json_roundtrip(tmp_path):
    data = {"generators": ["a", "b"], "relators": ["a b a^-1 b^-1"]}
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(data))
    pres = GroupPresentation.from_json(path)
    assert pres.n_generators == 2
    assert pres == GroupPresentation(("a", "b"), (parse_word("a b a^-1 b^-1", ("a", "b")),))


def test_presentation_mapping_is_checked_like_a_file():
    data = {"generators": ["a", "b"], "relators": ["a b a^-1 b^-1"]}
    assert GroupPresentation.from_json(data) == GroupPresentation(
        ("a", "b"), (parse_word("a b a^-1 b^-1", ("a", "b")),)
    )
    assert GroupPresentation.from_json({"generators": ["a"]}) == GroupPresentation(("a",))
    with pytest.raises(WordError, match='"relators" must be a list of strings'):
        GroupPresentation.from_json({"generators": ["a"], "relators": "a^2"})
    with pytest.raises(WordError, match='missing key "generators"'):
        GroupPresentation.from_json({"relators": []})


def test_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation(("a", "a"))
    with pytest.raises(WordError):
        GroupPresentation(("a",), (FreeWord(2, ((2, 1),)),))


# -- finite groups -----------------------------------------------------------


def test_cyclic_trivial():
    g = cyclic_group(1)
    assert g.order == 1 and g.identity == 0


def test_symmetric_three():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert s3.names[s3.identity] == "e"


def test_symmetric_table_is_the_composition_table():
    # Entry (p, q) is "p then q": position i of the product is q[p[i]].
    for k in range(1, 6):
        group = symmetric_group(k)
        elements = sorted(itertools.permutations(range(k)))
        position = {p: i for i, p in enumerate(elements)}
        expected = [[position[tuple(q[p[i]] for i in range(k))] for q in elements] for p in elements]
        assert group.table == tuple(map(tuple, expected))


def test_invalid_tables_rejected():
    with pytest.raises(GroupTableError):
        # left-to-right composition table that is not associative
        FiniteGroup.from_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(GroupTableError):
        FiniteGroup.from_table([[1, 0], [1, 0]])  # no identity
    with pytest.raises(GroupTableError):
        FiniteGroup.from_table([[0, 1], [1, 2]])  # not closed


def _table_error_oracle(table):
    """The first failure of a group table, searched entry by entry; None for a group."""
    n = len(table)
    identity = next(
        (e for e in range(n) if all(table[e][a] == a == table[a][e] for a in range(n))), None
    )
    if identity is None:
        return "table has no two-sided identity"
    for a in range(n):
        if not any(table[a][b] == identity == table[b][a] for b in range(n)):
            return f"element {a} has no two-sided inverse"
    generators, reached = [], {identity}
    for a in range(n):
        if a not in reached:
            generators.append(a)
            reached |= {a}
            while True:
                more = {table[x][y] for x in reached for y in reached} - reached
                if not more:
                    break
                reached |= more
    for t in generators:
        for a in range(n):
            for b in range(n):
                if table[table[a][t]][b] != table[a][table[t][b]]:
                    return f"associativity fails at ({a}, {t}, {b})"
    return None


# The smallest loop that is not a group: a Latin square with identity 0.
_LOOP_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_table_checks_name_the_first_failure_an_entry_search_names():
    rng = random.Random(431)
    tables = [_LOOP_5, [[0, 1, 2], [1, 2, 0], [2, 1, 0]], [[1, 0], [1, 0]]]
    for _ in range(40):  # relabeled loops, and group tables with one entry changed
        relabel = list(range(5))
        rng.shuffle(relabel)
        loop = [[0] * 5 for _ in range(5)]
        for a, b in itertools.product(range(5), repeat=2):
            loop[relabel[a]][relabel[b]] = relabel[_LOOP_5[a][b]]
        tables.append(loop)
        broken = [list(row) for row in rng.choice((symmetric_group(3), cyclic_group(6))).table]
        a, b = rng.randrange(6), rng.randrange(6)
        broken[a][b] = rng.randrange(6)
        tables.append(broken)
    failures = 0
    for table in tables:
        expected = _table_error_oracle(table)
        if expected is None:
            assert FiniteGroup.from_table(table).table == tuple(map(tuple, table))
            continue
        failures += expected.startswith("associativity")
        with pytest.raises(GroupTableError) as err:
            FiniteGroup.from_table(table)
        assert str(err.value) == expected, table
    assert failures >= 40


def test_make_finite_group_specs(tmp_path):
    assert make_finite_group("cyclic:3").order == 3
    assert make_finite_group("sym:3").order == 6
    path = tmp_path / "k4.json"
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    path.write_text(json.dumps({"table": table}))
    assert make_finite_group(str(path)).order == 4
    with pytest.raises(GroupTableError):
        make_finite_group("nonsense:9")


def test_shipped_finite_groups_are_built_once(tmp_path):
    assert make_finite_group("sym:4") is make_finite_group("sym:4")
    assert make_finite_group("cyclic:5") is make_finite_group("cyclic:5")
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"table": [[0]]}))
    assert make_finite_group(str(path)).order == 1
    path.write_text(json.dumps({"table": [[0, 1], [1, 0]]}))
    assert make_finite_group(str(path)).order == 2


def test_cyclic_order_is_capped_at_720():
    for k in (0, 721, 100_000):
        with pytest.raises(GroupTableError, match="1 <= k <= 720"):
            make_finite_group(f"cyclic:{k}")


def test_power_and_order():
    s3 = symmetric_group(3)
    swap = s3.names.index("(1 2)")
    assert evaluate_word(parse_word("x1", 1), [swap], s3) != s3.identity
    assert evaluate_word(parse_word("x1^2", 1), [swap], s3) == s3.identity
    assert evaluate_word(parse_word("x1^-1", 1), [swap], s3) == swap


# -- evaluation --------------------------------------------------------------


def test_evaluate_identity_word(s3):
    assert evaluate_word(FreeWord(2), [0, 1], s3) == s3.identity


def test_evaluate_involution(s3):
    swap = s3.names.index("(1 2)")
    w = parse_word("x1^2", ("x1",))
    assert evaluate_word(w, [swap], s3) == s3.identity


def test_evaluate_commutator_is_three_cycle(s3):
    a = s3.names.index("(1 2)")
    b = s3.names.index("(0 2)")
    w = parse_word("x1 x2 x1^-1 x2^-1", ("x1", "x2"))
    result = evaluate_word(w, [a, b], s3)
    assert result != s3.identity
    assert evaluate_word(parse_word("x1^3", 1), [result], s3) == s3.identity


def test_evaluate_length_mismatch(s3):
    with pytest.raises(WordError):
        evaluate_word(FreeWord(2), [0], s3)


# -- homomorphism enumeration -------------------------------------------------


def _scan_homs(source, target):
    """Independent oracle: full scan of all image tuples."""
    n = source.n_generators
    found = []
    for images in itertools.product(range(target.order), repeat=n):
        if all(
            evaluate_word(r, list(images), target) == target.identity
            for r in source.relators
        ):
            found.append(images)
    return found


@pytest.mark.parametrize(
    "relator_text, expected",
    [("a^2", 4), ("a^3", 3), ("a^6", 6)],
)
def test_enumerate_cyclic_into_s3(relator_text, expected, s3):
    pres = GroupPresentation(("a",), (parse_word(relator_text, ("a",)),))
    homs = enumerate_homs(pres, s3)
    assert len(homs) == expected
    assert homs == _scan_homs(pres, s3)


def test_enumerate_free_counts(s3):
    c4 = cyclic_group(4)
    for target in (s3, c4):
        for n in range(0, 4):
            homs = enumerate_homs(GroupPresentation.free(n), target)
            assert len(homs) == target.order**n


def test_enumeration_sorted_and_exhaustive(s3):
    pres = GroupPresentation(
        ("a", "b"),
        (
            parse_word("a^2", ("a", "b")),
            parse_word("b^3", ("a", "b")),
            parse_word("a b a^-1 b", ("a", "b")),
        ),
    )
    homs = enumerate_homs(pres, s3)
    assert homs == sorted(homs)
    assert homs == _scan_homs(pres, s3)
    # this is a presentation of S_3 itself: 1 trivial + 3 sign-like + 6 isos
    assert len(homs) == 10


@pytest.fixture(scope="module")
def relabelled_s3(tmp_path_factory):
    """S_3 read from a JSON table whose identity sits at index 4, not 0."""
    s3 = symmetric_group(3)
    order = [1, 2, 4, 5, 0, 3]  # new index i is old element order[i]
    position = {old: new for new, old in enumerate(order)}
    table = [[position[s3.table[a][b]] for b in order] for a in order]
    path = tmp_path_factory.mktemp("groups") / "s3_relabelled.json"
    path.write_text(json.dumps({"table": table, "names": [s3.names[e] for e in order]}))
    group = make_finite_group(str(path))
    assert group.identity == 4 and group.table[0][1] != group.table[1][0]
    return group


@st.composite
def _presentations(draw):
    """Ranks 0-3; each relator stops at a drawn depth, and may be empty."""
    rank = draw(st.integers(0, 3))
    relators = []
    for depth in draw(st.lists(st.integers(0, rank), max_size=3)):
        letters = st.tuples(st.integers(1, depth), st.sampled_from((1, -1)))
        relators.append(FreeWord(rank, tuple(draw(st.lists(letters, max_size=8))) if depth else ()))
    return GroupPresentation(("a", "b", "c")[:rank], tuple(relators))


def _pres(rank, *texts):
    names = ("a", "b", "c")[:rank]
    return GroupPresentation(names, tuple(parse_word(t, names) if t else FreeWord(rank) for t in texts))


@settings(max_examples=150, deadline=None)
@given(_presentations(), st.sampled_from(("sym:3", "cyclic:4", "relabelled")))
@example(_pres(0, ""), "relabelled")
@example(_pres(3, "", "a b^-1"), "sym:3")  # stops short of the last generator
@example(_pres(2, "a b a^-1 b^-2"), "relabelled")  # b: both signs, several times
@example(_pres(3, "c^-1 a c b a^-1 c^-1", "b^2"), "relabelled")
@example(_pres(2, "a^3", "a b a^-1 b"), "cyclic:4")
def test_enumerate_homs_matches_the_full_scan(relabelled_s3, pres, spec):
    target = relabelled_s3 if spec == "relabelled" else make_finite_group(spec)
    assert enumerate_homs(pres, target) == _scan_homs(pres, target)
