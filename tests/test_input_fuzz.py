"""Fuzzing of the text readers behind the CLI: every input gets exit 0 or 2.

Random and mutated texts go through `cli.run` as generator terms, words,
Lie relators and polynomial strings in a target JSON.  No exception may
escape, and a refusal is exactly one ``error:`` line on stderr.
"""

from __future__ import annotations

import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from hopfrep.cli import run

SYNTAX = list("()[],.*+-/^:' 0123456789abuxeS")


def _term(text, directory):
    return ["normalize", "--term", text]


def _word(text, directory):
    return ["reduce", "--n", "2", "--word", text]


def _lie(text, directory):
    path = directory / "lie.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "relators": [text]}))
    return ["lie-rep-ideal", "--source", str(path), "--target", "abelian:2"]


def _polynomial(text, directory):
    # The additive group with the fuzzed text as its antipode.
    path = directory / "group.json"
    group = {
        "variables": ["u"],
        "counit": {"u": 0},
        "delta": {"u": "u' + u''"},
        "antipode": {"u": text},
    }
    path.write_text(json.dumps(group))
    return ["cotangent", "--target", str(path)]


# reader -> (argv builder, pieces to join, valid seeds to mutate)
READERS = {
    "term": (
        _term,
        ["mu", "delta", "S", "eta", "eps", "tau", "id:0", "id:1", "id:2", " . ", "*", "(", ")"],
        ["mu . (id:1 * S) . delta", "(mu * mu) . (id:1 * tau * id:1) . (delta * delta)"],
    ),
    "word": (
        _word,
        ["x1", "x2", "x3", "^", "-", "2", "e", " "],
        ["x1 x2 x1^-1", "x2^2 e x1^-3"],
    ),
    "lie": (
        _lie,
        ["a", "b", "c", "[", "]", ",", "(", ")", "+", "-", "*", "2", "1/2", "0", " "],
        ["[a,[a,b]] - 2*b", "3 a + [b, -a]", "-(1/2*[a,b])"],
    ),
    "polynomial": (
        _polynomial,
        ["u", "u'", "w", "2", "1/2", "0", "*", "^", "+", "-", "(", ")", " "],
        ["-1*u", "-u + 0*u^2", "1/2*u - 3/2*u"],
    ),
}


def _mutate(seed: str, position: int, drop: int, char: str) -> str:
    """Insert, replace or delete one character of ``seed``."""
    position %= len(seed) + 1
    return seed[:position] + char + seed[position + drop :]


def _texts(pieces, seeds):
    # Numbers stay below three digits: a wider identity or a higher power is
    # a valid request whose answer grows with it, not a reader fault.
    return st.one_of(
        st.text(max_size=16),
        st.lists(st.sampled_from(pieces), max_size=12).map("".join),
        st.builds(
            _mutate,
            st.sampled_from(seeds),
            st.integers(0, 80),
            st.integers(0, 1),
            st.one_of(st.sampled_from(SYNTAX), st.characters(), st.just("")),
        ),
    ).filter(lambda text: not re.search(r"\d{3}", text))


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_answers_or_refuses_in_one_line(tmp_path_factory, reader):
    argv_for, pieces, seeds = READERS[reader]
    directory = tmp_path_factory.mktemp(reader)

    @settings(max_examples=60, deadline=None)
    @given(_texts(pieces, seeds))
    def check(text):
        out, err = io.StringIO(), io.StringIO()
        code = run(argv_for(text, directory), out=out, err=err)
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")

    check()
