"""Pinned Groebner counters and bases.

Every basis a `variety` benchmark job computes, and one lex ideal on which
the Gebauer–Möller update once ran slower, with the full `stats` dict and
the SHA-256 of the printed basis (one element per line).  A change to
Buchberger's loop that keeps the pair order, the criteria and the divisor
order reproduces all of them byte for byte.
"""

from __future__ import annotations

import hashlib

import pytest

from hopfrep import alggroups, groups, repvariety
from hopfrep.polyalg import GREVLEX, LEX, Ideal, groebner, parse_polynomial

_GROUPS = {
    "Z2": (["a", "b"], ["a b a^-1 b^-1"]),
    "Z/2": (["a"], ["a^2"]),
    "Z/3": (["a"], ["a^3"]),
    "BS(1,2)": (["a", "b"], ["a b a^-1 b^-2"]),
}

_KEYS = (
    "pairs", "product_skips", "gm_skips", "reductions", "zero_reductions",
    "peak_divisors", "max_degree", "max_terms", "max_coeff_bits",
)

# (group, target, order or trace word): (basis length, SHA-256 of the printed
# basis, the nine counters in `_KEYS` order).  A trace job pins the basis of
# its extended ring, the one `check_observable_invariance` computes.
_PINS = {
    ("Z2", "sl:2", GREVLEX): (
        9, "b1a8a67154be7d8ce03dd3d1eeac9ffdf63b4927c7cf0c22a30b7862e3a59932",
        (334, 3, 261, 79, 44, 17, 5, 11, 1),
    ),
    ("Z2", "sl:2", LEX): (
        7, "358ae52033251e0bfbd74428c2c08cfddec59a22cfd1425a874bcb2de9bcfa9a",
        (79, 10, 43, 33, 16, 7, 5, 10, 1),
    ),
    ("Z2", "gl:2", GREVLEX): (
        9, "aed6e4847da4c11d0be7e8b2104741db1a9296a16b0b93a6da4b2c70a64ea690",
        (397, 3, 303, 100, 59, 16, 7, 11, 1),
    ),
    ("Z2", "gl:2", LEX): (
        7, "b9a0be96564304a59db18c9158c9de184ed05ed1622d1909fad8effec8484d4b",
        (93, 9, 55, 36, 17, 7, 7, 10, 1),
    ),
    ("Z/2", "sl:3", GREVLEX): (
        18, "4bfab095372a53996ff09cfed5d506ec44a5a0bcee3a0a54e93e238b8c5da240",
        (732, 13, 617, 120, 67, 26, 3, 10, 2),
    ),
    ("Z/2", "sl:3", LEX): (
        15, "9d8316bb8b83d4541dfd0079c42c3247b4e6cf687d1b3f017fef047b1ed66046",
        (888, 2, 659, 242, 181, 24, 6, 16, 2),
    ),
    ("Z/3", "sl:2", GREVLEX): (
        5, "1fa5cdbd775c90486338641a83ac6468c579b26d7a60bbaa21089ef1546dd1d7",
        (41, 1, 24, 21, 10, 6, 3, 6, 2),
    ),
    ("BS(1,2)", "sl:2", GREVLEX): (
        18, "3f512188e50bc0a8ea12897f198c84d55e8381e08c7ea5a11da1999887f5657e",
        (1003, 11, 844, 166, 87, 25, 6, 29, 3),
    ),
    ("Z/2", "sl:3", "tr a"): (
        19, "27749e63c74261cc3a0bb2b67492d1d86ea84088d2304d727dd858234c04f663",
        (777, 58, 617, 121, 67, 27, 3, 10, 2),
    ),
    ("Z2", "sl:2", "tr a b"): (
        10, "22898024e0aa9f0178286c40c962b78a7b153b81a0a1037576bc9eb254d05d00",
        (366, 33, 263, 80, 44, 18, 5, 11, 1),
    ),
}


def _assert_pinned(gb, pin):
    length, digest, counters = pin
    text = "\n".join(map(str, gb.basis))
    assert list(gb.stats.items()) == list(zip(_KEYS, counters))
    assert (len(gb.basis), hashlib.sha256(text.encode()).hexdigest()) == (length, digest)


@pytest.mark.parametrize("job", list(_PINS), ids=" ".join)
def test_variety_bases_and_counters_are_pinned(job, monkeypatch):
    group_name, spec, what = job
    generators, relators = _GROUPS[group_name]
    group = groups.GroupPresentation.from_json({"generators": generators, "relators": relators})
    target = alggroups.make_group(spec)
    if what.startswith("tr "):
        computed = []

        def recording(ideal, order=GREVLEX):
            computed.append(groebner(ideal, order))
            return computed[-1]

        monkeypatch.setattr(repvariety, "groebner", recording)
        word = groups.parse_word(what[3:], group.generators)
        assert repvariety.check_trace_invariance(word, group, target) is True
        (gb,) = computed
    else:
        gb = groebner(repvariety.rep_ideal(group, target).ideal, what)
    _assert_pinned(gb, _PINS[job])


def test_lex_ideal_slowed_by_the_pair_update_is_pinned():
    ring = ("x", "y", "z")
    generators = ("-3*x^3*y*z^3 - 2*x^3*y^2*z - x*y^2*z", "x^3*z^2 - 1/2*y^2*z + 3*x^2")
    gb = groebner(Ideal(ring, tuple(parse_polynomial(g, ring) for g in generators)), LEX)
    _assert_pinned(gb, (
        6, "6941a9866a78d8548c0e96691b9df1ac895000c1c0b0f153d2287fe8037cc0b5",
        (160, 0, 121, 45, 11, 7, 29, 81, 27),
    ))
