"""Presentation independence: Rep(Γ, G) depends on the group Γ, not on how it is presented.

Two Tietze moves change a presentation but not the group:

- adding a consequence of the relators (a conjugate g r g^-1 by a letter, a
  product r s, a cyclic rotation or the inverse of a relator) leaves the
  ideal unchanged, so the reduced grevlex basis must be the same;
- adding a generator c with the relator c w^-1 for a short word w gives an
  isomorphic coordinate ring: replacing c's block by `pullback(w)` and each
  other block by itself maps the new ideal onto the old one.

Each comparison is symmetric, so it also covers removing such an addition.
The finite side must agree too: the `enumerate_homs` counts are equal.

This oracle cannot catch a target whose `matrix` is wrong for its group law,
such as a `torus:2` JSON with the matrix [["z1"]]: both presentations
inherit the same wrong matrix.  `test_point_counts.py` catches it by
comparing F_p point counts of the rep ideal with `enumerate_homs` into G(F_p).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrep.alggroups import block_ring, make_group, pullback
from hopfrep.groups import FreeWord, GroupPresentation, enumerate_homs, make_finite_group
from hopfrep.polyalg import Ideal, Polynomial, groebner
from hopfrep.repvariety import rep_ideal

# The four presentations of the `variety` benchmark.
GROUPS = {
    "Z2": {"generators": ["a", "b"], "relators": ["a b a^-1 b^-1"]},
    "Z/2": {"generators": ["a"], "relators": ["a^2"]},
    "Z/3": {"generators": ["a"], "relators": ["a^3"]},
    "BS(1,2)": {"generators": ["a", "b"], "relators": ["a b a^-1 b^-2"]},
}
PAIRS = [(g, t) for g in sorted(GROUPS) for t in ("sl:2", "gl:2")] + [("Z/2", "sl:3")]


def _letters(rank: int):
    """One letter (generator index, sign) of a word of the given rank."""
    return st.tuples(st.integers(1, rank), st.sampled_from((1, -1)))


@st.composite
def _with_consequence(draw, presentation: GroupPresentation) -> GroupPresentation:
    """The presentation with one consequence of its relators added."""
    relators = presentation.relators
    r = draw(st.sampled_from(relators))
    move = draw(st.sampled_from(("conjugate", "product", "rotation", "inverse")))
    if move == "conjugate":
        g = FreeWord(r.rank, (draw(_letters(r.rank)),))
        added = g * r * g.inverse()
    elif move == "product":
        added = r * draw(st.sampled_from(relators))
    elif move == "rotation":
        k = draw(st.integers(1, len(r) - 1))
        added = FreeWord(r.rank, r.letters[k:] + r.letters[:k])
    else:
        added = r.inverse()
    return GroupPresentation(presentation.generators, relators + (added,))


@st.composite
def _with_generator(draw, presentation: GroupPresentation):
    """The presentation with a generator c and the relator c w^-1 added, and w."""
    n = presentation.n_generators
    w = FreeWord(n, tuple(draw(st.lists(_letters(n), max_size=3))))
    c = FreeWord.generator(n + 1, n + 1)
    relators = tuple(FreeWord(n + 1, r.letters) for r in presentation.relators)
    added = c * FreeWord(n + 1, w.letters).inverse()
    return GroupPresentation(presentation.generators + ("c",), relators + (added,)), w


def _basis(ideal: Ideal) -> tuple[str, ...]:
    return tuple(map(str, groebner(ideal).basis))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(PAIRS), st.booleans(), st.data())
def test_a_tietze_move_keeps_the_reduced_basis(pair, new_generator, data):
    group, spec = pair
    presentation = GroupPresentation.from_json(GROUPS[group])
    target = make_group(spec)
    expected = _basis(rep_ideal(presentation, target).ideal)
    if new_generator:
        moved, w = data.draw(_with_generator(presentation))
        n = presentation.n_generators
        ring = block_ring(target, range(1, n + 1))
        images = {v: Polynomial.variable(ring, v) for v in ring}
        images.update(zip(block_ring(target, [n + 1]), pullback(w, target, ring)))
        moved_ideal = rep_ideal(moved, target).ideal
        generators = tuple(g.substitute(images) for g in moved_ideal.generators)
        assert _basis(Ideal(ring, generators)) == expected
    else:
        moved = data.draw(_with_consequence(presentation))
        assert _basis(rep_ideal(moved, target).ideal) == expected


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(GROUPS)), st.sampled_from(("sym:4", "cyclic:6")), st.booleans(), st.data()
)
def test_a_tietze_move_keeps_the_homomorphism_count(group, spec, new_generator, data):
    presentation = GroupPresentation.from_json(GROUPS[group])
    target = make_finite_group(spec)
    if new_generator:
        moved, _ = data.draw(_with_generator(presentation))
    else:
        moved = data.draw(_with_consequence(presentation))
    assert len(enumerate_homs(moved, target)) == len(enumerate_homs(presentation, target))
