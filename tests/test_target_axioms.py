"""Targets read through the PROP's axioms: an independent oracle for target validation.

A term n -> m sends n points of a target to m points.  `read_term` folds a
term to the m*d coordinates of its output point, as polynomials on n blocks
of the target's d variables, with the leaves mu -> the product Delta,
delta -> the diagonal, S -> the antipode, eta -> the counit point, eps ->
no coordinates and tau -> the block swap; composition substitutes, and a
tensor shifts the right factor's blocks.  Two readings are equal when they
agree modulo the ideal copied into every block.  `_validate_hopf` checks the
group law instead, so the two must agree on every target.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrep.alggroups import GroupDataError, PresentedCommHopf, make_group, pullback
from hopfrep.polyalg import Ideal, Polynomial, groebner, ideal_member, parse_polynomial
from hopfrep.prop_h import _AXIOM_TERMS, _fold_term, eval_term

from conftest import random_term
from test_cli import SCALED_SL2, TORUS_JSON


def _blocks(width: int, d: int) -> tuple[str, ...]:
    return tuple(f"b{b}_{i}" for b in range(width) for i in range(d))


def read_term(term, group) -> tuple[tuple[str, ...], list[Polynomial]]:
    """``(ring, coordinates)``: the output point of ``term`` on its domain's blocks."""
    d = len(group.variables)

    def identity(width):
        ring = _blocks(width, d)
        return ring, [Polynomial.variable(ring, v) for v in ring]

    def generator(name):
        ring, x = identity({"mu": 2, "tau": 2, "eta": 0}.get(name, 1))
        if name == "mu":
            return ring, [p.rename(ring, dict(zip(p.ring, ring))) for p in group.comultiplication]
        if name == "antipode":
            return ring, [s.rename(ring, dict(zip(group.variables, ring))) for s in group.antipode]
        if name == "eta":
            return ring, [Polynomial.constant(ring, e) for e in group.counit]
        return ring, {"delta": x + x, "epsilon": [], "tau": x[d:] + x[:d]}[name]

    def compose(inner, outer):
        (ring, values), (middle, images) = inner, outer
        if not middle:  # the outer term reads no point: its coordinates are constants
            return ring, [p.rename(ring, {}) for p in images]
        mapping = dict(zip(middle, values))
        return ring, [p.substitute(mapping) for p in images]

    def tensor(left, right):
        (first, a), (second, b) = left, right
        ring = _blocks((len(first) + len(second)) // d, d)
        shift = dict(zip(second, ring[len(first) :]))
        return ring, [p.rename(ring, {}) for p in a] + [p.rename(ring, shift) for p in b]

    return _fold_term(term, generator, identity, compose, tensor)


def _equal_modulo_ideal(group, ring, left, right) -> bool:
    d = len(group.variables)
    copies = tuple(
        g.rename(ring, dict(zip(group.variables, ring[b * d : b * d + d])))
        for b in range(len(ring) // d)
        for g in group.defining_ideal.generators
    )
    gb = groebner(Ideal(ring, copies))
    return all(ideal_member(p - q, gb) for p, q in zip(left, right))


def axioms_hold(group) -> bool:
    """All ten Hopf axioms of `prop_h._AXIOM_TERMS` read equal in ``group``."""
    for _, terms in _AXIOM_TERMS:
        (ring, first), *others = (read_term(t, group) for t in terms)
        if not all(_equal_modulo_ideal(group, ring, first, other) for _, other in others):
            return False
    return True


# Every group JSON the other test modules accept.
ADDITIVE_JSON = {
    "variables": ["u"], "counit": {"u": 0}, "delta": {"u": "u' + u''"}, "antipode": {"u": "-u"}
}
SHIPPED = [f"{kind}:{n}" for kind in ("sl", "gl") for n in (1, 2, 3)]
SHIPPED += [f"torus:{k}" for k in range(1, 9)] + ["ga"]
JSONS = [("torus JSON", TORUS_JSON), ("scaled SL(2) JSON", SCALED_SL2), ("ga JSON", ADDITIVE_JSON)]


@pytest.mark.parametrize(
    "spec", SHIPPED + JSONS, ids=lambda spec: spec if isinstance(spec, str) else spec[0]
)
def test_every_accepted_target_satisfies_the_ten_axioms(tmp_path, spec):
    if not isinstance(spec, str):
        path = tmp_path / "target.json"
        path.write_text(json.dumps(spec[1]))
        spec = str(path)
    assert axioms_hold(make_group(spec))


# Small targets near a group law, some with extra terms in Delta or S.  The
# bases are groups, except a counit that is no identity and a loop on the
# line that is not associative: (x.y).z = x.(y.z) is the only law it breaks.
_BASES = [
    (("a",), [], (0,), ("a' + a''",), ("-a",)),
    (("a",), [], (1,), ("a' + a'' - 1",), ("2 - a",)),
    (("a",), [], (1,), ("a' + a''",), ("1 - a",)),
    (("a",), [], (0,), ("a' + a'' + a'^2*a'' + a'*a''^2",), ("-a",)),
    (("a",), ["a^2 - a"], (0,), ("a' + a'' - 2*a'*a''",), ("a",)),
    (("a", "b"), [], (0, 0), ("a' + a''", "b' + b'' + a'*a''"), ("-a", "-b + a^2")),
    (("z", "t"), ["z*t - 1"], (1, 1), ("z'*z''", "t'*t''"), ("t", "z")),
]


@st.composite
def _small_targets(draw) -> dict:
    variables, ideal, counit, delta, antipode = draw(st.sampled_from(_BASES))
    doubled = tuple(f"{v}'" for v in variables) + tuple(f"{v}''" for v in variables)
    delta = [parse_polynomial(p, doubled) for p in delta]
    antipode = [parse_polynomial(p, variables) for p in antipode]
    for maps, ring, degrees, counts in (
        (delta, doubled, (1, 3), (0, 0, 1, 2)), (antipode, variables, (0, 2), (0, 0, 0, 1))
    ):
        for _ in range(draw(st.sampled_from(counts))):
            term = Polynomial.constant(ring, draw(st.sampled_from((1, -1, 2, -2))))
            for _ in range(draw(st.integers(*degrees))):
                term = term * Polynomial.variable(ring, draw(st.sampled_from(ring)))
            i = draw(st.integers(0, len(maps) - 1))
            maps[i] = maps[i] + term
    return dict(
        name="custom",
        variables=variables,
        defining_ideal=Ideal(variables, tuple(parse_polynomial(g, variables) for g in ideal)),
        counit=tuple(Fraction(e) for e in counit),
        comultiplication=tuple(delta),
        antipode=tuple(antipode),
        copy_templates=tuple(f"{v}{{c}}" for v in variables),
    )


def test_validation_accepts_exactly_the_targets_whose_axioms_hold():
    verdicts = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_small_targets())
    def check(fields):
        try:
            PresentedCommHopf(**fields)
        except GroupDataError as err:
            if "preserve the ideal" in str(err) or "counit is not a zero" in str(err):
                verdicts.append(None)  # the maps are not well defined: no axiom can be read
                return
            accepted = False
        else:
            accepted = True
        assert accepted == axioms_hold(SimpleNamespace(**fields)), fields
        verdicts.append(accepted)

    check()
    assert len(verdicts) >= 200 and True in verdicts and False in verdicts


@pytest.mark.parametrize("spec", ["sl:2", "gl:2", "torus:2", "ga"])
def test_reading_a_term_equals_pulling_back_its_words(spec):
    group, rng = make_group(spec), random.Random(1)
    for _ in range(60):
        term, _ = random_term(rng)
        ring, coordinates = read_term(term, group)
        pulled = [p for word in eval_term(term).words for p in pullback(word, group, ring)]
        assert _equal_modulo_ideal(group, ring, coordinates, pulled), term
