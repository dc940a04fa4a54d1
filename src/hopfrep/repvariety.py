"""Representation varieties as explicit polynomial presentations.

For a finitely presented group and a matrix-shaped target group, the
coordinate ring of the space of representations is presented on one
variable block per group generator: the defining ideal of the target is
copied into every block, and every relator contributes the entries of
"its matrix word minus the identity".  Inverse letters use the adjugate
antipode, so relator equations stay polynomial.

For a finite target the representation set is enumerated outright: its
coordinate ring is the ring of all functions on those points, so the
points are the answer.  Lie-algebra sources use coordinate vectors
against a structure-constant target; conjugation invariance of trace
observables is decided by Groebner membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .alggroups import (
    LieAlgebraData,
    LiePresentation,
    PresentedCommHopf,
    block_ideal_generators,
    block_ring,
    conjugation_substitution,
    evaluate_lie_expr,
    matrix_word,
    trace_of_word,
)
from .groups import FiniteGroup, FreeWord, GroupPresentation, WordError, enumerate_homs
from .polyalg import GREVLEX, Coefficient, Ideal, Polynomial, Ring, embed, groebner, ideal_member


# ---------------------------------------------------------------------------
# Group representation ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepIdealPresentation:
    """Polynomial presentation of the space of representations.

    ``provenance[i]`` records where generator ``i`` came from:
    ``copy_ideal:<copy>`` or ``relator:<index>:entry:<row>,<col>`` for a
    group, ``relator:<index>:component:<k>`` for a Lie algebra.
    """

    ring: Ring
    ideal: Ideal
    provenance: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "variables": list(self.ring),
            "ideal": [str(g) for g in self.ideal.generators],
            "provenance": [
                {"generator_index": i, "source": source}
                for i, source in enumerate(self.provenance)
            ],
        }

    def evaluate_point(self, point: Mapping[str, Coefficient]) -> list[Coefficient]:
        return [g.evaluate(point) for g in self.ideal.generators]

    def satisfies(self, point: Mapping[str, Coefficient]) -> bool:
        return all(v == 0 for v in self.evaluate_point(point))


def _presentation(ring: Ring, pairs: list[tuple[str, Polynomial]]) -> RepIdealPresentation:
    """The presentation whose ``i``-th generator and source are ``pairs[i]``."""
    return RepIdealPresentation(
        ring=ring,
        ideal=Ideal(ring, tuple(g for _, g in pairs)),
        provenance=tuple(source for source, _ in pairs),
    )


def rep_ideal(group: GroupPresentation, target: PresentedCommHopf) -> RepIdealPresentation:
    """Presentation of representations of ``group`` into ``target``.

    One block of target variables per generator; the ideal is the union of
    the per-copy defining ideals plus, for each relator, all matrix
    entries of ``word(relator) - identity``.  A free group therefore
    yields exactly the copied defining ideals and nothing else.
    """
    n = group.n_generators
    ring = block_ring(target, range(1, n + 1))
    copies = (
        (f"copy_ideal:{copy}", g)
        for copy in range(1, n + 1)
        for g in block_ideal_generators(target, copy, ring)
    )
    relators = (
        (f"relator:{index}:entry:{i + 1},{j + 1}", entry - 1 if i == j else entry)
        for index, relator in enumerate(group.relators)
        for i, row in enumerate(matrix_word(relator, target))
        for j, entry in enumerate(row)
    )
    return _presentation(ring, [*copies, *relators])


# ---------------------------------------------------------------------------
# Finite targets: the representation set itself
# ---------------------------------------------------------------------------


def finite_rep_algebra(
    source: GroupPresentation, target: FiniteGroup
) -> tuple[tuple[int, ...], ...]:
    """The points of Rep(source, target): every homomorphism, as generator images."""
    return tuple(enumerate_homs(source, target))


# ---------------------------------------------------------------------------
# Lie representation varieties
# ---------------------------------------------------------------------------


def lie_rep_ideal(
    source: LiePresentation, target: LieAlgebraData
) -> RepIdealPresentation:
    """Presentation of Lie-algebra maps from ``source`` into ``target``.

    Generator ``i`` becomes the coordinate vector ``(y{i}_1 .. y{i}_d)``;
    every relator is evaluated through the structure constants and each of
    its ``d`` components becomes one ideal generator.  A free source gives
    the zero ideal on ``n*d`` variables: the full affine space of
    ``n``-tuples in the target.
    """
    n, d = source.n_generators, target.dimension
    ring = tuple(f"y{i}_{k}" for i in range(1, n + 1) for k in range(1, d + 1))
    assignment = {
        name: [Polynomial.variable(ring, f"y{i}_{k}") for k in range(1, d + 1)]
        for i, name in enumerate(source.generators, start=1)
    }
    components = [
        (f"relator:{index}:component:{k}", component)
        for index, relator in enumerate(source.relators)
        for k, component in enumerate(evaluate_lie_expr(relator, assignment, target, ring), 1)
    ]
    return _presentation(ring, components)


# ---------------------------------------------------------------------------
# Conjugation invariance of observables
# ---------------------------------------------------------------------------


def check_observable_invariance(
    observable: Polynomial,
    group: GroupPresentation,
    target: PresentedCommHopf,
) -> bool:
    """Is the observable fixed under conjugation, modulo the defining ideals?

    The observable lives on ``n`` copies of the target; it is invariant
    when "conjugated minus original" lies in the ideal generated by the
    conjugator copy's defining ideal together with the representation
    ideal of the group.  Decided by Groebner membership.
    """
    n = group.n_generators
    copies_ring = block_ring(target, range(1, n + 1))
    if observable.ring != copies_ring:
        observable = embed(observable, copies_ring)
    presentation = rep_ideal(group, target)
    extended = block_ring(target, range(0, n + 1))
    generators = list(block_ideal_generators(target, 0, extended))
    generators.extend(embed(g, extended) for g in presentation.ideal.generators)
    gb = groebner(Ideal(extended, tuple(generators)), GREVLEX)
    conjugated = conjugation_substitution(observable, target)
    difference = conjugated - embed(observable, extended)
    return ideal_member(difference, gb)


def check_trace_invariance(
    word: FreeWord, group: GroupPresentation, target: PresentedCommHopf
) -> bool:
    """Conjugation invariance of the trace observable of a word."""
    if word.rank != group.n_generators:
        raise WordError(
            f"word rank {word.rank} does not match {group.n_generators} generators"
        )
    observable = trace_of_word(word, target)
    return check_observable_invariance(observable, group, target)
