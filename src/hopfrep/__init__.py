"""Cocommutative Hopf PROP normal forms and representation varieties.

The morphism calculus lives in `hopfrep.prop_h`, combinatorial group
machinery in `hopfrep.groups`, the exact polynomial kernel in
`hopfrep.polyalg`, presented algebraic groups in `hopfrep.alggroups`,
and the representation-variety constructions in `hopfrep.repvariety`.

The names below load their module on first use (PEP 562): ``import
hopfrep`` alone imports no submodule, so a program that only uses the
PROP never loads the polynomial layer.  A module itself is imported as
usual, ``from hopfrep import polyalg`` or ``import hopfrep.polyalg``.
"""

import importlib

_EXPORTS = {
    "alggroups": (
        "LieAlgebraData", "LiePresentation", "PresentedCommHopf",
        "conjugation_substitution", "cotangent_at_identity", "make_group", "make_lie",
        "matrix_word", "trace_of_word",
    ),
    "groups": (
        "FiniteGroup", "FreeWord", "GroupPresentation", "enumerate_homs", "evaluate_word",
        "make_finite_group",
    ),
    "polyalg": ("GroebnerBasis", "Ideal", "Polynomial", "groebner", "ideal_member", "linear_kernel"),
    "prop_h": (
        "GroupAlgebraModel", "HMorphism", "LinHom", "TensorAlgebraModel", "compose_h",
        "eval_term", "generator_morphism", "hopf_action", "multilinear_reduce", "parse_term",
        "tensor_h", "verify_axioms",
    ),
    "repvariety": (
        "RepIdealPresentation", "check_observable_invariance", "check_trace_invariance",
        "finite_rep_algebra", "lie_rep_ideal", "rep_ideal",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
