"""Cocommutative Hopf PROP normal forms and representation varieties.

The morphism calculus lives in `hopfrep.prop_h`, combinatorial group
machinery in `hopfrep.groups`, the exact polynomial kernel in
`hopfrep.polyalg`, presented algebraic groups in `hopfrep.alggroups`,
and the representation-variety constructions in `hopfrep.repvariety`.
"""

from .alggroups import (
    CotangentData,
    LieAlgebraData,
    LiePresentation,
    PresentedCommHopf,
    conjugation_substitution,
    cotangent_at_identity,
    make_group,
    make_lie,
    matrix_word,
    trace_of_word,
)
from .groups import (
    FiniteGroup,
    FreeWord,
    GroupPresentation,
    enumerate_homs,
    evaluate_word,
    make_finite_group,
)
from .polyalg import (
    GroebnerBasis,
    Ideal,
    Polynomial,
    groebner,
    ideal_member,
    linear_kernel,
)
from .prop_h import (
    GroupAlgebraModel,
    HMorphism,
    LinHom,
    TensorAlgebraModel,
    compose_h,
    eval_term,
    generator_morphism,
    hopf_action,
    multilinear_reduce,
    parse_term,
    tensor_h,
    verify_axioms,
)
from .repvariety import (
    FiniteRepAlgebra,
    RepIdealPresentation,
    check_observable_invariance,
    check_trace_invariance,
    finite_rep_algebra,
    lie_rep_ideal,
    rep_ideal,
)

__version__ = "0.1.0"
