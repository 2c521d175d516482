"""congrex: congruence preserving expansions of finite nilpotent algebras.

Finite algebras are given by operation tables.  The package computes their
congruence lattices, checks the lattice splitting predicates, builds
bounded-arity clone fragments, and decides whether a nilpotent group (or a
coprime product of nilpotent prime-power algebras) has infinitely many
polynomially inequivalent congruence preserving expansions, together with
explicit verified witness functions.
"""

__version__ = "0.1.0"

from .algebra import (
    FiniteAlgebra,
    Operation,
    Partition,
    direct_product,
    is_congruence_uniform,
    quotient_index,
)
from .analyzer import (
    AnalysisReport,
    WitnessFamily,
    build_commutator_witness,
    build_rho,
    build_witness_family,
    check_centrality,
    decide_abelian_spec,
    decide_group,
    decide_product,
    group_witness_pipeline,
    verify_witness,
)
from .clones import (
    CloneFragment,
    FiniteFunction,
    Relation4,
    clone_closure,
    comp_fragment,
    is_congruence_preserving,
    is_product_congruence,
    malcev_term,
    pol_fragment,
    preserves_relation,
    skew_congruences,
    tensor_function,
    tensor_generators,
)
from .errors import (
    BudgetExceededError,
    CongrexError,
    InvalidInputError,
    NotAGroupError,
    NotApplicableError,
    WitnessCheckError,
)
from .groups import (
    abelian_group,
    cyclic_group,
    group_from_cayley,
    is_nilpotent_group,
    parse_group_spec,
    quaternion_group,
    symmetric_group,
    sylow_decomposition,
)
from .lattice import (
    FiniteLattice,
    SplitWitness,
    chain,
    congruence_lattice,
    from_congruences,
    is_modular,
    lattice_product,
    splits,
    splits_strongly,
    transposes_up,
)
