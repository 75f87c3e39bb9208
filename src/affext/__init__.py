"""Finite universal algebra toolkit: commutator-theoretic invariants and
the cohomology of extensions realizing affine datum.

The main entry points:

- algebras/terms: finite algebras on dense tables, s-expression terms;
- congruences: congruence generation, the pair algebra, matrix sets and
  the Delta congruences;
- commutator: the term-condition commutator and centrality tests;
- datum: extraction of affine datum and 2-cocycles from an extension with
  abelian kernel, and axiom validation;
- cocycles: derived term operations, reconstruction, realization,
  semidirect tests and transfer products;
- cohomology: Z^2, B^2, H^2, derivations, stabilizers, H^1;
- groups: the independent small-group oracle;
- verify: the cross-validation suite behind `affext verify-paper`.
"""

from .algebras import (FiniteAlgebra, Signature, find_isomorphism,
                       power_algebra, quotient_algebra, subalgebra_generate)
from .congruences import Congruence, cg, delta, hat_alpha, m_matrices, pair_algebra
from .commutator import (is_abelian, is_left_central, is_right_central,
                         tc_commutator, verify_difference_term,
                         verify_ternary_abelian_group_on_blocks)
from .datum import (AffineDatum, ExtensionRecord, check_action_compatible,
                    extract_datum, group_extension, validate_datum)
from .cocycles import (check_cocycle, check_realization, is_semidirect,
                       partial_derivative, reconstruct, tensor_product)
from .cohomology import (are_equivalent, coboundary_group, cocycle_group,
                         derivations, h1, h2, stabilizers,
                         trivial_action_check)
from .terms import eval_term, linearize_term, parse_term, term_to_str

__all__ = [
    "AffineDatum", "Congruence", "ExtensionRecord", "FiniteAlgebra",
    "Signature",
    "are_equivalent", "cg", "check_action_compatible", "check_cocycle",
    "check_realization", "coboundary_group", "cocycle_group", "delta",
    "derivations", "eval_term", "extract_datum", "find_isomorphism",
    "group_extension", "h1", "h2", "hat_alpha", "is_abelian",
    "is_left_central", "is_right_central", "is_semidirect", "linearize_term",
    "m_matrices", "pair_algebra", "parse_term", "partial_derivative",
    "power_algebra", "quotient_algebra", "reconstruct", "stabilizers",
    "subalgebra_generate", "tc_commutator", "tensor_product", "term_to_str",
    "trivial_action_check", "validate_datum", "verify_difference_term",
    "verify_ternary_abelian_group_on_blocks",
]

__version__ = "0.1.0"
