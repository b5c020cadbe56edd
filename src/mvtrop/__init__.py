"""Exact computer algebra for MV-algebras, ℓ-groups, and tropical semifields."""

from .algebra import (CHANG, DeltaOf, FiniteChain, MvAlgebra, MvElement,
                      ProductAlgebra, RationalInterval, carrier_size,
                      check_mv_axioms, element, enumerate_elements,
                      is_boolean_elem, is_infinitesimal_elem, mv_implies,
                      mv_join, mv_leq, mv_meet, mv_neg, mv_odot, mv_ominus,
                      mv_oplus, one, product_algebra, sample_elements, zero)
from .bisemirings import (TOP, Bisemiring, TopCone, check_lbisemiring,
                          check_lbisemiring_of, cone_add, cone_elements,
                          cone_join, cone_leq, cone_meet)
from .characteristics import (CHI_Q, CHI_Z, INF, Characteristic,
                              characteristic, parse_group_label)
from .errors import (BrokenHomomorphismError, DomainError, EvaluationError,
                     MalformedInputError, ModeError, MvtropError,
                     ReconstructionError, StructuralError, TermSyntaxError,
                     UnsupportedRepresentationError, UsageError,
                     WitnessNotFoundError)
from .functors import (Morphism, atoms, boolean_part, cone_to_perfect, delta,
                       delta_inverse, detrop, f_equiv, gamma,
                       glue_boolean_perfect, identity_morphism,
                       is_boolean_algebra, mv_from_semifield, perfect_to_cone,
                       projection_morphism, recognize_theta_image, theta,
                       theta_image_conditions, theta_on_morphism,
                       theta_perfect, theta_perfect_inverse, theta_star, trop)
from .groups import (BOTTOM, TRIVIAL, Integers, LexZG, QSubgroup, TrivialGroup,
                     TropOfGroup, Z, group_add, group_enumerate, group_join,
                     group_leq, group_meet, group_negate, qsubgroup, sinverse,
                     splus, stimes)
from .logic import (LUKASIEWICZ_AXIOMS, VC_AXIOM, Valuation, axiom_suite,
                    check_equation_bounded, check_equation_chang,
                    check_equation_finite, evaluate, tautology_check,
                    vc_membership)
from .qpoints import (REGULARLY_DENSE, REGULARLY_DISCRETE, FlatAction,
                      GpInvariant, check_flatness, classify_regularity,
                      common_measure, find_divisible_between,
                      frobenius_action, gp_invariant, group_from_action,
                      hom_exists, hom_obstruction, theta_pt)
from .report import COUNTEREXAMPLE, VALID, VALID_UP_TO_BOUND, CheckReport
from .terms import (Equation, Term, Var, fold, operation_count, parse,
                    parse_equation, print_term, substitute, variables)
from .value import replace

__version__ = "0.1.0"
