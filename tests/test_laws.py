"""Pinned outcomes of every checker that runs on the law engine.

Each case records what a checker returns (verdict, ``checked``, mode, the
``repr`` of the witness and of ``details``) or the exception it raises (type
and message).  The values were taken from the hand-written checking loops the
engine replaced, so a change in canonical order, in counting or in the shape
of a witness shows up here.
"""

from fractions import Fraction

import pytest

from conftest import luk_neg, luk_oplus
from mvtrop.algebra import (_mv_axioms, CHANG, FiniteChain, PayloadOps,
                            RationalInterval, check_mv_axioms, element,
                            enumerate_elements, mv_odot, one, product_algebra,
                            zero)
from mvtrop.bisemirings import Bisemiring, check_lbisemiring, check_lbisemiring_of
from mvtrop.characteristics import CHI_Q, CHI_Z, INF, characteristic
from mvtrop.functors import (Morphism, check_homomorphism, delta,
                             identity_morphism, projection_morphism,
                             recognize_theta_image, theta,
                             theta_image_conditions, theta_on_morphism,
                             theta_star)
from mvtrop.groups import TRIVIAL, qsubgroup
from mvtrop.logic import (LUKASIEWICZ_AXIOMS, axiom_suite,
                          check_equation_bounded, check_equation_finite,
                          parse_equation, tautology_check, vc_membership)
from mvtrop.qpoints import FlatAction, check_flatness, frobenius_action
from mvtrop.report import check_over
from mvtrop.terms import parse

L2, L3, L4, L5 = (FiniteChain(n) for n in (2, 3, 4, 5))
L2L2 = product_algebra(L2, L2)
DYADIC = delta(qsubgroup(characteristic({2: INF})))
HALVES = [Fraction(0), Fraction(1, 2), Fraction(1)]


def _full(A):
    return Bisemiring(A, lambda ops, x: True, explicit=tuple(enumerate_elements(A)))


def _explicit(A, *payloads):
    return Bisemiring(A, lambda ops, x: True, explicit=tuple(element(A, p) for p in payloads))


def _chain_bisemiring(**corrupt):
    op = {**dict(oplus=max, odot=min, meet=min, join=max), **corrupt}
    ops = PayloadOps(op["oplus"], None, 0, 2, None, op["join"], op["meet"], odot=op["odot"])
    return check_lbisemiring([0, 1, 2], ops)


def _axioms_over(oplus, neg):  # the MV axioms on HALVES under explicit operations
    ops = PayloadOps(oplus, neg, Fraction(0), Fraction(1), None, None, None)
    return check_over(_mv_axioms(), ops, HALVES)


def _chang_cube(x):  # preserves ¬ and the constants but not ⊕
    bit, off = x.payload
    return element(CHANG, (bit, off * abs(off)))


CASES = {
    # MV axioms
    "mv_axioms/chain:4": lambda: check_mv_axioms(L4),
    "mv_axioms/chain:2xchain:3": lambda: check_mv_axioms(product_algebra(L2, L3)),
    "mv_axioms/chang/exhaustive": lambda: check_mv_axioms(CHANG),
    "mv_axioms/unknown_mode": lambda: check_mv_axioms(L3, "bounded"),
    "mv_axioms/chang/sampled": lambda: check_mv_axioms(
        CHANG, "sampled", samples=200, seed=5, bound=4),
    "mv_axioms/interval/sampled": lambda: check_mv_axioms(
        RationalInterval(), "sampled", samples=50, seed=1, bound=6),
    "axioms_over/halves": lambda: _axioms_over(luk_oplus, luk_neg),
    "axioms_over/corrupted_oplus": lambda: _axioms_over(lambda x, y: x + y, luk_neg),
    "axioms_over/corrupted_neg": lambda: _axioms_over(
        luk_oplus, lambda x: Fraction(0) if x == 1 else 1 - x / 2),
    # ℓ-bisemiring axioms
    "lbisemiring/theta(chain:2)": lambda: check_lbisemiring_of(theta(L2)),
    "lbisemiring/theta(chain:2xchain:2)": lambda: check_lbisemiring_of(theta(L2L2)),
    "lbisemiring/theta(delta:trivial)": lambda: check_lbisemiring_of(theta(delta(TRIVIAL))),
    "lbisemiring/theta(chain:5)": lambda: check_lbisemiring_of(theta(L5)),
    "lbisemiring/missing_one": lambda: check_lbisemiring_of(_explicit(L2, 0)),
    "lbisemiring/three_chain": lambda: _chain_bisemiring(),
    "lbisemiring/corrupted_odot": lambda: _chain_bisemiring(odot=lambda x, y: 0),
    "lbisemiring/truncated_sum": lambda: _chain_bisemiring(oplus=lambda x, y: min(x + y, 2)),
    "lbisemiring/corrupted_join": lambda: _chain_bisemiring(join=min),
    "lbisemiring/absorption_first_fails": lambda: _chain_bisemiring(
        meet=lambda x, y: x if x == y else 0),
    "lbisemiring/absorption_second_fails": lambda: _chain_bisemiring(
        join=lambda x, y: x if x == y else 2),
    # equations, V(C) membership
    "equation/chain:3/commutative": lambda: check_equation_finite(
        parse_equation("x (+) y = y (+) x"), L3),
    "equation/chain:3/idempotent": lambda: check_equation_finite(
        parse_equation("x (+) x = x"), L3),
    "equation/chain:4/constant": lambda: check_equation_finite(
        parse_equation("x (+) ~x = 1"), L4),
    "equation/chang/bounded": lambda: check_equation_bounded(
        parse_equation("x (+) (y (.) z) = (x (+) y) (.) (x (+) z)"), CHANG, 2),
    "equation/chang/refuted": lambda: check_equation_bounded(
        parse_equation("x (.) x = x"), CHANG, 2),
    "equation/dyadic/bounded": lambda: check_equation_bounded(
        parse_equation("x (+) y = y (+) x"), DYADIC, 2),
    "equation/interval/refuted": lambda: check_equation_bounded(
        parse_equation("x (+) x = x"), RationalInterval(), 3),
    "vc_member/chain:3": lambda: vc_membership(L3),
    "vc_member/chain:2xchain:2": lambda: vc_membership(L2L2),
    # tautologies and the Łukasiewicz axiom suite
    "tautology/axiom_2/chain:4": lambda: tautology_check(LUKASIEWICZ_AXIOMS[1][1], L4),
    "tautology/refuted/chain:3": lambda: tautology_check(parse("x -> (x (.) x)"), L3),
    "tautology/closed/chain:2": lambda: tautology_check(parse("~0"), L2),
    "axiom_suite/chain:3": lambda: axiom_suite(L3),
    "axiom_suite/chain:2xchain:2": lambda: axiom_suite(L2L2),
    "axiom_suite/chang/sampled": lambda: axiom_suite(CHANG, samples=40, seed=3, bound=5),
    "axiom_suite/interval/sampled": lambda: axiom_suite(
        RationalInterval(), samples=25, seed=2, bound=7),
    # θ images: recognition and the two characterization conditions
    "recognize/theta(chain:2)": lambda: recognize_theta_image(theta(L2)),
    "recognize/theta(chain:2xchain:2)": lambda: recognize_theta_image(theta(L2L2)),
    "recognize/full(chain:3)": lambda: recognize_theta_image(_full(L3)),
    "recognize/theta_star(chain:3)": lambda: recognize_theta_image(theta_star(L3)),
    "recognize/theta(chain:5)": lambda: recognize_theta_image(theta(L5)),
    "recognize/open_third": lambda: recognize_theta_image(
        _explicit(L4, 0, Fraction(1, 3), 1)),
    "recognize/missing_one": lambda: recognize_theta_image(_explicit(L2, 0)),
    "conditions/theta(chain:2)": lambda: theta_image_conditions(theta(L2)),
    "conditions/theta(chain:2xchain:2)": lambda: theta_image_conditions(theta(L2L2)),
    "conditions/theta(chang)/3": lambda: theta_image_conditions(theta(CHANG), 3),
    "conditions/theta(dyadic)/2": lambda: theta_image_conditions(theta(DYADIC), 2),
    "conditions/theta_star(chang)/2": lambda: theta_image_conditions(theta_star(CHANG), 2),
    "conditions/full(chain:3)": lambda: theta_image_conditions(Bisemiring(L3, lambda ops, x: True)),
    "conditions/missing_one": lambda: theta_image_conditions(_explicit(L2, 0)),
    "conditions/bool_closure": lambda: theta_image_conditions(_explicit(
        product_algebra(L2, L2, L2), (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1))),
    "conditions/bool_complement": lambda: theta_image_conditions(
        _explicit(L2L2, (0, 0), (1, 0), (1, 1))),
    # homomorphisms
    "homomorphism/identity(chang)": lambda: check_homomorphism(identity_morphism(CHANG), 3),
    "homomorphism/projection": lambda: check_homomorphism(
        projection_morphism(product_algebra(L3, CHANG), 1), 2),
    "homomorphism/constant_one": lambda: check_homomorphism(
        Morphism(CHANG, CHANG, "const1", lambda x: one(CHANG)), 3),
    "homomorphism/squaring": lambda: check_homomorphism(
        Morphism(L3, L3, "square", lambda x: mv_odot(x, x)), 3),
    "homomorphism/leaves_chain": lambda: check_homomorphism(
        Morphism(L3, L3, "square", lambda x: element(L3, x.payload * x.payload)), 3),
    "homomorphism/cube": lambda: check_homomorphism(
        Morphism(CHANG, CHANG, "cube", _chang_cube), 2),
    "theta_on_morphism/to_zero": lambda: theta_on_morphism(
        Morphism(L2L2, L2, "first", lambda x: zero(L2) if x.payload[0] == 0 else one(L2)), 2).name,
    # flatness of actions on positive cones
    "flatness/frobenius(Z)": lambda: check_flatness(frobenius_action(CHI_Z), samples=40, seed=3),
    "flatness/frobenius(Q)": lambda: check_flatness(frobenius_action(CHI_Q), samples=40, seed=3),
    "flatness/frobenius(Z[1/6])": lambda: check_flatness(
        frobenius_action(characteristic({2: INF, 3: INF})), samples=60, seed=1, height=8),
    "flatness/projection": lambda: check_flatness(
        FlatAction(CHI_Z, lambda n, x: x, label="projection"), samples=200, seed=0),
    "flatness/fold": lambda: check_flatness(
        FlatAction(CHI_Z, lambda n, x: (13 if n == 14 else n) * x, label="fold"), samples=500),
    "flatness/no_samples": lambda: check_flatness(frobenius_action(CHI_Z), samples=0),
}

EXPECTED = {
    'axiom_suite/chain:2xchain:2':
        ('valid', 128, 'exhaustive', 'None', '{}'),
    'axiom_suite/chain:3':
        ('valid', 63, 'exhaustive', 'None', '{}'),
    'axiom_suite/chang/sampled':
        ('valid', 200, 'sampled', 'None', '{}'),
    'axiom_suite/interval/sampled':
        ('valid', 125, 'sampled', 'None', '{}'),
    'axioms_over/corrupted_neg':
        ('counterexample', 44, 'exhaustive', "{'axiom': 'neg_involutive', 'elements': [Fraction(1, 2)]}", '{}'),
    'axioms_over/corrupted_oplus':
        ('counterexample', 41, 'exhaustive', "{'axiom': 'one_absorbing', 'elements': [Fraction(1, 2)]}", '{}'),
    'axioms_over/halves':
        ('valid', 55, 'exhaustive', 'None', '{}'),
    'conditions/bool_closure':
        ('counterexample', 15, 'exhaustive', "{'condition': 'bool_closure', 'operation': 'oplus', 'elements': [<(1,0,0) in Product(FiniteChain(2), FiniteChain(2), FiniteChain(2))>, <(0,1,0) in Product(FiniteChain(2), FiniteChain(2), FiniteChain(2))>]}", '{}'),
    'conditions/bool_complement':
        ('counterexample', 27, 'exhaustive', "{'condition': 'bool_complement', 'element': <(1,0) in Product(FiniteChain(2), FiniteChain(2))>}", '{}'),
    'conditions/full(chain:3)':
        ('counterexample', 4, 'exhaustive', "{'condition': 'inf_closure', 'operation': 'oplus', 'elements': [<1/2 in FiniteChain(3)>, <1/2 in FiniteChain(3)>]}", '{}'),
    'conditions/missing_one':
        ('counterexample', 5, 'exhaustive', "{'condition': 'bool_constants'}", '{}'),
    'conditions/theta(chain:2)':
        ('valid', 16, 'exhaustive', 'None', "{'inf_size': 1, 'bool_size': 2}"),
    'conditions/theta(chain:2xchain:2)':
        ('valid', 44, 'exhaustive', 'None', "{'inf_size': 1, 'bool_size': 4}"),
    'conditions/theta(chang)/3':
        ('valid', 94, 'exhaustive', 'None', "{'inf_size': 4, 'bool_size': 2}"),
    'conditions/theta(dyadic)/2':
        ('valid', 140, 'exhaustive', 'None', "{'inf_size': 5, 'bool_size': 2}"),
    'conditions/theta_star(chang)/2':
        ('valid', 18, 'exhaustive', 'None', "{'inf_size': 1, 'bool_size': 2}"),
    'equation/chain:3/commutative':
        ('valid', 9, 'exhaustive', 'None', '{}'),
    'equation/chain:3/idempotent':
        ('counterexample', 2, 'exhaustive', "{'x': <1/2 in FiniteChain(3)>}", '{}'),
    'equation/chain:4/constant':
        ('valid', 4, 'exhaustive', 'None', '{}'),
    'equation/chang/bounded':
        ('counterexample', 37, 'bounded', "{'x': <(0,1) in Chang>, 'y': <(0,0) in Chang>, 'z': <(0,0) in Chang>}", '{}'),
    'equation/chang/refuted':
        ('counterexample', 2, 'bounded', "{'x': <(0,1) in Chang>}", '{}'),
    'equation/dyadic/bounded':
        ('valid_up_to_bound', 100, 'bounded', 'None', "{'bound': 2}"),
    'equation/interval/refuted':
        ('counterexample', 2, 'bounded', "{'x': <1/3 in RationalInterval>}", '{}'),
    'flatness/fold':
        ('counterexample', 865, 'sampled', "{'condition': 3, 'pair': [14, 13], 'y': Fraction(6, 1), 'reason': 'm·y = n·y with m ≠ n on a torsion-free cone'}", '{}'),
    'flatness/frobenius(Q)':
        ('valid', 81, 'sampled', 'None', "{'condition3': 'vacuously satisfied', 'condition3_collisions': 0}"),
    'flatness/frobenius(Z)':
        ('valid', 81, 'sampled', 'None', "{'condition3': 'vacuously satisfied', 'condition3_collisions': 0}"),
    'flatness/frobenius(Z[1/6])':
        ('valid', 121, 'sampled', 'None', "{'condition3': 'vacuously satisfied', 'condition3_collisions': 0}"),
    'flatness/no_samples':
        ('raises', 'DomainError', 'samples must be >= 1'),
    'flatness/projection':
        ('counterexample', 3, 'sampled', "{'condition': 2, 'pair': [Fraction(1, 1), Fraction(5, 1)], 'w': Fraction(1, 1), 'reason': 'action does not reach the pair from the refinement'}", '{}'),
    'homomorphism/constant_one':
        ('raises', 'BrokenHomomorphismError', 'const1 does not preserve the constants'),
    'homomorphism/cube':
        ('raises', 'BrokenHomomorphismError', 'cube does not preserve ⊕ at ((0,1), (0,1))'),
    'homomorphism/identity(chang)':
        ('returns', None),
    'homomorphism/leaves_chain':
        ('raises', 'StructuralError', '1/4 is not a point of the 3-element chain'),
    'homomorphism/projection':
        ('returns', None),
    'homomorphism/squaring':
        ('raises', 'BrokenHomomorphismError', 'square does not preserve negation at 1/2'),
    'lbisemiring/absorption_first_fails':
        ('counterexample', 84, 'exhaustive', "{'axiom': 'absorption', 'elements': [1, 2]}", '{}'),
    'lbisemiring/absorption_second_fails':
        ('counterexample', 82, 'exhaustive', "{'axiom': 'absorption', 'elements': [1, 0]}", '{}'),
    'lbisemiring/corrupted_join':
        ('counterexample', 82, 'exhaustive', "{'axiom': 'absorption', 'elements': [1, 0]}", '{}'),
    'lbisemiring/corrupted_odot':
        ('counterexample', 227, 'exhaustive', "{'axiom': 'odot_one_neutral', 'elements': [1]}", '{}'),
    'lbisemiring/missing_one':
        ('raises', 'MalformedInputError', 'carrier must contain 0 and 1'),
    'lbisemiring/theta(chain:2)':
        ('valid', 92, 'exhaustive', 'None', '{}'),
    'lbisemiring/theta(chain:2xchain:2)':
        ('valid', 560, 'exhaustive', 'None', '{}'),
    'lbisemiring/theta(chain:5)':
        ('raises', 'MalformedInputError', 'carrier is not closed under oplus at (<1/4 in FiniteChain(5)>, <1/2 in FiniteChain(5)>)'),
    'lbisemiring/theta(delta:trivial)':
        ('valid', 92, 'exhaustive', 'None', '{}'),
    'lbisemiring/three_chain':
        ('valid', 258, 'exhaustive', 'None', '{}'),
    'lbisemiring/truncated_sum':
        ('valid', 258, 'exhaustive', 'None', '{}'),
    'mv_axioms/chain:2xchain:3':
        ('valid', 307, 'exhaustive', 'None', '{}'),
    'mv_axioms/chain:4':
        ('valid', 109, 'exhaustive', 'None', '{}'),
    'mv_axioms/chang/exhaustive':
        ('raises', 'ModeError', 'chang has an infinite carrier; use a bounded or sampled check'),
    'mv_axioms/chang/sampled':
        ('valid', 1201, 'sampled', 'None', '{}'),
    'mv_axioms/interval/sampled':
        ('valid', 301, 'sampled', 'None', '{}'),
    'mv_axioms/unknown_mode':
        ('raises', 'DomainError', "unknown mode 'bounded'"),
    'recognize/full(chain:3)':
        ('counterexample', 38, 'exhaustive', "{'element': <1/2 in FiniteChain(3)>, 'reason': 'x⊙x = 0 but x ≠ 0'}", "{'inf_size': 2, 'bool_size': 2}"),
    'recognize/missing_one':
        ('raises', 'MalformedInputError', 'carrier must contain distinct 0 and 1 (a one-element input collapses 0 = 1)'),
    'recognize/open_third':
        ('raises', 'MalformedInputError', 'carrier is not closed under oplus at (1/3, 1/3)'),
    'recognize/theta(chain:2)':
        ('valid', 20, 'exhaustive', 'None', "{'inf_size': 1, 'bool_size': 2}"),
    'recognize/theta(chain:2xchain:2)':
        ('valid', 72, 'exhaustive', 'None', "{'inf_size': 1, 'bool_size': 4}"),
    'recognize/theta(chain:5)':
        ('raises', 'MalformedInputError', 'carrier is not closed under oplus at (1/4, 1/2)'),
    'recognize/theta_star(chain:3)':
        ('valid', 20, 'exhaustive', 'None', "{'inf_size': 1, 'bool_size': 2}"),
    'tautology/axiom_2/chain:4':
        ('valid', 64, 'exhaustive', 'None', '{}'),
    'tautology/closed/chain:2':
        ('valid', 1, 'exhaustive', 'None', '{}'),
    'tautology/refuted/chain:3':
        ('counterexample', 2, 'exhaustive', "{'valuation': {'x': <1/2 in FiniteChain(3)>}, 'value': <1/2 in FiniteChain(3)>}", '{}'),
    'theta_on_morphism/to_zero':
        ('returns', 'theta(first)'),
    'vc_member/chain:2xchain:2':
        ('valid', 4, 'exhaustive', 'None', '{}'),
    'vc_member/chain:3':
        ('counterexample', 2, 'exhaustive', "{'x': <1/2 in FiniteChain(3)>}", '{}'),
}


def _outcome(run):
    try:
        result = run()
    except Exception as exc:  # the pinned outcome may be an error
        return ("raises", type(exc).__name__, str(exc))
    if result is None or isinstance(result, str):
        return ("returns", result)
    return (result.verdict, result.checked, result.mode, repr(result.witness),
            repr(result.details))


@pytest.mark.parametrize("case", sorted(CASES))
def test_checker_outcome_is_pinned(case):
    assert _outcome(CASES[case]) == EXPECTED[case]
