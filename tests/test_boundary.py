"""Group membership of Δ(G) offsets is checked at the element boundary.

The payload records compute on unchecked group arithmetic, so every
element-level entry point checks its arguments once: a hand-built MvElement
whose offset lies outside G must raise StructuralError, wherever it appears.
"""

from fractions import Fraction

import pytest

from mvtrop.algebra import (CHANG, DeltaOf, FiniteChain, MvElement,
                            is_boolean_elem, mv_implies, mv_join, mv_leq,
                            mv_meet, mv_neg, mv_odot, mv_ominus, mv_oplus,
                            product_algebra, zero)
from mvtrop.bisemirings import TopCone, cone_add, cone_join, cone_leq, cone_meet
from mvtrop.characteristics import parse_group_label
from mvtrop.errors import DomainError, StructuralError
from mvtrop.functors import theta, theta_star
from mvtrop.groups import (BOTTOM, TropOfGroup, Z, qsubgroup, sf_leq, sinverse, splus,
                           stimes)
from mvtrop.logic import Valuation, evaluate
from mvtrop.terms import parse

DYADIC = qsubgroup(parse_group_label("Z[1/2]"))
D2 = DeltaOf(DYADIC)
L2 = FiniteChain(2)

# (label, element with a foreign offset); the product cases hide one inside a factor.
FOREIGN = [
    ("delta_dyadic_third", MvElement(D2, (0, Fraction(1, 3)))),
    ("chang_half", MvElement(CHANG, (0, Fraction(1, 2)))),
    ("chang_half_bit1", MvElement(CHANG, (1, Fraction(-1, 2)))),
    ("product_with_chang", MvElement(product_algebra(L2, CHANG),
                                     (Fraction(0), (0, Fraction(1, 2))))),
    ("product_with_dyadic", MvElement(product_algebra(D2, L2),
                                      ((1, Fraction(-1, 3)), Fraction(1)))),
]

BINARY = [mv_oplus, mv_odot, mv_ominus, mv_implies, mv_join, mv_meet, mv_leq]


@pytest.mark.parametrize("label,bad", FOREIGN, ids=[f[0] for f in FOREIGN])
@pytest.mark.parametrize("op", BINARY, ids=[op.__name__ for op in BINARY])
def test_binary_operations_check_both_arguments(op, label, bad):
    good = zero(bad.algebra)
    with pytest.raises(StructuralError):
        op(bad, good)
    with pytest.raises(StructuralError):
        op(good, bad)


@pytest.mark.parametrize("label,bad", FOREIGN, ids=[f[0] for f in FOREIGN])
def test_unary_entry_points_check_their_argument(label, bad):
    A = bad.algebra
    for check in (mv_neg, is_boolean_elem, theta(A).contains, theta_star(A).contains):
        with pytest.raises(StructuralError):
            check(bad)


@pytest.mark.parametrize("label,bad", FOREIGN, ids=[f[0] for f in FOREIGN])
@pytest.mark.parametrize("term", ["~x", "x (+) y", "y (.) x"])
def test_evaluate_checks_its_bindings(term, label, bad):
    A = bad.algebra
    with pytest.raises(StructuralError):
        evaluate(parse(term), Valuation(A, {"x": bad, "y": zero(A)}))


def test_semifield_and_cone_operations_check_their_arguments():
    S, T = TropOfGroup(Z), TopCone(DYADIC)
    half, third = Fraction(1, 2), Fraction(1, 3)
    for op in (splus, stimes, sf_leq):
        for args in ((half, 1), (1, half)):
            with pytest.raises(StructuralError):
                op(S, *args)
    with pytest.raises(StructuralError):
        sinverse(S, half)
    with pytest.raises(DomainError, match="^-inf has no multiplicative inverse$"):
        sinverse(S, BOTTOM)
    for op in (cone_add, cone_leq, cone_meet, cone_join):
        for args in ((third, half), (half, third), (Fraction(-1, 2), half)):
            with pytest.raises(StructuralError):
                op(T, *args)
    with pytest.raises(StructuralError) as excinfo:
        splus(S, 1, half)
    assert str(excinfo.value) == "Fraction(1, 2) is not in the carrier of trop:Z"
    with pytest.raises(StructuralError) as excinfo:
        cone_join(T, half, third)
    assert str(excinfo.value) == ("Fraction(1, 3) is not in the carrier of "
                                  "TopCone(QSubgroup(Characteristic(default=0, {2:inf})))")
