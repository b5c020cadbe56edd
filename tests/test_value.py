"""The package's 25 frozen records, one case each, built on ``value.Value``.

Each case's ``repr`` is pinned to the text these records have always printed
(the oracle of the benchmark compares witnesses by ``repr``).  A record equals
another only of its own class with equal compared fields, and equal records
hash equal; ``Law``, ``FlatAction`` and ``Bisemiring`` equal only themselves.
No record takes assignment or ``del``; pickle, copy and ``replace`` rebuild it
through its ``__init__``.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from mvtrop import replace
from mvtrop.algebra import (CHANG, DeltaOf, FiniteChain, MvElement, ProductAlgebra,
                            RationalInterval)
from mvtrop.bisemirings import Bisemiring, TopCone
from mvtrop.characteristics import INF, Characteristic, characteristic
from mvtrop.errors import DomainError
from mvtrop.functors import Morphism
from mvtrop.groups import Integers, LexZG, QSubgroup, TrivialGroup, TropOfGroup, Z
from mvtrop.logic import Valuation
from mvtrop.qpoints import FlatAction, GpInvariant, frobenius_action
from mvtrop.report import CheckReport, Instances, Law
from mvtrop.terms import Const, Implies, Neg, Odot, Oplus, Var, parse_equation


def halve(n, x):
    return x / 2


def is_zero(ops, p):
    return p == ops.zero


DYADIC = characteristic({2: INF})
X, Y = Var("x"), Var("y")
HALF = "<1/2 in FiniteChain(3)>"
DYADIC_REPR = "Characteristic(default=0, {2:inf})"
MP = ("Law(name='mp', conclusion=Equation(lhs=Var(name='y'), rhs=Const(value=1)), "
      "premises=(Equation(lhs=Implies(left=Var(name='x'), right=Var(name='y')), "
      "rhs=Const(value=1)),))")

# name: (build, repr); each build makes a new record equal to the last, if the
# class compares fields.
CASES = {
    "FiniteChain": (lambda: FiniteChain(5), "FiniteChain(5)"),
    "RationalInterval": (lambda: RationalInterval(), "RationalInterval"),
    "DeltaOf": (lambda: DeltaOf(QSubgroup(DYADIC)), f"DeltaOf(QSubgroup({DYADIC_REPR}))"),
    "ProductAlgebra": (lambda: ProductAlgebra((FiniteChain(2), CHANG)),
                       "Product(FiniteChain(2), Chang)"),
    "MvElement": (lambda: MvElement(FiniteChain(3), Fraction(1, 2)), HALF),
    "Integers": (lambda: Integers(), "Z"),
    "TrivialGroup": (lambda: TrivialGroup(), "TrivialGroup"),
    "QSubgroup": (lambda: QSubgroup(DYADIC), f"QSubgroup({DYADIC_REPR})"),
    "LexZG": (lambda: LexZG(Z), "LexZG(Z)"),
    "TropOfGroup": (lambda: TropOfGroup(LexZG(Z)), "Trop(LexZG(Z))"),
    "Var": (lambda: Var("x"), "Var(name='x')"),
    "Const": (lambda: Const(1), "Const(value=1)"),
    "Neg": (lambda: Neg(Var("x")), "Neg(arg=Var(name='x'))"),
    "Binary": (lambda: Implies(Oplus(X, Const(0)), Neg(Y)),
               "Implies(left=Oplus(left=Var(name='x'), right=Const(value=0)), "
               "right=Neg(arg=Var(name='y')))"),
    "Equation": (lambda: parse_equation("x (+) y = ~y"),
                 "Equation(lhs=Oplus(left=Var(name='x'), right=Var(name='y')), "
                 "rhs=Neg(arg=Var(name='y')))"),
    "CheckReport": (lambda: CheckReport("valid_up_to_bound", 9, mode="bounded",
                                        details={"bound": 2}),
                    "CheckReport(verdict='valid_up_to_bound', checked=9, witness=None, "
                    "mode='bounded', details={'bound': 2})"),
    "Instances": (lambda: Instances(range, "sampled", 4),
                  "Instances(tuples=<class 'range'>, mode='sampled', bound=4, size=None)"),
    "Law": (lambda: Law("mp", parse_equation("y = 1"), (parse_equation("x -> y = 1"),)), MP),
    "Bisemiring": (lambda: Bisemiring(FiniteChain(3), is_zero, "zeros"),
                   "zeros(FiniteChain(3))"),
    "TopCone": (lambda: TopCone(QSubgroup(DYADIC)), f"TopCone(QSubgroup({DYADIC_REPR}))"),
    "GpInvariant": (lambda: GpInvariant(3, 1), "GpInvariant(prime=3, value=1)"),
    "FlatAction": (lambda: FlatAction(DYADIC, halve, "halving"),
                   f"FlatAction(halving, base={DYADIC_REPR})"),
    "Characteristic": (lambda: Characteristic(0, ((2, INF), (3, 1))),
                       "Characteristic(default=0, {2:inf, 3:1})"),
    "Morphism": (lambda: Morphism(FiniteChain(2), FiniteChain(2), "id", abs),
                 "Morphism(source=FiniteChain(2), target=FiniteChain(2), name='id', "
                 "fn=<built-in function abs>)"),
    "Valuation": (lambda: Valuation(FiniteChain(3), {"x": MvElement(FiniteChain(3),
                                                                     Fraction(1, 2))}),
                  f"Valuation(algebra=FiniteChain(3), bindings={{'x': {HALF}}})"),
}
IDENTITY = {"Law", "FlatAction", "Bisemiring"}
UNHASHABLE = {"CheckReport", "Valuation"}  # a dict field


@pytest.mark.parametrize("name", CASES)
def test_a_record_keeps_its_repr_equality_hash_and_immutability(name):
    build, text = CASES[name]
    a, b = build(), build()
    assert type(a).__name__ == name or name == "Binary"
    assert repr(a) == repr(b) == text
    assert a == a and (a == b) == (name not in IDENTITY) and (a != b) == (name in IDENTITY)
    for other, (build_other, _) in CASES.items():  # no record equals one of another class
        assert other == name or a != build_other()
    assert a != object() and a != repr(a)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    elif name not in IDENTITY:
        assert hash(a) == hash(b) and {a: 1}[b] == 1
    for field in [*vars(a), "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert repr(a) == text
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is type(a) and repr(twin) == text
        assert (twin == a) == (name not in IDENTITY)
        assert twin is not a or name in ("Integers", "TrivialGroup")


def test_equality_is_per_class_and_of_the_compared_fields():
    assert Oplus(X, Y) != Odot(X, Y) and Oplus(X, Y) == Oplus(Var("x"), Var("y"))
    assert hash(Oplus(X, Y)) == hash((X, Y))  # the hash of the tuple of its fields
    assert Morphism(Z, Z, "id", abs) == Morphism(Z, Z, "id", len)  # fn is not compared
    assert Morphism(Z, Z, "id", abs) != Morphism(Z, Z, "id2", abs)
    assert FiniteChain(3) != RationalInterval() and DeltaOf(Z) == CHANG
    assert RationalInterval() == RationalInterval()


def test_replace_rebuilds_through_init():
    F = FlatAction(DYADIC, halve, "halving")
    assert F.act_pair(1, 1, 1) == (1, 2)
    G = replace(F, act=frobenius_action(DYADIC).act)
    assert G.act_pair(3, 1, 2) == (3, 2) and G.label == "halving" and G.base == DYADIC
    assert replace(G, act=halve).act_pair(1, 1, 1) == (1, 2)
    law = Law("mp", parse_equation("y = 1"))
    assert law.slots == {"y": 0}
    assert replace(law, premises=(parse_equation("x -> y = 1"),)).slots == {"x": 0, "y": 1}
    assert replace(law, conclusion=parse_equation("z = 1")).slots == {"z": 0}
    assert replace(FiniteChain(3), size=4) == FiniteChain(4)
    with pytest.raises(DomainError):
        replace(FiniteChain(3), size=1)  # the constructor's checks run again
    with pytest.raises(TypeError):
        replace(F, act_pair=halve)  # a derived field is not an argument
    report = CheckReport("valid", 3)
    assert report.details == {} and report.details is not CheckReport("valid", 3).details
    assert replace(report, checked=4) == CheckReport("valid", 4)


def test_pickle_drops_a_built_record_and_rederives_fields():
    G = LexZG(QSubgroup(DYADIC))
    G.ops  # built and cached on first use
    H = pickle.loads(pickle.dumps(G))
    assert "ops" not in vars(H) and H == G and H.ops.zero == G.ops.zero
    F = pickle.loads(pickle.dumps(FlatAction(DYADIC, halve, "halving")))
    assert F.act is halve and F.act_pair(1, 1, 1) == (1, 2)
    law = pickle.loads(pickle.dumps(Law("mp", parse_equation("y = 1"),
                                        (parse_equation("x -> y = 1"),))))
    assert law.slots == {"x": 0, "y": 1}
