import itertools
import random
from fractions import Fraction

import pytest

from conftest import luk_neg, luk_odot, luk_oplus, random_term
from mvtrop.algebra import (CHANG, FiniteChain, RationalInterval, element,
                            enumerate_elements, mv_implies, mv_leq, mv_meet,
                            mv_join, mv_neg, mv_odot, mv_oplus, one,
                            product_algebra, zero)
from mvtrop.errors import DomainError, EvaluationError, ModeError, StructuralError
from mvtrop.logic import (VC_AXIOM, Valuation, axiom_suite,
                          check_equation_bounded, check_equation_chang,
                          check_equation_finite, default_chang_bound, evaluate,
                          tautology_check, vc_membership)
from mvtrop.terms import parse, parse_equation, substitute, variables

L2, L3, L5 = FiniteChain(2), FiniteChain(3), FiniteChain(5)
INTERVAL = RationalInterval()


def val(A, **kw):
    return Valuation(A, {k: element(A, v) for k, v in kw.items()})


# -- evaluation ----------------------------------------------------------------

def test_evaluate_axiom_one_example():
    v = val(INTERVAL, x=Fraction(3, 10), y=Fraction(9, 10))
    assert evaluate(parse("x -> (y -> x)"), v).payload == 1


def test_evaluate_non_contradiction():
    t = parse("x (.) ~x")
    for A, bound in ((L5, None), (INTERVAL, 7), (CHANG, 4)):
        for e in enumerate_elements(A, bound):
            assert evaluate(t, Valuation(A, {"x": e})) == zero(A)


def test_evaluate_tertium_non_datur():
    t = parse("x (+) ~x")
    for A, bound in ((L3, None), (CHANG, 4)):
        for e in enumerate_elements(A, bound):
            assert evaluate(t, Valuation(A, {"x": e})) == one(A)


def test_evaluate_vc_polynomial_in_chang():
    t = parse("(x(+)x)(.)(x(+)x)")
    v = Valuation(CHANG, {"x": element(CHANG, (1, -3))})
    assert evaluate(t, v).payload == (1, 0)


def test_evaluate_matches_interval_oracle():
    rng = random.Random(17)
    t = parse("(x (+) y) (.) ~z (-) (x /\\ y) \\/ (z -> x)")
    pool = [Fraction(n, 12) for n in range(13)]
    for _ in range(150):
        a, b, c = (rng.choice(pool) for _ in range(3))
        got = evaluate(t, val(INTERVAL, x=a, y=b, z=c)).payload
        # oracle: independent evaluation with raw min/max arithmetic
        lhs = luk_odot(luk_oplus(a, b), luk_neg(c))
        sub = luk_odot(lhs, luk_neg(min(a, b)))       # (… (-) (x /\ y))
        expected = max(sub, luk_oplus(luk_neg(c), a))  # … \/ (z -> x)
        assert got == expected


def test_evaluate_errors():
    with pytest.raises(EvaluationError, match="'y'"):
        evaluate(parse("x (+) y"), val(INTERVAL, x=Fraction(1, 2)))
    with pytest.raises(StructuralError):
        evaluate(parse("x"), Valuation(L3, {"x": element(L2, 1)}))


def test_substitution_is_a_homomorphism():
    rng = random.Random(23)
    for _ in range(120):
        t = random_term(rng, 4)
        s = random_term(rng, 3)
        A = L5
        elems = enumerate_elements(A)
        bindings = {n: rng.choice(elems) for n in variables(t) | variables(s) | {"x"}}
        v = Valuation(A, bindings)
        inner = evaluate(s, v)
        patched = Valuation(A, {**bindings, "x": inner})
        assert evaluate(substitute(t, "x", s), v) == evaluate(t, patched)


def test_connective_monotonicity():
    rng = random.Random(29)
    for A, bound in ((L5, None), (INTERVAL, 9), (CHANG, 5)):
        pool = enumerate_elements(A, bound)
        for _ in range(200):
            a, b, c = (rng.choice(pool) for _ in range(3))
            if not mv_leq(a, b):
                a, b = b, a
            assert mv_leq(mv_oplus(a, c), mv_oplus(b, c))
            assert mv_leq(mv_odot(a, c), mv_odot(b, c))
            assert mv_leq(mv_meet(a, c), mv_meet(b, c))
            assert mv_leq(mv_join(a, c), mv_join(b, c))
            assert mv_leq(mv_neg(b), mv_neg(a))


# -- equation checking ------------------------------------------------------------

def test_vc_axiom_fails_in_three_chain():
    report = check_equation_finite(VC_AXIOM, L3)
    assert report.verdict == "counterexample"
    w = report.witness["x"]
    assert w.payload == Fraction(1, 2)
    v = Valuation(L3, {"x": w})
    assert evaluate(VC_AXIOM.lhs, v).payload == 1
    assert evaluate(VC_AXIOM.rhs, v).payload == 0


def test_vc_axiom_holds_in_boolean_algebras():
    assert check_equation_finite(VC_AXIOM, L2).verdict == "valid"
    assert check_equation_finite(VC_AXIOM, product_algebra(L2, L2)).verdict == "valid"


def test_commutativity_equation():
    eq = parse_equation("x (+) y = y (+) x")
    report = check_equation_finite(eq, FiniteChain(4))
    assert report.verdict == "valid"
    assert report.checked == 16


def test_check_equation_finite_rejects_infinite():
    with pytest.raises(ModeError):
        check_equation_finite(VC_AXIOM, CHANG)


def test_check_equation_chang():
    report = check_equation_chang(VC_AXIOM, bound=5)
    assert report.verdict == "valid_up_to_bound"
    assert report.details["bound"] == 5

    report = check_equation_chang(parse_equation("x (+) x = x"), bound=2)
    assert report.verdict == "counterexample"
    assert report.witness["x"].payload == (0, 1)

    report = check_equation_chang(parse_equation("x (+) 1 = 1"), bound=3)
    assert report.verdict == "valid_up_to_bound"


def test_default_chang_bound_is_twice_operation_count():
    assert default_chang_bound(VC_AXIOM) == 12
    assert default_chang_bound(parse_equation("x = x")) == 1
    report = check_equation_chang(parse_equation("x (+) x = x"))
    assert report.verdict == "counterexample"


def test_bounded_check_on_other_algebras():
    eq = parse_equation("x /\\ y = y /\\ x")
    report = check_equation_bounded(eq, RationalInterval(), 5)
    assert report.verdict == "valid_up_to_bound"


# -- tautology checking --------------------------------------------------------------

def test_axiom_three_in_five_chain():
    report = tautology_check(parse("((x -> y) -> y) -> ((y -> x) -> x)"), L5)
    assert report.verdict == "valid"
    assert report.checked == 25


def test_excluded_middle_fails_in_three_chain():
    report = tautology_check(parse("x \\/ ~x"), L3)
    assert report.verdict == "counterexample"
    assert report.witness["valuation"]["x"].payload == Fraction(1, 2)
    assert report.witness["value"].payload == Fraction(1, 2)


def test_tertium_non_datur_is_a_tautology():
    for n in range(2, 7):
        assert tautology_check(parse("x (+) ~x"), FiniteChain(n)).verdict == "valid"


def test_excluded_middle_holds_in_boolean():
    assert tautology_check(parse("x \\/ ~x"), L2).verdict == "valid"


CLASSICAL_TAUTOLOGIES = [
    "x \\/ ~x",
    "x -> x",
    "((x -> y) -> x) -> x",              # Peirce
    "~(x /\\ ~x)",
    "(x -> y) \\/ (y -> x)",
    "~(x \\/ y) -> ~x /\\ ~y",
    "(x /\\ y -> z) -> (x -> (y -> z))",
    "~~x -> x",
]


def test_classical_tautology_corpus_in_boolean():
    for text in CLASSICAL_TAUTOLOGIES:
        assert tautology_check(parse(text), L2).verdict == "valid", text


def test_excluded_middle_rejected_with_value_gap():
    for n in range(3, 7):
        report = tautology_check(parse("x \\/ ~x"), FiniteChain(n))
        assert report.verdict == "counterexample"
        value = report.witness["value"].payload
        assert 0 < value < 1
        # the chain point nearest 1/2 refutes it too
        near = element(FiniteChain(n), Fraction((n - 1) // 2, n - 1))
        assert mv_join(near, mv_neg(near)) != one(FiniteChain(n))


# -- variety membership ----------------------------------------------------------------

def test_vc_membership():
    assert vc_membership(L2).ok
    assert vc_membership(product_algebra(L2, L2)).ok
    for n in range(3, 8):
        report = vc_membership(FiniteChain(n))
        assert report.verdict == "counterexample"


# -- the axiom suite ---------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 7))
def test_axiom_suite_on_chains(n):
    report = axiom_suite(FiniteChain(n))
    assert report.verdict == "valid"


def test_axiom_suite_sampled_on_interval():
    report = axiom_suite(INTERVAL, samples=120, seed=3, bound=12)
    assert report.verdict == "valid"
    assert report.mode == "sampled"


def test_axiom_suite_requires_samples_on_infinite():
    with pytest.raises(ModeError):
        axiom_suite(CHANG)


@pytest.mark.parametrize("samples", [0, -1])
def test_axiom_suite_rejects_a_sample_count_below_one(samples):
    with pytest.raises(DomainError, match="samples must be >= 1"):
        axiom_suite(CHANG, samples=samples)
    with pytest.raises(DomainError, match="samples must be >= 1"):
        axiom_suite(FiniteChain(3), samples=samples)


def test_peirce_law_fails_as_a_corrupted_axiom():
    # replacing axiom 1 with Peirce's law is caught, with the expected witness
    report = tautology_check(parse("((x -> y) -> x) -> x"), L3)
    assert report.verdict == "counterexample"
    w = report.witness["valuation"]
    assert w["x"].payload == Fraction(1, 2) and w["y"].payload == 0


def test_modus_ponens_soundness_spot_check():
    for A in (L3, L5, product_algebra(L2, L3)):
        top = one(A)
        for a, b in itertools.product(enumerate_elements(A), repeat=2):
            if mv_implies(a, b) == top and a == top:
                assert b == top


def test_boolean_corner_consistency():
    # a finite check over the two-element chain agrees with the bounded Chang
    # check restricted to the Boolean subalgebra {(0,0), (1,0)}
    corner = [zero(CHANG), one(CHANG)]
    equations = [
        VC_AXIOM,
        parse_equation("x (+) y = y (+) x"),
        parse_equation("x (+) x = x"),
        parse_equation("x (.) x = x"),
        parse_equation("x (+) 1 = 1"),
        parse_equation("~(x (+) y) = ~x (.) ~y"),
        parse_equation("x (+) y = x (.) y"),
    ]
    for eq in equations:
        names = sorted(eq.variables())
        corner_ok = all(
            evaluate(eq.lhs, Valuation(CHANG, dict(zip(names, combo))))
            == evaluate(eq.rhs, Valuation(CHANG, dict(zip(names, combo))))
            for combo in itertools.product(corner, repeat=len(names)))
        assert corner_ok == check_equation_finite(eq, L2).ok
