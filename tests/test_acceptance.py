"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every check is exact
(no numeric tolerances anywhere); expected values come from independent
oracles computed inside this module.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import random_term
from mvtrop.algebra import (CHANG, FiniteChain, RationalInterval,
                            check_mv_axioms, element, enumerate_elements,
                            mv_join, mv_meet, mv_neg, mv_odot, mv_oplus, one,
                            product_algebra)
from mvtrop.bisemirings import TOP, cone_add, cone_elements, cone_leq, cone_meet
from mvtrop.characteristics import (CHI_Q, CHI_Z, characteristic, factor,
                                    parse_group_label)
from mvtrop.characteristics import contains_rational as contains
from mvtrop.cli import main
from mvtrop.functors import (delta, delta_inverse, detrop, f_equiv, theta,
                             theta_perfect, theta_perfect_inverse, theta_star,
                             trop)
from mvtrop.groups import Z, group_enumerate, qsubgroup
from mvtrop.logic import (Valuation, axiom_suite, evaluate, tautology_check,
                          vc_membership)
from mvtrop.qpoints import (check_flatness, classify_regularity,
                            find_divisible_between, frobenius_action,
                            gp_invariant, group_from_action, theta_pt)
from mvtrop.terms import parse, print_term

CHI_DYADIC = parse_group_label("Z[1/2]")
CHI_SIXTH = parse_group_label("Z[1/6]")
CHI_NINTH = characteristic({3: 2})


def _passed(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS — {message}")


def test_criterion_01_mv_axiom_suite():
    for n in range(2, 8):
        assert check_mv_axioms(FiniteChain(n)).verdict == "valid"
    assert check_mv_axioms(product_algebra(FiniteChain(2), FiniteChain(3))).verdict == "valid"
    for A in (CHANG, RationalInterval()):
        report = check_mv_axioms(A, mode="sampled", samples=1000, seed=1)
        assert report.verdict == "valid"
    _passed(1, "MV axioms: exhaustive on chains 2..7 and L2×L3, sampled(1000, seed=1) on Chang and [0,1]∩Q")


def test_criterion_02_theta_of_chang_via_cli(capsys):
    for bound in range(1, 51):
        code = main(["theta", "--algebra", "chang", "--bound", str(bound)])
        out = capsys.readouterr().out
        assert code == 0
        got = json.loads(out)["elements"]
        expected = [[0, str(k)] for k in range(bound + 1)] + [[1, "0"]]
        assert got == expected
    _passed(2, "theta(C) = {(0,k)} ∪ {(1,0)} via the CLI for bounds 1..50")


def test_criterion_03_theta_of_interval_closed_form():
    A = RationalInterval()
    S = theta(A)
    two_thirds = Fraction(2, 3)
    count = 0
    for x in enumerate_elements(A, 100):
        q = x.payload
        # independent oracle: direct evaluation of x >= min(1, 2·max(0, 2x-1))
        oracle = q >= min(Fraction(1), 2 * max(Fraction(0), 2 * q - 1))
        closed_form = q <= two_thirds or q == 1
        assert oracle == closed_form
        assert S.contains(x) == closed_form
        count += 1
    assert count > 3000
    _passed(3, f"theta([0,1]∩Q) = [0,2/3] ∪ {{1}} on all {count} rationals with denominator ≤ 100")


def test_criterion_04_prop1_duality():
    th, ts = theta(CHANG), theta_star(CHANG)
    for x in enumerate_elements(CHANG, 25):
        assert ts.contains(x) == th.contains(mv_neg(x))
    for k in range(1, 5):
        B = product_algebra(*([FiniteChain(2)] * k))
        th_b, ts_b = theta(B), theta_star(B)
        for x in enumerate_elements(B):
            assert ts_b.contains(x) == th_b.contains(mv_neg(x))
    L3 = FiniteChain(3)
    th3, ts3 = theta(L3), theta_star(L3)
    witnesses = [x.payload for x in enumerate_elements(L3)
                 if ts3.contains(x) != th3.contains(mv_neg(x))]
    assert witnesses == [Fraction(1, 2)]
    _passed(4, "x ∈ θ* ⟺ ¬x ∈ θ on Chang (bound 25) and Boolean products up to 16; fails on L3 exactly at 1/2")


def test_criterion_05_closure_lemma():
    th = theta(CHANG)
    members = th.elements(15)
    assert len(members) == 17
    violations = 0
    for x, y in itertools.product(members, repeat=2):
        for op in (mv_oplus, mv_odot, mv_meet, mv_join):
            if not th.contains(op(x, y)):
                violations += 1
    assert violations == 0
    _passed(5, "theta(Chang fragment, bound 15) closed under ⊕, ⊙, ∧, ∨ with zero violations")


def _vc_first_witness_oracle(n: int) -> Fraction:
    # brute force with raw interval arithmetic, independent of the algebra layer
    one_ = Fraction(1)
    for k in range(n):
        x = Fraction(k, n - 1)
        two_x = min(one_, x + x)
        lhs = max(Fraction(0), two_x + two_x - 1)
        sq = max(Fraction(0), x + x - 1)
        rhs = min(one_, sq + sq)
        if lhs != rhs:
            return x
    raise AssertionError(f"no witness in chain of size {n}")


def test_criterion_06_vc_separation():
    assert vc_membership(FiniteChain(2)).ok
    assert vc_membership(product_algebra(FiniteChain(2), FiniteChain(2))).ok
    expected_first = {3: Fraction(1, 2), 4: Fraction(1, 3), 5: Fraction(1, 2),
                      6: Fraction(2, 5), 7: Fraction(1, 3)}
    for n in range(3, 8):
        report = vc_membership(FiniteChain(n))
        assert report.verdict == "counterexample"
        witness = report.witness["x"].payload
        assert witness == _vc_first_witness_oracle(n) == expected_first[n]
        # the witness sits within one chain step of 1/2, and the element
        # closest to 1/2 refutes the equation as well
        assert abs(witness - Fraction(1, 2)) <= Fraction(1, n - 1)
        closest = Fraction((n - 1) // 2, n - 1)
        A = FiniteChain(n)
        x = element(A, closest)
        two_x = mv_oplus(x, x)
        sq = mv_odot(x, x)
        assert mv_odot(two_x, two_x) != mv_oplus(sq, sq)
    _passed(6, "V(C) membership accepts L2 and L2×L2, rejects chains 3..7 with near-1/2 witnesses")


def test_criterion_07_functor_round_trips():
    groups = [Z, qsubgroup(CHI_Q), qsubgroup(CHI_DYADIC), qsubgroup(CHI_SIXTH)]
    for G in groups:
        assert detrop(trop(G)) == G
        assert delta_inverse(delta(G)) == G
    for P in (CHANG, delta(qsubgroup(CHI_Q))):
        assert theta_perfect_inverse(theta_perfect(P)) == P
    T1 = f_equiv(trop(Z))
    T2 = theta_perfect(CHANG)
    assert T1 == T2
    # explicit order- and operation-preserving bijection on the bound-20 fragments
    frag1, frag2 = cone_elements(T1, 20), cone_elements(T2, 20)
    assert len(frag1) == len(frag2) == 22
    bijection = dict(zip(frag1, frag2))
    for x, y in itertools.product(frag1, repeat=2):
        fx, fy = bijection[x], bijection[y]
        if cone_add(T1, x, y) in bijection:
            assert bijection[cone_add(T1, x, y)] == cone_add(T2, fx, fy)
        assert bijection[cone_meet(T1, x, y)] == cone_meet(T2, fx, fy)
        assert cone_leq(T1, x, y) == cone_leq(T2, fx, fy)
    assert bijection[TOP] is TOP
    _passed(7, "detrop∘trop, delta⁻¹∘delta, theta_perfect⁻¹∘theta_perfect are identities; F(trop(Z)) ≅ theta(C)")


def test_criterion_08_lukasiewicz_axioms():
    for n in range(2, 7):
        report = axiom_suite(FiniteChain(n))
        assert report.verdict == "valid"
    report = axiom_suite(RationalInterval(), samples=500, seed=8, bound=12)
    assert report.verdict == "valid"
    tnd = parse("x (+) ~x")
    for n in range(2, 7):
        assert tautology_check(tnd, FiniteChain(n)).verdict == "valid"
    rng = random.Random(8)
    pool = enumerate_elements(RationalInterval(), 12)
    A = RationalInterval()
    for _ in range(500):
        v = Valuation(A, {"x": rng.choice(pool)})
        assert evaluate(tnd, v) == one(A)
    report = tautology_check(parse("x \\/ ~x"), FiniteChain(3))
    assert report.verdict == "counterexample"
    assert report.witness["valuation"]["x"].payload == Fraction(1, 2)
    assert report.witness["value"].payload == Fraction(1, 2)
    _passed(8, "axioms 1-4 are tautologies (L2..L6 exhaustive, 500 rational valuations); excluded middle fails in L3 at 1/2")


def _congruence_classes(chi, p, bound=18) -> int:
    reps = []
    for x in group_enumerate(qsubgroup(chi), bound):
        if not any(contains(chi, Fraction(x - r, p)) for r in reps):
            reps.append(x)
        if len(reps) > p:
            break
    return len(reps)


def test_criterion_09_gp_and_regularity():
    zoo = {"Z": CHI_Z, "Q": CHI_Q, "Z[1/2]": CHI_DYADIC,
           "Z[1/6]": CHI_SIXTH, "chi(3)=2": CHI_NINTH}
    for label, chi in zoo.items():
        for p in (2, 3, 5, 7, 11, 13):
            value = gp_invariant(chi, p).value
            assert value <= p
            assert value == _congruence_classes(chi, p), (label, p)
    assert classify_regularity(CHI_Z) == "regularly_discrete"
    assert classify_regularity(CHI_NINTH) == "regularly_discrete"
    for chi in (CHI_Q, CHI_DYADIC, CHI_SIXTH):
        assert classify_regularity(chi) == "regularly_dense"

    rng = random.Random(200)
    chis = list(zoo.values())
    produced = 0
    while produced < 200:
        chi = rng.choice(chis)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        frag = group_enumerate(qsubgroup(chi), 5)
        a = rng.choice(frag)
        width = p + 1 if chi.is_cyclic else Fraction(rng.randrange(1, 4))
        b = a + width
        x = find_divisible_between(chi, p, a, b)
        assert a < x < b
        assert contains(chi, x) and contains(chi, Fraction(x, p))
        produced += 1
    _passed(9, "Gp matches congruence counting (primes ≤ 13, five groups); regularity classified; 200 verified witnesses")


def _probe_pool(chi, height=10):
    pool = set()
    for d in range(1, height + 1):
        for n in range(1, height + 1):
            q = Fraction(n, d)
            if q.denominator == d and contains(chi, q):
                pool.add(q)
    return sorted(pool)


def test_criterion_10_flatness_and_reconstruction():
    for chi in (CHI_Z, CHI_Q, CHI_DYADIC):
        report = check_flatness(frobenius_action(chi), samples=1000, seed=1)
        assert report.verdict == "valid"

    checked_sets = 0
    for chi in (CHI_Z, CHI_Q, CHI_DYADIC):
        F = frobenius_action(chi)
        pool = _probe_pool(chi)
        for size in range(1, 5):
            for probes in itertools.combinations(pool, size):
                got = group_from_action(F, probes)
                m = 1
                for x in probes:
                    m = m * x.denominator // __import__("math").gcd(m, x.denominator)
                expected = qsubgroup(characteristic(dict(factor(m))))
                assert got == expected
                checked_sets += 1

    T1 = theta_pt(CHI_Z)
    T2 = theta_perfect(CHANG)
    frag1, frag2 = cone_elements(T1, 20), cone_elements(T2, 20)
    bijection = dict(zip(frag1, frag2))
    for x, y in itertools.product(frag1, repeat=2):
        fx, fy = bijection[x], bijection[y]
        if cone_add(T1, x, y) in bijection:
            assert bijection[cone_add(T1, x, y)] == cone_add(T2, fx, fy)
        assert cone_leq(T1, x, y) == cone_leq(T2, fx, fy)
    _passed(10, f"Frobenius flatness (1000 samples × 3 groups); {checked_sets} probe sets reconstructed; theta_pt(Z) ≅ theta(C)")


def test_criterion_11_parser_round_trip_and_goldens(capsys):
    rng = random.Random(1234)
    for _ in range(10000):
        t = random_term(rng, rng.randrange(0, 9))
        assert parse(print_term(t)) == t
    from test_cli import _readme_examples
    examples = _readme_examples()
    assert len(examples) >= 8
    for argv, expected, exit_code in examples:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == exit_code, argv
        assert out.rstrip("\n") == expected, argv
    _passed(11, f"parse∘print = id on 10000 seeded terms; {len(examples)} README goldens byte-identical")
