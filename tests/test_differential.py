"""Differential test: the checkers against an in-test reference.

The reference evaluates terms with the conftest oracles only (Lukasiewicz
arithmetic on chains and products of chains, Chang arithmetic on Z lex Z
pairs) and walks valuations in the documented canonical order, so verdicts,
first witnesses and ``checked`` counts must agree exactly.  The Δ(G) payload
records, which run on unchecked group arithmetic, are compared the same way
with a reference built on the public, membership-checking group operations.
Each record's own order (≤, ∨, ∧) is compared with the order the MV-algebra
definitions derive from the same record's ⊕ and ¬.  On products, where a valid
verdict is decided factor by factor, the checkers are also compared with a
forced walk of the product's own instances, each law evaluated by the scalar
reference of ``conftest``.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (chang_fragment, chang_neg, chang_oplus, luk_neg,
                      luk_odot, luk_oplus, random_term, reference_draws,
                      reference_report, reference_walk)
import pytest

from mvtrop.algebra import (CHANG, DeltaOf, FiniteChain, MvElement,
                            RationalInterval, _mv_axioms, check_mv_axioms,
                            enumerate_payloads, payload_ops, product_algebra)
from mvtrop.characteristics import CHI_Q, parse_group_label
from mvtrop.groups import (LexZG, Z, group_add, group_enumerate, group_leq,
                           group_negate, group_zero, qsubgroup)
from mvtrop.logic import (_suite, VC_AXIOM, Valuation, axiom_suite,
                          check_equation_bounded, check_equation_finite,
                          evaluate, tautology_check, vc_membership)
from mvtrop.report import CheckReport, Law
from mvtrop.terms import (Const, Equation, Implies, Join, Meet, Neg, Odot,
                          Ominus, Oplus, Var, variables)


def _luk():
    return {"oplus": luk_oplus, "neg": luk_neg, "odot": luk_odot,
            "meet": min, "join": max, "zero": Fraction(0), "one": Fraction(1)}


def _chang():
    def odot(x, y):
        return chang_neg(chang_oplus(chang_neg(x), chang_neg(y)))
    return {"oplus": chang_oplus, "neg": chang_neg, "odot": odot,
            "meet": min, "join": max, "zero": (0, 0), "one": (1, 0)}


def _componentwise(parts):
    def lift(name):
        fns = [p[name] for p in parts]
        return lambda *args: tuple(f(*col) for f, col in zip(fns, zip(*args)))
    ops = {name: lift(name) for name in ("oplus", "neg", "odot", "meet", "join")}
    ops.update(zero=tuple(p["zero"] for p in parts), one=tuple(p["one"] for p in parts))
    return ops


def reference(t, ops, env):
    """Structural evaluation of t on raw values with the oracle operations."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return ops["one"] if t.value else ops["zero"]
    if isinstance(t, Neg):
        return ops["neg"](reference(t.arg, ops, env))
    a, b = reference(t.left, ops, env), reference(t.right, ops, env)
    if isinstance(t, Oplus):
        return ops["oplus"](a, b)
    if isinstance(t, Odot):
        return ops["odot"](a, b)
    if isinstance(t, Ominus):
        return ops["odot"](a, ops["neg"](b))
    if isinstance(t, Implies):
        return ops["oplus"](ops["neg"](a), b)
    if isinstance(t, Meet):
        return ops["meet"](a, b)
    assert isinstance(t, Join)
    return ops["join"](a, b)


def chain_carrier(n):
    return [Fraction(k, n - 1) for k in range(n)]


L2, L3 = FiniteChain(2), FiniteChain(3)

# (descriptor, oracle operations, carrier in canonical order, bound or None)
FINITE = [(FiniteChain(n), _luk(), chain_carrier(n), None) for n in (2, 3, 4, 6)] + [
    (product_algebra(L2, L3), _componentwise([_luk(), _luk()]),
     list(itertools.product(chain_carrier(2), chain_carrier(3))), None),
    # a nested product
    (product_algebra(L2, product_algebra(L3, L2)),
     _componentwise([_luk(), _componentwise([_luk(), _luk()])]),
     list(itertools.product(chain_carrier(2),
                            itertools.product(chain_carrier(3), chain_carrier(2)))), None),
    # a repeated factor
    (product_algebra(L2, L2, L3), _componentwise([_luk(), _luk(), _luk()]),
     list(itertools.product(chain_carrier(2), chain_carrier(2), chain_carrier(3))), None),
    # a bounded product with an infinite factor
    (product_algebra(L2, CHANG), _componentwise([_luk(), _chang()]),
     list(itertools.product(chain_carrier(2), chang_fragment(2))), 2),
]


def reference_equation(e, ops, carrier):
    names = sorted(e.variables())
    checked = 0
    for combo in itertools.product(carrier, repeat=len(names)):
        checked += 1
        env = dict(zip(names, combo))
        if reference(e.lhs, ops, env) != reference(e.rhs, ops, env):
            return "counterexample", checked, env
    return None, checked, None


def payloads(bindings):
    return {name: x.payload for name, x in bindings.items()}


terms = st.builds(lambda seed, depth: random_term(random.Random(seed), depth),
                  st.integers(0, 2 ** 32), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(terms, terms, st.sampled_from(range(len(FINITE))))
def test_finite_equation_and_tautology_match_reference(lhs, rhs, which):
    A, ops, carrier, bound = FINITE[which]
    e = Equation(lhs, rhs)
    report = check_equation_finite(e, A) if bound is None else check_equation_bounded(e, A, bound)
    verdict, checked, witness = reference_equation(e, ops, carrier)
    assert report.checked == checked
    assert report.verdict == (verdict or ("valid" if bound is None else "valid_up_to_bound"))
    assert report.mode == ("exhaustive" if bound is None else "bounded")
    assert report.details == ({"bound": bound} if bound and not verdict else {})
    assert (report.witness and payloads(report.witness)) == witness
    if bound is not None:
        return  # tautology_check walks finite algebras only

    report = tautology_check(lhs, A)
    verdict, checked, witness = reference_equation(Equation(lhs, Const(1)), ops, carrier)
    assert report.checked == checked
    assert report.verdict == (verdict or "valid")
    assert (report.mode, report.details) == ("exhaustive", {})
    if witness is not None:
        assert payloads(report.witness["valuation"]) == witness
        assert report.witness["value"].payload == reference(lhs, ops, witness)


@settings(max_examples=60, deadline=None)
@given(terms, terms, st.integers(1, 3))
def test_bounded_chang_equation_matches_reference(lhs, rhs, bound):
    e = Equation(lhs, rhs)
    report = check_equation_bounded(e, CHANG, bound)
    verdict, checked, witness = reference_equation(e, _chang(), chang_fragment(bound))
    assert report.checked == checked and report.mode == "bounded"
    assert report.verdict == (verdict or "valid_up_to_bound")
    assert (report.witness and payloads(report.witness)) == witness


@settings(max_examples=80, deadline=None)
@given(terms, st.sampled_from(range(len(FINITE) + 1)), st.randoms(use_true_random=False))
def test_evaluate_matches_reference(t, which, rng):
    if which == len(FINITE):
        A, ops, carrier = CHANG, _chang(), chang_fragment(4)
    else:
        A, ops, carrier, _ = FINITE[which]
    env = {name: rng.choice(carrier) for name in sorted(variables(t) | {"x"})}
    value = evaluate(t, Valuation(A, {n: MvElement(A, p) for n, p in env.items()}))
    assert value == MvElement(A, reference(t, ops, env))


# -- Δ(G) records against the public, checking group operations ------------------

def _add(G, x, y):
    if isinstance(G, LexZG):
        return (x[0] + y[0], _add(G.tail, x[1], y[1]))
    return group_add(G, x, y)


def _negate(G, x):
    if isinstance(G, LexZG):
        return (-x[0], _negate(G.tail, x[1]))
    return group_negate(G, x)


def _leq(G, x, y):
    if isinstance(G, LexZG):
        return x[0] < y[0] or (x[0] == y[0] and _leq(G.tail, x[1], y[1]))
    return group_leq(G, x, y)


def _delta_reference(G):
    """Δ(G) arithmetic on (bit, offset) pairs through group_add/group_leq, which
    check membership on every call (lex pairs are taken apart here, so the lex
    record is not used), ordered lexicographically by bit then offset."""
    gz = group_zero(G)

    def oplus(p, q):
        bit, off = p[0] + q[0], _add(G, p[1], q[1])
        if bit == 0:
            return (0, off)
        return (1, off if bit == 1 and _leq(G, off, gz) else gz)

    def neg(p):
        return (1 - p[0], _negate(G, p[1]))

    def leq(p, q):
        return p[0] < q[0] or (p[0] == q[0] and _leq(G, p[1], q[1]))

    return {"oplus": oplus, "neg": neg, "leq": leq,
            "odot": lambda p, q: neg(oplus(neg(p), neg(q))),
            "meet": lambda p, q: p if leq(p, q) else q,
            "join": lambda p, q: q if leq(p, q) else p,
            "zero": (0, gz), "one": (1, gz)}


def _delta_fragment(G, bound):
    """The canonical fragment order, rebuilt from group_enumerate and the reference order."""
    gz = group_zero(G)
    cone = [g for g in group_enumerate(G, bound) if _leq(G, gz, g)]
    return [(0, g) for g in cone] + [(1, _negate(G, g)) for g in reversed(cone)]


DELTA_GROUPS = [(Z, 4), (qsubgroup(parse_group_label("Z[1/2]")), 3),
                (qsubgroup(parse_group_label("Z[1/6]")), 3), (qsubgroup(CHI_Q), 3),
                (LexZG(Z), 2)]
DELTA_POOLS = [(G, _delta_fragment(G, bound)) for G, bound in DELTA_GROUPS]

delta_pairs = st.sampled_from(DELTA_POOLS).flatmap(
    lambda gp: st.tuples(st.just(gp[0]), st.sampled_from(gp[1]), st.sampled_from(gp[1])))


@settings(max_examples=200, deadline=None)
@given(delta_pairs)
def test_delta_record_matches_checking_group_ops(case):
    G, p, q = case
    ops, ref = payload_ops(DeltaOf(G)), _delta_reference(G)
    assert ops.oplus(p, q) == ref["oplus"](p, q)
    assert ops.neg(p) == ref["neg"](p)
    assert ops.join(p, q) == ref["join"](p, q)
    assert ops.meet(p, q) == ref["meet"](p, q)
    assert ops.leq(p, q) == ref["leq"](p, q)


@settings(max_examples=40, deadline=None)
@given(terms, terms, st.sampled_from([(CHANG, 1), (CHANG, 3), (DeltaOf(DELTA_GROUPS[1][0]), 1),
                                      (DeltaOf(DELTA_GROUPS[1][0]), 2)]))
def test_bounded_delta_equation_matches_checking_reference(lhs, rhs, case):
    A, bound = case
    e = Equation(lhs, rhs)
    report = check_equation_bounded(e, A, bound)
    verdict, checked, witness = reference_equation(
        e, _delta_reference(A.group), _delta_fragment(A.group, bound))
    assert report.checked == checked and report.mode == "bounded"
    assert report.verdict == (verdict or "valid_up_to_bound")
    assert (report.witness and payloads(report.witness)) == witness


# -- each kind's own order against the order derived from its ⊕ and ¬ ---------

ORDER_POOLS = [(A, enumerate_payloads(A, bound)) for A, bound in [
    (FiniteChain(2), None), (FiniteChain(3), None), (FiniteChain(7), None),
    (RationalInterval(), 5), (CHANG, 3),
    (DeltaOf(qsubgroup(parse_group_label("Z[1/2]"))), 2),
    (DeltaOf(qsubgroup(CHI_Q)), 2), (DeltaOf(LexZG(Z)), 2),
    (product_algebra(FiniteChain(3), CHANG), 2),
    (product_algebra(FiniteChain(2), FiniteChain(3), FiniteChain(2)), None)]]

order_pairs = st.sampled_from(ORDER_POOLS).flatmap(
    lambda ap: st.tuples(st.just(ap[0]), st.sampled_from(ap[1]), st.sampled_from(ap[1])))


@settings(max_examples=300, deadline=None)
@given(order_pairs)
def test_native_order_matches_order_derived_from_oplus_and_neg(case):
    A, p, q = case
    ops = payload_ops(A)
    oplus, neg = ops.oplus, ops.neg

    def join(a, b):  # ¬(¬a ⊕ b) ⊕ b
        return oplus(neg(oplus(neg(a), b)), b)

    assert ops.leq(p, q) == (oplus(neg(p), q) == ops.one)
    assert ops.join(p, q) == join(p, q)
    assert ops.meet(p, q) == neg(join(neg(p), neg(q)))


# -- products: the factorwise decision against a forced walk of the product ----

PRODUCTS = [product_algebra(L2, L3), product_algebra(L3, L2, L3),
            product_algebra(L2, product_algebra(L3, L2)), product_algebra(L2, L2, L2)]


def _walk(A, laws, bound=None, samples=None, seed=0):
    """The scalar reference over every instance of A itself, with no factorwise
    shortcut; a sampled walk draws from A's payload listing on its own."""
    pool = enumerate_payloads(A, bound)
    if samples is not None:
        return CheckReport(**reference_report(
            laws, payload_ops(A), reference_draws(pool, samples, seed), "sampled"))
    return CheckReport(**reference_walk(laws, payload_ops(A), pool, bound))


@pytest.mark.parametrize("A", PRODUCTS, ids=repr)
def test_mv_axioms_and_axiom_suite_decided_on_products_match_the_walk(A):
    assert check_mv_axioms(A) == _walk(A, _mv_axioms())
    assert axiom_suite(A) == _walk(A, _suite())
    assert check_mv_axioms(A, "sampled", samples=60, seed=3, bound=4) == _walk(
        A, _mv_axioms(), 4, 60, 3)
    assert axiom_suite(A, samples=60, seed=3, bound=4) == _walk(A, _suite(), 4, 60, 3)


_VC = [Law("equation", VC_AXIOM)]


def _vc_witness(report):
    return report.witness and {"x": report.witness[1][0]}


@pytest.mark.parametrize("A,bound", [(product_algebra(L2, CHANG), 2),
                                     (product_algebra(CHANG, L3, CHANG), 1)], ids=repr)
def test_sampled_and_bounded_products_match_the_walk(A, bound):
    assert check_mv_axioms(A, "sampled", samples=80, seed=1, bound=bound) == _walk(
        A, _mv_axioms(), bound, 80, 1)
    assert axiom_suite(A, samples=80, seed=1, bound=bound) == _walk(
        A, _suite(), bound, 80, 1)
    report, walk = check_equation_bounded(VC_AXIOM, A, bound), _walk(A, _VC, bound)
    assert (report.verdict, report.checked, report.mode, report.details) == (
        walk.verdict, walk.checked, walk.mode, walk.details)
    assert (report.witness and payloads(report.witness)) == _vc_witness(walk)


@pytest.mark.parametrize("A", [product_algebra(L2, L3), product_algebra(L2, L2, L3),
                               product_algebra(L2, product_algebra(L2, L3)),
                               product_algebra(L3, L2), product_algebra(L2, L2)], ids=repr)
def test_vc_membership_on_products_fails_where_the_walk_does(A):
    """(2x)² = 2(x²) holds in chain:2 and fails in chain:3, so a product with a
    chain:3 factor anywhere is refuted at the walk's first counterexample."""
    report, walk = vc_membership(A), _walk(A, _VC)
    assert (report.verdict, report.checked, report.mode) == (walk.verdict, walk.checked, walk.mode)
    assert (report.witness and payloads(report.witness)) == _vc_witness(walk)
