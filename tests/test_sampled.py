"""Differential test: checks on the int record against a payload reference.

A sampled check draws its instances from the values of ``algebra.int_record``,
runs its laws on that record and decodes only a counterexample's instance.
The reference below is the earlier form: it draws ``random.Random(seed).choice``
from the payload listing and checks the laws on ``payload_ops``.  The whole
report must be equal, the witness down to the types of its payloads.  A
finite chain's int record is a ``range`` decoded on demand, so sampled
checks, θ, θ* and the Boolean part must answer, with the same results, when a
finite chain's listing cannot be built at all.  A product's values are a
sequence that turns an index into one tuple, so draws on a product are the
listing's draws without the listing.

A product walked in full (exhaustive or bounded) is decided on its leaves'
int records, or walked on the k-tuples of its int record's values; the
reference walks the payload listing, every law over every tuple of it on
``payload_ops``.  The whole report must again be equal.

A finite chain's or a product's own listing is its int record's values
decoded, so every reference here lists the payloads without the record
(``conftest.reference_listing``): k/(n − 1) in order on a chain, and
``itertools.product`` of the factors' listings on a product, nested or not.
A nested product's int record is one flat record over its leaves, so its
listings, draws, exports and checks must equal the references too, the
nesting of each payload included.
"""

import itertools
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_term, reference_draws, reference_listing
import mvtrop.algebra as algebra
from mvtrop.algebra import (FiniteChain, ProductAlgebra, _mv_laws, check_identities,
                            enumerate_payloads, int_record, payload_ops, sample_elements)
from mvtrop.errors import DomainError
from mvtrop.export import hasse_dot, operation_tables
from mvtrop.functors import atoms, boolean_part, theta, theta_star
from mvtrop.jsonio import parse_algebra_shorthand
from mvtrop.logic import (LUKASIEWICZ_AXIOMS, VC_AXIOM, _law, _suite_laws, tautology_check,
                          vc_membership)
from mvtrop.report import COUNTEREXAMPLE, VALID, CheckReport, Instances, check_laws
from mvtrop.terms import CONST1, Equation, Join, Neg, Oplus, Var
from test_export import expected_dot, expected_tables


def reference_check(A, laws_of, bound, samples, seed):
    """The sampled walk on payloads: each law over fresh draws from the listing,
    an arity-0 law once; the first failure wins."""
    draws = reference_draws(reference_listing(A, bound), samples, seed)
    checked = 0
    for name, arity, holds in laws_of(payload_ops(A)):
        for instance in draws(arity) if arity else [()]:
            checked += 1
            if not holds(*instance):
                return CheckReport(COUNTEREXAMPLE, checked, (name, instance), "sampled")
    return CheckReport(VALID, checked, mode="sampled")


# (shorthand, bounds); a finite carrier ignores its bound
KINDS = ([(f"chain:{n}", [None, 1, 5]) for n in range(2, 10)]
         + [("chain:2001", [None, 3]), ("interval", range(1, 7)), ("chang", range(1, 6)),
            ("delta:Z[1/2]", range(1, 5)), ("delta:lex:Z", range(1, 3)),
            ("prod:chain:2,chain:3", [None, 2]), ("prod:chain:3,chang", range(1, 4))])

terms = st.builds(lambda seed, depth: random_term(random.Random(seed), depth),
                  st.integers(0, 2 ** 32), st.integers(0, 4))


def _equation(lhs, rhs):
    return lambda ops: [_law("equation", Equation(lhs, rhs), ops)]


def _tautology(t):
    return lambda ops: [_law("tautology", Equation(t, CONST1), ops)]


def _vc_laws(ops):
    return [_law("vc_axiom", VC_AXIOM, ops)]


laws = st.one_of(st.builds(_equation, terms, terms), st.builds(_tautology, terms),
                 st.just(_suite_laws), st.just(_mv_laws), st.just(_vc_laws))


@st.composite
def algebras(draw):
    text, bounds = draw(st.sampled_from(KINDS))
    return parse_algebra_shorthand(text), draw(st.sampled_from(bounds))


@settings(max_examples=300, deadline=None)
@given(algebras(), laws, st.integers(1, 40), st.integers(0, 2 ** 32))
def test_sampled_checks_match_the_payload_reference(case, laws_of, samples, seed):
    A, bound = case
    report = check_identities(A, laws_of, bound, samples, seed)
    expected = reference_check(A, laws_of, bound, samples, seed)
    assert report == expected
    assert repr(report.witness) == repr(expected.witness)


@settings(max_examples=100, deadline=None)
@given(algebras(), st.integers(1, 60), st.integers(0, 2 ** 32))
def test_sample_elements_are_the_reference_draws(case, count, seed):
    A, bound = case
    bound = bound or 1
    expected = [p for (p,) in reference_draws(reference_listing(A, bound), count, seed)(1)]
    assert [repr(x.payload) for x in sample_elements(A, count, seed, bound)] == list(
        map(repr, expected))


@pytest.mark.parametrize("n", [1, 2, 3, 2001, 10 ** 5])
def test_seeded_choices_from_a_range_and_from_its_list_agree(n):
    values = range(n)
    listed = list(values)
    for seed in (0, 1, 18):
        a, b = random.Random(seed), random.Random(seed)
        assert [a.choice(values) for _ in range(10_000)] == [b.choice(listed) for _ in range(10_000)]


# -- a finite chain's listing is never built to be sampled or walked --------------------

def _unlistable(monkeypatch):
    def refuse(self, bound):
        raise AssertionError(f"{self} was listed")
    monkeypatch.setattr(FiniteChain, "enumerate", refuse)


def _listings(A):
    return [[x.payload for x in xs] for xs in (theta(A).elements(), theta_star(A).elements(),
                                               boolean_part(A))]


def test_listings_and_draws_do_not_list_a_finite_chain(monkeypatch):
    small = [parse_algebra_shorthand(s) for s in ("chain:2001", "prod:chain:3,chain:4")]
    chain = FiniteChain(7)
    expected = ([_listings(A) for A in small], sample_elements(chain, 30, 4),
                check_identities(chain, _suite_laws, None, 30, 4))
    _unlistable(monkeypatch)
    assert ([_listings(A) for A in small], sample_elements(chain, 30, 4),
            check_identities(chain, _suite_laws, None, 30, 4)) == expected
    huge = FiniteChain(10 ** 7)
    indices = reference_draws(range(10 ** 7), 5, 1)(1)
    assert [x.payload for x in sample_elements(huge, 5, 1)] == [
        Fraction(i, 10 ** 7 - 1) for (i,) in indices]
    assert check_identities(huge, _suite_laws, None, 5, 1).checked == 25


def test_theta_star_of_chain_2001_builds_only_the_fractions_it_lists(monkeypatch):
    built = []
    monkeypatch.setattr(algebra, "Fraction", lambda *args: built.append(args) or Fraction(*args))
    assert len(theta_star(FiniteChain(2001)).elements()) == len(built) == 668


# -- a product's int record is a sequence of its tuples, listed only by a walk ---------

@pytest.mark.parametrize("text, bound", [
    ("prod:chain:2,chain:3", None), ("prod:chain:3,chang", 2), ("prod:interval,chain:3", 3),
    ('prod:chain:2,{"kind":"product","factors":[{"kind":"finite_chain","size":3},'
     '{"kind":"chang"}]},chain:4', 2)])
def test_a_products_values_index_and_draw_as_their_listing(text, bound):
    A = parse_algebra_shorthand(text)
    _, values, decode = int_record(A, bound)
    listed = list(values)
    assert repr([decode(v) for v in listed]) == repr(reference_listing(A, bound))
    assert len(values) == len(listed)
    assert [values[i] for i in range(-len(listed), len(listed))] == listed + listed
    for i in (-len(listed) - 1, len(listed)):
        with pytest.raises(IndexError):
            values[i]
    for seed in (0, 1, 18):
        a, b = random.Random(seed), random.Random(seed)
        assert [a.choice(values) for _ in range(500)] == [b.choice(listed) for _ in range(500)]


def test_draws_on_a_product_of_chains_do_not_list_it(monkeypatch):
    def refuse(self, bound):
        raise AssertionError(f"{self} was listed")
    monkeypatch.setattr(ProductAlgebra, "enumerate", refuse)
    _unlistable(monkeypatch)
    n = 10 ** 5
    A = parse_algebra_shorthand(f"prod:chain:{n},chain:{n}")
    assert [x.payload for x in sample_elements(A, 5, 1)] == [
        (Fraction(i // n, n - 1), Fraction(i % n, n - 1))
        for (i,) in reference_draws(range(n * n), 5, 1)(1)]
    assert check_identities(A, _suite_laws, None, 5, 1).checked == 25


@pytest.mark.parametrize("text", ["chain:100000000000000000000",
                                  "prod:chain:100000,chain:100000,chain:100000,chain:100000"])
def test_a_carrier_too_long_to_draw_from_is_a_domain_error(text):
    with pytest.raises(DomainError, match="cannot draw from"):
        sample_elements(parse_algebra_shorthand(text), 5, 1)


# -- a product walked in full runs on its int record --------------------------------

def walk_reference(A, laws_of, bound):
    """The exhaustive or bounded walk on payloads: every law over every tuple of
    the payload listing, in canonical order; the first failure wins."""
    source = Instances.over(reference_listing(A, bound),
                            "exhaustive" if bound is None else "bounded", bound)
    return check_laws(laws_of(payload_ops(A)), source)


def _product(*factors):
    return {"kind": "product", "factors": list(factors)}


_L2, _L3 = {"kind": "finite_chain", "size": 2}, {"kind": "finite_chain", "size": 3}
_L4000 = {"kind": "finite_chain", "size": 4000}
# the last one has 3.2·10⁷ elements: it is checked, never listed
_NESTED = [json.dumps(d) for d in (_product(_L3, _product(_L2, _L3)),
                                   _product(_product(_L2, _L2), _L3),
                                   _product(_L2, _product(_L3, {"kind": "chang"})),
                                   _product(_L2, _product(_L4000, _L4000)))]

# (shorthand, bounds), each pool at most 28 elements: 21,952 tuples for a
# 3-variable law; a finite carrier ignores its bound, but the mode reads it
WALKED = ([("prod:chain:2,chain:2", [None]), ("prod:chain:2,chain:3", [None, 2]),
           ("prod:chain:3,chain:4", [None]), ("prod:chain:2,chain:5", [None]),
           ("prod:chain:2,chain:2,chain:3", [None]), ("prod:chain:4", [None]),
           ("delta:trivial", [None]), ("prod:delta:trivial,chain:3", [None, 1]),
           ("prod:chain:3,chang", [1, 2, 3]), ("prod:delta:Z[1/2],chain:2", [1, 2, 3]),
           ("prod:interval,chain:3", [1, 2, 3]), ("prod:delta:lex:Z,chain:2", [1])]
          + [(text, [None]) for text in _NESTED[:2]] + [(_NESTED[2], [1, 2])])


@st.composite
def walked(draw):
    text, bounds = draw(st.sampled_from(WALKED))
    return parse_algebra_shorthand(text), draw(st.sampled_from(bounds))


@settings(max_examples=150, deadline=None)
@given(walked(), laws)
def test_product_walks_match_the_payload_reference(case, laws_of):
    A, bound = case
    report, expected = check_identities(A, laws_of, bound), walk_reference(A, laws_of, bound)
    assert report == expected
    assert repr(report.witness) == repr(expected.witness)


# delta:lex:Z × chain:2 has 52 and 100 elements at bounds 2 and 3: laws of one
# and two variables only
@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("laws_of", [
    _vc_laws, _equation(Oplus(Var("x"), Var("y")), Oplus(Var("y"), Var("x"))),
    _equation(Oplus(Var("x"), Var("y")), Var("y")), _tautology(Join(Var("x"), Neg(Var("x"))))])
def test_lex_product_walks_match_the_payload_reference(laws_of, bound):
    A = parse_algebra_shorthand("prod:delta:lex:Z,chain:2")
    report, expected = check_identities(A, laws_of, bound), walk_reference(A, laws_of, bound)
    assert report == expected
    assert repr(report.witness) == repr(expected.witness)


@pytest.mark.parametrize("text, bound", [
    ("prod:chain:2,chain:3", None), ("prod:chain:4", None), ("prod:chain:3,chang", 2),
    ("prod:interval,chain:3", 2), ("prod:delta:Z[1/2],chain:2", 1),
    ("prod:delta:lex:Z,chain:2", 1), ("prod:delta:trivial,chain:3", None),
    *[(text, 1) for text in _NESTED[:3]]])
def test_a_products_k_tuples_are_the_listings(text, bound):
    _, values, _ = int_record(parse_algebra_shorthand(text), bound)
    for k in range(4):
        assert list(values.tuples(k)) == list(itertools.product(list(values), repeat=k))


def test_product_checks_do_not_list_the_product_or_a_chain(monkeypatch):
    small = [parse_algebra_shorthand(t) for t in ("prod:chain:2,chain:3", _NESTED[0])]
    big = parse_algebra_shorthand("prod:chain:4000,chain:4000")
    axiom_2 = dict(LUKASIEWICZ_AXIOMS)["axiom_2"]

    def checks():
        return ([(vc_membership(A), tautology_check(axiom_2, A), check_identities(A, _mv_laws),
                  check_identities(A, _equation(Var("x"), Var("y")), 2)) for A in small],
                vc_membership(big), check_identities(big, _equation(Var("x"), Var("y"))),
                tautology_check(axiom_2, parse_algebra_shorthand("prod:chain:30,chain:30")))
    expected = checks()
    assert [r.ok for r in expected[0][0]] == [False, True, True, False]
    _unlistable(monkeypatch)
    monkeypatch.setattr(ProductAlgebra, "enumerate", lambda self, bound: pytest.fail("listed"))
    reports = checks()
    assert reports == expected
    assert repr(reports) == repr(expected)
    assert [(r.verdict, r.checked) for r in reports[1:]] == [
        (COUNTEREXAMPLE, 1001), (COUNTEREXAMPLE, 2), (VALID, 30 ** 6)]


def test_a_nested_product_is_checked_as_its_flat_form_without_a_listing(monkeypatch):
    nested = parse_algebra_shorthand(_NESTED[3])
    flat = parse_algebra_shorthand("prod:chain:2,chain:4000,chain:4000")
    _unlistable(monkeypatch)
    monkeypatch.setattr(ProductAlgebra, "enumerate", lambda self, bound: pytest.fail("listed"))
    monkeypatch.setattr(algebra._Tuples, "__iter__", lambda self: pytest.fail("values listed"))
    x_is_y = _equation(Var("x"), Var("y"))
    involutive = _equation(Neg(Neg(Var("x"))), Var("x"))
    checks = [vc_membership, lambda A: check_identities(A, x_is_y),
              lambda A: check_identities(A, involutive)]
    reports = [(check(nested), check(flat)) for check in checks]
    assert [(r.verdict, r.checked) for r, _ in reports] == [
        (e.verdict, e.checked) for _, e in reports]
    assert [r.checked for r, _ in reports] == [1001, 2, 2 * 4000 * 4000]
    witness = (Fraction(0), (Fraction(0), Fraction(1000, 3999)))
    assert reports[0][0].witness["x"].payload == witness


# -- nested products list, draw and export as their payload reference -----------

_DEEP = json.dumps(_product(_L2, _product(_L3, _product({"kind": "delta", "group": {
    "kind": "trivial"}}, _L2))))


@pytest.mark.parametrize("text, bound", [
    (_NESTED[0], None), (_NESTED[1], None), (_NESTED[2], 1), (_NESTED[2], 2), (_DEEP, None)])
def test_nested_products_list_and_export_as_the_payload_reference(text, bound):
    A = parse_algebra_shorthand(text)
    ops, listing = payload_ops(A), reference_listing(A, bound)
    assert repr(enumerate_payloads(A, bound)) == repr(listing)
    for part in (theta(A), theta_star(A)):
        assert repr(part.payloads(bound)) == repr([p for p in listing if part.test(ops, p)])
    oracle = SimpleNamespace(elements=listing, render=A.payload_to_json,
                             infinitesimal=A.is_infinitesimal, oplus=ops.oplus, odot=ops.odot,
                             neg=ops.neg, meet=ops.meet, join=ops.join, leq=ops.leq)
    fragment = bound is not None
    assert operation_tables(A, bound) == dict(algebra=A.to_json(),
                                              **expected_tables(oracle, fragment))
    assert hasse_dot(A, bound) == expected_dot(oracle)
    for seed in (0, 7):
        assert repr([x.payload for x in sample_elements(A, 40, seed, bound)]) == repr(
            [p for (p,) in reference_draws(listing, 40, seed)(1)])
    if not fragment:
        nonzero = [p for p in listing if p != ops.zero]
        assert repr([x.payload for x in atoms(A)]) == repr(
            [p for p in nonzero if not any(q != p and ops.leq(q, p) for q in nonzero)])
