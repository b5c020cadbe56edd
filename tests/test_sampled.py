"""Differential test: checks on the int record against a payload reference.

A sampled check reads its instances from one lazy stream of draws on the
values of ``algebra.int_record`` (``algebra.seeded_draws``), streams them
through its laws' pipelines on that record (``report.check_laws``) and
decodes only a counterexample's instance.  The reference below is the earlier
form: it draws ``random.Random(seed).choice`` from the payload listing and
checks each instance in turn on ``payload_ops``, evaluated by the scalar
reference of ``conftest``, which shares no code with the engine.  The whole
report must be equal, the witness down to the types of its payloads; the
stream must read no value past a check's first counterexample, nor leave
its generator anywhere but where as many ``choice`` calls would; and a
check's memory must not grow with its number of samples, nor a full walk's
with its number of instances.  A finite chain's int record is a ``range``
decoded on demand, so sampled checks, θ, θ* and the Boolean part must answer,
with the same results, when a finite chain's listing cannot be built at all.
A product's values are a sequence that turns an index into one tuple, so
draws on a product are the listing's draws without the listing.

A product walked in full (exhaustive or bounded) is decided on its leaves'
int records, or walked on the k-tuples of its int record's values, and a
Δ(G) leaf walked in full runs on its int record, ``_chain_ops(0, T)`` on
the ints bit·T + φ(g).  The
reference walks the payload listing, every law over every tuple of it on
``payload_ops``.  The whole report must again be equal, the witness down to
the types of its payloads.

Every kind's own listing is its int record's values decoded, so every
reference here lists the payloads without the record
(``conftest.reference_listing``): k/(n − 1) in order on a chain, the Farey
sequence on the interval, Δ(G)'s pairs from its group's fragment, and
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

from conftest import (random_term, reference_draws, reference_listing, reference_report,
                      reference_walk, traced_peak)
import mvtrop.algebra as algebra
from mvtrop.algebra import (_mv_axioms, FiniteChain, ProductAlgebra, check_identities,
                            enumerate_payloads, int_record, payload_ops, sample_elements,
                            seeded_draws)
from mvtrop.errors import DomainError
from mvtrop.export import hasse_dot, operation_tables
from mvtrop.functors import atoms, boolean_part, theta, theta_star
from mvtrop.jsonio import parse_algebra_shorthand
from mvtrop.logic import (_suite, LUKASIEWICZ_AXIOMS, VC_AXIOM, tautology_check,
                          vc_membership)
from mvtrop.report import COUNTEREXAMPLE, VALID, CheckReport, Law
from mvtrop.terms import (CONST0, CONST1, Equation, Implies, Join, Meet, Neg, Odot, Oplus,
                          Var, parse_equation)
from test_export import expected_dot, expected_tables


def reference_check(A, laws, bound, samples, seed):
    """The sampled walk on payloads: each law over fresh draws from the listing,
    an arity-0 law once, evaluated by the scalar reference; the first failure wins."""
    draws = reference_draws(reference_listing(A, bound), samples, seed)
    return CheckReport(**reference_report(laws, payload_ops(A), draws, "sampled"))


# (shorthand, bounds); a finite carrier ignores its bound
KINDS = ([(f"chain:{n}", [None, 1, 5]) for n in range(2, 10)]
         + [("chain:2001", [None, 3]), ("interval", range(1, 7)), ("chang", range(1, 6)),
            ("delta:Z[1/2]", range(1, 5)), ("delta:lex:Z", range(1, 3)),
            ("prod:chain:2,chain:3", [None, 2]), ("prod:chain:3,chang", range(1, 4))])

terms = st.builds(lambda seed, depth: random_term(random.Random(seed), depth),
                  st.integers(0, 2 ** 32), st.integers(0, 4))


def _equation(lhs, rhs):
    return [Law("equation", Equation(lhs, rhs))]


def _tautology(t):
    return [Law("tautology", Equation(t, CONST1))]


_VC = [Law("vc_axiom", VC_AXIOM)]

law_lists = st.one_of(st.builds(_equation, terms, terms), st.builds(_tautology, terms),
                      st.just(_suite()), st.just(_mv_axioms()), st.just(_VC))

equations = st.builds(Equation, terms, terms)
# premises that hold on every instance (t = t), on some (t = 1), or on few
premises = st.lists(st.one_of(st.builds(lambda t: Equation(t, t), terms),
                              st.builds(lambda t: Equation(t, CONST1), terms), equations),
                    min_size=1, max_size=2).map(tuple)
# quasi-identities and conjunctions that fail on some instances and not on others
_HORN = [Law("converse", parse_equation("x = 1"), (parse_equation("x -> y = 1"),)),
         Law("idempotent", (parse_equation("x (+) y = y (+) x"), parse_equation("x (.) x = x"))),
         Law("boolean", (parse_equation("x \\/ ~x = 1"), parse_equation("y = y")),
             (parse_equation("x (+) x = x (+) x (+) x"),))]
horn_lists = st.one_of(
    st.builds(lambda c, ps: [Law("quasi", c, ps)], equations, premises),
    st.builds(lambda cs, ps: [Law("conjunction", tuple(cs), ps)],
              st.lists(equations, min_size=2, max_size=3), st.one_of(st.just(()), premises)),
    st.lists(st.sampled_from(_HORN), min_size=1, max_size=3))


@st.composite
def algebras(draw):
    text, bounds = draw(st.sampled_from(KINDS))
    return parse_algebra_shorthand(text), draw(st.sampled_from(bounds))


@settings(max_examples=300, deadline=None)
@given(algebras(), st.one_of(law_lists, horn_lists), st.integers(1, 300), st.integers(0, 2 ** 32))
def test_sampled_checks_match_the_payload_reference(case, laws, samples, seed):
    A, bound = case
    report = check_identities(A, laws, bound, samples, seed)
    expected = reference_check(A, laws, bound, samples, seed)
    assert report == expected
    assert repr(report.witness) == repr(expected.witness)


@pytest.mark.parametrize("text, bound", [("chang", 4), ("interval", 5), ("chain:7", None),
                                         ("prod:chain:3,chang", 2)])
def test_quasi_identities_and_conjunctions_meet_counterexamples(text, bound):
    A = parse_algebra_shorthand(text)
    for law in _HORN:
        laws = [*_mv_axioms()[:2], law]
        report = check_identities(A, laws, bound, 300, 11)
        assert report == reference_check(A, laws, bound, 300, 11)
        assert report.verdict == COUNTEREXAMPLE
        assert report.witness[0] == law.name and report.checked > 600


@pytest.mark.parametrize("text, bound", [("chang", 5), ("chain:9", None),
                                         ("prod:chain:3,chang", 2)])
def test_arity_0_laws_consume_no_draws(text, bound):
    A = parse_algebra_shorthand(text)
    constant = [Law("one", Equation(Neg(CONST0), CONST1)), Law("two", Equation(CONST1, CONST1))]
    x_below_y = [Law("below", Equation(Implies(Var("x"), Var("y")), CONST1))]
    involutive = [_mv_axioms()[4]]
    alone = check_identities(A, involutive + x_below_y, bound, 50, 3)
    mixed = check_identities(A, constant[:1] + involutive + constant[1:] + x_below_y, bound, 50, 3)
    assert alone.verdict == mixed.verdict == COUNTEREXAMPLE
    assert (mixed.checked, mixed.witness) == (alone.checked + 2, alone.witness)


@settings(max_examples=100, deadline=None)
@given(algebras(), st.integers(1, 60), st.integers(0, 2 ** 32))
def test_sample_elements_are_the_reference_draws(case, count, seed):
    A, bound = case
    bound = bound or 1
    expected = [p for (p,) in reference_draws(reference_listing(A, bound), count, seed)(1)]
    assert [repr(x.payload) for x in sample_elements(A, count, seed, bound)] == list(
        map(repr, expected))


_LENGTHS = sorted({1, 2, 3, 4, 5} | {2 ** k + d for k in (3, 8, 31, 32, 33, 62)
                                    for d in (-1, 0, 1)} | {10 ** 18})


def _assert_choices(values, seed, lengths):
    """Successive ``islice``s of one ``seeded_draws`` stream are as many
    successive ``choice``s, and leave its generator where they leave theirs."""
    made, rng = random.Random(seed), random.Random(seed)
    draws = seeded_draws(values, made)
    for m in lengths:
        assert list(itertools.islice(draws, m)) == [rng.choice(values) for _ in range(m)]
        assert made.getstate() == rng.getstate(), m


@pytest.mark.parametrize("n", _LENGTHS)
def test_draws_are_successive_seeded_choices(n):
    values = range(n) if n > 5 else [object() for _ in range(n)]
    for seed in (0, 1, 31):
        _assert_choices(values, seed, (0, 1, 2, 5, 0, 37, 300))


@pytest.mark.parametrize("text, bound", [("prod:chain:3,chang", 2), ("prod:chain:5,chain:7", None),
                                         ("prod:chain:3,delta:trivial", None)])
def test_draws_on_a_products_tuples_are_successive_seeded_choices(text, bound):
    values = int_record(parse_algebra_shorthand(text), bound).values
    assert isinstance(values, algebra._Tuples)
    for seed in (0, 9):
        _assert_choices(values, seed, (3, 0, 64, 129))


class _Counted:
    """A sequence of values that counts the reads of its items."""

    def __init__(self, values):
        self.values, self.reads = values, 0

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        self.reads += 1
        return self.values[i]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("text, bound", [("chain:7", None), ("interval", 4), ("chang", 3),
                                         ("prod:chain:3,chang", 2)])
def test_a_sampled_check_reads_no_draw_past_its_counterexample(text, bound, seed, monkeypatch):
    counted = []

    def walk(A, bound, doing, walk=algebra.walk_record):
        record = walk(A, bound, doing)
        counted.append(_Counted(record.values))
        return algebra.IntRecord(record.ops, counted[-1], record.decode, record.shape)
    monkeypatch.setattr(algebra, "walk_record", walk)
    # a law of one variable that holds, then one of three that fails a few instances in
    laws = [_mv_axioms()[4], Law("odot", parse_equation("x (.) y (.) z = 0"))]
    report = check_identities(parse_algebra_shorthand(text), laws, bound, 1000, seed)
    j = report.checked - 1000
    assert report.verdict == COUNTEREXAMPLE and 1 < j < 1000
    assert counted[-1].reads == 1000 + 3 * j


def test_a_sampled_checks_memory_does_not_grow_with_its_samples():
    A, law = FiniteChain(10 ** 6), [_mv_axioms()[6]]  # lukasiewicz_exchange, on ints > 256

    def check(samples):
        return lambda: check_identities(A, law, None, samples, 5)
    check(10)()  # the records and caches a first check builds
    small, large = traced_peak(check(1_000)), traced_peak(check(100_000))
    assert large <= 2 * small, (small, large)


_DISTRIBUTIVE = [Law("distributive", parse_equation("x (+) (y /\\ z) = (x (+) y) /\\ (x (+) z)"))]
# fails on every leaf and on a product only at its last instance, (1, …, 1) thrice:
# its premises run on every instance of the product's walk
_TOP = [Law("top", parse_equation("0 = 1"),
            tuple(map(parse_equation, ("x = 1", "y = 1", "z = 1"))))]


@pytest.mark.parametrize("small, large, laws", [
    ("chain:20", "chain:40", _DISTRIBUTIVE),                     # 8,000 and 64,000 instances
    ("prod:chain:2,chain:3", "prod:chain:4,chain:6", _TOP)])    # 216 and 13,824
def test_a_full_walks_memory_does_not_grow_with_its_instances(small, large, laws):
    A, B = parse_algebra_shorthand(small), parse_algebra_shorthand(large)
    assert check_identities(A, laws).ok == check_identities(B, laws).ok  # records and caches
    assert traced_peak(lambda: check_identities(B, laws)) <= \
        2 * traced_peak(lambda: check_identities(A, laws))


@pytest.mark.parametrize("text, laws, samples, checked", [
    ("chain:2", _equation(Meet(Var("x"), Var("y")), CONST0), None, 4),  # only (1, 1) fails
    ("prod:chain:2,chain:3", _TOP, None, 216),
    ("prod:chain:4,chain:6", _TOP, None, 13_824),
    ("chain:2", _equation(Var("x"), Neg(Var("x"))), 1, 1),             # one draw, failing
    ("chain:5", _equation(Neg(CONST0), CONST0), None, 1)])              # arity 0: one instance
def test_a_counterexample_at_the_last_instance_is_found(text, laws, samples, checked):
    report = check_identities(parse_algebra_shorthand(text), laws, None, samples)
    assert (report.verdict, report.checked) == (COUNTEREXAMPLE, checked)


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
                check_identities(chain, _suite(), None, 30, 4))
    _unlistable(monkeypatch)
    assert ([_listings(A) for A in small], sample_elements(chain, 30, 4),
            check_identities(chain, _suite(), None, 30, 4)) == expected
    huge = FiniteChain(10 ** 7)
    indices = reference_draws(range(10 ** 7), 5, 1)(1)
    assert [x.payload for x in sample_elements(huge, 5, 1)] == [
        Fraction(i, 10 ** 7 - 1) for (i,) in indices]
    assert check_identities(huge, _suite(), None, 5, 1).checked == 25


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
    record = int_record(A, bound)
    values, decode = record.values, record.decode
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
    assert check_identities(A, _suite(), None, 5, 1).checked == 25


@pytest.mark.parametrize("text", ["chain:100000000000000000000",
                                  "prod:chain:100000,chain:100000,chain:100000,chain:100000"])
def test_a_carrier_too_long_to_draw_from_is_a_domain_error(text):
    with pytest.raises(DomainError, match="cannot draw from"):
        sample_elements(parse_algebra_shorthand(text), 5, 1)


# -- a product or a Δ(G) leaf walked in full runs on its int record -----------------

def walk_reference(A, laws, bound):
    """The exhaustive or bounded walk on payloads: every law over every tuple of
    the payload listing, in canonical order, evaluated by the scalar reference;
    the first failure wins."""
    return CheckReport(**reference_walk(laws, payload_ops(A), reference_listing(A, bound), bound))


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
           ("delta:trivial", [None, 1]), ("prod:delta:trivial,chain:3", [None, 1]),
           ("prod:chain:3,chang", [1, 2, 3]), ("prod:delta:Z[1/2],chain:2", [1, 2, 3]),
           ("prod:interval,chain:3", [1, 2, 3]), ("prod:delta:lex:Z,chain:2", [1]),
           ("chang", [1, 2, 3]), ("delta:Z[1/2]", [1, 2, 3]), ("delta:Z[1/6]", [1, 2]),
           ("delta:Q", [1, 2]), ("delta:lex:Z", [1]), ("delta:lex:lex:Z", [1])]
          + [(text, [None]) for text in _NESTED[:2]] + [(_NESTED[2], [1, 2])])


@st.composite
def walked(draw):
    text, bounds = draw(st.sampled_from(WALKED))
    return parse_algebra_shorthand(text), draw(st.sampled_from(bounds))


@settings(max_examples=150, deadline=None)
@given(walked(), law_lists)
def test_leaf_and_product_walks_match_the_payload_reference(case, laws):
    A, bound = case
    report, expected = check_identities(A, laws, bound), walk_reference(A, laws, bound)
    assert report == expected
    assert repr(report.witness) == repr(expected.witness)


def test_a_delta_walk_decodes_only_its_counterexample(monkeypatch):
    decoded = []

    def counted(self, bound, build=algebra.DeltaOf.build_int_record):
        record = build(self, bound)
        return algebra.IntRecord(record.ops, record.values,
                                 lambda v: decoded.append(v) or record.decode(v), record.shape)
    monkeypatch.setattr(algebra.DeltaOf, "build_int_record", counted)
    A = parse_algebra_shorthand("delta:Z[1/6]")
    assert check_identities(A, _mv_axioms(), 2).ok
    assert decoded == []
    report = check_identities(A, _equation(Odot(Var("x"), Var("y")), CONST0), 3)
    assert (report.checked, repr(report.witness)) == (
        52, repr(("equation", ((0, Fraction(1, 3)), (1, Fraction(0))))))
    # offsets times L = 6, the lcm of 1, 2 and 3, and the bit times T = (4·18 + 1)·2⁶⁴
    assert decoded == [2, 73 << 64]


# delta:lex:Z × chain:2 has 52 and 100 elements at bounds 2 and 3: laws of one
# and two variables only
@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("laws", [
    _VC, _equation(Oplus(Var("x"), Var("y")), Oplus(Var("y"), Var("x"))),
    _equation(Oplus(Var("x"), Var("y")), Var("y")), _tautology(Join(Var("x"), Neg(Var("x"))))])
def test_lex_product_walks_match_the_payload_reference(laws, bound):
    A = parse_algebra_shorthand("prod:delta:lex:Z,chain:2")
    report, expected = check_identities(A, laws, bound), walk_reference(A, laws, bound)
    assert report == expected
    assert repr(report.witness) == repr(expected.witness)


@pytest.mark.parametrize("text, bound", [
    ("prod:chain:2,chain:3", None), ("prod:chain:4", None), ("prod:chain:3,chang", 2),
    ("prod:interval,chain:3", 2), ("prod:delta:Z[1/2],chain:2", 1),
    ("prod:delta:lex:Z,chain:2", 1), ("prod:delta:trivial,chain:3", None),
    *[(text, 1) for text in _NESTED[:3]]])
def test_a_products_k_tuples_are_the_listings(text, bound):
    values = int_record(parse_algebra_shorthand(text), bound).values
    for k in range(4):
        assert list(values.tuples(k)) == list(itertools.product(list(values), repeat=k))


def test_product_checks_do_not_list_the_product_or_a_chain(monkeypatch):
    small = [parse_algebra_shorthand(t) for t in ("prod:chain:2,chain:3", _NESTED[0])]
    big = parse_algebra_shorthand("prod:chain:4000,chain:4000")
    axiom_2 = dict(LUKASIEWICZ_AXIOMS)["axiom_2"]

    def checks():
        return ([(vc_membership(A), tautology_check(axiom_2, A), check_identities(A, _mv_axioms()),
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


@pytest.mark.parametrize("text, laws, bound", [
    ("prod:interval,interval", [_mv_axioms()[4]], 6),                 # valid: decided on leaves
    ("prod:interval,chain:3,chang,interval", _VC, 2),                  # valid, three leaves
    ("prod:chang,interval,chang", _equation(Neg(Var("x")), Var("x")), 2),  # walked: fails
    ("prod:interval,interval", _equation(Oplus(Var("x"), Var("y")), Var("y")), 3)])
def test_a_product_check_lists_each_infinite_leaf_once(text, laws, bound, monkeypatch):
    A = parse_algebra_shorthand(text)
    expected = walk_reference(A, laws, bound)
    listed = []
    for kind in (algebra.RationalInterval, algebra.DeltaOf):
        def counted(self, b, build=kind.build_int_record):
            listed.append(self)
            return build(self, b)
        monkeypatch.setattr(kind, "build_int_record", counted)
    report = check_identities(A, laws, bound)  # the leaf decision reuses the walk's records
    assert listed == list(dict.fromkeys(f for f in A.factors if f.carrier_size() is None))
    assert report == expected
    assert repr(report.witness) == repr(expected.witness)


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
