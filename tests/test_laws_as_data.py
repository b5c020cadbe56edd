"""Laws as data: the MV axioms, modus ponens and the ℓ-bisemiring axioms
against the closures they replaced.

``algebra._mv_axioms()``, the modus ponens of ``logic._suite()`` and
``bisemirings._lbisemiring_axioms()`` are ``report.Law``s, Horn sentences over
equations streamed through pipelines on whichever record a check walks.  The
closures below are the hand-written laws they replaced, kept here as an
independent reference.  Each law's pipeline must have its closure's name and
arity and fail on exactly the instances on which the closure does, over every
instance of every record tried: the payload and int records of each kind,
valid or not, and random ⊕, ⊙, ¬, ∧ and ∨ tables, on which a law holds or
fails instance by instance, so a transcription error or a slot bound to the
wrong variable shows.

``Law.on`` is also tested on its own, one instance at a time: a false premise
makes an instance hold, the premises run only when the conclusion fails, a
conjunction fails when either of its equations does, an arity-0 law runs once,
the slots follow the sorted variables, a product decided factor by factor on a
quasi-identity, conjunctive or not, gives the report of the plain walk, each
law is bound once per check to the record walked, a failing leaf once and a
failing product once per distinct leaf and once on its own record, no law
built for one call outlives it, and a failing suite axiom is witnessed through
its own equation.  The pipelines evaluate nothing past the first failure: a
record that counts its operations' calls sees exactly the instances up to it,
and a quasi-identity's premises only at the instances where its conclusion
fails.
"""

import gc
import itertools
import operator
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import luk_neg, luk_oplus
from mvtrop.algebra import (_mv_axioms, PayloadOps, check_identities,
                            enumerate_payloads, int_record, payload_ops)
from mvtrop.bisemirings import _lbisemiring_axioms
from mvtrop.jsonio import parse_algebra_shorthand
import mvtrop.algebra as algebra
from mvtrop.cli import main
import mvtrop.logic as logic
from mvtrop.logic import _suite, LUKASIEWICZ_AXIOMS, Valuation, axiom_suite, evaluate
from mvtrop.report import Instances, Law, check_laws
from mvtrop.terms import fold, parse_equation
from test_differential import PRODUCTS, _walk


def mv_axiom_closures(ops):
    """The MV axioms as the closures the ``Law`` table replaced, in its order."""
    oplus, neg, zero_el, one_el = ops.oplus, ops.neg, ops.zero, ops.one
    return [
        ("oplus_associative", 3, lambda x, y, z: oplus(oplus(x, y), z) == oplus(x, oplus(y, z))),
        ("oplus_commutative", 2, lambda x, y: oplus(x, y) == oplus(y, x)),
        ("zero_neutral", 1, lambda x: oplus(x, zero_el) == x),
        ("one_absorbing", 1, lambda x: oplus(x, one_el) == one_el),
        ("neg_involutive", 1, lambda x: neg(neg(x)) == x),
        ("neg_zero_is_one", 0, lambda: neg(zero_el) == one_el),
        ("lukasiewicz_exchange", 2,
         lambda x, y: oplus(neg(oplus(neg(x), y)), y) == oplus(neg(oplus(neg(y), x)), x)),
    ]


def lbisemiring_axiom_closures(ops):
    """The ℓ-bisemiring axioms as the closures the ``Law`` table replaced, in its order."""
    oplus, odot, meet, join, zero_el, one_el = (ops.oplus, ops.odot, ops.meet, ops.join,
                                                ops.zero, ops.one)
    return [
        ("meet_commutative", 2, lambda x, y: meet(x, y) == meet(y, x)),
        ("join_commutative", 2, lambda x, y: join(x, y) == join(y, x)),
        ("meet_associative", 3, lambda x, y, z: meet(meet(x, y), z) == meet(x, meet(y, z))),
        ("join_associative", 3, lambda x, y, z: join(join(x, y), z) == join(x, join(y, z))),
        ("meet_idempotent", 1, lambda x: meet(x, x) == x),
        ("join_idempotent", 1, lambda x: join(x, x) == x),
        ("absorption", 2, lambda x, y: meet(x, join(x, y)) == x and join(x, meet(x, y)) == x),
        ("zero_bottom", 1, lambda x: join(x, zero_el) == x),
        ("one_top", 1, lambda x: meet(x, one_el) == x),
        ("lattice_distributive", 3,
         lambda x, y, z: meet(x, join(y, z)) == join(meet(x, y), meet(x, z))),
        ("oplus_associative", 3, lambda x, y, z: oplus(oplus(x, y), z) == oplus(x, oplus(y, z))),
        ("oplus_commutative", 2, lambda x, y: oplus(x, y) == oplus(y, x)),
        ("oplus_zero_neutral", 1, lambda x: oplus(x, zero_el) == x),
        ("oplus_distributes_over_meet", 3,
         lambda x, y, z: oplus(x, meet(y, z)) == meet(oplus(x, y), oplus(x, z))),
        ("one_absorbs_oplus", 1, lambda x: oplus(x, one_el) == one_el),
        ("odot_associative", 3, lambda x, y, z: odot(odot(x, y), z) == odot(x, odot(y, z))),
        ("odot_commutative", 2, lambda x, y: odot(x, y) == odot(y, x)),
        ("odot_one_neutral", 1, lambda x: odot(x, one_el) == x),
        ("odot_distributes_over_join", 3,
         lambda x, y, z: odot(x, join(y, z)) == join(odot(x, y), odot(x, z))),
        ("zero_absorbs_odot", 1, lambda x: odot(x, zero_el) == zero_el),
    ]


def modus_ponens_closure(ops):
    top, implies = ops.one, ops.implies
    return "modus_ponens", 2, lambda x, y: not (implies(x, y) == top and x == top) or y == top


def _records(text, bound=None):
    """The payload record of A with its listing, and A's int record with its values."""
    A = parse_algebra_shorthand(text)
    record = int_record(A, bound)
    return [(f"{text}@{bound}/payload", payload_ops(A), enumerate_payloads(A, bound)),
            (f"{text}@{bound}/int", record.ops, list(record.values))]


def _bad_oplus(x, y):  # drops the truncation
    return x + y


def _skew_neg(x):  # breaks the involution
    return Fraction(0) if x == 1 else Fraction(1) - x / 2


_HALVES = [Fraction(0), Fraction(1, 2), Fraction(1)]
RECORDS = ([r for n in range(2, 10) for r in _records(f"chain:{n}")]
           + [r for b in range(1, 6) for r in _records("interval", b)]
           + [r for b in range(1, 5) for r in _records("chang", b)]
           + [r for b in range(1, 4) for r in _records("delta:Z[1/2]", b)]
           + _records("prod:chain:2,chain:3") + _records("prod:chain:3,chang", 1)
           + _records("prod:interval,chain:2", 2)
           + [("bad_oplus", PayloadOps(_bad_oplus, luk_neg, _HALVES[0], _HALVES[2],
                                       operator.le, max, min), _HALVES),
              ("skew_neg", PayloadOps(luk_oplus, _skew_neg, _HALVES[0], _HALVES[2],
                                      operator.le, max, min), _HALVES)])


@st.composite
def tables(draw):
    """A random record on 0..k−1: any ⊕, ⊙, ∧ and ∨ tables and any ¬ map, 0 and
    k − 1 the constants."""
    k = draw(st.integers(2, 4))
    cells = st.integers(0, k - 1)
    plus, times, meet, join = [draw(st.lists(cells, min_size=k * k, max_size=k * k))
                               for _ in range(4)]
    neg = draw(st.lists(cells, min_size=k, max_size=k))

    def table(cells):
        return lambda p, q: cells[p * k + q]
    ops = PayloadOps(table(plus), neg.__getitem__, 0, k - 1, None, table(join), table(meet),
                     odot=table(times))
    return f"table:{plus}/{times}/{meet}/{join}/{neg}", ops, range(k)


def assert_agree(ops, pool):
    """Each law's pipeline fails on exactly the instances on which its closure
    does, over every tuple of pool in canonical order."""
    laws = [law.on(ops) for law in (*_mv_axioms(), _suite()[-1], *_lbisemiring_axioms())]
    expected = [*mv_axiom_closures(ops), modus_ponens_closure(ops),
                *lbisemiring_axiom_closures(ops)]
    assert len(laws) == len(expected)
    for (name, arity, failures), (ref_name, ref_arity, ref_holds) in zip(laws, expected):
        assert (name, arity) == (ref_name, ref_arity)
        instances = list(itertools.product(pool, repeat=arity))
        assert list(failures(instances)) == [
            (number, instance) for number, instance in enumerate(instances, 1)
            if not ref_holds(*instance)], name


@pytest.mark.parametrize("label, ops, pool", RECORDS, ids=[r[0] for r in RECORDS])
def test_each_compiled_law_is_its_closure_on_every_record(label, ops, pool):
    assert_agree(ops, pool)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_each_compiled_law_is_its_closure_on_random_tables(record):
    _, ops, pool = record
    assert_agree(ops, pool)


# -- Law.on on its own -----------------------------------------------------------

def on(law, ops):
    """The name and arity of law on the record ops, and ``holds``, which runs the
    law's pipeline on the one instance it is given."""
    name, arity, failures = law.on(ops)
    return name, arity, lambda *instance: next(failures([instance]), None) is None


_L3 = int_record(parse_algebra_shorthand("chain:3")).ops  # L_3 on 0, 1, 2


def test_a_false_premise_holds_whatever_the_conclusion():
    _, arity, holds = on(Law("q", parse_equation("x = y"),
                             (parse_equation("x = 1"), parse_equation("y = 0"))), _L3)
    assert arity == 2
    assert [holds(x, y) for x in range(3) for y in range(3)] == [
        x != 2 or y != 0 or x == y for x in range(3) for y in range(3)]
    assert holds(0, 2) and holds(1, 0) and holds(2, 1)  # premises false, conclusion false


def test_true_premises_and_a_false_conclusion_fail():
    _, _, holds = on(Law("q", parse_equation("x = y"),
                         (parse_equation("x = 1"), parse_equation("y = 0"))), _L3)
    assert not holds(2, 0)
    _, _, holds = on(Law("q", parse_equation("~x = y"),
                         (parse_equation("x (+) y = 1"), parse_equation("x (.) y = 0"))), _L3)
    assert all(holds(x, y) for x in range(3) for y in range(3))


def test_the_premises_run_only_when_the_conclusion_fails():
    def oplus(p, q):
        raise AssertionError("a premise ran")
    ops = PayloadOps(oplus, lambda p: 2 - p, 0, 2, None, None, None)
    _, _, holds = on(Law("q", parse_equation("~~x = x"), (parse_equation("x (+) x = x"),)), ops)
    assert all(holds(x) for x in range(3))
    broken = PayloadOps(oplus, lambda p: 0, 0, 2, None, None, None)
    _, _, holds = on(Law("q", parse_equation("~~x = x"), (parse_equation("x (+) x = x"),)),
                     broken)
    with pytest.raises(AssertionError, match="a premise ran"):
        holds(1)


def test_a_conjunction_fails_when_either_of_its_equations_fails():
    _, arity, holds = on(Law("c", (parse_equation("x = y"), parse_equation("~x = z"))), _L3)
    assert arity == 3
    assert [holds(*v) for v in itertools.product(range(3), repeat=3)] == [
        x == y and 2 - x == z for x, y, z in itertools.product(range(3), repeat=3)]
    assert not holds(0, 1, 2) and not holds(0, 0, 1)  # only the first, only the second fails


def test_a_conjunction_runs_the_premises_only_when_it_fails():
    def oplus(p, q):
        raise AssertionError("a premise ran")
    law = Law("q", (parse_equation("~~x = x"), parse_equation("~0 = 1")),
              (parse_equation("x (+) x = x"),))
    _, _, holds = on(law, PayloadOps(oplus, lambda p: 2 - p, 0, 2, None, None, None))
    assert all(holds(x) for x in range(3))
    for neg in ((1, 0, 2), (2, 0, 0)):  # breaks only ~0 = 1, or only ~~x = x at 1
        _, _, holds = on(law, PayloadOps(oplus, neg.__getitem__, 0, 2, None, None, None))
        with pytest.raises(AssertionError, match="a premise ran"):
            holds(1)


def test_an_arity_0_law_runs_once():
    law = Law("neg_zero_is_one", parse_equation("~0 = 1"))
    name, arity, holds = on(law, _L3)
    assert (name, arity, holds()) == ("neg_zero_is_one", 0, True)
    assert check_laws([law], Instances.over(range(3)), _L3).checked == 1
    for text in ("chain:5", "prod:chain:2,chain:3"):
        assert check_identities(parse_algebra_shorthand(text), [law]).checked == 1
    assert check_identities(parse_algebra_shorthand("chang"), [law], 3, 7, 1).checked == 1


def _counting(calls):
    """L_5 on 0..4 whose ⊕, ⊙ and ¬ add one to ``calls[name]`` at each call."""
    base = int_record(parse_algebra_shorthand("chain:5")).ops

    def counted(name, op):
        def f(*args):
            calls[name] += 1
            return op(*args)
        return f
    return PayloadOps(counted("oplus", base.oplus), counted("neg", base.neg), 0, 4, None, None,
                      None, odot=counted("odot", base.odot))


def _operations(t):
    """How many nodes of each operation t has, by name."""
    return fold(t, lambda _: Counter(), lambda _: Counter(), lambda arg: arg + Counter(neg=1),
                lambda cls, left, right: left + right + Counter({cls.op: 1}))


@pytest.mark.parametrize("text, first", [
    ("x (+) y = y", 6), ("x (.) ~y = ~(~x (+) y)", None),
    ("x (.) (y (+) z) = (x (.) y) (+) (x (.) z)", 34), ("x (+) ~x = ~0", None)])
def test_a_walk_runs_the_operations_of_the_instances_up_to_its_failure_only(text, first):
    calls = Counter()
    law = Law("e", parse_equation(text))
    report = check_laws([law], Instances.over(range(5)), _counting(calls))
    assert (report.ok, report.checked) == (first is None, first or 5 ** len(law.slots))
    each = _operations(law.conclusion.lhs) + _operations(law.conclusion.rhs)
    assert calls == Counter({name: report.checked * n for name, n in each.items()})


@pytest.mark.parametrize("premise, operation, checked, failures", [
    ("x (.) y = 1", "odot", 25, 20),  # holds: the premise runs on the 20 pairs with x ≠ y
    ("x (+) y = 1", "oplus", 5, 4)])  # fails at (0, 4), after (0, 1), (0, 2) and (0, 3)
def test_a_quasi_identity_runs_its_premises_only_where_its_conclusion_fails(
        premise, operation, checked, failures):
    calls = Counter()
    law = Law("q", parse_equation("x = y"), (parse_equation(premise),))
    report = check_laws([law], Instances.over(range(5)), _counting(calls))
    assert (report.ok, report.checked) == (checked == 25, checked)
    assert calls == Counter({operation: failures})


def test_slots_are_the_sorted_variables_of_all_the_equations():
    law = Law("q", parse_equation("y = 1"), (parse_equation("x = 1"),))
    assert list(law.slots) == ["x", "y"]
    _, _, holds = on(law, _L3)
    assert not holds(2, 0)  # x = 1 and y = 0
    assert holds(0, 2)
    assert list(Law("e", parse_equation("z (+) b = a")).slots) == ["a", "b", "z"]
    assert list(_suite()[-1].slots) == ["x", "y"]


_QUASI = [Law("complement", parse_equation("~x = y"),
              (parse_equation("x (+) y = 1"), parse_equation("x (.) y = 0"))),
          Law("booleans_are_equal", parse_equation("x = y"),
              (parse_equation("x (+) x = x"), parse_equation("y (+) y = y"))),
          Law("complements_are_mutual", (parse_equation("~x = y"), parse_equation("~y = x")),
              (parse_equation("x (+) y = 1"), parse_equation("x (.) y = 0"))),
          Law("booleans_are_idempotent_and_top", (parse_equation("x (.) x = x"),
                                                  parse_equation("x = 1")),
              (parse_equation("x (+) x = x"),))]


@pytest.mark.parametrize("A", PRODUCTS, ids=repr)
@pytest.mark.parametrize("law", _QUASI, ids=lambda law: law.name)
def test_a_product_decided_on_a_quasi_identity_is_the_plain_walk(A, law):
    report = check_identities(A, [law])
    assert report == _walk(A, [law])
    assert report.ok == (law.name in ("complement", "complements_are_mutual"))
    assert check_identities(A, [law], None, 50, 2) == _walk(A, [law], None, 50, 2)


@pytest.fixture
def compiled(monkeypatch):
    """The (law, record) of every ``Law.on`` from here on."""
    calls = []

    def counted(self, ops, on=Law.on):
        calls.append((self, ops))
        return on(self, ops)
    monkeypatch.setattr(Law, "on", counted)
    return calls


def test_each_law_is_compiled_once_per_check_on_the_record_walked(compiled):
    A = parse_algebra_shorthand("chain:7")
    first = check_identities(A, _mv_axioms())
    for _ in range(2):  # the same laws on the same record: compiled again, once each
        compiled.clear()
        assert check_identities(A, _mv_axioms()) == first
        assert compiled == [(law, payload_ops(A)) for law in _mv_axioms()]
    compiled.clear()
    check_identities(parse_algebra_shorthand("prod:chain:7,chain:7"), _mv_axioms())
    assert [law for law, _ in compiled] == list(_mv_axioms())
    assert {ops.one for _, ops in compiled} == {6}  # the leaf's int record, L_7 on 0..6


# the largest |φ(g)| at bounds 1 and 2: g·L on Z[1/2] (L = 1, then 2), and a·S + t on
# lex:Z (S = (4·bound + 1)·2⁶⁴)
@pytest.mark.parametrize("text, Bs", [("delta:Z[1/2]", (1, 4)),
                                      ("delta:lex:Z", ((5 << 64) + 1, 2 * (9 << 64) + 2))])
def test_a_delta_check_compiles_each_law_once_on_its_chain_record(compiled, text, Bs):
    A = parse_algebra_shorthand(text)
    for bound, B in zip((1, 2), Bs):  # a new T per bound, one record for all the laws
        compiled.clear()
        assert check_identities(A, _mv_axioms(), bound).ok
        assert [law for law, _ in compiled] == list(_mv_axioms())
        assert {(ops.zero, ops.one) for _, ops in compiled} == {(0, (4 * B + 1) << 64)}
        assert len({id(ops) for _, ops in compiled}) == 1


_FAILING = (Law("idempotent", parse_equation("x (+) x = x")),
            Law("commutative", parse_equation("x (+) y = y (+) x")))


@pytest.mark.parametrize("text, bound", [("chain:7", None), ("delta:Z[1/2]", 2)])
def test_a_failing_leaf_check_compiles_each_law_once(compiled, text, bound):
    A = parse_algebra_shorthand(text)
    report = check_identities(A, _FAILING, bound)
    assert report.witness[0] == "idempotent"
    assert [law for law, _ in compiled] == list(_FAILING)
    assert len({id(ops) for _, ops in compiled}) == 1


@pytest.mark.parametrize("text, bound, leaves", [("prod:chain:7,chain:7", None, 1),
                                                 ("prod:chain:2,delta:Z[1/2]", 2, 2)])
def test_a_failing_product_compiles_each_law_per_distinct_leaf_and_on_its_record(
        compiled, text, bound, leaves):
    A = parse_algebra_shorthand(text)
    walk = _walk(A, _FAILING, bound)
    compiled.clear()
    assert check_identities(A, _FAILING, bound) == walk
    assert [law for law, _ in compiled] == list(_FAILING) * (leaves + 1)
    records = [ops for _, ops in compiled[::len(_FAILING)]]
    assert records[-1].one == int_record(A, bound).ops.one  # the product's own, walked
    assert len({id(ops) for ops in records}) == leaves + 1


@pytest.mark.parametrize("argv", [
    ["check-eq", "x (+) y = y (+) x", "--algebra", "chain:5"],
    ["check-eq", "x (+) y = y (+) x", "--algebra", "chang"],
    ["tautology", "x -> x", "--algebra", "chain:4"],
    ["vc-member", "--algebra", "prod:chain:2,chain:2"]],
    ids=["check-eq-chain", "check-eq-chang", "tautology", "vc-member-product"])
def test_no_law_built_for_one_call_outlives_it(compiled, argv, capsys):
    for _ in range(2):
        assert main(argv) == 0
    built = [weakref.ref(law) for law, _ in compiled]
    assert len(built) == 2
    del compiled[:]
    gc.collect()
    assert [ref() for ref in built] == [None, None]


@pytest.mark.parametrize("first", range(4))
def test_a_failing_suite_axiom_is_witnessed_by_its_own_valuation(first, monkeypatch):
    A = parse_algebra_shorthand("chain:3")
    good = payload_ops(A)
    broken = PayloadOps(max, good.neg, good.zero, good.one, good.leq, good.join, good.meet)
    for module in (algebra, logic):  # the checked record and the witness's evaluation
        monkeypatch.setattr(module, "payload_ops", lambda B: broken)
    suite = _suite()
    monkeypatch.setattr(logic, "_suite", lambda: (suite[first], *suite[:first], *suite[first + 1:]))
    witness = axiom_suite(A).witness
    name, term = LUKASIEWICZ_AXIOMS[first]
    assert witness["axiom"] == name
    assert witness["value"] == evaluate(term, Valuation(A, witness["valuation"]))
    assert witness["value"].payload != 1
