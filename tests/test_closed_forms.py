"""⊙, ⊖ and → against their definitions, on every record a check can walk.

The record of chains and the interval (``algebra._chain_ops``) states
p ⊙ q = max(p + q − top, 0), p ⊖ q = max(p − q, 0) and p → q =
min(top − p + q, top) in closed form, and so does every int record, Δ(G)'s
included (``_chain_ops`` on the ints bit·T + φ(g)); a product takes its
factors' own.  Each must be the MV-algebra abbreviation it replaces,
x ⊙ y = ¬(¬x ⊕ ¬y), x ⊖ y = x ⊙ ¬y and x → y = ¬x ⊕ y, written here with the
record's ⊕ and ¬ alone, on every pair of the record's values: the same value
of the same type, so no output can move.  Δ(G)'s payload record
(``DeltaOf.build_ops``) states no closed form: it is Γ of Z lex G at
u = (1, 0), and ``PayloadOps`` derives the three from its ⊕ and ¬, so its rows
here pin that derivation.  The Δ(G) records are tried on every kind of group,
on their payload records and on their int records, and whole random terms
evaluated on them (by the scalar reference of ``conftest``) must agree with
the same terms evaluated on a record that derives the three from ⊕ and ¬.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_term, term_names, term_value
from mvtrop.algebra import (CHANG, FiniteChain, PayloadOps, RationalInterval,
                            enumerate_payloads, int_record, payload_ops, product_algebra)
from mvtrop.jsonio import parse_algebra_shorthand


def _payload(A, bound=None):
    return f"{A!r}@{bound}/payload", payload_ops(A), enumerate_payloads(A, bound)


def _int(A, bound=None):
    record = int_record(A, bound)
    return f"{A!r}@{bound}/int", record.ops, list(record.values)


def _both(text, bounds):
    A = parse_algebra_shorthand(text)
    return [r for b in bounds for r in (_payload(A, b), _int(A, b))]


_NESTED = [product_algebra(FiniteChain(2), product_algebra(FiniteChain(3), FiniteChain(2))),
           product_algebra(product_algebra(RationalInterval(), FiniteChain(3)), FiniteChain(2))]
_INTERVAL_LEAVES = [parse_algebra_shorthand(text)
                    for text in ("prod:interval,chain:3", "prod:interval,interval")]
_DELTAS = (_both("chang", range(1, 5))
           + [r for text in ("delta:Z[1/2]", "delta:Z[1/6]", "delta:Q", "delta:lex:Z",
                             "delta:lex:lex:Z", "delta:trivial", "prod:chang,delta:Z[1/2]")
              for r in _both(text, (1, 2))])
CLOSED = ([_payload(FiniteChain(n)) for n in range(2, 10)]
          + [_payload(RationalInterval(), b) for b in range(1, 7)]
          + [_payload(A, 2) for A in _NESTED]
          + [_int(FiniteChain(n)) for n in range(2, 10)]
          + [_int(RationalInterval(), b) for b in range(1, 7)]
          + [_int(A, b) for A in _INTERVAL_LEAVES for b in (1, 3)]
          + [_int(A, 2) for A in _NESTED]
          + [_int(product_algebra(CHANG, FiniteChain(3)), 2)]
          + _DELTAS)


def _same(a, b):
    """Equal, and of the same types throughout: repr tells Fraction(1, 1) from 1."""
    return a == b and repr(a) == repr(b)


@pytest.mark.parametrize("label, ops, pool", CLOSED, ids=[r[0] for r in CLOSED])
def test_odot_ominus_and_implies_are_their_definitions(label, ops, pool):
    oplus, neg = ops.oplus, ops.neg

    def odot(p, q):
        return neg(oplus(neg(p), neg(q)))
    for p, q in itertools.product(pool, repeat=2):
        assert _same(ops.odot(p, q), odot(p, q)), ("odot", p, q)
        assert _same(ops.ominus(p, q), odot(p, neg(q))), ("ominus", p, q)
        assert _same(ops.implies(p, q), oplus(neg(p), q)), ("implies", p, q)


def _derived(ops):
    """The record of ops's ⊕, ¬, 0, 1, ≤, ∨ and ∧ alone: ⊙, ⊖ and → derived."""
    return PayloadOps(ops.oplus, ops.neg, ops.zero, ops.one, ops.leq, ops.join, ops.meet)


_FRAGMENTS = [r for text in ("chang", "delta:Z[1/6]", "delta:Q", "delta:lex:Z", "delta:trivial")
              for r in _both(text, (1,))]
terms = st.builds(lambda seed, depth: random_term(random.Random(seed), depth),
                  st.integers(0, 2 ** 32), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(terms, st.sampled_from(range(len(_FRAGMENTS))))
def test_a_term_on_the_delta_record_is_the_term_on_the_derived_one(term, which):
    label, ops, pool = _FRAGMENTS[which]
    names, derived = sorted(term_names(term)), _derived(ops)
    for env in itertools.product(pool, repeat=len(names)):
        env = dict(zip(names, env))
        assert _same(term_value(term, ops, env), term_value(term, derived, env)), (label, env)
