"""⊙, ⊖ and → against their definitions, on every record a check can walk.

The record of chains and the interval (``algebra._chain_ops``) states
p ⊙ q = max(p + q − top, 0), p ⊖ q = max(p − q, 0) and p → q =
min(top − p + q, top) in closed form, and a product takes its factors' own.
Each must be the MV-algebra abbreviation it replaces, x ⊙ y = ¬(¬x ⊕ ¬y),
x ⊖ y = x ⊙ ¬y and x → y = ¬x ⊕ y, written here with the record's ⊕ and ¬
alone, on every pair of the record's values: the same value of the same type,
so no output can move.  The records of Δ(G), which still derive the three
from ⊕ and ¬, are controls.
"""

import itertools

import pytest

from mvtrop.algebra import (CHANG, FiniteChain, RationalInterval, enumerate_payloads,
                            int_record, payload_ops, product_algebra)
from mvtrop.jsonio import parse_algebra_shorthand


def _payload(A, bound=None):
    return f"{A!r}@{bound}/payload", payload_ops(A), enumerate_payloads(A, bound)


def _int(A, bound=None):
    ops, values, _ = int_record(A, bound)
    return f"{A!r}@{bound}/int", ops, list(values)


_NESTED = [product_algebra(FiniteChain(2), product_algebra(FiniteChain(3), FiniteChain(2))),
           product_algebra(product_algebra(RationalInterval(), FiniteChain(3)), FiniteChain(2))]
_INTERVAL_LEAVES = [parse_algebra_shorthand(text)
                    for text in ("prod:interval,chain:3", "prod:interval,interval")]
CLOSED = ([_payload(FiniteChain(n)) for n in range(2, 10)]
          + [_payload(RationalInterval(), b) for b in range(1, 7)]
          + [_payload(A, 2) for A in _NESTED]
          + [_int(FiniteChain(n)) for n in range(2, 10)]
          + [_int(RationalInterval(), b) for b in range(1, 7)]
          + [_int(A, b) for A in _INTERVAL_LEAVES for b in (1, 3)]
          + [_int(A, 2) for A in _NESTED]
          + [_int(product_algebra(CHANG, FiniteChain(3)), 2)])  # Chang's factor derived
DERIVED = ([_payload(CHANG, b) for b in (1, 3)] + [_int(CHANG, 3)]
           + [r for text in ("delta:Z[1/2]", "delta:lex:Z") for r in (
               _payload(parse_algebra_shorthand(text), 2), _int(parse_algebra_shorthand(text), 2))])


def _same(a, b):
    """Equal, and of the same types throughout: repr tells Fraction(1, 1) from 1."""
    return a == b and repr(a) == repr(b)


@pytest.mark.parametrize("label, ops, pool", CLOSED + DERIVED,
                         ids=[r[0] for r in CLOSED + DERIVED])
def test_odot_ominus_and_implies_are_their_definitions(label, ops, pool):
    oplus, neg = ops.oplus, ops.neg

    def odot(p, q):
        return neg(oplus(neg(p), neg(q)))
    for p, q in itertools.product(pool, repeat=2):
        assert _same(ops.odot(p, q), odot(p, q)), ("odot", p, q)
        assert _same(ops.ominus(p, q), odot(p, neg(q))), ("ominus", p, q)
        assert _same(ops.implies(p, q), oplus(neg(p), q)), ("implies", p, q)

