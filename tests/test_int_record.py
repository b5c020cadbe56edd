"""Differential test: listings on ``int_record`` against a payload-record reference.

θ, θ*, ``boolean_part``, ``operation_tables`` and ``hasse_dot`` walk a listing on
the int record of ``algebra.int_record``: L_n on ``range(n)`` for a finite chain,
scaled ints on the interval's and Δ(G ⊆ Q)'s fragments, the payload record
itself on any other Δ(G), and one flat record over the leaves on a product,
finite or not.  The references below are their earlier forms, which walk the
listing on ``payload_ops`` (``Fraction``s and (bit, offset) pairs); every
output must be equal, including table cells that fall outside a fragment's
listing.  Each int record must also agree with the payload record operation by
operation after decoding, and θ and θ* of a finite chain must match their
closed forms.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvtrop.algebra as algebra
from mvtrop.algebra import (CHANG, FiniteChain, MvElement, carrier_size, element_str,
                            enumerate_elements, enumerate_payloads, int_record,
                            leaf_shape, payload_ops)
from mvtrop.bisemirings import Bisemiring
from mvtrop.characteristics import INF, characteristic
from mvtrop.errors import StructuralError
from mvtrop.export import hasse_dot, operation_tables
from mvtrop.functors import boolean_part, delta, theta, theta_star
from mvtrop.groups import Z, LexZG, qsubgroup
from mvtrop.jsonio import parse_algebra_shorthand

# -- the payload-record reference ----------------------------------------------------

def ref_theta(A, bound, star=False):
    ops = payload_ops(A)

    def member(x):
        sq = ops.odot(x.payload, x.payload)
        twice = ops.oplus(sq, sq)
        return ops.leq(x.payload, twice) if star else ops.leq(twice, x.payload)
    return [x for x in enumerate_elements(A, bound) if member(x)]


def ref_boolean_part(A, bound):
    ops = payload_ops(A)
    return [x for x in enumerate_elements(A, bound) if ops.oplus(x.payload, x.payload) == x.payload]


def ref_operation_tables(A, bound):
    elems = enumerate_payloads(A, bound)
    ops = payload_ops(A)
    index = {p: i for i, p in enumerate(elems)}

    def lift(op):
        def cell(*args):
            p = op(*args)
            return index[p] if p in index else A.payload_to_json(p)
        return cell

    tables = {name: [[f(x, y) for y in elems] for x in elems]
              for name, f in (("oplus", lift(ops.oplus)), ("odot", lift(ops.odot)),
                              ("meet", lift(ops.meet)), ("join", lift(ops.join)))}
    neg = lift(ops.neg)
    return {
        "algebra": A.to_json(),
        "fragment": carrier_size(A) is None,
        "elements": [A.payload_to_json(p) for p in elems],
        "neg": [neg(x) for x in elems],
        "tables": tables,
        "boolean": [i for i, x in enumerate(elems) if ops.oplus(x, x) == x],
        "infinitesimal": [i for i, p in enumerate(elems) if A.is_infinitesimal(p)],
    }


def ref_hasse_dot(A, bound):
    elems, shape = enumerate_payloads(A, bound), leaf_shape(A, bound)
    ops = payload_ops(A)
    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=ellipse];']
    for i, p in enumerate(elems):
        attrs = [f'label="{element_str(MvElement(A, p))}"']
        if ops.oplus(p, p) == p:
            attrs.append("peripheries=2")
        if A.is_infinitesimal(p):
            attrs.append('style=filled fillcolor=lightgray')
        lines.append(f"  n{i} [{' '.join(attrs)}];")
    for i in range(len(elems)):
        lines += [f"  n{i} -> n{i + w};" for w, s in shape[::-1] if i // w % s < s - 1]
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- the kinds: (shorthand, bounds) --------------------------------------------------

FINITE = ([f"chain:{n}" for n in range(2, 13)]
          + ["prod:chain:2,chain:2", "prod:chain:3,chain:4", "prod:chain:2,chain:3,chain:2",
             "prod:chain:5,delta:trivial", "delta:trivial",
             '{"kind":"product","factors":[{"kind":"product","factors":['
             '{"kind":"finite_chain","size":3},{"kind":"finite_chain","size":2}]},{"kind":"finite_chain","size":3}]}'])
SCALED = [("interval", range(1, 13)), ("chang", range(1, 7)), ("delta:Z[1/2]", range(1, 5)),
          ("delta:Z[1/6]", range(1, 5)), ("delta:Q", range(1, 5)),
          ("prod:chang,chain:3", range(1, 4)), ("prod:interval,chain:3", range(1, 5)),
          ("prod:delta:Z[1/6],chain:2", range(1, 4)),
          ('{"kind":"product","factors":[{"kind":"product","factors":['
           '{"kind":"rational_interval"},{"kind":"finite_chain","size":2}]},{"kind":"chang"}]}',
           range(1, 4))]
FALLBACK = [("delta:lex:Z", range(1, 4))]
KINDS = [(s, [None]) for s in FINITE] + [(s, list(b)) for s, b in SCALED + FALLBACK]


@st.composite
def listings(draw):
    text, bounds = draw(st.sampled_from(KINDS))
    return parse_algebra_shorthand(text), draw(st.sampled_from(bounds))


def _payloads(xs):
    return [repr(x.payload) for x in xs]


@settings(max_examples=150, deadline=None)
@given(listings())
def test_listings_match_the_payload_reference(case):
    A, bound = case
    assert _payloads(theta(A).elements(bound)) == _payloads(ref_theta(A, bound))
    assert _payloads(theta_star(A).elements(bound)) == _payloads(ref_theta(A, bound, star=True))
    assert _payloads(boolean_part(A, bound)) == _payloads(ref_boolean_part(A, bound))
    assert hasse_dot(A, bound) == ref_hasse_dot(A, bound)


@settings(max_examples=80, deadline=None)
@given(listings())
def test_tables_match_the_payload_reference(case):
    A, bound = case
    assert operation_tables(A, bound) == ref_operation_tables(A, bound)


@pytest.mark.parametrize("text, bound", [("interval", 3), ("delta:Q", 2), ("delta:Z[1/6]", 2),
                                         ("chang", 2), ("delta:lex:Z", 1),
                                         ("prod:chang,chain:3", 1)])
def test_fragment_cells_outside_the_listing(text, bound):
    """Some results leave the listing; they are rendered as the reference renders them."""
    A = parse_algebra_shorthand(text)
    doc = operation_tables(A, bound)
    outside = [c for t in doc["tables"].values() for row in t for c in row if not isinstance(c, int)]
    assert outside
    assert doc == ref_operation_tables(A, bound)


# -- each int record against the payload record ----------------------------------------

@st.composite
def record_cases(draw):
    A, bound = draw(listings())
    n = len(enumerate_payloads(A, bound))
    return A, bound, [draw(st.integers(0, n - 1)) for _ in range(3)]


def _same(a, b):
    assert repr(a) == repr(b)


@settings(max_examples=300, deadline=None)
@given(record_cases())
def test_int_record_agrees_with_the_payload_record(case):
    A, bound, (i, j, k) = case
    ops, values, decode = int_record(A, bound)
    P = payload_ops(A)
    values = list(values)
    assert [repr(decode(v)) for v in values] == [repr(p) for p in enumerate_payloads(A, bound)]
    _same(decode(ops.zero), P.zero)
    _same(decode(ops.one), P.one)
    x, y = values[i], values[j]
    # a result may leave the listing; it is one more argument on both records
    for a, b in ((x, y), (ops.oplus(x, y), values[k]), (ops.odot(x, y), ops.neg(values[k]))):
        pa, pb = decode(a), decode(b)
        for name in ("oplus", "odot", "join", "meet"):
            _same(decode(getattr(ops, name)(a, b)), getattr(P, name)(pa, pb))
        assert ops.leq(a, b) == P.leq(pa, pb)
        _same(decode(ops.neg(a)), P.neg(pa))


def test_int_record_kinds():
    """L_n on a finite chain, scaled ints on the interval and Δ(G ⊆ Q), the
    factors' values side by side on a product, and the payload record with
    payloads as values on the fallback kinds."""
    ops, values, _ = int_record(FiniteChain(5))
    assert values == range(5) and ops.one == 4
    ops, values, decode = int_record(parse_algebra_shorthand("interval"), 3)
    assert values == [0, 2, 3, 4, 6] and ops.one == 6 and decode(5) == Fraction(5, 6)
    ops, values, decode = int_record(parse_algebra_shorthand("delta:Z[1/2]"), 2)
    assert ops is payload_ops(CHANG) and all(isinstance(g, int) for _, g in values)
    assert decode((0, 1)) == (0, Fraction(1, 2))
    ops, values, decode = int_record(parse_algebra_shorthand("prod:delta:Z[1/2],chain:3"), 2)
    assert values[4] == ((0, 1), 1)
    assert decode(values[4]) == ((0, Fraction(1, 2)), Fraction(1, 2))
    for text in ("delta:lex:Z", "chang"):
        A = parse_algebra_shorthand(text)
        ops, values, decode = int_record(A, 2)
        assert ops is payload_ops(A) and values == enumerate_payloads(A, 2)


# -- closed forms on finite chains -------------------------------------------------------

def closed_theta(m):
    return [Fraction(k, m) for k in range(m + 1) if 3 * k <= 2 * m] + [Fraction(1)]


def closed_theta_star(m):
    return [Fraction(0)] + [Fraction(k, m) for k in range(m + 1) if 3 * k >= 2 * m]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2000))
def test_theta_of_a_chain_has_its_closed_form(m):
    L = FiniteChain(m + 1)
    assert [x.payload for x in theta(L).elements()] == closed_theta(m)
    assert [x.payload for x in theta_star(L).elements()] == closed_theta_star(m)


def test_theta_of_chain_2001_counts():
    L = FiniteChain(2001)
    assert len(theta(L).elements()) == len(closed_theta(2000)) == 1335
    assert len(theta_star(L).elements()) == len(closed_theta_star(2000)) == 668


# -- membership of listed and explicit elements ------------------------------------------

DYADIC = delta(qsubgroup(characteristic({2: INF})))


def test_listed_payloads_are_not_rechecked(monkeypatch):
    """A listing comes from the host's own enumeration, so no offset is re-validated."""
    calls = []
    real = algebra.require_members
    monkeypatch.setattr(algebra, "require_members", lambda *a: calls.append(a) or real(*a))
    assert theta(DYADIC).payloads(3) == [x.payload for x in ref_theta(DYADIC, 3)]
    assert calls == []


def test_explicit_elements_are_checked():
    outside = MvElement(DYADIC, (0, Fraction(1, 3)))
    S = Bisemiring(DYADIC, lambda ops, x: True, explicit=(outside,))
    with pytest.raises(StructuralError):
        S.payloads()
    lex = delta(LexZG(Z))
    with pytest.raises(StructuralError):
        Bisemiring(lex, lambda ops, x: True, explicit=(MvElement(CHANG, (0, 1)),)).payloads()
