import itertools
import random
from fractions import Fraction

import pytest

from conftest import (chang_fragment, chang_neg, chang_oplus, luk_neg, luk_oplus,
                      reference_listing)
from mvtrop.algebra import (CHANG, DeltaOf, FiniteChain, ProductAlgebra,
                            RationalInterval, carrier_size, check_axioms_over,
                            check_mv_axioms, element, enumerate_elements,
                            enumerate_payloads, is_boolean_elem, is_infinitesimal_elem, mv_implies,
                            mv_join, mv_leq, mv_meet, mv_neg, mv_odot,
                            mv_ominus, mv_oplus, one, payload_ops,
                            product_algebra, sample_elements, zero)
from mvtrop.characteristics import CHI_Q, INF, characteristic
from mvtrop.errors import DomainError, ModeError, StructuralError
from mvtrop.groups import TRIVIAL, LexZG, Z, qsubgroup

L2 = FiniteChain(2)
L3 = FiniteChain(3)
INTERVAL = RationalInterval()


def ch(payload):
    return element(CHANG, payload)


# -- operations against the independent Z lex Z oracle ------------------------

def test_chang_ops_match_lex_oracle():
    frag = chang_fragment(6)
    for p, q in itertools.product(frag, repeat=2):
        got = mv_oplus(ch(p), ch(q)).payload
        assert got == chang_oplus(p, q)
    for p in frag:
        assert mv_neg(ch(p)).payload == chang_neg(p)


def test_interval_ops_match_min_max_oracle():
    pts = [Fraction(n, 12) for n in range(13)]
    A = INTERVAL
    for p, q in itertools.product(pts, repeat=2):
        assert mv_oplus(element(A, p), element(A, q)).payload == luk_oplus(p, q)
    for p in pts:
        assert mv_neg(element(A, p)).payload == luk_neg(p)


def test_oplus_examples():
    assert mv_oplus(ch((0, 2)), ch((0, 3))).payload == (0, 5)
    assert mv_oplus(ch((1, -2)), ch((0, 1))).payload == (1, -1)
    for x in enumerate_elements(CHANG, 4):
        assert mv_oplus(x, one(CHANG)) == one(CHANG)


def test_neg_examples():
    assert mv_neg(ch((0, 7))).payload == (1, -7)
    assert mv_neg(zero(CHANG)) == one(CHANG)
    A = FiniteChain(5)
    assert mv_neg(element(A, Fraction(1, 4))).payload == Fraction(3, 4)


def test_derived_examples():
    half = element(L3, Fraction(1, 2))
    assert mv_odot(half, half) == zero(L3)
    assert mv_odot(ch((1, -2)), ch((1, -3))).payload == (1, -5)
    for x in enumerate_elements(CHANG, 3):
        assert mv_odot(x, one(CHANG)) == x
    # x ⊖ y = x ⊙ ¬y and x → y = ¬x ⊕ y, spot checks
    assert mv_ominus(ch((0, 5)), ch((0, 2))) == mv_odot(ch((0, 5)), ch((1, -2)))
    assert mv_implies(half, zero(L3)).payload == Fraction(1, 2)


def test_leq_examples():
    assert mv_leq(ch((0, 5)), ch((1, -100)))
    assert not mv_leq(ch((1, -100)), ch((0, 5)))
    for A in (L3, CHANG):
        for x in enumerate_elements(A, 3):
            assert mv_leq(zero(A), x)
    P = product_algebra(L2, L2)
    a = element(P, (Fraction(0), Fraction(1)))
    b = element(P, (Fraction(1), Fraction(0)))
    assert not mv_leq(a, b) and not mv_leq(b, a)


def test_order_is_a_lattice_order():
    for A, bound in ((L3, None), (FiniteChain(4), None), (CHANG, 3),
                     (product_algebra(L2, L3), None)):
        elems = enumerate_elements(A, bound)
        for x in elems:
            assert mv_leq(x, x)
        for x, y in itertools.product(elems, repeat=2):
            if mv_leq(x, y) and mv_leq(y, x):
                assert x == y
            m, j = mv_meet(x, y), mv_join(x, y)
            assert mv_leq(m, x) and mv_leq(m, y)
            assert mv_leq(x, j) and mv_leq(y, j)
        for x, y, z in itertools.product(elems, repeat=3):
            if mv_leq(x, y) and mv_leq(y, z):
                assert mv_leq(x, z)
            # meet is the greatest lower bound and join the least upper bound
            if mv_leq(z, x) and mv_leq(z, y):
                assert mv_leq(z, mv_meet(x, y))
            if mv_leq(x, z) and mv_leq(y, z):
                assert mv_leq(mv_join(x, y), z)


def test_total_on_chains_and_chang():
    for A, bound in ((FiniteChain(5), None), (CHANG, 4)):
        elems = enumerate_elements(A, bound)
        for x, y in itertools.product(elems, repeat=2):
            assert mv_leq(x, y) or mv_leq(y, x)
        assert all(mv_leq(elems[i], elems[i + 1]) for i in range(len(elems) - 1))


def test_negation_is_order_reversing_involution():
    for A, bound in ((FiniteChain(4), None), (CHANG, 3), (product_algebra(L2, L2), None)):
        elems = enumerate_elements(A, bound)
        for x in elems:
            assert mv_neg(mv_neg(x)) == x
        for x, y in itertools.product(elems, repeat=2):
            assert mv_leq(x, y) == mv_leq(mv_neg(y), mv_neg(x))


def test_de_morgan():
    for A, bound in ((FiniteChain(4), None), (CHANG, 3)):
        elems = enumerate_elements(A, bound)
        for x, y in itertools.product(elems, repeat=2):
            assert mv_odot(x, y) == mv_neg(mv_oplus(mv_neg(x), mv_neg(y)))
            assert mv_meet(x, y) == mv_neg(mv_join(mv_neg(x), mv_neg(y)))


# -- carriers ------------------------------------------------------------------

def test_carrier_size():
    assert carrier_size(L3) == 3
    assert carrier_size(INTERVAL) is None
    assert carrier_size(CHANG) is None
    assert carrier_size(DeltaOf(TRIVIAL)) == 2
    assert carrier_size(product_algebra(L2, L3)) == 6
    assert carrier_size(product_algebra(L2, CHANG)) is None


def test_enumerate_finite_chain():
    assert [x.payload for x in enumerate_elements(L3)] == \
        [Fraction(0), Fraction(1, 2), Fraction(1)]


def test_enumerate_chang_fragment():
    got = [x.payload for x in enumerate_elements(CHANG, 2)]
    assert got == [(0, 0), (0, 1), (0, 2), (1, -2), (1, -1), (1, 0)]
    assert set(got) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, -1), (1, -2)}


def test_enumerate_interval_farey():
    got = [x.payload for x in enumerate_elements(INTERVAL, 2)]
    assert got == [Fraction(0), Fraction(1, 2), Fraction(1)]
    f4 = [x.payload for x in enumerate_elements(INTERVAL, 4)]
    assert f4 == sorted(f4)
    assert Fraction(3, 4) in f4 and Fraction(1, 5) not in f4


def test_enumerate_delta_of_rationals():
    A = DeltaOf(qsubgroup(CHI_Q))
    frag = [x.payload for x in enumerate_elements(A, 2)]
    assert (0, Fraction(1, 2)) in frag and (1, Fraction(-3, 2)) in frag
    assert frag[0] == (0, Fraction(0)) and frag[-1] == (1, Fraction(0))


def test_enumerate_requires_bound_on_infinite():
    with pytest.raises(DomainError):
        enumerate_elements(CHANG)
    assert len(enumerate_elements(DeltaOf(TRIVIAL))) == 2


def test_interval_rejects_bound_below_one_like_groups():
    for bound in (0, -5):
        for A in (INTERVAL, CHANG):
            with pytest.raises(DomainError, match="bound must be >= 1"):
                enumerate_elements(A, bound)


# -- the contract every descriptor kind keeps ------------------------------------

KINDS = (L2, FiniteChain(5), INTERVAL, CHANG, DeltaOf(TRIVIAL),
         DeltaOf(qsubgroup(characteristic({2: INF}))), DeltaOf(qsubgroup(CHI_Q)),
         DeltaOf(LexZG(Z)), product_algebra(L2, L3),
         product_algebra(L2, product_algebra(CHANG, INTERVAL)),
         product_algebra(DeltaOf(TRIVIAL), L3))


@pytest.mark.parametrize("A", KINDS, ids=repr)
def test_kind_contract(A):
    pool = enumerate_payloads(A, 2)
    assert [element(A, p).payload for p in pool] == pool
    size = carrier_size(A)
    if size is not None:
        assert size == len(pool) == len(enumerate_payloads(A))
    assert repr(pool) == repr(reference_listing(A, 2))
    if not isinstance(A, ProductAlgebra):
        leq = payload_ops(A).leq
        assert all(leq(p, q) and p != q for p, q in zip(pool, pool[1:]))


@pytest.mark.parametrize("junk", ("chain:3", 3, None, FiniteChain))
def test_a_non_descriptor_is_a_structural_error(junk):
    with pytest.raises(StructuralError, match="unknown algebra descriptor"):
        element(junk, Fraction(0))
    with pytest.raises(StructuralError, match="unknown algebra descriptor"):
        payload_ops(junk)
    with pytest.raises(StructuralError, match="unknown algebra descriptor"):
        enumerate_payloads(junk, 2)
    with pytest.raises(StructuralError, match="unknown algebra descriptor"):
        element(product_algebra(L2, junk), (Fraction(0), Fraction(0)))


def test_payload_ops_records_are_shared_and_cached():
    assert payload_ops(FiniteChain(2000)) is payload_ops(INTERVAL)
    assert payload_ops(DeltaOf(qsubgroup(CHI_Q))) is payload_ops(DeltaOf(qsubgroup(CHI_Q)))
    assert payload_ops.cache_info().maxsize is not None
    A = product_algebra(L3, CHANG)
    x, y = element(A, (Fraction(1, 2), (0, 2))), element(A, (Fraction(1), (1, -1)))
    ops = payload_ops(A)
    assert ops.zero == zero(A).payload and ops.one == one(A).payload
    for name, op in (("oplus", mv_oplus), ("odot", mv_odot), ("ominus", mv_ominus),
                     ("implies", mv_implies), ("join", mv_join), ("meet", mv_meet)):
        assert getattr(ops, name)(x.payload, y.payload) == op(x, y).payload, name
    assert ops.leq(x.payload, y.payload) == mv_leq(x, y)


def test_sampling_is_deterministic():
    a = sample_elements(CHANG, 50, seed=7, bound=10)
    b = sample_elements(CHANG, 50, seed=7, bound=10)
    assert a == b
    assert a != sample_elements(CHANG, 50, seed=8, bound=10)


# -- element validation ----------------------------------------------------------

def test_element_validation():
    with pytest.raises(StructuralError):
        element(L3, Fraction(1, 3))
    with pytest.raises(StructuralError):
        element(L3, Fraction(3, 2))
    with pytest.raises(StructuralError):
        element(CHANG, (0, -1))
    with pytest.raises(StructuralError):
        element(CHANG, (1, 1))
    with pytest.raises(StructuralError):
        element(CHANG, (2, 0))
    with pytest.raises(StructuralError):
        element(product_algebra(L2, L2), (Fraction(0),))
    with pytest.raises(DomainError):
        FiniteChain(1)
    with pytest.raises(DomainError):
        ProductAlgebra(())


def test_descriptor_mismatch_is_structural():
    with pytest.raises(StructuralError):
        mv_oplus(zero(L2), zero(L3))


# -- boolean and infinitesimal elements -------------------------------------------

def test_boolean_elements():
    assert is_boolean_elem(ch((1, 0)))
    assert not is_boolean_elem(ch((0, 1)))
    for A in (L3, CHANG):
        assert is_boolean_elem(zero(A))


def test_infinitesimal_elements():
    assert is_infinitesimal_elem(ch((0, 3)))
    assert not is_infinitesimal_elem(ch((1, -2)))
    assert not is_infinitesimal_elem(element(FiniteChain(5), Fraction(1, 4)))
    P = product_algebra(L2, CHANG)
    assert is_infinitesimal_elem(element(P, (Fraction(0), (0, 4))))
    assert not is_infinitesimal_elem(element(P, (Fraction(1), (0, 4))))


def test_infinitesimal_agrees_with_bounded_probe():
    # Oracle: n·x <= ¬x checked by literally iterating ⊕ up to the horizon
    # needed for the fragment (the chain denominator, or 2 for Chang).
    def probe(x, horizon):
        nx = x
        for _ in range(horizon):
            if not mv_leq(nx, mv_neg(x)):
                return False
            nx = mv_oplus(nx, x)
        return True

    for A, bound, horizon in ((FiniteChain(6), None, 6), (CHANG, 5, 3),
                              (product_algebra(L2, L3), None, 4)):
        for x in enumerate_elements(A, bound):
            assert is_infinitesimal_elem(x) == probe(x, horizon)


# -- axiom checking -----------------------------------------------------------------

@pytest.mark.parametrize("A", [FiniteChain(n) for n in range(2, 6)]
                         + [product_algebra(L2, L3), DeltaOf(TRIVIAL)])
def test_mv_axioms_exhaustive(A):
    report = check_mv_axioms(A)
    assert report.verdict == "valid"
    assert report.checked > 0


def test_mv_axioms_sampled():
    for A in (CHANG, INTERVAL, DeltaOf(qsubgroup(characteristic({2: 1})))):
        report = check_mv_axioms(A, mode="sampled", samples=150, seed=1, bound=20)
        assert report.verdict == "valid"
        assert report.mode == "sampled"


@pytest.mark.parametrize("A", [L3, product_algebra(L2, L3)])
def test_sampled_pool_of_a_finite_algebra_is_its_whole_carrier(A):
    draws = {bound: sample_elements(A, 60, 5, bound) for bound in (None, 0, 1, 9)}
    assert {x.payload for x in draws[None]} == set(enumerate_payloads(A))
    assert all(d == draws[None] for d in draws.values())


def test_mv_axioms_exhaustive_rejects_infinite():
    with pytest.raises(ModeError):
        check_mv_axioms(CHANG)


def test_corrupted_operation_table_is_caught():
    elems = [Fraction(0), Fraction(1, 2), Fraction(1)]

    def bad_oplus(x, y):  # drops the truncation, leaving [0,1]
        return x + y

    report = check_axioms_over(elems, bad_oplus, luk_neg, Fraction(0), Fraction(1))
    assert report.verdict == "counterexample"
    assert report.witness["axiom"] in ("one_absorbing", "lukasiewicz_exchange")

    def skew_neg(x):  # breaks the involution
        return Fraction(0) if x == 1 else Fraction(1) - x / 2

    report = check_axioms_over(elems, luk_oplus, skew_neg, Fraction(0), Fraction(1))
    assert report.verdict == "counterexample"


def test_random_sampled_triples_satisfy_axioms_on_products():
    rng = random.Random(3)
    A = product_algebra(L3, CHANG)
    pool = enumerate_elements(A, 4)
    for _ in range(200):
        x, y = rng.choice(pool), rng.choice(pool)
        assert mv_oplus(x, y) == mv_oplus(y, x)
        assert mv_neg(mv_neg(x)) == x
