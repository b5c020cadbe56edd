import itertools
from fractions import Fraction

import pytest

from conftest import reference_shape
import mvtrop.algebra as algebra
import mvtrop.functors as functors
from mvtrop.algebra import (CHANG, DeltaOf, FiniteChain, MvElement, ProductAlgebra,
                            RationalInterval, element, enumerate_elements,
                            enumerate_payloads, is_boolean_elem,
                            is_infinitesimal_elem, mv_join, mv_leq, mv_meet,
                            mv_neg, mv_odot, mv_oplus, one, product_algebra,
                            zero)
from mvtrop.bisemirings import (TOP, Bisemiring, TopCone, check_lbisemiring_of,
                                cone_add, cone_elements, cone_join, cone_leq,
                                cone_meet)
from mvtrop.characteristics import CHI_Q, INF, characteristic
from mvtrop.errors import (BrokenHomomorphismError, DomainError,
                           MalformedInputError, UnsupportedRepresentationError)
from mvtrop.functors import (Morphism, atoms, boolean_part, cone_to_perfect,
                             delta, delta_inverse, detrop, f_equiv, gamma,
                             glue_boolean_perfect, identity_morphism,
                             is_boolean_algebra, mv_from_semifield,
                             perfect_to_cone, projection_morphism,
                             recognize_theta_image, theta,
                             theta_image_conditions, theta_on_morphism,
                             theta_perfect, theta_perfect_inverse, theta_star,
                             trop)
from mvtrop.export import hasse_dot, operation_tables
from mvtrop.groups import BOTTOM, TRIVIAL, LexZG, Z, qsubgroup
from mvtrop.jsonio import parse_algebra_shorthand

L2 = FiniteChain(2)
L3 = FiniteChain(3)
DYADIC = qsubgroup(characteristic({2: INF}))
Z16 = qsubgroup(characteristic({2: INF, 3: INF}))
RAT = qsubgroup(CHI_Q)
GROUP_ZOO = (Z, RAT, DYADIC, Z16)


# -- gamma ---------------------------------------------------------------------

def test_gamma_over_integers():
    assert gamma(Z, 2) == FiniteChain(3)
    assert gamma(Z, 1) == FiniteChain(2)
    assert gamma(Z, 6) == FiniteChain(7)


def test_gamma_over_lex_group_gives_chang():
    assert gamma(LexZG(Z), (1, 0)) == CHANG
    assert gamma(LexZG(DYADIC), (1, Fraction(0))) == DeltaOf(DYADIC)


def test_gamma_rejects_bad_units():
    with pytest.raises(DomainError):
        gamma(Z, 0)
    with pytest.raises(DomainError):
        gamma(Z, -3)
    with pytest.raises(DomainError):
        gamma(LexZG(Z), (2, 0))  # a strong unit, but not structurally verified
    with pytest.raises(DomainError):
        gamma(RAT, Fraction(1, 2))


# -- delta and its inverse ---------------------------------------------------------

def test_delta_of_integers_is_chang():
    assert delta(Z) == CHANG


def test_delta_of_trivial_group_is_boolean_two():
    A = delta(TRIVIAL)
    elems = enumerate_elements(A)
    assert len(elems) == 2
    assert is_boolean_algebra(A)


def test_delta_is_perfect():
    # every element is an infinitesimal or the negation of one
    for G, bound in ((Z, 6), (DYADIC, 4), (RAT, 3)):
        A = delta(G)
        for x in enumerate_elements(A, bound):
            assert is_infinitesimal_elem(x) or is_infinitesimal_elem(mv_neg(x))


def test_delta_inverse_round_trips():
    assert delta_inverse(CHANG) == Z
    for G in GROUP_ZOO:
        assert delta_inverse(delta(G)) == G
    with pytest.raises(UnsupportedRepresentationError):
        delta_inverse(L3)


# -- trop and detrop -----------------------------------------------------------------

def test_trop_detrop_round_trips():
    for G in GROUP_ZOO + (TRIVIAL, LexZG(Z)):
        assert detrop(trop(G)) == G
    for S in (Z, L3):
        with pytest.raises(UnsupportedRepresentationError, match=f"^{S} is not a tropical semifield$"):
            detrop(S)


def test_trop_of_trivial_group():
    from mvtrop.groups import group_enumerate
    S = trop(TRIVIAL)
    assert [x for x in [BOTTOM] + group_enumerate(detrop(S), 1) if S.ops.contains(x)] == [BOTTOM, 0]
    assert not S.ops.contains(1)


def test_detrop_multiplication_agrees_with_group_addition():
    from mvtrop.groups import group_add, group_enumerate, stimes
    S = trop(DYADIC)
    G = detrop(S)
    frag = group_enumerate(G, 6)
    for x, y in itertools.product(frag[::3], repeat=2):
        assert stimes(S, x, y) == group_add(G, x, y)


def test_mv_from_semifield():
    assert mv_from_semifield(trop(Z), 2) == FiniteChain(3)
    assert mv_from_semifield(trop(Z), 1) == FiniteChain(2)
    assert mv_from_semifield(trop(LexZG(Z)), (1, 0)) == CHANG
    with pytest.raises(DomainError):
        mv_from_semifield(trop(Z), BOTTOM)
    with pytest.raises(DomainError):
        mv_from_semifield(trop(Z), 0)


# -- theta and theta-star --------------------------------------------------------------

def test_theta_of_chang_matches_closed_form():
    S = theta(CHANG)
    for n in range(8):
        assert S.contains(element(CHANG, (0, n)))
    assert S.contains(one(CHANG))
    for m in range(1, 8):
        assert not S.contains(element(CHANG, (1, -m)))
    assert [x.payload for x in S.elements(3)] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]


def test_theta_of_interval_closed_form():
    S = theta(RationalInterval())
    two_thirds = Fraction(2, 3)
    for x in enumerate_elements(RationalInterval(), 24):
        expected = x.payload <= two_thirds or x.payload == 1
        assert S.contains(x) == expected
    assert S.contains(element(RationalInterval(), Fraction(2, 3)))
    assert not S.contains(element(RationalInterval(), Fraction(7, 10)))
    assert S.contains(element(RationalInterval(), Fraction(1)))


def test_theta_of_boolean_algebra_is_everything():
    for A in (L2, product_algebra(L2, L2), delta(TRIVIAL)):
        S = theta(A)
        assert all(S.contains(x) for x in enumerate_elements(A))


def test_an_infinite_carrier_needs_a_bound():
    for listing in (operation_tables, hasse_dot, lambda A: theta(A).elements()):
        with pytest.raises(DomainError, match="requires a bound"):
            listing(CHANG)


def test_theta_star_of_chang():
    S = theta_star(CHANG)
    got = [x.payload for x in S.elements(3)]
    assert got == [(0, 0), (1, -3), (1, -2), (1, -1), (1, 0)]


def test_theta_star_examples():
    for A, bound in ((L3, None), (CHANG, 4), (RationalInterval(), 8)):
        assert theta_star(A).contains(one(A))
    assert [x.payload for x in theta_star(L3).elements()] == [Fraction(0), Fraction(1)]


def test_prop1_duality_on_vc_algebras():
    cases = [(CHANG, 8), (delta(DYADIC), 4), (product_algebra(L2, L2), None),
             (delta(TRIVIAL), None), (product_algebra(L2, CHANG), 4)]
    for A, bound in cases:
        th, ts = theta(A), theta_star(A)
        for x in enumerate_elements(A, bound):
            assert ts.contains(x) == th.contains(mv_neg(x))


def test_prop1_fails_outside_the_variety():
    # Lukasiewicz 3-chain: x = 1/2 is in theta but its negation 1/2 is not in theta*
    th, ts = theta(L3), theta_star(L3)
    half = element(L3, Fraction(1, 2))
    assert th.contains(half)
    assert not ts.contains(mv_neg(half))
    witnesses = [x for x in enumerate_elements(L3)
                 if ts.contains(x) != th.contains(mv_neg(x))]
    assert witnesses == [half]


def test_prop2_inclusions():
    cases = [(CHANG, 8), (delta(DYADIC), 4), (product_algebra(L2, CHANG), 4),
             (product_algebra(L2, L2), None)]
    for A, bound in cases:
        th = theta(A)
        elems = enumerate_elements(A, bound)
        for x in elems:
            if is_boolean_elem(x):
                assert th.contains(x)          # B(A) ⊆ θ(A)
            if is_infinitesimal_elem(x):
                assert th.contains(x)          # Rad(A) ⊆ θ(A)
            if is_infinitesimal_elem(mv_neg(x)) and th.contains(x):
                assert x == one(A)             # co-Rad(A) ∩ θ(A) = {1}


def test_prop2_sum_decomposition():
    # every member of theta is boolean ⊕ infinitesimal on the fragment
    for A, bound in ((CHANG, 6), (product_algebra(L2, CHANG), 3)):
        elems = enumerate_elements(A, bound)
        booleans = [b for b in elems if is_boolean_elem(b)]
        infs = [e for e in elems if is_infinitesimal_elem(e)]
        th = theta(A)
        for x in elems:
            if not th.contains(x):
                continue
            assert any(mv_oplus(b, e) == x for b in booleans for e in infs)


def test_closure_lemma():
    for A, bound in ((CHANG, 8), (delta(DYADIC), 4), (product_algebra(L2, CHANG), 3)):
        th = theta(A)
        members = th.elements(bound)
        for x, y in itertools.product(members, repeat=2):
            for op in (mv_oplus, mv_odot, mv_meet, mv_join):
                assert th.contains(op(x, y))


def test_theta_image_is_lbisemiring_exhaustive():
    for A in (L2, product_algebra(L2, L2), delta(TRIVIAL), product_algebra(L2, L2, L2)):
        report = check_lbisemiring_of(theta(A))
        assert report.verdict == "valid"


def test_lbisemiring_checker_rejects_malformed():
    half_only = Bisemiring(L3, lambda ops, x: True,
                           explicit=(zero(L3), element(L3, Fraction(1, 2))))
    with pytest.raises(MalformedInputError):
        check_lbisemiring_of(half_only)
    singleton = Bisemiring(L2, lambda ops, x: True, explicit=(zero(L2),))
    with pytest.raises(MalformedInputError):
        check_lbisemiring_of(singleton)


def test_theta_membership_is_isomorphism_invariant():
    # two presentations of the two-element Boolean algebra
    assert len(theta(L2).elements()) == len(theta(delta(TRIVIAL)).elements()) == 2
    # swapping product factors is an isomorphism and preserves theta pointwise
    A = product_algebra(L2, L3)
    B = product_algebra(L3, L2)
    th_a, th_b = theta(A), theta(B)
    for x in enumerate_elements(A):
        swapped = element(B, (x.payload[1], x.payload[0]))
        assert th_a.contains(x) == th_b.contains(swapped)


# -- theta on perfect algebras: cones with a top -------------------------------------

def test_theta_perfect_shape():
    T = theta_perfect(CHANG)
    assert T == TopCone(Z)
    assert cone_elements(T, 3) == [0, 1, 2, 3, TOP]
    with pytest.raises(UnsupportedRepresentationError,
                       match="^chain:3 is not a DeltaOf algebra; theta_perfect is representation-aware$"):
        theta_perfect(L3)


def test_theta_perfect_inverse_round_trip():
    for P in (CHANG, delta(RAT), delta(DYADIC), delta(TRIVIAL)):
        assert theta_perfect_inverse(theta_perfect(P)) == P


def test_cone_operations_mirror_theta_of_perfect():
    # the bijection (0,g) ↦ g, 1 ↦ ⊤ carries ⊕ to cone addition and ∧/∨ to
    # cone meet/join, checked exhaustively on a fragment
    P = CHANG
    T = theta_perfect(P)
    members = theta(P).elements(5)
    for x, y in itertools.product(members, repeat=2):
        cx, cy = perfect_to_cone(x), perfect_to_cone(y)
        assert perfect_to_cone(mv_oplus(x, y)) == cone_add(T, cx, cy)
        assert perfect_to_cone(mv_meet(x, y)) == cone_meet(T, cx, cy)
        assert perfect_to_cone(mv_join(x, y)) == cone_join(T, cx, cy)
        assert mv_leq(x, y) == cone_leq(T, cx, cy)
    for x in members:
        assert cone_to_perfect(P, perfect_to_cone(x)) == x


def test_perfect_to_cone_rejects_non_theta_elements():
    with pytest.raises(DomainError, match=r"^\(1,-2\) is not in theta of chang$"):
        perfect_to_cone(element(CHANG, (1, -2)))
    with pytest.raises(UnsupportedRepresentationError, match="^chain:3 is not a DeltaOf algebra$"):
        perfect_to_cone(element(L3, Fraction(1, 2)))


def test_theta_perfect_of_rational_delta():
    T = theta_perfect(delta(RAT))
    frag = cone_elements(T, 2)
    assert Fraction(1, 2) in frag and frag[-1] is TOP
    T0 = theta_perfect(delta(TRIVIAL))
    assert cone_elements(T0, 1) == [0, TOP]


def test_f_equiv():
    assert f_equiv(trop(Z)) == theta_perfect(CHANG)
    assert f_equiv(trop(TRIVIAL)) == TopCone(TRIVIAL)
    T = f_equiv(trop(DYADIC))
    assert T == TopCone(DYADIC)
    assert Fraction(3, 4) in cone_elements(T, 4)


# -- boolean part and gluing ------------------------------------------------------------

def test_boolean_part():
    assert [x.payload for x in boolean_part(CHANG, 5)] == [(0, 0), (1, 0)]
    assert [x.payload for x in boolean_part(L3)] == [Fraction(0), Fraction(1)]
    assert len(boolean_part(product_algebra(L2, L2))) == 4


@pytest.mark.parametrize("A, count", [
    (L2, 1), (product_algebra(L2, L2), 2), (product_algebra(L2, L2, L2), 3),
    (FiniteChain(5), 1), (product_algebra(L3, L2, FiniteChain(4)), 3),
    (product_algebra(L2, product_algebra(L3, product_algebra(delta(TRIVIAL), L2)), L3), 5),
    (product_algebra(L2, product_algebra(L2, product_algebra(delta(TRIVIAL), L2))), 4),
], ids=repr)
def test_atoms(A, count):
    # against the definitions, walked: minimal nonzero elements, all elements idempotent
    elems = enumerate_elements(A)
    nonzero = [x for x in elems if x != zero(A)]
    assert atoms(A) == [x for x in nonzero if not any(y != x and mv_leq(y, x) for y in nonzero)]
    assert len(atoms(A)) == count
    assert is_boolean_algebra(A) == all(mv_oplus(x, x) == x for x in elems)


@pytest.mark.parametrize("text", ["chain:2", "chain:9", "prod:chain:2,chain:2,chain:2",
                                  "prod:chain:3,chain:2,chain:4", "prod:chain:5,delta:trivial",
                                  'prod:chain:2,{"kind":"product","factors":'
                                  '[{"kind":"finite_chain","size":3},{"kind":"finite_chain",'
                                  '"size":2}]},chain:4'])
def test_atoms_do_not_list_the_carrier(text, monkeypatch):
    A = parse_algebra_shorthand(text)
    elems = enumerate_payloads(A)  # the listing positions that are leaf weights
    expected = [MvElement(A, elems[w]) for w, _ in reversed(reference_shape(A))]

    def refuse(*args):
        raise AssertionError("the carrier was listed")
    for kind in (FiniteChain, ProductAlgebra):
        monkeypatch.setattr(kind, "enumerate", refuse)
    for module in (algebra, functors):
        monkeypatch.setattr(module, "enumerate_payloads", refuse)
    assert atoms(A) == expected
    assert atoms(FiniteChain(10 ** 6)) == [MvElement(FiniteChain(10 ** 6), Fraction(1, 10 ** 6 - 1))]


def test_glue_with_two_element_boolean_is_identity():
    assert glue_boolean_perfect(L2, CHANG) == CHANG
    assert glue_boolean_perfect(L2, delta(TRIVIAL)) == delta(TRIVIAL)


def test_glue_boolean_four():
    A = glue_boolean_perfect(product_algebra(L2, L2), CHANG)
    assert A == product_algebra(L2, CHANG)
    # Boolean part has exactly four elements on any fragment
    assert len(boolean_part(A, 6)) == 4
    # the radical is a copy of Rad(P): (0, (0,n)) ↔ (0,n)
    rad = [x for x in enumerate_elements(A, 5) if is_infinitesimal_elem(x)]
    rad_p = [x for x in enumerate_elements(CHANG, 5) if is_infinitesimal_elem(x)]
    assert sorted(x.payload[1] for x in rad) == sorted(x.payload for x in rad_p)


def test_glue_bigger_boolean():
    B8 = product_algebra(L2, L2, L2)
    A = glue_boolean_perfect(B8, delta(DYADIC))
    assert len(boolean_part(A, 3)) == 8
    assert glue_boolean_perfect(B8, CHANG) == product_algebra(L2, L2, CHANG)


def test_glue_rejects_non_boolean():
    with pytest.raises(DomainError):
        glue_boolean_perfect(L3, CHANG)
    with pytest.raises(UnsupportedRepresentationError,
                       match="^chain:3 is not a DeltaOf algebra; gluing is representation-aware$"):
        glue_boolean_perfect(L2, L3)


def test_glue_result_satisfies_vc_axiom_on_fragment():
    A = glue_boolean_perfect(product_algebra(L2, L2), CHANG)
    for x in enumerate_elements(A, 5):
        two_x = mv_oplus(x, x)
        lhs = mv_odot(two_x, two_x)
        sq = mv_odot(x, x)
        assert lhs == mv_oplus(sq, sq)


# -- recognizing theta images -------------------------------------------------------------

def _full_bisemiring(A):
    return Bisemiring(A, lambda ops, x: True, explicit=tuple(enumerate_elements(A)))


def test_recognize_accepts_boolean_four():
    report = recognize_theta_image(_full_bisemiring(product_algebra(L2, L2)))
    assert report.verdict == "valid"


def test_recognize_rejects_three_chain():
    report = recognize_theta_image(_full_bisemiring(L3))
    assert report.verdict == "counterexample"
    assert report.witness["element"].payload == Fraction(1, 2)
    assert "0" in report.witness["reason"]


def test_recognize_malformed_inputs():
    with pytest.raises(MalformedInputError):
        recognize_theta_image(Bisemiring(L2, lambda ops, x: True, explicit=(zero(L2),)))
    # {0, 1/3, 1} in the four-chain is not closed under oplus (1/3 ⊕ 1/3 = 2/3)
    L4 = FiniteChain(4)
    with pytest.raises(MalformedInputError):
        recognize_theta_image(Bisemiring(
            L4, lambda ops, x: True,
            explicit=(zero(L4), element(L4, Fraction(1, 3)), one(L4))))


def test_theta_image_conditions_on_fragments():
    assert theta_image_conditions(theta(CHANG), 6).verdict == "valid"
    assert theta_image_conditions(theta(delta(DYADIC)), 4).verdict == "valid"
    # whole three-chain: Inf = {0, 1/2} is not closed under ⊕
    report = theta_image_conditions(Bisemiring(L3, lambda ops, x: True), None)
    assert report.verdict == "counterexample"
    assert report.witness["condition"] == "inf_closure"


# -- morphisms -------------------------------------------------------------------------

def test_identity_restricts_to_theta():
    th_id = theta_on_morphism(identity_morphism(CHANG), bound=4)
    x = element(CHANG, (0, 2))
    assert th_id(x) == x
    assert th_id.source.label == "theta"


def test_projection_restricts_to_theta():
    P = product_algebra(CHANG, CHANG)
    proj = projection_morphism(P, 0)
    th_proj = theta_on_morphism(proj, bound=3)
    x = element(P, ((0, 1), (1, 0)))
    assert th_proj(x).payload == (0, 1)


def test_projection_needs_a_product_and_one_of_its_factors():
    with pytest.raises(DomainError, match="^chain:3 is not a product algebra$"):
        projection_morphism(L3, 0)
    P = product_algebra(L2, L3)
    for index in (-1, 2):
        with pytest.raises(DomainError, match=f"^no factor {index} in prod:chain:2,chain:3$"):
            projection_morphism(P, index)


def test_constant_one_map_is_rejected():
    bad = Morphism(CHANG, CHANG, "const1", lambda x: one(CHANG))
    with pytest.raises(BrokenHomomorphismError):
        theta_on_morphism(bad, bound=3)


def test_squaring_map_is_rejected():
    bad = Morphism(L3, L3, "square", lambda x: mv_odot(x, x))
    with pytest.raises(BrokenHomomorphismError):
        theta_on_morphism(bad, bound=3)
