from fractions import Fraction

import pytest

from mvtrop.algebra import (CHANG, DeltaOf, FiniteChain, RationalInterval,
                            enumerate_elements, product_algebra)
from mvtrop.bisemirings import TopCone
from mvtrop.characteristics import CHI_Q, CHI_Z, INF, characteristic
from mvtrop.errors import UsageError
from mvtrop.groups import LexZG, TrivialGroup, TropOfGroup, Z, qsubgroup
from mvtrop.jsonio import (algebra_from_json, algebra_shorthand,
                           algebra_to_json, chi_from_json, chi_to_json,
                           cone_to_json, dumps, element_from_json,
                           element_to_json, group_from_json, group_shorthand,
                           group_to_json, parse_algebra_shorthand,
                           parse_group_element_shorthand,
                           parse_group_shorthand, parse_payload_shorthand,
                           parse_rational, parse_semifield_shorthand,
                           rational_str, semifield_from_json,
                           semifield_to_json)

DYADIC = qsubgroup(characteristic({2: INF}))

GROUP_ZOO = (Z, TrivialGroup(), DYADIC, qsubgroup(CHI_Q),
             LexZG(Z), LexZG(DYADIC), qsubgroup(characteristic({3: 2, 5: INF})))

ALGEBRA_ZOO = (FiniteChain(2), FiniteChain(7), RationalInterval(), CHANG,
               DeltaOf(DYADIC), DeltaOf(TrivialGroup()),
               product_algebra(FiniteChain(2), FiniteChain(3)),
               product_algebra(FiniteChain(2), CHANG))


def test_rational_strings():
    assert rational_str(Fraction(1, 2)) == "1/2"
    assert rational_str(Fraction(-3, 4)) == "-3/4"
    assert rational_str(Fraction(5)) == "5"
    assert rational_str(0) == "0"
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("5") == 5
    with pytest.raises(UsageError):
        parse_rational("one half")
    with pytest.raises(UsageError):
        parse_rational("1/0")


def test_chi_round_trip():
    for chi in (CHI_Z, CHI_Q, characteristic({2: INF, 3: 4})):
        assert chi_from_json(chi_to_json(chi)) == chi
    data = chi_to_json(characteristic({2: INF, 3: 4}))
    assert data == {"default": "0", "primes": {"2": "inf", "3": "4"}}


@pytest.mark.parametrize("G", GROUP_ZOO)
def test_group_round_trip(G):
    assert group_from_json(group_to_json(G)) == G


@pytest.mark.parametrize("A", ALGEBRA_ZOO)
def test_algebra_round_trip(A):
    assert algebra_from_json(algebra_to_json(A)) == A


def test_chang_encodes_by_name_and_decodes_from_delta_form():
    assert algebra_to_json(CHANG) == {"kind": "chang"}
    assert algebra_from_json({"kind": "delta", "group": {"kind": "integers"}}) == CHANG


@pytest.mark.parametrize("A", ALGEBRA_ZOO)
def test_element_round_trip(A):
    for x in enumerate_elements(A, 3)[:12]:
        assert element_from_json(element_to_json(x)) == x


def test_semifield_round_trip():
    for G in GROUP_ZOO:
        S = TropOfGroup(G)
        assert semifield_from_json(semifield_to_json(S)) == S


def test_cone_json_shape():
    data = cone_to_json(TopCone(Z), 3)
    assert data == {"base_group": {"kind": "integers"},
                    "elements": ["0", "1", "2", "3", "⊤"], "top": "⊤"}


def test_dumps_is_deterministic():
    a = dumps({"b": 1, "a": [2, 3]})
    assert a == '{"a":[2,3],"b":1}'


def test_group_shorthand_round_trips():
    for text in ("Z", "Q", "Z[1/2]", "trivial", "lex:Z", "lex:Z[1/2]"):
        G = parse_group_shorthand(text)
        assert group_shorthand(G) == text
    assert parse_group_shorthand('{"kind":"integers"}') == Z
    with pytest.raises(UsageError):
        parse_group_shorthand("nonsense")


def test_algebra_shorthand_round_trips():
    for text in ("chain:3", "interval", "chang", "delta:Q", "delta:trivial",
                 "prod:chain:2,chain:3"):
        A = parse_algebra_shorthand(text)
        assert algebra_shorthand(A) == text
    with pytest.raises(UsageError):
        parse_algebra_shorthand("chain:x")
    with pytest.raises(UsageError):
        parse_algebra_shorthand("ring:3")


def test_payload_shorthand():
    assert parse_payload_shorthand(FiniteChain(3), "1/2") == Fraction(1, 2)
    assert parse_payload_shorthand(CHANG, "(0,3)") == (0, 3)
    assert parse_payload_shorthand(CHANG, "(1,-2)") == (1, -2)
    P = product_algebra(FiniteChain(2), CHANG)
    assert parse_payload_shorthand(P, "(1,(0,2))") == (Fraction(1), (0, 2))
    D = DeltaOf(DYADIC)
    assert parse_payload_shorthand(D, "(0,3/8)") == (0, Fraction(3, 8))
    with pytest.raises(UsageError):
        parse_payload_shorthand(CHANG, "1/2")


def test_group_element_shorthand():
    assert parse_group_element_shorthand(Z, "4") == 4
    assert parse_group_element_shorthand(LexZG(Z), "(1,0)") == (1, 0)
    assert parse_group_element_shorthand(DYADIC, "3/8") == Fraction(3, 8)
    with pytest.raises(UsageError):
        parse_group_element_shorthand(LexZG(Z), "5")


def test_semifield_shorthand():
    S = parse_semifield_shorthand("trop:Z[1/2]")
    assert S == TropOfGroup(DYADIC)
    with pytest.raises(UsageError):
        parse_semifield_shorthand("max-plus")


def test_product_shorthand_keeps_commas_inside_brackets():
    text = "prod:delta:Z[1/2,1/3],chain:2"
    A = parse_algebra_shorthand(text)
    assert len(A.factors) == 2 and A.factors[1] == FiniteChain(2)
    assert algebra_shorthand(A) == text
    assert parse_algebra_shorthand(algebra_shorthand(A)) == A
    nested = parse_algebra_shorthand('prod:{"kind":"finite_chain","size":3},interval')
    assert nested.factors == (FiniteChain(3), RationalInterval())
    with pytest.raises(UsageError):
        parse_algebra_shorthand("prod:chain:2,,chain:3")
