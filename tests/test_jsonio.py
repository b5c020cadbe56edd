import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrop.algebra import (CHANG, DeltaOf, FiniteChain, ProductAlgebra,
                            RationalInterval, element, element_str,
                            enumerate_elements, product_algebra)
from mvtrop.bisemirings import TOP, TopCone
from mvtrop.characteristics import CHI_Q, CHI_Z, INF, characteristic
from mvtrop.errors import UsageError
from mvtrop.groups import TRIVIAL, LexZG, TrivialGroup, TropOfGroup, Z, qsubgroup
from mvtrop.jsonio import (algebra_from_json, chi_from_json, cone_to_json,
                           dumps, group_from_json, group_to_json,
                           parse_algebra_shorthand, parse_group_shorthand,
                           parse_payload_shorthand, parse_rational,
                           parse_semifield_shorthand, rational_str,
                           report_to_json, semifield_from_json)
from mvtrop.qpoints import FlatAction, check_flatness
from mvtrop.report import CheckReport

DYADIC = qsubgroup(characteristic({2: INF}))

GROUP_ZOO = (Z, TrivialGroup(), DYADIC, qsubgroup(CHI_Q),
             LexZG(Z), LexZG(DYADIC), qsubgroup(characteristic({3: 2, 5: INF})))

ALGEBRA_ZOO = (FiniteChain(2), FiniteChain(7), RationalInterval(), CHANG,
               DeltaOf(DYADIC), DeltaOf(TrivialGroup()),
               product_algebra(FiniteChain(2), FiniteChain(3)),
               product_algebra(FiniteChain(2), CHANG),
               DeltaOf(LexZG(DYADIC)), DeltaOf(qsubgroup(CHI_Q)),
               product_algebra(FiniteChain(2),
                               product_algebra(DeltaOf(LexZG(Z)), RationalInterval())))

_DYADIC_JSON = '{"chi":{"default":"0","primes":{"2":"inf"}},"kind":"q_subgroup"}'

# The wire format of every kind in ALGEBRA_ZOO, in order: the descriptor JSON,
# the shorthand, then (element_str, payload JSON) for the first three and the
# last element of ``enumerate_elements(A, 2)``.  Recorded before the codecs
# moved onto the descriptor classes; a product inside a product is written as
# its descriptor JSON, which is what ``prod:`` reads back.
WIRE_FORMAT = (
    ('{"kind":"finite_chain","size":2}', "chain:2", [("0", '"0"'), ("1", '"1"')]),
    ('{"kind":"finite_chain","size":7}', "chain:7",
     [("0", '"0"'), ("1/6", '"1/6"'), ("1/3", '"1/3"'), ("1", '"1"')]),
    ('{"kind":"rational_interval"}', "interval",
     [("0", '"0"'), ("1/2", '"1/2"'), ("1", '"1"')]),
    ('{"kind":"chang"}', "chang",
     [("(0,0)", '[0,"0"]'), ("(0,1)", '[0,"1"]'), ("(0,2)", '[0,"2"]'),
      ("(1,0)", '[1,"0"]')]),
    ('{"group":' + _DYADIC_JSON + ',"kind":"delta"}', "delta:Z[1/2]",
     [("(0,0)", '[0,"0"]'), ("(0,1/2)", '[0,"1/2"]'), ("(0,1)", '[0,"1"]'),
      ("(1,0)", '[1,"0"]')]),
    ('{"group":{"kind":"trivial"},"kind":"delta"}', "delta:trivial",
     [("(0,0)", '[0,"0"]'), ("(1,0)", '[1,"0"]')]),
    ('{"factors":[{"kind":"finite_chain","size":2},{"kind":"finite_chain","size":3}],'
     '"kind":"product"}', "prod:chain:2,chain:3",
     [("(0,0)", '["0","0"]'), ("(0,1/2)", '["0","1/2"]'), ("(0,1)", '["0","1"]'),
      ("(1,1)", '["1","1"]')]),
    ('{"factors":[{"kind":"finite_chain","size":2},{"kind":"chang"}],"kind":"product"}',
     "prod:chain:2,chang",
     [("(0,(0,0))", '["0",[0,"0"]]'), ("(0,(0,1))", '["0",[0,"1"]]'),
      ("(0,(0,2))", '["0",[0,"2"]]'), ("(1,(1,0))", '["1",[1,"0"]]')]),
    ('{"group":{"kind":"lex_zg","tail":' + _DYADIC_JSON + '},"kind":"delta"}',
     "delta:lex:Z[1/2]",
     [("(0,(0,0))", '[0,[0,"0"]]'), ("(0,(0,1/2))", '[0,[0,"1/2"]]'),
      ("(0,(0,1))", '[0,[0,"1"]]'), ("(1,(0,0))", '[1,[0,"0"]]')]),
    ('{"group":{"chi":{"default":"inf","primes":{}},"kind":"q_subgroup"},"kind":"delta"}',
     "delta:Q",
     [("(0,0)", '[0,"0"]'), ("(0,1/2)", '[0,"1/2"]'), ("(0,1)", '[0,"1"]'),
      ("(1,0)", '[1,"0"]')]),
    ('{"factors":[{"kind":"finite_chain","size":2},{"factors":[{"group":{"kind":"lex_zg",'
     '"tail":{"kind":"integers"}},"kind":"delta"},{"kind":"rational_interval"}],'
     '"kind":"product"}],"kind":"product"}',
     'prod:chain:2,{"factors":[{"group":{"kind":"lex_zg","tail":{"kind":"integers"}},'
     '"kind":"delta"},{"kind":"rational_interval"}],"kind":"product"}',
     [("(0,((0,(0,0)),0))", '["0",[[0,[0,"0"]],"0"]]'),
      ("(0,((0,(0,0)),1/2))", '["0",[[0,[0,"0"]],"1/2"]]'),
      ("(0,((0,(0,0)),1))", '["0",[[0,[0,"0"]],"1"]]'),
      ("(1,((1,(0,0)),1))", '["1",[[1,[0,"0"]],"1"]]')]),
)


def test_rational_strings():
    assert rational_str(Fraction(1, 2)) == "1/2"
    assert rational_str(Fraction(-3, 4)) == "-3/4"
    assert rational_str(Fraction(5)) == "5"
    assert rational_str(0) == "0"
    assert rational_str(-7) == "-7"
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("5") == 5
    with pytest.raises(UsageError):
        parse_rational("one half")
    with pytest.raises(UsageError):
        parse_rational("1/0")


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(), st.fractions()))
def test_rational_str_agrees_with_fraction(q):
    assert rational_str(q) == str(Fraction(q))
    assert parse_rational(rational_str(q)) == q


def test_chi_round_trip():
    for chi in (CHI_Z, CHI_Q, characteristic({2: INF, 3: 4})):
        assert chi_from_json(chi.to_json()) == chi
    data = characteristic({2: INF, 3: 4}).to_json()
    assert data == {"default": "0", "primes": {"2": "inf", "3": "4"}}


@pytest.mark.parametrize("G", GROUP_ZOO)
def test_group_round_trip(G):
    assert group_from_json(G.to_json()) == G
    assert group_to_json(G) == G.to_json()
    assert parse_group_shorthand(str(G)) == G


@pytest.mark.parametrize("A", ALGEBRA_ZOO)
def test_algebra_round_trip(A):
    assert algebra_from_json(A.to_json()) == A
    assert parse_algebra_shorthand(str(A)) == A


@pytest.mark.parametrize("A, pinned", zip(ALGEBRA_ZOO, WIRE_FORMAT, strict=True))
def test_wire_format_is_pinned(A, pinned):
    algebra_json, shorthand, elements = pinned
    assert dumps(A.to_json()) == algebra_json
    assert str(A) == shorthand
    found = enumerate_elements(A, 2)
    picked = list(dict.fromkeys(found[:3] + found[-1:]))
    assert [element_str(x) for x in picked] == [text for text, _ in elements]
    assert [dumps({"algebra": A.to_json(), "payload": A.payload_to_json(x.payload)})
            for x in picked] == [
        f'{{"algebra":{algebra_json},"payload":{payload}}}' for _, payload in elements]
    for x in picked:
        assert parse_payload_shorthand(A, element_str(x)) == x.payload


def test_chang_encodes_by_name_and_decodes_from_delta_form():
    assert CHANG.to_json() == {"kind": "chang"} and str(CHANG) == "chang"
    assert algebra_from_json({"kind": "delta", "group": {"kind": "integers"}}) == CHANG


@pytest.mark.parametrize("A", ALGEBRA_ZOO)
def test_element_round_trip(A):
    B = algebra_from_json(json.loads(dumps(A.to_json())))
    for x in enumerate_elements(A, 3)[:12]:
        assert element(B, B.payload_from_json(json.loads(dumps(A.payload_to_json(x.payload))))) == x


def test_semifield_round_trip():
    for G in GROUP_ZOO:
        S = TropOfGroup(G)
        assert semifield_from_json(S.to_json()) == S
        assert parse_semifield_shorthand(str(S)) == S


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
        assert str(G) == text
    assert parse_group_shorthand('{"kind":"integers"}') == Z
    with pytest.raises(UsageError):
        parse_group_shorthand("nonsense")


def test_algebra_shorthand_round_trips():
    for text in ("chain:3", "interval", "chang", "delta:Q", "delta:trivial",
                 "prod:chain:2,chain:3"):
        A = parse_algebra_shorthand(text)
        assert str(A) == text
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
    assert parse_payload_shorthand(Z, "4") == 4
    assert parse_payload_shorthand(LexZG(Z), "(1,0)") == (1, 0)
    assert parse_payload_shorthand(DYADIC, "3/8") == Fraction(3, 8)
    with pytest.raises(UsageError):
        parse_payload_shorthand(LexZG(Z), "5")


def test_semifield_shorthand():
    S = parse_semifield_shorthand("trop:Z[1/2]")
    assert S == TropOfGroup(DYADIC)
    with pytest.raises(UsageError):
        parse_semifield_shorthand("max-plus")


def test_product_shorthand_keeps_commas_inside_brackets():
    text = "prod:delta:Z[1/2,1/3],chain:2"
    A = parse_algebra_shorthand(text)
    assert len(A.factors) == 2 and A.factors[1] == FiniteChain(2)
    assert str(A) == text
    assert parse_algebra_shorthand(str(A)) == A
    nested = parse_algebra_shorthand('prod:{"kind":"finite_chain","size":3},interval')
    assert nested.factors == (FiniteChain(3), RationalInterval())
    with pytest.raises(UsageError):
        parse_algebra_shorthand("prod:chain:2,,chain:3")


# Nested descriptors: lex towers over Z, the trivial group and subgroups of Q,
# and products whose factors are products.  Each kind writes its JSON and its
# shorthand, and the readers take both back to an equal descriptor.
CHARACTERISTICS = st.builds(
    characteristic,
    st.dictionaries(st.sampled_from([2, 3, 5, 7]), st.one_of(st.integers(0, 3), st.just(INF)),
                    max_size=3),
    st.sampled_from([0, INF]))
NESTED_GROUPS = st.recursive(
    st.one_of(st.just(Z), st.just(TRIVIAL), CHARACTERISTICS.map(qsubgroup)),
    lambda tails: tails.map(LexZG), max_leaves=16)
NESTED_ALGEBRAS = st.recursive(
    st.one_of(st.integers(2, 9).map(FiniteChain), st.just(RationalInterval()),
              st.just(CHANG), NESTED_GROUPS.map(DeltaOf)),
    lambda factors: st.lists(factors, min_size=1, max_size=3).map(
        lambda fs: ProductAlgebra(tuple(fs))),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(NESTED_GROUPS)
def test_nested_groups_round_trip(G):
    assert group_from_json(json.loads(dumps(G.to_json()))) == G
    assert parse_group_shorthand(str(G)) == G


@settings(max_examples=200, deadline=None)
@given(NESTED_ALGEBRAS)
def test_nested_algebras_round_trip(A):
    assert algebra_from_json(json.loads(dumps(A.to_json()))) == A
    assert parse_algebra_shorthand(str(A)) == A


def test_a_witness_of_rationals_and_lists_is_written_as_json():
    # the flatness counterexample of the identity action on Z's cone: its pair is a
    # list of Fractions and its w a Fraction, each written as "p/q"
    report = check_flatness(FlatAction(CHI_Z, lambda n, x: x, label="projection"),
                            samples=200, seed=0)
    assert report_to_json(report) == {
        "verdict": "counterexample", "checked": 3, "mode": "sampled",
        "witness": {"condition": 2, "pair": ["1", "5"], "w": "1",
                    "reason": "action does not reach the pair from the refinement"}}


def test_a_witness_holding_every_type_a_report_carries_is_written_as_json():
    x = element(CHANG, (1, -2))
    report = CheckReport("counterexample", 4, mode="sampled", witness={
        "x": x, "q": Fraction(-3, 4), "nested": {"pair": [x, Fraction(1, 2)]},
        "triple": (1, "m", True), "n": 0, "reason": "r", "ok": False, "w": None})
    assert report_to_json(report)["witness"] == {
        "x": [1, "-2"], "q": "-3/4", "nested": {"pair": [[1, "-2"], "1/2"]},
        "triple": [1, "m", True], "n": 0, "reason": "r", "ok": False, "w": None}


@pytest.mark.parametrize("value, name", [(INF, "float"), (TOP, "Adjoined"), ({1}, "set")])
def test_a_witness_holding_another_type_is_refused(value, name):
    report = CheckReport("counterexample", 1, witness={"x": [value]})
    with pytest.raises(TypeError, match=f"no JSON form for a {name} in a report"):
        report_to_json(report)
