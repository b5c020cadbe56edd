"""Reference test: every group kind's fragment and cone against the earlier code.

A kind states its fragment once, as the ascending ints φ(g) of an additive
order-embedding φ with φ⁻¹ (``scaled``), and lists its fragment and its cone
by decoding them.  A subgroup of Q is scaled by L, the lcm of its admitted
denominators, and the flatness check orders its pool of pairs on the same
keys.  The references below are the earlier forms: a fragment built from its
definition (``conftest.reference_fragment``), a subgroup of Q's sorted by
``Fraction`` comparisons, a cone filtered out of it with the group order,
Δ(G)'s listing built from that cone, and the flatness pool sorted on
``Fraction`` keys.  Every listing must be equal value for value, in the same
order and with the same types; and φ must be additive, including on sums of
up to 2⁶³ members, the most a term with fewer than 2⁶⁴ variable occurrences
adds up.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_fragment
from mvtrop.algebra import DeltaOf
from mvtrop.characteristics import CHI_Q, CHI_Z, admits_denominator
from mvtrop.groups import TRIVIAL, LexZG, QSubgroup, Z, group_positive_cone, qsubgroup
from mvtrop.jsonio import parse_group_shorthand
from mvtrop.qpoints import _positive_fragment
from mvtrop.rationals import dumps

# -- the earlier code ------------------------------------------------------------------

def ref_delta(G, cone):
    r = G.ops
    return [(0, g) for g in cone] + [(1, r.neg(g)) for g in reversed(cone)]


def ref_positive_fragment(chi, height):
    pairs = [(n, d) for d in range(1, height + 1) if admits_denominator(chi, d)
             for n in range(1, height + 1) if math.gcd(n, d) == 1]
    return sorted(pairs, key=lambda p: Fraction(*p))


def same(got, want):
    """Equal value for value, and with the same types at every depth."""
    assert got == want
    assert repr(got) == repr(want)


# -- the groups ------------------------------------------------------------------------

def _chi_json(exponents):
    chi = {"default": "0", "primes": {str(p): str(e) for p, e in exponents.items()}}
    return parse_group_shorthand(dumps({"kind": "q_subgroup", "chi": chi}))


subgroups_of_q = st.one_of(
    st.just(Z), st.just(qsubgroup(CHI_Q)),
    st.integers(2, 60).map(lambda m: parse_group_shorthand(f"Z[1/{m}]")),
    st.dictionaries(st.sampled_from([2, 3, 5, 7]), st.integers(0, 3), max_size=3).map(_chi_json))


def _tower(depth, G):
    for _ in range(depth):
        G = LexZG(G)
    return G


groups = st.builds(_tower, st.integers(0, 2), st.one_of(subgroups_of_q, st.just(TRIVIAL)))
bounds = st.integers(1, 9)


@settings(max_examples=60, deadline=None)
@given(groups, bounds)
def test_fragment_cone_and_delta_listing_match_the_earlier_code(G, bound):
    fragment = reference_fragment(G, bound)
    same(G.enumerate(bound), fragment)
    r = G.ops
    cone = [x for x in fragment if r.leq(r.zero, x)]
    same(G.cone(bound), cone)
    same(group_positive_cone(G, bound), cone)
    same(DeltaOf(G).enumerate(bound), ref_delta(G, cone))


@settings(max_examples=150, deadline=None)
@given(subgroups_of_q, st.integers(1, 12))
def test_flatness_pool_matches_the_fraction_key_sort(G, height):
    chi = G.chi if isinstance(G, QSubgroup) else CHI_Z
    same(_positive_fragment(chi, height), ref_positive_fragment(chi, height))


def _times(c, g):
    """c·g in a group of ints, Fractions and lex pairs of them."""
    return tuple(_times(c, x) for x in g) if isinstance(g, tuple) else c * g


@pytest.mark.parametrize("text", ["Z", "trivial", "Z[1/2]", "Z[1/6]", "Q", "lex:Z",
                                  "lex:Z[1/6]", "lex:lex:Z", "lex:trivial"])
@pytest.mark.parametrize("bound", range(1, 7))
def test_each_kinds_scaled_fragment_ascends_and_decodes_to_the_earlier_listing(text, bound):
    G = parse_group_shorthand(text)
    ints, decode = G.scaled(bound)
    assert all(a < b for a, b in zip(ints, ints[1:]))
    assert ints == [-k for k in reversed(ints)]
    fragment = reference_fragment(G, bound)
    same([decode(k) for k in ints], fragment)
    same(G.enumerate(bound), fragment)
    r = G.ops
    same(G.cone(bound), [x for x in fragment if r.leq(r.zero, x)])
    # φ is additive: a difference of members, and one scaled by 2⁶², decode exactly
    n = len(ints)
    picks = sorted({0, n // 3, (n // 2 + 1) % n, n - 1})
    for i in picks:
        for j in picks:
            diff = r.add(fragment[i], r.neg(fragment[j]))
            same(decode(ints[i] - ints[j]), diff)
            same(decode((ints[i] - ints[j]) << 62), _times(1 << 62, diff))
