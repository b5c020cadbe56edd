"""Reference test: every group kind's fragment and cone against the earlier code.

A kind lists its positive cone in ascending order from 0 (``cone``), and its
fragment is that cone mirrored through −.  A subgroup of Q orders its cone on
the int key n·(L/d), L the lcm of its admitted denominators, and the flatness
check orders its pool of pairs the same way.  The references below are the
earlier forms: a subgroup of Q's fragment built as a set of ``Fraction``s and
sorted by ``Fraction`` comparisons, a cone filtered out of a fragment with the
group order, Δ(G)'s listing built from that cone, and the flatness pool sorted on ``Fraction`` keys.  Every listing
must be equal value for value, in the same order and with the same types.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrop.algebra import DeltaOf
from mvtrop.characteristics import CHI_Q, CHI_Z, admits_denominator, contains_rational
from mvtrop.groups import TRIVIAL, LexZG, QSubgroup, Z, group_positive_cone, qsubgroup
from mvtrop.jsonio import parse_group_shorthand
from mvtrop.qpoints import _positive_fragment
from mvtrop.rationals import dumps

# -- the earlier code ------------------------------------------------------------------

def ref_enumerate(G, bound):
    if G == Z:
        return list(range(-bound, bound + 1))
    if G == TRIVIAL:
        return [0]
    if isinstance(G, LexZG):
        tail = ref_enumerate(G.tail, bound)
        return [(a, t) for a in range(-bound, bound + 1) for t in tail]
    seen = {Fraction(0)}
    for d in range(1, bound + 1):
        if not contains_rational(G.chi, Fraction(1, d)):
            continue
        for n in range(1, bound * d + 1):
            q = Fraction(n, d)
            if q.denominator == d:
                seen.add(q)
                seen.add(-q)
    return sorted(seen)


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
    fragment = ref_enumerate(G, bound)
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
