import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mvtrop.bisemirings import TOP, TopCone, cone_add
from mvtrop.characteristics import CHI_Q, CHI_Z, INF, characteristic
from mvtrop.errors import DomainError, StructuralError
from mvtrop.groups import (BOTTOM, TRIVIAL, LexZG, QSubgroup,
                           TropOfGroup, Z, group_add, group_contains,
                           group_enumerate, group_join, group_leq, group_meet,
                           group_negate, group_positive_cone, group_zero,
                           qsubgroup, sf_leq, sinverse, splus, stimes)

DYADIC = qsubgroup(characteristic({2: INF}))
RATIONALS = qsubgroup(CHI_Q)


def test_qsubgroup_canonicalizes_z():
    assert qsubgroup(CHI_Z) == Z
    assert isinstance(DYADIC, QSubgroup)


def test_integer_ops():
    assert group_add(Z, 3, -5) == -2
    assert group_negate(Z, 7) == -7
    assert group_meet(Z, 3, -5) == -5
    assert group_join(Z, 3, -5) == 3


def test_lex_order_is_lexicographic():
    G = LexZG(Z)
    assert group_join(G, (0, 7), (1, -100)) == (1, -100)
    assert group_leq(G, (0, 7), (1, -100))
    assert group_leq(G, (0, 3), (0, 7))
    assert not group_leq(G, (1, -100), (0, 7))
    assert group_add(G, (1, -2), (2, 5)) == (3, 3)
    assert group_negate(G, (1, -2)) == (-1, 2)


def test_qsubgroup_ops_and_constraint():
    assert group_add(DYADIC, Fraction(3, 8), Fraction(1, 8)) == Fraction(1, 2)
    with pytest.raises(StructuralError):
        group_add(DYADIC, Fraction(1, 3), Fraction(1, 3))
    with pytest.raises(StructuralError):
        group_add(Z, Fraction(1, 2), 1)


def test_trivial_group():
    assert group_zero(TRIVIAL) == 0
    assert group_add(TRIVIAL, 0, 0) == 0
    assert not group_contains(TRIVIAL, 1)


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(0, 12), st.integers(0, 12))
def test_dyadic_closure(a, b, i, j):
    x, y = Fraction(a, 2 ** i), Fraction(b, 2 ** j)
    for r in (group_add(DYADIC, x, y), group_negate(DYADIC, x),
              group_meet(DYADIC, x, y), group_join(DYADIC, x, y)):
        assert group_contains(DYADIC, r)


def test_qsubgroup_closure_sampled():
    chi = characteristic({2: INF, 3: 2})
    G = qsubgroup(chi)
    rng = random.Random(5)
    pool = group_enumerate(G, 18)
    for _ in range(300):
        x, y = rng.choice(pool), rng.choice(pool)
        assert group_contains(G, group_add(G, x, y))
        assert group_contains(G, group_negate(G, x))
        assert group_contains(G, group_meet(G, x, y))
        assert group_contains(G, group_join(G, x, y))


def test_enumeration_ascending_and_contents():
    assert group_enumerate(Z, 2) == [-2, -1, 0, 1, 2]
    frag = group_enumerate(RATIONALS, 2)
    assert frag == [Fraction(n, d) for n, d in
                    ((-2, 1), (-3, 2), (-1, 1), (-1, 2), (0, 1), (1, 2), (1, 1), (3, 2), (2, 1))]
    dy = group_enumerate(DYADIC, 4)
    assert Fraction(3, 4) in dy and Fraction(1, 3) not in dy
    assert dy == sorted(dy)
    lex = group_enumerate(LexZG(Z), 1)
    assert lex == [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]
    assert group_positive_cone(Z, 3) == [0, 1, 2, 3]
    with pytest.raises(DomainError):
        group_enumerate(Z, 0)


def test_semifield_ops():
    S = TropOfGroup(Z)
    assert splus(S, 3, 5) == 5
    assert splus(S, BOTTOM, 7) == 7
    assert splus(S, 7, BOTTOM) == 7
    assert stimes(S, BOTTOM, 7) is BOTTOM
    assert stimes(S, 3, 5) == 8
    assert sinverse(S, 5) == -5
    with pytest.raises(DomainError):
        sinverse(S, BOTTOM)
    assert sf_leq(S, BOTTOM, -100) and not sf_leq(S, 0, BOTTOM)


def test_semifield_laws_sampled():
    S = TropOfGroup(DYADIC)
    rng = random.Random(11)
    pool = [BOTTOM] + group_enumerate(DYADIC, 8)
    one = group_zero(DYADIC)
    for _ in range(400):
        x, y, z = (rng.choice(pool) for _ in range(3))
        assert splus(S, x, x) == x                                   # idempotent
        assert splus(S, x, y) == splus(S, y, x)
        assert stimes(S, x, splus(S, y, z)) == splus(S, stimes(S, x, y), stimes(S, x, z))
        if x is not BOTTOM:
            assert stimes(S, x, sinverse(S, x)) == one               # inverse law


@pytest.mark.parametrize("x, text", [(BOTTOM, "-inf"), (TOP, "⊤")])
def test_adjoined_elements_keep_repr_and_identity(x, text):
    import copy
    import pickle
    assert repr(x) == str(x) == text
    assert pickle.loads(pickle.dumps(x)) is x
    assert copy.copy(x) is x and copy.deepcopy(x) is x


def test_descriptors_pickle_after_their_record_is_built():
    import pickle
    for G in (Z, TRIVIAL, DYADIC, LexZG(DYADIC)):
        group_zero(G)  # builds and caches the ops record
        H = pickle.loads(pickle.dumps(G))
        assert H == G and group_zero(H) == group_zero(G)
    for S, op, args in ((TropOfGroup(DYADIC), splus, (BOTTOM, Fraction(1, 2))),
                        (TopCone(LexZG(Z)), cone_add, ((0, 1), (1, -3)))):
        result = op(S, *args)  # builds and caches the ops record
        T = pickle.loads(pickle.dumps(S))
        assert T == S and op(T, *args) == result
