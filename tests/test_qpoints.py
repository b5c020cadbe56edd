import random
from fractions import Fraction

import pytest

from mvtrop.bisemirings import TOP, cone_add, cone_elements, cone_leq
from mvtrop.characteristics import (CHI_Q, CHI_Z, INF, characteristic,
                                    parse_group_label)
from mvtrop.characteristics import contains_rational as contains
from mvtrop.errors import (DomainError, ReconstructionError, StructuralError,
                           WitnessNotFoundError)
from mvtrop.functors import theta_perfect
from mvtrop.groups import Z, group_enumerate, qsubgroup
from mvtrop.qpoints import (REGULARLY_DENSE, REGULARLY_DISCRETE, FlatAction,
                            check_flatness, classify_regularity,
                            common_measure, find_divisible_between,
                            frobenius_action, gp_invariant,
                            group_characteristic, group_from_action,
                            hom_exists, hom_obstruction, rational_gcd,
                            theta_pt)

CHI_DYADIC = parse_group_label("Z[1/2]")
CHI_SIXTH = parse_group_label("Z[1/6]")
CHI_NINTH = characteristic({3: 2})
CHI_ZOO = (CHI_Z, CHI_Q, CHI_DYADIC, CHI_SIXTH, CHI_NINTH)


# -- membership and the Gp invariant ------------------------------------------

def test_contains_examples():
    assert contains(CHI_Z, 3) and not contains(CHI_Z, Fraction(1, 2))
    assert contains(CHI_DYADIC, Fraction(3, 8))
    assert not contains(characteristic({2: 1}), Fraction(5, 6))


def test_gp_examples():
    assert gp_invariant(CHI_Z, 5).value == 5
    for p in (2, 3, 5, 7, 11, 13):
        assert gp_invariant(CHI_Q, p).value == 1
    assert gp_invariant(CHI_DYADIC, 2).value == 1
    assert gp_invariant(CHI_DYADIC, 3).value == 3
    with pytest.raises(DomainError):
        gp_invariant(CHI_Z, 6)


def _congruence_classes(chi, p, bound=18) -> int:
    """Brute-force oracle: count classes of the fragment modulo p, i.e. under
    x ~ y iff (x - y)/p lies in the group."""
    reps = []
    for x in group_enumerate(qsubgroup(chi), bound):
        if not any(contains(chi, Fraction(x - r, p)) for r in reps):
            reps.append(x)
        if len(reps) > p:
            break
    return len(reps)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("chi", CHI_ZOO, ids=["Z", "Q", "Z[1/2]", "Z[1/6]", "chi(3)=2"])
def test_gp_agrees_with_congruence_counting(chi, p):
    value = gp_invariant(chi, p).value
    assert _congruence_classes(chi, p) == value
    assert value <= p


# -- regularity ----------------------------------------------------------------

def test_classification():
    assert classify_regularity(CHI_Z) == REGULARLY_DISCRETE
    assert classify_regularity(CHI_NINTH) == REGULARLY_DISCRETE
    assert classify_regularity(CHI_Q) == REGULARLY_DENSE
    assert classify_regularity(CHI_DYADIC) == REGULARLY_DENSE
    assert classify_regularity(CHI_SIXTH) == REGULARLY_DENSE


def test_find_divisible_between_dense():
    x = find_divisible_between(CHI_DYADIC, 3, 0, 1)
    assert 0 < x < 1 and contains(CHI_DYADIC, x) and contains(CHI_DYADIC, x / 3)
    x = find_divisible_between(CHI_Q, 2, Fraction(1, 3), Fraction(1, 2))
    assert Fraction(1, 3) < x < Fraction(1, 2) and contains(CHI_Q, x / 2)


def test_find_divisible_between_straddling_zero():
    assert find_divisible_between(CHI_Q, 7, Fraction(-1, 3), Fraction(1, 5)) == 0
    assert find_divisible_between(CHI_Z, 7, -1, 1) == 0


def test_find_divisible_between_discrete():
    assert find_divisible_between(CHI_Z, 3, 1, 4) in (2, 3)
    x = find_divisible_between(CHI_NINTH, 2, 0, Fraction(1, 3))
    assert contains(CHI_NINTH, x / 2) and 0 < x < Fraction(1, 3)
    with pytest.raises(WitnessNotFoundError):
        find_divisible_between(CHI_Z, 3, 1, 2)


def test_find_divisible_between_validates_inputs():
    with pytest.raises(DomainError):
        find_divisible_between(CHI_Z, 4, 0, 10)
    with pytest.raises(DomainError):
        find_divisible_between(CHI_Z, 3, 5, 5)
    with pytest.raises(StructuralError):
        find_divisible_between(CHI_Z, 3, Fraction(1, 2), 4)


def test_find_divisible_between_seeded_triples():
    rng = random.Random(100)
    dense = [CHI_Q, CHI_DYADIC, CHI_SIXTH]
    for _ in range(120):
        chi = rng.choice(dense)
        p = rng.choice([2, 3, 5, 7])
        frag = [q for q in group_enumerate(qsubgroup(chi), 6)]
        a = rng.choice(frag)
        b = a + Fraction(rng.randrange(1, 5), rng.choice([1, 2]) if chi != CHI_Q else rng.randrange(1, 7))
        if not contains(chi, b):
            continue
        x = find_divisible_between(chi, p, a, b)
        assert a < x < b
        assert contains(chi, x) and contains(chi, x / p)


# -- common measure -------------------------------------------------------------

def test_common_measure_examples():
    assert common_measure(Fraction(1, 2), Fraction(1, 3)) == (2, 3)
    assert common_measure(Fraction(5, 7), Fraction(5, 7)) == (1, 1)
    assert common_measure(3, 5) == (5, 3)
    assert common_measure(Fraction(-1, 2), Fraction(-1, 3)) == (2, 3)


def test_common_measure_is_minimal_and_correct():
    rng = random.Random(9)
    for _ in range(200):
        x = Fraction(rng.randrange(1, 30), rng.randrange(1, 30))
        y = Fraction(rng.randrange(1, 30), rng.randrange(1, 30))
        m, n = common_measure(x, y)
        assert m * x == n * y
        assert m >= 1 and n >= 1
        import math
        assert math.gcd(m, n) == 1  # minimality of the positive solution


def test_common_measure_rejects_bad_inputs():
    with pytest.raises(DomainError):
        common_measure(0, 1)
    with pytest.raises(DomainError):
        common_measure(Fraction(1, 2), Fraction(-1, 3))


# -- homomorphisms ----------------------------------------------------------------

def test_hom_examples():
    assert hom_exists(CHI_Z, CHI_Q) == 1
    assert hom_exists(CHI_Q, CHI_Z) is None
    assert hom_exists(characteristic({3: INF}), characteristic({2: INF})) is None
    assert hom_exists(CHI_NINTH, CHI_Z) == 9
    assert hom_exists(CHI_DYADIC, CHI_SIXTH) == 1
    assert hom_exists(CHI_SIXTH, CHI_DYADIC) is None


def test_hom_r_actually_maps_src_into_dst():
    rng = random.Random(4)
    pairs = [(a, b) for a in CHI_ZOO for b in CHI_ZOO]
    for src, dst in pairs:
        r = hom_exists(src, dst)
        if r is None:
            continue
        frag = group_enumerate(qsubgroup(src), 9)
        for x in rng.sample(frag, min(25, len(frag))):
            assert contains(dst, r * x)


def test_hom_obstruction_certificate():
    for src, dst in (((CHI_Q), (CHI_Z)), (CHI_SIXTH, CHI_DYADIC),
                     (characteristic({3: INF}), characteristic({2: INF}))):
        cert = hom_obstruction(src, dst)
        assert cert is not None
        assert src.exponent(cert) == INF
        assert dst.exponent(cert) != INF
    assert hom_obstruction(CHI_Z, CHI_Q) is None


# -- flat actions -------------------------------------------------------------------

def test_frobenius_action_examples():
    assert frobenius_action(CHI_Z).act(3, 2) == 6
    assert frobenius_action(CHI_Q).act(5, Fraction(2, 3)) == Fraction(10, 3)
    got = frobenius_action(CHI_DYADIC).act(3, Fraction(1, 4))
    assert got == Fraction(3, 4) and contains(CHI_DYADIC, got)


def test_frobenius_action_validates():
    F = frobenius_action(CHI_Z)
    with pytest.raises(DomainError):
        F.act(0, 1)
    with pytest.raises(StructuralError):
        F.act(2, Fraction(-1))


def test_action_laws_sampled():
    rng = random.Random(12)
    F = frobenius_action(CHI_DYADIC)
    pool = [Fraction(n, 2 ** k) for n in range(1, 20) for k in range(4)]
    for _ in range(200):
        x = rng.choice(pool)
        m, n = rng.randrange(1, 9), rng.randrange(1, 9)
        assert F.act(1, x) == x
        assert F.act(m, F.act(n, x)) == F.act(m * n, x)


def test_rational_gcd():
    assert rational_gcd([Fraction(1, 2), Fraction(1, 3)]) == Fraction(1, 6)
    assert rational_gcd([6, 10]) == 2
    assert rational_gcd([Fraction(3, 4), Fraction(9, 2)]) == Fraction(3, 4)
    with pytest.raises(DomainError):
        rational_gcd([Fraction(0)])


def test_check_flatness_on_frobenius():
    for chi in (CHI_Z, CHI_Q, CHI_DYADIC):
        report = check_flatness(frobenius_action(chi), samples=300, seed=3)
        assert report.verdict == "valid"
        assert report.details["condition3"] == "vacuously satisfied"


def test_check_flatness_catches_corrupted_action():
    corrupted = FlatAction(CHI_Z, lambda n, x: x, label="projection")
    report = check_flatness(corrupted, samples=200, seed=0)
    assert report.verdict == "counterexample"
    assert report.witness["condition"] == 2


def test_group_from_action_round_trips():
    assert group_from_action(frobenius_action(CHI_Z), [1]) == Z
    assert group_from_action(frobenius_action(CHI_Z), [2]) == Z
    got = group_from_action(frobenius_action(CHI_Q),
                            [Fraction(1, 2), Fraction(1, 3)])
    assert got == qsubgroup(characteristic({2: 1, 3: 1}))
    got = group_from_action(frobenius_action(CHI_DYADIC), [Fraction(3, 8)])
    assert got == qsubgroup(characteristic({2: 3}))


def test_group_from_action_result_contains_probes():
    rng = random.Random(21)
    for chi in (CHI_Q, CHI_DYADIC, CHI_SIXTH):
        F = frobenius_action(chi)
        pool = [q for q in group_enumerate(qsubgroup(chi), 8) if q > 0]
        for _ in range(40):
            probes = rng.sample(pool, rng.randrange(1, 5))
            G = group_from_action(F, probes)
            for x in probes:
                assert contains(group_characteristic(G), x)


def test_group_from_action_errors():
    F = frobenius_action(CHI_Z)
    with pytest.raises(DomainError):
        group_from_action(F, [])
    with pytest.raises(StructuralError):
        group_from_action(F, [Fraction(1, 2)])
    corrupted = FlatAction(CHI_Z, lambda n, x: x, label="projection")
    with pytest.raises(ReconstructionError):
        group_from_action(corrupted, [3])


# -- theta_pt ------------------------------------------------------------------------

def test_theta_pt_of_z_is_theta_of_chang():
    T = theta_pt(CHI_Z)
    assert T == theta_perfect(__import__("mvtrop").CHANG)
    assert cone_elements(T, 4) == [0, 1, 2, 3, 4, TOP]


def test_theta_pt_of_q():
    T = theta_pt(CHI_Q)
    frag = cone_elements(T, 2)
    assert Fraction(1, 2) in frag and frag[-1] is TOP


def test_theta_pt_canonical_form():
    assert theta_pt(characteristic({})) == theta_pt(CHI_Z)


def test_theta_pt_functoriality():
    # an increasing hom src -> dst induces x ↦ r·x on the cones, preserving
    # addition, order, and the top
    rng = random.Random(8)
    pairs = [(src, dst) for src in CHI_ZOO for dst in CHI_ZOO
             if hom_exists(src, dst) is not None]
    assert pairs
    for src, dst in pairs:
        r = hom_exists(src, dst)
        T_src, T_dst = theta_pt(src), theta_pt(dst)
        from mvtrop.groups import group_coerce

        def mapped(c):
            return TOP if c is TOP else group_coerce(T_dst.base_group, r * c)

        frag = cone_elements(T_src, 6)
        for _ in range(30):
            x, y = rng.choice(frag), rng.choice(frag)
            fx, fy = mapped(x), mapped(y)
            assert fx is TOP or contains(dst, fx)
            assert mapped(cone_add(T_src, x, y)) == cone_add(T_dst, fx, fy)
            assert cone_leq(T_src, x, y) == cone_leq(T_dst, fx, fy)
        assert mapped(TOP) is TOP
