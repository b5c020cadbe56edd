"""Differential test: flat actions on ints against a Fraction reference.

``check_flatness`` and ``group_from_action`` run on (numerator, denominator)
pairs through ``FlatAction.act_pair``.  The reference below is their earlier
form, which computes with ``Fraction``s through ``act``; on the Frobenius
action and on non-flat user actions both must give the same report, group or
exception, field for field.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtrop import replace
from mvtrop.characteristics import (INF, characteristic, contains_rational,
                                    factor)
from mvtrop.errors import DomainError, ReconstructionError, StructuralError
from mvtrop.groups import qsubgroup
from mvtrop.qpoints import (FlatAction, check_flatness, frobenius_action,
                            group_from_action)
from mvtrop.report import VALID, CheckReport, Instances, check_laws


# -- the Fraction reference ----------------------------------------------------

def rational_gcd(values):
    """Greatest common divisor in Q: min of the p-adic valuations at every prime."""
    vs = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    if not vs or any(v == 0 for v in vs):
        raise DomainError("rational gcd needs nonzero arguments")
    num, den = 0, 1
    for v in vs:
        num = math.gcd(num, abs(v.numerator))
        den = math.lcm(den, v.denominator)
    return Fraction(num, den)


def _ref_fragment(chi, height):
    out = set()
    for d in range(1, height + 1):
        if not contains_rational(chi, Fraction(1, d)):
            continue
        for n in range(1, height + 1):
            q = Fraction(n, d)
            if q.denominator == d:
                out.add(q)
    return sorted(out)


def ref_check_flatness(F, samples=1000, seed=0, height=12):
    if samples < 1:
        raise DomainError("samples must be >= 1")
    pool = _ref_fragment(F.base, height)
    rng = random.Random(seed)

    def draws(arity):
        if arity == 2:
            return ((rng.choice(pool), rng.choice(pool)) for _ in range(samples))
        return ((rng.choice(pool), rng.randrange(1, 16), rng.randrange(1, 16))
                for _ in range(samples))

    def inside(w):
        return w > 0 and contains_rational(F.base, w)

    def refined(y, z):
        w = rational_gcd([y, z])
        if not inside(w):
            return False
        m, n = y / w, z / w
        return m.denominator == 1 and n.denominator == 1 \
            and F.act(int(m), w) == y and F.act(int(n), w) == z

    def witness(name, draw):
        if name == "torsion_free":
            return {"condition": 3, "pair": list(draw[1:]), "y": draw[0],
                    "reason": "m·y = n·y with m ≠ n on a torsion-free cone"}
        w = rational_gcd(list(draw))
        return {"condition": 2, "pair": list(draw), "w": w,
                "reason": "action does not reach the pair from the refinement" if inside(w)
                else "constructed witness falls outside the cone"}
    laws = [("refinement", 2, refined),
            ("torsion_free", 3, lambda y, m, n: m == n or F.act(m, y) != F.act(n, y))]
    report = check_laws(laws, Instances(draws, "sampled")).shaped(witness)
    if not report.ok:
        return replace(report, checked=1 + report.checked)
    return CheckReport(VALID, 1 + report.checked, mode="sampled",
                       details={"condition3": "vacuously satisfied", "condition3_collisions": 0})


def ref_group_from_action(F, probes):
    probes = [x if isinstance(x, Fraction) else Fraction(x) for x in probes]
    if not probes:
        raise DomainError("probes must be nonempty")
    for x in probes:
        if not (x > 0 and contains_rational(F.base, x)):
            raise StructuralError(f"probe {x} is not in the cone of {F.base!r}")
    m = math.lcm(*(x.denominator for x in probes))
    g = Fraction(1, m)
    if F.act(1, g) != g:
        raise ReconstructionError("action violates the identity law at the refinement")
    for x in probes:
        k = x.numerator * (m // x.denominator)
        if F.act(k, g) != x:
            raise ReconstructionError(
                f"induced sum is not well defined: {x} is not reached from {g}")
    return qsubgroup(characteristic(dict(factor(m))))


# -- strategies ----------------------------------------------------------------

exponents = st.one_of(st.integers(0, 3), st.just(INF))
chis = st.builds(lambda primes, default: characteristic(primes, default),
                 st.dictionaries(st.sampled_from([2, 3, 5, 7]), exponents, max_size=3),
                 st.sampled_from([0, INF]))


def _actions(chi, kind, k):
    if kind == "frobenius":
        return frobenius_action(chi)
    if kind == "projection":
        return FlatAction(chi, lambda n, x: x, label="projection")
    if kind == "fold":
        return FlatAction(chi, lambda n, x: (13 if n == 14 else n) * x, label="fold")
    # right everywhere except at one n, where it overshoots by one step of x
    return FlatAction(chi, lambda n, x: (n + 1) * x if n == k else n * x, label="wrong_at_k")


actions = st.builds(_actions, chis,
                    st.sampled_from(["frobenius", "projection", "fold", "wrong_at_k"]),
                    st.integers(1, 40))

fractions = st.builds(Fraction, st.integers(-2, 30), st.integers(1, 40))
probes = st.one_of(fractions, st.integers(-1, 12),
                   fractions.map(str), st.sampled_from(["abc", "1/0"]))


def _outcome(run):
    try:
        return ("returns", run())
    except Exception as exc:  # an error must match in type and message
        return ("raises", type(exc).__name__, str(exc))


# -- the tests -----------------------------------------------------------------

def test_rational_gcd():
    assert rational_gcd([Fraction(1, 2), Fraction(1, 3)]) == Fraction(1, 6)
    assert rational_gcd([6, 10]) == 2
    assert rational_gcd([Fraction(3, 4), Fraction(9, 2)]) == Fraction(3, 4)
    with pytest.raises(DomainError):
        rational_gcd([Fraction(0)])


@settings(max_examples=150, deadline=None)
@given(actions, st.integers(1, 300), st.integers(0, 999), st.integers(1, 12))
def test_check_flatness_agrees_with_the_fraction_reference(F, samples, seed, height):
    got = check_flatness(F, samples=samples, seed=seed, height=height)
    ref = ref_check_flatness(F, samples=samples, seed=seed, height=height)
    assert (got.verdict, got.checked, repr(got.witness), got.mode, got.details) == \
        (ref.verdict, ref.checked, repr(ref.witness), ref.mode, ref.details)


@settings(max_examples=300, deadline=None)
@given(actions, st.lists(probes, max_size=5))
def test_group_from_action_agrees_with_the_fraction_reference(F, xs):
    assert _outcome(lambda: group_from_action(F, xs)) == \
        _outcome(lambda: ref_group_from_action(F, xs))


@pytest.mark.parametrize("height", [0, -1, -12])
def test_check_flatness_refuses_a_height_below_one(height):
    with pytest.raises(DomainError, match="height must be >= 1"):
        check_flatness(frobenius_action(characteristic()), samples=10, height=height)


def test_frobenius_act_pair_keeps_the_checks_of_act():
    F = frobenius_action(characteristic())
    assert F.act_pair(3, 2, 5) == (6, 5)
    with pytest.raises(DomainError):
        F.act_pair(0, 1, 1)
    with pytest.raises(DomainError):
        F.act_pair(True, 1, 1)
    with pytest.raises(StructuralError, match="-1/2 is not in the strictly positive cone"):
        F.act_pair(2, -1, 2)


def test_act_pair_follows_act():
    F = frobenius_action(characteristic())
    # a replaced act brings its own int form: the checkers see the new action
    G = replace(F, act=lambda n, x: x)
    assert G.act_pair(3, 2, 5) == (2, 5)
    assert check_flatness(G, samples=50).verdict == "counterexample"
    with pytest.raises(ReconstructionError):
        group_from_action(G, [3])
    # and replacing a user act by Frobenius's picks up Frobenius's native form
    H = replace(FlatAction(F.base, lambda n, x: x), act=F.act)
    assert H.act_pair is F.act_pair
    assert check_flatness(H, samples=50).verdict == VALID


def test_act_pair_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        FlatAction(characteristic(), lambda n, x: x, act_pair=lambda n, a, b: (n * a, b))
