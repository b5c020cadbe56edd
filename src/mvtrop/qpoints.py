"""Subgroups of Q as points: invariants, regularity, flat actions, and Θ_pt.

A characteristic denotes a subgroup of Q containing 1.  Its Gp invariant (the
largest number of elements pairwise non-congruent modulo p) is 1 when the
group is p-divisible and p otherwise; the group is regularly discrete exactly
when it is cyclic and regularly dense otherwise.  The Frobenius action
(n, x) ↦ n·x on the strictly positive cone is the canonical flat action, and
Θ_pt composes Δ and θ to turn a point into a positive cone with a top.

A flat action also acts on ints, n on a/b as ``act_pair(n, a, b)``.  The
flatness check and the reconstruction of a group from an action call only that
and compare by cross-multiplication, with no ``Fraction`` arithmetic per instance.
The flatness check draws its instances as ``algebra``'s sampled checks do, from
lazy ``seeded_draws`` streams on one seeded generator: the values of a loop of
``rng.choice`` and ``rng.randrange`` calls, with no Python call per draw.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable

from .algebra import seeded_draws
from .bisemirings import TopCone
from .characteristics import (INF, Characteristic, admits_denominator,
                              characteristic, contains_rational, factor, is_prime)
from .errors import (DomainError, ReconstructionError, StructuralError,
                     WitnessNotFoundError)
from .functors import delta, theta_perfect
from .groups import LGroup, qsubgroup
from .report import VALID, CheckReport, Instances, check_laws
from .value import Value, replace, set_field

REGULARLY_DISCRETE = "regularly_discrete"
REGULARLY_DENSE = "regularly_dense"


class GpInvariant(Value):
    def __init__(self, prime: int, value: int):
        set_field(self, "prime", prime)
        set_field(self, "value", value)


def gp_invariant(chi: Characteristic, p: int) -> GpInvariant:
    """The size of G/pG read as a congruence invariant: 1 if p-divisible, else p."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return GpInvariant(p, 1 if chi.exponent(p) == INF else p)


def classify_regularity(chi: Characteristic) -> str:
    """Regularly discrete iff the group is cyclic (has a least positive element)."""
    return REGULARLY_DISCRETE if chi.is_cyclic else REGULARLY_DENSE


def _divisible_prime(chi: Characteristic) -> int:
    """Smallest prime q with chi(q) = ∞ (exists whenever the group is dense)."""
    q = 2
    while True:
        if is_prime(q) and chi.exponent(q) == INF:
            return q
        q += 1


def find_divisible_between(chi: Characteristic, p: int, a, b) -> Fraction:
    """A witness x with a < x < b, x in the group, and x/p in the group.

    For dense groups a witness always exists (multiples of p/q^k for a prime q
    with infinite exponent); for a cyclic group the multiples of p/m are
    searched and WitnessNotFoundError explains a miss.  The returned witness
    is re-verified through ``contains_rational`` before being handed back.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise DomainError(f"need a < b, got {a} and {b}")
    if not (contains_rational(chi, a) and contains_rational(chi, b)):
        raise StructuralError("interval endpoints must lie in the group")

    if a < 0 < b:
        x = Fraction(0)
    elif chi.is_cyclic:
        step = Fraction(p, chi.modulus())
        x = (a // step + 1) * step
        if not x < b:
            raise WitnessNotFoundError(
                f"no multiple of {step} lies strictly between {a} and {b}; "
                f"the group is cyclic with least positive element {Fraction(1, chi.modulus())}")
    else:
        q = _divisible_prime(chi)
        step = Fraction(p)
        while step >= b - a:
            step /= q
        x = (a // step + 1) * step

    if not (a < x < b and contains_rational(chi, x)
            and contains_rational(chi, Fraction(x, p))):
        raise WitnessNotFoundError(f"constructed witness {x} failed verification")
    return x


def common_measure(x, y) -> tuple[int, int]:
    """Minimal positive (m, n) with m·x = n·y, for nonzero rationals of equal sign."""
    x, y = Fraction(x), Fraction(y)
    if x == 0 or y == 0:
        raise DomainError("common measure needs nonzero arguments")
    if (x > 0) != (y > 0):
        raise DomainError("no positive solution for arguments of opposite sign")
    ad = abs(x.numerator * y.denominator)
    cb = abs(y.numerator * x.denominator)
    g = math.gcd(ad, cb)
    return (cb // g, ad // g)


def _hom_analysis(src: Characteristic, dst: Characteristic):
    """Returns (r, None) when r·G_src ⊆ G_dst, else (None, certificate prime)."""
    if src.default == INF and dst.default == 0:
        listed = {p for p, _ in src.primes} | {p for p, _ in dst.primes}
        q = 2
        while q in listed or not is_prime(q):
            q += 1
        return None, q
    r = 1
    for p in sorted({p for p, _ in src.primes} | {p for p, _ in dst.primes}):
        s, d = src.exponent(p), dst.exponent(p)
        if s == INF and d != INF:
            return None, p
        if s != INF and d != INF and s > d:
            r *= p ** int(s - d)
    return Fraction(r), None


def hom_exists(src: Characteristic, dst: Characteristic) -> Fraction | None:
    """A positive rational r with r·G_src ⊆ G_dst, or None when no hom exists.

    Every group homomorphism between subgroups of Q is multiplication by a
    rational, and the increasing ones are exactly those with r > 0.
    """
    r, _ = _hom_analysis(src, dst)
    return r


def hom_obstruction(src: Characteristic, dst: Characteristic) -> int | None:
    """A certificate prime with infinite excess divisibility, or None when a hom exists."""
    _, cert = _hom_analysis(src, dst)
    return cert


# ---------------------------------------------------------------------------
# Flat actions of the multiplicative monoid of positive integers.

class FlatAction(Value, eq=False):
    """An action (n, x) ↦ act(n, x) on the strictly positive cone of a subgroup of Q.

    ``act_pair(n, a, b)`` is the same action on ints: n acting on a/b (b > 0)
    gives a pair (c, d) for c/d, not necessarily in lowest terms.  The checkers
    call only ``act_pair``.  It is derived from ``act`` on every construction:
    an ``act`` carrying its own int form as an ``act_pair`` attribute (as
    ``frobenius_action``'s does) supplies it, and any other ``act`` is called
    on Fraction(a, b).
    """

    def __init__(self, base: Characteristic, act: Callable[[int, Fraction], Fraction],
                 label: str = "action"):
        act_pair = getattr(act, "act_pair", None) or (
            lambda n, a, b: Fraction(act(n, Fraction(a, b))).as_integer_ratio())
        set_field(self, "base", base)
        set_field(self, "act", act)
        set_field(self, "label", label)
        set_field(self, "act_pair", act_pair)

    def __repr__(self) -> str:
        return f"FlatAction({self.label}, base={self.base!r})"


def frobenius_action(chi: Characteristic) -> FlatAction:
    """The canonical flat action: n acts on the positive cone as x ↦ n·x, on ints as
    (a, b) ↦ (n·a, b)."""
    def act_pair(n: int, a: int, b: int) -> tuple[int, int]:
        if not isinstance(n, int) or n < 1 or n is True:  # False is below 1
            raise DomainError(f"the acting monoid consists of positive integers, got {n!r}")
        if a <= 0:
            raise StructuralError(f"{Fraction(a, b)} is not in the strictly positive cone")
        return n * a, b

    def act(n: int, x: Fraction) -> Fraction:
        return Fraction(*act_pair(n, *Fraction(x).as_integer_ratio()))
    act.act_pair = act_pair
    return FlatAction(chi, act, label="frobenius")


def _positive_fragment(chi: Characteristic, height: int) -> list[tuple[int, int]]:
    """The cone's elements n/d with n, d <= height, as lowest-terms pairs in
    increasing order, sorted on the int key n·(L/d) as ``QSubgroup.scaled`` is."""
    ds = [d for d in range(1, height + 1) if admits_denominator(chi, d)]
    L = math.lcm(*ds)
    pairs = [(n, d) for d in ds for n in range(1, height + 1) if math.gcd(n, d) == 1]
    return sorted(pairs, key=lambda p: p[0] * (L // p[1]))


def _flatness_draws(pool: list, rng: random.Random, samples: int) -> Callable:
    """``check_flatness``'s instances on the generator rng: ``samples`` pairs of
    pool elements, then ``samples`` triples (y, m, n) with m, n in 1..15.
    ``zip`` reads its streams in turn, one draw at a time, so the raw draws
    interleave on rng as the slots' ``choice`` calls would take them."""
    y, m = seeded_draws(pool, rng), seeded_draws(range(1, 16), rng)
    return lambda arity: islice(zip(y, y) if arity == 2 else zip(y, m, m), samples)


def check_flatness(F: FlatAction, samples: int = 1000, seed: int = 0,
                   height: int = 12) -> CheckReport:
    """Sampled verification of the three flatness conditions, on ints through ``act_pair``.

    Condition 1 (nonemptiness) holds by construction since 1 is in every cone.
    Condition 2 is checked by building the common refinement w = gcd(y, z) for
    sampled pairs y = a/b and z = c/d, which is gcd(a, c)/lcm(b, d) in lowest
    terms, and confirming through the action itself that m·w = y and n·w = z.
    No membership test is needed: w lies in the cone because 1/b and 1/d do, and
    so does 1/lcm(b, d).  Condition 3 is vacuous on a torsion-free positive
    cone (m·y = n·y forces m = n); the samples confirm that and the report says
    so rather than silently passing.  Results are compared by cross-multiplication.
    A valid report's ``condition3_collisions`` is always 0, because the first
    collision is a counterexample; it stays because the README and the benchmark
    oracle print it.

    The instances are those of a loop of ``rng.choice(pool)`` and
    ``rng.randrange(1, 16)`` calls on ``random.Random(seed)``, read from lazy
    ``seeded_draws`` streams with no Python call per draw (``_flatness_draws``):
    ``randrange(1, 16)`` is ``choice(range(1, 16))``, and a choice keeps the
    first raw ``getrandbits`` draw of the slot's bit length that is below the
    slot's size.  So every ``checked`` and witness is the loop's.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if height < 1:
        raise DomainError("height must be >= 1")
    chi, act = F.base, F.act_pair
    pool = _positive_fragment(chi, height)  # never empty: it holds 1
    draws = _flatness_draws(pool, random.Random(seed), samples)

    def refined(y, z):  # the action reaches y and z from w = g/l
        (a, b), (c, d) = y, z
        g, l = math.gcd(a, c), math.lcm(b, d)
        p, q = act(a // g * (l // b), g, l)
        if p * b != a * q:
            return False
        p, q = act(c // g * (l // d), g, l)
        return p * d == c * q

    def torsion_free(y, m, n):
        if m == n:
            return True
        (p, q), (r, s) = act(m, *y), act(n, *y)
        return p * s != r * q

    def witness(name, draw):
        if name == "torsion_free":
            return {"condition": 3, "pair": list(draw[1:]), "y": Fraction(*draw[0]),
                    "reason": "m·y = n·y with m ≠ n on a torsion-free cone"}
        (a, b), (c, d) = draw
        return {"condition": 2, "pair": [Fraction(a, b), Fraction(c, d)],
                "w": Fraction(math.gcd(a, c), math.lcm(b, d)),
                "reason": "action does not reach the pair from the refinement"}
    laws = [("refinement", 2, refined), ("torsion_free", 3, torsion_free)]
    report = check_laws(laws, Instances(draws, lambda _: samples, "sampled")).shaped(witness)
    if not report.ok:  # condition 1 counts once
        return replace(report, checked=1 + report.checked)
    return CheckReport(VALID, 1 + report.checked, mode="sampled",
                       details={"condition3": "vacuously satisfied", "condition3_collisions": 0})


def group_from_action(F: FlatAction, probes: Iterable) -> LGroup:
    """Reconstruct a subgroup of Q from finitely many cone elements.

    The induced sum k·z + k'·z = (k + k')·z generates, from the probes together
    with 1, the cyclic group (1/m)Z where m is the least common denominator.
    Every probe is re-derived through ``act_pair`` from the common refinement
    1/m and compared by cross-multiplication; a mismatch (a non-flat action)
    raises ReconstructionError.
    """
    probes = [x if isinstance(x, Fraction) else Fraction(x) for x in probes]
    if not probes:
        raise DomainError("probes must be nonempty")
    chi, act = F.base, F.act_pair
    nums, dens = [x.numerator for x in probes], [x.denominator for x in probes]
    m = math.lcm(*dens)
    # every 1/b lies in the group iff 1/m does, so membership needs one check
    if min(nums) <= 0 or not admits_denominator(chi, m):
        x = next(x for x in probes if not (x > 0 and contains_rational(chi, x)))
        raise StructuralError(f"probe {x} is not in the cone of {chi!r}")
    c, d = act(1, 1, m)
    if c * m != d:
        raise ReconstructionError("action violates the identity law at the refinement")
    for a, b in zip(nums, dens):
        c, d = act(a * (m // b), 1, m)
        if c * b != a * d:
            raise ReconstructionError(f"induced sum is not well defined: {Fraction(a, b)} "
                                      f"is not reached from {Fraction(1, m)}")
    return _cyclic_group(m)


@lru_cache(maxsize=64)
def _cyclic_group(m: int) -> LGroup:
    """The descriptor of (1/m)Z."""
    return qsubgroup(characteristic(dict(factor(m))))


def theta_pt(chi: Characteristic) -> TopCone:
    """Θ_pt: the positive cone with a top attached to a point, via θ ∘ Δ."""
    return theta_perfect(delta(qsubgroup(chi)))
