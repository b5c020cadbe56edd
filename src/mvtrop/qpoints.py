"""Subgroups of Q as points: invariants, regularity, flat actions, and Θ_pt.

A characteristic denotes a subgroup of Q containing 1.  Its Gp invariant (the
largest number of elements pairwise non-congruent modulo p) is 1 when the
group is p-divisible and p otherwise; the group is regularly discrete exactly
when it is cyclic and regularly dense otherwise.  The Frobenius action
(n, x) ↦ n·x on the strictly positive cone is the canonical flat action, and
Θ_pt composes Δ and θ to turn a point into a positive cone with a top.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from .bisemirings import TopCone
from .characteristics import (CHI_Z, INF, Characteristic, characteristic,
                              contains_rational, factor, is_prime)
from .errors import (DomainError, ReconstructionError, StructuralError,
                     WitnessNotFoundError)
from .functors import delta, theta_perfect
from .groups import Integers, LGroup, QSubgroup, qsubgroup
from .report import COUNTEREXAMPLE, VALID, CheckReport, Instances, check_laws

REGULARLY_DISCRETE = "regularly_discrete"
REGULARLY_DENSE = "regularly_dense"


def group_characteristic(G: LGroup) -> Characteristic:
    """The characteristic denoting a subgroup-of-Q descriptor (inverse of qsubgroup)."""
    if isinstance(G, Integers):
        return CHI_Z
    if isinstance(G, QSubgroup):
        return G.chi
    raise DomainError(f"{G!r} is not a subgroup-of-Q descriptor")


@dataclass(frozen=True)
class GpInvariant:
    prime: int
    value: int


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

@dataclass(frozen=True, eq=False)
class FlatAction:
    """An action (n, x) ↦ act(n, x) on the strictly positive cone of a subgroup of Q."""

    base: Characteristic
    act: Callable[[int, Fraction], Fraction] = field(repr=False)
    label: str = "action"

    def __repr__(self) -> str:
        return f"FlatAction({self.label}, base={self.base!r})"


def frobenius_action(chi: Characteristic) -> FlatAction:
    """The canonical flat action: n acts on the positive cone as x ↦ n·x."""
    def act(n: int, x: Fraction) -> Fraction:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DomainError(f"the acting monoid consists of positive integers, got {n!r}")
        if not isinstance(x, Fraction):
            x = Fraction(x)
        if x <= 0:
            raise StructuralError(f"{x} is not in the strictly positive cone")
        return n * x
    return FlatAction(chi, act, label="frobenius")


def rational_gcd(values: Iterable) -> Fraction:
    """Greatest common divisor in Q: min of the p-adic valuations at every prime."""
    vs = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    if not vs or any(v == 0 for v in vs):
        raise DomainError("rational gcd needs nonzero arguments")
    num = 0
    den = 1
    for v in vs:
        num = math.gcd(num, abs(v.numerator))
        den = math.lcm(den, v.denominator)
    return Fraction(num, den)


def _positive_fragment(chi: Characteristic, height: int) -> list[Fraction]:
    out = set()
    for d in range(1, height + 1):
        if not contains_rational(chi, Fraction(1, d)):
            continue  # membership of n/d in lowest terms depends on d alone
        for n in range(1, height + 1):
            q = Fraction(n, d)
            if q.denominator == d:
                out.add(q)
    return sorted(out)


def check_flatness(F: FlatAction, samples: int = 1000, seed: int = 0,
                   height: int = 12) -> CheckReport:
    """Sampled verification of the three flatness conditions.

    Condition 1 (nonemptiness) holds by construction since 1 is in every cone.
    Condition 2 is checked by building the common refinement w = gcd(y, z) for
    sampled pairs and confirming through the action itself that m·w = y and
    n·w = z with w inside the cone.  Condition 3 is vacuous on a torsion-free
    positive cone (m·y = n·y forces m = n); the samples confirm that and the
    report says so rather than silently passing.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    pool = _positive_fragment(F.base, height)
    if not pool:
        return CheckReport(COUNTEREXAMPLE, 0, {"condition": 1, "reason": "empty cone"},
                           mode="sampled")
    rng = random.Random(seed)

    def draws(arity):  # pairs (y, z) for condition 2, triples (y, m, n) for condition 3
        if arity == 2:
            return ((rng.choice(pool), rng.choice(pool)) for _ in range(samples))
        return ((rng.choice(pool), rng.randrange(1, 16), rng.randrange(1, 16))
                for _ in range(samples))

    def inside(w):
        return w > 0 and contains_rational(F.base, w)

    def refined(y, z):  # w = gcd(y, z) lies in the cone and the action reaches y and z from it
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
    if not report.ok:  # condition 1 counts once
        return replace(report, checked=1 + report.checked)
    return CheckReport(VALID, 1 + report.checked, mode="sampled",
                       details={"condition3": "vacuously satisfied", "condition3_collisions": 0})


def group_from_action(F: FlatAction, probes: Iterable) -> LGroup:
    """Reconstruct a subgroup of Q from finitely many cone elements.

    The induced sum k·z + k'·z = (k + k')·z generates, from the probes together
    with 1, the cyclic group (1/m)Z where m is the least common denominator.
    Every probe is re-derived through the action from the common refinement;
    a mismatch (a non-flat action) raises ReconstructionError.
    """
    probes = [x if isinstance(x, Fraction) else Fraction(x) for x in probes]
    if not probes:
        raise DomainError("probes must be nonempty")
    for x in probes:
        if not (x > 0 and contains_rational(F.base, x)):
            raise StructuralError(f"probe {x} is not in the cone of {F.base!r}")
    m = math.lcm(*(x.denominator for x in probes))
    g = Fraction(1, m)  # the gcd of the probes and 1
    if F.act(1, g) != g:
        raise ReconstructionError("action violates the identity law at the refinement")
    for x in probes:
        k = x.numerator * (m // x.denominator)
        if F.act(k, g) != x:
            raise ReconstructionError(
                f"induced sum is not well defined: {x} is not reached from {g}")
    return _cyclic_group(m)


@lru_cache(maxsize=64)
def _cyclic_group(m: int) -> LGroup:
    """The descriptor of (1/m)Z."""
    return qsubgroup(characteristic(dict(factor(m))))


def theta_pt(chi: Characteristic) -> TopCone:
    """Θ_pt: the positive cone with a top attached to a point, via θ ∘ Δ."""
    return theta_perfect(delta(qsubgroup(chi)))
