"""Supernatural characteristics: finite prime-to-exponent maps denoting subgroups of Q.

A characteristic assigns to every prime an exponent in N ∪ {∞}: finitely many
primes are listed explicitly, all others take the default (0 or ∞).  It denotes
the subgroup {q ∈ Q : v_p(q) >= -chi(p) for all primes p}, which always
contains 1.  ``chi_z`` denotes Z, ``chi_q`` denotes Q, and e.g. chi(2)=∞ with
default 0 denotes the dyadic rationals Z[1/2].  Membership divides chi's listed
primes out of a denominator and never factors it; ``factor`` only builds
characteristics, from the m of ``Z[1/m]``, and stops trial division at a prime
cofactor or at 10⁶, where a cofactor that is not a decided prime is refused.
Primality is the strong (Miller–Rabin) test to the bases 2..41, exact below ψ13
(J. Sorenson and J. Webster, Math. Comp. 86, 2017) and refused above.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

from .errors import DomainError, UsageError

INF = math.inf

Exponent = Union[int, float]  # a natural number or INF

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # ψ13, the least strong pseudoprime to all of _BASES
TRIAL_LIMIT = 10 ** 6  # factor's trial division stops here, after about 0.1 s


def is_prime(n: int) -> bool:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    if n >= _PSI_13:
        raise DomainError(f"cannot test {n} for primality: it is not below {_PSI_13}")
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n − 1 = 2^r · d with d odd
    for a in _BASES:
        x = pow(a, (n - 1) >> r, n)
        if x == 1:  # 1 is accepted only before the first squaring
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@lru_cache(maxsize=4096)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...) in ascending order.

    Trial division stops at a cofactor the strong test decides prime, and at
    TRIAL_LIMIT: a cofactor with no prime factor up to it that is not a decided
    prime raises DomainError.  Kept in a bounded cache: a long-lived process
    reads the same ``Z[1/m]`` over and over, and must not grow without limit.
    """
    if n < 1:
        raise DomainError(f"cannot factor {n}")
    out, d, rest = [], 2, n
    # until rest is a known prime (at or above ψ13 is_prime cannot tell, so divide on)
    while rest > 1 and (rest >= _PSI_13 or not is_prime(rest)):
        while rest % d:
            d += 1 if d == 2 else 2
            if d > TRIAL_LIMIT:
                raise DomainError(f"cannot factor {n}: {'it' if rest == n else rest} has no "
                                  f"prime factor up to {TRIAL_LIMIT} and is not a decided prime")
        e = 0
        while rest % d == 0:
            rest //= d
            e += 1
        out.append((d, e))
    if rest > 1:
        out.append((rest, 1))
    return tuple(out)


@dataclass(frozen=True)
class Characteristic:
    """Canonical form: entries sorted by prime, no entry equal to the default."""

    default: Exponent
    primes: tuple[tuple[int, Exponent], ...]

    def exponent(self, p: int) -> Exponent:
        for q, e in self.primes:
            if q == p:
                return e
        return self.default

    @property
    def is_cyclic(self) -> bool:
        """True iff the denoted group is (1/m)Z for some m, i.e. has a least positive element."""
        return self.default == 0 and all(e != INF for _, e in self.primes)

    def modulus(self) -> int:
        """For a cyclic characteristic, the m with denoted group (1/m)Z."""
        if not self.is_cyclic:
            raise DomainError("modulus is only defined for cyclic characteristics")
        m = 1
        for p, e in self.primes:
            m *= p ** int(e)
        return m

    def to_json(self) -> dict:
        return {"default": "inf" if self.default == INF else "0",
                "primes": {str(p): ("inf" if e == INF else str(int(e))) for p, e in self.primes}}

    def __repr__(self) -> str:
        entries = ", ".join(f"{p}:{'inf' if e == INF else int(e)}" for p, e in self.primes)
        d = "inf" if self.default == INF else "0"
        return f"Characteristic(default={d}, {{{entries}}})"


def characteristic(assignments: Mapping[int, Exponent] | None = None,
                   default: Exponent = 0) -> Characteristic:
    """Build a characteristic in canonical form, validating primes and exponents."""
    if default not in (0, INF):
        raise DomainError("default exponent must be 0 or inf")
    entries = []
    for p, e in sorted((assignments or {}).items()):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if e != INF and (not isinstance(e, int) or isinstance(e, bool) or e < 0):
            raise DomainError(f"exponent for {p} must be a natural number or inf")
        if e != default:
            entries.append((p, e))
    return Characteristic(default, tuple(entries))


CHI_Z = characteristic()
CHI_Q = characteristic(default=INF)


def contains_rational(chi: Characteristic, q) -> bool:
    """Membership of q in the denoted subgroup of Q, which depends on q's denominator alone."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return admits_denominator(chi, q.denominator)


def admits_denominator(chi: Characteristic, den: int) -> bool:
    """Whether the group holds the rationals of lowest denominator den: what is left of
    den after dividing out chi's listed primes must be 1, unless the default is ∞."""
    if den == 1:
        return True
    for p, e in chi.primes:
        while den % p == 0:  # each p spends one of chi(p)'s allowance
            den //= p
            e -= 1
        if e < 0:
            return False
    return den == 1 or chi.default == INF


_LABEL_RE = re.compile(r"^Z\[(.+)\]$")


def parse_group_label(text: str) -> Characteristic:
    """Parse shorthand like "Z", "Q", "Z[1/2]", "Z[1/2,1/3]", "Z[1/6]"."""
    text = text.strip()
    if text == "Z":
        return CHI_Z
    if text == "Q":
        return CHI_Q
    m = _LABEL_RE.match(text)
    if m is None:
        raise UsageError(f"unrecognized group shorthand {text!r}")
    assignments: dict[int, Exponent] = {}
    for part in m.group(1).split(","):
        part = part.strip()
        if not part.startswith("1/"):
            raise UsageError(f"expected entries of the form 1/m in {text!r}")
        try:
            denom = int(part[2:])
        except ValueError:
            raise UsageError(f"bad inverted integer in {text!r}") from None
        if denom < 2:
            raise UsageError(f"inverted integer must be >= 2 in {text!r}")
        for p, _ in factor(denom):
            assignments[p] = INF
    return characteristic(assignments)


def group_label(chi: Characteristic) -> str | None:
    """Shorthand for the denoted group, or None when it has no compact spelling."""
    if chi == CHI_Z:
        return "Z"
    if chi == CHI_Q:
        return "Q"
    if chi.default == 0 and all(e == INF for _, e in chi.primes):
        return "Z[" + ",".join(f"1/{p}" for p, _ in chi.primes) + "]"
    return None
